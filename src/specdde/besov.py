"""Dyadic frequency decomposition and periodic Besov norms.

The partition lives on integer frequencies only, so it is built from one
piecewise-linear tent: with x = |k| / 2^j, block j has the weights

    phi_j(k) = clip(min(r_j, 2 - x), 0, 1),   r_j = 2x - 1 (j >= 1),  r_0 = 1,

one array expression over every (level, mode) pair (``partition_eval``).
A band |k| <= K meets (K - 1).bit_length() + 2 levels for K >= 1 and one for
K = 0.  All weights are dyadic rationals, so the partition of unity holds
exactly in floating point; that makes it testable in exact arithmetic, which
a smooth bump would not allow.

The norm of a band-limited f is

    ( sum_j 2^{s j q} || sum_k e^{ikt} phi_j(k) fhat(k) ||_p^q )^{1/q}

with the unnormalized L^p integral over one period.  f is split once into
real functions, not into its n complex columns: the real and imaginary part
of each column, less the parts that are exactly zero, are paired into
complex rows a + ib, whose squared moduli a^2 + b^2 sum to |f(t)|^2.  Two
real signals share one complex transform (Cooley, Lewis and Welch, J. Sound
Vib. 12, 1970), and the weights are even in k, so a level's rows are its
weights times those of f: a real two-column f is one row per level, and a
level whose weights vanish where f is nonzero is never synthesised.

For p == 2 a block's norm is Parseval's, (2 pi sum_k |row_k|^2)^{1/2} over
its rows, and nothing is synthesised.  For other p the blocks are
integrated by the periodic trapezoid rule, which converges geometrically
where |f|^p is smooth (Trefethen and Weideman, SIAM Rev. 56, 2014), on
doubling grids m = m0 2^i: m0 is the smallest 7-smooth length with 4
points per mode of the live band |k| <= b, b the highest mode where f is
nonzero.  Each grid is one inverse FFT of every live level on 2m points
(one a level on a large stack); the even nodes give the norm Q_m and all
of them Q_2m.  The grids stop doubling when |Q_m - Q_2m| <= 1e-13 Q_m, and
at the latest on the first m at or above max(N, 4 (2K + 1)), the grid
that 4 points per mode of the stored band |k| <= K would take
(``besov_norm_report``).  Up to that cap the grids depend on the live band
and on the target alone, so a function stored on a wide band with few
live modes pays for the modes it has.

Block norms are independent per level; the final sum runs in ascending j.
Each live level's rows are scaled once by the power of two 2^-e that
brings their largest part into [1/2, 1) (``_level_rows``), and its
squares are divided by their largest before the (p/2)-th powers
(``_power_sums``), so the largest power is exactly 1 at any p.  The block
norm is scaled back by 2^e, and the block sum is taken on blocks scaled by
a power of two too (``_combine_blocks``).  These scalings are exact: only
a norm beyond the float range is infinite, none loses bits to underflow,
and 2^e f has 2^e times the norm bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np

from .symbols import TWO_PI, PeriodicGridFunction, _power_of_two_scaled, mode_range

#: quadrature points per mode of the live band on the first p != 2 grid, and
#: of the stored band on the last
_POINTS_PER_MODE = 4

#: relative change |Q_m - Q_2m| / Q_m of the norm at which the grids stop
#: doubling (``besov_norm_report``)
_CONVERGED = 1e-13

#: samples, over every level and row, that one inverse FFT of
#: ``_power_sums`` holds; a larger stack is synthesised one level at a time.
#: At 16 bytes a sample that is 1 MB: a real function live on every mode up
#: to K = 4096 has 13 live levels of 65,610 samples, 13.6 MB at once
_STACK_SAMPLES = 2**16


def partition_eval(level, k):
    """Weight phi_level(k) = clip(min(r, 2 - x), 0, 1) of dyadic block
    ``level``, x = |k| / 2^level, r = 2x - 1 (r = 1 on level 0); accepts
    scalar or array real k, and an integer array of levels that broadcasts
    against k; returns float(s) in [0, 1]."""
    if np.any(np.asarray(level) < 0):
        raise ValueError("level must be >= 0")
    x = np.abs(np.asarray(k, dtype=float)) / 2.0 ** level
    out = np.clip(np.minimum(np.where(level == 0, 1.0, 2.0 * x - 1.0), 2.0 - x), 0.0, 1.0)
    return out if out.ndim else float(out)


def _partition_weights(bandwidth: int, modes: np.ndarray) -> np.ndarray:
    """Weights on ``modes`` of every level whose support meets [-K, K],
    K = ``bandwidth``: levels 0..ceil(log2 K) + 1, that is (K - 1).bit_length()
    + 2 rows, for K >= 1 and level 0 for K = 0; shape (rows, len(modes))."""
    rows = (bandwidth - 1).bit_length() + 2 if bandwidth >= 1 else 1
    return partition_eval(np.arange(rows)[:, None], modes)


@dataclass(frozen=True)
class BesovParams:
    """Smoothness / integrability / summability triple (0 < s < inf, 1 <= p, q < inf)."""

    s: float
    p: float = 2.0
    q: float = 2.0

    def __post_init__(self):
        if not 0.0 < self.s < np.inf:
            raise ValueError(f"smoothness s must be positive and finite, got {self.s}")
        if not (1.0 <= self.p < np.inf):
            raise ValueError(f"p must lie in [1, inf), got {self.p}")
        if not (1.0 <= self.q < np.inf):
            raise ValueError(f"q must lie in [1, inf), got {self.q}")


def _seven_smooth(n: int) -> int:
    """Smallest m >= n with no prime factor above 7, a length pocketfft
    transforms without Bluestein's algorithm."""
    m = max(n, 1)
    while True:
        rest = m
        for prime in (2, 3, 5, 7):
            while rest % prime == 0:
                rest //= prime
        if rest == 1:
            return m
        m += 1


def _grids(f: PeriodicGridFunction, band: int) -> Iterator[int]:
    """The p != 2 quadrature grids of f, whose highest live mode is
    ``band``: m0 = the smallest 7-smooth length of at least 4 points per
    mode of |k| <= band, doubled up to the first m >= max(N, 4 (2K + 1))."""
    m = _seven_smooth(_POINTS_PER_MODE * (2 * band + 1))
    last = max(f.n_samples, _POINTS_PER_MODE * (2 * f.bandwidth + 1))
    while m < last:
        yield m
        m *= 2
    yield m


def _real_rows(modes: np.ndarray,
               coefficients: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The real and imaginary part rows of f, whose coefficients on
    ``modes`` (symmetric about 0, ascending) are ``coefficients``.

    Returns (modes, a, b): the modes on which f or its mirror has a nonzero
    coefficient, and two (rows, len(modes)) arrays of coefficients on them,
    such that the squared moduli of the rows a + ib sum to |f(t)|^2.
    Column i splits into Re f_i and Im f_i, whose Hermitian rows are
    (c_k + conj c_{-k}) / 2 and (c_k - conj c_{-k}) / 2i; the rows that are
    exactly zero are dropped (Im f_i of a real column) and the rest are taken
    two at a time as a and b.  A real function (``PeriodicGridFunction.is_real``:
    the solution of a real problem, a real harmonics forcing, real samples)
    has exactly Hermitian coefficients, so its rows are its columns taken
    two at a time; imaginary parts are live only for complex functions.
    """
    live = np.any(coefficients, axis=1)
    index = np.flatnonzero(live | live[::-1])
    modes, coefficients = modes[index], coefficients[index]
    mirrored = np.conj(coefficients[::-1])
    real, imag = (coefficients + mirrored) / 2.0, (coefficients - mirrored) / 2j
    parts = [part for pair in zip(real.T, imag.T) for part in pair if np.any(part)]
    parts += [np.zeros(len(modes))] * (len(parts) % 2)
    pairs = np.array(parts, dtype=complex).reshape(len(parts) // 2, 2, len(modes))
    return modes, pairs[:, 0], pairs[:, 1]


def _power_sums(modes: np.ndarray, rows: np.ndarray, m: int, p: float) -> np.ndarray:
    """L^p norm of the function of each level, whose |f|^2 is the sum of its
    rows' squared moduli: shape (levels, 1) for p == 2 and (levels, 2)
    otherwise, the trapezoid values on m and 2m points.

    ``rows`` holds each level's rows on ``modes`` (symmetric about 0,
    ascending), shape (levels, rows, len(modes)).  For p == 2 the norm is
    Parseval's, (2 pi sum_k |row_k|^2)^{1/2} over every row.  Otherwise the
    rows are synthesised on 2m points: scattered to column k mod 2m, and
    one in-place inverse FFT of every level, or of each level alone when
    they would hold more than _STACK_SAMPLES samples.  The squares are
    written over the samples and divided by the level's largest, P, so its
    largest (p/2)-th power is exactly 1 at any p; the norms are sqrt(P) (2 pi / m sum)^{1/p} over the m even nodes, which
    are the m-point grid, and sqrt(P) (2 pi / 2m sum)^{1/p} over all 2m.
    """
    if p == 2.0:
        squares = rows.real ** 2 + rows.imag ** 2
        return np.sqrt(TWO_PI * squares.sum(axis=(1, 2)))[:, None]
    levels, count = rows.shape[:2]
    step = levels if levels * count * 2 * m <= _STACK_SAMPLES else 1
    columns = np.mod(modes, 2 * m)
    norms = np.empty((levels, 2))
    for start in range(0, levels, step):
        part = slice(start, start + step)
        samples = np.zeros(rows[part].shape[:2] + (2 * m,), dtype=complex)
        samples[..., columns] = rows[part]
        np.fft.ifft(samples, axis=-1, norm="forward", out=samples)
        parts = samples.view(np.float64)
        np.square(parts, out=parts)
        squared = np.add(parts[..., 0::2], parts[..., 1::2], out=parts[..., 0::2])
        squared = squared[:, 0] if count == 1 else squared.sum(axis=1)
        peak = squared.max(axis=-1, keepdims=True)
        powers = np.power(np.divide(squared, peak, out=squared), p / 2.0, out=squared)
        even, odd = powers[:, 0::2].sum(axis=-1), powers[:, 1::2].sum(axis=-1)
        integrals = np.column_stack([TWO_PI / m * even, TWO_PI / (2 * m) * (even + odd)])
        norms[part] = np.sqrt(peak) * integrals ** (1.0 / p)
    return norms


def _level_rows(f: PeriodicGridFunction) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(modes, live, rows, exponents): the modes where f or its mirror is
    nonzero; which dyadic levels of f have rows that are not exactly zero,
    a mask over every level; and the rows of those levels on the modes,
    shape (live levels, rows, len(modes)), each level scaled by the 2^-e
    that brings its largest part into [1/2, 1)
    (``symbols._power_of_two_scaled``), with the exponents e.

    f is split once (``_real_rows``) into rows a, b on those modes, and the
    weights w are taken on them only.  w is even in k, so a level's rows
    are w a + i (w b); for a real f that is bit for bit the split of w c,
    whose Hermitian part is exactly w c.
    """
    modes, a, b = _real_rows(mode_range(f.bandwidth), f.coefficients)
    weights = _partition_weights(f.bandwidth, modes)[:, None, :]
    rows = weights * a + 1j * (weights * b)
    live = np.any(rows, axis=(1, 2))
    rows = rows[live]
    exponents = np.empty(len(rows), dtype=int)
    for level in range(len(rows)):
        rows[level], exponents[level] = _power_of_two_scaled(rows[level])
    return modes, live, rows, exponents


def _combine_blocks(blocks: np.ndarray, params: BesovParams) -> float:
    """( sum_j (2^{s j} block_j)^q )^{1/q}.

    An exactly zero block adds an exact 0 at its place in the sum and is not
    weighted, so a weight beyond the float range (s j > 1023) on a zero
    block cannot make the norm NaN.  The sum is taken on the weighted blocks
    scaled by a power of two (``symbols._power_of_two_scaled``), then scaled
    back: only a norm beyond the float range overflows, and 2^e blocks give
    2^e times the norm bit for bit.  No floating-point warning is raised.
    """
    levels = np.flatnonzero(blocks)
    weighted = np.zeros_like(blocks)
    with np.errstate(all="ignore"):
        weighted[levels] = 2.0 ** (params.s * levels) * blocks[levels]
        unit, exponent = _power_of_two_scaled(weighted[:, None])
        return float(np.ldexp(np.sum(unit ** params.q) ** (1.0 / params.q), exponent))


@dataclass
class BesovNormReport:
    norm: float
    block_norms: np.ndarray
    quadrature_error: float

    def to_dict(self) -> dict:
        return {
            "norm": self.norm,
            "block_norms": self.block_norms,
            "quadrature_error": self.quadrature_error,
        }


def besov_norm_report(f: PeriodicGridFunction, params: BesovParams) -> BesovNormReport:
    """Norm plus per-block values and a quadrature error estimate.

    The norm is a norm on the stored band: absolutely homogeneous,
    subadditive, and zero only for the zero function, at any p.  2^e f has
    2^e times the norm, the blocks and the estimate of f, bit for bit,
    wherever they are in the float range.  For p == 2 the
    blocks are Parseval's sums and the error is 0.  Otherwise the norm is
    Q_m on the first grid of ``_grids`` whose estimate |Q_m - Q_2m| is at
    most 1e-13 Q_m, or on the last; a level whose rows are exactly zero is
    not synthesised and has norm 0.0.  An estimate of 0.0 for p != 2 means
    the two sums rounded to the same float, so the error is below
    round-off, not that the quadrature is exact.  The estimate is not a
    bound: it understates the error whenever both grids' errors have the
    same sign.  That matters where the last grid stops the doubling before
    the norm has converged: the benchmark forcing's first grid, 28 points,
    is also its last, and at p = 3 its estimate reads 8.83e-5 against an
    actual 9.79e-5.
    """
    modes, live, rows, exponents = _level_rows(f)
    table = np.zeros((len(live), 1 if params.p == 2.0 else 2))
    for m in _grids(f, int(modes[-1]) if modes.size else 0):
        if rows.size:
            with np.errstate(over="ignore"):
                table[live] = np.ldexp(_power_sums(modes, rows, m, params.p), exponents[:, None])
        norm = _combine_blocks(table[:, 0], params)
        err = abs(norm - _combine_blocks(table[:, -1], params))
        # a NaN estimate, of an infinite norm, stops the grids too
        if not err > _CONVERGED * norm:
            break
    return BesovNormReport(norm=norm, block_norms=table[:, 0], quadrature_error=err)
