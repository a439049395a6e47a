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

with the unnormalized L^p integral over one period.  Grid L^p values use the
trapezoid rule, exact for band-limited data when p == 2; for other p the
blocks are synthesised on at least 4 points per band mode and the quadrature
error is estimated against a grid of at least twice the points (see
``besov_norm_report``).  f is split once into real functions, not into
its n complex columns: the real and imaginary part of each column, less the
parts that are exactly zero, are paired into complex rows a + ib, whose
squared moduli a^2 + b^2 sum to |f(t)|^2.  Two real signals share one
complex transform (Cooley, Lewis and Welch, J. Sound Vib. 12, 1970), and
the weights are even in k, so a level's rows are its weights times those
of f: a real two-column f is one row per level, and a level whose weights
vanish where f is nonzero is not synthesised.  The synthesis is pruned to
the function's band (Markel, IEEE Trans. Audio Electroacoust. 19, 1971;
Sorensen and Burrus, IEEE Trans. Signal Process. 41, 1993): on a grid of n
points, with b the highest mode where f is nonzero, m is the smallest
divisor of n with m >= 2b + 1, and each chunk of the grid is one table of
twiddles, one scatter and one batch of length-m inverse FFTs over every
level and row.  A block costs about n log m, not n log n, and a length
pocketfft transforms by Bluestein's algorithm costs that only where m
itself is one.  The grids, and with them the quadrature values, are those
of the length-n transform.

Block norms are independent per level; the final sum runs in ascending j.
A block norm whose largest square or power is outside [2^-900, 2^900] is
taken again on its data scaled by a power of two (``_lp_norm``); the sum
always is (``_combine_blocks``).  So only a norm beyond the float range is
infinite and none loses bits to underflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .symbols import TWO_PI, PeriodicGridFunction, _power_of_two_scaled, mode_range

#: quadrature points per band mode of a p != 2 block (the stored grid when finer)
_POINTS_PER_MODE = 4

#: squares and powers whose largest is in this range are summed unscaled
#: (``_lp_norm``)
_LEAST_UNSCALED, _MOST_UNSCALED = 2.0**-900, 2.0**900

#: samples, over every level and row, that the pruned synthesis aims to
#: hold at a time (``_power_sums``), at about 75 bytes a sample.  A chunk is
#: at least one (levels, rows, m) slice, so the samples held are at most
#: max(_CHUNK_SAMPLES, levels * rows * m): 11.9 MB of working memory for a
#: real function live on every mode up to K = 4096, 14 levels at m = 10,924
_CHUNK_SAMPLES = 6144


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


def _quadrature_points(f: PeriodicGridFunction, p: float) -> int:
    """The stored grid when p == 2, else at least _POINTS_PER_MODE points per
    band mode."""
    if p == 2.0:
        return f.n_samples
    return max(f.n_samples, _POINTS_PER_MODE * (2 * f.bandwidth + 1))


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


def _pruned_length(n: int, width: int) -> int:
    """Smallest divisor of n that is at least ``width`` (n itself when no
    smaller one is), from the divisor pairs (i, n / i) with i <= sqrt(n)."""
    return min(m for i in range(1, int(n ** 0.5) + 1) if n % i == 0
               for m in (i, n // i) if m >= width)


def _power_sums(modes: np.ndarray, rows: np.ndarray, n: int,
                p: float) -> Tuple[np.ndarray, np.ndarray]:
    """For the function of each level, whose |f|^2 is the sum of its rows'
    squared moduli: the sum of |f|^p over n points, shape (levels,), and
    the largest |f|^2 and the largest |f|^p, shape (2, levels).

    ``rows`` holds each level's rows on ``modes``, shape (levels, rows,
    len(modes)); the modes are symmetric about 0, ascending, with largest
    b.  With m the smallest divisor of n that holds 2b + 1 modes and
    d = n / m, the sample at t = 2 pi (l d + r) / n is
    sum_k (c_k w_n^{kr}) w_m^{kl} (w_n = e^{2 pi i / n}), so the n samples
    are the d length-m inverse transforms of the twiddled coefficients,
    scattered to column k mod m of a (d, m) array.  The twiddles w_n^{kr}
    are taken once for k >= 0 (a mode k < 0 reads the conjugate); the
    phase index k r is an exact integer with |k r| <= b (d - 1) < n / 2,
    so its angle is already in (-pi, pi) before the exp.  The d rows are
    walked in chunks of at most _CHUNK_SAMPLES samples over every level
    and row, and each chunk is one twiddle table, one scatter and one
    inverse FFT of them all; the sums and maxima are accumulated in that
    layout: the trapezoid rule does not depend on the order of the points.
    When n is the only such divisor, d = 1, every twiddle is 1 and this is
    the length-n transform.
    """
    m = _pruned_length(n, 2 * int(modes[-1]) + 1)
    d = n // m
    half = modes[modes >= 0]
    mirrored = len(modes) - len(half)
    table_index = np.searchsorted(half, np.abs(modes))
    columns = np.mod(modes, m)
    levels, count = rows.shape[:2]
    step = max(1, _CHUNK_SAMPLES // (levels * count * m))
    sums, peaks = np.zeros(levels), np.zeros((2, levels, -(-d // step)))
    for chunk, start in enumerate(range(0, d, step)):
        r = np.arange(start, min(start + step, d))
        twiddles = np.exp(1j * (TWO_PI / n) * (r[:, None] * half))[:, table_index]
        np.conjugate(twiddles[:, :mirrored], out=twiddles[:, :mirrored])
        samples = np.zeros((levels, count, len(r), m), dtype=complex)
        samples[..., columns] = twiddles * rows[:, :, None, :]
        samples = np.fft.ifft(samples, axis=-1, norm="forward")
        squared = samples.real ** 2
        squared += samples.imag ** 2
        squared = squared.sum(axis=1)
        powers = squared ** (p / 2.0)
        sums += powers.sum(axis=(1, 2))
        peaks[:, :, chunk] = squared.max(axis=(1, 2)), powers.max(axis=(1, 2))
    return sums, np.max(peaks, axis=2)


def _in_range(largest):
    """Whether ``largest``, the largest of some non-negative values, is in
    [2^-900, 2^900]; elementwise on an array of such maxima.  Then what
    gradual underflow costs a value, at most 2^-1075 for a square and
    2^(-1075 p / 2) for its p / 2-th power (p >= 1), is under 2^-87 of the
    largest, and no sum of fewer than 2^100 of them overflows."""
    return (_LEAST_UNSCALED <= largest) & (largest <= _MOST_UNSCALED)


def _trapezoid(total, n: int, p: float) -> float:
    """(2 pi / n sum |f|^p)^(1/p) from the sum of the n values |f|^p."""
    return float((TWO_PI / n * total) ** (1.0 / p))


def _lp_norm(modes: np.ndarray, rows: np.ndarray, n: int, p: float) -> List[float]:
    """Trapezoid L^p norm on n points of each level's function, from one
    pruned synthesis of them all (``_power_sums``); ``rows`` holds each
    level's rows on ``modes``, shape (levels, rows, len(modes)).

    A level's norm is taken as it is when its largest square and its
    largest p-th power are in range (``_in_range``).  Otherwise (one
    overflowed, underflowed, or lost bits to gradual underflow) that level
    alone is taken again through ``_power_sums`` on its rows scaled by 2^-e
    (``symbols._power_of_two_scaled``) and by a further 2^-g that brings
    its largest square into [1/4, 1), and scaled back by 2^(e + g): then
    only a norm beyond the float range overflows.  No floating-point
    warning is raised.
    """
    with np.errstate(all="ignore"):
        sums, peaks = _power_sums(modes, rows, n, p)
        norms = [_trapezoid(total, n, p) for total in sums]
        for level in np.flatnonzero(~(_in_range(peaks[0]) & _in_range(peaks[1]))):
            unit, exponent = _power_of_two_scaled(rows[level])
            largest_square = _power_sums(modes, unit[None], n, p)[1][0, 0]
            peak = (math.frexp(largest_square)[1] + 1) // 2
            parts = unit.view(np.float64)
            np.ldexp(parts, -peak, out=parts)
            total = _power_sums(modes, unit[None], n, p)[0][0]
            norms[level] = float(np.ldexp(_trapezoid(total, n, p), exponent + peak))
    return norms


def _block_norms(f: PeriodicGridFunction, p: float, lengths: Tuple[int, ...]) -> np.ndarray:
    """L^p norm of each dyadic block of f, ascending level, shape
    (levels, len(lengths)): column i is the trapezoid value on lengths[i]
    points.

    f is split once (``_real_rows``) into rows a, b on the modes where f or
    its mirror is nonzero, and the weights w are taken on those modes only.
    w is even in k, so a level's rows are w a + i (w b); for a real f that
    is bit for bit the split of w c, whose Hermitian part is exactly w c.
    On each length, every level is synthesised by the one pruned transform
    of ``_power_sums``.  A level whose rows are exactly zero (its weights
    vanish on those modes) is not synthesised and has norms 0.0.
    """
    modes, a, b = _real_rows(mode_range(f.bandwidth), f.coefficients)
    weights = _partition_weights(f.bandwidth, modes)[:, None, :]
    rows = weights * a + 1j * (weights * b)
    live = np.flatnonzero(np.any(rows, axis=(1, 2)))
    out = np.zeros((len(weights), len(lengths)))
    if live.size:
        out[live] = np.column_stack([_lp_norm(modes, rows[live], n, p) for n in lengths])
    return out


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
    subadditive, and zero only for the zero function.  For p == 2 the grid
    trapezoid is exact and the error is 0.  Otherwise the norm is taken on
    the quadrature grid of N points and the estimate is its difference
    against the same norm on the smallest 7-smooth length >= 2N.  An
    estimate of 0.0 for p != 2 means the two sums rounded to the same
    float, so the error is below round-off, not that the quadrature is
    exact.  The estimate is not a bound: |Q_N - Q_M| understates the error
    whenever both grids' errors have the same sign; on the benchmark
    forcing (28 points, p = 3) it reads 8.83e-5 against an actual 9.79e-5.
    """
    n = _quadrature_points(f, params.p)
    table = _block_norms(f, params.p, (n,) if params.p == 2.0 else (n, _seven_smooth(2 * n)))
    norm = _combine_blocks(table[:, 0], params)
    err = abs(norm - _combine_blocks(table[:, -1], params))
    return BesovNormReport(norm=norm, block_norms=table[:, 0], quadrature_error=err)
