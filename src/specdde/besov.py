"""Dyadic frequency decomposition and periodic Besov norms.

The partition lives on integer frequencies only, so it is built from the
piecewise-linear tent

    h(x) = 2x - 1 on [1/2, 1],   2 - x on [1, 2],   0 elsewhere,

with block weights phi_j(k) = h(|k| / 2^j) for j >= 1 and phi_0 completing
the sum to one on [-2, 2].  All weights are dyadic rationals, so the
partition of unity holds exactly in floating point; that makes it testable
in exact arithmetic, which a smooth bump would not allow.

The norm of a band-limited f is

    ( sum_j 2^{s j q} || sum_k e^{ikt} phi_j(k) fhat(k) ||_p^q )^{1/q}

with the unnormalized L^p integral over one period.  Grid L^p values use the
trapezoid rule, exact for band-limited data when p == 2; for other p the
blocks are synthesised on at least 4 points per band mode and the quadrature
error is estimated against a grid of at least twice the points (see
``besov_norm_report``).  A block is synthesised as real functions, not as
its n complex columns: the real and imaginary part of each column, less the
parts that are exactly zero, are paired into complex rows a + ib, whose
squared moduli a^2 + b^2 sum to |f(t)|^2.  Two real signals share one
complex transform (Cooley, Lewis and Welch, J. Sound Vib. 12, 1970), so a
real two-column block is one contiguous inverse FFT per grid, and a block
whose coefficients are exactly zero is none.

Block norms are independent per level; the final sum runs in ascending j.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .symbols import TWO_PI, PeriodicGridFunction, mode_range

#: quadrature points per band mode of a p != 2 block (the stored grid when finer)
_POINTS_PER_MODE = 4


def _tent(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    rising = (x >= 0.5) & (x <= 1.0)
    falling = (x > 1.0) & (x < 2.0)
    return np.where(rising, 2.0 * x - 1.0, np.where(falling, 2.0 - x, 0.0))


def partition_eval(level: int, k):
    """Weight phi_level(k) of dyadic block ``level``; accepts scalar or array k,
    returns float(s) in [0, 1]."""
    if level < 0:
        raise ValueError("level must be >= 0")
    k = np.asarray(k, dtype=float)
    absk = np.abs(k)
    if level == 0:
        out = np.clip(2.0 - absk, 0.0, 1.0)
    else:
        out = _tent(absk / 2.0**level)
    return out if out.ndim else float(out)


def _partition_weights(bandwidth: int) -> np.ndarray:
    """Weights over -K..K of every level whose support meets [-K, K],
    shape (max_level+1, 2*bandwidth+1)."""
    ks = mode_range(bandwidth)
    levels = int(np.ceil(np.log2(bandwidth))) + 1 if bandwidth >= 1 else 0
    return np.stack([partition_eval(j, ks) for j in range(levels + 1)])


@dataclass(frozen=True)
class BesovParams:
    """Smoothness / integrability / summability triple (s > 0, 1 <= p, q < inf)."""

    s: float
    p: float = 2.0
    q: float = 2.0

    def __post_init__(self):
        if not self.s > 0.0:
            raise ValueError(f"smoothness s must be positive, got {self.s}")
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


def _real_rows(weighted: np.ndarray) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Complex functions a + ib whose squared moduli sum to |f(t)|^2, for f
    with coefficients ``weighted`` on modes -K..K.

    Returns (modes, rows): the modes, symmetric about 0, on which f or its
    mirror has a nonzero coefficient, and each row's coefficients on them.
    Column i splits into Re f_i and Im f_i, whose Hermitian rows are
    (c_k + conj c_{-k}) / 2 and (c_k - conj c_{-k}) / 2i; the rows that are
    exactly zero are dropped (Im f_i of a real column) and the rest are taken
    two at a time as a and b.  The solver and a harmonics forcing give
    exactly Hermitian coefficients, so there the rows are the columns taken
    two at a time; imaginary parts are live for complex blocks, which only
    library callers build, and at round-off level for a sampled forcing.
    """
    bandwidth = (len(weighted) - 1) // 2
    live = np.any(weighted, axis=1)
    index = np.flatnonzero(live | live[::-1])
    coefficients = weighted[index]
    mirrored = np.conj(coefficients[::-1])
    real, imag = (coefficients + mirrored) / 2.0, (coefficients - mirrored) / 2j
    parts = [part for pair in zip(real.T, imag.T) for part in pair if np.any(part)]
    parts += [np.zeros(len(index))] * (len(parts) % 2)
    return index - bandwidth, [a + 1j * b for a, b in zip(parts[0::2], parts[1::2])]


def _block_norms(f: PeriodicGridFunction, p: float, lengths: Tuple[int, ...]) -> np.ndarray:
    """L^p norm of each dyadic block of f, ascending level, shape
    (levels, len(lengths)): column i is the trapezoid value on lengths[i]
    points.

    Each row of ``_real_rows`` is synthesised by one contiguous inverse FFT
    and its squared modulus added into the block's accumulator, so one row
    of samples per length is held at a time.  A block whose weighted
    coefficients are exactly zero has no rows and norms 0.0.
    """
    out = []
    for weights in _partition_weights(f.bandwidth):
        modes, rows = _real_rows(weights[:, None] * f.coefficients)
        if not rows:
            out.append([0.0] * len(lengths))
            continue
        norms = []
        for n in lengths:
            squared = np.zeros(n)
            for row in rows:
                samples = np.zeros(n, dtype=complex)
                samples[np.mod(modes, n)] = row
                samples = np.fft.ifft(samples, norm="forward")
                squared += samples.real ** 2 + samples.imag ** 2
            norms.append(float((TWO_PI / n * np.sum(squared ** (p / 2.0))) ** (1.0 / p)))
        out.append(norms)
    return np.array(out)


def besov_norm(f: PeriodicGridFunction, params: BesovParams) -> float:
    """Besov norm of a band-limited grid function.

    A norm on the stored band: absolutely homogeneous, subadditive, and zero
    only for the zero function.
    """
    lengths = (_quadrature_points(f, params.p),)
    return _combine_blocks(_block_norms(f, params.p, lengths)[:, 0], params)


def _combine_blocks(blocks: np.ndarray, params: BesovParams) -> float:
    """( sum_j (2^{s j} block_j)^q )^{1/q}.

    An exactly zero block adds an exact 0 at its place in the sum and is not
    weighted, so a weight beyond the float range (s j > 1023) on a zero
    block cannot make the norm NaN.
    """
    levels = np.flatnonzero(blocks)
    terms = np.zeros_like(blocks)
    terms[levels] = (2.0 ** (params.s * levels) * blocks[levels]) ** params.q
    return float(np.sum(terms) ** (1.0 / params.q))


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

    For p == 2 the grid trapezoid is exact and the error is 0.  Otherwise
    the norm is taken on the quadrature grid of N points and the estimate is
    its difference against the same norm on the smallest 7-smooth length
    >= 2N, where the inverse FFT is fast.
    """
    n = _quadrature_points(f, params.p)
    table = _block_norms(f, params.p, (n,) if params.p == 2.0 else (n, _seven_smooth(2 * n)))
    norm = _combine_blocks(table[:, 0], params)
    err = abs(norm - _combine_blocks(table[:, -1], params))
    return BesovNormReport(norm=norm, block_norms=table[:, 0], quadrature_error=err)
