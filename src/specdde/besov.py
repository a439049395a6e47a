"""Dyadic frequency decomposition, periodic Besov norms, multiplier ratios.

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
quadrature error is estimated against a doubled grid (see
``besov_norm_report``).

Block norms are independent per level; the final sum runs in ascending j.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .symbols import PeriodicGridFunction, mode_range


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

    def shifted(self, ds: float) -> "BesovParams":
        return BesovParams(self.s + ds, self.p, self.q)


def _block_norms(f: PeriodicGridFunction, p: float, refine: int,
                 strides: Tuple[int, ...] = (1,)) -> np.ndarray:
    """L^p norm of each dyadic block of f, ascending level, shape
    (levels, len(strides)).

    The quadrature grid is the stored one when p == 2, else at least
    ``refine`` points per band mode.  Each block is synthesised once, on
    max(strides) times that grid; column i takes every strides[i]-th sample.
    """
    K = f.bandwidth
    n_quad = f.n_samples if p == 2.0 else max(f.n_samples, refine * (2 * K + 1))
    out = []
    for weights in _partition_weights(K):
        weighted = weights[:, None] * f.coefficients
        if not np.any(weighted):  # its synthesis is exactly zero
            out.append([0.0] * len(strides))
            continue
        block = PeriodicGridFunction.from_coefficients(weighted, max(strides) * n_quad)
        out.append([PeriodicGridFunction(block.samples[::stride], block.coefficients)
                    .lp_norm(p) for stride in strides])
    return np.array(out)


def besov_norm(f: PeriodicGridFunction, params: BesovParams, refine: int = 4) -> float:
    """Besov norm of a band-limited grid function.

    A norm on the stored band: absolutely homogeneous, subadditive, and zero
    only for the zero function.
    """
    return _combine_blocks(_block_norms(f, params.p, refine)[:, 0], params)


def _combine_blocks(blocks: np.ndarray, params: BesovParams) -> float:
    """( sum_j (2^{s j} block_j)^q )^{1/q}."""
    levels = np.arange(blocks.shape[0])
    total = np.sum((2.0 ** (params.s * levels) * blocks) ** params.q)
    return float(total ** (1.0 / params.q))


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


def besov_norm_report(f: PeriodicGridFunction, params: BesovParams,
                      refine: int = 4) -> BesovNormReport:
    """Norm plus per-block values and a quadrature error estimate.

    For p == 2 the grid trapezoid is exact and the error is 0.  Otherwise
    each block is synthesised once on twice the quadrature grid: the norm
    comes from the even-indexed samples (the quadrature grid itself) and the
    estimate is its difference against all of them.
    """
    table = _block_norms(f, params.p, refine, (1,) if params.p == 2.0 else (2, 1))
    norm = _combine_blocks(table[:, 0], params)
    err = abs(norm - _combine_blocks(table[:, -1], params))
    return BesovNormReport(norm=norm, block_norms=table[:, 0], quadrature_error=err)


def derivative_shift_check(f: PeriodicGridFunction, params: BesovParams) -> float:
    """Ratio  norm(f', s) / norm(f - mean, s+1)  for a nonconstant trig polynomial.

    Differentiation costs exactly one order of smoothness, so over any family
    of band-limited functions this ratio stays inside a fixed interval whose
    endpoints depend only on the partition (the active block weights at each
    frequency), not on f.
    """
    ks = mode_range(f.bandwidth)
    nonzero = np.abs(f.coefficients[ks != 0])
    scale = max(float(np.max(np.abs(f.coefficients))), 1.0)
    if nonzero.size == 0 or float(np.max(nonzero)) <= 1e-14 * scale:
        raise ValueError("derivative shift ratio undefined for constant input")
    centered_coeffs = f.coefficients.copy()
    centered_coeffs[f.bandwidth] = 0.0
    centered = PeriodicGridFunction.from_coefficients(centered_coeffs, f.n_samples)
    return besov_norm(f.derivative(), params) / besov_norm(centered, params.shifted(1.0))


def apply_multiplier(symbol: Callable[[int], object], f: PeriodicGridFunction,
                     params: BesovParams) -> Tuple[PeriodicGridFunction, float]:
    """Coefficient-wise application of a symbol sequence, with the norm ratio.

    ``symbol(k)`` may return a scalar or an (n, n) matrix.  Returns the image
    g with ghat(k) = symbol(k) fhat(k) and besov_norm(g) / besov_norm(f).
    """
    ks = mode_range(f.bandwidth)
    ghat = np.zeros_like(f.coefficients)
    for i, k in enumerate(ks):
        m = np.asarray(symbol(int(k)))
        if m.ndim == 0:
            ghat[i] = m * f.coefficients[i]
        else:
            ghat[i] = m @ f.coefficients[i]
    g = PeriodicGridFunction.from_coefficients(ghat, f.n_samples)
    denom = besov_norm(f, params)
    if denom == 0.0:
        raise ValueError("norm ratio undefined for zero input")
    return g, besov_norm(g, params) / denom


def fourier_type_ratio(f: PeriodicGridFunction, r: float, refine: int = 4) -> float:
    """Hausdorff-Young ratio  ||(fhat(k))||_{l^{r'}} / ||f||_{L^r},  1 < r <= 2.

    With the unnormalized L^2 integral and normalized coefficients the r = 2
    value is 1/sqrt(2*pi) for every nonzero scalar or vector trig polynomial.
    """
    if not (1.0 < r <= 2.0):
        raise ValueError(f"r must lie in (1, 2], got {r}")
    r_dual = r / (r - 1.0)
    coeff_norms = np.linalg.norm(f.coefficients, axis=1)
    seq = float(np.sum(coeff_norms**r_dual) ** (1.0 / r_dual))
    denom = f.lp_norm(r, refine=1 if r == 2.0 else refine)
    if denom == 0.0:
        raise ValueError("ratio undefined for zero input")
    return seq / denom
