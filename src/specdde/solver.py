"""Mode-by-mode construction of the unique periodic solution.

The k-th coefficient of the solution is obtained by applying the inverse
modal matrix to the k-th forcing coefficient; the grid function is then
synthesized from the coefficients.  Differentiation of the neutral part is
done in Fourier space (multiplication by ik D_k), never by finite
differences.

The solve is lean: it builds one symbol table (``ModeSymbols``) on the union
of the solver and forcing bands, assembles M(k) once from it, rejects modes
whose 1-norm condition number exceeds the limit, inverts once, and takes the
derived series and both residuals from the same table and M(k).  It computes
no norms it does not report; the spectral-norm sequences belong to the
diagnostic family in ``resolvent``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

import numpy as np

from .exceptions import TruncationWarning
from .resolvent import COND_LIMIT, _checked_inverse
from .symbols import ModeSymbols, PeriodicGridFunction, ProblemSpec


@dataclass
class SpectralSolution:
    """Solution of one periodic problem together with its derived series.

    ``coefficients`` holds uhat(k) for |k| <= truncation (ascending k); the
    derived coefficient series are

    * ``neutral_derivative``  ik D_k uhat(k)   (the derivative of x - L(x_t))
    * ``state_term``          A D_k uhat(k)
    * ``reaction_term``       G_k uhat(k)
    * ``memory_term``         atilde(ik) uhat(k)

    so that neutral_derivative - state_term - reaction_term - memory_term
    reproduces the forcing coefficients up to round-off.  ``condition``
    holds the 1-norm condition number of M(k) for every solved mode.
    """

    solution: PeriodicGridFunction
    modes: np.ndarray
    coefficients: np.ndarray
    neutral_derivative: np.ndarray
    state_term: np.ndarray
    reaction_term: np.ndarray
    memory_term: np.ndarray
    condition: np.ndarray
    truncation: int
    residual_modal: float
    residual_grid: float
    forcing_tail_energy: float


def _on_band(coefficients: np.ndarray, bandwidth: int) -> np.ndarray:
    """Coefficients on |k| <= bandwidth: cut, or padded with zero modes."""
    have = (coefficients.shape[0] - 1) // 2
    keep = min(have, bandwidth)
    out = np.zeros((2 * bandwidth + 1, coefficients.shape[1]), dtype=complex)
    out[bandwidth - keep: bandwidth + keep + 1] = coefficients[have - keep: have + keep + 1]
    return out


def _defect(spec: ProblemSpec, modal: np.ndarray, uhat: np.ndarray) -> np.ndarray:
    """rhat(k) = M(k) uhat(k) - fhat(k) on the band of ``modal``."""
    band = (modal.shape[0] - 1) // 2
    return (np.einsum("kij,kj->ki", modal, _on_band(uhat, band))
            - _on_band(spec.forcing.coefficients, band))


def _grid_max(spec: ProblemSpec, rhat: np.ndarray) -> float:
    """Max norm over the grid of the function with coefficients rhat."""
    band = (rhat.shape[0] - 1) // 2
    return PeriodicGridFunction.from_coefficients(rhat, max(spec.grid, 2 * band + 1)).max_norm()


def _solve(spec: ProblemSpec, symbols: ModeSymbols, cond_limit: float) -> SpectralSolution:
    """The solve on a table whose band is max(truncation, forcing bandwidth)."""
    f = spec.forcing
    K = spec.truncation
    inside, outside = f.band_energy_split(K)
    total = inside + outside
    tail_energy = float(np.sqrt(outside / total)) if total > 0.0 else 0.0
    if tail_energy > 0.0:
        warnings.warn(
            f"forcing bandwidth {f.bandwidth} exceeds truncation "
            f"{K}; dropped relative tail energy {tail_energy:.3e}",
            TruncationWarning,
            stacklevel=3,
        )
    band = symbols.band(K)
    ks = band.modes
    rows = slice(symbols.bandwidth - K, symbols.bandwidth + K + 1)
    modal = symbols.modal(spec.state_matrix)
    resolvent, condition = _checked_inverse(ks, modal[rows], cond_limit)
    uhat = np.einsum("kij,kj->ki", resolvent, _on_band(f.coefficients, K))
    if spec.is_real:
        uhat[K] = np.real(uhat[K])
        uhat[:K] = np.conj(uhat[:K:-1])

    ik = (1j * ks)[:, None]
    neutral_u = np.einsum("kij,kj->ki", band.neutral, uhat)
    rhat = _defect(spec, modal, uhat)
    return SpectralSolution(
        solution=PeriodicGridFunction.from_coefficients(uhat, spec.grid),
        modes=ks,
        coefficients=uhat,
        neutral_derivative=ik * neutral_u,
        state_term=neutral_u @ spec.state_matrix.T,
        reaction_term=np.einsum("kij,kj->ki", band.G, uhat),
        memory_term=band.a[:, None] * uhat,
        condition=condition,
        truncation=K,
        residual_modal=float(np.max(np.linalg.norm(rhat[rows], axis=1))),
        residual_grid=_grid_max(spec, rhat),
        forcing_tail_energy=tail_energy,
    )


def solve_periodic(spec: ProblemSpec, cond_limit: float = COND_LIMIT) -> SpectralSolution:
    """Construct the periodic solution with uhat(k) = M(k)^{-1} fhat(k).

    Warns with TruncationWarning when the forcing has energy beyond the
    truncation; the dropped tail energy (relative, l2 of coefficients) is
    recorded on the returned solution.  Raises SingularModeError when the
    1-norm condition number of some modal matrix in the band exceeds
    ``cond_limit``.

    For real problem data and real forcing the coefficients are assembled
    conjugate-symmetrically from the k >= 0 modes, so the synthesized grid
    values are real to round-off.  Problem data counts as real only when its
    imaginary parts are exactly zero; forcing samples may carry round-off.
    """
    symbols = ModeSymbols.from_spec(spec, max(spec.truncation, spec.forcing.bandwidth))
    return _solve(spec, symbols, cond_limit)


def residual(spec: ProblemSpec, u: PeriodicGridFunction) -> float:
    """Max-norm equation residual of a band-limited candidate solution.

    Evaluated spectrally: rhat(k) = M(k) uhat(k) - fhat(k) over the union of
    the candidate and forcing bands, then synthesized and maximized over the
    grid.  Zero (to round-off) exactly when u solves the truncated problem.
    """
    band = max(u.bandwidth, spec.forcing.bandwidth)
    modal = ModeSymbols.from_spec(spec, band).modal(spec.state_matrix)
    return _grid_max(spec, _defect(spec, modal, u.coefficients))


@dataclass
class SweepRow:
    truncation: int
    residual_full_band: float
    solution_change: Optional[float]

    def to_dict(self) -> dict:
        return {
            "K": self.truncation,
            "residual_full_band": self.residual_full_band,
            "solution_change": self.solution_change,
        }


@dataclass
class SweepResult:
    rows: List[SweepRow]
    slow_convergence: Optional[bool]

    def to_dict(self) -> dict:
        return {
            "rows": [r.to_dict() for r in self.rows],
            "slow_convergence": self.slow_convergence,
        }


def convergence_sweep(spec: ProblemSpec, truncations: Sequence[int],
                      cond_limit: float = COND_LIMIT) -> SweepResult:
    """Residual-vs-truncation table for an ascending list of bandwidths.

    Each row solves at bandwidth K and reports the residual measured against
    the forcing at its full stored bandwidth plus the max-norm change from the
    previous solution.  ``slow_convergence`` is True when the final
    per-doubling residual ratio exceeds 0.3: analytic forcing contracts like
    r^K per doubling, while forcing with a jump keeps the ratio near 1, so the
    threshold separates the two by orders of magnitude.  The flag is None when
    fewer than three doubling steps are available.  One symbol table on the
    widest band serves every row.
    """
    truncations = [int(k) for k in truncations]
    if truncations != sorted(truncations):
        raise ValueError("truncation list must be ascending")
    f = spec.forcing
    n_grid = max(spec.grid, 4 * max(truncations), f.n_samples)
    symbols = ModeSymbols.from_spec(spec, max(truncations[-1], f.bandwidth))
    rows: List[SweepRow] = []
    ratios = []
    prev: Optional[PeriodicGridFunction] = None
    prev_res: Optional[float] = None
    for K in truncations:
        sub = replace(spec, truncation=K, grid=n_grid)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            sol = _solve(sub, symbols.band(max(K, f.bandwidth)), cond_limit)
        u = sol.solution
        res = sol.residual_grid
        change = (u - prev).max_norm() if prev is not None else None
        rows.append(SweepRow(K, res, change))
        if prev_res is not None and prev_res > 0.0:
            ratios.append(res / prev_res)
        prev, prev_res = u, res

    scale = max(f.max_norm(), 1.0)
    if rows[-1].residual_full_band <= 1e-11 * scale:
        slow: Optional[bool] = False
    elif len(ratios) >= 2:
        slow = bool(ratios[-1] > 0.3)
    else:
        slow = None
    return SweepResult(rows=rows, slow_convergence=slow)
