"""Mode-by-mode construction of the unique periodic solution.

The k-th coefficient of the solution is obtained by applying the inverse
modal matrix to the k-th forcing coefficient; the solution is a grid
function holding those coefficients, synthesized only when its samples are
read.  Differentiation of the neutral part is done in Fourier space
(multiplication by ik D_k), never by finite differences.

The solve is lean: it builds one symbol table (``ModeSymbols``) on the union
of the solver and forcing bands, assembles M(k) once from it, inverts once,
rejects modes whose 1-norm condition number (read off that inverse) exceeds
the limit, and takes both residuals from the same M(k).  It computes nothing
it does not report; the spectral-norm sequences belong to the boundedness
diagnostics in ``resolvent``.  The convergence sweep is one such solve on its
widest band: the solve at truncation K is that solve's coefficients on
|k| <= K, so each row costs only its two syntheses.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .exceptions import TruncationWarning
from .resolvent import COND_LIMIT, _checked_inverse
from .symbols import ModeSymbols, PeriodicGridFunction, ProblemSpec, mode_range


@dataclass
class SpectralSolution:
    """Solution of one periodic problem and the measures of its quality.

    ``coefficients`` holds uhat(k) for |k| <= truncation (ascending k), and
    ``condition`` the 1-norm condition number of M(k) for every solved mode.
    ``residual_modal`` is max_k ||M(k) uhat(k) - fhat(k)|| over the solved band
    and ``residual_grid`` the max norm of that defect synthesized over the
    union of the solved and forcing bands.
    """

    solution: PeriodicGridFunction
    modes: np.ndarray
    coefficients: np.ndarray
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


def _centre(stack: np.ndarray, bandwidth: int) -> np.ndarray:
    """The rows |k| <= bandwidth of a stack on a wider band (a view)."""
    half = (stack.shape[0] - 1) // 2
    return stack[half - bandwidth: half + bandwidth + 1]


def _defect(spec: ProblemSpec, modal: np.ndarray, uhat: np.ndarray) -> np.ndarray:
    """rhat(k) = M(k) uhat(k) - fhat(k) on the band of ``modal``."""
    band = (modal.shape[0] - 1) // 2
    return (np.einsum("kij,kj->ki", modal, _on_band(uhat, band))
            - _on_band(spec.forcing.coefficients, band))


def _grid_max(rhat: np.ndarray, n_samples: int) -> float:
    """Max norm over at least n_samples nodes of the function with coefficients rhat."""
    band = (rhat.shape[0] - 1) // 2
    return PeriodicGridFunction(rhat, max(n_samples, 2 * band + 1)).max_norm()


def _coefficients(spec: ProblemSpec, resolvent: np.ndarray) -> np.ndarray:
    """uhat(k) = M(k)^{-1} fhat(k) on the band of the checked inverse,
    assembled conjugate-symmetrically from k >= 0 for real data."""
    K = (resolvent.shape[0] - 1) // 2
    uhat = np.einsum("kij,kj->ki", resolvent, _on_band(spec.forcing.coefficients, K))
    if spec.is_real:
        uhat[K] = np.real(uhat[K])
        uhat[:K] = np.conj(uhat[:K:-1])
    return uhat


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
    f = spec.forcing
    K = spec.truncation
    modal = ModeSymbols.from_spec(spec, max(K, f.bandwidth)).modal(spec.state_matrix)
    resolvent, condition = _checked_inverse(mode_range(K), _centre(modal, K), cond_limit)
    inside, outside = f.band_energy_split(K)
    total = inside + outside
    tail_energy = float(np.sqrt(outside / total)) if total > 0.0 else 0.0
    if tail_energy > 0.0:
        warnings.warn(
            f"forcing bandwidth {f.bandwidth} exceeds truncation "
            f"{K}; dropped relative tail energy {tail_energy:.3e}",
            TruncationWarning,
            stacklevel=2,
        )
    uhat = _coefficients(spec, resolvent)
    rhat = _defect(spec, modal, uhat)
    return SpectralSolution(
        solution=PeriodicGridFunction(uhat, spec.grid),
        modes=mode_range(K),
        coefficients=uhat,
        condition=condition,
        truncation=K,
        residual_modal=float(np.max(np.linalg.norm(_centre(rhat, K), axis=1))),
        residual_grid=_grid_max(rhat, spec.grid),
        forcing_tail_energy=tail_energy,
    )


def residual(spec: ProblemSpec, u: PeriodicGridFunction) -> float:
    """Max-norm equation residual of a band-limited candidate solution.

    Evaluated spectrally: rhat(k) = M(k) uhat(k) - fhat(k) over the union of
    the candidate and forcing bands, then synthesized and maximized over the
    grid.  Zero (to round-off) exactly when u solves the truncated problem.
    """
    band = max(u.bandwidth, spec.forcing.bandwidth)
    modal = ModeSymbols.from_spec(spec, band).modal(spec.state_matrix)
    return _grid_max(_defect(spec, modal, u.coefficients), spec.grid)


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
    """Residual-vs-truncation table for a strictly ascending list of bandwidths.

    One symbol table, one checked inversion and one solve on the widest band
    serve every row: row K reads the solve's coefficients on |k| <= K, which
    are the solve at truncation K.  It reports the residual measured against
    the forcing at its full stored bandwidth plus the max-norm change from the
    previous row, both synthesised on one grid.  ``slow_convergence`` is True
    when the final per-doubling residual ratio exceeds 0.3: analytic forcing
    contracts like r^K per doubling, while forcing with a jump keeps the ratio
    near 1, so the threshold separates the two by orders of magnitude.  The
    flag is None when fewer than three doubling steps are available.  A
    rejected mode raises SingularModeError as the first row whose band holds
    it would.
    """
    truncations = [int(k) for k in truncations]
    if any(a >= b for a, b in zip(truncations, truncations[1:])):
        raise ValueError("truncation list must be strictly ascending")
    f = spec.forcing
    widest = truncations[-1]
    n_grid = max(spec.grid, 4 * widest, f.n_samples)
    modal = ModeSymbols.from_spec(spec, max(widest, f.bandwidth)).modal(spec.state_matrix)
    resolvent, _ = _checked_inverse(mode_range(widest), _centre(modal, widest),
                                    cond_limit, bands=truncations)
    uhat = _coefficients(spec, resolvent)
    rows: List[SweepRow] = []
    ratios = []
    prev: Optional[np.ndarray] = None
    for K in truncations:
        u = _centre(uhat, K)
        res = _grid_max(_defect(spec, _centre(modal, max(K, f.bandwidth)), u), n_grid)
        change = None if prev is None else _grid_max(u - _on_band(prev, K), n_grid)
        if rows and rows[-1].residual_full_band > 0.0:
            ratios.append(res / rows[-1].residual_full_band)
        rows.append(SweepRow(K, res, change))
        prev = u

    scale = max(f.max_norm(), 1.0)
    if rows[-1].residual_full_band <= 1e-11 * scale:
        slow: Optional[bool] = False
    elif len(ratios) >= 2:
        slow = bool(ratios[-1] > 0.3)
    else:
        slow = None
    return SweepResult(rows=rows, slow_convergence=slow)
