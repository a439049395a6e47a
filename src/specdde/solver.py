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
diagnostics in ``resolvent``.  That one solve, ``_band_solve``, serves
``solve_periodic`` and ``convergence_sweep``, whose row K reads the solve on
its widest band at |k| <= K and costs only its two syntheses.

Every stack of a solve lies on one layout of modes: k = 0..B when the data
are real (``ProblemSpec.is_real``: real matrices, atoms and kernel, and
forcing coefficients exactly Hermitian), so that M(-k) = conj M(k), else
-B..B, with B the wider of the widest truncation and the forcing band.  A
narrower band is a slice (``_within``).  Only what is reported over the
whole band is mirrored: the coefficients, uhat(-k) = conj uhat(k), and the
condition numbers.  Each grid residual is ``symbols._synthesis`` of the rows
as they are: one ``irfft`` of the k >= 0 rows, or one ``ifft`` of the whole
band.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .exceptions import SingularModeError, TruncationWarning
from .resolvent import COND_LIMIT, _checked_inverse
from .symbols import (ModeSymbols, PeriodicGridFunction, ProblemSpec, _half, _max_row_norm,
                      _mirrored, _synthesis, mode_range)


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


def _within(stack: np.ndarray, modes: np.ndarray, bandwidth: int) -> np.ndarray:
    """The rows |k| <= bandwidth of a stack on consecutive ascending
    ``modes`` (a view)."""
    first = int(modes[0])
    return stack[max(-bandwidth, first) - first: bandwidth - first + 1]


def _grid_max(modes: np.ndarray, rhat: np.ndarray, n_samples: int) -> float:
    """Max norm over at least n_samples nodes, and enough that no mode
    folds, of the function with coefficients rhat on ``modes``."""
    return _max_row_norm(_synthesis(rhat, modes, max(n_samples, 2 * int(modes[-1]) + 1)))


def _band_solve(spec: ProblemSpec, bands: Sequence[int], cond_limit: float):
    """(modes, M(k), fhat, uhat, condition): the solves at the ascending
    truncations ``bands``, all read off one solve at the widest, B.

    Every stack lies on ``modes``: k = 0..max(B, forcing band) for a real
    problem, the whole band for a complex one.  uhat = M(k)^{-1} fhat(k) on
    |k| <= B, where ``condition`` is given, and 0 beyond; on a half band
    uhat(0) is made real.  A rejected mode raises SingularModeError as the
    first of those solves whose band holds it would: it names the modes of
    the narrowest band in ``bands`` that holds one, and on a half band a
    rejected k > 0 names -k as well.
    """
    f = spec.forcing
    widest = bands[-1]
    band = max(widest, f.bandwidth)
    modes = np.arange(0 if spec.is_real else -band, band + 1)
    modal = ModeSymbols.on_modes(spec, modes).modal(spec.state_matrix)
    fhat = np.zeros((len(modes), spec.dim), dtype=complex)
    forced = _within(fhat, modes, f.bandwidth)
    forced[:] = f.coefficients[-len(forced):]
    solved = _within(modes, modes, widest)
    try:
        resolvent, condition = _checked_inverse(solved, _within(modal, modes, widest),
                                                cond_limit)
    except SingularModeError as error:
        k, c = np.array(error.modes), np.array(error.conditions)
        named = np.abs(k) <= min(b for b in bands if b >= np.min(np.abs(k)))
        k, c = k[named], c[named]
        if _half(solved):
            mirror = k > 0
            k, c = (np.concatenate([-k[mirror][::-1], k]),
                    np.concatenate([c[mirror][::-1], c]))
        raise SingularModeError(k, c) from None
    uhat = np.zeros_like(fhat)
    _within(uhat, modes, widest)[:] = np.einsum("kij,kj->ki", resolvent,
                                                _within(fhat, modes, widest))
    if _half(solved):
        uhat[0] = np.real(uhat[0])
    return modes, modal, fhat, uhat, condition


def solve_periodic(spec: ProblemSpec, cond_limit: float = COND_LIMIT) -> SpectralSolution:
    """Construct the periodic solution with uhat(k) = M(k)^{-1} fhat(k).

    Warns with TruncationWarning when the forcing has energy beyond the
    truncation; the dropped tail energy (relative, l2 of coefficients) is
    recorded on the returned solution.  Raises SingularModeError when the
    1-norm condition number of some modal matrix in the band exceeds
    ``cond_limit``.  A real problem is solved on k = 0..K (``_band_solve``),
    and its coefficients and ``condition`` are mirrored to -K..K, uhat(-k) =
    conj uhat(k), so the solution is real too.
    """
    f = spec.forcing
    K = spec.truncation
    modes, modal, fhat, uhat, condition = _band_solve(spec, [K], cond_limit)
    tail_energy = f.tail_energy(K)
    if tail_energy > 0.0:
        warnings.warn(
            f"forcing bandwidth {f.bandwidth} exceeds truncation "
            f"{K}; dropped relative tail energy {tail_energy:.3e}",
            TruncationWarning,
            stacklevel=2,
        )
    rhat = np.einsum("kij,kj->ki", modal, uhat) - fhat
    coefficients = _within(uhat, modes, K)
    if _half(modes):
        coefficients, condition = _mirrored(coefficients), _mirrored(condition)
    return SpectralSolution(
        solution=PeriodicGridFunction(coefficients, spec.grid),
        modes=mode_range(K),
        coefficients=coefficients,
        condition=condition,
        truncation=K,
        residual_modal=_max_row_norm(_within(rhat, modes, K)),
        residual_grid=_grid_max(modes, rhat, spec.grid),
        forcing_tail_energy=tail_energy,
    )


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
    it would (``_band_solve``).  Row K is the slice |k| <= max(K, forcing
    band) of the layout, uhat zeroed beyond K; for a real problem it is the
    k >= 0 rows and its residual and change are one ``irfft`` each.
    """
    truncations = [int(k) for k in truncations]
    if any(a >= b for a, b in zip(truncations, truncations[1:])):
        raise ValueError("truncation list must be strictly ascending")
    f = spec.forcing
    n_grid = max(spec.grid, 4 * truncations[-1], f.n_samples)
    modes, modal, fhat, uhat, _ = _band_solve(spec, truncations, cond_limit)
    rows: List[SweepRow] = []
    ratios = []
    for K in truncations:
        band = max(K, f.bandwidth)
        row_modes = _within(modes, modes, band)
        u = np.zeros((len(row_modes), spec.dim), dtype=complex)
        _within(u, row_modes, K)[:] = _within(uhat, modes, K)
        rhat = (np.einsum("kij,kj->ki", _within(modal, modes, band), u)
                - _within(fhat, modes, band))
        res = _grid_max(row_modes, rhat, n_grid)
        change = None
        if rows:
            # uhat on K_prev < |k| <= K: the solve at K less the one at K_prev
            u_modes, step = _within(modes, modes, K), _within(uhat, modes, K).copy()
            _within(step, u_modes, rows[-1].truncation)[:] = 0.0
            change = _grid_max(u_modes, step, n_grid)
        if rows and rows[-1].residual_full_band > 0.0:
            ratios.append(res / rows[-1].residual_full_band)
        rows.append(SweepRow(K, res, change))

    scale = max(f.max_norm(), 1.0)
    if rows[-1].residual_full_band <= 1e-11 * scale:
        slow: Optional[bool] = False
    elif len(ratios) >= 2:
        slow = bool(ratios[-1] > 0.3)
    else:
        slow = None
    return SweepResult(rows=rows, slow_convergence=slow)
