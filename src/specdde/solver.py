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

Which band a problem is solved on: a problem whose data are real
(``ProblemSpec.is_real``: real matrices, atoms and kernel, and forcing
coefficients exactly Hermitian, fhat(-k) == conj fhat(k)) has M(-k) =
conj M(k), so its solve and sweep work on k = 0..K alone.  The table, M(k),
the checked inverse and the defect are built there, each grid residual is
one ``irfft`` of the k >= 0 rows, and only what is reported over the whole
band is mirrored: the coefficients, uhat(-k) = conj uhat(k), and the
condition numbers.  A rejected mode k names both -k and k.  A complex
problem is solved on -K..K.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .exceptions import SingularModeError, TruncationWarning
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


def _solved_modes(spec: ProblemSpec, bandwidth: int) -> np.ndarray:
    """The modes a problem is solved on: k = 0..bandwidth when its data are
    real (``spec.is_real``), so that the defect at -k is the conjugate of the
    defect at k; else -bandwidth..bandwidth."""
    return np.arange(0 if spec.is_real else -bandwidth, bandwidth + 1)


def _half(modes: np.ndarray) -> bool:
    """Whether consecutive ascending ``modes`` are a half band 0..K, K >= 1.
    A lone mode 0 is a whole band: read that way it is right for complex
    data too."""
    return modes[0] == 0 < modes[-1]


def _within(stack: np.ndarray, modes: np.ndarray, bandwidth: int) -> np.ndarray:
    """The rows |k| <= bandwidth of a stack on consecutive ascending
    ``modes`` (a view)."""
    first = int(modes[0])
    return stack[max(-bandwidth, first) - first: bandwidth - first + 1]


def _relaid(rows: np.ndarray, modes: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Rows given on consecutive ascending ``modes``, laid on ``target``:
    cut, or padded with zero modes."""
    out = np.zeros((len(target), rows.shape[1]), dtype=complex)
    lo, hi = max(modes[0], target[0]), min(modes[-1], target[-1])
    if lo <= hi:
        out[lo - target[0]: hi - target[0] + 1] = rows[lo - modes[0]: hi - modes[0] + 1]
    return out


def _mirrored(half: np.ndarray) -> np.ndarray:
    """A stack on k = 0..K extended to -K..K, row -k the conjugate of row k."""
    return np.concatenate([np.conj(half[:0:-1]), half])


def _defect(spec: ProblemSpec, modes: np.ndarray, modal: np.ndarray,
            uhat: np.ndarray, uhat_modes: np.ndarray) -> np.ndarray:
    """rhat(k) = M(k) uhat(k) - fhat(k) on the modes of ``modal``."""
    f = spec.forcing
    return (np.einsum("kij,kj->ki", modal, _relaid(uhat, uhat_modes, modes))
            - _relaid(f.coefficients, mode_range(f.bandwidth), modes))


def _grid_max(modes: np.ndarray, rhat: np.ndarray, n_samples: int) -> float:
    """Max norm over at least n_samples nodes of the function with
    coefficients rhat on ``modes``.  On the half band the function is real,
    and its samples are one ``irfft`` of the k >= 0 rows, taken along
    contiguous components."""
    n = max(n_samples, 2 * int(modes[-1]) + 1)
    if not _half(modes):
        return PeriodicGridFunction(rhat, n).max_norm()
    samples = np.fft.irfft(np.ascontiguousarray(rhat.T), n, norm="forward")
    return float(np.sqrt(np.max(np.sum(np.square(samples), axis=0))))


def _checked(modes: np.ndarray, modal: np.ndarray, bandwidth: int, cond_limit: float,
             bands=None):
    """``_checked_inverse`` on the modes |k| <= bandwidth.  On the half band
    a rejected mode k stands for both -k and k, and the error names both."""
    solved = _within(modes, modes, bandwidth)
    try:
        return _checked_inverse(solved, _within(modal, modes, bandwidth), cond_limit, bands)
    except SingularModeError as error:
        if not _half(solved):
            raise
        k, c = np.array(error.modes), np.array(error.conditions)
        mirror = k > 0
        raise SingularModeError(np.concatenate([-k[mirror][::-1], k]),
                                np.concatenate([c[mirror][::-1], c])) from None


def _coefficients(spec: ProblemSpec, solved: np.ndarray, resolvent: np.ndarray) -> np.ndarray:
    """uhat(k) = M(k)^{-1} fhat(k) on the ``solved`` modes of the checked
    inverse; on the half band uhat(0) is made real."""
    f = spec.forcing
    uhat = np.einsum("kij,kj->ki", resolvent,
                     _relaid(f.coefficients, mode_range(f.bandwidth), solved))
    if _half(solved):
        uhat[0] = np.real(uhat[0])
    return uhat


def solve_periodic(spec: ProblemSpec, cond_limit: float = COND_LIMIT) -> SpectralSolution:
    """Construct the periodic solution with uhat(k) = M(k)^{-1} fhat(k).

    Warns with TruncationWarning when the forcing has energy beyond the
    truncation; the dropped tail energy (relative, l2 of coefficients) is
    recorded on the returned solution.  Raises SingularModeError when the
    1-norm condition number of some modal matrix in the band exceeds
    ``cond_limit``.

    A real problem (``spec.is_real``; ``_solved_modes``) is solved on
    k = 0..K alone: the symbols, M(k), its checked inverse and the defect
    are built there, the grid residual is one ``irfft``, and the
    coefficients and ``condition`` are mirrored to -K..K, uhat(-k) =
    conj uhat(k), so the solution is real too.  A complex problem is solved
    on the whole band.
    """
    f = spec.forcing
    K = spec.truncation
    modes = _solved_modes(spec, max(K, f.bandwidth))
    modal = ModeSymbols.on_modes(spec, modes).modal(spec.state_matrix)
    resolvent, condition = _checked(modes, modal, K, cond_limit)
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
    solved = _within(modes, modes, K)
    uhat = _coefficients(spec, solved, resolvent)
    rhat = _defect(spec, modes, modal, uhat, solved)
    if _half(solved):
        uhat, condition = _mirrored(uhat), _mirrored(condition)
    return SpectralSolution(
        solution=PeriodicGridFunction(uhat, spec.grid),
        modes=mode_range(K),
        coefficients=uhat,
        condition=condition,
        truncation=K,
        residual_modal=float(np.max(np.linalg.norm(_within(rhat, modes, K), axis=1))),
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
    it would.  A real problem is solved on k = 0..K and each row's residual
    and change are one ``irfft`` of its k >= 0 rows, as in
    ``solve_periodic``; a complex one on the whole band.
    """
    truncations = [int(k) for k in truncations]
    if any(a >= b for a, b in zip(truncations, truncations[1:])):
        raise ValueError("truncation list must be strictly ascending")
    f = spec.forcing
    widest = truncations[-1]
    n_grid = max(spec.grid, 4 * widest, f.n_samples)
    modes = _solved_modes(spec, max(widest, f.bandwidth))
    modal = ModeSymbols.on_modes(spec, modes).modal(spec.state_matrix)
    resolvent, _ = _checked(modes, modal, widest, cond_limit, bands=truncations)
    solved = _within(modes, modes, widest)
    uhat = _coefficients(spec, solved, resolvent)
    rows: List[SweepRow] = []
    ratios = []
    prev: Optional[Tuple[np.ndarray, np.ndarray]] = None   # (rows, their modes)
    for K in truncations:
        u_modes, u = _within(solved, solved, K), _within(uhat, solved, K)
        row_modes = _within(modes, modes, max(K, f.bandwidth))
        rhat = _defect(spec, row_modes, _within(modal, modes, max(K, f.bandwidth)), u, u_modes)
        res = _grid_max(row_modes, rhat, n_grid)
        change = (None if prev is None
                  else _grid_max(u_modes, u - _relaid(*prev, u_modes), n_grid))
        if rows and rows[-1].residual_full_band > 0.0:
            ratios.append(res / rows[-1].residual_full_band)
        rows.append(SweepRow(K, res, change))
        prev = (u, u_modes)

    scale = max(f.max_norm(), 1.0)
    if rows[-1].residual_full_band <= 1e-11 * scale:
        slow: Optional[bool] = False
    elif len(ratios) >= 2:
        slow = bool(ratios[-1] > 0.3)
    else:
        slow = None
    return SweepResult(rows=rows, slow_convergence=slow)
