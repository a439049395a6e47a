"""Mode-by-mode construction of the unique periodic solution.

The k-th coefficient of the solution is obtained by applying the inverse
modal matrix to the k-th forcing coefficient; the solution is a grid
function holding those coefficients, synthesized only when its samples are
read.  Differentiation of the neutral part is done in Fourier space
(multiplication by ik D_k), never by finite differences.

The solve is lean: it builds one symbol table (``ModeSymbols``) on the union
of the solver and forcing bands, assembles M(k) once from it, inverts every
M(k) once (``resolvent._checked_inverse``: the adjugate over the
determinant for n = 2, a reciprocal for n = 1, elementwise over the band),
rejects modes whose 1-norm condition number exceeds the limit, and forms
the residual M(k) uhat(k) - fhat(k) once.  It computes nothing it does not
report; the spectral-norm sequences belong to the boundedness diagnostics
in ``resolvent``, and the residual's grid synthesis runs only when
``residual_grid`` is read.  That one solve, ``_band_solve``, serves
``solve_periodic`` and ``convergence_sweep``, whose row K reads the solve
and residual at |k| <= K and costs at most its two syntheses: its residual,
unless it equals the previous row's, and its change, unless that is zero.
uhat and the residual are exactly zero wherever fhat is, so beyond the
forcing's band every row's residual is the same.  The sweep returns the
sweep report's own fields: ``rows`` of ``{"K", "residual_full_band",
"solution_change"}`` and ``slow_convergence``.

Every stack of a solve lies on one layout of modes: k = 0..B when the data
are real (``ProblemSpec.is_real``: real matrices, atoms and kernel, and
forcing coefficients exactly Hermitian), so that M(-k) = conj M(k), else
-B..B, with B the wider of the widest truncation and the forcing band.  A
narrower band is a slice (``_within``) of the mode axis: the first of a
vector stack (modes, n), the last of a matrix stack (n, n, modes), the
convention of ``symbols``.  Only what is reported over the whole band is
mirrored: the coefficients, uhat(-k) = conj uhat(k), and the condition
numbers.  Each grid residual is ``symbols._synthesis`` of the rows
as they are: one ``irfft`` of the k >= 0 rows, or one ``ifft`` of the whole
band.
"""

from __future__ import annotations

import functools
import operator
import warnings
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

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
    union of the solved and forcing bands.  That synthesis runs when
    ``residual_grid`` is first read, as a grid function's ``samples`` does,
    so a command that does not report it never pays for it.
    """

    solution: PeriodicGridFunction
    modes: np.ndarray
    coefficients: np.ndarray
    condition: np.ndarray
    truncation: int
    residual_modal: float
    forcing_tail_energy: float
    #: the synthesis that gives ``residual_grid``
    _grid_residual: Callable[[], float] = field(repr=False, compare=False)

    @functools.cached_property
    def residual_grid(self) -> float:
        return self._grid_residual()


def _within(modes: np.ndarray, bandwidth: int) -> slice:
    """The positions of the modes |k| <= bandwidth among consecutive
    ascending ``modes``."""
    first = int(modes[0])
    return slice(max(-bandwidth, first) - first, bandwidth - first + 1)


def _grid_max(modes: np.ndarray, rhat: np.ndarray, n_samples: int) -> float:
    """Max norm over at least n_samples nodes, and enough that no mode
    folds, of the function with coefficients rhat on ``modes``: exactly 0
    for all-zero coefficients, which are not synthesised."""
    if not rhat.any():
        return 0.0
    return _max_row_norm(_synthesis(rhat, modes, max(n_samples, 2 * int(modes[-1]) + 1)))


def _cut(modes: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``rows`` on consecutive ascending ``modes`` cut to the narrowest band
    |k| <= b that holds every nonzero row (NaN included), and to no row when
    all are zero."""
    live = np.flatnonzero(rows) // rows.shape[1]
    top = max(-int(modes[live[0]]), int(modes[live[-1]])) if live.size else -1
    return rows[_within(modes, top)]


def _band_solve(spec: ProblemSpec, bands: Sequence[int], cond_limit: float):
    """(modes, fhat, uhat, rhat, condition): the solves at the ascending
    truncations ``bands``, all read off one solve at the widest, B.

    Every stack lies on ``modes``: k = 0..max(B, forcing band) for a real
    problem, the whole band for a complex one.  uhat = M(k)^{-1} fhat(k) on
    |k| <= B, where ``condition`` is given, and 0 beyond; on a half band
    uhat(0) is made real; rhat = M(k) uhat(k) - fhat(k) on every mode.  A
    rejected mode raises SingularModeError as the first of those solves
    whose band holds it would: it names the modes of the narrowest band in
    ``bands`` that holds one, and on a half band a rejected k > 0 names -k
    as well.
    """
    f = spec.forcing
    widest = bands[-1]
    band = max(widest, f.bandwidth)
    modes = np.arange(0 if spec.is_real else -band, band + 1)
    modal = ModeSymbols.on_modes(spec, modes).modal(spec.state_matrix)
    fhat = np.zeros((len(modes), spec.dim), dtype=complex)
    forced = fhat[_within(modes, f.bandwidth)]
    forced[:] = f.coefficients[-len(forced):]
    within = _within(modes, widest)
    solved = modes[within]
    try:
        resolvent, condition = _checked_inverse(solved, modal[..., within], cond_limit)
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
    uhat[within] = np.einsum("ijk,kj->ki", resolvent, fhat[within])
    if _half(solved):
        uhat[0] = np.real(uhat[0])
    return modes, fhat, uhat, np.einsum("ijk,kj->ki", modal, uhat) - fhat, condition


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
    modes, _, uhat, rhat, condition = _band_solve(spec, [K], cond_limit)
    tail_energy = f.tail_energy(K)
    if tail_energy > 0.0:
        warnings.warn(
            f"forcing bandwidth {f.bandwidth} exceeds truncation "
            f"{K}; dropped relative tail energy {tail_energy:.3e}",
            TruncationWarning,
            stacklevel=2,
        )
    within = _within(modes, K)
    coefficients = uhat[within]
    if _half(modes):
        coefficients, condition = _mirrored(coefficients), _mirrored(condition)
    return SpectralSolution(
        solution=PeriodicGridFunction(coefficients, spec.grid),
        modes=mode_range(K),
        coefficients=coefficients,
        condition=condition,
        truncation=K,
        residual_modal=_max_row_norm(rhat[within]),
        forcing_tail_energy=tail_energy,
        _grid_residual=functools.partial(_grid_max, modes, rhat, spec.grid),
    )


def convergence_sweep(spec: ProblemSpec, truncations: Sequence[int],
                      cond_limit: float = COND_LIMIT) -> dict:
    """Residual-vs-truncation table for a nonempty, strictly ascending list of
    bandwidths, each an integer >= 1 (the checks ``ProblemSpec`` and
    ``parse_config`` make of a truncation).

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
    band) of the layout: its residual is the solve's on |k| <= K and -fhat
    beyond; for a real problem it is the k >= 0 rows and its residual and
    change are one ``irfft`` each.  A row whose residual coefficients, cut
    at their last nonzero mode (``_cut``), equal the previous row's takes
    the previous row's value and synthesises nothing: the two zero-padded
    spectra differ at most in the signs of zeros, so their syntheses on the
    one sweep grid do too, and their max norms are the same bits.  A NaN
    never compares equal, so such a row is synthesised.  For a harmonics
    forcing, every row K at or above the forcing's band is such a row.

    Returns the sweep report's fields, ``{"rows", "slow_convergence"}``:
    one row ``{"K", "residual_full_band", "solution_change"}`` per
    truncation, in order, the first row's change None.
    """
    truncations = [operator.index(k) for k in truncations]
    if not truncations:
        raise ValueError("truncation list must be nonempty")
    if min(truncations) < 1:
        raise ValueError("truncation must be >= 1")
    if any(a >= b for a, b in zip(truncations, truncations[1:])):
        raise ValueError("truncation list must be strictly ascending")
    f = spec.forcing
    n_grid = max(spec.grid, 4 * truncations[-1], f.n_samples)
    modes, fhat, uhat, rhat, _ = _band_solve(spec, truncations, cond_limit)
    rows: List[dict] = []
    ratios = []
    cut = None
    for K in truncations:
        band, within = _within(modes, max(K, f.bandwidth)), _within(modes, K)
        row_modes = modes[band]
        solved = (np.abs(row_modes) <= K)[:, None]
        residual = np.where(solved, rhat[band], 0.0 - fhat[band])
        previous, cut = cut, _cut(row_modes, residual)
        if rows and np.array_equal(cut, previous):
            res = rows[-1]["residual_full_band"]
        else:
            res = _grid_max(row_modes, residual, n_grid)
        change = None
        if rows:
            # uhat on K_prev < |k| <= K: the solve at K less the one at K_prev
            u_modes, step = modes[within], uhat[within].copy()
            step[_within(u_modes, rows[-1]["K"])] = 0.0
            change = _grid_max(u_modes, step, n_grid)
        if rows and rows[-1]["residual_full_band"] > 0.0:
            ratios.append(res / rows[-1]["residual_full_band"])
        rows.append({"K": K, "residual_full_band": res, "solution_change": change})

    scale = max(f.max_norm(), 1.0)
    if rows[-1]["residual_full_band"] <= 1e-11 * scale:
        slow: Optional[bool] = False
    elif len(ratios) >= 2:
        slow = bool(ratios[-1] > 0.3)
    else:
        slow = None
    return {"rows": rows, "slow_convergence": slow}
