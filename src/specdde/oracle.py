"""Independent time-domain verification by collocation on a uniform grid.

The derivative of the neutral part is discretized with centered second-order
differences, delayed samples wrap around the period, and the infinite-memory
convolution is folded onto one period:

    int_{-inf}^t a(t-s) x(s) ds = int_0^{2pi} abar(tau) x(t - tau) dtau,
    abar(tau) = sum_{m >= 0} a(tau + 2pi m),

then discretized with trapezoidal weights.  The folded kernel jumps by a(0)
at tau = 0; the convolution uses the jump-averaged sample there, which keeps
the quadrature second order.

Every term of the scheme acts on the periodic samples as a convolution
stencil, (T x)_j = sum_s c_s x_{j-s} with n x n blocks c_s, so the system is
block circulant.  One FFT over the nodes turns each stencil into its discrete
symbol, and the scheme becomes N independent n x n systems, one per discrete
frequency: O(N n^3 + n^2 N log N) work and O(N n^2) memory.  The symbols come
from the stencil weights alone; nothing here touches the resolvent or solver
modules (only the default condition limit is shared), and the cross-method
comparison imports the spectral solver lazily inside compare().
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .exceptions import (
    AliasingError,
    OffGridLagError,
    PeriodizationError,
    SingularSystemError,
)
from .symbols import (
    TWO_PI,
    DelayFunctional,
    KernelSpec,
    PeriodicGridFunction,
    ProblemSpec,
    mode_range,
)
from .resolvent import COND_LIMIT

_FOLD_CAP = 10**6
_FOLD_TOL = 1e-12  # dropped fold mass, relative to ||a||_1


def _interval_sup(c_abs: float, m: int, alpha: float, lo: float, hi: float) -> float:
    """sup over [lo, hi] of |c| t^m e^{-alpha t} (lo >= 0)."""

    def val(t):
        return c_abs * t**m * math.exp(-alpha * t)

    if m == 0:
        return val(lo)
    peak = m / alpha
    if peak <= lo:
        return val(lo)
    if peak >= hi:
        return val(hi)
    return val(peak)


def _fold_plan(kernel: KernelSpec, tol: float) -> Tuple[int, float]:
    """Minimal fold count M with sup-mass of the dropped tail below tol * ||a||_1,
    and that bound; (0, 0.0) for the empty kernel."""
    if kernel.is_empty:
        return 0, 0.0
    target = tol * kernel.l1_norm()
    sups: List[float] = []
    j = 1
    while True:
        s_j = sum(
            _interval_sup(abs(c), m, alpha, TWO_PI * j, TWO_PI * (j + 1))
            for c, m, alpha in kernel.terms
        )
        sups.append(s_j)
        if j >= 2 and s_j < sups[-2] and s_j < max(target, 1e-300) * 1e-3:
            break
        if j >= _FOLD_CAP:
            raise PeriodizationError(
                f"fold tolerance {tol} unreachable within {_FOLD_CAP} periods"
            )
        j += 1
    ratio = min(sups[-1] / sups[-2], 0.999) if sups[-2] > 0 else 0.0
    closure = sups[-1] * ratio / (1.0 - ratio)
    tails = np.concatenate([np.cumsum(np.asarray(sups)[::-1])[::-1], [0.0]]) + closure
    # tails[i] bounds the mass beyond M = i folds
    for fold in range(len(tails)):
        if tails[fold] < target:
            return fold, float(tails[fold])
    raise PeriodizationError(
        f"fold tolerance {tol} unreachable within {_FOLD_CAP} periods"
    )


@dataclass
class PeriodizedKernel:
    """One-period fold of a memory kernel on the uniform grid tau_l = 2pi l / N.

    ``samples`` holds the one-sided values abar(tau_l) of the truncated fold
    sum_{m=0}^{folds} a(tau + 2pi m); ``tail_bound`` bounds the sup-mass of
    the dropped folds.
    """

    samples: np.ndarray
    kernel: KernelSpec
    folds: int
    tail_bound: float

    def convolution_samples(self) -> np.ndarray:
        """Samples for the periodic trapezoid convolution.

        The value at the jump node tau = 0 is replaced by the average of the
        one-sided limits, abar(0) - a(0)/2, which keeps the quadrature second
        order.
        """
        out = self.samples.astype(complex)
        out[0] -= 0.5 * self.kernel.eval(0.0)
        if self.kernel.is_real:
            out = out.real
        return out


def periodize_kernel(kernel: KernelSpec, n_samples: int,
                     tol: float = _FOLD_TOL) -> PeriodizedKernel:
    """Fold the kernel onto [0, 2pi) with the minimal fold count for ``tol``.

    Raises PeriodizationError when the tolerance cannot be met within 10^6
    folds (kernels with very slow decay).
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    folds, tail = _fold_plan(kernel, tol)
    tau = TWO_PI * np.arange(n_samples) / n_samples
    acc = np.zeros(n_samples, dtype=complex)
    for m in range(folds + 1):
        acc += kernel.eval(tau + TWO_PI * m)
    samples = acc.real if kernel.is_real else acc
    return PeriodizedKernel(samples, kernel, folds, tail)


def _lagrange4(frac: float) -> np.ndarray:
    """Cubic Lagrange weights on stencil offsets [-2, -1, 0, 1] at point -frac."""
    nodes = np.array([-2.0, -1.0, 0.0, 1.0])
    x = -frac
    weights = np.empty(4)
    for i, node in enumerate(nodes):
        others = np.delete(nodes, i)
        weights[i] = np.prod((x - others) / (node - others))
    return weights


def _delay_stencil(functional: DelayFunctional, n_nodes: int,
                   dt: float) -> np.ndarray:
    """Blocks c_s of the delay term (T x)_j = sum_s c_s x_{j-s}, shape (N, n, n).

    An atom whose lag lands on the grid is one shift; any other atom takes the
    cubic Lagrange weights of its four neighbouring nodes.  The distributed
    kernel takes trapezoidal weights and must span a whole number of steps.
    """
    n = functional.dim
    stencil = np.zeros((n_nodes, n, n), dtype=complex)
    for coef, lag in functional.atoms:
        shift_exact = lag / dt
        shift = int(round(shift_exact))
        if abs(shift_exact - shift) <= 1e-9 * max(1.0, shift_exact):
            stencil[shift % n_nodes] += coef
        else:
            base = int(np.floor(shift_exact))
            for offset, weight in zip((-2, -1, 0, 1), _lagrange4(shift_exact - base)):
                stencil[(base - offset) % n_nodes] += weight * coef
    dist = functional.distributed
    if dist is not None:
        steps_exact = dist.span / dt
        steps = int(round(steps_exact))
        if abs(steps_exact - steps) > 1e-9 * max(1.0, steps_exact):
            raise OffGridLagError(
                f"distributed span {dist.span} is {steps_exact} grid steps (not "
                "within 1e-9 of an integer); choose a grid that divides it"
            )
        weights = np.full(steps + 1, dt)
        weights[[0, -1]] *= 0.5
        values = dist.evaluate(-dt * np.arange(steps + 1))
        np.add.at(stencil, np.arange(steps + 1) % n_nodes, weights[:, None, None] * values)
    return stencil


def collocation_solve(spec: ProblemSpec, n_nodes: int,
                      cond_limit: float = COND_LIMIT) -> PeriodicGridFunction:
    """Solve the periodic problem on a uniform grid, independently of the
    spectral route.

    The centered difference of y_j = x_j - (L x)_j balances A y_j + (G x)_j
    + the trapezoidal periodic convolution + f_j.  One FFT over the nodes
    turns each term's stencil into its discrete symbol; at frequency m the
    system symbol is (D_m - A)(I - L_m) - G_m - C_m.  The N n x n systems are
    solved in one batch against the FFT of the resampled forcing, and an
    inverse FFT gives the samples.  Second order in the grid spacing for
    smooth data.  The block DFT is unitary, so the system's condition number
    is max sigma_max / min sigma_min over the frequencies; SingularSystemError
    is raised when it is not finite or exceeds ``cond_limit``.
    """
    n = spec.dim
    dt = TWO_PI / n_nodes
    if n_nodes < 2 * spec.forcing.bandwidth + 1:
        raise AliasingError(
            f"collocation grid {n_nodes} cannot carry forcing bandwidth "
            f"{spec.forcing.bandwidth}"
        )
    eye_n = np.eye(n)
    diff_state = np.zeros((n_nodes, n, n), dtype=complex)
    diff_state[-1] += eye_n / (2.0 * dt)
    diff_state[1 % n_nodes] -= eye_n / (2.0 * dt)
    diff_state[0] -= spec.state_matrix
    folded = periodize_kernel(spec.kernel, n_nodes).convolution_samples()
    convolution = dt * folded[:, None, None] * eye_n
    stencils = (diff_state, _delay_stencil(spec.neutral_delay, n_nodes, dt),
                _delay_stencil(spec.reaction_delay, n_nodes, dt), convolution)
    diff_hat, neutral_hat, reaction_hat, memory_hat = (
        np.fft.fft(stencil, axis=0) for stencil in stencils)
    system = diff_hat @ (eye_n - neutral_hat) - reaction_hat - memory_hat

    singular_values = np.linalg.svd(system, compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = float(np.max(singular_values[:, 0]) / np.min(singular_values[:, -1]))
    if not cond <= cond_limit:
        raise SingularSystemError(cond)
    rhs = np.fft.fft(_nodal_values(spec.forcing, n_nodes), axis=0)
    samples = np.fft.ifft(np.linalg.solve(system, rhs[:, :, None])[:, :, 0], axis=0)
    if spec.is_real:
        samples = samples.real
    return PeriodicGridFunction.from_samples(samples)


def _nodal_values(grid: PeriodicGridFunction, n_nodes: int) -> np.ndarray:
    """Values of the trigonometric polynomial ``grid`` at the n_nodes uniform
    nodes, shape (n_nodes, n).

    The coefficients are folded mod N before one inverse FFT: at the nodes,
    e^{ikt} and e^{i(k+N)t} coincide, so this is exact for any N, also below
    2K+1.  At N >= 2K+1 nothing folds and the values are those of
    ``grid.resample(n_nodes)``.
    """
    spectrum = np.zeros((n_nodes, grid.dim), dtype=complex)
    np.add.at(spectrum, np.mod(mode_range(grid.bandwidth), n_nodes), grid.coefficients)
    return np.fft.ifft(spectrum * n_nodes, axis=0)


@dataclass
class OracleComparison:
    """Spectral-vs-collocation gaps over a list of grid sizes.

    ``folds`` and ``tail_bound`` are the memory kernel's fold plan, the same
    on every grid (see ``PeriodizedKernel``).
    """

    rows: List[Tuple[int, float]]
    fitted_order: Optional[float]
    folds: int
    tail_bound: float

    def to_dict(self) -> dict:
        return {
            "rows": [{"n": n, "gap": g} for n, g in self.rows],
            "fitted_order": self.fitted_order,
            "memory_kernel": {"folds": self.folds, "tail_bound": self.tail_bound},
        }


def compare(spec: ProblemSpec, grid_sizes: Sequence[int],
            cond_limit: float = COND_LIMIT) -> OracleComparison:
    """Max-norm gap between the two solution routes, with the fitted order.

    The spectral reference is solved once and evaluated at the nodes of each
    collocation grid, whatever its size.  The fitted order is the
    least-squares slope of log gap against log N (negated); it is reported as
    None when some gap sits at round-off level, where the fit would measure
    noise.  ``cond_limit`` bounds both the spectral solve and every
    collocation system.  The memory kernel's fold plan does not depend on the
    grid and is reported once.
    """
    from .solver import solve_periodic  # deferred so assembly stays solver-free

    reference = solve_periodic(spec, cond_limit=cond_limit).solution
    rows: List[Tuple[int, float]] = []
    for n_nodes in grid_sizes:
        approx = collocation_solve(spec, int(n_nodes), cond_limit)
        ref = _nodal_values(reference, int(n_nodes))
        gap = float(np.max(np.linalg.norm(ref - approx.samples, axis=1)))
        rows.append((int(n_nodes), gap))
    folds, tail_bound = _fold_plan(spec.kernel, _FOLD_TOL)

    scale = max(reference.max_norm(), 1.0)
    gaps = np.array([g for _, g in rows])
    order: Optional[float] = None
    if len(rows) >= 2 and np.all(gaps > 1e-13 * scale):
        sizes = np.array([float(n) for n, _ in rows])
        order = float(-np.polyfit(np.log(sizes), np.log(gaps), 1)[0])
    return OracleComparison(rows=rows, fitted_order=order, folds=folds,
                            tail_bound=tail_bound)
