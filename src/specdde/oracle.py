"""Independent time-domain verification by collocation on a uniform grid.

The derivative of the neutral part is discretized with centered second-order
differences, delayed samples wrap around the period, and the infinite-memory
convolution is folded onto one period:

    int_{-inf}^t a(t-s) x(s) ds = int_0^{2pi} abar(tau) x(t - tau) dtau,
    abar(tau) = sum_{m >= 0} a(tau + 2pi m),

then discretized with trapezoidal weights.  The folded kernel jumps by a(0)
at tau = 0; the convolution uses the jump-averaged sample there (plain
second order), while the Fourier-integral check subtracts the known jump
structure via Bernoulli polynomials before applying the trapezoid, which
restores spectral accuracy against the closed-form transform.

Nothing in the assembly below touches the resolvent or solver modules (only
the default singular-mode limit is shared); the cross-method comparison
imports the spectral solver lazily inside compare().
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
)
from .resolvent import COND_LIMIT

_FOLD_CAP = 10**6
_JUMP_ORDERS = 4  # boundary derivatives a(0), a'(0), a''(0), a'''(0)


def _bernoulli_poly(n: int, x: np.ndarray) -> np.ndarray:
    if n == 1:
        return x - 0.5
    if n == 2:
        return x * (x - 1.0) + 1.0 / 6.0
    if n == 3:
        return x * (x * (x - 1.5) + 0.5)
    if n == 4:
        return x * (x * (x * (x - 2.0) + 1.0)) - 1.0 / 30.0
    raise ValueError("only orders 1..4 are used")


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
    """Minimal fold count M with sup-mass of the dropped tail below tol * ||a||_1."""
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
    the dropped folds.  ``boundary_derivatives`` stores a^(r)(0) for
    r = 0..3, which fix the jump structure of the fold at tau = 0.
    """

    samples: np.ndarray
    kernel: KernelSpec
    folds: int
    tail_bound: float
    boundary_derivatives: np.ndarray

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    def convolution_samples(self) -> np.ndarray:
        """Samples for the periodic trapezoid convolution.

        The value at the jump node tau = 0 is replaced by the average of the
        one-sided limits, which keeps the quadrature second order.
        """
        out = self.samples.astype(complex).copy()
        out[0] -= 0.5 * self.boundary_derivatives[0]
        if self.kernel.is_real:
            out = out.real
        return out

    def fourier_integral(self, k):
        """int_0^{2pi} abar(tau) e^{-ik tau} dtau, matching the transform at ik.

        Trapezoid on the fold minus its Bernoulli-polynomial jump part, plus
        the closed-form integrals of that part.  The de-jumped remainder is a
        smooth periodic function, so the trapezoid converges spectrally and
        the value agrees with the kernel transform to quadrature + tail
        tolerance.  Accepts a scalar or an array of modes.
        """
        ks = np.atleast_1d(np.asarray(k))
        n = self.n_samples
        x = np.arange(n) / n
        coeffs = np.array([
            -self.boundary_derivatives[r] * TWO_PI**r / math.factorial(r + 1)
            for r in range(_JUMP_ORDERS)
        ])
        jump_part = sum(coeffs[r] * _bernoulli_poly(r + 1, x)
                        for r in range(_JUMP_ORDERS))
        remainder = self.samples.astype(complex) - jump_part
        tau = TWO_PI * x
        phases = np.exp(-1j * np.outer(ks, tau))
        trapezoid = (TWO_PI / n) * phases @ remainder

        correction = np.zeros(len(ks), dtype=complex)
        nonzero = ks != 0
        kz = ks[nonzero]
        for r in range(_JUMP_ORDERS):
            correction[nonzero] += coeffs[r] * (
                -TWO_PI * math.factorial(r + 1) / (TWO_PI * 1j * kz) ** (r + 1)
            )
        out = trapezoid + correction
        return out if np.ndim(k) else complex(out[0])


def periodize_kernel(kernel: KernelSpec, n_samples: int,
                     tol: float = 1e-12) -> PeriodizedKernel:
    """Fold the kernel onto [0, 2pi) with the minimal fold count for ``tol``.

    Raises PeriodizationError when the tolerance cannot be met within 10^6
    folds (kernels with very slow decay).
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    derivs = np.array([kernel.derivative_at_zero(r) for r in range(_JUMP_ORDERS)])
    if kernel.is_empty:
        samples = np.zeros(n_samples)
        return PeriodizedKernel(samples, kernel, 0, 0.0, derivs)
    folds, tail = _fold_plan(kernel, tol)
    tau = TWO_PI * np.arange(n_samples) / n_samples
    acc = np.zeros(n_samples, dtype=complex)
    for m in range(folds + 1):
        acc += kernel.eval(tau + TWO_PI * m)
    samples = acc.real if kernel.is_real else acc
    return PeriodizedKernel(samples, kernel, folds, tail, derivs)


def _lagrange4(frac: float) -> np.ndarray:
    """Cubic Lagrange weights on stencil offsets [-2, -1, 0, 1] at point -frac."""
    nodes = np.array([-2.0, -1.0, 0.0, 1.0])
    x = -frac
    weights = np.empty(4)
    for i, node in enumerate(nodes):
        others = np.delete(nodes, i)
        weights[i] = np.prod((x - others) / (node - others))
    return weights


def _add_shift(view: np.ndarray, shift: int, block: np.ndarray):
    """Accumulate ``block`` at rows j, columns (j - shift) mod N of a block matrix."""
    n_nodes = view.shape[0]
    rows = np.arange(n_nodes)
    view[rows, :, (rows - shift) % n_nodes, :] += block


def _delay_matrix(functional: DelayFunctional, n_nodes: int, dt: float,
                  interpolate: bool) -> np.ndarray:
    n = functional.dim
    full = np.zeros((n_nodes * n, n_nodes * n), dtype=complex)
    view = full.reshape(n_nodes, n, n_nodes, n)
    for coef, lag in functional.atoms:
        shift_exact = lag / dt
        shift = int(round(shift_exact))
        if abs(shift_exact - shift) <= 1e-9 * max(1.0, shift_exact):
            _add_shift(view, shift, coef)
        elif interpolate:
            base = int(np.floor(shift_exact))
            frac = shift_exact - base
            for offset, weight in zip((-2, -1, 0, 1), _lagrange4(frac)):
                _add_shift(view, base - offset, weight * coef)
        else:
            raise OffGridLagError(
                f"lag {lag} is {shift_exact} grid steps (not within 1e-9 of an "
                "integer); enable interpolation or refine the grid"
            )
    dist = functional.distributed
    if dist is not None:
        steps_exact = dist.span / dt
        steps = int(round(steps_exact))
        if abs(steps_exact - steps) > 1e-9 * max(1.0, steps_exact):
            raise OffGridLagError(
                f"distributed span {dist.span} does not land on the grid"
            )
        theta = -dt * np.arange(steps + 1)
        values = dist.evaluate(theta)
        for l in range(steps + 1):
            weight = 0.5 if l in (0, steps) else 1.0
            _add_shift(view, l, dt * weight * values[l])
    return full


def collocation_solve(spec: ProblemSpec, n_nodes: int,
                      interpolate: bool = False) -> PeriodicGridFunction:
    """Solve the periodic problem on a uniform grid, independently of the
    spectral route.

    Assembles the dense N*n system in which the centered difference of
    y_j = x_j - (L x)_j balances A y_j + (G x)_j + the trapezoidal periodic
    convolution + f_j, and solves it directly.  Second order in the grid
    spacing for smooth data.
    """
    n = spec.dim
    dt = TWO_PI / n_nodes
    if n_nodes < 2 * spec.forcing.bandwidth + 1:
        raise AliasingError(
            f"collocation grid {n_nodes} cannot carry forcing bandwidth "
            f"{spec.forcing.bandwidth}"
        )
    rhs = spec.forcing.resample(n_nodes).samples.reshape(-1)

    neutral = _delay_matrix(spec.neutral_delay, n_nodes, dt, interpolate)
    reaction = _delay_matrix(spec.reaction_delay, n_nodes, dt, interpolate)

    size = n_nodes * n
    eye_n = np.eye(n)
    diff = np.zeros((size, size), dtype=complex)
    diff_view = diff.reshape(n_nodes, n, n_nodes, n)
    _add_shift(diff_view, -1, eye_n / (2.0 * dt))
    _add_shift(diff_view, +1, -eye_n / (2.0 * dt))

    state = np.zeros((size, size), dtype=complex)
    _add_shift(state.reshape(n_nodes, n, n_nodes, n), 0, spec.state_matrix)

    convolution = np.zeros((size, size), dtype=complex)
    if not spec.kernel.is_empty:
        folded = periodize_kernel(spec.kernel, n_nodes).convolution_samples()
        conv_view = convolution.reshape(n_nodes, n, n_nodes, n)
        for l in range(n_nodes):
            _add_shift(conv_view, l, dt * folded[l] * eye_n)

    neutral_map = np.eye(size) - neutral
    system = (diff - state) @ neutral_map - reaction - convolution
    try:
        x = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError:
        singular_values = np.linalg.svd(system, compute_uv=False)
        cond = float("inf") if singular_values[-1] == 0.0 else \
            float(singular_values[0] / singular_values[-1])
        raise SingularSystemError(cond) from None
    samples = x.reshape(n_nodes, n)
    if spec.is_real:
        samples = samples.real
    return PeriodicGridFunction.from_samples(samples)


@dataclass
class OracleComparison:
    """Spectral-vs-collocation gaps over a list of grid sizes."""

    rows: List[Tuple[int, float]]
    fitted_order: Optional[float]

    def to_dict(self) -> dict:
        return {
            "rows": [{"n": int(n), "gap": float(g)} for n, g in self.rows],
            "fitted_order": self.fitted_order,
        }


def compare(spec: ProblemSpec, grid_sizes: Sequence[int],
            cond_limit: float = COND_LIMIT) -> OracleComparison:
    """Max-norm gap between the two solution routes, with the fitted order.

    The spectral reference is solved once and resampled to each collocation
    grid.  The fitted order is the least-squares slope of log gap against
    log N (negated); it is reported as None when some gap sits at round-off
    level, where the fit would measure noise.  ``cond_limit`` is passed to
    the spectral solve.
    """
    from .solver import solve_periodic  # deferred so assembly stays solver-free

    reference = solve_periodic(spec, cond_limit=cond_limit).solution
    rows: List[Tuple[int, float]] = []
    for n_nodes in grid_sizes:
        approx = collocation_solve(spec, int(n_nodes))
        ref = reference.resample(int(n_nodes))
        gap = float(np.max(np.linalg.norm(ref.samples - approx.samples, axis=1)))
        rows.append((int(n_nodes), gap))

    scale = max(reference.max_norm(), 1.0)
    gaps = np.array([g for _, g in rows])
    order: Optional[float] = None
    if len(rows) >= 2 and np.all(gaps > 1e-13 * scale):
        sizes = np.array([float(n) for n, _ in rows])
        order = float(-np.polyfit(np.log(sizes), np.log(gaps), 1)[0])
    return OracleComparison(rows=rows, fitted_order=order)
