"""Independent time-domain verification by collocation on a uniform grid.

The derivative of the neutral part is discretized with centered second-order
differences, delayed samples wrap around the period, and the infinite-memory
convolution is folded onto one period:

    int_{-inf}^t a(t-s) x(s) ds = int_0^{2pi} abar(tau) x(t - tau) dtau,
    abar(tau) = sum_{j >= 0} a(tau + 2pi j),

then discretized with trapezoidal weights.  For the kernels c t^m e^{-alpha t}
the fold is a finite sum in closed form (``periodize_kernel``), exact up to
round-off.  The folded kernel jumps by a(0) at tau = 0; the convolution uses
the jump-averaged sample there, which keeps the quadrature second order.

Every term of the scheme acts on the periodic samples as a convolution
stencil, (T x)_j = sum_s c_s x_{j-s} with n x n blocks c_s, so the system is
block circulant.  One FFT over the nodes turns each stencil into its discrete
symbol, and the scheme becomes N independent n x n systems, one per discrete
frequency: O(N n^3 + n^2 N log N) work and O(N n^2) memory.  The symbols come
from the stencil weights alone; nothing here touches the solver module or
the mode symbols (only the default condition limit, the inversion of a
matrix stack and its spectral norm are shared with ``resolvent``, and the
stack product with ``symbols``), and the cross-method comparison imports
the spectral solver lazily inside compare().  Stencils and systems are
matrix stacks with the nodes or frequencies on the last axis, (n, n, N),
the convention of ``symbols``.  The forcing and the spectral reference take
their nodal values from ``symbols._synthesis``, which folds on a coarse
grid.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .exceptions import AliasingError, OffGridLagError, SingularSystemError
from .symbols import (TWO_PI, DelayFunctional, KernelSpec, ProblemSpec, _max_row_norm,
                      _stack_product, _synthesis, mode_range)
from .resolvent import COND_LIMIT, _inverse_and_condition, _operator_norms, _slope


def periodize_kernel(kernel: KernelSpec, n_samples: int) -> np.ndarray:
    """Convolution samples of the fold abar(tau) = sum_{j>=0} a(tau + 2pi j)
    at tau_l = 2pi l / N, in closed form.

    With s = tau/2pi, r = e^{-2pi alpha} and beta = 1 - r, a term c t^m
    e^{-alpha t} folds to

        c (2pi)^m e^{-alpha tau} beta^{-(m+1)} sum_i C(m, i) (s beta)^{m-i} g_i,

    where g_i = beta^{i+1} sum_{j>=0} j^i r^j (g_0 = 1) obeys g_i = r sum_{l<i}
    C(i, l) beta^{i-1-l} g_l and lies in [0, i!].  Every sum has nonnegative
    terms, so nothing cancels, however slowly the kernel decays.  The
    binary exponents of c, (2pi)^m, beta^{-(m+1)} and e^{-alpha tau} are added
    apart from their mantissas and the polynomial is at most m!, so the value
    overflows only where the fold itself does.

    The value at the jump node tau = 0 is the average of the one-sided
    limits, abar(0) - a(0)/2, which keeps the quadrature second order.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    s = np.arange(n_samples) / n_samples
    out = np.zeros(n_samples, dtype=complex)
    for c, m, alpha in kernel.terms:
        if c == 0:
            continue
        r, beta = math.exp(-TWO_PI * alpha), -math.expm1(-TWO_PI * alpha)
        g = [1.0]
        for i in range(1, m + 1):
            g.append(r * sum(math.comb(i, l) * beta ** (i - 1 - l) * g[l] for l in range(i)))
        poly = sum(math.comb(m, i) * g[i] * (s * beta) ** (m - i) for i in range(m + 1))
        # e^{-alpha tau} = 2^power; below e^{-1000 pi} the term underflows either way
        power = np.maximum(-alpha * s, -500.0) * (TWO_PI / math.log(2.0))
        whole = np.floor(power)
        mantissa, exponent = np.frexp(poly * np.exp2(power - whole))
        (m_c, e_c), (m_2pi, e_2pi), (m_beta, e_beta) = map(math.frexp, (abs(c), TWO_PI, beta))
        out += c / abs(c) * np.ldexp(
            m_c * m_2pi**m / m_beta ** (m + 1) * mantissa,
            exponent + whole.astype(int) + e_c + e_2pi * m - e_beta * (m + 1))
    out[0] -= 0.5 * sum(c for c, m, _ in kernel.terms if m == 0)
    return out.real if kernel.is_real else out


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
    """Blocks c_s of the delay term (T x)_j = sum_s c_s x_{j-s}, shape (n, n, N).

    An atom whose lag lands on the grid is one shift; any other atom takes the
    cubic Lagrange weights of its four neighbouring nodes.  The distributed
    kernel takes trapezoidal weights and must span a whole number of steps,
    fewer than 5e8 of them, so that the 1e-9 test can tell whether it does;
    its weights are added one period of steps at a time, in O(N n^2) memory.
    """
    n = functional.dim
    stencil = np.zeros((n, n, n_nodes), dtype=complex)
    for coef, lag in functional.atoms:
        shift_exact = lag / dt
        shift = int(round(shift_exact))
        if abs(shift_exact - shift) <= 1e-9 * max(1.0, shift_exact):
            stencil[..., shift % n_nodes] += coef
        else:
            base = int(np.floor(shift_exact))
            for offset, weight in zip((-2, -1, 0, 1), _lagrange4(shift_exact - base)):
                stencil[..., (base - offset) % n_nodes] += weight * coef
    dist = functional.distributed
    if dist is not None:
        steps_exact = dist.span / dt
        steps = int(round(steps_exact))
        tolerance = 1e-9 * max(1.0, steps_exact)
        if tolerance >= 0.5:
            # every span would pass: no integer is more than half a step away
            raise OffGridLagError(
                f"distributed span {dist.span} is {steps_exact} grid steps, too "
                "many to tell on the grid within 1e-9 of their number"
            )
        if abs(steps_exact - steps) > tolerance:
            raise OffGridLagError(
                f"distributed span {dist.span} is {steps_exact} grid steps (not "
                "within 1e-9 of an integer); choose a grid that divides it"
            )
        for start in range(0, steps + 1, n_nodes):
            chunk = np.arange(start, min(start + n_nodes, steps + 1))
            weights = np.where((chunk == 0) | (chunk == steps), 0.5 * dt, dt)
            # the kernel's values come point by point, (q, n, n)
            values = np.moveaxis(dist.evaluate(-dt * chunk), 0, -1)
            stencil[..., :len(chunk)] += weights * values
    return stencil


def collocation_solve(spec: ProblemSpec, n_nodes: int,
                      cond_limit: float = COND_LIMIT) -> np.ndarray:
    """Solve the periodic problem on a uniform grid, independently of the
    spectral route.

    The centered difference of y_j = x_j - (L x)_j balances A y_j + (G x)_j
    + the trapezoidal periodic convolution + f_j.  One FFT over the nodes
    turns each term's stencil into its discrete symbol; at frequency m the
    system symbol is (D_m - A)(I - L_m) - G_m - C_m.  The N n x n systems are
    inverted once, by ``resolvent._inverse_and_condition`` (closed forms for
    n <= 2), and the inverses are applied to the FFT of the resampled
    forcing; an inverse FFT gives the (N, n) nodal samples.  Second order in
    the grid spacing for smooth data.  The block DFT is unitary, so the
    system's condition number is max sigma_max / min sigma_min over the
    frequencies, which is max ||S_m||_2 * max ||S_m^{-1}||_2 since
    sigma_min(S_m) = 1/||S_m^{-1}||_2: it is read off that inversion, and an
    exactly singular S_m, whose 1-norm condition number is infinite, gives
    an infinite one.  SingularSystemError is raised when it is not finite
    or exceeds ``cond_limit``.
    """
    n, n_nodes = spec.dim, operator.index(n_nodes)
    if n_nodes < 2 * spec.forcing.bandwidth + 1:
        raise AliasingError(
            f"collocation grid {n_nodes} cannot carry forcing bandwidth "
            f"{spec.forcing.bandwidth}"
        )
    dt = TWO_PI / n_nodes
    eye_n = np.eye(n)
    diff_state = np.zeros((n, n, n_nodes), dtype=complex)
    diff_state[..., -1] += eye_n / (2.0 * dt)
    diff_state[..., 1 % n_nodes] -= eye_n / (2.0 * dt)
    diff_state[..., 0] -= spec.state_matrix
    folded = periodize_kernel(spec.kernel, n_nodes)
    convolution = dt * folded * eye_n[:, :, None]
    stencils = (diff_state, _delay_stencil(spec.neutral_delay, n_nodes, dt),
                _delay_stencil(spec.reaction_delay, n_nodes, dt), convolution)
    diff_hat, neutral_hat, reaction_hat, memory_hat = (
        np.fft.fft(stencil) for stencil in stencils)
    system = (_stack_product(diff_hat, eye_n[:, :, None] - neutral_hat)
              - reaction_hat - memory_hat)

    inverse, one_norm_condition = _inverse_and_condition(system)
    cond = math.inf
    if np.all(np.isfinite(one_norm_condition)):
        with np.errstate(over="ignore", invalid="ignore"):
            cond = float(np.max(_operator_norms(system)) * np.max(_operator_norms(inverse)))
    if not cond <= cond_limit:
        raise SingularSystemError(cond)
    f = spec.forcing
    rhs = np.fft.fft(_synthesis(f.coefficients, mode_range(f.bandwidth), n_nodes), axis=0)
    samples = np.fft.ifft(np.einsum("ijk,kj->ki", inverse, rhs), axis=0)
    return samples.real if spec.is_real else samples


@dataclass
class OracleComparison:
    """Spectral-vs-collocation gaps over a list of grid sizes."""

    rows: List[Tuple[int, float]]
    fitted_order: Optional[float]

    def to_dict(self) -> dict:
        return {
            "rows": [{"n": n, "gap": g} for n, g in self.rows],
            "fitted_order": self.fitted_order,
        }


def compare(spec: ProblemSpec, grid_sizes: Sequence[int],
            cond_limit: float = COND_LIMIT) -> OracleComparison:
    """Max-norm gap between the two solution routes, with the fitted order,
    over a nonempty list of integer grid sizes.

    The spectral reference is solved once and evaluated at the nodes of each
    collocation grid, whatever its size (``symbols._synthesis``).  The fitted
    order is the least-squares slope (``resolvent._slope``) of log gap
    against log N, negated; it is reported as None when some gap sits at
    round-off level, where the fit would measure noise.  ``cond_limit``
    bounds both the spectral solve and every collocation system.
    """
    from .solver import solve_periodic  # deferred so assembly stays solver-free

    grid_sizes = [operator.index(n) for n in grid_sizes]
    if not grid_sizes:
        raise ValueError("grid size list must be nonempty")
    reference = solve_periodic(spec, cond_limit=cond_limit).solution
    rows: List[Tuple[int, float]] = []
    for n_nodes in grid_sizes:
        approx = collocation_solve(spec, n_nodes, cond_limit)
        ref = _synthesis(reference.coefficients, mode_range(reference.bandwidth), n_nodes)
        rows.append((n_nodes, _max_row_norm(ref - approx)))

    scale = max(reference.max_norm(), 1.0)
    gaps = np.array([g for _, g in rows])
    order: Optional[float] = None
    if len(rows) >= 2 and np.all(gaps > 1e-13 * scale):
        sizes = np.array([float(n) for n, _ in rows])
        order = -_slope(np.log(sizes), np.log(gaps))
    return OracleComparison(rows=rows, fitted_order=order)
