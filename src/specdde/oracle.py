"""Independent time-domain verification by collocation on a uniform grid.

The derivative of the neutral part is discretized with centered second-order
differences.  One rule takes every delayed value x(t - r), wrapped around
the period: the grid node when r/dt is within 1e-9 of a whole number, else
the cubic Lagrange weights of its four neighbouring nodes.  A distributed
kernel is the trapezoid on its whole steps plus one partial panel that ends
at x(t - span), so every span the solver accepts is checked, up to 5e8
steps: an atom lag or a span of that many steps or more is refused
(``OffGridLagError``).  Off the grid, compare() reports the plain gap and
its fitted order, in the fields every span has.  The infinite-memory
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
frequency: O(N n^3 + n^2 N log N) work and O(N n^2) memory, on (n, n, N)
stacks as in ``symbols``.  Nothing here touches the solver or the mode
symbols: ``resolvent`` lends the condition limit, the inversion and the
norms, ``symbols`` the stack product, ``_synthesis`` (the nodal values of
the forcing and of the spectral reference) and the power-of-two scaling
the forcing is solved under (the scheme is linear, so the samples are
scaled back exactly), and compare() imports the solver lazily.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .exceptions import AliasingError, OffGridLagError, SingularSystemError
from .symbols import (TWO_PI, DelayFunctional, KernelSpec, ProblemSpec, _max_row_norm,
                      _power_of_two_scaled, _stack_product, _synthesis, mode_range)
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


def _steps(lag: float, dt: float, what: str) -> Tuple[int, float]:
    """lag/dt as whole steps and a fraction of a step: the nearest whole
    number and 0 when lag/dt is within 1e-9 of it, else the floor and the
    rest.  5e8 steps or more raise OffGridLagError, naming the lag as
    ``what``: from there on, 1e-9 lag/dt is half a step or more, so every
    lag would be taken at a node."""
    exact = lag / dt
    if exact >= 5e8:
        raise OffGridLagError(
            f"{what} {lag} is {exact} grid steps, too many: "
            "from 5e8 steps on, every lag is within 1e-9 of a whole number of them")
    if abs(exact - round(exact)) <= 1e-9 * max(1.0, exact):
        return round(exact), 0.0
    return math.floor(exact), exact - math.floor(exact)


def _delay_stencil(functional: DelayFunctional, n_nodes: int,
                   dt: float) -> np.ndarray:
    """Blocks c_s of the delay term (T x)_j = sum_s c_s x_{j-s}, shape (n, n, N).

    One rule takes every delayed value x(t - r) (``_steps``): the grid node
    when r/dt is within 1e-9 of a whole number, else the cubic Lagrange
    weights of its four neighbouring nodes.  An atom is one such value.  The
    distributed kernel is the trapezoid on its S whole steps, added one
    period of steps at a time in O(N n^2) memory, plus the trapezoid on the
    partial step delta = span - S dt, delta/2 (K(-S dt) x_{j-S} + K(-span)
    x(t - span)).  As delta/dt moves with N, such a span reports the plain
    gap and fitted order.  An atom lag or a span of 5e8 steps or more
    raises OffGridLagError.
    """
    n = functional.dim
    stencil = np.zeros((n, n, n_nodes), dtype=complex)

    def add(coef, steps: int, frac: float) -> None:
        pairs = zip((-2, -1, 0, 1), _lagrange4(frac)) if frac else [(0, 1.0)]
        for offset, weight in pairs:
            stencil[..., (steps - offset) % n_nodes] += weight * coef

    for coef, lag in functional.atoms:
        add(coef, *_steps(lag, dt, "atom lag"))
    dist = functional.distributed
    if dist is not None:
        steps, frac = _steps(dist.span, dt, "distributed span")
        for start in range(0, steps + 1, n_nodes):
            chunk = np.arange(start, min(start + n_nodes, steps + 1))
            # floats, since bool + bool is or: at S = 0 no panel weighs node 0
            weights = 0.5 * dt * ((chunk > 0).astype(float) + (chunk < steps))
            # the kernel's values come point by point, (q, n, n)
            values = np.moveaxis(dist.evaluate(-dt * chunk), 0, -1)
            stencil[..., :len(chunk)] += weights * values
        if frac:
            near, far = (dist.span - steps * dt) / 2 * dist.evaluate([-steps * dt, -dist.span])
            add(near, steps, 0.0)
            add(far, steps, frac)
    return stencil


def collocation_solve(spec: ProblemSpec, n_nodes: int,
                      cond_limit: float = COND_LIMIT) -> np.ndarray:
    """Solve the periodic problem on a uniform grid, independently of the
    spectral route; second order in the grid spacing for smooth data.

    The centered difference of y_j = x_j - (L x)_j balances A y_j + (G x)_j
    + the trapezoidal periodic convolution + f_j.  At frequency m the system
    symbol is (D_m - A)(I - L_m) - G_m - C_m.  The N n x n systems are
    inverted once (``resolvent._inverse_and_condition``), and the inverses
    are applied to the FFT of the resampled forcing, its coefficients scaled
    by a power of two (``symbols._power_of_two_scaled``); the samples are
    scaled back, exactly, so a forcing near the float limit does not
    overflow on the way.  The block DFT is unitary, so the condition number
    is max ||S_m||_2 * max ||S_m^{-1}||_2, read off that inversion; an
    exactly singular S_m gives an infinite one.
    SingularSystemError is raised when it is not finite or exceeds
    ``cond_limit``, and ValueError when that is NaN or not positive.
    """
    n, n_nodes = spec.dim, operator.index(n_nodes)
    if not cond_limit > 0:
        raise ValueError(f"condition limit must be positive, got {cond_limit}")
    if n_nodes < 2 * spec.forcing.bandwidth + 1:
        raise AliasingError(f"collocation grid {n_nodes} cannot carry forcing "
                            f"bandwidth {spec.forcing.bandwidth}")
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
    # the scheme is linear: solve on 2^-e f, then scale the samples back
    scaled, exponent = _power_of_two_scaled(f.coefficients)
    rhs = np.fft.fft(_synthesis(scaled, mode_range(f.bandwidth), n_nodes), axis=0)
    samples = np.fft.ifft(np.einsum("ijk,kj->ki", inverse, rhs), axis=0)
    for part in (samples.real, samples.imag):
        np.ldexp(part, exponent, out=part)
    return samples.real if spec.is_real else samples


@dataclass
class OracleComparison:
    """Spectral-vs-collocation gaps over a list of grid sizes."""

    rows: List[Tuple[int, float]]
    fitted_order: Optional[float]

    def to_dict(self) -> dict:
        return {"rows": [{"n": n, "gap": g} for n, g in self.rows],
                "fitted_order": self.fitted_order}


def compare(spec: ProblemSpec, grid_sizes: Sequence[int],
            cond_limit: float = COND_LIMIT) -> OracleComparison:
    """Max-norm gap between the two solution routes, with the fitted order,
    over a nonempty list of distinct integer grid sizes.

    The spectral reference is solved once and evaluated at the nodes of each
    collocation grid, whatever its size (``symbols._synthesis``).  The fitted
    order is the least-squares slope (``resolvent._slope``) of log gap
    against log N, negated; it is reported as None when some gap sits at
    round-off level, where the fit would measure noise.  ``cond_limit``
    bounds both the spectral solve and every collocation system.
    """
    from .solver import solve_periodic  # deferred so assembly stays solver-free

    grid_sizes = [operator.index(n) for n in grid_sizes]
    if not grid_sizes or len(set(grid_sizes)) < len(grid_sizes):
        raise ValueError("grid size list must be nonempty, with no size repeated")
    reference = solve_periodic(spec, cond_limit=cond_limit).solution
    rows: List[Tuple[int, float]] = []
    for n_nodes in grid_sizes:
        approx = collocation_solve(spec, n_nodes, cond_limit)
        ref = _synthesis(reference.coefficients, mode_range(reference.bandwidth), n_nodes)
        rows.append((n_nodes, _max_row_norm(ref - approx)))
    sizes, gaps = np.array(rows, dtype=float).T
    order: Optional[float] = None
    if len(rows) >= 2 and np.all(gaps > 1e-13 * max(reference.max_norm(), 1.0)):
        order = -_slope(np.log(sizes), np.log(gaps))
    return OracleComparison(rows=rows, fitted_order=order)
