"""Collocation oracle: the stencil solve against a dense block-circulant
reference, second-order gaps, singular systems, memory at large N, the nodal
evaluation of the spectral solution, and the folded memory kernel."""

import tracemalloc

import numpy as np
import pytest

import problems
from specdde import (
    DelayFunctional,
    DistributedDelay,
    KernelSpec,
    OffGridLagError,
    PeriodicGridFunction,
    ProblemSpec,
    SingularSystemError,
    collocation_solve,
    compare,
    mode_range,
    periodize_kernel,
)
from specdde.oracle import _delay_stencil, _nodal_values

TWO_PI = 2.0 * np.pi


def _dense(stencil):
    """The block-circulant matrix sum_s kron(P^s, c_s), P the cyclic shift
    (P x)_j = x_{j-1}, acting on samples stacked node by node."""
    n_nodes = stencil.shape[0]
    shift = np.roll(np.eye(n_nodes), 1, axis=0)
    power = np.eye(n_nodes)
    dense = np.zeros((n_nodes * stencil.shape[1],) * 2, dtype=complex)
    for block in stencil:
        dense += np.kron(power, block)
        power = shift @ power
    return dense


def dense_collocation(spec, n_nodes):
    """The scheme assembled and solved as one dense (N n)^2 system."""
    n, dt = spec.dim, TWO_PI / n_nodes
    eye_n = np.eye(n)
    difference = np.zeros((n_nodes, n, n))
    difference[-1] += eye_n / (2.0 * dt)
    difference[1] -= eye_n / (2.0 * dt)
    state = np.zeros((n_nodes, n, n), dtype=complex)
    state[0] = spec.state_matrix
    folded = periodize_kernel(spec.kernel, n_nodes).convolution_samples()
    memory = dt * folded[:, None, None] * eye_n
    neutral = _delay_stencil(spec.neutral_delay, n_nodes, dt)
    reaction = _delay_stencil(spec.reaction_delay, n_nodes, dt)
    system = ((_dense(difference) - _dense(state)) @ (np.eye(n_nodes * n) - _dense(neutral))
              - _dense(reaction) - _dense(memory))
    rhs = spec.forcing.resample(n_nodes).samples.reshape(-1)
    return np.linalg.solve(system, rhs).reshape(n_nodes, n)


def scalar_with_reaction_atom(coef, lag):
    return ProblemSpec(
        state_matrix=[[-1.0]],
        reaction_delay=DelayFunctional(dim=1, atoms=[(coef, lag)]),
        forcing=PeriodicGridFunction.from_harmonics(cos=[1.0]),
        truncation=4,
        grid=16,
    )


@pytest.mark.parametrize("n_nodes", [16, 32, 64])
def test_stencil_solve_matches_the_dense_system(regression_specs, n_nodes):
    specs = dict(regression_specs, off_grid=scalar_with_reaction_atom(0.3, 1.0))
    for name, spec in specs.items():
        reference = dense_collocation(spec, n_nodes)
        samples = collocation_solve(spec, n_nodes).samples
        assert np.max(np.abs(samples - reference)) <= 1e-12 * np.max(np.abs(reference)), name


def test_singular_system_is_rejected_by_its_condition_number():
    # at N = 4 * odd the centred difference and the lag's phase cancel at the
    # Nyquist frequency; the spectral M(k) = ik + 1 + e^{-ik pi/2} is regular
    spec = scalar_with_reaction_atom(-1.0, np.pi / 2)
    for n_nodes in (12, 20, 36):
        with pytest.raises(SingularSystemError):
            collocation_solve(spec, n_nodes)
    for n_nodes in (16, 32):
        samples = collocation_solve(spec, n_nodes).samples
        assert np.max(np.abs(samples)) < 1.01
    with pytest.raises(SingularSystemError):
        collocation_solve(spec, 16, cond_limit=1.0)


def test_memory_stays_linear_in_the_grid():
    spec = problems.mat2_rich()
    collocation_solve(spec, 1024)
    tracemalloc.start()
    try:
        collocation_solve(spec, 1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_fitted_order_is_two_on_large_grids():
    comparison = compare(problems.mat2_rich(), [1024, 4096, 16384])
    assert comparison.fitted_order == pytest.approx(2.0, abs=0.05)


def test_comparison_reports_the_fold_plan_of_every_grid():
    spec = problems.mat2_rich()
    report = compare(spec, [32, 64]).to_dict()
    assert list(report) == ["rows", "fitted_order", "memory_kernel"]
    for n_nodes in (32, 64):
        folded = periodize_kernel(spec.kernel, n_nodes)
        assert report["memory_kernel"] == {"folds": folded.folds,
                                           "tail_bound": folded.tail_bound}
    assert folded.folds >= 1 and 0.0 < folded.tail_bound < 1e-12 * spec.kernel.l1_norm()
    no_kernel = compare(scalar_with_reaction_atom(0.3, 1.0), [32, 64]).to_dict()
    assert no_kernel["memory_kernel"] == {"folds": 0, "tail_bound": 0.0}


def test_fitted_order_is_two_on_the_smooth_suite(smooth_suite):
    for name, spec in smooth_suite.items():
        comparison = compare(spec, [32, 64, 128])
        assert comparison.fitted_order == pytest.approx(2.0, abs=0.05), name
        gaps = [gap for _, gap in comparison.rows]
        assert gaps == sorted(gaps, reverse=True), name


def test_sampled_kernel_collocation_is_second_order():
    # the collocation weights read the kernel through the numpy spline, which
    # is within ~1e-8 of the callable kernel it samples
    spec = problems.mat2_sampled()
    for n_nodes in (32, 128):
        sampled = collocation_solve(spec, n_nodes).samples
        exact = collocation_solve(problems.mat2_rich(), n_nodes).samples
        assert np.max(np.abs(sampled - exact)) < 1e-7
    assert compare(spec, [32, 64, 128]).fitted_order == pytest.approx(2.0, abs=0.05)


@pytest.mark.parametrize("n_nodes", [5, 8, 16, 41, 64])
def test_folded_nodal_values_are_the_trigonometric_sum(n_nodes):
    K = 20
    gen = np.random.default_rng(n_nodes)
    coeffs = gen.normal(size=(2 * K + 1, 2)) + 1j * gen.normal(size=(2 * K + 1, 2))
    grid = PeriodicGridFunction.from_coefficients(coeffs, 2 * K + 1)
    nodes = TWO_PI * np.arange(n_nodes) / n_nodes
    direct = np.exp(1j * np.outer(nodes, mode_range(K))) @ coeffs
    assert np.allclose(_nodal_values(grid, n_nodes), direct, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("n_nodes", [41, 64, 256])
def test_nodal_values_are_the_resampled_grid_when_nothing_folds(n_nodes):
    gen = np.random.default_rng(2)
    coeffs = gen.normal(size=(41, 1)) + 1j * gen.normal(size=(41, 1))
    grid = PeriodicGridFunction.from_coefficients(coeffs, 64)
    assert np.array_equal(_nodal_values(grid, n_nodes), grid.resample(n_nodes).samples)


def test_off_grid_lag_is_rejected():
    # an off-grid atom is interpolated and stays second order; a distributed
    # span off the grid is rejected
    for lag in (0.3, 1.0, 2.5):
        comparison = compare(scalar_with_reaction_atom(0.1, lag), [32, 64, 128, 256, 512])
        assert comparison.fitted_order == pytest.approx(2.0, abs=0.05), lag
    spec = ProblemSpec(
        state_matrix=[[-1.0]],
        reaction_delay=DelayFunctional(
            dim=1, distributed=DistributedDelay(np.full((9, 1, 1), 0.1), span=1.0)),
        forcing=PeriodicGridFunction.from_harmonics(cos=[1.0]),
        truncation=4,
        grid=16,
    )
    with pytest.raises(OffGridLagError):
        collocation_solve(spec, 32)


@pytest.mark.parametrize("kernel", [
    KernelSpec.exponential(weight=0.8, rate=1.3),
    KernelSpec(terms=[(0.2, 0, 2.0), (0.1, 1, 1.0)]),
    KernelSpec(terms=[(0.5, 2, 0.7), (0.3 - 0.1j, 0, 3.0)]),
])
def test_fold_is_the_direct_periodic_sum_within_its_tail_bound(kernel):
    n_nodes = 256
    folded = periodize_kernel(kernel, n_nodes)
    assert folded.folds >= 1 and folded.tail_bound < 1e-12 * kernel.l1_norm()
    tau = TWO_PI * np.arange(n_nodes) / n_nodes
    # a sum far past the fold count, where every further term underflows
    direct = sum(kernel.eval(tau + TWO_PI * m) for m in range(folded.folds + 200))
    # the bound is sharp at tau = 0, so it gets the summation's round-off on top
    roundoff = 4 * np.finfo(float).eps * np.max(np.abs(direct))
    assert np.max(np.abs(folded.samples - direct)) <= folded.tail_bound + roundoff
    # the convolution takes the mean of the one-sided limits at the jump tau = 0
    jump = sum(c for c, m, _ in kernel.terms if m == 0)
    convolution = folded.convolution_samples()
    assert convolution[0] == pytest.approx(folded.samples[0] - 0.5 * jump, abs=1e-15)
    assert np.array_equal(convolution[1:], folded.samples[1:])
