"""Collocation oracle: the stencil solve against a dense block-circulant
reference, second-order gaps, singular systems, memory at large N, the nodal
evaluation of the spectral solution, and the closed-form fold of the memory
kernel against direct periodic sums."""

import math
import tracemalloc

import numpy as np
import pytest

import problems
from problems import kernel_values
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
from specdde.oracle import _delay_stencil
from specdde.symbols import _synthesis

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
    folded = periodize_kernel(spec.kernel, n_nodes)
    memory = dt * folded[:, None, None] * eye_n
    neutral = _delay_stencil(spec.neutral_delay, n_nodes, dt)
    reaction = _delay_stencil(spec.reaction_delay, n_nodes, dt)
    system = ((_dense(difference) - _dense(state)) @ (np.eye(n_nodes * n) - _dense(neutral))
              - _dense(reaction) - _dense(memory))
    rhs = PeriodicGridFunction(spec.forcing.coefficients, n_nodes).samples.reshape(-1)
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
        samples = collocation_solve(spec, n_nodes)
        assert np.max(np.abs(samples - reference)) <= 1e-12 * np.max(np.abs(reference)), name


def test_singular_system_is_rejected_by_its_condition_number():
    # at N = 4 * odd the centred difference and the lag's phase cancel at the
    # Nyquist frequency; the spectral M(k) = ik + 1 + e^{-ik pi/2} is regular
    spec = scalar_with_reaction_atom(-1.0, np.pi / 2)
    for n_nodes in (12, 20, 36):
        with pytest.raises(SingularSystemError):
            collocation_solve(spec, n_nodes)
    for n_nodes in (16, 32):
        assert np.max(np.abs(collocation_solve(spec, n_nodes))) < 1.01
    with pytest.raises(SingularSystemError):
        collocation_solve(spec, 16, cond_limit=1.0)


def _collocation_system(monkeypatch, spec, n_nodes):
    """The (N, n, n) stack of frequency systems that collocation_solve
    inverts, recorded from its call of np.linalg.inv."""
    systems = []
    inv = np.linalg.inv

    def recorded(a):
        systems.append(a.copy())
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", recorded)
    collocation_solve(spec, n_nodes)
    monkeypatch.undo()
    [system] = systems
    return system


def test_condition_is_the_singular_value_ratio(monkeypatch, regression_specs):
    # max sigma_max / min sigma_min of the frequency systems, from an SVD,
    # decides the rejection up to a relative 1e-9
    checked = 0
    for name, spec in regression_specs.items():
        singular_values = np.linalg.svd(_collocation_system(monkeypatch, spec, 128),
                                        compute_uv=False)
        cond = np.max(singular_values[:, 0]) / np.min(singular_values[:, -1])
        if not cond < 1e6:
            continue
        checked += 1
        with pytest.raises(SingularSystemError):
            collocation_solve(spec, 128, cond_limit=cond * (1.0 - 1e-9))
        collocation_solve(spec, 128, cond_limit=cond * (1.0 + 1e-9))
    assert checked >= 5


def test_collocation_takes_no_svd(monkeypatch, regression_specs):
    def no_svd(*args, **kwargs):
        raise AssertionError("collocation_solve called an SVD")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    for name, spec in regression_specs.items():
        assert spec.dim <= 2, name
        assert np.all(np.isfinite(collocation_solve(spec, 128))), name


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


def test_comparison_report_holds_the_rows_and_the_fitted_order():
    # the fold is exact, so the report carries no fold error
    report = compare(problems.mat2_rich(), [32, 64]).to_dict()
    assert list(report) == ["rows", "fitted_order"]
    assert [row["n"] for row in report["rows"]] == [32, 64]


def test_fitted_order_is_two_on_the_smooth_suite(smooth_suite):
    for name, spec in smooth_suite.items():
        comparison = compare(spec, [32, 64, 128])
        assert comparison.fitted_order == pytest.approx(2.0, abs=0.05), name
        gaps = [gap for _, gap in comparison.rows]
        assert gaps == sorted(gaps, reverse=True), name


def test_sampled_kernel_collocation_is_second_order():
    # the collocation weights read the kernel through the numpy spline; the
    # 65 samples of mat2_sampled are within ~1e-8 of mat2_rich's 4,097
    spec = problems.mat2_sampled()
    for n_nodes in (32, 128):
        sampled = collocation_solve(spec, n_nodes)
        exact = collocation_solve(problems.mat2_rich(), n_nodes)
        assert np.max(np.abs(sampled - exact)) < 1e-7
    assert compare(spec, [32, 64, 128]).fitted_order == pytest.approx(2.0, abs=0.05)


def _coefficients(gen, bandwidth, real):
    """Random coefficients of a 2-component function on -K..K; exactly
    Hermitian, c(-k) == conj c(k), when ``real``."""
    shape = (2 * bandwidth + 1, 2)
    coeffs = gen.normal(size=shape) + 1j * gen.normal(size=shape)
    if real:
        coeffs[bandwidth] = coeffs[bandwidth].real
        coeffs[:bandwidth] = np.conj(coeffs[:bandwidth:-1])
    return coeffs


@pytest.mark.parametrize("real", [False, True], ids=["complex", "hermitian"])
@pytest.mark.parametrize("n_nodes", [5, 8, 16, 41, 64])
def test_folded_nodal_values_are_the_trigonometric_sum(n_nodes, real):
    # below 2K + 1 = 41 the modes fold mod N; Hermitian coefficients take the
    # (folded) irfft and give real values
    K = 20
    coeffs = _coefficients(np.random.default_rng(n_nodes), K, real)
    nodes = TWO_PI * np.arange(n_nodes) / n_nodes
    direct = np.exp(1j * np.outer(nodes, mode_range(K))) @ coeffs
    values = _synthesis(coeffs, mode_range(K), n_nodes)
    assert np.isrealobj(values) == real
    assert np.allclose(values, direct, rtol=0.0, atol=1e-12)
    if real:
        # the k >= 0 rows alone, as the solver holds a real function
        assert np.array_equal(_synthesis(coeffs[K:], np.arange(K + 1), n_nodes), values)


@pytest.mark.parametrize("real", [False, True], ids=["complex", "hermitian"])
@pytest.mark.parametrize("n_nodes", [41, 64, 256])
def test_nodal_values_are_the_resampled_grid_when_nothing_folds(n_nodes, real):
    # at N >= 2K + 1 the values are bit for bit the transform of the
    # coefficients laid on the N-point grid, which irfft zero-pads by itself
    coeffs = _coefficients(np.random.default_rng(2), 20, real)[:, :1]
    spectrum = np.zeros((n_nodes, 1), dtype=complex)
    spectrum[np.mod(mode_range(20), n_nodes)] = coeffs
    values = _synthesis(coeffs, mode_range(20), n_nodes)
    if real:
        expected = np.fft.irfft(spectrum[:n_nodes // 2 + 1], n_nodes, axis=0, norm="forward")
    else:
        expected = np.fft.ifft(spectrum, axis=0, norm="forward")
        if n_nodes & (n_nodes - 1) == 0:
            # scaling by a power of two is exact, so a complex function's
            # samples are those of the transform of N times its coefficients
            assert np.array_equal(values, np.fft.ifft(spectrum * n_nodes, axis=0))
    assert np.array_equal(values, expected)


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


def test_distributed_span_of_many_periods_folds_in_one_period_of_memory():
    # 2,000 periods of 64 steps: the trapezoid sum folded mod N with every
    # weight and kernel value held at once, against the stencil, which holds
    # one period of them at a time
    n_nodes, periods = 64, 2000
    dt = TWO_PI / n_nodes
    samples = np.random.default_rng(5).normal(size=(6, 2, 2))
    functional = DelayFunctional(
        dim=2, distributed=DistributedDelay(samples, span=periods * TWO_PI))
    steps = np.arange(periods * n_nodes + 1)
    weights = np.full(steps.size, dt)
    weights[[0, -1]] *= 0.5
    direct = np.zeros((n_nodes, 2, 2), dtype=complex)
    np.add.at(direct, steps % n_nodes,
              weights[:, None, None] * functional.distributed.evaluate(-dt * steps))
    _delay_stencil(functional, n_nodes, dt)
    tracemalloc.start()
    try:
        stencil = _delay_stencil(functional, n_nodes, dt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(stencil, direct)
    # all 128,001 complex 2 x 2 values would take 8 MB
    assert peak < 2**17


def _direct_fold(kernel, n_nodes, periods):
    """sum_{j < periods} a(tau + 2pi j) at the nodes, summed pairwise."""
    tau = TWO_PI * np.arange(n_nodes) / n_nodes
    return np.sum(kernel_values(kernel, tau[:, None] + TWO_PI * np.arange(periods)), axis=1)


@pytest.mark.parametrize("kernel", [
    KernelSpec(terms=[(0.8, 0, 1.3)]),
    KernelSpec(terms=[(0.2, 0, 2.0), (0.1, 1, 1.0)]),
    KernelSpec(terms=[(0.5, 2, 0.7), (0.3 - 0.1j, 0, 3.0)]),
    KernelSpec(terms=[(1.0, 5, 0.3)]),
    KernelSpec(terms=[(1e-3, 12, 0.05)]),
    KernelSpec(terms=[(0.1, 0, 1e-3)]),
])
def test_fold_is_the_direct_periodic_sum(kernel):
    n_nodes = 256
    # far enough that every dropped term is below e^{-60} of the kernel's peak
    periods = max(math.ceil(60 * (m + 1) / (TWO_PI * alpha)) for _, m, alpha in kernel.terms)
    direct = _direct_fold(kernel, n_nodes, periods)
    # the convolution takes the mean of the one-sided limits at the jump tau = 0
    direct[0] -= 0.5 * kernel_values(kernel, 0.0)
    folded = periodize_kernel(kernel, n_nodes)
    assert folded.dtype == direct.dtype
    assert np.max(np.abs(folded - direct)) <= 32 * np.finfo(float).eps * np.max(np.abs(direct))


@pytest.mark.parametrize("c, m, alpha", [(1e-200, 100, 0.01), (1e-258, 100, 0.1)])
def test_fold_is_finite_where_the_power_sums_are_not(c, m, alpha):
    # (2pi)^100 and the power sums of r = e^{-2pi alpha} leave the float range,
    # the fold (up to ~1.5e159 here) does not; the direct sum runs in logs,
    # five times past the kernel's peak at t = m / alpha
    n_nodes = 16
    tau = TWO_PI * np.arange(n_nodes) / n_nodes
    t = tau[:, None] + TWO_PI * np.arange(math.ceil(5 * m / (TWO_PI * alpha)))
    with np.errstate(divide="ignore"):
        direct = np.sum(np.exp(math.log(c) + m * np.log(t) - alpha * t), axis=1)
    folded = periodize_kernel(KernelSpec(terms=[(c, m, alpha)]), n_nodes)
    assert np.all(np.isfinite(folded))
    assert np.max(np.abs(folded - direct)) <= 1e-12 * np.max(direct)
