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
    AliasingError,
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
from specdde import oracle
from specdde.oracle import _delay_stencil
from specdde.symbols import _synthesis

TWO_PI = 2.0 * np.pi


def _dense(stencil):
    """The block-circulant matrix sum_s kron(P^s, c_s), P the cyclic shift
    (P x)_j = x_{j-1}, acting on samples stacked node by node, for blocks
    c_s stacked as (n, n, N)."""
    n_nodes = stencil.shape[-1]
    shift = np.roll(np.eye(n_nodes), 1, axis=0)
    power = np.eye(n_nodes)
    dense = np.zeros((n_nodes * len(stencil),) * 2, dtype=complex)
    for block in np.moveaxis(stencil, -1, 0):
        dense += np.kron(power, block)
        power = shift @ power
    return dense


def dense_collocation(spec, n_nodes):
    """The scheme assembled and solved as one dense (N n)^2 system."""
    n, dt = spec.dim, TWO_PI / n_nodes
    eye_n = np.eye(n)
    difference = np.zeros((n, n, n_nodes))
    difference[..., -1] += eye_n / (2.0 * dt)
    difference[..., 1] -= eye_n / (2.0 * dt)
    state = np.zeros((n, n, n_nodes), dtype=complex)
    state[..., 0] = spec.state_matrix
    folded = periodize_kernel(spec.kernel, n_nodes)
    memory = dt * folded * eye_n[:, :, None]
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
    """The (n, n, N) stack of frequency systems that collocation_solve
    inverts, recorded from its call of ``_inverse_and_condition``."""
    systems = []
    invert = oracle._inverse_and_condition

    def recorded(a):
        systems.append(a.copy())
        return invert(a)

    monkeypatch.setattr(oracle, "_inverse_and_condition", recorded)
    collocation_solve(spec, n_nodes)
    monkeypatch.undo()
    [system] = systems
    return system


def test_condition_is_the_singular_value_ratio(monkeypatch, regression_specs):
    # max sigma_max / min sigma_min of the frequency systems, from an SVD,
    # decides the rejection up to a relative 1e-9
    checked = 0
    for name, spec in regression_specs.items():
        systems = np.moveaxis(_collocation_system(monkeypatch, spec, 128), -1, 0)
        singular_values = np.linalg.svd(systems, compute_uv=False)
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
    assert comparison["fitted_order"] == pytest.approx(2.0, abs=0.05)


def test_comparison_report_holds_the_rows_and_the_fitted_order():
    # the fold is exact, so the report carries no fold error
    report = compare(problems.mat2_rich(), [32, 64])
    assert list(report) == ["rows", "fitted_order"]
    assert [row["n"] for row in report["rows"]] == [32, 64]


def test_fitted_order_is_two_on_the_smooth_suite(smooth_suite):
    for name, spec in smooth_suite.items():
        comparison = compare(spec, [32, 64, 128])
        assert comparison["fitted_order"] == pytest.approx(2.0, abs=0.05), name
        gaps = [row["gap"] for row in comparison["rows"]]
        assert gaps == sorted(gaps, reverse=True), name


def test_sampled_kernel_collocation_is_second_order():
    # the collocation weights read the kernel through the numpy spline; the
    # 65 samples of mat2_sampled are within ~1e-8 of mat2_rich's 4,097
    spec = problems.mat2_sampled()
    for n_nodes in (32, 128):
        sampled = collocation_solve(spec, n_nodes)
        exact = collocation_solve(problems.mat2_rich(), n_nodes)
        assert np.max(np.abs(sampled - exact)) < 1e-7
    assert compare(spec, [32, 64, 128])["fitted_order"] == pytest.approx(2.0, abs=0.05)


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


def test_empty_grid_is_an_aliasing_error():
    # the grid is checked before its spacing 2 pi / N is taken, so N = 0 is
    # an AliasingError, not a ZeroDivisionError, also for a zero forcing
    for spec in (problems.scalar_basic(), ProblemSpec(state_matrix=[[-1.0]])):
        with pytest.raises(AliasingError):
            collocation_solve(spec, 0)


def test_fractional_grid_is_a_type_error():
    # 2.5 < 2K + 1 used to be an AliasingError, 64.5 a failure inside numpy
    for n_nodes in (2.5, 64.5):
        with pytest.raises(TypeError, match="as an integer"):
            collocation_solve(problems.scalar_basic(), n_nodes)


def test_compare_takes_a_nonempty_list_of_integer_grids():
    spec = problems.scalar_basic()
    # fractional sizes used to be floored to N = 64 and 128 without a word
    with pytest.raises(TypeError, match="as an integer"):
        compare(spec, [64.7, 128.2])
    # an empty list used to give no rows
    with pytest.raises(ValueError, match="nonempty"):
        compare(spec, [])
    # a repeated size used to give a NaN order and a 0/0 warning
    with pytest.raises(ValueError, match="repeated"):
        compare(spec, [16, 16])
    rows = compare(spec, [np.int64(32), 64])["rows"]
    assert [row["n"] for row in rows] == [32, 64] and all(type(row["n"]) is int for row in rows)


def test_off_grid_lag_is_rejected():
    # an off-grid atom is interpolated and stays second order; a distributed
    # span of 5e8 grid steps or more is rejected
    for lag in (0.3, 1.0, 2.5):
        comparison = compare(scalar_with_reaction_atom(0.1, lag), [32, 64, 128, 256, 512])
        assert comparison["fitted_order"] == pytest.approx(2.0, abs=0.05), lag
    spec = ProblemSpec(
        state_matrix=[[-1.0]],
        reaction_delay=DelayFunctional(
            dim=1, distributed=DistributedDelay(np.full((9, 1, 1), 0.1), span=1e8)),
        forcing=PeriodicGridFunction.from_harmonics(cos=[1.0]),
        truncation=4,
        grid=16,
    )
    with pytest.raises(OffGridLagError, match="too many"):
        collocation_solve(spec, 32)     # 5.1e8 steps


def test_atom_lag_of_too_many_grid_steps_is_rejected():
    # the span's guard covers atoms: 5e8 steps or more, of either delay,
    # raise OffGridLagError (dt = 2 pi / 32: 5.1e9 and 1.0e9 steps); 1.6e8
    # steps are still taken
    for lag in (1e9 + 1, 2e8 + 0.5):
        with pytest.raises(OffGridLagError, match="atom lag .* too many"):
            collocation_solve(scalar_with_reaction_atom(0.5, lag), 32)
    spec = ProblemSpec(
        state_matrix=[[-1.0]],
        neutral_delay=DelayFunctional(dim=1, atoms=[(0.5, 1e9 + 1)]),
        forcing=PeriodicGridFunction.from_harmonics(cos=[1.0]),
        truncation=4,
    )
    with pytest.raises(OffGridLagError, match="atom lag"):
        collocation_solve(spec, 32)
    assert np.all(np.isfinite(collocation_solve(scalar_with_reaction_atom(0.5, 1e7 + 1), 32)))


def _span_spec(span, kernel):
    """A scalar problem whose reaction delay is the kernel sampled at 17
    points of [-span, 0]."""
    theta = np.linspace(-span, 0.0, 17)
    return ProblemSpec(
        state_matrix=[[-1.0]],
        reaction_delay=DelayFunctional(
            dim=1, distributed=DistributedDelay(kernel(theta), span=span)),
        forcing=PeriodicGridFunction.from_harmonics(cos=[1.0], sin=[0.0, 0.5]),
        truncation=8,
    )


@pytest.mark.parametrize("kernel", [lambda t: 0.05 * np.exp(t),
                                    lambda t: 0.4 * np.exp(0.3 * t)],
                         ids=["steep", "mild"])
@pytest.mark.parametrize("span", [1.0, 5.0, 7.3, TWO_PI * 63 / 65])
def test_off_grid_span_is_second_order(span, kernel):
    # the last panel is partial at every N; without it the mild kernel's
    # fitted orders fall to 0.7-1.4
    comparison = compare(_span_spec(span, kernel), [64, 128, 256, 512])
    assert comparison["fitted_order"] == pytest.approx(2.0, abs=0.01)


def test_span_shorter_than_a_step_is_one_partial_panel():
    # no whole panel, so node 0 takes only the partial panel's K(0)
    n_nodes, dt = 64, TWO_PI / 64
    span = 0.3 * dt
    dist = DistributedDelay(np.random.default_rng(2).normal(size=(6, 2, 2)), span=span)
    stencil = _delay_stencil(DelayFunctional(dim=2, distributed=dist), n_nodes, dt)
    near, far = span / 2 * dist.evaluate(np.array([0.0, -span]))
    expected = np.zeros((2, 2, n_nodes), dtype=complex)
    expected[..., 0] += near
    for node, weight in zip((2, 1, 0, -1), oracle._lagrange4(span / dt)):
        expected[..., node] += weight * far
    np.testing.assert_array_equal(stencil, expected)


def _whole_steps_stencil(functional, n_nodes, dt):
    """The stencil from before the partial panel, the reference for on-grid
    data: a span of a whole number of steps only, with a snap test of its own."""
    n = functional.dim
    stencil = np.zeros((n, n, n_nodes), dtype=complex)
    for coef, lag in functional.atoms:
        shift_exact = lag / dt
        shift = int(round(shift_exact))
        if abs(shift_exact - shift) <= 1e-9 * max(1.0, shift_exact):
            stencil[..., shift % n_nodes] += coef
        else:
            base = int(np.floor(shift_exact))
            for offset, weight in zip((-2, -1, 0, 1), oracle._lagrange4(shift_exact - base)):
                stencil[..., (base - offset) % n_nodes] += weight * coef
    dist = functional.distributed
    if dist is not None:
        steps = int(round(dist.span / dt))
        assert abs(dist.span / dt - steps) <= 1e-9 * max(1.0, dist.span / dt)
        for start in range(0, steps + 1, n_nodes):
            chunk = np.arange(start, min(start + n_nodes, steps + 1))
            weights = np.where((chunk == 0) | (chunk == steps), 0.5 * dt, dt)
            values = np.moveaxis(dist.evaluate(-dt * chunk), 0, -1)
            stencil[..., :len(chunk)] += weights * values
    return stencil


@pytest.mark.parametrize("n_nodes", [64, 128, 256, 512])
@pytest.mark.parametrize("span", [TWO_PI, np.pi, 6 * np.pi, TWO_PI * 3 / 64])
def test_on_grid_stencil_keeps_its_bits(n_nodes, span):
    rng = np.random.default_rng(n_nodes)
    functional = DelayFunctional(
        dim=2, atoms=[(rng.normal(size=(2, 2)), lag) for lag in (TWO_PI, np.pi / 2, 1.0)],
        distributed=DistributedDelay(rng.normal(size=(9, 2, 2)), span=span))
    dt = TWO_PI / n_nodes
    stencil = _delay_stencil(functional, n_nodes, dt)
    reference = _whole_steps_stencil(functional, n_nodes, dt)
    assert stencil.view(np.uint64).tobytes() == reference.view(np.uint64).tobytes()


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
    assert np.array_equal(stencil, np.moveaxis(direct, 0, -1))
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


def test_fold_needs_a_sample():
    with pytest.raises(ValueError, match="need at least one sample"):
        periodize_kernel(KernelSpec(terms=[(0.2, 0, 2.0)]), 0)


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
