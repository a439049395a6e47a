"""Collocation oracle: second-order gaps, the nodal evaluation of the spectral
solution, and the folded memory kernel."""

import numpy as np
import pytest

import problems
from specdde import (
    DelayFunctional,
    KernelSpec,
    OffGridLagError,
    PeriodicGridFunction,
    ProblemSpec,
    collocation_solve,
    compare,
    laplace_symbol,
    mode_range,
    periodize_kernel,
)
from specdde.oracle import _nodal_values

TWO_PI = 2.0 * np.pi


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
    spec = ProblemSpec(
        state_matrix=[[-1.0]],
        reaction_delay=DelayFunctional(dim=1, atoms=[(0.1, 1.0)]),
        forcing=PeriodicGridFunction.from_harmonics(cos=[1.0]),
        truncation=4,
        grid=16,
    )
    with pytest.raises(OffGridLagError):
        collocation_solve(spec, 32)
    assert collocation_solve(spec, 32, interpolate=True).n_samples == 32


@pytest.mark.parametrize("kernel", [
    KernelSpec.exponential(weight=0.8, rate=1.3),
    KernelSpec(terms=[(0.2, 0, 2.0), (0.1, 1, 1.0)]),
    KernelSpec(terms=[(0.5, 2, 0.7), (0.3 - 0.1j, 0, 3.0)]),
])
def test_folded_kernel_fourier_integral_is_the_transform(kernel):
    ks = mode_range(20)
    folded = periodize_kernel(kernel, 256)
    assert folded.folds >= 1 and folded.tail_bound < 1e-12 * kernel.l1_norm()
    assert np.max(np.abs(folded.fourier_integral(ks) - laplace_symbol(kernel, ks))) <= 1e-10
