"""Spectral solve, residual, linearity/uniqueness properties, sweeps."""

import inspect

import numpy as np
import pytest

import problems
from specdde import (
    DelayFunctional,
    ModeSymbols,
    PeriodicGridFunction,
    ProblemSpec,
    SingularModeError,
    TruncationWarning,
    convergence_sweep,
    m_bounded_diagnostics,
    residual,
    solve_periodic,
)

TWO_PI = 2.0 * np.pi


class TestSolveBenchmarks:
    def test_cosine_forcing_closed_form(self):
        spec = problems.scalar_basic()
        sol = solve_periodic(spec)
        t = sol.solution.nodes
        exact = 0.5 * (np.cos(t) + np.sin(t))
        assert np.max(np.abs(sol.solution.samples[:, 0] - exact)) <= 1e-12
        assert sol.residual_grid <= 1e-10

    def test_cosine_solution_satisfies_equation_pointwise(self):
        # independent check of the closed form itself: u' = -u + cos t
        spec = problems.scalar_basic()
        u = solve_periodic(spec).solution
        du = u.derivative()
        t = u.nodes
        lhs = du.samples[:, 0]
        rhs = -u.samples[:, 0] + np.cos(t)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_neutral_benchmark_coefficient(self):
        spec = problems.scalar_neutral()
        sol = solve_periodic(spec)
        K = sol.truncation
        assert sol.coefficients[K + 1, 0] == pytest.approx(1.0 - 1.0j, abs=1e-12)
        others = np.delete(sol.coefficients[:, 0], K + 1)
        assert np.max(np.abs(others)) <= 1e-13

    def test_zero_forcing_gives_zero_solution(self, regression_specs):
        from dataclasses import replace

        for name, spec in regression_specs.items():
            silent = replace(spec, forcing=PeriodicGridFunction.zero(spec.dim))
            sol = solve_periodic(silent)
            assert sol.solution.max_norm() <= 1e-13, name

    def test_real_data_gives_real_solution(self, regression_specs):
        for name, spec in regression_specs.items():
            if not spec.is_real:
                continue
            sol = solve_periodic(spec)
            assert np.max(np.abs(sol.solution.samples.imag)) <= 1e-12, name

    def test_derived_series_reproduce_forcing(self, regression_specs):
        for name, spec in regression_specs.items():
            sol = solve_periodic(spec)
            got = (sol.neutral_derivative - sol.state_term
                   - sol.reaction_term - sol.memory_term)
            fhat = np.stack([spec.forcing.coefficient(int(k)) for k in sol.modes])
            assert np.max(np.abs(got - fhat)) <= 1e-12, name

    def test_singular_mode_aborts_solve(self):
        spec = ProblemSpec(
            state_matrix=[[0.0]],
            forcing=PeriodicGridFunction.from_harmonics(cos=[1.0]),
            truncation=2, grid=8,
        )
        with pytest.raises(SingularModeError) as err:
            solve_periodic(spec)
        assert 0 in err.value.modes

    def test_nearly_real_atom_is_not_symmetrised(self):
        # an imaginary part of 5e-9 is data, not round-off: the solve must not
        # treat the problem as real and force conjugate symmetry on it
        spec = ProblemSpec(
            state_matrix=[[-1.0]],
            reaction_delay=DelayFunctional(dim=1, atoms=[(0.3 + 5e-9j, 1.0)]),
            forcing=PeriodicGridFunction.from_harmonics(cos=[1.0], sin=[0.0, 0.5]),
            truncation=8,
            grid=32,
        )
        assert not spec.is_real
        assert solve_periodic(spec).residual_modal <= 1e-14

    def test_cond_limit_is_the_one_norm_condition(self):
        # M(0) = [[1, 1], [0, 1]]: 1-norm condition 4, 2-norm condition 2.62;
        # at |k| >= 1 the 1-norm condition (|1+ik| + 1)^2 / |1+ik|^2 is below 3
        spec = ProblemSpec(
            state_matrix=[[-1.0, -1.0], [0.0, -1.0]],
            forcing=PeriodicGridFunction.from_harmonics(cos=[[1.0, 1.0]], dim=2),
            truncation=4,
            grid=16,
        )
        with pytest.raises(SingularModeError) as err:
            solve_periodic(spec, cond_limit=3.0)
        assert err.value.modes == [0]
        assert err.value.conditions == pytest.approx([4.0], rel=1e-12)
        with pytest.raises(SingularModeError):
            convergence_sweep(spec, [2, 4], cond_limit=3.0)
        assert solve_periodic(spec, cond_limit=4.5).residual_modal <= 1e-14

    def test_solution_records_the_condition_of_every_mode(self, regression_specs):
        assert "scalar_lag_pi" in regression_specs
        for name, spec in regression_specs.items():
            sol = solve_periodic(spec)
            modal = ModeSymbols.from_spec(spec, spec.truncation).modal(spec.state_matrix)
            assert np.array_equal(sol.condition, np.linalg.cond(modal, 1)), name
            assert sol.condition.shape == sol.modes.shape, name


class TestSymbolTable:
    """The solve and the diagnostics evaluate each delay functional once."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {}
        original = DelayFunctional.symbol_window

        def counted(functional, ks):
            counts[id(functional)] = counts.get(id(functional), 0) + 1
            return original(functional, ks)

        monkeypatch.setattr(DelayFunctional, "symbol_window", counted)
        return counts

    @pytest.mark.parametrize("run", [
        lambda spec: solve_periodic(spec),
        lambda spec: m_bounded_diagnostics(spec, 32),
        lambda spec: convergence_sweep(spec, [2, 4, 8]),
    ], ids=["solve_periodic", "m_bounded_diagnostics", "convergence_sweep"])
    def test_each_functional_evaluated_once(self, calls, run):
        spec = problems.mat2_rich()
        run(spec)
        assert calls == {id(spec.neutral_delay): 1, id(spec.reaction_delay): 1}

    def test_solve_takes_no_svd(self, monkeypatch):
        def no_svd(*args, **kwargs):
            raise AssertionError("solve_periodic called an SVD")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        # np.linalg.cond looks svd up in its own module for the 2-norm
        monkeypatch.setitem(inspect.unwrap(np.linalg.cond).__globals__, "svd", no_svd)
        for name, spec in problems.regression_specs().items():
            assert solve_periodic(spec).residual_modal <= 1e-12, name


class TestResidual:
    def test_zero_candidate_residual_is_forcing_sup(self, regression_specs):
        for name, spec in regression_specs.items():
            zero = PeriodicGridFunction.zero(spec.dim, spec.grid)
            expected = spec.forcing.resample(spec.grid).max_norm()
            assert residual(spec, zero) == pytest.approx(expected, rel=1e-12), name

    def test_solution_residual_small(self, regression_specs):
        for name, spec in regression_specs.items():
            u = solve_periodic(spec).solution
            assert residual(spec, u) <= 1e-10, name

    def test_single_mode_perturbation_grows_by_modal_norm(self, rng):
        spec = problems.scalar_full()
        K = spec.truncation
        sol = solve_periodic(spec)
        eps = 1e-4
        direction = rng.normal(size=spec.dim) + 1j * rng.normal(size=spec.dim)
        direction /= np.linalg.norm(direction)
        bump = PeriodicGridFunction.from_coefficients(
            {K: eps * direction}, spec.grid
        )
        perturbed = sol.solution + bump
        modal_k = ModeSymbols.from_spec(spec, K).modal(spec.state_matrix)[-1]
        expected = eps * np.linalg.norm(modal_k @ direction)
        assert residual(spec, perturbed) == pytest.approx(expected, abs=1e-10)

    def test_uniqueness_residual_bounds_perturbation(self, rng):
        # any band-limited deviation from the solution is visible in the
        # residual at the rate of the smallest modal singular value
        spec = problems.scalar_full()
        modal = ModeSymbols.from_spec(spec, spec.truncation).modal(spec.state_matrix)
        fam_min = np.min(np.linalg.svd(modal, compute_uv=False)[:, -1])
        sol = solve_periodic(spec)
        coeffs = 1e-3 * (rng.normal(size=(2 * spec.truncation + 1, 1))
                         + 1j * rng.normal(size=(2 * spec.truncation + 1, 1)))
        delta = PeriodicGridFunction.from_coefficients(coeffs, spec.grid)
        got = residual(spec, sol.solution + delta)
        assert got >= fam_min * delta.max_norm() / (2 * spec.truncation + 1)
        assert got > 1e-6


class TestSolveProperties:
    def test_linearity(self, rng):
        spec = problems.scalar_full()
        K = spec.truncation
        f1 = PeriodicGridFunction.from_coefficients(
            rng.normal(size=(2 * K + 1, 1)) + 1j * rng.normal(size=(2 * K + 1, 1)),
            spec.grid,
        )
        f2 = PeriodicGridFunction.from_coefficients(
            rng.normal(size=(2 * K + 1, 1)) + 1j * rng.normal(size=(2 * K + 1, 1)),
            spec.grid,
        )
        alpha = 1.7 - 0.3j
        from dataclasses import replace

        u1 = solve_periodic(replace(spec, forcing=f1)).solution
        u2 = solve_periodic(replace(spec, forcing=f2)).solution
        u12 = solve_periodic(replace(spec, forcing=(alpha * f1) + f2)).solution
        combo = (alpha * u1) + u2
        assert np.max(np.abs(u12.samples - combo.samples)) <= 1e-12

    def test_translation_equivariance(self):
        spec = problems.scalar_full()
        from dataclasses import replace

        shift = 8  # grid-aligned: tau = 2*pi*shift/N
        f = spec.forcing.resample(spec.grid)
        shifted = PeriodicGridFunction.from_samples(
            np.roll(f.samples, shift, axis=0), bandwidth=f.bandwidth
        )
        u = solve_periodic(replace(spec, forcing=f)).solution
        u_shifted = solve_periodic(replace(spec, forcing=shifted)).solution
        assert np.max(
            np.abs(u_shifted.samples - np.roll(u.samples, shift, axis=0))
        ) <= 1e-12

    def test_truncation_warning_and_tail_energy(self):
        t = TWO_PI * np.arange(64) / 64
        wide = PeriodicGridFunction.from_samples(np.cos(t) + 0.1 * np.cos(9 * t))
        spec = ProblemSpec(state_matrix=[[-1.0]], forcing=wide,
                           truncation=4, grid=32)
        with pytest.warns(TruncationWarning):
            sol = solve_periodic(spec)
        # dropped tail: the 0.1 cos(9t) component
        expected = np.sqrt(2 * 0.05**2 / (2 * 0.5**2 + 2 * 0.05**2))
        assert sol.forcing_tail_energy == pytest.approx(expected, rel=1e-10)


class TestConvergenceSweep:
    def test_band_limited_forcing_converges_immediately(self):
        spec = problems.scalar_basic()
        sweep = convergence_sweep(spec, [1, 2, 4])
        assert sweep.rows[0].residual_full_band <= 1e-12
        for row in sweep.rows[1:]:
            assert row.solution_change <= 1e-13
        assert sweep.slow_convergence is False

    def test_analytic_forcing_decays_geometrically(self):
        t = TWO_PI * np.arange(512) / 512
        f = PeriodicGridFunction.from_samples(1.0 / (2.0 - np.cos(t)))
        spec = ProblemSpec(state_matrix=[[-1.0]], forcing=f, truncation=8, grid=64)
        sweep = convergence_sweep(spec, [4, 8, 16, 32])
        residuals = [row.residual_full_band for row in sweep.rows]
        for earlier, later in zip(residuals, residuals[1:]):
            assert later < 0.7 * earlier
        # rows monotone well within the 10 percent noise allowance
        for earlier, later in zip(residuals, residuals[1:]):
            assert later <= 1.1 * earlier
        assert sweep.slow_convergence is False

    def test_jump_forcing_flagged_slow(self):
        t = TWO_PI * np.arange(512) / 512
        f = PeriodicGridFunction.from_samples(np.where(t < np.pi, 1.0, -1.0))
        spec = ProblemSpec(state_matrix=[[-1.0]], forcing=f, truncation=8, grid=64)
        sweep = convergence_sweep(spec, [4, 8, 16, 32])
        assert sweep.slow_convergence is True

    def test_rejects_unsorted_list(self):
        with pytest.raises(ValueError):
            convergence_sweep(problems.scalar_basic(), [8, 4])
