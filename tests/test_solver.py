"""Spectral solve, its residuals, linearity/uniqueness properties, sweeps."""

import inspect
import json
import warnings
from dataclasses import replace
from pathlib import Path

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
    mode_range,
    solve_periodic,
)
from specdde import resolvent, solver, symbols
from specdde.config import parse_config

TWO_PI = 2.0 * np.pi
GOLDEN = Path(__file__).parent / "golden"


class TestSolveBenchmarks:
    def test_cosine_forcing_closed_form(self):
        spec = problems.scalar_basic()
        sol = solve_periodic(spec)
        t = sol.solution.nodes
        exact = 0.5 * (np.cos(t) + np.sin(t))
        assert np.max(np.abs(sol.solution.samples[:, 0] - exact)) <= 1e-12
        assert sol.residual_grid <= 1e-10

    def test_a_scalar_state_matrix_is_one_by_one(self):
        # u' = -1.5 u + cos t has u = (1.5 cos t + sin t) / 3.25
        forcing = PeriodicGridFunction.from_harmonics(cos=[[1.0]], dim=1)
        spec = ProblemSpec(state_matrix=-1.5, forcing=forcing, truncation=4)
        assert spec.dim == 1 and spec.state_matrix.tolist() == [[-1.5]]
        sol = solve_periodic(spec)
        t = sol.solution.nodes
        exact = (1.5 * np.cos(t) + np.sin(t)) / 3.25
        assert np.max(np.abs(sol.solution.samples[:, 0] - exact)) <= 1e-15

    def test_cosine_solution_satisfies_equation_pointwise(self):
        # independent check of the closed form itself: u' = -u + cos t
        spec = problems.scalar_basic()
        u = solve_periodic(spec).solution
        du = PeriodicGridFunction(1j * mode_range(u.bandwidth)[:, None] * u.coefficients,
                                  u.n_samples)
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
            modal = ModeSymbols.from_spec(spec, sol.truncation).modal(spec.state_matrix)
            got = np.einsum("ijk,kj->ki", modal, sol.coefficients)
            fhat = _on_band(spec.forcing.coefficients, sol.truncation)
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

    def test_tiny_imaginary_forcing_is_not_symmetrised(self):
        # the forcing's counterpart: 1e-8 i sin 2t under 1e6 cos t is data,
        # and the solve must not overwrite uhat(-2) with conj uhat(2)
        t = TWO_PI * np.arange(64) / 64
        forcing = PeriodicGridFunction.from_samples(
            1e6 * np.cos(t) + 1e-8j * np.sin(2 * t), bandwidth=8)
        spec = ProblemSpec(state_matrix=[[-1.0]], forcing=forcing, truncation=8, grid=32)
        assert not spec.is_real
        sol = solve_periodic(spec)
        assert sol.residual_modal <= 1e-10
        K = sol.truncation
        assert sol.coefficients[K - 2, 0] != np.conj(sol.coefficients[K + 2, 0])

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
        # a real problem is solved on k >= 0 and its k < 0 half mirrored;
        # every other problem is solved, and its condition taken, at every mode
        assert "scalar_lag_pi" in regression_specs
        assert not regression_specs["scalar_neutral"].is_real
        for name, spec in regression_specs.items():
            sol = solve_periodic(spec)
            K = spec.truncation
            assert sol.condition.shape == sol.modes.shape, name
            if spec.is_real:
                modal = ModeSymbols.on_modes(spec, np.arange(K + 1)).modal(spec.state_matrix)
                condition = resolvent._inverse_and_condition(modal)[1]
                assert np.array_equal(sol.condition[K:], condition), name
                assert np.array_equal(sol.condition[:K], sol.condition[:K:-1]), name
            else:
                modal = ModeSymbols.from_spec(spec, K).modal(spec.state_matrix)
                condition = resolvent._inverse_and_condition(modal)[1]
                assert np.array_equal(sol.condition, condition), name


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

    @pytest.mark.parametrize("run", [
        lambda spec: solve_periodic(spec),
        lambda spec: convergence_sweep(spec, [2, 4, 8, 16]),
    ], ids=["solve_periodic", "convergence_sweep"])
    def test_one_inversion_and_no_condition_call(self, monkeypatch, run):
        calls = []
        invert = resolvent._inverse_and_condition

        def counted(a):
            calls.append(1)
            return invert(a)

        def no_lapack(*args, **kwargs):
            raise AssertionError("a 2 x 2 or scalar problem called LAPACK")

        monkeypatch.setattr(resolvent, "_inverse_and_condition", counted)
        for name in ("inv", "solve", "cond"):
            monkeypatch.setattr(np.linalg, name, no_lapack)
        for name, spec in problems.regression_specs().items():
            assert spec.dim <= 2, name
            calls.clear()
            run(spec)
            assert len(calls) == 1, name


class TestResidual:
    def test_forcing_beyond_the_band_leaves_its_sup_as_the_residual(self, regression_specs):
        # f shifted up to modes K + 1 and beyond, e^{i(K+1+b)t} f(t) for f of
        # bandwidth b, lies wholly beyond the truncation: the solution is zero
        # and the residual is |f| on the grid
        for name, spec in regression_specs.items():
            K, f = spec.truncation, spec.forcing
            band = K + 1 + 2 * f.bandwidth
            shifted = np.zeros((2 * band + 1, spec.dim), dtype=complex)
            shifted[band + K + 1:] = f.coefficients
            with pytest.warns(TruncationWarning):
                sol = solve_periodic(replace(
                    spec, forcing=PeriodicGridFunction(shifted, spec.grid)))
            assert np.all(sol.coefficients == 0.0), name
            expected = PeriodicGridFunction(f.coefficients, spec.grid).max_norm()
            assert sol.residual_grid == pytest.approx(expected, rel=1e-12), name

    def test_solution_residual_small(self, regression_specs):
        for name, spec in regression_specs.items():
            assert solve_periodic(spec).residual_grid <= 1e-10, name
            row = convergence_sweep(spec, [spec.truncation]).rows[0]
            assert row.residual_full_band <= 1e-10, name

    def test_single_mode_perturbation_grows_by_modal_norm(self, rng):
        # the sweep's row K - 1 is the row-K solution less eps d at mode K, so
        # its residual is the defect of that one mode, eps ||M(K) d||
        spec = problems.scalar_full()
        K = spec.truncation
        eps = 1e-4
        direction = rng.normal(size=spec.dim) + 1j * rng.normal(size=spec.dim)
        direction /= np.linalg.norm(direction)
        modal_k = ModeSymbols.from_spec(spec, K).modal(spec.state_matrix)[..., -1]
        coeffs = _on_band(spec.forcing.coefficients, K)
        coeffs[-1] = eps * modal_k @ direction
        forced = replace(spec, forcing=PeriodicGridFunction(coeffs, spec.grid))
        short, full = convergence_sweep(forced, [K - 1, K]).rows
        assert short.residual_full_band == pytest.approx(
            eps * np.linalg.norm(modal_k @ direction), abs=1e-10)
        assert full.solution_change == pytest.approx(eps, rel=1e-10)
        assert full.residual_full_band <= 1e-12

    def test_uniqueness_residual_bounds_perturbation(self, rng):
        # any band-limited deviation from the solution is visible in the
        # residual at the rate of the smallest modal singular value: row 2 of
        # the sweep deviates from the row-K solution by its modes 2 < |k| <= K
        spec = problems.scalar_full()
        K = spec.truncation
        modal = ModeSymbols.from_spec(spec, K).modal(spec.state_matrix)
        fam_min = np.min(np.linalg.svd(np.moveaxis(modal, -1, 0), compute_uv=False)[:, -1])
        coeffs = rng.normal(size=(2 * K + 1, 1)) + 1j * rng.normal(size=(2 * K + 1, 1))
        forced = replace(spec, forcing=PeriodicGridFunction(coeffs, spec.grid))
        short, full = convergence_sweep(forced, [2, K]).rows
        deviation = full.solution_change
        assert short.residual_full_band >= fam_min * deviation / (2 * K + 1)
        assert short.residual_full_band > 1e-6 and full.residual_full_band <= 1e-12


class TestSolveProperties:
    def test_linearity(self, rng):
        spec = problems.scalar_full()
        K = spec.truncation
        f1 = PeriodicGridFunction(
            rng.normal(size=(2 * K + 1, 1)) + 1j * rng.normal(size=(2 * K + 1, 1)),
            spec.grid,
        )
        f2 = PeriodicGridFunction(
            rng.normal(size=(2 * K + 1, 1)) + 1j * rng.normal(size=(2 * K + 1, 1)),
            spec.grid,
        )
        alpha = 1.7 - 0.3j
        from dataclasses import replace

        u1 = solve_periodic(replace(spec, forcing=f1)).solution
        u2 = solve_periodic(replace(spec, forcing=f2)).solution
        f12 = PeriodicGridFunction(alpha * f1.coefficients + f2.coefficients, spec.grid)
        u12 = solve_periodic(replace(spec, forcing=f12)).solution
        combo = PeriodicGridFunction(alpha * u1.coefficients + u2.coefficients, spec.grid)
        assert np.max(np.abs(u12.samples - combo.samples)) <= 1e-12

    def test_translation_equivariance(self):
        spec = problems.scalar_full()
        from dataclasses import replace

        shift = 8  # grid-aligned: tau = 2*pi*shift/N
        f = PeriodicGridFunction(spec.forcing.coefficients, spec.grid)
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

    def test_rows_match_the_solve_at_their_truncation(self, regression_specs):
        # under the sampled pair (band 31) every row is narrower than the
        # forcing band, on the half band and on the whole band alike
        truncations = [2, 4, 8, 16]
        specs = dict(regression_specs)
        for name, spec in regression_specs.items():
            if spec.dim == 2:
                sampled = replace(spec, forcing=_sign_and_root_pair())
                specs[f"{name}_sampled"] = sampled
                specs[f"{name}_sampled_complex"] = replace(
                    sampled, state_matrix=spec.state_matrix + 0.1j * np.eye(2))
        for name, spec in specs.items():
            sweep = convergence_sweep(spec, truncations)
            grid = max(spec.grid, 4 * truncations[-1], spec.forcing.n_samples)
            prev = None
            for K, row in zip(truncations, sweep.rows):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", TruncationWarning)
                    sol = solve_periodic(replace(spec, truncation=K, grid=grid))
                assert row.residual_full_band == sol.residual_grid, (name, K)
                if prev is not None:
                    change = PeriodicGridFunction(sol.coefficients - _on_band(prev, K), grid)
                    assert row.solution_change == change.max_norm(), (name, K)
                prev = sol.coefficients

    def test_every_row_residual_is_the_synthesis_of_its_own_row(self):
        # a row whose residual equals the previous row's, cut at their last
        # nonzero mode, takes the previous row's value; each must be the
        # bits of its own row synthesised.  Every bench row is at or above
        # its forcing's band; the middle-band forcing gives equal rows
        # below it (K = 4, 8, 16)
        workloads = problems.bench_workloads()
        cases = {}
        for workload in ("lumped", "distributed"):
            for seed in (1, 2, 3):
                config = parse_config(json.dumps(workloads.config_document(workload, seed)))
                cases[f"{workload}{seed}"] = config.problem, config.truncation_sweep
        spec, truncations = cases["distributed1"]
        cases["complex"] = replace(spec, state_matrix=spec.state_matrix + 0.1j * np.eye(2)), truncations
        middle = replace(problems.mat2_rich(), forcing=_middle_band_zero_pair())
        cases["middle"] = middle, [2, 4, 8, 16, 32]
        cases["middle_complex"] = replace(
            middle, state_matrix=middle.state_matrix + 0.1j * np.eye(2)), [2, 4, 8, 16, 32]
        sweeps = {}
        for name, (spec, truncations) in cases.items():
            rows = sweeps[name] = convergence_sweep(spec, truncations).rows
            modes, fhat, _, rhat, _ = solver._band_solve(spec, truncations, resolvent.COND_LIMIT)
            n_grid = max(spec.grid, 4 * truncations[-1], spec.forcing.n_samples)
            for K, row in zip(truncations, rows):
                on = solver._within(modes, max(K, spec.forcing.bandwidth))
                residual = np.where((np.abs(modes[on]) <= K)[:, None], rhat[on], 0.0 - fhat[on])
                direct = solver._grid_max(modes[on], residual, n_grid)
                assert np.float64(row.residual_full_band).tobytes() == np.float64(direct).tobytes(), \
                    (name, K)
        assert len({row.residual_full_band for row in sweeps["middle"][1:4]}) == 1

    def test_singular_mode_fails_at_the_first_row_that_holds_it(self):
        # the first diagonal entry of M(k), 1 + ik - (3 - i) e^{-ik pi/2},
        # vanishes at k = 3 alone
        spec = ProblemSpec(
            state_matrix=-np.eye(2),
            reaction_delay=DelayFunctional(dim=2, atoms=[(np.diag([3.0 - 1j, 0.0]),
                                                          np.pi / 2)]),
            forcing=PeriodicGridFunction.from_harmonics(cos=[[1.0, 1.0]], dim=2),
            truncation=8,
            grid=32,
        )
        assert convergence_sweep(spec, [1, 2]).rows[-1].residual_full_band <= 1e-12
        for truncations in ([2, 4, 8], [4, 8]):
            with pytest.raises(SingularModeError) as err:
                convergence_sweep(spec, truncations)
            assert err.value.modes == [3]

    @pytest.mark.parametrize("real", [False, True], ids=["whole_band", "half_band"])
    def test_bands_name_the_narrowest_band_that_fails(self, monkeypatch, real):
        # rejected modes at |k| = 3 and 5: of the rows 2, 4, 8 the row 4 is
        # the first to hold one, and it names only its own two; the solve at
        # K = 8 names all of them.  A real problem is solved on k = 0..8 and
        # each rejected k > 0 also names -k, after the narrowest band is taken
        ks = np.arange(9) if real else mode_range(8)
        modal = np.tile(np.eye(2, dtype=complex)[:, :, None], len(ks))
        modal[1, 1, np.abs(ks) == 3] = 1e-13
        modal[..., ks == 5] = 0.0
        monkeypatch.setattr(ModeSymbols, "modal", lambda table, state_matrix: modal)
        spec = _tiny() if real else _complex_tiny()
        assert spec.is_real == real
        with pytest.raises(SingularModeError) as err:
            convergence_sweep(spec, [2, 4, 8])
        assert err.value.modes == [-3, 3]
        assert err.value.conditions == [1e13, 1e13]
        with pytest.raises(SingularModeError) as err:
            solve_periodic(spec)
        assert err.value.modes == ([-5, -3, 3, 5] if real else [-3, 3, 5])

    def test_rejects_unsorted_list(self):
        with pytest.raises(ValueError):
            convergence_sweep(problems.scalar_basic(), [8, 4])

    def test_rejects_repeated_truncation(self):
        with pytest.raises(ValueError, match="strictly ascending"):
            convergence_sweep(problems.scalar_basic(), [4, 4])

    def test_rejects_empty_list(self):
        with pytest.raises(ValueError, match="nonempty"):
            convergence_sweep(problems.scalar_basic(), [])

    def test_rejects_truncation_below_one(self):
        with pytest.raises(ValueError, match=">= 1"):
            convergence_sweep(problems.scalar_basic(), [-2, 4])
        with pytest.raises(ValueError, match=">= 1"):
            convergence_sweep(problems.scalar_basic(), [0, 4])

    def test_rejects_fractional_truncation(self):
        # 4.5 is no index; it used to be floored to 4
        with pytest.raises(TypeError):
            convergence_sweep(problems.scalar_basic(), [4.5, 8])


def _tiny():
    """The problem of the golden configuration ``tests/golden/tiny.json``."""
    return parse_config((GOLDEN / "tiny.json").read_text(encoding="utf-8")).problem


def _complex_tiny():
    """The golden complex case: TINY with 0.1i added to A's diagonal."""
    tiny = _tiny()
    return replace(tiny, state_matrix=tiny.state_matrix + 0.1j * np.eye(2))


def _forcing_samples(imaginary):
    """cos t + 0.5 sin 3t plus ``imaginary`` times i sin 2t on 64 nodes."""
    t = TWO_PI * np.arange(64) / 64
    return np.cos(t) + 0.5 * np.sin(3 * t) + imaginary * 1j * np.sin(2 * t)


def _sign_and_root_pair():
    """sign(sin t) and |sin t|^(1/2) on 64 nodes: a real forcing of band 31
    whose coefficients decay slowly."""
    s = np.sin(TWO_PI * np.arange(64) / 64)
    return PeriodicGridFunction.from_samples(np.stack([np.sign(s), np.sqrt(np.abs(s))], axis=1))


def _sampled(imaginary=0.0):
    """``scalar_full`` with the band |k| <= 8 of ``_forcing_samples`` as
    forcing: a real problem when ``imaginary`` is 0, else a complex one."""
    forcing = PeriodicGridFunction.from_samples(_forcing_samples(imaginary), bandwidth=8)
    return replace(problems.scalar_full(), forcing=forcing)


#: every real problem of ``tests/problems.py`` with a harmonics forcing, TINY
#: and a real sampled forcing
REAL_CASES = {
    "scalar_basic": problems.scalar_basic,
    "scalar_full": problems.scalar_full,
    "scalar_lag_pi": problems.scalar_lag_pi,
    "mat2_diag": problems.mat2_diag,
    "mat2_rich": problems.mat2_rich,
    "mat2_sampled": problems.mat2_sampled,
    "tiny": _tiny,
    "sampled_real": _sampled,
}


def _middle_band_zero_pair():
    """``_sign_and_root_pair`` with its modes 5 <= |k| <= 20 exactly zero,
    so that the residuals of sweep rows K = 4, 8 and 16 differ at most in
    the signs of zeros."""
    f = _sign_and_root_pair()
    k = np.abs(mode_range(f.bandwidth))
    return PeriodicGridFunction(np.where(((k >= 5) & (k <= 20))[:, None], 0.0, f.coefficients),
                                f.n_samples)


def _on_band(coefficients, bandwidth):
    """Coefficients on |k| <= bandwidth: cut, or padded with zero modes."""
    have = (len(coefficients) - 1) // 2
    keep = min(have, bandwidth)
    out = np.zeros((2 * bandwidth + 1, coefficients.shape[1]), dtype=complex)
    out[bandwidth - keep: bandwidth + keep + 1] = coefficients[have - keep: have + keep + 1]
    return out


def _full_band_reference(spec):
    """The solve on the whole band -K..K: one table, the inverse of every
    M(k) (``resolvent._inverse_and_condition``), and the k < 0 half of the
    coefficients replaced by the conjugates of the k > 0 half.  Returns
    (coefficients, 1-norm condition numbers)."""
    K = spec.truncation
    modal = ModeSymbols.from_spec(spec, K).modal(spec.state_matrix)
    inverse, condition = resolvent._inverse_and_condition(modal)
    uhat = np.einsum("ijk,kj->ki", inverse, _on_band(spec.forcing.coefficients, K))
    uhat[K] = np.real(uhat[K])
    uhat[:K] = np.conj(uhat[:K:-1])
    return uhat, condition


class TestRealHalfBand:
    """A real problem is solved on k >= 0 alone, with the numbers of the
    whole-band solve."""

    @pytest.fixture
    def evaluated(self, monkeypatch):
        """The modes of every symbol evaluation: both delay functionals and
        the kernel transform."""
        modes = []
        window, laplace = DelayFunctional.symbol_window, symbols.laplace_symbol

        def spy_window(functional, ks):
            modes.append(np.asarray(ks))
            return window(functional, ks)

        def spy_laplace(kernel, k):
            modes.append(np.atleast_1d(k))
            return laplace(kernel, k)

        monkeypatch.setattr(DelayFunctional, "symbol_window", spy_window)
        monkeypatch.setattr(symbols, "laplace_symbol", spy_laplace)
        return modes

    @pytest.mark.parametrize("name", REAL_CASES)
    def test_coefficients_and_condition_match_the_full_band(self, name):
        spec = REAL_CASES[name]()
        assert spec.is_real
        K = spec.truncation
        sol = solve_periodic(spec)
        uhat, condition = _full_band_reference(spec)
        assert np.array_equal(sol.coefficients, uhat)
        assert np.array_equal(sol.condition[K:], condition[K:])
        assert np.array_equal(sol.condition[:K], condition[:K:-1])

    @pytest.mark.parametrize("name", REAL_CASES)
    def test_grid_residual_is_the_full_band_synthesis_to_round_off(self, name):
        # the defect made on k >= 0 against the one made on the whole band
        spec = REAL_CASES[name]()
        sol = solve_periodic(spec)
        band = max(spec.truncation, spec.forcing.bandwidth)
        modal = ModeSymbols.from_spec(spec, band).modal(spec.state_matrix)
        defect = (np.einsum("ijk,kj->ki", modal, _on_band(sol.coefficients, band))
                  - _on_band(spec.forcing.coefficients, band))
        expected = PeriodicGridFunction(defect, max(spec.grid, 2 * band + 1)).max_norm()
        scale = max(spec.forcing.max_norm(), 1.0)
        assert abs(sol.residual_grid - expected) <= 8 * np.finfo(float).eps * scale

    @pytest.mark.parametrize("run", [
        lambda spec: solve_periodic(spec),
        lambda spec: convergence_sweep(spec, [2, 4, 8]),
    ], ids=["solve_periodic", "convergence_sweep"])
    def test_a_real_problem_evaluates_no_negative_mode(self, evaluated, run):
        for name, make in REAL_CASES.items():
            evaluated.clear()
            run(make())
            assert len(evaluated) == 3, name
            assert all(ks[0] == 0 and np.all(np.diff(ks) == 1) for ks in evaluated), name

    @pytest.mark.parametrize("run", [
        lambda spec: solve_periodic(spec),
        lambda spec: convergence_sweep(spec, [2, 4, 8]),
    ], ids=["solve_periodic", "convergence_sweep"])
    @pytest.mark.parametrize("make", [_complex_tiny, lambda: _sampled(0.25)],
                             ids=["complex_golden", "sampled_complex"])
    def test_other_problems_evaluate_the_whole_band(self, evaluated, run, make):
        spec = make()
        assert not spec.is_real
        run(spec)
        assert len(evaluated) == 3
        assert all(np.array_equal(ks, -ks[::-1]) and ks[-1] >= 8 for ks in evaluated)

    def test_real_samples_give_exactly_hermitian_coefficients(self):
        # the rfft coefficients of real samples against their complex FFT
        spec = _sampled()
        c = spec.forcing.coefficients
        assert spec.is_real and np.array_equal(c[::-1], np.conj(c))
        complex_fft = np.fft.fft(_forcing_samples(0.0).astype(complex)) / 64
        assert np.max(np.abs(c[:, 0] - complex_fft[mode_range(8)])) <= 1e-15

    def test_a_complex_constant_on_mode_zero_alone_keeps_its_imaginary_part(self):
        # a lone mode 0 is a whole band, not the half band of a real function
        # (symbols._half).  No solve band is the lone mode 0 since every
        # truncation is >= 1, but a forcing of bandwidth 0 is
        forcing = PeriodicGridFunction([[0.5 + 1.0j]], 16)
        assert np.array_equal(forcing.samples, np.full((16, 1), 0.5 + 1.0j))
        spec = replace(problems.scalar_basic(), state_matrix=[[-1.0 + 0.5j]],
                       forcing=forcing)
        assert not spec.is_real
        u0 = forcing.coefficients[0] / (-(-1.0 + 0.5j))
        assert solve_periodic(spec).coefficients[spec.truncation] == pytest.approx(u0, rel=1e-15)

    def test_a_singular_real_mode_names_both_signs(self):
        # the first diagonal entry of M(k), ik - 3 e^{-ik pi/2}, vanishes at
        # k = +-3 alone
        spec = ProblemSpec(
            state_matrix=np.diag([0.0, -1.0]),
            reaction_delay=DelayFunctional(dim=2, atoms=[(np.diag([3.0, 0.0]), np.pi / 2)]),
            forcing=PeriodicGridFunction.from_harmonics(cos=[[1.0, 1.0]], dim=2),
            truncation=8,
            grid=32,
        )
        assert spec.is_real
        with pytest.raises(SingularModeError) as err:
            solve_periodic(spec)
        assert err.value.modes == [-3, 3]
        assert err.value.conditions[0] == err.value.conditions[1] > 1e12
        assert convergence_sweep(spec, [1, 2]).rows[-1].residual_full_band <= 1e-12
        for truncations in ([2, 4, 8], [4, 8]):
            with pytest.raises(SingularModeError) as err:
                convergence_sweep(spec, truncations)
            assert err.value.modes == [-3, 3]
