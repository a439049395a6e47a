"""Modal matrices, the inverted family, exact identities, boundedness rows."""

import numpy as np
import pytest

import problems
from specdde import (
    DelayFunctional,
    KernelSpec,
    ModeSymbols,
    ProblemSpec,
    SingularModeError,
    laplace_symbol,
    m_bounded_diagnostics,
    mode_range,
    resolvent_family,
    telescoping_check,
    verify_modal_identity,
)

TWO_PI = 2.0 * np.pi


def family(spec, window, **kwargs):
    return resolvent_family(spec, ModeSymbols.from_spec(spec, window), **kwargs)


def modal(spec, window):
    return ModeSymbols.from_spec(spec, window).modal(spec.state_matrix)


class TestAssemble:
    def test_plain_scalar_at_zero(self):
        spec = ProblemSpec(state_matrix=[[-1.0]], truncation=2, grid=8)
        assert modal(spec, 0)[0, 0, 0] == pytest.approx(1.0)

    def test_plain_scalar_at_one(self):
        spec = ProblemSpec(state_matrix=[[-1.0]], truncation=2, grid=8)
        ks = mode_range(16)
        assert modal(spec, 16)[:, 0, 0] == pytest.approx(1.0 + 1j * ks)

    def test_neutral_period_atom_halves_the_matrix(self):
        spec = problems.scalar_neutral()
        ks = mode_range(16)
        assert modal(spec, 16)[:, 0, 0] == pytest.approx(
            0.5 * (1.0 + 1j * ks), abs=1e-14
        )

    def test_conjugate_symmetry_for_real_data(self, regression_specs):
        for name, spec in regression_specs.items():
            if name == "scalar_neutral":
                continue  # complex forcing does not affect symbols, but skip none
            m = modal(spec, 17)
            assert np.allclose(m[::-1], np.conj(m), atol=1e-12), name


class TestResolventFamily:
    def test_scalar_closed_form(self):
        spec = problems.scalar_basic()
        fam = family(spec, 256)
        ks = fam.modes
        closed = 1.0 / (1.0 + 1j * ks)
        assert np.max(np.abs(fam.resolvent[:, 0, 0] - closed)) < 1e-12
        scaled = 1j * ks / (1.0 + 1j * ks)
        assert np.max(np.abs(fam.resolvent_ik[:, 0, 0] - scaled)) < 1e-12
        sup_scaled = m_bounded_diagnostics(spec, 256).row("S").sup_norm
        assert sup_scaled < 1.0
        assert sup_scaled > 0.999

    def test_neutral_kernel_scalar_closed_form(self):
        # A = -1, L = 1/2 at the period, kernel e^{-t}:
        # modal value is (1+ik)/2 - 1/(1+ik)
        spec = ProblemSpec(
            state_matrix=[[-1.0]],
            neutral_delay=DelayFunctional(dim=1, atoms=[(0.5, TWO_PI)]),
            kernel=KernelSpec.exponential(),
            truncation=4,
            grid=16,
        )
        fam = family(spec, 64)
        z = 1.0 + 1j * fam.modes
        closed = 1.0 / (z / 2.0 - 1.0 / z)
        assert np.max(np.abs(fam.resolvent[:, 0, 0] - closed)) < 1e-12

    def test_diagonal_two_by_two_closed_form(self):
        spec = problems.mat2_diag()
        fam = family(spec, 64)
        ks = fam.modes
        a = np.array([laplace_symbol(spec.kernel, int(k)) for k in ks])
        for i, k in enumerate(ks):
            expected = np.diag([1.0 / (1j * k + 1.0 - a[i]),
                                1.0 / (1j * k + 2.0 - a[i])])
            assert np.allclose(fam.resolvent[i], expected, atol=1e-12)
            # off-diagonal entries stay numerically zero
            assert abs(fam.resolvent[i][0, 1]) < 1e-15

    def test_singular_mode_reported_with_condition(self):
        spec = ProblemSpec(state_matrix=[[0.0]], truncation=2, grid=8)
        with pytest.raises(SingularModeError) as err:
            family(spec, 4)
        assert 0 in err.value.modes

    def test_modal_identity_tight_for_scalar(self):
        fam = family(problems.scalar_basic(), 128)
        assert verify_modal_identity(fam) <= 1e-15

    def test_modal_identity_across_regression_suite(self, regression_specs):
        for name, spec in regression_specs.items():
            fam = family(spec, 64)
            assert verify_modal_identity(fam) <= 1e-10, name

    def test_resolvent_conjugate_symmetry(self, regression_specs):
        for name, spec in regression_specs.items():
            fam = family(spec, 32)
            K = 32
            for k in (1, 7, 31):
                assert np.allclose(
                    fam.resolvent[K - k],
                    np.conj(fam.resolvent[K + k]),
                    atol=1e-12,
                ), name

    def test_stored_identity_from_parts(self):
        # D_k (ik N_k) - A D_k N_k - T_k - atilde(ik) N_k = I
        spec = problems.scalar_full()
        fam = family(spec, 32)
        lhs = (np.matmul(fam.neutral, fam.resolvent_ik)
               - np.matmul(np.matmul(spec.state_matrix, fam.neutral), fam.resolvent)
               - fam.delay_response - fam.kernel_response)
        eye = np.eye(spec.dim)
        assert np.max(np.abs(lhs - eye[None])) <= 1e-10

    def test_resolvent_ik_is_ik_times_resolvent(self):
        fam = family(problems.scalar_full(), 16)
        expected = (1j * fam.modes)[:, None, None] * fam.resolvent
        assert np.array_equal(fam.resolvent_ik, expected)


class TestTelescoping:
    def test_no_delays_no_kernel_both_sides_are_minus_ik(self):
        spec = ProblemSpec(state_matrix=[[-1.0]], truncation=2, grid=8)
        assert telescoping_check(spec, ModeSymbols.from_spec(spec, 12)) <= 1e-13

    def test_period_lag_atoms_only(self):
        spec = problems.scalar_full()
        assert telescoping_check(spec, ModeSymbols.from_spec(spec, 17)) <= 1e-12

    def test_exponential_kernel_defect(self):
        spec = ProblemSpec(
            state_matrix=[[-1.0]], kernel=KernelSpec.exponential(),
            truncation=2, grid=8,
        )
        assert telescoping_check(spec, ModeSymbols.from_spec(spec, 65)) <= 1e-12

    def test_defect_small_across_suite(self, regression_specs):
        for name, spec in regression_specs.items():
            assert telescoping_check(spec, ModeSymbols.from_spec(spec, 65)) <= 1e-11, name


class TestDiagnostics:
    def test_plain_scalar_all_rows_bounded(self):
        report = m_bounded_diagnostics(problems.scalar_basic(), 256)
        for row in report.rows:
            assert row.verdict == "bounded", row.name

    def test_lag_pi_neutral_row_grows_linearly(self):
        report = m_bounded_diagnostics(problems.scalar_lag_pi(), 256)
        row = report.row("Q")
        assert row.verdict == "growing"
        assert 0.9 <= row.growth_exponent <= 1.1
        # |Q_k| = |k| for the half-strength atom
        assert row.sup_norm == pytest.approx(256.0, rel=1e-12)

    def test_zero_problem_difference_rows_vanish(self):
        spec = ProblemSpec(state_matrix=[[-1.0]], truncation=2, grid=8)
        report = m_bounded_diagnostics(spec, 64)
        for name in ("P", "Q", "R", "B"):
            assert report.row(name).sup_norm == 0.0
            assert report.row(name).verdict == "bounded"

    def test_small_window_is_inconclusive(self):
        report = m_bounded_diagnostics(problems.scalar_basic(), 8)
        assert all(row.verdict == "inconclusive" for row in report.rows)

    def test_nice_family_reflects_solvability(self):
        # bounded sequence hypotheses plus invertibility push the inverted
        # rows to bounded as well
        report = m_bounded_diagnostics(problems.scalar_full(), 256)
        assert report.all_bounded(["P", "Q", "R", "B", "L", "G", "a_tilde"])
        assert report.all_bounded(["N", "S", "T", "F"])

    def test_growing_verdict_stable_under_window_growth(self):
        # incommensurate lag 1.0: scaled differences grow linearly
        spec = ProblemSpec(
            state_matrix=[[-1.0]],
            neutral_delay=DelayFunctional(dim=1, atoms=[(0.5, 1.0)]),
            truncation=4,
            grid=16,
        )
        verdicts = [
            m_bounded_diagnostics(spec, w).row("Q").verdict
            for w in (64, 128, 256)
        ]
        assert verdicts == ["growing"] * 3

    def test_report_serialization_schema(self):
        report = m_bounded_diagnostics(problems.scalar_basic(), 32)
        doc = report.to_dict()
        assert doc["window"] == 32
        assert [r["name"] for r in doc["rows"]] == [
            "N", "S", "T", "F", "P", "Q", "R", "B", "L", "G", "a_tilde"
        ]
        for row in doc["rows"]:
            assert set(row) == {"name", "sup_norm", "sup_scaled_diff",
                                "growth_exponent", "verdict"}

    def test_scaled_diff_column_matches_difference_rows(self):
        # the scaled first difference of the L row is the Q row by definition
        report = m_bounded_diagnostics(problems.scalar_lag_pi(), 64)
        assert report.row("L").sup_scaled_diff == pytest.approx(
            report.row("Q").sup_norm, rel=1e-12
        )
