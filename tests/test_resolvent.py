"""Modal matrices, the checked inverse, exact identities, boundedness rows."""

import warnings

import numpy as np
import pytest

import problems
from specdde import (
    DelayFunctional,
    KernelSpec,
    ModeSymbols,
    ProblemSpec,
    SingularModeError,
    collocation_solve,
    compare,
    convergence_sweep,
    laplace_symbol,
    m_bounded_diagnostics,
    mode_range,
    resolvent,
    solve_periodic,
)
from specdde.symbols import _stack_product

TWO_PI = 2.0 * np.pi


def inverse(spec, window):
    """(symbol table, M(k)^{-1}) on |k| <= window, through the one condition test."""
    table = ModeSymbols.from_spec(spec, window)
    inv, _ = resolvent._checked_inverse(table.modes, table.modal(spec.state_matrix),
                                        resolvent.COND_LIMIT)
    return table, inv


def matrices(stack):
    """The matrices of a (n, n, m) stack mode by mode, (m, n, n), for numpy's
    stacked matrix routines (a view)."""
    return np.moveaxis(stack, -1, 0)


def stacked(matrices):
    """The matrices (m, n, n) as a C-contiguous stack with the modes last,
    (n, n, m)."""
    return np.ascontiguousarray(np.moveaxis(matrices, 0, -1))


def inversion_defect(spec, window):
    """max_k || M(k) M(k)^{-1} - I ||, the inversion defect over the window."""
    table, inv = inverse(spec, window)
    defect = np.matmul(matrices(table.modal(spec.state_matrix)), matrices(inv)) - np.eye(spec.dim)
    return float(np.max(resolvent._operator_norms(np.moveaxis(defect, 0, -1))))


def report_row(report, name):
    """The row of a boundedness report for the sequence ``name``."""
    [found] = [r for r in report["rows"] if r["name"] == name]
    return found


def modal(spec, window):
    return ModeSymbols.from_spec(spec, window).modal(spec.state_matrix)


class TestAssemble:
    def test_plain_scalar_at_zero(self):
        spec = ProblemSpec(state_matrix=[[-1.0]], truncation=2, grid=8)
        assert modal(spec, 0)[0, 0, 0] == pytest.approx(1.0)

    def test_plain_scalar_at_one(self):
        spec = ProblemSpec(state_matrix=[[-1.0]], truncation=2, grid=8)
        ks = mode_range(16)
        assert modal(spec, 16)[0, 0] == pytest.approx(1.0 + 1j * ks)

    def test_neutral_period_atom_halves_the_matrix(self):
        spec = problems.scalar_neutral()
        ks = mode_range(16)
        assert modal(spec, 16)[0, 0] == pytest.approx(
            0.5 * (1.0 + 1j * ks), abs=1e-14
        )

    def test_conjugate_symmetry_for_real_data(self, regression_specs):
        for name, spec in regression_specs.items():
            if name == "scalar_neutral":
                continue  # complex forcing does not affect symbols, but skip none
            m = modal(spec, 17)
            assert np.allclose(m[..., ::-1], np.conj(m), atol=1e-12), name


class TestResolventFamily:
    def test_scalar_closed_form(self):
        spec = problems.scalar_basic()
        table, inv = inverse(spec, 256)
        ks = table.modes
        closed = 1.0 / (1.0 + 1j * ks)
        assert np.max(np.abs(inv[0, 0] - closed)) < 1e-12
        scaled = 1j * ks / (1.0 + 1j * ks)
        assert np.max(np.abs(1j * ks * inv[0, 0] - scaled)) < 1e-12
        sup_scaled = report_row(m_bounded_diagnostics(spec, 256), "S")["sup_norm"]
        assert sup_scaled < 1.0
        assert sup_scaled > 0.999

    def test_neutral_kernel_scalar_closed_form(self):
        # A = -1, L = 1/2 at the period, kernel e^{-t}:
        # modal value is (1+ik)/2 - 1/(1+ik)
        spec = ProblemSpec(
            state_matrix=[[-1.0]],
            neutral_delay=DelayFunctional(dim=1, atoms=[(0.5, TWO_PI)]),
            kernel=KernelSpec(terms=[(1.0, 0, 1.0)]),
            truncation=4,
            grid=16,
        )
        table, inv = inverse(spec, 64)
        z = 1.0 + 1j * table.modes
        closed = 1.0 / (z / 2.0 - 1.0 / z)
        assert np.max(np.abs(inv[0, 0] - closed)) < 1e-12

    def test_diagonal_two_by_two_closed_form(self):
        spec = problems.mat2_diag()
        table, inv = inverse(spec, 64)
        ks = table.modes
        a = np.array([laplace_symbol(spec.kernel, int(k)) for k in ks])
        for i, k in enumerate(ks):
            expected = np.diag([1.0 / (1j * k + 1.0 - a[i]),
                                1.0 / (1j * k + 2.0 - a[i])])
            assert np.allclose(inv[..., i], expected, atol=1e-12)
            # off-diagonal entries stay numerically zero
            assert abs(inv[0, 1, i]) < 1e-15

    @pytest.mark.parametrize("limit", [np.nan, 0.0, -1.0])
    def test_condition_limit_must_be_positive(self, limit):
        # NaN used to reject no mode in the first three and every system in
        # the last two, since cond > nan and cond <= nan are both False
        spec = problems.scalar_basic()
        for call in (lambda: solve_periodic(spec, cond_limit=limit),
                     lambda: convergence_sweep(spec, [2, 4], cond_limit=limit),
                     lambda: m_bounded_diagnostics(spec, 4, cond_limit=limit),
                     lambda: collocation_solve(spec, 32, cond_limit=limit),
                     lambda: compare(spec, [32, 64], cond_limit=limit)):
            with pytest.raises(ValueError, match="condition limit must be positive"):
                call()

    def test_singular_mode_reported_with_condition(self):
        spec = ProblemSpec(state_matrix=[[0.0]], truncation=2, grid=8)
        with pytest.raises(SingularModeError) as err:
            inverse(spec, 4)
        assert 0 in err.value.modes

    def test_condition_is_read_off_the_one_inverse(self, rng):
        # n = 2: M^{-1} = adj M (1 / det M), and ||M^{-1}||_1 = ||M||_inf / |det M|
        stack = rng.normal(size=(2, 2, 8193)) + 1j * rng.normal(size=(2, 2, 8193))
        inv, condition = resolvent._checked_inverse(mode_range(4096), stack, np.inf)
        a, b, c, d = stack[0, 0], stack[0, 1], stack[1, 0], stack[1, 1]
        det = a * d - b * c
        adjugate = np.array([[d, -b], [-c, a]])
        assert np.array_equal(inv, adjugate * (1.0 / det))
        moduli = np.abs(stack)
        one_norm = np.max(np.sum(moduli, axis=0), axis=0)
        infinity_norm = np.max(np.sum(moduli, axis=1), axis=0)
        assert np.array_equal(condition, one_norm * infinity_norm / np.abs(det))

    def test_zero_and_overflowing_matrices_are_rejected_without_a_warning(self):
        # an all-zero M(k) stops the batched inversion; a finite one whose
        # ||M||_1 ||M^{-1}||_1 overflows is rejected all the same
        overflow = np.tile(np.eye(2, dtype=complex)[:, :, None], 5)
        overflow[..., 3] = np.diag([1e300, 1e-300])
        zero = overflow.copy()
        zero[..., 1] = 0.0
        for modal, rejected in ((zero, [-1, 1]), (overflow, [1])):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(SingularModeError) as err:
                    resolvent._checked_inverse(mode_range(2), modal, 1e12)
            assert err.value.modes == rejected
            assert err.value.conditions == [np.inf] * len(rejected)

    def test_modal_identity_tight_for_scalar(self):
        assert inversion_defect(problems.scalar_basic(), 128) <= 1e-15

    def test_modal_identity_across_regression_suite(self, regression_specs):
        for name, spec in regression_specs.items():
            assert inversion_defect(spec, 64) <= 1e-10, name

    def test_resolvent_conjugate_symmetry(self, regression_specs):
        for name, spec in regression_specs.items():
            _, inv = inverse(spec, 32)
            K = 32
            for k in (1, 7, 31):
                assert np.allclose(inv[..., K - k], np.conj(inv[..., K + k]), atol=1e-12), name

    def test_stored_identity_from_parts(self):
        # D_k (ik N_k) - A D_k N_k - T_k - atilde(ik) N_k = I
        spec = problems.scalar_full()
        table, inv = inverse(spec, 32)
        ik = (1j * table.modes)[:, None, None]
        neutral, N = matrices(table.neutral), matrices(inv)
        lhs = (np.matmul(neutral, ik * N)
               - np.matmul(np.matmul(spec.state_matrix, neutral), N)
               - np.matmul(matrices(table.G), N) - table.a[:, None, None] * N)
        eye = np.eye(spec.dim)
        assert np.max(np.abs(lhs - eye[None])) <= 1e-10

    def test_resolvent_ik_is_ik_times_resolvent(self):
        # the S row is the sup over |k| <= window of || ik N_k ||
        spec = problems.scalar_full()
        window = 16
        table, inv = inverse(spec, window)
        expected = np.max(np.abs(1j * table.modes * inv[0, 0]))
        assert report_row(m_bounded_diagnostics(spec, window), "S")["sup_norm"] == expected


TELESCOPING_CASES = [
    pytest.param(ProblemSpec(state_matrix=[[-1.0]], truncation=2, grid=8), 12, 1e-13,
                 id="no_delays"),
    pytest.param(problems.scalar_full(), 17, 1e-12, id="scalar_full"),
    pytest.param(ProblemSpec(state_matrix=[[-1.0]], kernel=KernelSpec(terms=[(1.0, 0, 1.0)]),
                             truncation=2, grid=8), 65, 1e-12, id="exponential_kernel"),
] + [pytest.param(spec, 65, 1e-11, id=name)
     for name, spec in problems.regression_specs().items()]


@pytest.mark.parametrize("spec, bandwidth, tol", TELESCOPING_CASES)
def test_nonstate_part_telescopes(spec, bandwidth, tol):
    # k (C_k - C_{k+1}) = -ik I + ik L_{k+1} + ik Q_k + R_k + P_k I for every
    # mode but the last, C_k the non-state part and P, Q, R its k-scaled
    # differences, all read from one table
    table = ModeSymbols.from_spec(spec, bandwidth)
    k = table.modes[:-1]
    P = k * (table.a[1:] - table.a[:-1])
    Q = k * (table.L[..., 1:] - table.L[..., :-1])
    R = k * (table.G[..., 1:] - table.G[..., :-1])
    eye = np.eye(spec.dim)[:, :, None]
    nonstate = table.nonstate()
    lhs = k * (nonstate[..., :-1] - nonstate[..., 1:])
    rhs = -1j * k * eye + 1j * k * table.L[..., 1:] + 1j * k * Q + R + P * eye
    assert np.max(resolvent._operator_norms(lhs - rhs)) <= tol


class TestDifferenceRows:
    """P, Q, R and B are k (X_{k+1} - X_k) of atilde, L and G, and A Q."""

    def test_period_lag_differences_vanish(self):
        spec = ProblemSpec(
            state_matrix=[[-1.0]],
            neutral_delay=DelayFunctional(dim=1, atoms=[(0.5, TWO_PI)]),
            truncation=4,
            grid=16,
        )
        table = ModeSymbols.from_spec(spec, 13)
        assert np.all(resolvent._scaled_difference(table.modes, table.L) == 0.0)
        report = m_bounded_diagnostics(spec, 32)
        for name in ("Q", "B"):
            assert report_row(report, name)["sup_norm"] == 0.0
            assert report_row(report, name)["sup_scaled_diff"] == 0.0
        assert report_row(report, "L")["sup_scaled_diff"] == 0.0

    def test_half_period_lag_difference_grows_linearly(self):
        spec = ProblemSpec(
            state_matrix=[[-1.0]],
            neutral_delay=DelayFunctional(dim=1, atoms=[(1.0, np.pi)]),
            truncation=4,
            grid=16,
        )
        table = ModeSymbols.from_spec(spec, 16)
        neutral = resolvent._scaled_difference(table.modes, table.L)
        assert neutral.shape == (1, 1, 32)
        assert np.abs(neutral[0, 0]) == pytest.approx(
            2.0 * np.abs(np.arange(-16, 16)), abs=1e-10
        )

    def test_exponential_kernel_difference_closed_form(self):
        # A = -2 keeps M(0) = 1 invertible; the symbols do not depend on A
        spec = ProblemSpec(
            state_matrix=[[-2.0]], kernel=KernelSpec(terms=[(1.0, 0, 1.0)]),
            truncation=4, grid=16,
        )
        table = ModeSymbols.from_spec(spec, 31)
        kernel = resolvent._scaled_difference(table.modes, table.a[None, None])[0, 0]
        k = table.modes[:-1]
        closed = -1j * k / ((1.0 + 1j * k) * (1.0 + 1j * (k + 1)))
        assert kernel == pytest.approx(closed, abs=1e-14)
        assert np.all(np.abs(kernel) <= 1.0 + 1e-15)
        window = 30
        inside = np.abs(k) <= window
        assert report_row(m_bounded_diagnostics(spec, window), "P")["sup_norm"] == pytest.approx(
            np.max(np.abs(closed[inside])), rel=1e-14)

    def test_state_difference_is_state_matrix_times_neutral(self, rng):
        A = rng.normal(size=(2, 2))
        spec = ProblemSpec(
            state_matrix=A,
            neutral_delay=DelayFunctional(
                dim=2, atoms=[(rng.normal(size=(2, 2)), 1.0)]
            ),
            truncation=4,
            grid=16,
        )
        window = 8
        table = ModeSymbols.from_spec(spec, window + 1)
        k = table.modes[1:-1]
        neutral = k * (table.L[..., 2:] - table.L[..., 1:-1])
        report = m_bounded_diagnostics(spec, window)
        assert report_row(report, "Q")["sup_norm"] == pytest.approx(
            np.max(_svd_norms(neutral)), rel=1e-14)
        assert report_row(report, "B")["sup_norm"] == pytest.approx(
            np.max(_svd_norms(np.moveaxis(A @ matrices(neutral), 0, -1))), rel=1e-14)


class TestDiagnostics:
    def test_plain_scalar_all_rows_bounded(self):
        report = m_bounded_diagnostics(problems.scalar_basic(), 256)
        for row in report["rows"]:
            assert row["verdict"] == "bounded", row["name"]

    def test_lag_pi_neutral_row_grows_linearly(self):
        report = m_bounded_diagnostics(problems.scalar_lag_pi(), 256)
        row = report_row(report, "Q")
        assert row["verdict"] == "growing"
        assert 0.9 <= row["growth_exponent"] <= 1.1
        # |Q_k| = |k| for the half-strength atom
        assert row["sup_norm"] == pytest.approx(256.0, rel=1e-12)

    def test_zero_problem_difference_rows_vanish(self):
        spec = ProblemSpec(state_matrix=[[-1.0]], truncation=2, grid=8)
        report = m_bounded_diagnostics(spec, 64)
        for name in ("P", "Q", "R", "B"):
            assert report_row(report, name)["sup_norm"] == 0.0
            assert report_row(report, name)["verdict"] == "bounded"

    def test_small_window_is_inconclusive(self):
        report = m_bounded_diagnostics(problems.scalar_basic(), 8)
        assert all(row["verdict"] == "inconclusive" for row in report["rows"])

    def test_nice_family_reflects_solvability(self):
        # bounded sequence hypotheses plus invertibility push the inverted
        # rows to bounded as well
        report = m_bounded_diagnostics(problems.scalar_full(), 256)
        assert all(row["verdict"] == "bounded" for row in report["rows"])

    def test_growing_verdict_stable_under_window_growth(self):
        # incommensurate lag 1.0: scaled differences grow linearly
        spec = ProblemSpec(
            state_matrix=[[-1.0]],
            neutral_delay=DelayFunctional(dim=1, atoms=[(0.5, 1.0)]),
            truncation=4,
            grid=16,
        )
        verdicts = [
            report_row(m_bounded_diagnostics(spec, w), "Q")["verdict"]
            for w in (64, 128, 256)
        ]
        assert verdicts == ["growing"] * 3

    def test_report_serialization_schema(self):
        doc = m_bounded_diagnostics(problems.scalar_basic(), 32)
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
        assert report_row(report, "L")["sup_scaled_diff"] == pytest.approx(
            report_row(report, "Q")["sup_norm"], rel=1e-12
        )
        # and is read from it, as are those of G (row R) and a_tilde (row P)
        spec = problems.mat2_sampled()
        window = 40
        report = m_bounded_diagnostics(spec, window)
        table = ModeSymbols.from_spec(spec, window + 1)
        ks = table.modes[:-1]
        for raw, diff, stack in (("L", "Q", table.L), ("G", "R", table.G),
                                 ("a_tilde", "P", table.a[None, None])):
            scaled = report_row(report, raw)["sup_scaled_diff"]
            assert scaled == report_row(report, diff)["sup_norm"], raw
            direct = np.abs(ks) * np.linalg.norm(stack[..., 1:] - stack[..., :-1], ord=2,
                                                 axis=(0, 1))
            assert scaled == pytest.approx(
                np.max(direct[np.abs(ks) <= window]), rel=1e-14), raw

    @pytest.mark.parametrize("window", [1, 2, 17])
    def test_edge_windows_match_a_per_mode_computation(self, regression_specs, window):
        # every sequence built mode by mode from the table, with its own
        # inverse and SVD norms, at the windows where the band is smallest;
        # at W = 17 the per-|k| profile also fixes the fitted exponent
        for name, spec in regression_specs.items():
            table = ModeSymbols.from_spec(spec, window + 2)
            modal = table.modal(spec.state_matrix)
            index = {int(k): i for i, k in enumerate(table.modes)}

            def sequence(label, k):
                i = index[k]
                if label in "NSTF":
                    inv = np.linalg.inv(modal[..., i])
                    factor = {"N": np.eye(spec.dim), "S": 1j * k * np.eye(spec.dim),
                              "T": table.G[..., i], "F": table.a[i] * np.eye(spec.dim)}
                    return factor[label] @ inv
                if label in "PQRB":
                    raw = {"P": table.a[None, None], "Q": table.L, "R": table.G,
                           "B": stacked(np.matmul(spec.state_matrix, matrices(table.L)))}[label]
                    return k * (raw[..., i + 1] - raw[..., i])
                raw = {"L": table.L, "G": table.G, "a_tilde": table.a[None, None]}[label]
                return raw[..., i]

            def norm(x):
                return np.linalg.svd(x, compute_uv=False)[0]

            report = m_bounded_diagnostics(spec, window)
            ks = range(-window, window + 1)
            for row in report["rows"]:
                label = row["name"]
                sup = max(norm(sequence(label, k)) for k in ks)
                scaled = max(abs(k) * norm(sequence(label, k + 1) - sequence(label, k))
                             for k in ks)
                profile = np.array([max(norm(sequence(label, j)), norm(sequence(label, -j)))
                                    for j in range(window + 1)])
                verdict, exponent = resolvent._verdict(window, profile)
                np.testing.assert_allclose(
                    [row["sup_norm"], row["sup_scaled_diff"]], [sup, scaled],
                    rtol=1e-13, atol=0.0, err_msg=f"{name} {label} W={window}")
                # a flat profile fits a slope of round-off size
                if np.isnan(exponent):
                    assert row["growth_exponent"] is None
                else:
                    assert row["growth_exponent"] == pytest.approx(exponent, abs=1e-12)
                assert row["verdict"] == verdict, (name, label, window)

    def test_one_svd_stack_per_matrix_row_and_difference(self, monkeypatch):
        # n = 2: norms of N S T F Q R B L G on the 2W + 2 rows of the band
        # and scaled differences of N S T F Q R B on its first 2W + 1; the L
        # and G differences are the Q and R norms.
        # The 2 x 2 norms are in closed form: no SVD runs.
        norms = resolvent._operator_norms
        sizes = []

        def counted(stack):
            if len(stack) == 2:
                sizes.append(stack.shape[-1])
            return norms(stack)

        def no_svd(*args, **kwargs):
            raise AssertionError("np.linalg.svd called")

        monkeypatch.setattr(resolvent, "_operator_norms", counted)
        monkeypatch.setattr(np.linalg, "svd", no_svd)
        window = 24
        m_bounded_diagnostics(problems.mat2_sampled(), window)
        assert sum(sizes) == 9 * (2 * window + 2) + 7 * (2 * window + 1)


class TestVerdict:
    """The fit and the classification on per-|k| norm profiles made by hand."""

    def test_window_below_one_is_rejected(self):
        with pytest.raises(ValueError, match="window must be >= 1"):
            m_bounded_diagnostics(problems.scalar_basic(), 0)

    def test_fractional_window_is_rejected_where_it_enters(self):
        # 16.0 used to fail on a slice inside the diagnostics
        with pytest.raises(TypeError, match="as an integer"):
            m_bounded_diagnostics(problems.scalar_basic(), 16.0)
        assert m_bounded_diagnostics(problems.scalar_basic(), np.int64(16))["window"] == 16

    def test_one_nonzero_entry_in_the_fit_window_has_no_exponent(self):
        # the fit runs over |k| = 16..32; one nonzero entry there leaves
        # nothing to fit, so the exponent is NaN and the verdict inconclusive
        profile = np.zeros(33)
        profile[[3, 10, 20]] = 1.0
        assert np.isnan(resolvent._growth_exponent(32, profile))
        verdict, exponent = resolvent._verdict(32, profile)
        assert verdict == "inconclusive" and np.isnan(exponent)

    def test_an_exact_tie_of_tail_and_twice_mid_is_inconclusive(self):
        # mid sup (|k| = 8..15) is 15 and tail sup (|k| = 16..32) is 30
        # exactly: inconclusive although the profile grows like |k| up to 30
        profile = np.minimum(np.arange(33.0), 30.0)
        verdict, exponent = resolvent._verdict(32, profile)
        assert exponent >= 0.5
        assert verdict == "inconclusive"
        profile[-1] = 31.0
        assert resolvent._verdict(32, profile)[0] == "growing"

    def test_slope_is_the_least_squares_fit(self, rng):
        x = np.log(np.arange(16.0, 33.0))
        assert resolvent._slope(x, 3.0 * x - 2.0) == pytest.approx(3.0, rel=1e-14)
        y = 0.5 * x + 0.1 * rng.standard_normal(x.size)
        assert resolvent._slope(x, y) == pytest.approx(np.polyfit(x, y, 1)[0], rel=1e-12)


def _svd_norms(stack):
    return np.linalg.svd(matrices(stack), compute_uv=False)[:, 0]


def _near_isotropic(rng, m, dtype):
    """Random U diag(1, 1 - 1e-9) V with unitary (or orthogonal) U and V."""
    def unitary():
        z = rng.standard_normal((m, 2, 2))
        if dtype is complex:
            z = z + 1j * rng.standard_normal((m, 2, 2))
        return np.linalg.qr(z)[0]
    return stacked(unitary() @ np.diag([1.0, 1.0 - 1e-9]) @ unitary())


class TestOperatorNorms:
    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("kind", ["random", "near_isotropic", "rank_one"])
    @pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150, 1e200, 1e-200])
    def test_two_by_two_closed_form_matches_the_svd(self, dtype, kind, scale):
        # against a 40-digit reference the closed form is within 1 eps and
        # LAPACK's SVD within about 3.6 eps, so on stacks of many thousand
        # matrices the two can differ by slightly more than this bound
        rng = np.random.default_rng(7)
        m = 200
        if kind == "near_isotropic":
            stack = _near_isotropic(rng, m, dtype)
        else:
            stack = rng.standard_normal((2, 2, m))
            if dtype is complex:
                stack = stack + 1j * rng.standard_normal((2, 2, m))
            if kind == "rank_one":
                stack[:, 1] = stack[:, 0] * rng.standard_normal(m)
        stack = scale * stack
        assert np.all(np.isfinite(stack))
        expected = _svd_norms(stack)
        np.testing.assert_allclose(resolvent._operator_norms(stack), expected,
                                   rtol=4 * np.finfo(float).eps, atol=0.0)

    def test_zero_matrix_has_norm_zero(self):
        for dtype in (float, complex):
            assert np.array_equal(resolvent._operator_norms(np.zeros((2, 2, 3), dtype)),
                                  np.zeros(3))

    @pytest.mark.parametrize("n", [1, 3, 4])
    def test_all_zero_stack_of_any_size_takes_no_svd(self, monkeypatch, n):
        def no_svd(*args, **kwargs):
            raise AssertionError("np.linalg.svd called")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        for dtype in (float, complex):
            norms = resolvent._operator_norms(np.zeros((n, n, 5), dtype))
            assert norms.dtype == np.float64 and np.array_equal(norms, np.zeros(5))

    def test_larger_matrices_take_the_svd(self):
        rng = np.random.default_rng(3)
        stack = rng.standard_normal((3, 3, 50)) + 1j * rng.standard_normal((3, 3, 50))
        np.testing.assert_array_equal(resolvent._operator_norms(stack), _svd_norms(stack))


def _scaled_norms(stack):
    """The n = 2 closed form with each matrix first scaled by the power of two
    2^(e-1) next below its largest entry, e from frexp, so that its largest
    entry lies in [1, 2).  Real and imaginary parts are divided apart, so
    the scaling is exact also where 1/scale is beyond the float range."""
    scale = np.ldexp(1.0, np.frexp(np.max(np.abs(stack), axis=(0, 1)))[1] - 1)
    unit = stack.real / scale + 1j * (stack.imag / scale)
    squares = np.square(unit.real) + np.square(unit.imag)
    p = squares[0, 0] + squares[1, 0]
    r = squares[0, 1] + squares[1, 1]
    q = np.abs(np.conj(unit[0, 0]) * unit[0, 1] + np.conj(unit[1, 0]) * unit[1, 1])
    return scale * np.sqrt(0.5 * (p + r) + np.hypot(0.5 * (p - r), q))


def _scaled_stack(rng, m, dtype, exponents):
    """m random 2 x 2 matrices, rank-one and isotropic ones among them, each
    multiplied exactly by 2^e for every e of ``exponents`` (real and imaginary
    parts scaled apart, so no complex product rounds them), as a (2, 2, m)
    stack."""
    def part():
        base = rng.standard_normal((m, 2, 2))
        base[: m // 4, :, 1] = base[: m // 4, :, 0] * 0.75
        base[m // 4: m // 2] = [[1.0, 0.0], [0.0, 1.0]]
        return np.ldexp(base[None], np.asarray(exponents)[:, None, None, None])
    stack = part()
    if dtype is complex:
        stack = stack + 1j * part()
    return stacked(stack.reshape(-1, 2, 2))


class TestUnscaledOperatorNorms:
    """The n = 2 norms are taken on the entries as they are; every one must be
    bit for bit the norm of the matrix scaled by a power of two."""

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_every_scale_from_2_to_the_minus_1000_to_2_to_the_1000(self, dtype):
        stack = _scaled_stack(np.random.default_rng(11), 12, dtype, range(-1000, 1001))
        np.testing.assert_array_equal(resolvent._operator_norms(stack),
                                      _scaled_norms(stack))

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_scales_at_the_edges_of_the_unscaled_range(self, dtype):
        edges = [e + d for e in (-1022, -1000, -450, 0, 450, 1000, 1020) for d in (-2, -1, 0, 1)]
        stack = _scaled_stack(np.random.default_rng(12), 40, dtype, edges)
        np.testing.assert_array_equal(resolvent._operator_norms(stack),
                                      _scaled_norms(stack))

    def test_zero_matrices_beside_others(self):
        for dtype in (float, complex):
            stack = _scaled_stack(np.random.default_rng(13), 8, dtype, [-1040, 0, 1010])
            stack[..., ::3] = 0.0
            norms = resolvent._operator_norms(stack)
            np.testing.assert_array_equal(norms, _scaled_norms(stack))
            assert np.all(norms[::3] == 0.0)

    def test_rows_with_subnormal_entries(self):
        tiny = np.finfo(float).smallest_subnormal
        rows = stacked([
            [[tiny, 0.0], [0.0, 0.0]],
            [[tiny, tiny], [-tiny, tiny]],
            [[3 * tiny, 0.0], [7 * tiny, 2.0**-1060]],
            [[1.0, tiny], [tiny, 1.0]],
            [[1.0, 2.0**-1030], [0.0, 2.0**-1050]],
            [[2.0**-1000, 3 * tiny], [0.0, 2.0**-1022]],
            [[0.0, 2.0**-1022 * (1 - 2.0**-52)], [0.0, 0.0]],
        ])
        rng = np.random.default_rng(14)
        random = np.ldexp(rng.standard_normal((2, 2, 64)), rng.integers(-1080, -1020, (2, 2, 64)))
        for stack in (rows, random, rows * (1 - 1j), random + 1j * random[..., ::-1]):
            np.testing.assert_array_equal(resolvent._operator_norms(stack),
                                          _scaled_norms(stack))
        # a complex stack of such entries is scaled exactly, as a real one is
        norms = resolvent._operator_norms(rows.astype(complex))
        assert np.all(norms > 0.0)
        np.testing.assert_array_equal(norms, resolvent._operator_norms(rows))

    def test_mixed_magnitudes_in_one_matrix(self):
        rng = np.random.default_rng(15)
        m = 500
        exponents = rng.choice([400, -600, 449, -451, 0, -1070, 1000], size=(2, 2, m))
        mantissas = rng.standard_normal((2, 2, m))
        stack = np.ldexp(mantissas, exponents)
        fixed = stacked([[[2.0**400, 2.0**-600], [2.0**-600, 2.0**400]],
                         [[2.0**400, 2.0**400], [2.0**-600, 2.0**-600]],
                         [[2.0**-600, 0.0], [2.0**400, 0.0]],
                         [[2.0**449, 2.0**449], [2.0**449, 2.0**449]]])
        for stack in (np.concatenate([stack, fixed], axis=-1),
                      stack + 1j * np.ldexp(mantissas[..., ::-1], exponents)):
            np.testing.assert_array_equal(resolvent._operator_norms(stack),
                                          _scaled_norms(stack))

    def test_only_rows_outside_the_range_are_computed_again(self, monkeypatch):
        seen = []
        closed_form = resolvent._largest_singular_value
        monkeypatch.setattr(resolvent, "_largest_singular_value",
                            lambda stack: seen.append(stack.shape[-1]) or closed_form(stack))
        stack = _scaled_stack(np.random.default_rng(16), 8, complex, [0, 600, 0])
        stack[..., ::5] = 0.0
        resolvent._operator_norms(stack)
        assert seen == [24, np.count_nonzero(stack[..., 8:16].any(axis=(0, 1)))]
        seen.clear()
        # an all-zero stack is recognised whole: no row is computed at all
        assert np.array_equal(resolvent._operator_norms(np.zeros((2, 2, 10), complex)),
                              np.zeros(10))
        assert seen == []


def _conditioned(rng, cond, m):
    """m random complex U diag(1, 1/cond) V, U and V unitary: 2-norm
    condition number ``cond``, as a (2, 2, m) stack."""
    def unitary():
        return np.linalg.qr(rng.standard_normal((m, 2, 2))
                            + 1j * rng.standard_normal((m, 2, 2)))[0]
    return stacked(unitary() @ np.diag([1.0, 1.0 / cond]) @ unitary())


class TestClosedFormInverse:
    """``_inverse_and_condition``: a reciprocal for n = 1, the adjugate over
    the determinant for n = 2, LAPACK for n >= 3."""

    @pytest.mark.parametrize("cond", [1e2, 1e4, 1e6, 1e8, 1e10, 1e12])
    def test_accuracy_against_lapack(self, cond):
        # measured on 2,000 matrices for each of seeds 0-4: max ||M X - I||_2
        # is at most 0.77 cond eps here and 1.07 cond eps for LAPACK's
        # inverse, and the condition numbers agree to 0.45 cond eps
        eps = np.finfo(float).eps
        stack = _conditioned(np.random.default_rng(5), cond, 2000)
        inverse, condition = resolvent._inverse_and_condition(stack)
        lapack = np.linalg.inv(matrices(stack))

        def defect(x):
            return np.max(np.linalg.norm(matrices(stack) @ x - np.eye(2), 2, axis=(1, 2)))

        assert defect(matrices(inverse)) <= min(cond * eps, 1.25 * defect(lapack))
        np.testing.assert_allclose(condition, np.linalg.cond(matrices(stack), 1),
                                   rtol=cond * eps, atol=0.0)

    @pytest.mark.parametrize("exponent", [600, -600])
    def test_scaling_by_a_power_of_two_keeps_the_condition_bit_for_bit(self, exponent):
        # every matrix is scaled to a largest entry in [1/2, 1) first; without
        # that, det would overflow (2^1200) or underflow to 0 (2^-1200)
        stack = _conditioned(np.random.default_rng(6), 1e6, 500)
        inverse, condition = resolvent._inverse_and_condition(stack)
        scaled = np.ldexp(stack.real, exponent) + 1j * np.ldexp(stack.imag, exponent)
        scaled_inverse, scaled_condition = resolvent._inverse_and_condition(scaled)
        assert np.array_equal(scaled_condition, condition)
        assert np.array_equal(scaled_inverse.real, np.ldexp(inverse.real, -exponent))
        assert np.array_equal(scaled_inverse.imag, np.ldexp(inverse.imag, -exponent))

    def test_a_determinant_that_underflows_is_not_singular(self):
        # M(0) = -A of the CLI's OVERFLOW case, A = -1e-300 I: det = 1e-600
        modal = stacked([[[1e-300, 0.0], [0.0, 1e-300]], [[1.0, 2.0], [3.0, 4.0]]])
        inverse, condition = resolvent._checked_inverse(np.arange(2), modal.astype(complex),
                                                        1e12)
        np.testing.assert_allclose(inverse[..., 0], np.eye(2) * 1e300, rtol=1e-15)
        assert condition[0] == 1.0
        np.testing.assert_allclose(inverse[..., 1], [[-2.0, 1.0], [1.5, -0.5]], rtol=1e-15)
        assert condition[1] == 6.0 * 7.0 / 2.0

    def test_one_by_one_is_a_reciprocal(self):
        stack = np.array([[[2.0, -0.5j, 1e-300, 3.0 + 4.0j, 0.0, np.inf, np.nan, 1e-310]]])
        inverse, condition = resolvent._inverse_and_condition(stack)
        assert np.array_equal(inverse[..., :4], 1.0 / stack[..., :4])
        assert np.array_equal(condition, [1.0, 1.0, 1.0, 1.0, np.inf, np.inf, np.nan, np.inf],
                              equal_nan=True)
        with pytest.raises(SingularModeError) as err:
            resolvent._checked_inverse(np.arange(8), stack, 1e12)
        assert err.value.modes == [4, 5, 6, 7]

    def test_an_inverse_beyond_the_float_range_is_rejected(self):
        # 1e-310 I and 1e-310 [[1, 1], [0, 1]] have condition numbers 1 and
        # 4, but their inverses overflow: an infinite condition number, as
        # for LAPACK's inverse, whose 1-norm is infinite
        stack = stacked(np.array([1e-310 * np.eye(2), [[1e-310, 1e-310], [0.0, 1e-310]],
                                  1e-300 * np.eye(2)], dtype=complex))
        inverse, condition = resolvent._inverse_and_condition(stack)
        assert condition[0] == np.inf and condition[1] == np.inf
        assert condition[2] == 1.0
        np.testing.assert_allclose(inverse[..., 2], 1e300 * np.eye(2), rtol=1e-15)
        with pytest.raises(SingularModeError) as err:
            resolvent._checked_inverse(np.arange(3), stack, np.inf)
        assert err.value.modes == [0, 1]

    def test_three_by_three_takes_lapack(self, rng):
        stack = rng.normal(size=(3, 3, 40)) + 1j * rng.normal(size=(3, 3, 40))
        inverse, condition = resolvent._inverse_and_condition(stack)
        assert np.array_equal(matrices(inverse), np.linalg.inv(matrices(stack)))
        assert np.array_equal(condition, np.linalg.cond(matrices(stack), 1))
        stack[..., 7] = 0.0
        inverse, condition = resolvent._inverse_and_condition(stack)
        assert inverse is None
        assert condition[7] == np.inf and np.all(np.isfinite(np.delete(condition, 7)))


#: entries the mode-by-mode checks draw from, beside standard normal ones
SPECIAL = [0.0, -0.0, 5e-324, -3e-310, 2.0**-1060, np.inf, -np.inf, np.nan, 1e300, -1e-300]


def _special_stack(rng, shape, finite=False):
    """A complex stack with a third of its real and imaginary parts drawn
    from SPECIAL (its finite entries alone if ``finite``)."""
    pool = [x for x in SPECIAL if np.isfinite(x)] if finite else SPECIAL
    parts = rng.standard_normal((2, *shape))
    mask = rng.random(parts.shape) < 0.3
    parts[mask] = rng.choice(pool, np.count_nonzero(mask))
    stack = np.empty(shape, dtype=complex)
    stack.real, stack.imag = parts
    return stack


def _assert_bits_equal(got, expected, what):
    """Every float of two arrays equal bit for bit, signed zeros included;
    a NaN matches any NaN, since no operation fixes its sign or payload."""
    assert got.shape == expected.shape and got.dtype == expected.dtype, what
    got, expected = (np.atleast_1d(x).view(np.float64) if np.iscomplexobj(x)
                     else np.atleast_1d(x).astype(np.float64) for x in (got, expected))
    same = (got.view(np.int64) == expected.view(np.int64)) | (np.isnan(got) & np.isnan(expected))
    assert np.all(same), what


class TestModeByMode:
    """Each mode of a (n, n, m) stack is computed from that mode alone: the
    whole stack's values at mode k are bit for bit those of the one-mode
    stack k, special entries too."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_mode_is_its_own_one_mode_stack(self, n):
        rng = np.random.default_rng(40 + n)
        m = 96
        modes = np.arange(-m // 2, m - m // 2)
        x, y = _special_stack(rng, (n, n, m)), _special_stack(rng, (n, n, m))
        # LAPACK's SVD does not converge on a non-finite matrix, whole or alone
        lapack = _special_stack(rng, (n, n, m), finite=n >= 3)
        L, G = _special_stack(rng, (n, n, m)), _special_stack(rng, (n, n, m))
        a = _special_stack(rng, (m,))
        A = rng.standard_normal((n, n))
        ahead = _special_stack(rng, (n, n, m + 1))
        ahead_modes = np.arange(-m // 2, m + 1 - m // 2)
        cases = {
            "product": lambda k: _stack_product(x[..., k], y[..., k]),
            "state product": lambda k: _stack_product(A, y[..., k]),
            "modal": lambda k: ModeSymbols(modes[k], L[..., k], G[..., k], a[k]).modal(A),
            "inverse": lambda k: resolvent._inverse_and_condition(lapack[..., k])[0],
            "condition": lambda k: resolvent._inverse_and_condition(lapack[..., k])[1],
            "norms": lambda k: resolvent._operator_norms(lapack[..., k]),
            "difference": lambda k: resolvent._scaled_difference(
                ahead_modes[k.start:k.stop + 1], ahead[..., k.start:k.stop + 1]),
        }
        with np.errstate(all="ignore"):
            for what, compute in cases.items():
                whole = compute(slice(0, m))
                if whole is None:  # an exactly singular n >= 3 matrix stops LAPACK's inverse
                    continue
                for k in range(m):
                    _assert_bits_equal(compute(slice(k, k + 1)), whole[..., k:k + 1],
                                       f"{what} n={n} mode {k}")
