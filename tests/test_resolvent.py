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
    laplace_symbol,
    m_bounded_diagnostics,
    mode_range,
    resolvent,
)

TWO_PI = 2.0 * np.pi


def inverse(spec, window):
    """(symbol table, M(k)^{-1}) on |k| <= window, through the one condition test."""
    table = ModeSymbols.from_spec(spec, window)
    inv, _ = resolvent._checked_inverse(table.modes, table.modal(spec.state_matrix),
                                        resolvent.COND_LIMIT)
    return table, inv


def inversion_defect(spec, window):
    """max_k || M(k) M(k)^{-1} - I ||, the inversion defect over the window."""
    table, inv = inverse(spec, window)
    defect = np.matmul(table.modal(spec.state_matrix), inv) - np.eye(spec.dim)[None]
    return float(np.max(resolvent._operator_norms(defect)))


def report_row(report, name):
    """The row of a boundedness report for the sequence ``name``."""
    [found] = [r for r in report.rows if r.name == name]
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
        table, inv = inverse(spec, 256)
        ks = table.modes
        closed = 1.0 / (1.0 + 1j * ks)
        assert np.max(np.abs(inv[:, 0, 0] - closed)) < 1e-12
        scaled = 1j * ks / (1.0 + 1j * ks)
        assert np.max(np.abs(1j * ks * inv[:, 0, 0] - scaled)) < 1e-12
        sup_scaled = report_row(m_bounded_diagnostics(spec, 256), "S").sup_norm
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
        assert np.max(np.abs(inv[:, 0, 0] - closed)) < 1e-12

    def test_diagonal_two_by_two_closed_form(self):
        spec = problems.mat2_diag()
        table, inv = inverse(spec, 64)
        ks = table.modes
        a = np.array([laplace_symbol(spec.kernel, int(k)) for k in ks])
        for i, k in enumerate(ks):
            expected = np.diag([1.0 / (1j * k + 1.0 - a[i]),
                                1.0 / (1j * k + 2.0 - a[i])])
            assert np.allclose(inv[i], expected, atol=1e-12)
            # off-diagonal entries stay numerically zero
            assert abs(inv[i][0, 1]) < 1e-15

    def test_singular_mode_reported_with_condition(self):
        spec = ProblemSpec(state_matrix=[[0.0]], truncation=2, grid=8)
        with pytest.raises(SingularModeError) as err:
            inverse(spec, 4)
        assert 0 in err.value.modes

    def test_condition_is_read_off_the_one_inverse(self, rng):
        stack = rng.normal(size=(8193, 2, 2)) + 1j * rng.normal(size=(8193, 2, 2))
        inv, condition = resolvent._checked_inverse(mode_range(4096), stack, np.inf)
        assert np.array_equal(inv, np.linalg.inv(stack))
        assert np.array_equal(condition, np.linalg.cond(stack, 1))

    def test_zero_and_overflowing_matrices_are_rejected_without_a_warning(self):
        # an all-zero M(k) stops the batched inversion; a finite one whose
        # ||M||_1 ||M^{-1}||_1 overflows is rejected all the same
        overflow = np.tile(np.eye(2, dtype=complex), (5, 1, 1))
        overflow[3] = np.diag([1e300, 1e-300])
        zero = overflow.copy()
        zero[1] = 0.0
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
                assert np.allclose(inv[K - k], np.conj(inv[K + k]), atol=1e-12), name

    def test_stored_identity_from_parts(self):
        # D_k (ik N_k) - A D_k N_k - T_k - atilde(ik) N_k = I
        spec = problems.scalar_full()
        table, inv = inverse(spec, 32)
        ik = (1j * table.modes)[:, None, None]
        lhs = (np.matmul(table.neutral, ik * inv)
               - np.matmul(np.matmul(spec.state_matrix, table.neutral), inv)
               - np.matmul(table.G, inv) - table.a[:, None, None] * inv)
        eye = np.eye(spec.dim)
        assert np.max(np.abs(lhs - eye[None])) <= 1e-10

    def test_resolvent_ik_is_ik_times_resolvent(self):
        # the S row is the sup over |k| <= window of || ik N_k ||
        spec = problems.scalar_full()
        window = 16
        table, inv = inverse(spec, window)
        expected = np.max(np.abs(1j * table.modes * inv[:, 0, 0]))
        assert report_row(m_bounded_diagnostics(spec, window), "S").sup_norm == expected


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
    k = table.modes[:-1, None, None]
    P = k * (table.a[1:] - table.a[:-1])[:, None, None]
    Q = k * (table.L[1:] - table.L[:-1])
    R = k * (table.G[1:] - table.G[:-1])
    eye = np.eye(spec.dim)[None]
    nonstate = table.nonstate()
    lhs = k * (nonstate[:-1] - nonstate[1:])
    rhs = -1j * k * eye + 1j * k * table.L[1:] + 1j * k * Q + R + P * eye
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
            assert report_row(report, name).sup_norm == 0.0
            assert report_row(report, name).sup_scaled_diff == 0.0
        assert report_row(report, "L").sup_scaled_diff == 0.0

    def test_half_period_lag_difference_grows_linearly(self):
        spec = ProblemSpec(
            state_matrix=[[-1.0]],
            neutral_delay=DelayFunctional(dim=1, atoms=[(1.0, np.pi)]),
            truncation=4,
            grid=16,
        )
        table = ModeSymbols.from_spec(spec, 16)
        neutral = resolvent._scaled_difference(table.modes, table.L)
        assert neutral.shape == (32, 1, 1)
        assert np.abs(neutral[:, 0, 0]) == pytest.approx(
            2.0 * np.abs(np.arange(-16, 16)), abs=1e-10
        )

    def test_exponential_kernel_difference_closed_form(self):
        # A = -2 keeps M(0) = 1 invertible; the symbols do not depend on A
        spec = ProblemSpec(
            state_matrix=[[-2.0]], kernel=KernelSpec(terms=[(1.0, 0, 1.0)]),
            truncation=4, grid=16,
        )
        table = ModeSymbols.from_spec(spec, 31)
        kernel = resolvent._scaled_difference(table.modes, table.a[:, None, None])[:, 0, 0]
        k = table.modes[:-1]
        closed = -1j * k / ((1.0 + 1j * k) * (1.0 + 1j * (k + 1)))
        assert kernel == pytest.approx(closed, abs=1e-14)
        assert np.all(np.abs(kernel) <= 1.0 + 1e-15)
        window = 30
        inside = np.abs(k) <= window
        assert report_row(m_bounded_diagnostics(spec, window), "P").sup_norm == pytest.approx(
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
        k = table.modes[1:-1, None, None]
        neutral = k * (table.L[2:] - table.L[1:-1])
        report = m_bounded_diagnostics(spec, window)
        assert report_row(report, "Q").sup_norm == pytest.approx(
            np.max(_svd_norms(neutral)), rel=1e-14)
        assert report_row(report, "B").sup_norm == pytest.approx(
            np.max(_svd_norms(A @ neutral)), rel=1e-14)


class TestDiagnostics:
    def test_plain_scalar_all_rows_bounded(self):
        report = m_bounded_diagnostics(problems.scalar_basic(), 256)
        for row in report.rows:
            assert row.verdict == "bounded", row.name

    def test_lag_pi_neutral_row_grows_linearly(self):
        report = m_bounded_diagnostics(problems.scalar_lag_pi(), 256)
        row = report_row(report, "Q")
        assert row.verdict == "growing"
        assert 0.9 <= row.growth_exponent <= 1.1
        # |Q_k| = |k| for the half-strength atom
        assert row.sup_norm == pytest.approx(256.0, rel=1e-12)

    def test_zero_problem_difference_rows_vanish(self):
        spec = ProblemSpec(state_matrix=[[-1.0]], truncation=2, grid=8)
        report = m_bounded_diagnostics(spec, 64)
        for name in ("P", "Q", "R", "B"):
            assert report_row(report, name).sup_norm == 0.0
            assert report_row(report, name).verdict == "bounded"

    def test_small_window_is_inconclusive(self):
        report = m_bounded_diagnostics(problems.scalar_basic(), 8)
        assert all(row.verdict == "inconclusive" for row in report.rows)

    def test_nice_family_reflects_solvability(self):
        # bounded sequence hypotheses plus invertibility push the inverted
        # rows to bounded as well
        report = m_bounded_diagnostics(problems.scalar_full(), 256)
        assert all(row.verdict == "bounded" for row in report.rows)

    def test_growing_verdict_stable_under_window_growth(self):
        # incommensurate lag 1.0: scaled differences grow linearly
        spec = ProblemSpec(
            state_matrix=[[-1.0]],
            neutral_delay=DelayFunctional(dim=1, atoms=[(0.5, 1.0)]),
            truncation=4,
            grid=16,
        )
        verdicts = [
            report_row(m_bounded_diagnostics(spec, w), "Q").verdict
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
        assert report_row(report, "L").sup_scaled_diff == pytest.approx(
            report_row(report, "Q").sup_norm, rel=1e-12
        )
        # and is read from it, as are those of G (row R) and a_tilde (row P)
        spec = problems.mat2_sampled()
        window = 40
        report = m_bounded_diagnostics(spec, window)
        table = ModeSymbols.from_spec(spec, window + 1)
        ks = table.modes[:-1]
        for raw, diff, stack in (("L", "Q", table.L), ("G", "R", table.G),
                                 ("a_tilde", "P", table.a[:, None, None])):
            scaled = report_row(report, raw).sup_scaled_diff
            assert scaled == report_row(report, diff).sup_norm, raw
            direct = np.abs(ks) * np.linalg.norm(stack[1:] - stack[:-1], ord=2, axis=(1, 2))
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
                    inv = np.linalg.inv(modal[i])
                    factor = {"N": np.eye(spec.dim), "S": 1j * k * np.eye(spec.dim),
                              "T": table.G[i], "F": table.a[i] * np.eye(spec.dim)}
                    return factor[label] @ inv
                if label in "PQRB":
                    raw = {"P": table.a, "Q": table.L, "R": table.G,
                           "B": np.matmul(spec.state_matrix, table.L)}[label]
                    return k * np.atleast_2d(raw[i + 1] - raw[i])
                raw = {"L": table.L, "G": table.G, "a_tilde": table.a}[label]
                return np.atleast_2d(raw[i])

            def norm(x):
                return np.linalg.svd(x, compute_uv=False)[0]

            report = m_bounded_diagnostics(spec, window)
            ks = range(-window, window + 1)
            for row in report.rows:
                sup = max(norm(sequence(row.name, k)) for k in ks)
                scaled = max(abs(k) * norm(sequence(row.name, k + 1) - sequence(row.name, k))
                             for k in ks)
                profile = np.array([max(norm(sequence(row.name, j)),
                                        norm(sequence(row.name, -j)))
                                    for j in range(window + 1)])
                verdict, exponent = resolvent._verdict(window, profile)
                np.testing.assert_allclose(
                    [row.sup_norm, row.sup_scaled_diff], [sup, scaled],
                    rtol=1e-13, atol=0.0, err_msg=f"{name} {row.name} W={window}")
                # a flat profile fits a slope of round-off size
                assert row.growth_exponent == pytest.approx(exponent, abs=1e-12, nan_ok=True)
                assert row.verdict == verdict, (name, row.name, window)

    def test_one_svd_stack_per_matrix_row_and_difference(self, monkeypatch):
        # n = 2: norms of N S T F Q R B L G on the 2W + 2 rows of the band
        # and scaled differences of N S T F Q R B on its first 2W + 1; the L
        # and G differences are the Q and R norms.
        # The 2 x 2 norms are in closed form: no SVD runs.
        norms = resolvent._operator_norms
        matrices = []

        def counted(stack):
            if stack.shape[1] == 2:
                matrices.append(stack.shape[0])
            return norms(stack)

        def no_svd(*args, **kwargs):
            raise AssertionError("np.linalg.svd called")

        monkeypatch.setattr(resolvent, "_operator_norms", counted)
        monkeypatch.setattr(np.linalg, "svd", no_svd)
        window = 24
        m_bounded_diagnostics(problems.mat2_sampled(), window)
        assert sum(matrices) == 9 * (2 * window + 2) + 7 * (2 * window + 1)


def _svd_norms(stack):
    return np.linalg.svd(stack, compute_uv=False)[:, 0]


def _near_isotropic(rng, m, dtype):
    """Random U diag(1, 1 - 1e-9) V with unitary (or orthogonal) U and V."""
    def unitary():
        z = rng.standard_normal((m, 2, 2))
        if dtype is complex:
            z = z + 1j * rng.standard_normal((m, 2, 2))
        return np.linalg.qr(z)[0]
    return unitary() @ np.diag([1.0, 1.0 - 1e-9]) @ unitary()


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
            stack = rng.standard_normal((m, 2, 2))
            if dtype is complex:
                stack = stack + 1j * rng.standard_normal((m, 2, 2))
            if kind == "rank_one":
                stack[:, :, 1] = stack[:, :, 0] * rng.standard_normal((m, 1))
        stack = scale * stack
        assert np.all(np.isfinite(stack))
        expected = _svd_norms(stack)
        np.testing.assert_allclose(resolvent._operator_norms(stack), expected,
                                   rtol=4 * np.finfo(float).eps, atol=0.0)

    def test_zero_matrix_has_norm_zero(self):
        for dtype in (float, complex):
            assert np.array_equal(resolvent._operator_norms(np.zeros((3, 2, 2), dtype)),
                                  np.zeros(3))

    def test_larger_matrices_take_the_svd(self):
        rng = np.random.default_rng(3)
        stack = rng.standard_normal((50, 3, 3)) + 1j * rng.standard_normal((50, 3, 3))
        np.testing.assert_array_equal(resolvent._operator_norms(stack), _svd_norms(stack))


def _scaled_norms(stack):
    """The n = 2 closed form with each matrix first scaled by the power of two
    2^(e-1) next below its largest entry, e from frexp, so that its largest
    entry lies in [1, 2).  Real and imaginary parts are divided apart, so
    the scaling is exact also where 1/scale is beyond the float range."""
    scale = np.ldexp(1.0, np.frexp(np.max(np.abs(stack), axis=(1, 2)))[1] - 1)[:, None, None]
    unit = stack.real / scale + 1j * (stack.imag / scale)
    squares = np.square(unit.real) + np.square(unit.imag)
    p = squares[:, 0, 0] + squares[:, 1, 0]
    r = squares[:, 0, 1] + squares[:, 1, 1]
    q = np.abs(np.conj(unit[:, 0, 0]) * unit[:, 0, 1]
               + np.conj(unit[:, 1, 0]) * unit[:, 1, 1])
    return scale[:, 0, 0] * np.sqrt(0.5 * (p + r) + np.hypot(0.5 * (p - r), q))


def _scaled_stack(rng, m, dtype, exponents):
    """m random 2 x 2 matrices, rank-one and isotropic ones among them, each
    multiplied exactly by 2^e for every e of ``exponents`` (real and imaginary
    parts scaled apart, so no complex product rounds them)."""
    def part():
        base = rng.standard_normal((m, 2, 2))
        base[: m // 4, :, 1] = base[: m // 4, :, 0] * 0.75
        base[m // 4: m // 2] = [[1.0, 0.0], [0.0, 1.0]]
        return np.ldexp(base[None], np.asarray(exponents)[:, None, None, None])
    stack = part()
    if dtype is complex:
        stack = stack + 1j * part()
    return stack.reshape(-1, 2, 2)


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
            stack[::3] = 0.0
            norms = resolvent._operator_norms(stack)
            np.testing.assert_array_equal(norms, _scaled_norms(stack))
            assert np.all(norms[::3] == 0.0)

    def test_rows_with_subnormal_entries(self):
        tiny = np.finfo(float).smallest_subnormal
        rows = np.array([
            [[tiny, 0.0], [0.0, 0.0]],
            [[tiny, tiny], [-tiny, tiny]],
            [[3 * tiny, 0.0], [7 * tiny, 2.0**-1060]],
            [[1.0, tiny], [tiny, 1.0]],
            [[1.0, 2.0**-1030], [0.0, 2.0**-1050]],
            [[2.0**-1000, 3 * tiny], [0.0, 2.0**-1022]],
            [[0.0, 2.0**-1022 * (1 - 2.0**-52)], [0.0, 0.0]],
        ])
        rng = np.random.default_rng(14)
        random = np.ldexp(rng.standard_normal((64, 2, 2)), rng.integers(-1080, -1020, (64, 2, 2)))
        for stack in (rows, random, rows * (1 - 1j), random + 1j * random[::-1]):
            np.testing.assert_array_equal(resolvent._operator_norms(stack),
                                          _scaled_norms(stack))
        # a complex stack of such entries is scaled exactly, as a real one is
        norms = resolvent._operator_norms(rows.astype(complex))
        assert np.all(norms > 0.0)
        np.testing.assert_array_equal(norms, resolvent._operator_norms(rows))

    def test_mixed_magnitudes_in_one_matrix(self):
        rng = np.random.default_rng(15)
        m = 500
        exponents = rng.choice([400, -600, 449, -451, 0, -1070, 1000], size=(m, 2, 2))
        mantissas = rng.standard_normal((m, 2, 2))
        stack = np.ldexp(mantissas, exponents)
        fixed = np.array([[[2.0**400, 2.0**-600], [2.0**-600, 2.0**400]],
                          [[2.0**400, 2.0**400], [2.0**-600, 2.0**-600]],
                          [[2.0**-600, 0.0], [2.0**400, 0.0]],
                          [[2.0**449, 2.0**449], [2.0**449, 2.0**449]]])
        for stack in (np.concatenate([stack, fixed]),
                      stack + 1j * np.ldexp(mantissas[::-1], exponents)):
            np.testing.assert_array_equal(resolvent._operator_norms(stack),
                                          _scaled_norms(stack))

    def test_only_rows_outside_the_range_are_computed_again(self, monkeypatch):
        seen = []
        closed_form = resolvent._largest_singular_value
        monkeypatch.setattr(resolvent, "_largest_singular_value",
                            lambda stack: seen.append(len(stack)) or closed_form(stack))
        stack = _scaled_stack(np.random.default_rng(16), 8, complex, [0, 600, 0])
        stack[::5] = 0.0
        resolvent._operator_norms(stack)
        assert seen == [24, np.count_nonzero(stack[8:16].any(axis=(1, 2)))]
        seen.clear()
        resolvent._operator_norms(np.zeros((10, 2, 2), complex))
        assert seen == [10]
