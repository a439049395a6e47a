"""Dyadic partition, Besov norms, the derivative-shift and multiplier ratios
they give, and Parseval on the L^2 grid norm."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import problems

from specdde import (
    BesovParams,
    PeriodicGridFunction,
    analyze,
    besov_norm_report,
    mode_range,
    partition_eval,
    solve_periodic,
)
from specdde import besov
from specdde.besov import (
    _combine_blocks,
    _grids,
    _level_rows,
    _partition_weights,
    _real_rows,
    _seven_smooth,
)
from specdde.config import parse_config

TWO_PI = 2.0 * np.pi


def _single_mode(k, value=1.0, n_samples=64):
    coeffs = np.zeros(2 * abs(k) + 1, dtype=complex)
    coeffs[k + abs(k)] = value
    return PeriodicGridFunction(coeffs, n_samples)


def _grid_lp_norm(f, p):
    """Trapezoid value of (int_0^{2pi} |f(t)|^p dt)^{1/p} over the samples of
    f: the grid reference of the block norms."""
    pointwise = np.linalg.norm(f.samples, axis=1)
    return float((TWO_PI / f.n_samples * np.sum(pointwise**p)) ** (1.0 / p))


def _lp_norm_on_grid(f, p):
    """``besov._power_sums`` of f on its own grid (for p == 2 Parseval's),
    with its unscaled columns as the rows of one level."""
    return besov._power_sums(mode_range(f.bandwidth), f.coefficients.T[None], f.n_samples, p)[0, 0]


def _grid_block_norms(f, p, m):
    """Block norms of f, ascending level, from one ``besov._power_sums`` of
    its live levels on the grid m, each scaled back by its power of two:
    columns m and 2m, or Parseval's for p == 2."""
    modes, live, rows, exponents = _level_rows(f)
    out = np.zeros((len(live), 1 if p == 2.0 else 2))
    out[live] = np.ldexp(besov._power_sums(modes, rows, m, p), exponents[:, None])
    return out


def _inverse_fft_shapes(monkeypatch):
    """The shapes of the arrays that ``besov`` hands to ``np.fft.ifft``."""
    shapes = []
    inverse = np.fft.ifft
    monkeypatch.setattr(besov.np.fft, "ifft", lambda a, *args, **kwargs: shapes.append(
        np.shape(a)) or inverse(a, *args, **kwargs))
    return shapes


def _derivative(f):
    """f' from the coefficients ik fhat(k), on the grid of f."""
    return PeriodicGridFunction(1j * mode_range(f.bandwidth)[:, None] * f.coefficients,
                                f.n_samples)


def _scaled(factor, f):
    """factor * f, on the grid of f."""
    return PeriodicGridFunction(factor * f.coefficients, f.n_samples)


def _sum(f, g):
    """f + g for grid functions on the same band and grid."""
    return PeriodicGridFunction(f.coefficients + g.coefficients, f.n_samples)


def _random_band(gen, bandwidth=16, dim=1, n_samples=None):
    coeffs = gen.normal(size=(2 * bandwidth + 1, dim)) \
        + 1j * gen.normal(size=(2 * bandwidth + 1, dim))
    return PeriodicGridFunction(coeffs, n_samples or 4 * bandwidth)


def _reference_tent(x):
    """The tent of levels j >= 1 as it stood before the one clipped expression."""
    rising = (x >= 0.5) & (x <= 1.0)
    falling = (x > 1.0) & (x < 2.0)
    return np.where(rising, 2.0 * x - 1.0, np.where(falling, 2.0 - x, 0.0))


def _reference_eval(level, k):
    absk = np.abs(np.asarray(k, dtype=float))
    out = np.clip(2.0 - absk, 0.0, 1.0) if level == 0 else _reference_tent(absk / 2.0**level)
    return out if out.ndim else float(out)


def _reference_weights(bandwidth, modes):
    """One ``_reference_eval`` call a level, the row count from a float log2."""
    levels = int(np.ceil(np.log2(bandwidth))) + 1 if bandwidth >= 1 else 0
    return np.stack([_reference_eval(j, modes) for j in range(levels + 1)])


def _bits(values):
    """The float64 bit patterns of ``values``: a signed zero counts."""
    return np.asarray(values, dtype=float).view(np.uint64)


class TestPartition:
    def test_zero_mode_only_in_block_zero(self):
        assert partition_eval(0, 0) == 1.0
        for j in range(1, 12):
            assert partition_eval(j, 0) == 0.0

    def test_mode_one_fully_in_block_zero(self):
        assert partition_eval(0, 1) == 1.0
        assert partition_eval(0, -1) == 1.0
        for j in range(1, 12):
            assert partition_eval(j, 1) == 0.0

    def test_mode_three_splits_between_blocks(self):
        assert partition_eval(1, 3) == 0.5
        assert partition_eval(2, 3) == 0.5
        assert partition_eval(0, 3) == 0.0

    def test_supports(self):
        for j in range(1, 11):
            ks = np.arange(-3 * 2**j, 3 * 2**j + 1)
            weights = partition_eval(j, ks)
            inside = (np.abs(ks) >= 2 ** (j - 1)) & (np.abs(ks) <= 2 ** (j + 1))
            assert np.all(weights[~inside] == 0.0)
        ks = np.arange(-8, 9)
        w0 = partition_eval(0, ks)
        assert np.all(w0[np.abs(ks) > 2] == 0.0)

    def test_exact_partition_of_unity_wide_band(self):
        ks = np.arange(-1024, 1025)
        total = sum(partition_eval(j, ks) for j in range(12))
        assert np.all(total == 1.0)

    def test_weights_in_unit_interval(self):
        ks = np.arange(-2048, 2049)
        for j in range(13):
            w = partition_eval(j, ks)
            assert np.all((w >= 0.0) & (w <= 1.0))

    def test_weights_are_the_per_level_tent_bit_for_bit(self):
        # each weight depends on its level and mode alone, so the reference
        # rows of a band are a slice of those of the widest
        widest = _bits(_reference_weights(2999, mode_range(2999)))
        for bandwidth in range(3000):
            weights = _bits(_partition_weights(bandwidth, mode_range(bandwidth)))
            levels = int(np.ceil(np.log2(bandwidth))) + 2 if bandwidth >= 1 else 1
            assert np.array_equal(
                weights, widest[:levels, 2999 - bandwidth:2999 + bandwidth + 1]), bandwidth
        for e in range(12, 22):
            for bandwidth in (2**e - 1, 2**e, 2**e + 1):
                # every breakpoint of every level, |k| = 2^i/2 .. 2^(i+1), and the
                # band's edge, each with its neighbours
                edges = np.array([2**i for i in range(-1, e + 3)] + [bandwidth])
                modes = np.unique(np.clip((edges[:, None] + np.arange(-3, 4)).ravel(),
                                          0, bandwidth))
                modes = np.concatenate([-modes[::-1], modes])
                np.testing.assert_array_equal(_bits(_partition_weights(bandwidth, modes)),
                                              _bits(_reference_weights(bandwidth, modes)))

    def test_partition_eval_is_the_per_level_tent_bit_for_bit(self):
        ks = np.concatenate([np.arange(-70000, 70001), [0.3, -1.5, 2.75, 1e9]])
        for j in range(30):
            np.testing.assert_array_equal(_bits(partition_eval(j, ks)),
                                          _bits(_reference_eval(j, ks)))
            for k in (0, 3, -5, 0.3, -1.5, 2.75, 1e9):
                value = partition_eval(j, k)
                assert type(value) is float and _bits(value) == _bits(_reference_eval(j, k))

    def test_row_count_is_ceil_log2_plus_two_in_integers(self, monkeypatch):
        # partition_eval returns its levels, so a call costs the row count alone
        monkeypatch.setattr(besov, "partition_eval", lambda level, k: level)
        modes = np.empty(0)
        assert len(_partition_weights(0, modes)) == 1
        expected = [0]                  # ceil(log2 K) for K = 1, then 2^(e-1) < K <= 2^e
        for e in range(1, 21):
            expected += [e] * 2 ** (e - 1)
        rows = [len(_partition_weights(K, modes)) for K in range(1, 2**20 + 1)]
        assert rows == [e + 2 for e in expected]
        # float64 rounds log2(2^60 + 1) to 60; the bit length does not
        assert len(_partition_weights(2**60 + 1, modes)) == 63

    def test_levels_broadcast_and_a_negative_level_is_rejected(self):
        ks = np.arange(-40, 41)
        np.testing.assert_array_equal(partition_eval(np.arange(8)[:, None], ks),
                                      [partition_eval(j, ks) for j in range(8)])
        for level in (-1, np.array([0, 2, -3])):
            with pytest.raises(ValueError, match="level must be >= 0"):
                partition_eval(level, ks)


class TestBesovNorm:
    def test_constant(self):
        for p in (1.0, 2.0, 3.5):
            params = BesovParams(s=1.2, p=p, q=2.0)
            f = PeriodicGridFunction.from_harmonics(const=2.5, n_samples=16)
            assert besov_norm_report(f, params).norm == pytest.approx(
                TWO_PI ** (1.0 / p) * 2.5, rel=1e-12
            )

    def test_single_low_mode(self):
        params = BesovParams(s=0.7, p=2.0, q=1.5)
        f = PeriodicGridFunction([[0.0, 0.0], [0.0, 0.0], [3.0, 4.0]], 16)
        # only block zero is active; L2 of a unit mode is sqrt(2*pi) per component
        assert besov_norm_report(f, params).norm == pytest.approx(
            np.sqrt(TWO_PI) * 5.0, rel=1e-12
        )

    def test_mode_three_closed_form(self):
        # blocks 1 and 2 each carry weight 1/2
        params = BesovParams(s=1.0, p=2.0, q=2.0)
        expected = np.sqrt(
            2.0 ** (1 * 1 * 2) * 0.25 + 2.0 ** (1 * 2 * 2) * 0.25
        ) * np.sqrt(TWO_PI)
        assert besov_norm_report(_single_mode(3), params).norm == pytest.approx(
            expected, rel=1e-12
        )
        assert expected == pytest.approx(np.sqrt(5.0) * np.sqrt(TWO_PI))

    def test_single_mode_general_params_closed_form(self):
        s, p, q = 0.5, 1.5, 3.0
        params = BesovParams(s=s, p=p, q=q)
        value = 2.0 - 1.0j
        f = _single_mode(3, value)
        block = abs(value) * TWO_PI ** (1.0 / p)
        expected = ((2.0 ** (s * 1 * q)) * (0.5 * block) ** q
                    + (2.0 ** (s * 2 * q)) * (0.5 * block) ** q) ** (1.0 / q)
        assert besov_norm_report(f, params).norm == pytest.approx(expected, rel=1e-12)

    def test_homogeneity_and_triangle(self, rng):
        params = BesovParams(s=1.0, p=2.0, q=2.0)
        for _ in range(100):
            f = _random_band(rng, bandwidth=12)
            g = _random_band(rng, bandwidth=12)
            nf, ng = besov_norm_report(f, params).norm, besov_norm_report(g, params).norm
            assert besov_norm_report(_scaled(2.5, f), params).norm == pytest.approx(
                2.5 * nf, rel=1e-12)
            assert besov_norm_report(_sum(f, g), params).norm <= nf + ng + 1e-9 * (nf + ng)

    def test_triangle_for_non_hilbert_exponents(self, rng):
        params = BesovParams(s=0.8, p=1.5, q=1.2)
        for _ in range(10):
            f = _random_band(rng, bandwidth=8)
            g = _random_band(rng, bandwidth=8)
            nf, ng = besov_norm_report(f, params).norm, besov_norm_report(g, params).norm
            assert besov_norm_report(_sum(f, g), params).norm <= (nf + ng) * (1.0 + 1e-8)

    @settings(max_examples=20, deadline=None)
    @given(scale=st.floats(0.1, 10.0), seed=st.integers(0, 10**6))
    def test_homogeneity_property(self, scale, seed):
        gen = np.random.default_rng(seed)
        f = _random_band(gen, bandwidth=8)
        params = BesovParams(s=1.3, p=2.0, q=2.5)
        assert besov_norm_report(_scaled(scale, f), params).norm == pytest.approx(
            scale * besov_norm_report(f, params).norm, rel=1e-11
        )

    def test_zero_iff_zero(self, rng):
        params = BesovParams(s=1.0)
        assert besov_norm_report(PeriodicGridFunction.zero(2, 16), params).norm == 0.0
        f = _random_band(rng, bandwidth=4)
        assert besov_norm_report(f, params).norm > 0.0

    def test_monotone_in_smoothness_for_mean_free(self, rng):
        f = _random_band(rng, bandwidth=16)
        coeffs = f.coefficients.copy()
        coeffs[f.bandwidth] = 0.0
        f = PeriodicGridFunction(coeffs, f.n_samples)
        n1 = besov_norm_report(f, BesovParams(s=0.5)).norm
        n2 = besov_norm_report(f, BesovParams(s=1.5)).norm
        assert n2 >= n1

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            BesovParams(s=0.0)
        with pytest.raises(ValueError):
            BesovParams(s=1.0, p=0.5)
        with pytest.raises(ValueError):
            BesovParams(s=1.0, q=np.inf)
        # level 0's weight 2^(s 0) used to be NaN in every report
        with pytest.raises(ValueError, match="finite"):
            BesovParams(s=np.inf)

    def test_report_quadrature_error(self):
        f = _single_mode(3)
        report = besov_norm_report(f, BesovParams(s=1.0, p=2.0, q=2.0))
        assert report.quadrature_error == 0.0
        report_p3 = besov_norm_report(f, BesovParams(s=1.0, p=3.0, q=2.0))
        assert report_p3.quadrature_error <= 1e-10 * report_p3.norm

    def test_quadrature_error_bounds_the_actual_error(self):
        # f lives on |k| <= 2, so the grids double from 20 = 4 * 5; the
        # stored grid (64) is past 4 (2K + 1), and the grids stop on 80, the
        # first at or above it: the estimate comes from 160 points, a finer
        # grid than the norm's own
        f = PeriodicGridFunction.from_harmonics(cos=[1.0, 0.5], sin=[0.0, 0.3],
                                                const=0.2, n_samples=64)
        params = BesovParams(s=1.0, p=3.0, q=2.0)
        report = besov_norm_report(f, params)
        fine = PeriodicGridFunction(f.coefficients, 4096)
        actual = abs(report.norm - besov_norm_report(fine, params).norm)
        assert report.quadrature_error >= actual > 0.0

    def test_zero_blocks_are_not_synthesised(self, monkeypatch):
        # a real two-column f on modes |k| <= 3 only: levels 0..2 carry
        # weight, levels 3..7 of K = 40 do not
        coeffs = np.zeros((81, 2), dtype=complex)
        coeffs[37:44] = _hermitian(np.random.default_rng(8), 3, 2)
        f = PeriodicGridFunction(coeffs, 162)
        params = BesovParams(s=1.0, p=3.0, q=2.0)
        shapes = _inverse_fft_shapes(monkeypatch)
        report = besov_norm_report(f, params)
        assert np.all(report.block_norms[3:] == 0.0) and np.all(report.block_norms[:3] > 0)
        # one row per level of a real two-column f, and each grid m is one
        # (levels, rows, 2m) transform of the 3 live levels.  f reaches
        # |k| = 3, so the grids double from 28 = 4 * 7 up to 448, the first
        # at or above n = 4 * 81, and every live level, level 0 (|k| <= 1)
        # too, is synthesised on them
        grids = [shape[-1] // 2 for shape in shapes]
        assert shapes == [(3, 1, 2 * m) for m in grids]
        assert grids == list(_grids(f, 3))[:len(grids)] == [28, 56, 112, 224, 448][:len(grids)]
        # not bit for bit: the rows add the squares in another order than
        # the columns, raise |f|^2 to p/2 where the columns raise |f| to p,
        # and take the m nodes from a transform of 2m
        expected = np.array([_grid_lp_norm(PeriodicGridFunction(
            partition_eval(level, mode_range(3))[:, None] * coeffs[37:44], grids[-1]), 3.0)
            for level in range(8)])
        assert np.all(np.abs(report.block_norms - expected) <= 4 * np.spacing(expected))

    @pytest.mark.parametrize("p", [1.0, 3.0])
    def test_grids_depend_on_the_live_band_and_the_target_alone(self, monkeypatch, p):
        # the same f, live on |k| <= 3, stored at K = 64 and K = 4096: both
        # runs start at 28 = 4 * 7 and double alike.  At K = 64 the grids
        # stop on 896, the first at or above 4 * 129, before the norm has
        # converged; at K = 4096 they go on until it has
        live = _hermitian(np.random.default_rng(3), 3, 2)
        runs = []
        for bandwidth in (64, 4096):
            coeffs = np.zeros((2 * bandwidth + 1, 2), dtype=complex)
            coeffs[bandwidth - 3:bandwidth + 4] = live
            f = PeriodicGridFunction(coeffs, 2 * bandwidth + 1)
            shapes = _inverse_fft_shapes(monkeypatch)
            runs.append((f, besov_norm_report(f, BesovParams(s=1.0, p=p, q=2.0)),
                         [shape[-1] // 2 for shape in shapes]))
            monkeypatch.undo()
        (narrow, narrow_report, narrow_grids), (wide, wide_report, wide_grids) = runs
        assert narrow_grids == [28, 56, 112, 224, 448, 896] == wide_grids[:6]
        assert len(wide_grids) > 6
        assert narrow_report.quadrature_error > 1e-13 * narrow_report.norm
        assert wide_report.quadrature_error <= 1e-13 * wide_report.norm
        # and on the grids they share, the blocks are the same bit for bit
        np.testing.assert_array_equal(_bits(narrow_report.block_norms),
                                      _bits(_grid_block_norms(wide, p, 896)[:8, 0]))

    @pytest.mark.parametrize("bandwidth, n_samples, last", [
        (64, 129, 768), (64, 1000, 1536), (4096, 8193, 49152)])
    def test_no_grid_passes_the_first_doubling_at_or_above_the_stored_grid(
            self, monkeypatch, bandwidth, n_samples, last):
        # |cos t| has kinks, so at p = 1 the trapezoid converges
        # algebraically and never reaches 1e-13: the grids double from
        # 12 = 4 * 3 to ``last``, the first at or above n = max(N, 4 (2K + 1)),
        # whose norm is the report's, and the last transform is of 2 last
        coeffs = np.zeros((2 * bandwidth + 1, 1), dtype=complex)
        coeffs[[bandwidth - 1, bandwidth + 1]] = 0.5
        f = PeriodicGridFunction(coeffs, n_samples)
        shapes = _inverse_fft_shapes(monkeypatch)
        report = besov_norm_report(f, BesovParams(s=1.0, p=1.0, q=2.0))
        n = max(n_samples, 4 * (2 * bandwidth + 1))
        assert last // 2 < n <= last
        assert shapes == [(1, 1, 24 * 2**i) for i in range(len(shapes))]
        assert shapes[-1][-1] == 2 * last and list(_grids(f, 1))[-1] == last
        assert report.quadrature_error > 1e-13 * report.norm
        assert report.norm == _combine_blocks(_grid_block_norms(f, 1.0, last)[:, 0],
                                              BesovParams(s=1.0, p=1.0, q=2.0))

    def test_p_2_is_parseval_without_a_synthesis(self, monkeypatch, rng):
        # block j is (2 pi sum_k ||phi_j(k) fhat(k)||^2)^{1/2}, for a real and
        # a complex f, and its error estimate is 0
        shapes = _inverse_fft_shapes(monkeypatch)
        weights = _partition_weights(40, mode_range(40))[:, :, None]
        for f in (PeriodicGridFunction(_hermitian(rng, 40, 2), 81),
                  _random_band(rng, bandwidth=40, dim=3)):
            report = besov_norm_report(f, BesovParams(s=1.0, p=2.0, q=2.0))
            expected = np.sqrt(TWO_PI * np.sum(np.abs(weights * f.coefficients) ** 2, axis=(1, 2)))
            np.testing.assert_allclose(report.block_norms, expected, rtol=1e-14, atol=0.0)
            assert report.quadrature_error == 0.0
        assert shapes == []

    def test_estimate_bounds_the_error_on_the_benchmark_problem(self):
        # lumped benchmark problem at K = 32: the solution lives on |k| <= 3,
        # so the grids double from 28 and stop on 448, the first at or above
        # 4 (2K + 1) = 260, before the norm has converged.  The estimate
        # |Q_448 - Q_896| is not a bound: it understates the error whenever
        # e_448 and e_896 share a sign.  It reads 2.594e-10 against an actual
        # 2.524e-10, and this test passes because e_896 = +6.97e-12 has the
        # opposite sign to e_448 = -2.524e-10.  The reference, stored on 2^16
        # points, runs on to 1,792, where it has converged to 1e-13.
        doc = problems.bench_workloads().config_document("lumped", 1)
        config = parse_config(json.dumps(dict(doc, K=32)))
        u = solve_periodic(config.problem).solution
        report = besov_norm_report(u, config.besov)
        fine = PeriodicGridFunction(u.coefficients, 2**16)
        actual = abs(report.norm - besov_norm_report(fine, config.besov).norm)
        assert report.quadrature_error >= actual > 0.0


def _hermitian(gen, bandwidth, dim):
    """Coefficients of a random real trigonometric polynomial."""
    half = gen.normal(size=(bandwidth, dim)) + 1j * gen.normal(size=(bandwidth, dim))
    return np.concatenate([np.conj(half[::-1]), gen.normal(size=(1, dim)), half])


def _column_wise_report(f, params):
    """``besov_norm_report`` with every block synthesised column by column,
    for f live on its whole band K: on the stored grid for p == 2, else on
    the first grid m = 4 (2K + 1), 7-smooth, which is also the last (m >= N),
    and on 2m."""
    m = _seven_smooth(4 * (2 * f.bandwidth + 1))
    assert list(_grids(f, f.bandwidth)) == [m]
    lengths = (f.n_samples,) if params.p == 2.0 else (m, 2 * m)
    table = np.array([[_grid_lp_norm(PeriodicGridFunction(
        weights[:, None] * f.coefficients, m), params.p) for m in lengths]
        for weights in _partition_weights(f.bandwidth, mode_range(f.bandwidth))])
    norm = _combine_blocks(table[:, 0], params)
    return norm, table[:, 0], abs(norm - _combine_blocks(table[:, -1], params))


#: (name, coefficients on |k| <= 12, rows of the whole band)
ROW_SPLIT_CASES = [
    ("n1_real", _hermitian(np.random.default_rng(1), 12, 1), 1),
    ("n2_real", _hermitian(np.random.default_rng(2), 12, 2), 1),
    ("n3_real", _hermitian(np.random.default_rng(3), 12, 3), 2),
    ("n2_complex", np.random.default_rng(4).normal(size=(25, 2))
     + 1j * np.random.default_rng(5).normal(size=(25, 2)), 2),
    ("zero_column", np.stack([np.random.default_rng(6).normal(size=25)
                              + 1j * np.random.default_rng(7).normal(size=25),
                              np.zeros(25)], axis=1), 1),
    # a forcing sampled from real values: exactly Hermitian, one row
    ("n2_sampled_real", analyze(np.random.default_rng(8).normal(size=(40, 2)), 12), 1),
]


REAL_CASES = [case for case in ROW_SPLIT_CASES if case[0].endswith("real")]
COMPLEX_CASES = [case for case in ROW_SPLIT_CASES if not case[0].endswith("real")]


class TestRealRows:
    """f is split once into real rows, and each block is synthesised as its
    weights times them; its norms are the column-wise synthesis's up to
    round-off."""

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 4.5])
    @pytest.mark.parametrize("name, coeffs, rows", ROW_SPLIT_CASES,
                             ids=[case[0] for case in ROW_SPLIT_CASES])
    def test_norms_match_the_column_wise_synthesis(self, name, coeffs, rows, p):
        f = PeriodicGridFunction(coeffs, 40)
        params = BesovParams(s=1.0, p=p, q=2.0)
        norm, blocks, error = _column_wise_report(f, params)
        report = besov_norm_report(f, params)
        assert report.norm == pytest.approx(norm, rel=1e-14, abs=0.0)
        assert np.all((report.block_norms == 0.0) == (blocks == 0.0))
        assert np.allclose(report.block_norms, blocks, rtol=1e-14, atol=0.0)
        assert abs(report.quadrature_error - error) <= 1e-14 * norm

    @pytest.mark.parametrize("name, coeffs, rows", ROW_SPLIT_CASES,
                             ids=[case[0] for case in ROW_SPLIT_CASES])
    def test_row_count(self, name, coeffs, rows):
        modes, a, b = _real_rows(mode_range(12), coeffs)
        assert np.array_equal(modes, mode_range(12))
        assert np.shape(a) == np.shape(b) == (rows, 25)

    @pytest.mark.parametrize("name, coeffs, rows", REAL_CASES,
                             ids=[case[0] for case in REAL_CASES])
    def test_a_levels_rows_are_the_split_of_its_weighted_coefficients(
            self, monkeypatch, name, coeffs, rows):
        # a real f: the Hermitian part (w c + conj(w c)_{-k}) / 2 of the
        # weighted coefficients is exactly w c, so the rows that the one
        # split gives a level, times the level's 2^e, are its own split bit
        # for bit, at the 3/4 weight of |k| = 5 in level 2 too
        synthesised = []
        power_sums = besov._power_sums
        monkeypatch.setattr(besov, "_power_sums", lambda modes, level_rows, m, p: (
            synthesised.append((modes, level_rows)) or power_sums(modes, level_rows, m, p)))
        f = PeriodicGridFunction(coeffs, 40)
        besov_norm_report(f, BesovParams(s=1.0))
        assert len(synthesised) == 1
        modes, level_rows = synthesised[0]
        exponents = _level_rows(f)[3]
        assert np.array_equal(modes, mode_range(12))
        weights = _partition_weights(12, modes)
        assert partition_eval(2, 5) == 0.75 and np.all(coeffs[[7, 17]] != 0.0)
        live = weights[np.any(weights, axis=1)]
        assert len(level_rows) == len(exponents) == len(live)
        for w, level, exponent in zip(live, level_rows, exponents):
            level_modes, a, b = _real_rows(modes, w[:, None] * coeffs)
            assert np.shape(a) == (rows, len(level_modes))
            split = np.zeros_like(level)
            split[:, np.searchsorted(modes, level_modes)] = a + 1j * b
            assert np.array_equal(level * 2.0**exponent, split)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 4.5])
    @pytest.mark.parametrize("name, coeffs, rows", COMPLEX_CASES,
                             ids=[case[0] for case in COMPLEX_CASES])
    def test_complex_block_norms_are_the_column_wise_ones_to_round_off(
            self, name, coeffs, rows, p):
        # a complex f: w a + i (w b) and the split of w c may differ in the
        # last bit where w is not a power of two
        f = PeriodicGridFunction(coeffs, 40)
        _, blocks, _ = _column_wise_report(f, BesovParams(s=1.0, p=p, q=2.0))
        report = besov_norm_report(f, BesovParams(s=1.0, p=p, q=2.0))
        assert np.all(np.abs(report.block_norms - blocks) <= 4 * np.spacing(blocks))

    def test_rows_carry_the_pointwise_squared_norm(self, rng):
        coeffs = rng.normal(size=(9, 3)) + 1j * rng.normal(size=(9, 3))
        modes, a, b = _real_rows(mode_range(4), coeffs)
        columns = PeriodicGridFunction(coeffs, 16).samples
        squared = sum(np.abs(PeriodicGridFunction(row, 16).samples[:, 0]) ** 2
                      for row in a + 1j * b)
        assert np.allclose(squared, np.sum(np.abs(columns) ** 2, axis=1), rtol=1e-14)

    def test_zero_coefficients_give_no_rows(self):
        modes, a, b = _real_rows(mode_range(4), np.zeros((9, 2), dtype=complex))
        assert modes.size == 0 and a.size == b.size == 0

    def test_modes_are_the_live_ones_and_their_mirrors(self):
        coeffs = np.zeros((9, 2), dtype=complex)
        coeffs[6, 1] = 1.0 + 2.0j   # mode 2 only: not real, so two parts
        modes, a, b = _real_rows(mode_range(4), coeffs)
        assert np.array_equal(modes, [-2, 2])
        assert np.shape(a) == np.shape(b) == (1, 2)


def _full_length_norms(f, p, n):
    """Block norms of f on n points, each real row w a + i (w b) of a block
    synthesised by its own length-n inverse FFT."""
    modes, a, b = _real_rows(mode_range(f.bandwidth), f.coefficients)
    out = []
    for weights in _partition_weights(f.bandwidth, modes):
        rows = weights * a + 1j * (weights * b)
        squared = np.zeros(n)
        for row in rows:
            samples = np.zeros(n, dtype=complex)
            samples[np.mod(modes, n)] = row
            samples = np.fft.ifft(samples, norm="forward")
            squared += samples.real ** 2 + samples.imag ** 2
        out.append((TWO_PI / n * np.sum(squared ** (p / 2.0))) ** (1.0 / p)
                   if np.any(rows) else 0.0)
    return np.array(out)


def _sparse_band(gen, bandwidth, live, dim, real):
    """Random coefficients on |k| <= live inside the band |k| <= bandwidth."""
    coeffs = np.zeros((2 * bandwidth + 1, dim), dtype=complex)
    if real:
        coeffs[bandwidth - live:bandwidth + live + 1] = _hermitian(gen, live, dim)
    else:
        coeffs[bandwidth - live:bandwidth + live + 1] = \
            gen.normal(size=(2 * live + 1, dim)) + 1j * gen.normal(size=(2 * live + 1, dim))
    return coeffs


#: (name, grid m, band K, live modes |k| <= b): m prime, 7-smooth and a
#: Bluestein length of pocketfft (a multiple of the prime 2731)
GRID_CASES = [
    ("prime", 101, 50, 3),
    ("prime_full_band", 61, 30, 30),
    ("smooth", 360, 40, 5),
    ("smooth_full_band", 84, 41, 41),
    ("bluestein", 4 * 2731, 600, 3),
    # levels 0..6 of |k| <= 40 in one transform of 2m points
    ("bluestein_levels", 4 * 2731, 600, 40),
]


class TestGridSynthesis:
    """On a grid m, every live block is synthesised by one length-2m inverse
    FFT; its norms on the m even nodes and on all 2m are the length-m and
    length-2m syntheses' up to round-off, and for p == 2 Parseval's sum is
    the synthesis's to round-off too."""

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 4.5])
    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    @pytest.mark.parametrize("name, m, bandwidth, live", GRID_CASES,
                             ids=[case[0] for case in GRID_CASES])
    def test_norms_match_the_full_length_synthesis(self, name, m, bandwidth, live, real, p):
        gen = np.random.default_rng(m + live)
        f = PeriodicGridFunction(_sparse_band(gen, bandwidth, live, 3, real), m)
        blocks = _grid_block_norms(f, p, m)
        lengths = (m,) if p == 2.0 else (m, 2 * m)
        expected = np.column_stack([_full_length_norms(f, p, n) for n in lengths])
        assert np.all((blocks == 0.0) == (expected == 0.0))
        assert np.all(np.abs(blocks - expected) <= 4 * np.spacing(expected))

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 4.5])
    def test_bandwidth_zero_on_one_point(self, p):
        f = PeriodicGridFunction([[2.0 - 1.0j, 0.5]], 1)
        blocks = _grid_block_norms(f, p, 1)
        expected = np.hypot(np.abs(2.0 - 1.0j), 0.5) * TWO_PI ** (1.0 / p)
        assert blocks.shape == ((1, 1) if p == 2.0 else (1, 2))
        assert np.array_equal(blocks[:, 0], _full_length_norms(f, p, 1))
        assert np.all(blocks == pytest.approx(expected, rel=1e-15))


class TestSharedSynthesis:
    """Every live level of a function is synthesised on the same grids, one
    inverse FFT of them all per grid (of one level at a time when they
    would hold more than ``besov._STACK_SAMPLES`` samples), and each level
    is scaled by its own power of two."""

    @staticmethod
    def _lumped_solution():
        doc = problems.bench_workloads().config_document("lumped", 1)
        config = parse_config(json.dumps(doc))
        return solve_periodic(config.problem).solution, config.besov

    def test_peak_memory_is_a_chunk_not_a_grid(self):
        # the bound is set from measurement, 0.29 MB; the samples of one
        # whole 65,610-point grid alone take 1.05 MB
        u, params = self._lumped_solution()
        tracemalloc.start()
        try:
            besov_norm_report(u, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5e6

    def test_a_broadband_stack_is_synthesised_one_level_at_a_time(self, monkeypatch):
        # a real two-column f live on every mode up to K = 4096: 13 live
        # levels on one grid, m = 32,805, the first 7-smooth length at or
        # above 4 (2K + 1), whose 2m = 65,610 points would hold 13.6 MB for
        # all levels at once.  Its tracemalloc peak measured 5.05 MB, against
        # 11.9 MB when every level shared one pruned synthesis
        f = PeriodicGridFunction(_hermitian(np.random.default_rng(1), 4096, 2), 16384)
        params = BesovParams(s=1.0, p=3.0, q=2.0)
        shapes = _inverse_fft_shapes(monkeypatch)
        besov_norm_report(f, params)
        assert shapes == [(1, 1, 65610)] * 13
        monkeypatch.undo()
        tracemalloc.start()
        try:
            besov_norm_report(f, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5.5e6

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_each_level_is_scaled_on_its_own(self, p):
        # O(1) coefficients on |k| <= 1 (level 0) and 2^600 ones on |k| = 20
        # (levels 4 and 5, weights 3/4 and 1/4): squares of the latter
        # overflow unscaled, and level 0 must not be scaled with them
        gen = np.random.default_rng(27)
        low, high = np.zeros((49, 2), dtype=complex), np.zeros((49, 2), dtype=complex)
        low[23:26] = _hermitian(gen, 1, 2)
        high[[4, 44]] = 2.0**600 * _hermitian(gen, 20, 2)[[0, 40]]
        f = PeriodicGridFunction(low + high, 196)
        blocks = _grid_block_norms(f, p, 196)
        # each level computed alone: level 0 from the low modes, levels 4
        # and 5 from the high ones scaled down by 2^600 and back
        expected = _grid_block_norms(PeriodicGridFunction(low, 196), p, 196)
        unscaled = PeriodicGridFunction(2.0**-600 * high, 196)
        expected[4:6] = 2.0**600 * _grid_block_norms(unscaled, p, 196)[4:6]
        assert np.all((blocks == 0.0) == (expected == 0.0))
        np.testing.assert_allclose(blocks, expected, rtol=1e-14, atol=0.0)


class TestSevenSmooth:
    def test_smallest_seven_smooth_length_at_or_above(self):
        def smooth(m):
            for prime in (2, 3, 5, 7):
                while m % prime == 0:
                    m //= prime
            return m == 1

        lengths = [m for m in range(1, 8193) if smooth(m)]
        for n in range(1, 4097):
            assert _seven_smooth(n) == next(m for m in lengths if m >= n), n

    def test_smooth_lengths_are_kept(self):
        assert [_seven_smooth(n) for n in (28, 128, 16384)] == [28, 128, 16384]
        # twice the lumped benchmark's 32,772-point grid, 2^3 3 2731
        assert _seven_smooth(65544) == 65610


class TestDerivativeShift:
    """Differentiation costs exactly one order of smoothness: on mean-free
    trig polynomials ||f'||_{B^s} / ||f||_{B^{s+1}} stays in a fixed interval."""

    S1, S2 = BesovParams(s=1.0), BesovParams(s=2.0)

    def test_mode_one_ratio_is_one(self):
        f = _single_mode(1)
        assert besov_norm_report(_derivative(f), self.S1).norm == pytest.approx(
            besov_norm_report(f, self.S2).norm, rel=1e-12)

    def test_mode_three_ratio_closed_form(self):
        # numerator blocks: 2^{sjq} (|k| phi_j(k))^q at s=1, denominator at s=2;
        # with phi_1(3) = phi_2(3) = 1/2 this gives 3 sqrt(5) / sqrt(68)
        numerator = 3.0 * np.sqrt(2.0**2 * 0.25 + 2.0**4 * 0.25)
        denominator = np.sqrt(2.0**4 * 0.25 + 2.0**8 * 0.25)
        expected = numerator / denominator
        f = _single_mode(3)
        ratio = besov_norm_report(_derivative(f), self.S1).norm \
            / besov_norm_report(f, self.S2).norm
        assert ratio == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(3.0 * np.sqrt(5.0) / np.sqrt(68.0))

    def test_ratio_band_over_trig_family(self, rng):
        # equivalence constants: the ratio stays within a factor-4 interval
        family = [_single_mode(k, n_samples=256) for k in range(1, 33)]
        for _ in range(25):
            coeffs = _random_band(rng, bandwidth=32).coefficients
            coeffs[32] = 0.0
            family.append(PeriodicGridFunction(coeffs, 256))
        ratios = [besov_norm_report(_derivative(f), self.S1).norm
                  / besov_norm_report(f, self.S2).norm for f in family]
        assert max(ratios) / min(ratios) <= 4.0


class TestMultiplierRatio:
    def test_scalar_rational_family_ratio(self):
        # |3i / (1 + 3i)| = 3 / sqrt(10) on the pure mode 3
        params = BesovParams(s=1.0)
        coeffs = np.zeros((7, 1), dtype=complex)
        coeffs[6] = 3j / (1.0 + 3j)
        image = PeriodicGridFunction(coeffs, 64)
        ratio = besov_norm_report(image, params).norm \
            / besov_norm_report(_single_mode(3), params).norm
        assert ratio == pytest.approx(3.0 / np.sqrt(10.0), rel=1e-12)

    def test_matrix_symbol_ratio_is_at_most_its_sup_norm(self, rng):
        # at p = 2 each block norm is sqrt(2 pi) times an l^2 norm of weighted
        # coefficients, so ||X f|| <= sup_k ||X_k|| ||f||
        params = BesovParams(s=1.0)
        ks = mode_range(6)
        symbols = np.stack([[[1.0, 0.5 * k], [0.0, 2.0]] for k in ks])
        for _ in range(10):
            f = _random_band(rng, bandwidth=6, dim=2)
            image = PeriodicGridFunction(
                np.einsum("kij,kj->ki", symbols, f.coefficients), f.n_samples)
            sup = np.max(np.linalg.norm(symbols, 2, axis=(1, 2)))
            assert besov_norm_report(image, params).norm \
                <= sup * besov_norm_report(f, params).norm * (1.0 + 1e-12)

    def test_bounded_sequence_keeps_ratio_bounded(self, rng):
        # resolvent-shaped scalar sequences contract the norm
        params = BesovParams(s=1.0, p=2.0, q=2.0)
        symbol = 1.0 / (1.0 + 1j * mode_range(16))
        for _ in range(20):
            f = _random_band(rng, bandwidth=16)
            image = PeriodicGridFunction(symbol[:, None] * f.coefficients, f.n_samples)
            assert besov_norm_report(image, params).norm \
                <= besov_norm_report(f, params).norm * (1.0 + 1e-12)


class TestParseval:
    """With the unnormalized L^2 integral and normalized coefficients,
    ||f||_{L^2} = sqrt(2 pi) ||(fhat(k))||_{l^2} for every trig polynomial:
    the p == 2 block norms are that sum, and the trapezoid values of the
    other p keep Hausdorff-Young."""

    @pytest.mark.parametrize("f", [
        _single_mode(1),
        PeriodicGridFunction.from_harmonics(const=3.0, n_samples=16),
        PeriodicGridFunction([0.0, 0.0, 0.0, 1.0, 1.0], 16),
    ], ids=["mode_one", "constant", "two_modes"])
    def test_l2_norm_is_the_coefficient_norm(self, f):
        assert _lp_norm_on_grid(f, 2.0) == pytest.approx(
            np.sqrt(TWO_PI) * np.linalg.norm(f.coefficients), rel=1e-12)

    def test_l2_norm_is_the_coefficient_norm_on_random_bands(self, rng):
        for _ in range(50):
            f = _random_band(rng, bandwidth=12, dim=2)
            assert _lp_norm_on_grid(f, 2.0) == pytest.approx(
                np.sqrt(TWO_PI) * np.linalg.norm(f.coefficients), rel=1e-11)

    def test_hausdorff_young_below_two(self, rng):
        # ||fhat||_{l^{r'}} <= (2 pi)^{-1/r} ||f||_{L^r} for 1 < r <= 2
        for _ in range(10):
            f = _random_band(rng, bandwidth=8)
            for r in (1.25, 1.5, 2.0):
                coefficients = np.sum(np.abs(f.coefficients) ** (r / (r - 1.0))) ** (1.0 - 1.0 / r)
                grid_norm = _lp_norm_on_grid(PeriodicGridFunction(f.coefficients, 4096), r)
                assert coefficients <= TWO_PI ** (-1.0 / r) * grid_norm * (1.0 + 1e-12)


class TestScaledPowers:
    """A norm in the float range is finite however large or small the data,
    and 2^e f has exactly 2^e times the norm: each level's rows are scaled
    by a power of two before they are synthesised, each level's squares by
    their largest before the p-th powers, and the block sum is taken on
    blocks scaled by a power of two."""

    # unscaled, 2^+-600 would make the squares overflow or underflow to 0;
    # 2^-530 and 2^-520 would make them subnormal, with 2^-1060 about 14
    # bits; 2^-232 would make the 4.5-th powers subnormal, the squares not
    @pytest.mark.parametrize("exponent", [600, -600, -530, -520, -232])
    @pytest.mark.parametrize("p, q", [(1.0, 1.0), (2.0, 2.0), (3.0, 2.0), (4.5, 4.0),
                                      (3.0, 1.5), (1.5, 3.0)])
    def test_report_scales_with_the_data(self, rng, exponent, p, q):
        f = _random_band(rng, bandwidth=12, dim=2)
        scaled = PeriodicGridFunction(np.ldexp(f.coefficients.real, exponent)
                                      + 1j * np.ldexp(f.coefficients.imag, exponent),
                                      f.n_samples)
        params = BesovParams(s=1.0, p=p, q=q)
        expected, report = besov_norm_report(f, params), besov_norm_report(scaled, params)
        assert _bits(report.norm) == _bits(np.ldexp(expected.norm, exponent))
        np.testing.assert_array_equal(_bits(report.block_norms),
                                      _bits(np.ldexp(expected.block_norms, exponent)))
        assert _bits(report.quadrature_error) == _bits(np.ldexp(expected.quadrature_error,
                                                                exponent))

    def test_large_p_keeps_the_norm_of_a_peaked_power(self):
        # f = 3 cos t + 0.7 sin 2t: blocks 3 cos t (level 0) and 0.7 sin 2t
        # (level 1).  Each block's 2500-th powers of its squares over their
        # largest peak at exactly 1; over a power of two in [1/4, 1) they
        # would all underflow to 0.  Reference: the trapezoid of
        # (|f_j| / M)^p, M the largest |f_j| on the grid, on 2^14 points,
        # exact up to round-off for the trigonometric polynomials
        # cos^5000 t and sin^5000 2t
        params = BesovParams(s=1.0, p=5000.0, q=2.0)
        f = PeriodicGridFunction.from_harmonics(cos=[3.0], sin=[0.0, 0.7], n_samples=2048)
        report = besov_norm_report(f, params)
        assert 0.0 < report.norm < np.inf
        t = TWO_PI * np.arange(2**14) / 2**14
        blocks = []
        for block in (3.0 * np.cos(t), 0.7 * np.sin(2.0 * t)):
            largest = np.max(np.abs(block))
            powers = (np.abs(block) / largest) ** params.p
            blocks.append(largest * (TWO_PI / t.size * np.sum(powers)) ** (1.0 / params.p))
        np.testing.assert_allclose(report.block_norms[:2], blocks, rtol=1e-13, atol=0.0)
        assert report.norm == pytest.approx(np.hypot(blocks[0], 2.0 * blocks[1]), rel=1e-13)

    def test_sum_of_powers_beyond_the_float_range(self):
        params = BesovParams(s=1.0, q=2.0)
        blocks = np.array([1e200, 0.0, 3e200])
        assert _combine_blocks(blocks, params) == pytest.approx(
            1e200 * np.sqrt(1.0 + 16.0 * 9.0), rel=1e-15)
        assert _combine_blocks(blocks * 1e-400, params) == pytest.approx(
            1e-200 * np.sqrt(1.0 + 16.0 * 9.0), rel=1e-15)
        # a weighted block beyond the float range makes the norm infinite
        assert _combine_blocks(np.array([1.0, 1e308]), BesovParams(s=2.0)) == np.inf

    @pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("exponent", [600, -600])
    def test_block_sum_scales_with_the_blocks_bit_for_bit(self, q, exponent):
        # the q-th root is taken of a sum of scaled powers, so 2^e blocks
        # give 2^e times the sum exactly; a root of a sum near 2^(600 q)
        # errs by |1/q - fl(1/q)| ln(sum), 2.3e-14 at q = 1.5
        params = BesovParams(s=1.0, q=q)
        blocks = np.array([0.3, 0.0, 0.2, 0.1])
        assert (_combine_blocks(np.ldexp(blocks, exponent), params)
                == np.ldexp(_combine_blocks(blocks, params), exponent))

    def test_finite_data_runs_one_power_sum_pass_per_grid(self, monkeypatch, rng):
        # no block norm of finite data is taken again on scaled rows: one
        # ``_power_sums`` of every live level per grid, the grids of
        # ``_grids`` in order, and one in all for p == 2
        calls = []
        power_sums = besov._power_sums

        def counted(modes, rows, m, p):
            calls.append((len(rows), m))
            return power_sums(modes, rows, m, p)

        monkeypatch.setattr(besov, "_power_sums", counted)
        f = _random_band(rng, bandwidth=12, dim=2)
        for p in (1.0, 2.0, 3.0):
            calls.clear()
            besov_norm_report(f, BesovParams(s=1.0, p=p, q=p))
            grids = list(_grids(f, 12))
            assert calls == [(5, m) for m in (grids[:1] if p == 2.0 else grids[:len(calls)])]
