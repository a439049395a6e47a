"""Dyadic partition, Besov norms, multiplier ratios, Fourier-type ratios."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specdde import (
    BesovParams,
    PeriodicGridFunction,
    apply_multiplier,
    besov_norm,
    besov_norm_report,
    derivative_shift_check,
    fourier_type_ratio,
    mode_range,
    partition_eval,
)

TWO_PI = 2.0 * np.pi


def _single_mode(k, value=1.0, n_samples=64):
    return PeriodicGridFunction.from_coefficients({k: [value]}, n_samples)


def _random_band(gen, bandwidth=16, dim=1, n_samples=None):
    coeffs = gen.normal(size=(2 * bandwidth + 1, dim)) \
        + 1j * gen.normal(size=(2 * bandwidth + 1, dim))
    return PeriodicGridFunction.from_coefficients(coeffs, n_samples or 4 * bandwidth)


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


class TestBesovNorm:
    def test_constant(self):
        for p in (1.0, 2.0, 3.5):
            params = BesovParams(s=1.2, p=p, q=2.0)
            f = PeriodicGridFunction.from_harmonics(const=2.5, n_samples=16)
            assert besov_norm(f, params) == pytest.approx(
                TWO_PI ** (1.0 / p) * 2.5, rel=1e-12
            )

    def test_single_low_mode(self):
        params = BesovParams(s=0.7, p=2.0, q=1.5)
        f = PeriodicGridFunction.from_coefficients({1: [3.0, 4.0]}, 16)
        # only block zero is active; L2 of a unit mode is sqrt(2*pi) per component
        assert besov_norm(f, params) == pytest.approx(
            np.sqrt(TWO_PI) * 5.0, rel=1e-12
        )

    def test_mode_three_closed_form(self):
        # blocks 1 and 2 each carry weight 1/2
        params = BesovParams(s=1.0, p=2.0, q=2.0)
        expected = np.sqrt(
            2.0 ** (1 * 1 * 2) * 0.25 + 2.0 ** (1 * 2 * 2) * 0.25
        ) * np.sqrt(TWO_PI)
        assert besov_norm(_single_mode(3), params) == pytest.approx(
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
        assert besov_norm(f, params) == pytest.approx(expected, rel=1e-12)

    def test_homogeneity_and_triangle(self, rng):
        params = BesovParams(s=1.0, p=2.0, q=2.0)
        for _ in range(100):
            f = _random_band(rng, bandwidth=12)
            g = _random_band(rng, bandwidth=12)
            nf, ng = besov_norm(f, params), besov_norm(g, params)
            assert besov_norm(2.5 * f, params) == pytest.approx(2.5 * nf, rel=1e-12)
            assert besov_norm(f + g, params) <= nf + ng + 1e-9 * (nf + ng)

    def test_triangle_for_non_hilbert_exponents(self, rng):
        params = BesovParams(s=0.8, p=1.5, q=1.2)
        for _ in range(10):
            f = _random_band(rng, bandwidth=8)
            g = _random_band(rng, bandwidth=8)
            nf, ng = besov_norm(f, params), besov_norm(g, params)
            assert besov_norm(f + g, params) <= (nf + ng) * (1.0 + 1e-8)

    @settings(max_examples=20, deadline=None)
    @given(scale=st.floats(0.1, 10.0), seed=st.integers(0, 10**6))
    def test_homogeneity_property(self, scale, seed):
        gen = np.random.default_rng(seed)
        f = _random_band(gen, bandwidth=8)
        params = BesovParams(s=1.3, p=2.0, q=2.5)
        assert besov_norm(scale * f, params) == pytest.approx(
            scale * besov_norm(f, params), rel=1e-11
        )

    def test_zero_iff_zero(self, rng):
        params = BesovParams(s=1.0)
        assert besov_norm(PeriodicGridFunction.zero(2, 16), params) == 0.0
        f = _random_band(rng, bandwidth=4)
        assert besov_norm(f, params) > 0.0

    def test_monotone_in_smoothness_for_mean_free(self, rng):
        f = _random_band(rng, bandwidth=16)
        coeffs = f.coefficients.copy()
        coeffs[f.bandwidth] = 0.0
        f = PeriodicGridFunction.from_coefficients(coeffs, f.n_samples)
        n1 = besov_norm(f, BesovParams(s=0.5))
        n2 = besov_norm(f, BesovParams(s=1.5))
        assert n2 >= n1

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            BesovParams(s=0.0)
        with pytest.raises(ValueError):
            BesovParams(s=1.0, p=0.5)
        with pytest.raises(ValueError):
            BesovParams(s=1.0, q=np.inf)

    def test_report_quadrature_error(self):
        f = _single_mode(3)
        report = besov_norm_report(f, BesovParams(s=1.0, p=2.0, q=2.0))
        assert report.quadrature_error == 0.0
        report_p3 = besov_norm_report(f, BesovParams(s=1.0, p=3.0, q=2.0))
        assert report_p3.quadrature_error <= 1e-10 * report_p3.norm

    def test_quadrature_error_bounds_the_actual_error(self):
        # the stored grid (64) already exceeds 8 (2K + 1) points, so the
        # estimate must come from a finer grid than the norm's own
        f = PeriodicGridFunction.from_harmonics(cos=[1.0, 0.5], sin=[0.0, 0.3],
                                                const=0.2, n_samples=64)
        params = BesovParams(s=1.0, p=3.0, q=2.0)
        report = besov_norm_report(f, params)
        actual = abs(report.norm - besov_norm(f.resample(4096), params))
        assert report.norm == pytest.approx(besov_norm(f, params), rel=1e-14)
        assert report.quadrature_error >= actual > 0.0


    def test_zero_blocks_are_not_synthesised(self, monkeypatch):
        # modes |k| <= 3 only: levels 0..2 carry weight, levels 3..7 of K = 40 do not
        coeffs = np.zeros((81, 2), dtype=complex)
        coeffs[37:44] = np.random.default_rng(8).normal(size=(7, 2))
        f = PeriodicGridFunction.from_coefficients(coeffs, 162)
        params = BesovParams(s=1.0, p=3.0, q=2.0)
        n_quad = 4 * 81
        expected = []
        for level in range(8):
            weights = partition_eval(level, mode_range(40))
            block = PeriodicGridFunction.from_coefficients(weights[:, None] * coeffs,
                                                           2 * n_quad)
            expected.append(PeriodicGridFunction(block.samples[::2], block.coefficients)
                            .lp_norm(3.0))
        calls = []
        synthesis = PeriodicGridFunction.from_coefficients.__func__
        monkeypatch.setattr(PeriodicGridFunction, "from_coefficients", classmethod(
            lambda cls, c, n: calls.append(n) or synthesis(cls, c, n)))
        report = besov_norm_report(f, params)
        assert np.array_equal(report.block_norms, expected)
        assert np.all(report.block_norms[3:] == 0.0) and np.all(report.block_norms[:3] > 0)
        assert calls == [2 * n_quad] * 3


class TestDerivativeShift:
    def test_mode_one_ratio_is_one(self):
        params = BesovParams(s=1.0, p=2.0, q=2.0)
        assert derivative_shift_check(_single_mode(1), params) == pytest.approx(
            1.0, rel=1e-12
        )

    def test_mode_three_ratio_closed_form(self):
        # numerator blocks: 2^{sjq} (|k| phi_j(k))^q at s=1, denominator at s=2;
        # with phi_1(3) = phi_2(3) = 1/2 this gives 3 sqrt(5) / sqrt(68)
        params = BesovParams(s=1.0, p=2.0, q=2.0)
        numerator = 3.0 * np.sqrt(2.0**2 * 0.25 + 2.0**4 * 0.25)
        denominator = np.sqrt(2.0**4 * 0.25 + 2.0**8 * 0.25)
        expected = numerator / denominator
        assert derivative_shift_check(_single_mode(3), params) == pytest.approx(
            expected, rel=1e-12
        )
        assert expected == pytest.approx(3.0 * np.sqrt(5.0) / np.sqrt(68.0))

    def test_constant_input_rejected(self):
        params = BesovParams(s=1.0)
        constant = PeriodicGridFunction.from_harmonics(const=1.0, n_samples=16)
        with pytest.raises(ValueError):
            derivative_shift_check(constant, params)

    def test_ratio_band_over_trig_family(self, rng):
        # equivalence constants: the ratio stays within a factor-4 interval
        params = BesovParams(s=1.0, p=2.0, q=2.0)
        ratios = []
        for k in range(1, 33):
            ratios.append(derivative_shift_check(_single_mode(k, n_samples=256),
                                                 params))
        for _ in range(25):
            f = _random_band(rng, bandwidth=32, n_samples=256)
            ratios.append(derivative_shift_check(f, params))
        ratios = np.asarray(ratios)
        assert ratios.max() / ratios.min() <= 4.0


class TestApplyMultiplier:
    def test_identity(self, rng):
        params = BesovParams(s=1.0)
        f = _random_band(rng, bandwidth=8)
        g, ratio = apply_multiplier(lambda k: 1.0, f, params)
        assert np.allclose(g.coefficients, f.coefficients)
        assert ratio == pytest.approx(1.0, rel=1e-12)

    def test_projection_onto_single_mode(self):
        params = BesovParams(s=1.0)
        f = PeriodicGridFunction.from_coefficients({1: [1.0], 2: [1.0]}, 16)
        g, _ = apply_multiplier(lambda k: 1.0 if k == 1 else 0.0, f, params)
        assert g.coefficient(1)[0] == 1.0
        assert g.coefficient(2)[0] == 0.0

    def test_scalar_rational_family_ratio(self):
        # |3i / (1 + 3i)| = 3 / sqrt(10) on the pure mode 3
        params = BesovParams(s=1.0)
        g, ratio = apply_multiplier(
            lambda k: 1j * k / (1.0 + 1j * k), _single_mode(3), params
        )
        assert ratio == pytest.approx(3.0 / np.sqrt(10.0), rel=1e-12)

    def test_matrix_symbols_act_coefficientwise(self, rng):
        params = BesovParams(s=1.0)
        f = _random_band(rng, bandwidth=6, dim=2)

        def symbol(k):
            return np.array([[1.0, 0.5 * k], [0.0, 2.0]])

        g, _ = apply_multiplier(symbol, f, params)
        for k in mode_range(6):
            expected = symbol(k) @ f.coefficient(int(k))
            assert np.allclose(g.coefficient(int(k)), expected, atol=1e-12)

    def test_bounded_sequence_keeps_ratio_bounded(self, rng):
        # resolvent-shaped scalar sequences contract the norm
        params = BesovParams(s=1.0, p=2.0, q=2.0)
        worst = 0.0
        for _ in range(20):
            f = _random_band(rng, bandwidth=16)
            _, ratio = apply_multiplier(lambda k: 1.0 / (1.0 + 1j * k), f, params)
            worst = max(worst, ratio)
        assert worst <= 1.0 + 1e-12


class TestFourierType:
    def test_single_mode_ratio(self):
        assert fourier_type_ratio(_single_mode(1), 2.0) == pytest.approx(
            1.0 / np.sqrt(TWO_PI), rel=1e-12
        )

    def test_constant_ratio(self):
        f = PeriodicGridFunction.from_harmonics(const=3.0, n_samples=16)
        assert fourier_type_ratio(f, 2.0) == pytest.approx(
            1.0 / np.sqrt(TWO_PI), rel=1e-12
        )

    def test_two_mode_ratio(self):
        f = PeriodicGridFunction.from_coefficients({1: [1.0], 2: [1.0]}, 16)
        assert fourier_type_ratio(f, 2.0) == pytest.approx(
            1.0 / np.sqrt(TWO_PI), rel=1e-12
        )

    def test_parseval_makes_r2_ratio_constant(self, rng):
        for _ in range(50):
            f = _random_band(rng, bandwidth=12, dim=2)
            assert fourier_type_ratio(f, 2.0) == pytest.approx(
                1.0 / np.sqrt(TWO_PI), rel=1e-11
            )

    def test_r_below_two_is_finite_and_deterministic(self, rng):
        f = _random_band(rng, bandwidth=8)
        first = fourier_type_ratio(f, 1.5)
        again = fourier_type_ratio(f, 1.5)
        assert first == again
        assert 0.0 < first < np.inf

    def test_r_out_of_range_rejected(self):
        f = _single_mode(1)
        with pytest.raises(ValueError):
            fourier_type_ratio(f, 1.0)
        with pytest.raises(ValueError):
            fourier_type_ratio(f, 2.5)
