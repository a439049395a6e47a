"""Mode symbols, transforms, analysis/synthesis and their exact algebra."""

import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

import problems
from problems import kernel_values
from specdde import symbols as symbols_module

from specdde import (
    AliasingError,
    DelayFunctional,
    DimensionError,
    DistributedDelay,
    InvalidKernelError,
    KernelSpec,
    PeriodicGridFunction,
    ModeSymbols,
    ProblemSpec,
    analyze,
    laplace_symbol,
    mode_range,
)


TWO_PI = 2.0 * np.pi


def bench_kernel(seed):
    """(samples, span) of the sampled kernel of the benchmark's ``distributed``
    workload at ``seed``."""
    doc = problems.bench_workloads().config_document("distributed", seed)
    dist = doc["problem"]["L"]["distributed"]
    return np.asarray(dist["samples"], dtype=float), float(dist["span"])


def knot_aligned_reference(samples, span, ks):
    """int_{-span}^0 S(theta) e^{ik theta} dtheta for scipy's not-a-knot spline
    S, by a 48-point Gauss-Legendre rule on each spline piece, as a stack of
    shape (n, n, len(ks)).

    Each piece is integrated in its local variable t = theta - x_j, and the
    phase e^{ik x_j} is taken with whole turns removed, so neither the rule
    nor the phases straddle a knot or lose digits to k * theta.
    """
    pieces = samples.shape[0] - 1
    h = span / pieces
    c = CubicSpline(np.linspace(-span, 0.0, pieces + 1), samples, axis=0).c
    x, w = np.polynomial.legendre.leggauss(48)
    t = 0.5 * h * (x + 1.0)
    w = 0.5 * h * w
    tt = t[None, :, None, None]
    values = ((c[0][:, None] * tt + c[1][:, None]) * tt + c[2][:, None]) * tt + c[3][:, None]
    out = []
    for k in ks:
        turns = np.mod(k * np.arange(pieces, 0, -1) / pieces * (span / TWO_PI), 1.0)
        local = np.einsum("q,pqij->pij", w * np.exp(1j * k * t), values)
        out.append(np.einsum("p,pij->ij", np.exp(-2j * np.pi * turns), local))
    return np.stack(out, axis=-1)


def exact_slopes(rhs):
    """The slopes of the not-a-knot system for the real float right-hand
    sides ``rhs``, by a Thomas sweep in exact rational arithmetic, rounded
    to float64 once at the end."""
    m = len(rhs)
    sub = [0] + [1] * (m - 2) + [2]
    diag = [1] + [4] * (m - 2) + [1]
    sup = [2] + [1] * (m - 2) + [0]
    ratio, x = [Fraction(0)] * m, [Fraction(0)] * m
    for i in range(m):  # sub[0] = 0: row 0 reads no row before it
        pivot = diag[i] - sub[i] * ratio[i - 1]
        ratio[i] = sup[i] / pivot
        x[i] = (Fraction(rhs[i]) - sub[i] * x[i - 1]) / pivot
    for i in range(m - 2, -1, -1):
        x[i] -= ratio[i] * x[i + 1]
    return np.array([float(v) for v in x])


class TestDelaySymbol:
    def test_period_lag_atom_is_mode_independent(self):
        L = DelayFunctional(dim=1, atoms=[(0.7, TWO_PI)])
        ks = np.array([-5, -1, 0, 1, 2, 17, 512])
        assert L.symbol_window(ks)[0, 0] == pytest.approx(0.7, abs=1e-15)

    def test_half_period_lag_alternates_sign(self):
        b = 0.4
        L = DelayFunctional(dim=1, atoms=[(b, np.pi)])
        ks = mode_range(8)
        expected = b * (-1.0) ** ks
        assert L.symbol_window(ks)[0, 0] == pytest.approx(expected, abs=1e-14)

    def test_empty_functional_gives_zero_matrix(self):
        L = DelayFunctional(dim=3)
        assert np.array_equal(L.symbol_window(mode_range(7)), np.zeros((3, 3, 15)))

    def test_generic_lag_matches_direct_phase(self):
        lag = 1.2345
        L = DelayFunctional(dim=1, atoms=[(2.0, lag)])
        ks = np.array([-3, 1, 4])
        assert L.symbol_window(ks)[0, 0] == pytest.approx(
            2.0 * np.exp(-1j * ks * lag), abs=1e-13
        )

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            DelayFunctional(dim=2, atoms=[(np.eye(3), 1.0)])

    def test_distributed_symbol_matches_adaptive_quadrature(self):
        # 4,097 samples resolve the kernel to ~1e-14 between the knots
        theta = np.linspace(-TWO_PI, 0.0, 4097)
        dist = DistributedDelay(0.3 * np.exp(theta) + 0.1 * np.cos(theta), span=TWO_PI)
        L = DelayFunctional(dim=1, distributed=dist)
        ks = np.array([0, 1, 5, 23])
        symbols = L.symbol_window(ks)
        for i, k in enumerate(ks):
            re = quad(lambda th: (0.3 * np.exp(th) + 0.1 * np.cos(th))
                      * np.cos(k * th), -TWO_PI, 0.0, limit=200)[0]
            im = quad(lambda th: (0.3 * np.exp(th) + 0.1 * np.cos(th))
                      * np.sin(k * th), -TWO_PI, 0.0, limit=200)[0]
            assert symbols[0, 0, i] == pytest.approx(re + 1j * im, abs=1e-10)

    def test_sampled_kernel_close_to_the_closed_form(self):
        # int_{-2pi}^0 0.3 e^theta e^{ik theta} dtheta = 0.3 (1 - e^{-2pi}) / (1 + ik)
        theta = np.linspace(-TWO_PI, 0.0, 257)
        samples = (0.3 * np.exp(theta))[:, None, None] * np.eye(1)
        sampled = DelayFunctional(
            dim=1, distributed=DistributedDelay(samples, span=TWO_PI)
        )
        ks = np.array([0, 2, 7])
        exact = 0.3 * (1.0 - np.exp(-TWO_PI)) / (1.0 + 1j * ks)
        assert sampled.symbol_window(ks)[0, 0] == pytest.approx(exact, abs=1e-8)

    def test_conjugate_symmetry_for_real_data(self):
        theta = np.linspace(-TWO_PI, 0.0, 129)
        dist = DistributedDelay(
            (0.2 * np.exp(theta / 2.0))[:, None, None] * np.eye(2), span=TWO_PI
        )
        L = DelayFunctional(
            dim=2,
            atoms=[(np.array([[0.5, 0.1], [0.0, 0.3]]), 1.0)],
            distributed=dist,
        )
        ks = np.array([1, 3, 11])
        assert np.allclose(
            L.symbol_window(-ks), np.conj(L.symbol_window(ks)), atol=1e-12
        )

    @settings(max_examples=25, deadline=None)
    @given(
        alpha_re=st.floats(-2.0, 2.0),
        alpha_im=st.floats(-2.0, 2.0),
        seed=st.integers(0, 10**6),
        k=st.integers(-17, 17),
    )
    def test_symbol_linear_in_functional(self, alpha_re, alpha_im, seed, k):
        gen = np.random.default_rng(seed)
        alpha = alpha_re + 1j * alpha_im
        samples, span = gen.normal(size=(5, 2, 2)), 2.7
        l1 = DelayFunctional(
            dim=2,
            atoms=[(gen.normal(size=(2, 2)), TWO_PI * gen.uniform())
                   for _ in range(2)],
            distributed=DistributedDelay(samples, span),
        )
        l2 = DelayFunctional(
            dim=2, atoms=[(gen.normal(size=(2, 2)), TWO_PI * gen.uniform())]
        )
        # alpha * l1 + l2: the scaled atom list and kernel samples, then l2's atoms
        combined = DelayFunctional(
            dim=2,
            atoms=[(alpha * c, lag) for c, lag in l1.atoms] + l2.atoms,
            distributed=DistributedDelay(alpha * samples, span),
        )
        ks = np.array([k])
        expected = alpha * l1.symbol_window(ks) + l2.symbol_window(ks)
        assert np.allclose(combined.symbol_window(ks), expected, atol=1e-12)


class TestSampledKernel:
    """Sampled kernels: the numpy spline fit and its exact Fourier integral."""

    @pytest.mark.parametrize("m", [4, 5, 65, 257, 4097])
    @pytest.mark.parametrize("n", [1, 2, 10])
    @pytest.mark.parametrize("complex_data", [False, True])
    def test_spline_coefficients_match_scipy(self, m, n, complex_data):
        gen = np.random.default_rng(m * 10 + n)
        samples = gen.uniform(-1.0, 1.0, size=(m, n, n))
        if complex_data:
            samples = samples + 1j * gen.uniform(-1.0, 1.0, size=(m, n, n))
        span = 2.7
        dist = DistributedDelay(samples, span=span)
        # scipy's c[3 - p] multiplies (theta - x_j)^p on piece j
        expected = CubicSpline(np.linspace(-span, 0.0, m), samples, axis=0).c[::-1]
        got = dist._pieces.transpose(1, 0, 2, 3)
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("pieces", [3, 4, 5, symbols_module._BLOCK - 1,
                                        symbols_module._BLOCK, symbols_module._BLOCK + 1,
                                        2 * symbols_module._BLOCK + 1])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("complex_data", [False, True])
    def test_spline_pieces_match_a_dense_solve(self, pieces, n, complex_data):
        # the slope system of the _not_a_knot_pieces docstring, solved by
        # LAPACK with partial pivoting; the pieces from those slopes by the
        # same formulas.  Each solve errs by a small multiple of the unit
        # round-off times the matrix's condition number, below 22, so 1e-14
        # of the largest piece bounds their distance (1.4e-15 measured)
        gen = np.random.default_rng(100 * pieces + n)
        samples = gen.uniform(-1.0, 1.0, size=(pieces + 1, n, n))
        if complex_data:
            samples = samples + 1j * gen.uniform(-1.0, 1.0, size=(pieces + 1, n, n))
        h = 2.7 / pieces
        d = (samples[1:] - samples[:-1]) / h
        matrix = 4.0 * np.eye(pieces + 1) + np.eye(pieces + 1, k=1) + np.eye(pieces + 1, k=-1)
        matrix[0, :2] = [1.0, 2.0]
        matrix[pieces, pieces - 1:] = [2.0, 1.0]
        rhs = np.concatenate([[(5.0 * d[0] + d[1]) / 2.0], 3.0 * (d[:-1] + d[1:]),
                              [(d[-2] + 5.0 * d[-1]) / 2.0]])
        slopes = np.linalg.solve(matrix, rhs.reshape(pieces + 1, -1)).reshape(samples.shape)
        s0, s1 = slopes[:-1], slopes[1:]
        t = (s0 + s1 - 2.0 * d) / h
        expected = np.stack([samples[:-1], s0, (d - s0) / h - t, t / h], axis=1)
        got = symbols_module._not_a_knot_pieces(samples, h)
        assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))

    @pytest.mark.parametrize("kind", ["real", "decades", "complex"])
    def test_slopes_match_an_exact_solve(self, kind):
        # the fit's slopes s_0..s_{P-1} (its pieces' c[:, 1]) against the
        # exact solution of the same float system; complex right-hand sides
        # are solved as their two real parts, "decades" spreads the samples
        # over six decades.  4e-15 of the largest slope bounds the distance
        # (8.3e-16 measured)
        for pieces in [*range(3, 71), 257]:
            gen = np.random.default_rng(pieces)
            samples = gen.uniform(-1.0, 1.0, size=pieces + 1)
            if kind == "decades":
                samples *= 10.0 ** gen.uniform(-3.0, 3.0, size=pieces + 1)
            if kind == "complex":
                samples = samples + 1j * gen.uniform(-1.0, 1.0, size=pieces + 1)
            h = 2.7 / pieces
            d = (samples[1:] - samples[:-1]) / h  # the fit's float operations
            rhs = np.concatenate([[(5.0 * d[0] + d[1]) / 2.0], 3.0 * (d[:-1] + d[1:]),
                                  [(d[-2] + 5.0 * d[-1]) / 2.0]])
            exact = exact_slopes(rhs.real)
            if kind == "complex":
                exact = exact + 1j * exact_slopes(rhs.imag)
            got = symbols_module._not_a_knot_pieces(samples.reshape(-1, 1, 1), h)[:, 1, 0, 0]
            assert np.max(np.abs(got - exact[:-1])) <= 4e-15 * np.max(np.abs(exact)), pieces

    def test_fit_peak_memory_is_a_small_multiple_of_its_pieces(self):
        # besides the pieces the fit holds the differences, the right-hand
        # sides, the slopes and a few temporaries of a quarter of their bytes
        # each; 4 times the pieces' bytes bounds its peak (2.9 measured)
        samples = np.random.default_rng(7).uniform(-1.0, 1.0, size=(4097, 2, 2))
        symbols_module._not_a_knot_pieces(samples, 0.1)  # one-time allocations
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            pieces = symbols_module._not_a_knot_pieces(samples, 0.1)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 4 * pieces.nbytes

    def test_step_kernel_on_65536_pieces_matches_scipy(self):
        # span 4 puts every knot on a binary fraction, so scipy's interval
        # widths are all exactly h and both splines solve the same system
        pieces, span = 2**16, 4.0
        grid = np.linspace(-span, 0.0, pieces + 1)
        samples = np.where(grid < -1.0, 1.0, 0.0)[:, None, None] * np.ones((1, 2, 2))
        dist = DistributedDelay(samples, span=span)
        expected = CubicSpline(grid, samples, axis=0).c[::-1]
        got = dist._pieces.transpose(1, 0, 2, 3)
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("dtype", [np.float32, np.int64, np.complex64])
    def test_samples_of_any_type_are_fitted_in_double_precision(self, dtype):
        values = np.random.default_rng(6).uniform(-50.0, 50.0, size=(70, 2, 2))
        if dtype is np.complex64:
            values = values + 1j * values[::-1]
        samples = values.astype(dtype)
        wide = samples.astype(np.result_type(dtype, np.float64))
        assert np.array_equal(DistributedDelay(samples, span=2.7)._pieces,
                              DistributedDelay(wide, span=2.7)._pieces)

    @pytest.mark.parametrize("z", [0.0, 0.3, -0.3, 1.0 - 1e-12, -(1.0 - 1e-12), 1.0, -2.5])
    def test_spline_moments_match_quadrature(self, z):
        # E_m(z) = int_0^1 s^m e^{izs} ds: the series at |z| < 1, the
        # recursion at |z| >= 1.  quad's Gauss-Kronrod rule is exact to
        # round-off on these smooth integrands; |E_m| <= 1, and 1e-15 bounds
        # the distance (at most 3.5e-16 measured)
        def integral(m):
            options = dict(epsabs=1e-13, epsrel=1e-13)
            return (quad(lambda s: s**m * np.cos(z * s), 0.0, 1.0, **options)[0]
                    + 1j * quad(lambda s: s**m * np.sin(z * s), 0.0, 1.0, **options)[0])

        got = symbols_module._spline_moments(np.array([z]), np.exp(1j * np.array([z])))[:, 0]
        expected = np.array([integral(m) for m in range(4)])
        assert np.max(np.abs(got - expected)) <= 1e-15

    def test_spline_moment_branches_agree_across_unit_z(self):
        # the largest float below 1 takes the series, 1 the recursion; E_m
        # moves by at most |z - z'| / (m + 2) < 1e-16 between them, so 1e-15
        # bounds the branches' disagreement (2.9e-16 measured)
        below = np.nextafter(1.0, 0.0)
        z = np.array([below, 1.0, -below, -1.0])
        moments = symbols_module._spline_moments(z, np.exp(1j * z))
        assert np.max(np.abs(moments[:, 0] - moments[:, 1])) <= 1e-15
        assert np.max(np.abs(moments[:, 2] - moments[:, 3])) <= 1e-15

    def test_evaluate_matches_scipy_spline(self):
        samples, span = bench_kernel(2)
        grid = np.linspace(-span, 0.0, samples.shape[0])
        theta = np.concatenate([grid, np.random.default_rng(3).uniform(-span, 0.0, 200)])
        got = DistributedDelay(samples, span=span).evaluate(theta)
        expected = CubicSpline(grid, samples, axis=0)(theta)
        assert np.max(np.abs(got - expected)) <= 1e-13
        assert np.max(np.abs(got[:len(grid)] - samples)) <= 1e-15

    def test_symbol_is_the_exact_spline_integral(self):
        # at |k| > 32 the knots of the seed-2 kernel fall inside the panels of
        # a per-mode Gauss-Legendre rule, which is off by ~2e-8 there
        samples, span = bench_kernel(2)
        ks = np.array([0, 1, -1, 5, 31, 33, 47, 100, 258, 1000])
        got = DelayFunctional(
            dim=2, distributed=DistributedDelay(samples, span=span)
        ).symbol_window(ks)
        expected = knot_aligned_reference(samples, span, ks)
        tol = 1e-14 * span * np.max(np.abs(samples))
        errors = np.max(np.abs(got - expected), axis=(0, 1))
        assert np.all(errors <= tol), dict(zip(ks.tolist(), errors.tolist()))

    def test_small_kh_symbol_keeps_relative_accuracy(self):
        # kh = 2 pi k / 2000 is far below 1: the series branch of E_m
        samples = np.random.default_rng(5).uniform(-1.0, 1.0, size=(2001, 1, 1))
        ks = np.array([1, 2, 7])
        got = DistributedDelay(samples, span=TWO_PI).fourier_window(ks)
        expected = knot_aligned_reference(samples, TWO_PI, ks)
        assert np.all(np.abs(got - expected) <= 1e-12 * np.abs(expected))

    def test_sampled_symbol_evaluates_no_kernel_values(self, monkeypatch):
        def no_evaluate(self, theta):
            raise AssertionError("kernel evaluated")

        dist = DistributedDelay(*bench_kernel(1))
        monkeypatch.setattr(DistributedDelay, "evaluate", no_evaluate)
        assert dist.fourier_window(mode_range(300)).shape == (2, 2, 601)

    def test_rich_kernel_samples_resolve_its_fourier_window(self):
        # mat2_rich's 4,097 samples of 0.05 e^theta I: the cubic spline is off
        # by at most (5/384) h^4 max|f^(4)| at any point, so 2 pi times that
        # bounds the window's distance from 0.05 (1 - e^{-2pi}) / (1 + ik)
        dist = problems.mat2_rich().neutral_delay.distributed
        assert dist.pieces == 4096
        h = TWO_PI / dist.pieces
        bound = TWO_PI * 5.0 / 384.0 * h**4 * 0.05 + 1e-15
        ks = np.array([-40, -3, 0, 2, 17, 64])
        exact = 0.05 * (1.0 - np.exp(-TWO_PI)) / (1.0 + 1j * ks)
        error = np.abs(dist.fourier_window(ks) - exact * np.eye(2)[:, :, None])
        assert np.max(error) <= bound

    @pytest.mark.parametrize("kernel", [
        lambda th: (0.3 * np.exp(th))[:, None, None],
        lambda th: np.where(th < -1.0, 1.0, 0.0)[:, None, None],
        lambda th: np.array([[0.3 * np.exp(th)]]),
    ], ids=["smooth", "step", "scalar"])
    def test_callable_kernel_is_rejected(self, kernel):
        # a kernel is its samples; a function is not sampled for the caller
        with pytest.raises(DimensionError, match="must have shape"):
            DistributedDelay(kernel, span=TWO_PI)

    def test_resolution_argument_is_gone(self):
        with pytest.raises(TypeError):
            DistributedDelay(*bench_kernel(1), resolution=64)

    @pytest.mark.parametrize("turns, fraction", [(1.0, (1, 1)), (0.5, (1, 2)),
                                                 (3.0 / 64.0, (3, 64))])
    def test_fft_route_matches_the_direct_product(self, turns, fraction):
        samples = np.random.default_rng(4).uniform(-1.0, 1.0, size=(78, 2, 2))
        dist = DistributedDelay(samples, span=TWO_PI * turns)
        assert dist._fraction == fraction
        ks = mode_range(4096)
        fft = dist.fourier_window(ks)
        dist._fraction = None
        direct = dist.fourier_window(ks)
        assert np.max(np.abs(fft - direct)) <= 1e-14 * dist.span * np.max(np.abs(samples))

    def test_conjugate_symmetry_for_real_samples(self):
        dist = DistributedDelay(*bench_kernel(3))
        ks = np.arange(1, 300)
        assert np.allclose(dist.fourier_window(-ks), np.conj(dist.fourier_window(ks)),
                           rtol=0.0, atol=1e-16)

    @pytest.mark.parametrize("turns", [10**17, 10**19])
    def test_fft_route_is_exact_at_spans_beyond_int64_products(self, turns):
        # every knot sits on a whole number of periods (h = 2 pi turns / 5), so
        # integration by parts leaves (K(0) - K(-span)) / (ik) plus terms of
        # relative size 1/(k h) < 1e-17; k p overflows int64 from k = 93 on
        samples = np.array([0.3, -0.1, 0.8, 0.2, -0.4, 1.0])
        dist = DistributedDelay(samples, span=TWO_PI * turns)
        assert dist._fraction == (turns, 1)
        ks = np.concatenate([np.arange(-120, 0), np.arange(1, 121)])
        expected = (samples[-1] - samples[0]) / (1j * ks)
        assert np.max(np.abs(dist.fourier_window(ks)[0, 0] - expected)) <= 1e-15

    def test_complex_samples_take_the_complex_direct_product(self):
        # span 2.7 is no p/q multiple of 2 pi: the direct route, one complex
        # product for complex samples and two real ones for real samples
        gen = np.random.default_rng(5)
        re, im = gen.uniform(-1.0, 1.0, size=(2, 33, 2, 2))
        dist = DistributedDelay(re + 1j * im, span=2.7)
        assert dist._fraction is None and not dist.is_real
        ks = mode_range(300)
        expected = (DistributedDelay(re, span=2.7).fourier_window(ks)
                    + 1j * DistributedDelay(im, span=2.7).fourier_window(ks))
        assert np.max(np.abs(dist.fourier_window(ks) - expected)) <= 1e-15

    @pytest.mark.parametrize("samples, span", [(np.ones(5), 0.0), (np.ones(5), -1.0),
                                               (np.ones(3), 1.0), (np.ones((3, 2, 2)), 1.0)])
    def test_nonpositive_span_and_too_few_samples_are_rejected(self, samples, span):
        with pytest.raises(ValueError, match="span must be positive|at least 4"):
            DistributedDelay(samples, span=span)

    @pytest.mark.parametrize("block", [1, 3, 7])
    def test_mode_values_do_not_depend_on_the_window(self, monkeypatch, block):
        samples, _ = bench_kernel(1)
        for span in (TWO_PI, 2.7):  # the FFT route, then the direct route
            dist = DistributedDelay(samples, span=span)
            assert (dist._fraction is None) == (span == 2.7)
            wide = dist.fourier_window(mode_range(40))
            with monkeypatch.context() as patch:
                # the direct route taking `block` modes per step
                patch.setattr(symbols_module, "_PHASE_ENTRIES", block * dist.pieces)
                for ks in (mode_range(40), mode_range(9), np.array([33, -5, 0, 12])):
                    assert np.array_equal(dist.fourier_window(ks), wide[..., ks + 40]), span


class TestLaplaceSymbol:
    def test_exponential_at_zero_is_total_mass(self):
        assert laplace_symbol(KernelSpec(terms=[(1.0, 0, 1.0)]), 0) == pytest.approx(1.0)

    def test_exponential_at_one_vs_quadrature(self):
        # independent truncated quadrature of e^{-t} e^{-it} on [0, 40]
        re = quad(lambda t: np.exp(-t) * np.cos(t), 0.0, 40.0)[0]
        im = quad(lambda t: -np.exp(-t) * np.sin(t), 0.0, 40.0)[0]
        oracle = re + 1j * im
        value = laplace_symbol(KernelSpec(terms=[(1.0, 0, 1.0)]), 1)
        assert value == pytest.approx(oracle, abs=1e-10)
        assert value == pytest.approx(0.5 - 0.5j, abs=1e-12)

    def test_empty_kernel_is_zero(self):
        assert laplace_symbol(KernelSpec(), 3) == 0.0

    def test_closed_form_agrees_with_quadrature(self):
        # adaptive quadrature on [0, 100]; the dropped tail holds < 1e-21 of the mass
        kern = KernelSpec(terms=[(0.5, 2, 1.5), (0.25, 0, 0.5)])
        for k in (0, 1, 7):
            re, im = (quad(lambda t: part(kernel_values(kern, t) * np.exp(-1j * k * t)),
                           0.0, 100.0, limit=800, epsabs=1e-13, epsrel=1e-13)[0]
                      for part in (np.real, np.imag))
            assert laplace_symbol(kern, k) == pytest.approx(re + 1j * im, abs=1e-10)

    def test_modulus_bounded_by_l1_norm(self, rng):
        for _ in range(20):
            terms = [
                (rng.normal(), int(rng.integers(0, 3)), float(rng.uniform(0.2, 3.0)))
                for _ in range(3)
            ]
            kern = KernelSpec(terms=terms)
            bound = quad(lambda t: abs(kernel_values(kern, t)), 0.0, np.inf,
                         limit=400, epsabs=1e-14, epsrel=1e-13)[0]
            for k in (-9, 0, 2, 33):
                assert abs(laplace_symbol(kern, k)) <= bound + 1e-12

    def test_conjugate_symmetry_real_kernel(self):
        kern = KernelSpec(terms=[(1.0, 1, 2.0)])
        for k in (1, 4):
            assert laplace_symbol(kern, -k) == pytest.approx(
                np.conj(laplace_symbol(kern, k))
            )

    def test_invalid_rate_rejected(self):
        with pytest.raises(InvalidKernelError):
            KernelSpec(terms=[(1.0, 0, -1.0)])
        with pytest.raises(InvalidKernelError):
            KernelSpec(terms=[(1.0, 0, 0.0)])
        with pytest.raises(InvalidKernelError):
            KernelSpec(terms=[(1.0, -1, 1.0)])

    def test_terms_out_of_the_float_range_rejected(self):
        # 200! is beyond the float range; 1e-5^101 underflows to zero
        for term in ((1.0, 200, 2.0), (1.0, 100, 1e-5)):
            with pytest.raises(InvalidKernelError, match="term 1: .* out of the float range"):
                KernelSpec(terms=[(0.2, 0, 2.0), term])


class TestAnalyzeSynthesize:
    def test_pure_mode_has_single_coefficient(self):
        t = TWO_PI * np.arange(16) / 16
        v = np.array([2.0, -1.0])
        samples = np.exp(1j * t)[:, None] * v[None, :]
        coeffs = analyze(samples, bandwidth=4)
        ks = mode_range(4)
        for i, k in enumerate(ks):
            expected = v if k == 1 else np.zeros(2)
            assert np.allclose(coeffs[i], expected, atol=1e-14)

    def test_constant_function(self):
        samples = np.full(8, 3.5)
        coeffs = analyze(samples, bandwidth=3)
        assert coeffs[3, 0] == pytest.approx(3.5)
        assert np.max(np.abs(np.delete(coeffs[:, 0], 3))) < 1e-15

    def test_cosine_splits_into_half_coefficients(self):
        # (1/2pi) int cos(t) e^{-i k t} dt = 1/2 at k = +-1
        t = TWO_PI * np.arange(32) / 32
        coeffs = analyze(np.cos(t), bandwidth=4)
        assert coeffs[4 + 1, 0] == pytest.approx(0.5, abs=1e-15)
        assert coeffs[4 - 1, 0] == pytest.approx(0.5, abs=1e-15)
        assert abs(coeffs[4, 0]) < 1e-15

    def test_aliasing_guard(self):
        with pytest.raises(AliasingError):
            analyze(np.zeros(8), bandwidth=4)

    def test_synthesize_constant_and_cosine(self):
        const = PeriodicGridFunction([1.5], 8)
        assert np.allclose(const.samples[:, 0], 1.5)
        cosine = PeriodicGridFunction([0.5, 0.0, 0.5], 16)
        assert np.allclose(cosine.samples[:, 0], np.cos(cosine.nodes), atol=1e-14)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_round_trip_on_random_band(self, seed):
        gen = np.random.default_rng(seed)
        coeffs = gen.normal(size=(17, 2)) + 1j * gen.normal(size=(17, 2))
        f = PeriodicGridFunction(coeffs, 32)
        back = analyze(f.samples, bandwidth=8)
        assert np.max(np.abs(back - coeffs)) <= 1e-12 * np.max(np.abs(coeffs))

    def test_analysis_linear(self, rng):
        a = rng.normal(size=24)
        b = rng.normal(size=24)
        lhs = analyze(2.0 * a + b, bandwidth=8)
        rhs = 2.0 * analyze(a, bandwidth=8) + analyze(b, bandwidth=8)
        assert np.allclose(lhs, rhs, atol=1e-13)

    def test_harmonics_are_exact(self):
        f = PeriodicGridFunction.from_harmonics(cos=[1.0, 0.0, 2.0], sin=[0.5])
        assert f.bandwidth == 3
        assert f.coefficients[3 + 1, 0] == (1.0 - 0.5j) / 2.0
        assert f.coefficients[3 - 1, 0] == (1.0 + 0.5j) / 2.0
        assert f.coefficients[3 + 3, 0] == 1.0
        assert f.coefficients[3 + 2, 0] == 0.0

    def test_coefficients_synthesise_on_any_grid(self):
        # the same coefficients on 64 nodes, and ik times them: cos t and -sin t
        f = PeriodicGridFunction.from_harmonics(cos=[1.0])
        g = PeriodicGridFunction(f.coefficients, 64)
        assert np.allclose(g.samples[:, 0], np.cos(g.nodes), atol=1e-14)
        d = PeriodicGridFunction(1j * mode_range(1)[:, None] * f.coefficients, f.n_samples)
        assert np.allclose(d.samples[:, 0], -np.sin(d.nodes), atol=1e-14)

    def test_building_a_grid_function_runs_no_synthesis(self, inverse_ffts):
        f = PeriodicGridFunction([0.5, 0.0, 0.5], 16)
        g = PeriodicGridFunction.from_harmonics(cos=[1.0], sin=[0.0, 2.0])
        built = [PeriodicGridFunction.zero(2, 32), PeriodicGridFunction(f.coefficients, 64),
                 PeriodicGridFunction.from_samples(np.cos(f.nodes)),
                 PeriodicGridFunction(2.0 * g.coefficients, g.n_samples)]
        assert inverse_ffts == []
        samples = f.samples
        assert inverse_ffts == [("irfft", 16)]
        assert f.samples is samples and inverse_ffts == [("irfft", 16)]
        assert np.allclose(built[-1].samples, 2.0 * g.samples, atol=1e-14)

    def test_samples_are_the_synthesis_of_the_coefficients(self):
        # the Nyquist mode of an even grid lies outside every band |k| < N/2
        f = PeriodicGridFunction.from_samples([1.0, -1.0, 1.0, -1.0])
        assert f.bandwidth == 1 and f.n_samples == 4
        assert np.array_equal(f.coefficients, np.zeros((3, 1)))
        assert f.max_norm() == 0.0 and np.array_equal(f.samples, np.zeros((4, 1)))

    @pytest.mark.parametrize("scale", [1.0, 2.0 ** 900, 2.0 ** -900])
    def test_norms_move_exactly_with_a_power_of_two(self, scale):
        # at 2^900 the squares overflow and at 2^-900 they underflow, yet
        # the norms are in the float range and come out exact
        row = PeriodicGridFunction([[3.0 * scale, 4.0 * scale]], 4)
        assert row.max_norm() == 5.0 * scale
        f = PeriodicGridFunction.from_harmonics(cos=[3.0 * scale, 4.0 * scale])
        unit = PeriodicGridFunction.from_harmonics(cos=[3.0, 4.0])
        assert f.tail_energy(1) == unit.tail_energy(1) == pytest.approx(0.8, rel=1e-15)
        assert f.tail_energy(2) == 0.0
        assert PeriodicGridFunction.zero(2, 8).tail_energy(0) == 0.0


class TestRealness:
    """A grid function is real when its coefficients are exactly Hermitian;
    samples with an all-zero imaginary part give such coefficients."""

    def test_realness_runs_no_transform(self, inverse_ffts):
        t = TWO_PI * np.arange(64) / 64
        sampled = PeriodicGridFunction.from_samples(np.cos(t) + 0.5 * np.sin(3 * t), 8)
        for spec in (problems.scalar_full(), replace(problems.scalar_full(), forcing=sampled)):
            assert spec.is_real
        assert inverse_ffts == []

    def test_complex_dtype_samples_with_zero_imaginary_part_are_real(self):
        t = TWO_PI * np.arange(64) / 64
        real = PeriodicGridFunction.from_samples(np.cos(t) + 0j, bandwidth=8)
        assert real.is_real
        assert np.array_equal(real.coefficients, analyze(np.cos(t), bandwidth=8))
        assert not PeriodicGridFunction.from_samples(np.cos(t) + 1e-20j, bandwidth=8).is_real

    def test_one_ulp_off_hermitian_is_complex(self):
        # no tolerance: a coefficient one ulp off its mirror's conjugate is data
        coeffs = np.array([0.5 + 0.25j, 1.0, 0.5 - 0.25j])
        assert PeriodicGridFunction(coeffs, 8).is_real
        coeffs[0] = np.nextafter(0.5, 1.0) + 0.25j
        assert not PeriodicGridFunction(coeffs, 8).is_real


class TestSymbolOperatorConsistency:
    """Applying the functional on the grid must match coefficient-wise action."""

    def _check(self, functional, pointwise, K=6, tol=1e-8):
        gen = np.random.default_rng(7)
        coeffs = gen.normal(size=(2 * K + 1, functional.dim)) \
            + 1j * gen.normal(size=(2 * K + 1, functional.dim))
        u = PeriodicGridFunction(coeffs, 4 * K)

        def u_eval(t):
            ks = mode_range(K)
            return (np.exp(1j * np.outer(np.atleast_1d(t), ks)) @ coeffs)

        nodes = u.nodes
        applied = np.stack([pointwise(u_eval, t) for t in nodes])
        got = analyze(applied, bandwidth=K)
        expected = np.einsum("ijk,kj->ki", functional.symbol_window(mode_range(K)), coeffs)
        assert np.allclose(got, expected, atol=tol)

    def test_atoms(self):
        L = DelayFunctional(
            dim=2,
            atoms=[(np.array([[0.5, 0.1], [0.2, 0.3]]), 1.1), (0.2 * np.eye(2), np.pi)],
        )

        def pointwise(u_eval, t):
            return (L.atoms[0][0] @ u_eval(t - 1.1)[0]
                    + L.atoms[1][0] @ u_eval(t - np.pi)[0])

        self._check(L, pointwise)

    def test_distributed(self):
        theta = np.linspace(-TWO_PI, 0.0, 4097)
        dist = DistributedDelay(0.3 * np.exp(theta), span=TWO_PI)
        L = DelayFunctional(dim=1, distributed=dist)

        def pointwise(u_eval, t):
            re = quad(lambda th: (0.3 * np.exp(th) * u_eval(t + th)[0, 0]).real,
                      -TWO_PI, 0.0, limit=200)[0]
            im = quad(lambda th: (0.3 * np.exp(th) * u_eval(t + th)[0, 0]).imag,
                      -TWO_PI, 0.0, limit=200)[0]
            return np.array([re + 1j * im])

        self._check(L, pointwise, K=4)

    def test_convolution_coefficients_multiply_by_transform(self):
        # F(t) = int_0^inf a(tau) u(t - tau) dtau for a trig polynomial u
        kern = KernelSpec(terms=[(0.8, 0, 1.3)])
        K = 3
        gen = np.random.default_rng(11)
        coeffs = gen.normal(size=(2 * K + 1, 1)) + 1j * gen.normal(size=(2 * K + 1, 1))
        u = PeriodicGridFunction(coeffs, 16)
        ks = mode_range(K)

        def u_eval(t):
            return np.exp(1j * t * ks) @ coeffs[:, 0]

        horizon = 40.0  # tail mass ~ e^{-52}
        nodes = u.nodes
        applied = np.empty(len(nodes), dtype=complex)
        for j, t in enumerate(nodes):
            re = quad(lambda tau: (0.8 * np.exp(-1.3 * tau) * u_eval(t - tau)).real,
                      0.0, horizon, limit=400)[0]
            im = quad(lambda tau: (0.8 * np.exp(-1.3 * tau) * u_eval(t - tau)).imag,
                      0.0, horizon, limit=400)[0]
            applied[j] = re + 1j * im
        got = analyze(applied, bandwidth=K)
        for i, k in enumerate(ks):
            assert got[i, 0] == pytest.approx(
                laplace_symbol(kern, int(k)) * coeffs[i, 0], abs=1e-9
            )


class TestModeSymbols:
    def test_table_holds_the_functionals_and_the_transform(self, regression_specs):
        for name, spec in regression_specs.items():
            table = ModeSymbols.from_spec(spec, 12)
            ks = mode_range(12)
            assert np.array_equal(table.modes, ks), name
            assert np.array_equal(table.L, spec.neutral_delay.symbol_window(ks)), name
            assert np.array_equal(table.G, spec.reaction_delay.symbol_window(ks)), name
            assert np.array_equal(table.a, laplace_symbol(spec.kernel, ks)), name

    def test_rows_are_bit_identical_to_the_narrower_table(self, regression_specs):
        # a mode's symbols and M(k) do not depend on the band, distributed
        # kernels too: modes 31..49 of the table on |k| <= 40 are |k| <= 9
        assert "mat2_sampled" in regression_specs
        for name, spec in regression_specs.items():
            wide = ModeSymbols.from_spec(spec, 40)
            narrow = ModeSymbols.from_spec(spec, 9)
            for field in ("modes", "L", "G", "a"):
                assert np.array_equal(getattr(wide, field)[..., 31:50],
                                      getattr(narrow, field)), name
            assert np.array_equal(wide.modal(spec.state_matrix)[..., 31:50],
                                  narrow.modal(spec.state_matrix)), name
            # a table on k >= 0 alone holds the same modes as the whole band's
            half = ModeSymbols.on_modes(spec, np.arange(41))
            for field in ("modes", "L", "G", "a"):
                assert np.array_equal(getattr(half, field)[..., :10],
                                      getattr(narrow, field)[..., 9:]), name

    def test_rows_are_bit_identical_with_small_mode_blocks(self, monkeypatch):
        # mat2_sampled takes the FFT route; the same kernel on a span off the
        # FFT grid takes the direct route, here three modes per step
        theta = np.linspace(-2.7, 0.0, 65)
        dist = DistributedDelay(0.05 * np.exp(theta)[:, None, None] * np.eye(2), span=2.7)
        assert dist._fraction is None
        off_grid = replace(problems.mat2_sampled(), neutral_delay=DelayFunctional(
            dim=2, atoms=[(0.1 * np.eye(2), TWO_PI)], distributed=dist))
        monkeypatch.setattr(symbols_module, "_PHASE_ENTRIES", 3 * dist.pieces)
        for spec in (problems.mat2_sampled(), off_grid):
            wide = ModeSymbols.from_spec(spec, 40)
            narrow = ModeSymbols.from_spec(spec, 9)
            assert np.array_equal(wide.L[..., 31:50], narrow.L)
            assert np.array_equal(wide.modal(spec.state_matrix)[..., 31:50],
                                  narrow.modal(spec.state_matrix))

    def test_modal_is_nonstate_minus_state_times_neutral(self, rng):
        spec = ProblemSpec(
            state_matrix=rng.normal(size=(2, 2)),
            neutral_delay=DelayFunctional(dim=2, atoms=[(rng.normal(size=(2, 2)), 1.0)]),
            reaction_delay=DelayFunctional(dim=2, atoms=[(rng.normal(size=(2, 2)), 2.0)]),
            kernel=KernelSpec(terms=[(1.0, 0, 1.0)]),
            truncation=4,
            grid=16,
        )
        table = ModeSymbols.from_spec(spec, 6)
        eye = np.eye(2)
        for i, k in enumerate(table.modes):
            d = eye - table.L[..., i]
            closed = 1j * k * d - spec.state_matrix @ d - table.G[..., i] - table.a[i] * eye
            assert np.allclose(table.modal(spec.state_matrix)[..., i], closed, atol=1e-14)
            assert np.allclose(table.neutral[..., i], d, atol=0.0)


    def test_modal_reads_the_one_neutral_part_of_the_table(self, regression_specs):
        for spec in regression_specs.values():
            table = ModeSymbols.from_spec(spec, 9)
            eye = np.eye(spec.dim)
            neutral = eye[:, :, None] - table.L
            nonstate = 1j * table.modes * neutral - table.G - table.a * eye[:, :, None]
            expected = nonstate - symbols_module._stack_product(spec.state_matrix, neutral)
            np.testing.assert_array_equal(table.modal(spec.state_matrix), expected)
            assert table.neutral is table.neutral


def _stack(rng, shape, complex_data):
    x = rng.standard_normal(shape)
    return x + 1j * rng.standard_normal(shape) if complex_data else x


class TestStackProduct:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("complex_x", [False, True])
    @pytest.mark.parametrize("complex_y", [False, True])
    def test_agrees_with_matmul(self, n, complex_x, complex_y):
        rng = np.random.default_rng(n)
        m = 300
        y = _stack(rng, (n, n, m), complex_y) * np.logspace(-8, 8, m)
        for x in (_stack(rng, (n, n, m), complex_x), _stack(rng, (n, n), complex_x)):
            product = symbols_module._stack_product(x, y)
            # the modes of a stack on the last axis, of matmul's on the first
            per_mode = np.moveaxis(x, -1, 0) if x.ndim == 3 else x
            expected = np.moveaxis(np.matmul(per_mode, np.moveaxis(y, -1, 0)), 0, -1)
            assert product.shape == expected.shape and product.dtype == expected.dtype
            # each entry is a sum of n products, each rounded once or twice
            bound = (4 * n * np.finfo(float).eps * np.linalg.norm(per_mode, axis=(-2, -1))
                     * np.linalg.norm(y, axis=(0, 1)))
            assert np.all(np.abs(product - expected) <= bound)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_the_product_of_a_slice_is_the_slice_of_the_product(self, n):
        rng = np.random.default_rng(10 + n)
        x, y = _stack(rng, (n, n, 257), True), _stack(rng, (n, n, 257), True)
        state = _stack(rng, (n, n), False)
        whole = symbols_module._stack_product(x, y)
        whole_state = symbols_module._stack_product(state, y)
        for modes in (slice(0, 1), slice(5, 100), slice(100, 257), [200, 3, 77]):
            np.testing.assert_array_equal(
                symbols_module._stack_product(x[..., modes], y[..., modes]),
                whole[..., modes])
            np.testing.assert_array_equal(
                symbols_module._stack_product(state, y[..., modes]), whole_state[..., modes])


class TestValidation:
    """The Python API rejects malformed data where it is constructed, with
    the package's own errors, as ``config`` does for a configuration."""

    @pytest.mark.parametrize("kwargs, error, match", [
        ({"state_matrix": np.ones((2, 3))}, DimensionError, "must be square"),
        ({"state_matrix": [[-1.0]], "truncation": 0}, ValueError, "truncation must be >= 1"),
        ({"state_matrix": [[-1.0]], "truncation": 4, "grid": 8}, AliasingError, "N >= 2K\\+1"),
        ({"state_matrix": -np.eye(2), "neutral_delay": DelayFunctional(dim=1)},
         DimensionError, "neutral delay dimension 1 != state dimension 2"),
        ({"state_matrix": -np.eye(2), "reaction_delay": DelayFunctional(dim=3)},
         DimensionError, "reaction delay dimension 3 != state dimension 2"),
        ({"state_matrix": -np.eye(2), "forcing": PeriodicGridFunction.zero(1)},
         DimensionError, "forcing dimension 1 != state dimension 2"),
        # with a forcing given, a fractional size used to construct and fail
        # inside the solve
        ({"state_matrix": [[-1.0]], "forcing": PeriodicGridFunction.from_harmonics(cos=[1.0]),
          "truncation": 4.5}, TypeError, "as an integer"),
        ({"state_matrix": [[-1.0]], "forcing": PeriodicGridFunction.from_harmonics(cos=[1.0]),
          "truncation": 4, "grid": 20.5}, TypeError, "as an integer"),
        # a non-finite A used to construct and reject every mode as singular
        ({"state_matrix": [[np.nan]]}, ValueError, "state matrix must be finite"),
        ({"state_matrix": [[-1.0, 0.0], [np.inf, -1.0]]}, ValueError,
         "state matrix must be finite"),
        # a non-finite forcing used to construct and give NaN in every result
        ({"state_matrix": [[-1.0]], "truncation": 4,
          "forcing": PeriodicGridFunction.from_harmonics(cos=[np.nan])},
         ValueError, "forcing coefficients must be finite"),
        ({"state_matrix": [[-1.0]], "truncation": 1,
          "forcing": PeriodicGridFunction.from_samples([np.nan, 1.0, 2.0, 0.5])},
         ValueError, "forcing coefficients must be finite"),
    ], ids=["non_square", "truncation_0", "grid_below_2K+1", "neutral_dim", "reaction_dim",
            "forcing_dim", "fractional_truncation", "fractional_grid", "nan_state",
            "infinite_state", "nan_forcing", "nan_forcing_sample"])
    def test_problem_spec(self, kwargs, error, match):
        with pytest.raises(error, match=match):
            ProblemSpec(**kwargs)

    def test_delay_functional(self):
        with pytest.raises(DimensionError, match="state dimension must be >= 1"):
            DelayFunctional(dim=0)
        with pytest.raises(ValueError, match="atom 1: lag must be nonnegative"):
            DelayFunctional(dim=1, atoms=[(0.5, 1.0), (0.5, -0.25)])
        kernel = DistributedDelay(np.ones((5, 2, 2)), span=TWO_PI)
        with pytest.raises(DimensionError, match="distributed kernel dimension 2 != 1"):
            DelayFunctional(dim=1, distributed=kernel)

    @pytest.mark.parametrize("lag", [np.nan, np.inf])
    def test_non_finite_atom_lag(self, lag):
        with pytest.raises(ValueError, match="atom 1: lag must be finite"):
            DelayFunctional(dim=1, atoms=[(0.5, 1.0), (0.5, lag)])

    @pytest.mark.parametrize("coefficient", [np.nan, [[0.5, np.inf], [0.0, 0.5]]])
    def test_non_finite_atom_coefficient(self, coefficient):
        dim = np.ndim(coefficient) or 1
        with pytest.raises(ValueError, match="atom 0 coefficient must be finite"):
            DelayFunctional(dim=dim, atoms=[(coefficient, 1.0)])

    def test_infinite_distributed_span(self):
        with pytest.raises(ValueError, match="distributed span must be finite"):
            DistributedDelay(np.ones(5), span=np.inf)

    def test_infinite_decay_rate(self):
        # alpha = inf used to pass as a zero kernel
        with pytest.raises(InvalidKernelError, match="term 0: decay rate alpha must be finite"):
            KernelSpec(terms=[(1.0, 0, np.inf)])

    @pytest.mark.parametrize("m", [np.inf, np.nan])
    def test_non_finite_power(self, m):
        # int(m) used to raise OverflowError or ValueError
        with pytest.raises(InvalidKernelError, match="term 0: power m must be an integer"):
            KernelSpec(terms=[(1.0, m, 1.0)])

    def test_finite_extremes_are_accepted(self):
        spec = ProblemSpec(
            state_matrix=[[-1e300]],
            neutral_delay=DelayFunctional(dim=1, atoms=[(1e300, 1e200)]),
            reaction_delay=DelayFunctional(
                dim=1, distributed=DistributedDelay(np.full(5, 1e300), span=1e200)),
            kernel=KernelSpec(terms=[(1.0, 0, 1e300)]),
        )
        assert spec.truncation == 64 and spec.grid == 256

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_distributed_kernel(self, bad):
        with pytest.raises(InvalidKernelError, match="must be finite"):
            DistributedDelay(np.array([0.1, 0.2, bad, 0.3, 0.4]), span=TWO_PI)

    def test_periodic_grid_function(self):
        with pytest.raises(ValueError, match="odd length"):
            PeriodicGridFunction(np.zeros((4, 1)), 16)
        with pytest.raises(AliasingError, match="N=6 too small for bandwidth K=3"):
            PeriodicGridFunction(np.zeros((7, 1)), 6)
        with pytest.raises(DimensionError, match="harmonic entry of length 3, expected 2"):
            PeriodicGridFunction.from_harmonics(cos=[[1.0, 2.0], [1.0, 2.0, 3.0]], dim=2)
