"""Fourier-side building blocks for 2*pi-periodic delay problems.

Conventions used throughout the package:

* functions are 2*pi-periodic and sampled at the uniform nodes t_j = 2*pi*j/N;
* the k-th Fourier coefficient of f is fhat(k) = (1/2pi) int_0^{2pi} e^{-ikt} f(t) dt;
* the history segment of u at time t is u_t(theta) = u(t + theta), theta in [-r, 0];
* applying a delay functional to the pure mode e^{ikt} v multiplies v by a fixed
  matrix, the mode symbol of the functional.  Mode symbols are what the solver
  and the diagnostics consume.

The distributed part of a delay functional is always a not-a-knot cubic
spline on uniform pieces (fitted here in numpy): through the given samples,
or through a callable kernel sampled at construction on as many pieces as
its midpoint defect needs.  Its Fourier integral is exact per piece.  The
phase sums of all modes come from one zero-padded inverse FFT when the span
is a small rational multiple of 2*pi, else from one direct phase product;
no kernel is evaluated per mode.

Everything here is a pure function of immutable inputs; evaluations for
different modes are independent and may run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .exceptions import AliasingError, DimensionError, InvalidKernelError

TWO_PI = 2.0 * np.pi

#: a callable kernel is sampled on 64, 128, ... spline pieces until the
#: midpoint defect is at most _SAMPLE_TOL * max|K|
_SAMPLE_TOL, _FIRST_PIECES, _MAX_PIECES = 1e-12, 64, 2**16

#: largest q of span / 2 pi = p/q taken by the FFT route
_MAX_DENOMINATOR = 64

#: phase entries per step of the direct route (bounds its memory)
_PHASE_ENTRIES = 2**20

#: power-series terms of E_m(z) at |z| < 1 (the first one dropped is < 1e-19)
_SERIES_TERMS = 20


def mode_range(bandwidth: int) -> np.ndarray:
    """Integer modes -K..K for a given bandwidth K."""
    return np.arange(-bandwidth, bandwidth + 1)


def _unit_phase(x):
    """e^{-2*pi*i*x} with the whole turns removed before evaluation.

    Reducing x mod 1 first keeps lags that are exact binary fractions of the
    period (pi, 2*pi, ...) on the unit circle exactly, so period-multiple lags
    produce mode-independent symbols with no k*eps phase drift.
    """
    return np.exp(-2j * np.pi * np.mod(x, 1.0))


def _as_state_matrix(value, dim: int, what: str) -> np.ndarray:
    mat = np.asarray(value)
    if mat.ndim == 0:
        mat = mat.reshape(1, 1)
    if mat.shape != (dim, dim):
        raise DimensionError(f"{what}: expected a {dim}x{dim} matrix, got {mat.shape}")
    return mat


def _not_a_knot_pieces(samples: np.ndarray, h: float) -> np.ndarray:
    """Power coefficients of the not-a-knot cubic spline through uniform samples.

    ``samples`` holds y_0..y_P (P >= 3 pieces of width h), shape (P+1, n, n).
    Returns c of shape (P, 4, n, n) with S(theta) = sum_m c[j, m] (theta - x_j)^m
    on piece j.  The knot slopes s_i solve the uniform-grid system (rows
    divided by h), with d_j = (y_{j+1} - y_j) / h:

        s_0 + 2 s_1                = (5 d_0 + d_1) / 2
        s_{i-1} + 4 s_i + s_{i+1}  = 3 (d_{i-1} + d_i)          0 < i < P
        2 s_{P-1} + s_P            = (d_{P-2} + 5 d_{P-1}) / 2

    by one Thomas sweep; the first and last rows make the third derivative
    continuous at x_1 and x_{P-1}.
    """
    y = samples
    pieces = y.shape[0] - 1
    d = (y[1:] - y[:-1]) / h
    rhs = np.empty_like(d, shape=y.shape)
    rhs[0] = (5.0 * d[0] + d[1]) / 2.0
    rhs[1:pieces] = 3.0 * (d[:-1] + d[1:])
    rhs[pieces] = (d[pieces - 2] + 5.0 * d[pieces - 1]) / 2.0
    sub = [0.0] + [1.0] * (pieces - 1) + [2.0]
    diag = [1.0] + [4.0] * (pieces - 1) + [1.0]
    sup = [2.0] + [1.0] * (pieces - 1)
    for i in range(1, pieces + 1):
        w = sub[i] / diag[i - 1]
        diag[i] -= w * sup[i - 1]
        rhs[i] -= w * rhs[i - 1]
    slopes = np.empty_like(rhs)
    slopes[pieces] = rhs[pieces] / diag[pieces]
    for i in range(pieces - 1, -1, -1):
        slopes[i] = (rhs[i] - sup[i] * slopes[i + 1]) / diag[i]
    s0, s1 = slopes[:-1], slopes[1:]
    t = (s0 + s1 - 2.0 * d) / h
    return np.stack([y[:-1], s0, (d - s0) / h - t, t / h], axis=1)


def _spline_moments(z: np.ndarray, expiz: np.ndarray) -> np.ndarray:
    """E_m(z) = int_0^1 s^m e^{izs} ds for m = 0..3, shape (4, len(z)).

    ``expiz`` holds e^{iz}.  For |z| >= 1 the forward recursion
    E_0 = (e^{iz} - 1)/(iz), E_m = (e^{iz} - m E_{m-1})/(iz); it loses
    accuracy like |z|^{-m} as z -> 0, so |z| < 1 sums the power series
    E_m(z) = sum_p (iz)^p / (p! (m + p + 1)) instead.
    """
    out = np.empty((4, len(z)), dtype=complex)
    small = np.abs(z) < 1.0
    iz = 1j * z[~small]
    e = expiz[~small]
    prev = (e - 1.0) / iz
    out[0, ~small] = prev
    for m in range(1, 4):
        prev = (e - m * prev) / iz
        out[m, ~small] = prev
    if np.any(small):
        iz = 1j * z[small]
        term = np.ones_like(iz)
        series = np.zeros((4, len(iz)), dtype=complex)
        for p in range(_SERIES_TERMS):
            series += term / (np.arange(1, 5)[:, None] + p)
            term = term * iz / (p + 1)
        out[:, small] = series
    return out


class DistributedDelay:
    """Distributed part  int_{-span}^0 K(theta) u(t + theta) dtheta  of a functional.

    Parameters
    ----------
    kernel : callable or ndarray
        Either kernel samples of shape (m, n, n) taken on the uniform grid
        from -span to 0 (m >= 4), or a vectorised function mapping an array
        of q points to an array of shape (q, n, n).
    span : float
        Positive length of the memory window.

    The kernel is held as one thing, the not-a-knot cubic spline on P
    uniform pieces.  Samples are fitted as given (P = m - 1,
    ``sample_error`` 0.0).  A callable is sampled at construction on
    P = 64, 128, ... pieces, doubling until the spline is within
    ``_SAMPLE_TOL`` of max|K| of the callable at every piece midpoint (the
    next level's new knots); ``sample_error`` records that midpoint defect,
    in kernel units.  ``evaluate`` and ``fourier_window`` read the spline
    only, so every consumer sees the same operator.
    """

    def __init__(self, kernel, span: float):
        if not span > 0.0:
            raise ValueError(f"distributed span must be positive, got {span}")
        self.span = float(span)
        if callable(kernel):
            samples, self._pieces, self.sample_error = _sample_callable(kernel, self.span)
        else:
            samples = np.asarray(kernel)
            if samples.ndim == 1:
                samples = samples.reshape(-1, 1, 1)
            samples = _kernel_values(samples)
            if samples.shape[0] < 4:
                raise ValueError("need at least 4 kernel samples for interpolation")
            self._pieces = _not_a_knot_pieces(samples, self.span / (samples.shape[0] - 1))
            self.sample_error = 0.0
        self.pieces, self.dim = samples.shape[0] - 1, samples.shape[1]
        self.is_real = not np.any(np.imag(samples))
        self._samples = samples
        self._grid = np.linspace(-self.span, 0.0, self.pieces + 1)
        self._fraction = _span_fraction(self.span / TWO_PI)

    def evaluate(self, theta: np.ndarray) -> np.ndarray:
        """Spline values at the points theta, as an array of shape (q, n, n)."""
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        piece = np.searchsorted(self._grid, theta, side="right") - 1
        piece = np.clip(piece, 0, self.pieces - 1)
        return _horner(self._pieces[piece], (theta - self._grid[piece])[:, None, None])

    def fourier_window(self, ks: np.ndarray) -> np.ndarray:
        """int_{-span}^0 S(theta) e^{ik theta} dtheta for every mode in ``ks``,
        shape (len(ks), n, n), exact for the spline S.

        On piece j the spline is sum_m c_{j,m} (theta - x_j)^m with knots
        x_j = -span + j h, so

            int S(theta) e^{ik theta} dtheta
                = sum_m h^{m+1} E_m(kh) sum_j c_{j,m} e^{ik x_j}.

        The phase sums take one of two routes, fixed at construction.  When
        span / 2 pi = p/q with small q, e^{ik x_j} = e^{-ik span} w^{(kp) j}
        with w = e^{2 pi i/(qP)}, so the sums of every mode are entries
        (kp mod qP) of one zero-padded inverse FFT of length qP of the
        coefficient stack.  Otherwise they are one direct phase product by
        ``np.einsum``, which computes each row alone.  Either way a mode's
        value depends on that mode alone, not on ``ks``.
        """
        ks = np.asarray(ks, dtype=int)
        pieces, n = self.pieces, self.dim
        turns = self.span / TWO_PI
        h = self.span / pieces
        stack = self._pieces.reshape(pieces, -1)
        if self._fraction is not None:
            p, q = self._fraction
            table = np.fft.ifft(stack, n=q * pieces, axis=0, norm="forward")
            shift = _unit_phase(np.mod(ks * p, q) / q)
            sums = table[np.mod(ks * p, q * pieces)] * shift[:, None]
        else:
            back = np.arange(pieces, 0, -1)
            step = max(1, _PHASE_ENTRIES // pieces)
            sums = np.empty((len(ks), stack.shape[1]), dtype=complex)
            for i in range(0, len(ks), step):
                phases = _unit_phase((np.outer(ks[i:i + step], back) / pieces) * turns)
                sums[i:i + step] = np.einsum("kj,jc->kc", phases, stack)
        moments = _spline_moments(ks * h, _unit_phase(-(ks / pieces) * turns))
        weights = h ** np.arange(1, 5)[:, None] * moments
        return np.einsum("mk,kmij->kij", weights, sums.reshape(len(ks), 4, n, n))

    def scaled(self, factor: complex) -> "DistributedDelay":
        out = DistributedDelay(factor * self._samples, self.span)
        out.sample_error = abs(factor) * self.sample_error
        return out


def _sample_callable(kernel, span: float):
    """(samples, spline pieces, midpoint defect) of the first level that meets
    ``_SAMPLE_TOL``."""
    pieces = _FIRST_PIECES
    values = _kernel_values(kernel(np.linspace(-span, 0.0, pieces + 1)), pieces + 1)
    while True:
        c = _not_a_knot_pieces(values, span / pieces)
        mids = _kernel_values(kernel(np.linspace(-span, 0.0, 2 * pieces + 1)[1::2]), pieces)
        defect = float(np.max(np.abs(_horner(c, 0.5 * span / pieces) - mids)))
        scale = max(np.max(np.abs(values)), np.max(np.abs(mids)))
        if defect <= _SAMPLE_TOL * scale:
            return values, c, defect
        if pieces == _MAX_PIECES:
            raise InvalidKernelError(
                f"distributed kernel not resolved by {pieces} spline pieces: "
                f"midpoint defect {defect:.3e} against max|K| {scale:.3e}"
            )
        values = np.insert(values, np.arange(1, pieces + 1), mids, axis=0)
        pieces *= 2


def _kernel_values(values, points: Optional[int] = None) -> np.ndarray:
    """Kernel samples or values checked to be a finite (q, n, n) array, with
    q = ``points`` when given."""
    values = np.asarray(values)
    if (values.ndim != 3 or values.shape[1] != values.shape[2]
            or points is not None and values.shape[0] != points):
        raise DimensionError(f"distributed kernel values must have shape "
                             f"({points or 'q'}, n, n), got {values.shape}")
    if not np.all(np.isfinite(values)):
        raise InvalidKernelError("distributed kernel values must be finite")
    return values


def _horner(c: np.ndarray, t) -> np.ndarray:
    """Spline pieces c of shape (q, 4, n, n) at local offsets t."""
    return ((c[:, 3] * t + c[:, 2]) * t + c[:, 1]) * t + c[:, 0]


def _span_fraction(turns: float):
    """(p, q) with turns = p/q to round-off and the least q <= _MAX_DENOMINATOR,
    or None."""
    qs = np.arange(1, _MAX_DENOMINATOR + 1)
    ps = np.rint(turns * qs)
    fits = (ps >= 1) & (np.abs(turns * qs - ps) <= 4 * np.finfo(float).eps * ps)
    return (int(ps[fits][0]), int(qs[fits][0])) if np.any(fits) else None


@dataclass
class DelayFunctional:
    """Bounded delay functional: discrete-lag atoms plus a distributed kernel.

    Applying the functional to a history segment gives

        L(u_t) = sum_j  B_j u(t - r_j)  +  int_{-span}^0 K(theta) u(t + theta) dtheta

    with every lag r_j in [0, horizon] and horizon a positive multiple of 2*pi.

    ``atoms`` is a sequence of (coefficient matrix, lag) pairs.  Scalar
    coefficients are accepted when dim == 1.
    """

    dim: int
    atoms: Sequence = field(default_factory=list)
    distributed: Optional[DistributedDelay] = None
    horizon: Optional[float] = None

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionError("state dimension must be >= 1")
        normalized = []
        for i, (coef, lag) in enumerate(self.atoms):
            mat = _as_state_matrix(coef, self.dim, f"atom {i} coefficient")
            lag = float(lag)
            if lag < 0.0:
                raise ValueError(f"atom {i}: lag must be nonnegative, got {lag}")
            normalized.append((mat, lag))
        self.atoms = normalized
        if self.distributed is not None and self.distributed.dim != self.dim:
            raise DimensionError(
                f"distributed kernel dimension {self.distributed.dim} != {self.dim}"
            )
        reach = max(
            [lag for _, lag in self.atoms]
            + ([self.distributed.span] if self.distributed is not None else [])
            + [0.0]
        )
        if self.horizon is None:
            periods = max(1, int(np.ceil(reach / TWO_PI - 1e-12)))
            self.horizon = TWO_PI * periods
        else:
            self.horizon = float(self.horizon)
            periods = self.horizon / TWO_PI
            if self.horizon <= 0.0 or abs(periods - round(periods)) > 1e-9:
                raise ValueError(
                    f"horizon must be a positive multiple of 2*pi, got {self.horizon}"
                )
            if reach > self.horizon + 1e-9:
                raise ValueError(
                    f"lags/span reach {reach} beyond the horizon {self.horizon}"
                )

    @classmethod
    def empty(cls, dim: int) -> "DelayFunctional":
        return cls(dim=dim)

    @property
    def is_empty(self) -> bool:
        return not self.atoms and self.distributed is None

    @property
    def is_real(self) -> bool:
        atoms_real = not any(np.any(np.imag(c)) for c, _ in self.atoms)
        dist_real = self.distributed is None or self.distributed.is_real
        return atoms_real and dist_real

    def symbol_window(self, ks: np.ndarray) -> np.ndarray:
        """Mode symbols for every mode in ``ks``, shape (len(ks), n, n).

        For u(t) = e^{ikt} v the history segment is u_t(theta) = e^{ikt} e^{ik theta} v,
        so the functional acts on the coefficient v through the matrix

            sum_j B_j e^{-ik r_j}  +  int_{-span}^0 K(theta) e^{ik theta} dtheta.

        Each mode's value depends on that mode alone.  Conjugate symmetry
        symbol(-k) = conj(symbol(k)) holds for real data.
        """
        ks = np.asarray(ks)
        out = np.zeros((len(ks), self.dim, self.dim), dtype=complex)
        for coef, lag in self.atoms:
            phases = _unit_phase(ks * (lag / TWO_PI))
            out += phases[:, None, None] * coef[None, :, :]
        if self.distributed is not None:
            out += self.distributed.fourier_window(ks)
        return out

    def __add__(self, other: "DelayFunctional") -> "DelayFunctional":
        if not isinstance(other, DelayFunctional):
            return NotImplemented
        if other.dim != self.dim:
            raise DimensionError("cannot add functionals of different dimension")
        if self.distributed is not None and other.distributed is not None:
            raise ValueError("combine distributed kernels before adding functionals")
        return DelayFunctional(
            dim=self.dim,
            atoms=list(self.atoms) + list(other.atoms),
            distributed=self.distributed or other.distributed,
            horizon=max(self.horizon, other.horizon),
        )

    def __rmul__(self, factor) -> "DelayFunctional":
        dist = None
        if self.distributed is not None:
            dist = self.distributed.scaled(factor)
        return DelayFunctional(
            dim=self.dim,
            atoms=[(factor * c, lag) for c, lag in self.atoms],
            distributed=dist,
            horizon=self.horizon,
        )


@dataclass
class KernelSpec:
    """Memory kernel  a(t) = sum c * t^m * e^{-alpha t}  on t >= 0.

    Each term is a (c, m, alpha) triple with complex weight c, integer power
    m >= 0 and decay rate alpha > 0, which keeps a integrable on [0, inf).
    The transform  atilde(lam) = int_0^inf e^{-lam t} a(t) dt  and the L1 norm
    are available in closed form.
    """

    terms: Sequence = field(default_factory=list)

    def __post_init__(self):
        normalized = []
        for i, term in enumerate(self.terms):
            try:
                normalized.append(self.term(*term))
            except InvalidKernelError as exc:
                raise InvalidKernelError(f"term {i}: {exc}") from None
        self.terms = normalized

    @staticmethod
    def term(c, m, alpha) -> tuple:
        """(c, m, alpha) as (complex, int, float); InvalidKernelError unless
        m >= 0 is an integer, alpha > 0 and |c| m!/alpha^(m+1) is a float."""
        if float(m) != int(m) or int(m) < 0:
            raise InvalidKernelError("power m must be an integer >= 0")
        m, alpha = int(m), float(alpha)
        if not alpha > 0.0:
            raise InvalidKernelError(f"decay rate alpha must be positive, got {alpha}")
        try:  # 171! is beyond the float range
            mass = math.inf if m > 170 else abs(c) * math.factorial(m) / alpha ** (m + 1)
        except (OverflowError, ZeroDivisionError):
            mass = math.inf
        if not math.isfinite(mass):
            raise InvalidKernelError("|c| m!/alpha^(m+1) is out of the float range")
        return complex(c), m, alpha

    @classmethod
    def empty(cls) -> "KernelSpec":
        return cls(terms=[])

    @classmethod
    def exponential(cls, weight=1.0, rate=1.0) -> "KernelSpec":
        return cls(terms=[(weight, 0, rate)])

    @property
    def is_empty(self) -> bool:
        return not self.terms

    @property
    def is_real(self) -> bool:
        return all(c.imag == 0.0 for c, _, _ in self.terms)

    def laplace(self, lam):
        """Transform value(s) at lam; accepts scalars or arrays."""
        lam = np.asarray(lam, dtype=complex)
        out = np.zeros_like(lam)
        for c, m, alpha in self.terms:
            out = out + c * math.factorial(m) / (alpha + lam) ** (m + 1)
        return out if out.ndim else complex(out)

    def l1_norm(self) -> float:
        return float(
            sum(abs(c) * math.factorial(m) / alpha ** (m + 1) for c, m, alpha in self.terms)
        )

    def eval(self, t):
        """Kernel values a(t); accepts scalars or arrays, t >= 0."""
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape, dtype=complex)
        for c, m, alpha in self.terms:
            out = out + c * t**m * np.exp(-alpha * t)
        if self.is_real:
            out = out.real
        return out if out.ndim else out[()]

    def derivative(self) -> "KernelSpec":
        """Formal derivative; stays inside the c*t^m*e^{-alpha t} family."""
        terms = []
        for c, m, alpha in self.terms:
            terms.append((-alpha * c, m, alpha))
            if m >= 1:
                terms.append((c * m, m - 1, alpha))
        return KernelSpec(terms=terms)

    def value_at_zero(self) -> complex:
        return complex(sum(c for c, m, _ in self.terms if m == 0))

    def derivative_at_zero(self, order: int) -> complex:
        kernel = self
        for _ in range(order):
            kernel = kernel.derivative()
        return kernel.value_at_zero()


def laplace_symbol(kernel: KernelSpec, k: int):
    """Transform of the kernel at i*k, evaluated in closed form.

    Satisfies |value| <= l1_norm() and conjugate symmetry for real kernels.
    Accepts an integer k or an array of modes.
    """
    ks = np.asarray(k)
    return kernel.laplace(1j * ks)


def laplace_symbol_quadrature(kernel: KernelSpec, k: int, tol: float = 1e-12) -> complex:
    """Numeric-quadrature route to the kernel transform at i*k.

    Truncates the half-line where the remaining L1 mass drops below ``tol``
    relative to the full L1 norm, then integrates adaptively.  Slower than the
    closed form; kept as an independent cross-check.
    """
    if kernel.is_empty:
        return 0.0 + 0.0j
    from scipy.integrate import quad
    from scipy.special import gammaincc

    l1 = kernel.l1_norm()
    horizon = 10.0
    while horizon < 1e7:
        tail = sum(
            abs(c) * math.factorial(m) / alpha ** (m + 1) * gammaincc(m + 1, alpha * horizon)
            for c, m, alpha in kernel.terms
        )
        if tail < tol * max(l1, 1.0):
            break
        horizon *= 2.0
    re = quad(lambda t: (kernel.eval(t) * np.exp(-1j * k * t)).real, 0.0, horizon,
              limit=800, epsabs=1e-13, epsrel=1e-13)[0]
    im = quad(lambda t: (kernel.eval(t) * np.exp(-1j * k * t)).imag, 0.0, horizon,
              limit=800, epsabs=1e-13, epsrel=1e-13)[0]
    return complex(re, im)


def analyze(samples, bandwidth: Optional[int] = None) -> np.ndarray:
    """Fourier coefficients of uniform grid samples.

    Parameters
    ----------
    samples : ndarray (N,) or (N, n) or PeriodicGridFunction
    bandwidth : int, optional
        Largest retained |k|; defaults to (N-1)//2.

    Returns
    -------
    ndarray of shape (2K+1, n); row i holds the coefficient of mode i - K.

    Exact to round-off for trigonometric polynomials of degree <= K when
    N >= 2K+1; raises AliasingError otherwise.
    """
    if isinstance(samples, PeriodicGridFunction):
        samples = samples.samples
    samples = np.asarray(samples)
    if samples.ndim == 1:
        samples = samples[:, None]
    n_samples = samples.shape[0]
    if bandwidth is None:
        bandwidth = (n_samples - 1) // 2
    if n_samples < 2 * bandwidth + 1:
        raise AliasingError(
            f"need N >= 2K+1 samples for bandwidth K={bandwidth}, got N={n_samples}"
        )
    spectrum = np.fft.fft(samples, axis=0) / n_samples
    ks = mode_range(bandwidth)
    return spectrum[np.mod(ks, n_samples)]


class PeriodicGridFunction:
    """A 2*pi-periodic vector-valued function held two ways at once:

    uniform samples at t_j = 2*pi*j/N and Fourier coefficients on |k| <= K.
    The pair is kept consistent (N >= 2K+1, so analysis/synthesis round-trips
    on the stored band).
    """

    def __init__(self, samples: np.ndarray, coefficients: np.ndarray):
        samples = np.asarray(samples, dtype=complex)
        if samples.ndim == 1:
            samples = samples[:, None]
        coefficients = np.asarray(coefficients, dtype=complex)
        if coefficients.ndim == 1:
            coefficients = coefficients[:, None]
        if coefficients.shape[0] % 2 == 0:
            raise ValueError("coefficient array must cover modes -K..K (odd length)")
        if coefficients.shape[1] != samples.shape[1]:
            raise DimensionError("samples and coefficients disagree on dimension")
        bandwidth = (coefficients.shape[0] - 1) // 2
        if samples.shape[0] < 2 * bandwidth + 1:
            raise AliasingError(
                f"N={samples.shape[0]} too small for bandwidth K={bandwidth}"
            )
        self.samples = samples
        self.coefficients = coefficients
        self.bandwidth = bandwidth

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_samples(cls, samples, bandwidth: Optional[int] = None) -> "PeriodicGridFunction":
        coeffs = analyze(samples, bandwidth)
        samples = np.asarray(samples, dtype=complex)
        if samples.ndim == 1:
            samples = samples[:, None]
        return cls(samples, coeffs)

    @classmethod
    def from_coefficients(cls, coefficients, n_samples: int) -> "PeriodicGridFunction":
        if isinstance(coefficients, dict):
            if coefficients:
                bandwidth = max(abs(int(k)) for k in coefficients)
                first = np.atleast_1d(np.asarray(next(iter(coefficients.values()))))
                dim = first.shape[0]
            else:
                bandwidth, dim = 0, 1
            arr = np.zeros((2 * bandwidth + 1, dim), dtype=complex)
            for k, vec in coefficients.items():
                arr[int(k) + bandwidth] = np.atleast_1d(np.asarray(vec))
            coefficients = arr
        coefficients = np.asarray(coefficients, dtype=complex)
        if coefficients.ndim == 1:
            coefficients = coefficients[:, None]
        bandwidth = (coefficients.shape[0] - 1) // 2
        if n_samples < 2 * bandwidth + 1:
            raise AliasingError(
                f"N={n_samples} too small for bandwidth K={bandwidth}"
            )
        spectrum = np.zeros((n_samples, coefficients.shape[1]), dtype=complex)
        ks = mode_range(bandwidth)
        spectrum[np.mod(ks, n_samples)] = coefficients
        samples = np.fft.ifft(spectrum * n_samples, axis=0)
        return cls(samples, coefficients)

    @classmethod
    def from_harmonics(cls, cos=(), sin=(), const=0.0, dim: Optional[int] = None,
                       n_samples: Optional[int] = None) -> "PeriodicGridFunction":
        """Trigonometric polynomial  const + sum_m cos_m cos(mt) + sin_m sin(mt).

        Harmonic entries may be scalars (dim 1) or length-n vectors.  The
        Fourier coefficients are assembled exactly: fhat(+-m) = (c_m -+ i s_m)/2.
        """
        cos = [np.atleast_1d(np.asarray(c, dtype=complex)) for c in cos]
        sin = [np.atleast_1d(np.asarray(s, dtype=complex)) for s in sin]
        const = np.atleast_1d(np.asarray(const, dtype=complex))
        if dim is None:
            dim = max([v.shape[0] for v in cos + sin + [const]] or [1])
        bandwidth = max(len(cos), len(sin))

        def _vec(v):
            if v.shape[0] == dim:
                return v
            if v.shape[0] == 1:
                return np.full(dim, v[0])
            raise DimensionError(f"harmonic entry of length {v.shape[0]}, expected {dim}")

        coeffs = np.zeros((2 * bandwidth + 1, dim), dtype=complex)
        coeffs[bandwidth] = _vec(const)
        for m in range(1, bandwidth + 1):
            c = _vec(cos[m - 1]) if m <= len(cos) else np.zeros(dim)
            s = _vec(sin[m - 1]) if m <= len(sin) else np.zeros(dim)
            coeffs[bandwidth + m] = (c - 1j * s) / 2.0
            coeffs[bandwidth - m] = (c + 1j * s) / 2.0
        if n_samples is None:
            n_samples = max(4 * bandwidth, 2 * bandwidth + 1, 16)
        return cls.from_coefficients(coeffs, n_samples)

    @classmethod
    def zero(cls, dim: int = 1, n_samples: int = 16) -> "PeriodicGridFunction":
        return cls.from_coefficients(np.zeros((1, dim)), n_samples)

    # -- accessors ---------------------------------------------------------

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def dim(self) -> int:
        return self.samples.shape[1]

    @property
    def nodes(self) -> np.ndarray:
        return TWO_PI * np.arange(self.n_samples) / self.n_samples

    def coefficient(self, k: int) -> np.ndarray:
        if abs(k) > self.bandwidth:
            return np.zeros(self.dim, dtype=complex)
        return self.coefficients[k + self.bandwidth]

    @property
    def is_real(self) -> bool:
        scale = max(np.max(np.abs(self.samples)), 1.0)
        return bool(np.max(np.abs(self.samples.imag)) <= 1e-13 * scale)

    # -- operations --------------------------------------------------------

    def resample(self, n_samples: int) -> "PeriodicGridFunction":
        return PeriodicGridFunction.from_coefficients(self.coefficients, n_samples)

    def derivative(self) -> "PeriodicGridFunction":
        ks = mode_range(self.bandwidth)
        return PeriodicGridFunction.from_coefficients(
            (1j * ks)[:, None] * self.coefficients, self.n_samples
        )

    def max_norm(self) -> float:
        if self.samples.size == 0:
            return 0.0
        return float(np.max(np.linalg.norm(self.samples, axis=1)))

    def lp_norm(self, p: float, refine: int = 1) -> float:
        """Grid trapezoid value of (int_0^{2pi} |f(t)|^p dt)^{1/p}.

        Exact for band-limited data when p == 2; pass refine > 1 to tighten
        the quadrature for other p.
        """
        if p < 1:
            raise ValueError("p must be >= 1")
        grid = self if refine <= 1 else self.resample(refine * self.n_samples)
        pointwise = np.linalg.norm(grid.samples, axis=1)
        dt = TWO_PI / grid.n_samples
        return float((dt * np.sum(pointwise**p)) ** (1.0 / p))

    def band_energy_split(self, bandwidth: int):
        """(energy inside |k| <= bandwidth, energy beyond), in l2 of coefficients."""
        ks = mode_range(self.bandwidth)
        energy = np.sum(np.abs(self.coefficients) ** 2, axis=1)
        inside = float(np.sum(energy[np.abs(ks) <= bandwidth]))
        outside = float(np.sum(energy[np.abs(ks) > bandwidth]))
        return inside, outside

    def _binary(self, other, sign) -> "PeriodicGridFunction":
        if not isinstance(other, PeriodicGridFunction):
            return NotImplemented
        if other.dim != self.dim:
            raise DimensionError("dimension mismatch")
        bandwidth = max(self.bandwidth, other.bandwidth)
        n_samples = max(self.n_samples, other.n_samples)
        coeffs = np.zeros((2 * bandwidth + 1, self.dim), dtype=complex)
        coeffs[bandwidth - self.bandwidth: bandwidth + self.bandwidth + 1] = self.coefficients
        other_block = other.coefficients if sign > 0 else -other.coefficients
        coeffs[bandwidth - other.bandwidth: bandwidth + other.bandwidth + 1] += other_block
        return PeriodicGridFunction.from_coefficients(coeffs, n_samples)

    def __add__(self, other):
        return self._binary(other, +1)

    def __sub__(self, other):
        return self._binary(other, -1)

    def __mul__(self, factor):
        return PeriodicGridFunction(factor * self.samples, factor * self.coefficients)

    __rmul__ = __mul__


@dataclass
class ProblemSpec:
    """The data of one periodic problem on the circle:

        d/dt [x(t) - L(x_t)] = A [x(t) - L(x_t)] + G(x_t)
                               + int_{-inf}^t a(t-s) x(s) ds + f(t)

    with state matrix A, neutral delay functional L (differentiated part),
    reaction delay functional G, memory kernel a and 2*pi-periodic forcing f.
    ``truncation`` is the solver bandwidth K; ``grid`` the sample count N
    (defaults to 4K, which keeps products with delay terms alias-safe).
    """

    state_matrix: np.ndarray
    neutral_delay: Optional[DelayFunctional] = None
    reaction_delay: Optional[DelayFunctional] = None
    kernel: Optional[KernelSpec] = None
    forcing: Optional[PeriodicGridFunction] = None
    truncation: int = 64
    grid: Optional[int] = None

    def __post_init__(self):
        mat = np.asarray(self.state_matrix)
        if mat.ndim == 0:
            mat = mat.reshape(1, 1)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DimensionError(f"state matrix must be square, got shape {mat.shape}")
        self.state_matrix = mat
        n = mat.shape[0]
        if self.neutral_delay is None:
            self.neutral_delay = DelayFunctional.empty(n)
        if self.reaction_delay is None:
            self.reaction_delay = DelayFunctional.empty(n)
        if self.kernel is None:
            self.kernel = KernelSpec.empty()
        if self.truncation < 1:
            raise ValueError("truncation must be >= 1")
        if self.grid is None:
            self.grid = 4 * self.truncation
        if self.grid < 2 * self.truncation + 1:
            raise AliasingError(
                f"grid N={self.grid} must satisfy N >= 2K+1 for K={self.truncation}"
            )
        if self.forcing is None:
            self.forcing = PeriodicGridFunction.zero(n, n_samples=max(16, self.grid))
        for name, obj in (("neutral delay", self.neutral_delay),
                          ("reaction delay", self.reaction_delay)):
            if obj.dim != n:
                raise DimensionError(f"{name} dimension {obj.dim} != state dimension {n}")
        if self.forcing.dim != n:
            raise DimensionError(
                f"forcing dimension {self.forcing.dim} != state dimension {n}"
            )

    @property
    def dim(self) -> int:
        return self.state_matrix.shape[0]

    @property
    def is_real(self) -> bool:
        return bool(
            not np.any(np.imag(self.state_matrix))
            and self.neutral_delay.is_real
            and self.reaction_delay.is_real
            and self.kernel.is_real
            and self.forcing.is_real
        )


@dataclass(frozen=True)
class ModeSymbols:
    """The mode symbols of one problem on the band |k| <= K, ascending k.

    ``L`` and ``G`` stack the (n, n) symbols of the neutral and the reaction
    functional, ``a`` holds the kernel transform atilde(ik).  A table is
    built once per problem and band, and every consumer reads it instead of
    evaluating the functionals again.  A mode's values do not depend on the
    band, so ``band`` gives the table of any narrower band.
    """

    modes: np.ndarray
    L: np.ndarray
    G: np.ndarray
    a: np.ndarray

    @classmethod
    def from_spec(cls, spec: ProblemSpec, bandwidth: int) -> "ModeSymbols":
        ks = mode_range(bandwidth)
        return cls(
            modes=ks,
            L=spec.neutral_delay.symbol_window(ks),
            G=spec.reaction_delay.symbol_window(ks),
            a=np.atleast_1d(laplace_symbol(spec.kernel, ks)),
        )

    @property
    def bandwidth(self) -> int:
        return int(self.modes[-1])

    def band(self, bandwidth: int) -> "ModeSymbols":
        """The table restricted to |k| <= bandwidth (views, no copies)."""
        if not 0 <= bandwidth <= self.bandwidth:
            raise ValueError(f"band {bandwidth} outside the table's band {self.bandwidth}")
        rows = slice(self.bandwidth - bandwidth, self.bandwidth + bandwidth + 1)
        return ModeSymbols(self.modes[rows], self.L[rows], self.G[rows], self.a[rows])

    @property
    def neutral(self) -> np.ndarray:
        """D_k = I - L_k."""
        return np.eye(self.L.shape[1])[None, :, :] - self.L

    def nonstate(self) -> np.ndarray:
        """C_k = ik D_k - G_k - atilde(ik) I, the part of M(k) without A."""
        eye = np.eye(self.L.shape[1])
        ik = (1j * self.modes)[:, None, None]
        return ik * self.neutral - self.G - self.a[:, None, None] * eye[None, :, :]

    def modal(self, state_matrix: np.ndarray) -> np.ndarray:
        """Modal matrices M(k) = C_k - A D_k, shape (len(modes), n, n)."""
        return self.nonstate() - np.matmul(state_matrix, self.neutral)


class ScaledDifferences(NamedTuple):
    """k-scaled forward differences of the mode-symbol sequences.

    Row i belongs to mode k = modes[i]:

    kernel        : k * (atilde(i(k+1)) - atilde(ik))          (complex scalars)
    neutral       : k * (L_{k+1} - L_k)                        (n x n)
    reaction      : k * (G_{k+1} - G_k)                        (n x n)
    neutral_state : k * A (L_{k+1} - L_k)                      (n x n)
    """

    modes: np.ndarray
    kernel: np.ndarray
    neutral: np.ndarray
    reaction: np.ndarray
    neutral_state: np.ndarray


def difference_sequences(spec: ProblemSpec, symbols: ModeSymbols) -> ScaledDifferences:
    """Exact finite differences of the table's symbol sequences, scaled by k,
    for every mode of the table but the last."""
    ks = symbols.modes[:-1]
    kcol = ks[:, None, None].astype(float)
    neutral = kcol * (symbols.L[1:] - symbols.L[:-1])
    return ScaledDifferences(
        modes=ks,
        kernel=ks * (symbols.a[1:] - symbols.a[:-1]),
        neutral=neutral,
        reaction=kcol * (symbols.G[1:] - symbols.G[:-1]),
        neutral_state=np.matmul(spec.state_matrix, neutral),
    )
