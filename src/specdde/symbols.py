"""Fourier-side building blocks for 2*pi-periodic delay problems.

Conventions used throughout the package:

* functions are 2*pi-periodic;
* the k-th Fourier coefficient of f is fhat(k) = (1/2pi) int_0^{2pi} e^{-ikt} f(t) dt;
* a grid function is its coefficients on |k| <= K; its samples at the
  uniform nodes t_j = 2*pi*j/N (N >= 2K+1) are their synthesis, made on demand
  by ``_synthesis`` alone: one ``irfft`` if the function is real, else one ``ifft``;
* the history segment of u at time t is u_t(theta) = u(t + theta), theta in [-r, 0];
* applying a delay functional to the pure mode e^{ikt} v multiplies v by a fixed
  matrix, the mode symbol of the functional.  Mode symbols are what the solver
  and the diagnostics consume.

The distributed part of a delay functional is always a not-a-knot cubic
spline on uniform pieces (fitted here in numpy) through the given samples.
Its Fourier integral is exact per piece.  The phase sums of all modes come
from one zero-padded inverse FFT when the span is a small rational multiple
of 2*pi, else from one direct phase product; no kernel is evaluated per mode.

Everything here is a pure function of immutable inputs; evaluations for
different modes are independent and may run concurrently.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .exceptions import AliasingError, DimensionError, InvalidKernelError

TWO_PI = 2.0 * np.pi

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
    kernel : ndarray
        Kernel samples of shape (m, n, n), or (m,) when n = 1, taken on the
        uniform grid from -span to 0 (m >= 4).
    span : float
        Positive length of the memory window.

    The kernel is held as one thing, the not-a-knot cubic spline through
    the samples on P = m - 1 uniform pieces.  ``evaluate`` and
    ``fourier_window`` read the spline only, so every consumer sees the
    same operator.
    """

    def __init__(self, kernel, span: float):
        if not span > 0.0:
            raise ValueError(f"distributed span must be positive, got {span}")
        self.span = float(span)
        samples = np.asarray(kernel)
        if samples.ndim == 1:
            samples = samples.reshape(-1, 1, 1)
        samples = _kernel_values(samples)
        if samples.shape[0] < 4:
            raise ValueError("need at least 4 kernel samples for interpolation")
        self._pieces = _not_a_knot_pieces(samples, self.span / (samples.shape[0] - 1))
        self.pieces, self.dim = samples.shape[0] - 1, samples.shape[1]
        self.is_real = not np.any(np.imag(samples))
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
        coefficient stack; p is reduced mod qP before it multiplies k, so
        the index stays exact in int64 however long the span.  Otherwise
        they are one direct phase product by ``np.einsum``, which computes
        each row alone (for a real stack, as two real products against the
        phases' real and imaginary parts).  Either way a mode's value depends
        on that mode alone, not on ``ks``.
        """
        ks = np.asarray(ks, dtype=int)
        pieces, n = self.pieces, self.dim
        turns = self.span / TWO_PI
        h = self.span / pieces
        stack = self._pieces.reshape(pieces, -1)
        if self._fraction is not None:
            p, q = self._fraction
            table = np.fft.ifft(stack, n=q * pieces, axis=0, norm="forward")
            shift = _unit_phase(np.mod(ks * (p % q), q) / q)
            sums = table[np.mod(ks * (p % (q * pieces)), q * pieces)] * shift[:, None]
        else:
            back = np.arange(pieces, 0, -1)
            step = max(1, _PHASE_ENTRIES // pieces)
            sums = np.empty((len(ks), stack.shape[1]), dtype=complex)
            for i in range(0, len(ks), step):
                phases = _unit_phase((np.outer(ks[i:i + step], back) / pieces) * turns)
                if np.isrealobj(stack):  # two real products, no complex multiply-adds
                    sums.real[i:i + step] = np.einsum("kj,jc->kc", phases.real, stack)
                    sums.imag[i:i + step] = np.einsum("kj,jc->kc", phases.imag, stack)
                else:
                    sums[i:i + step] = np.einsum("kj,jc->kc", phases, stack)
        moments = _spline_moments(ks * h, _unit_phase(-(ks / pieces) * turns))
        weights = h ** np.arange(1, 5)[:, None] * moments
        return np.einsum("mk,kmij->kij", weights, sums.reshape(len(ks), 4, n, n))


def _kernel_values(values) -> np.ndarray:
    """Kernel samples checked to be a finite (q, n, n) array."""
    values = np.asarray(values)
    if values.ndim != 3 or values.shape[1] != values.shape[2]:
        raise DimensionError(f"distributed kernel values must have shape "
                             f"(q, n, n), got {values.shape}")
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

    with every lag r_j >= 0.

    ``atoms`` is a sequence of (coefficient matrix, lag) pairs.  Scalar
    coefficients are accepted when dim == 1.
    """

    dim: int
    atoms: Sequence = field(default_factory=list)
    distributed: Optional[DistributedDelay] = None

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


@dataclass
class KernelSpec:
    """Memory kernel  a(t) = sum c * t^m * e^{-alpha t}  on t >= 0.

    Each term is a (c, m, alpha) triple with complex weight c, integer power
    m >= 0 and decay rate alpha > 0, which keeps a integrable on [0, inf).
    The transform  atilde(lam) = int_0^inf e^{-lam t} a(t) dt  at lam = ik
    (``laplace_symbol``) is available in closed form, and so is the fold onto
    one period (``oracle.periodize_kernel``).
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

    @property
    def is_real(self) -> bool:
        return all(c.imag == 0.0 for c, _, _ in self.terms)


def laplace_symbol(kernel: KernelSpec, k: int):
    """Transform of the kernel at i*k, evaluated in closed form.

    Satisfies |value| <= ||a||_1 and conjugate symmetry for real kernels.
    Accepts an integer k or an array of modes.
    """
    lam = np.asarray(1j * np.asarray(k), dtype=complex)
    out = np.zeros_like(lam)
    for c, m, alpha in kernel.terms:
        out = out + c * math.factorial(m) / (alpha + lam) ** (m + 1)
    return out if out.ndim else complex(out)


def analyze(samples, bandwidth: Optional[int] = None) -> np.ndarray:
    """Fourier coefficients of uniform grid samples.

    Parameters
    ----------
    samples : ndarray (N,) or (N, n)
    bandwidth : int, optional
        Largest retained |k|; defaults to (N-1)//2.

    Returns
    -------
    ndarray of shape (2K+1, n); row i holds the coefficient of mode i - K.

    Exact to round-off for trigonometric polynomials of degree <= K when
    N >= 2K+1; raises AliasingError otherwise.  Samples whose imaginary
    part is exactly zero are real: their k >= 0 coefficients come from one
    ``rfft`` and the k < 0 ones are their conjugates, so the coefficients
    are exactly Hermitian, c(-k) == conj c(k).
    """
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
    if not np.any(np.imag(samples)):
        return _mirrored(np.fft.rfft(np.real(samples), axis=0)[:bandwidth + 1] / n_samples)
    spectrum = np.fft.fft(samples, axis=0) / n_samples
    ks = mode_range(bandwidth)
    return spectrum[np.mod(ks, n_samples)]


def _half(modes: np.ndarray) -> bool:
    """Whether consecutive ascending ``modes`` are a half band 0..K, K >= 1:
    the k >= 0 rows of a real function.  A lone mode 0 is a whole band, so
    a complex constant keeps its imaginary part."""
    return modes[0] == 0 < modes[-1]


def _mirrored(half: np.ndarray) -> np.ndarray:
    """A stack on k = 0..K extended to -K..K, row -k the conjugate of row k."""
    return np.concatenate([np.conj(half[:0:-1]), half])


def _synthesis(rows: np.ndarray, modes: np.ndarray, n_samples: int) -> np.ndarray:
    """Values at the nodes t_j = 2*pi*j/n_samples, shape (n_samples, n), of
    the function with coefficients ``rows`` on a half band 0..K (``_half``)
    or a whole band -K..K (``modes``).

    A half band, or exactly Hermitian rows, c(-k) == conj c(k), is a real
    function: one ``irfft`` of the k >= 0 rows along contiguous components,
    with real values.  Any other takes one ``ifft``.  Neither scales the
    rows by N (``norm="forward"``), so samples in the float range do not
    overflow.  Modes fold mod n_samples, which is exact at the nodes, also
    below 2K + 1; the rows are scattered only when a mode folds or the
    function is complex, else ``irfft`` zero-pads them itself.
    """
    bandwidth = int(modes[-1])
    half = _half(modes)
    real = half or np.array_equal(rows[::-1], np.conj(rows))
    folds = n_samples < 2 * bandwidth + 1
    if real and not folds:
        spectrum = rows[-(bandwidth + 1):]
    else:
        spectrum = np.zeros((n_samples, rows.shape[1]), dtype=complex)
        at = np.mod(mode_range(bandwidth), n_samples)
        if folds:
            np.add.at(spectrum, at, _mirrored(rows) if half else rows)
        else:
            spectrum[at] = rows
        if not real:
            return np.fft.ifft(spectrum, axis=0, norm="forward")
        spectrum = spectrum[:n_samples // 2 + 1]
    return np.fft.irfft(np.ascontiguousarray(spectrum.T), n_samples, norm="forward").T


def _power_of_two_scaled(values: np.ndarray):
    """(values 2^-e, e) for a 2-D array, e the binary exponent of the
    largest real or imaginary part, which the scaling brings into [1/2, 1).
    It is an ``ldexp`` of the parts of a float64 or complex128 copy, exact
    for finite values, so no square of a scaled value overflows and each is
    4^-e times the true one.  The copy keeps the layout of ``values`` (the
    syntheses' columns stay contiguous), and a contiguous 2-D array ravels
    to a view of its parts."""
    scaled = np.array(values, dtype=np.result_type(values, np.float64), order="K")
    parts = np.ravel(scaled, order="K").view(np.float64)
    exponent = math.frexp(max(-parts.min(), parts.max()))[1]
    np.ldexp(parts, -exponent, out=parts)
    return scaled, exponent


def _max_row_norm(rows: np.ndarray) -> float:
    """The largest Euclidean norm of the rows of a (m, n) array, taken on
    the rows scaled by a power of two (``_power_of_two_scaled``), so that
    no square overflows where the norm is in the float range.  The squares
    are those of ``np.linalg.norm``, (conj z) z, written over the scaled
    copy, and the square root is taken of the largest sum only."""
    unit, exponent = _power_of_two_scaled(rows)
    squares = np.multiply(unit.conj(), unit, out=unit).real
    with np.errstate(over="ignore"):
        return float(np.ldexp(math.sqrt(np.max(np.add.reduce(squares, axis=1))), exponent))


class PeriodicGridFunction:
    """A 2*pi-periodic vector-valued function: its Fourier coefficients on
    |k| <= K and the number N >= 2K+1 of uniform nodes t_j = 2*pi*j/N it is
    sampled on.

    The coefficients are the function.  ``samples`` is their synthesis on the
    N nodes (``_synthesis``), computed the first time it is read and kept;
    nothing else runs a transform.
    """

    def __init__(self, coefficients, n_samples: int):
        coefficients = np.asarray(coefficients, dtype=complex)
        if coefficients.ndim == 1:
            coefficients = coefficients[:, None]
        if coefficients.shape[0] % 2 == 0:
            raise ValueError("coefficient array must cover modes -K..K (odd length)")
        bandwidth = (coefficients.shape[0] - 1) // 2
        n_samples = operator.index(n_samples)
        if n_samples < 2 * bandwidth + 1:
            raise AliasingError(f"N={n_samples} too small for bandwidth K={bandwidth}")
        self.coefficients = coefficients
        self.n_samples = n_samples
        self.bandwidth = bandwidth

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_samples(cls, samples, bandwidth: Optional[int] = None) -> "PeriodicGridFunction":
        """The band |k| <= bandwidth of uniform samples, all of it by default;
        an even N's Nyquist mode lies outside every such band and is dropped.
        Samples with an all-zero imaginary part give exactly Hermitian
        coefficients (``analyze``), so the function is real."""
        return cls(analyze(samples, bandwidth), len(samples))

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
        return cls(coeffs, n_samples)

    @classmethod
    def zero(cls, dim: int = 1, n_samples: int = 16) -> "PeriodicGridFunction":
        return cls(np.zeros((1, dim)), n_samples)

    # -- accessors ---------------------------------------------------------

    @functools.cached_property
    def samples(self) -> np.ndarray:
        """Values at the N nodes, shape (N, n), on first read: real for a real
        function (``is_real``), else complex."""
        return _synthesis(self.coefficients, mode_range(self.bandwidth), self.n_samples)

    @property
    def dim(self) -> int:
        return self.coefficients.shape[1]

    @property
    def nodes(self) -> np.ndarray:
        return TWO_PI * np.arange(self.n_samples) / self.n_samples

    @property
    def is_real(self) -> bool:
        """Whether the coefficients are exactly Hermitian, c(-k) == conj c(k):
        an O(K) test that runs no transform and tolerates no round-off."""
        c = self.coefficients
        return np.array_equal(c[::-1], np.conj(c))

    # -- operations --------------------------------------------------------

    def max_norm(self) -> float:
        return _max_row_norm(self.samples)

    def tail_energy(self, bandwidth: int) -> float:
        """The relative l2 energy of the coefficients beyond |k| <= bandwidth,
        sqrt(outside / total), 0 for a zero function.  The energies are taken
        on coefficients scaled by a power of two (``_power_of_two_scaled``),
        so their squares cannot overflow; the ratio is the same."""
        inside = np.abs(mode_range(self.bandwidth)) <= bandwidth
        energy = np.sum(np.abs(_power_of_two_scaled(self.coefficients)[0]) ** 2, axis=1)
        outside = float(np.sum(energy[~inside]))
        total = float(np.sum(energy[inside])) + outside
        return float(np.sqrt(outside / total)) if total > 0.0 else 0.0


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
            self.neutral_delay = DelayFunctional(dim=n)
        if self.reaction_delay is None:
            self.reaction_delay = DelayFunctional(dim=n)
        if self.kernel is None:
            self.kernel = KernelSpec()
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
    """The mode symbols of one problem on consecutive ascending modes: the
    band |k| <= K, or its half k = 0..K.

    ``L`` and ``G`` stack the (n, n) symbols of the neutral and the reaction
    functional, ``a`` holds the kernel transform atilde(ik).  A table is
    built once per problem and band, and every consumer reads it instead of
    evaluating the functionals again.  A mode's values do not depend on the
    band, so any slice of a table is the table of the narrower band.
    """

    modes: np.ndarray
    L: np.ndarray
    G: np.ndarray
    a: np.ndarray

    @classmethod
    def from_spec(cls, spec: ProblemSpec, bandwidth: int) -> "ModeSymbols":
        """The table on the whole band -bandwidth..bandwidth."""
        return cls.on_modes(spec, mode_range(bandwidth))

    @classmethod
    def on_modes(cls, spec: ProblemSpec, modes: np.ndarray) -> "ModeSymbols":
        """The table on consecutive ascending ``modes``, such as k = 0..K for
        a real problem, whose symbols at -k are the conjugates of those at k."""
        return cls(
            modes=modes,
            L=spec.neutral_delay.symbol_window(modes),
            G=spec.reaction_delay.symbol_window(modes),
            a=np.atleast_1d(laplace_symbol(spec.kernel, modes)),
        )

    @functools.cached_property
    def neutral(self) -> np.ndarray:
        """D_k = I - L_k, built on first read and kept."""
        return np.eye(self.L.shape[1])[None, :, :] - self.L

    def nonstate(self) -> np.ndarray:
        """C_k = ik D_k - G_k - atilde(ik) I, the part of M(k) without A."""
        eye = np.eye(self.L.shape[1])
        ik = (1j * self.modes)[:, None, None]
        return ik * self.neutral - self.G - self.a[:, None, None] * eye[None, :, :]

    def modal(self, state_matrix: np.ndarray) -> np.ndarray:
        """Modal matrices M(k) = C_k - A D_k, shape (len(modes), n, n).

        Both terms read the one D_k of the table.  A D_k is a sum of
        column-by-row products (``_stack_product``), so each row of M(k) is
        computed from that mode alone, whatever the band.
        """
        return self.nonstate() - _stack_product(state_matrix, self.neutral)


def _stack_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The matrix product x y of two broadcastable stacks of (n, n) matrices,
    as sum_j x[..., :, j] y[..., j, :] of outer products.

    It is elementwise, so it takes no BLAS call per matrix (``np.matmul``
    makes one on a stack, which costs several times the arithmetic of a
    2 x 2 product), and each output row is computed from its own rows of x
    and y alone: the product of a slice is bit for bit the slice of the
    product.
    """
    product = x[..., :, 0, None] * y[..., None, 0, :]
    for j in range(1, x.shape[-1]):
        product += x[..., :, j, None] * y[..., None, j, :]
    return product
