"""The text ``repr`` gives a float64, computed for a whole array at once.

``repr_bytes(values)`` returns, for each finite float64 of ``values``, the
ASCII bytes of ``float.__repr__`` in Python's ``short`` repr style
(``sys.float_repr_style == "short"``): the shortest decimal that reads back
as the same double and, among those, the nearest one, ties to an even last
digit.  Its layout is ``repr``'s:

- a ``-`` for a negative value, negative zero included (``-0.0``);
- for 1e-4 <= |x| < 1e16 (and for zero), the fixed form: the integer part,
  ``.``, then the fraction, which is ``0`` for an integral value
  (``100.0``, ``0.001``);
- otherwise the exponent form: the first digit, ``.`` and the other digits
  if there are any, ``e``, the exponent's sign and at least two exponent
  digits (``1e-05``, ``1.7976931348623157e+308``).

The digits come from Schubfach on the bit patterns (R. Giulietti, *The
Schubfach way to render doubles*, 2020), the same shortest-and-nearest
digits as Ryu (U. Adams, *Ryu: fast float-to-string conversion*, PLDI
2018).  A double c*2^q is scaled by a 128-bit upper approximation g of
10^-k, with k = floor(q*log10 2), or floor(log10(3/4*2^q)) at the lower
edge of a binade, where the gap below is half the gap above.  Three
round-to-odd products of g with 4c and with the two rounding boundaries,
each from 32-bit limbs in uint64, give the digits s of the scaled value and
where the boundaries fall; the result is the one digit shorter multiple of
ten inside the rounding interval if there is one, and otherwise s or s + 1,
whichever is in the interval, or the nearer if both are.  The digits are
written four at a time from a table of the 10,000 four-digit strings, and
each cell's text is gathered from its digits and signs by one index pattern
of a table of every layout (sign, form, decimal point or exponent size, and
digit count).  The work is a fixed sequence of array operations whatever
the values, and its temporaries are a few hundred bytes per value, so a
caller with a large array formats it in blocks.

Every value must be finite: a NaN or an infinity gives meaningless bytes,
not an error.  The tables are built on the first call.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

#: bytes of the longest text, ``-1.2345678901234567e-308``
WIDTH = 24

#: columns of a cell's source row: its digits, scaled to exactly 17 and
#: written as 20 characters (columns 0-2 are ``0``, the digits start at 3),
#: the four characters of |exponent|, the constants, then NUL
_ZERO, _DIGITS, _EXPONENT, _DOT, _E, _MINUS, _PLUS, _NUL = 0, 3, 20, 24, 25, 26, 27, 28
_SOURCE = 32
#: layout forms: 20 fixed ones, decimal exponent -4..15, then four
#: exponent forms, (+, -) x (two, three exponent digits)
_FIXED = 20
_FORMS = _FIXED + 4

_M32 = 0xFFFFFFFF


class _Tables(NamedTuple):
    pow10: np.ndarray   # (4, 617) uint64: 32-bit limbs of g for 10^-292..10^324
    digits4: np.ndarray  # (10000,) uint32: the ASCII of n, zero-padded to 4
    scale: np.ndarray   # (18,) uint64: 10^0..10^17
    layouts: np.ndarray  # (2*_FORMS*17, WIDTH) intp: source column per byte


@functools.cache
def _tables() -> _Tables:
    # g = floor(10^e * 2^(127 - floor(e*log2 10))) + 1, so 2^127 < g < 2^128
    exponents = np.arange(-292, 325)
    shifts = 127 - ((exponents * 1741647) >> 19)
    g = b"".join(((10 ** max(e, 0) << max(s, 0)) // (10 ** max(-e, 0) << max(-s, 0)) + 1)
                 .to_bytes(16, "big") for e, s in zip(exponents.tolist(), shifts.tolist()))
    limbs = np.frombuffer(g, dtype=">u4").reshape(-1, 4).T.astype(np.uint64)

    n = np.arange(10000, dtype=np.uint16)
    chars = np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], axis=1) + ord("0")
    digits4 = chars.astype(np.uint8).view(np.uint32).ravel()

    tables = _Tables(limbs, digits4, 10 ** np.arange(18, dtype=np.uint64), _layout_table())
    for table in tables:
        table.setflags(write=False)
    return tables


def _layout_table() -> np.ndarray:
    """Row (negative * _FORMS + form) * 17 + digits - 1 holds, for each
    byte of the text, the source column it copies (``_NUL`` past the end)."""
    negative, form, digits = (a.reshape(-1, 1) for a in np.meshgrid(
        np.arange(2, dtype=np.int16), np.arange(_FORMS, dtype=np.int16),
        np.arange(1, 18, dtype=np.int16), indexing="ij"))
    exponent_form = form >= _FIXED
    # position of the decimal point: the digits before it (fixed form) or 1
    point = np.where(exponent_form, 1, form - 3)
    integer = np.maximum(point, 1)
    j = np.arange(WIDTH, dtype=np.int16) - negative
    p = j - integer + point - (j > integer)
    index = np.where((p >= 0) & (p < digits), _DIGITS + p, _ZERO)
    index = np.where(j == integer, _DOT, index)
    mantissa = digits + (digits > 1)
    tail = j - mantissa
    exponent_digits = 2 + form % 2
    sign = np.where(form >= _FIXED + 2, _MINUS, _PLUS)
    tail_index = np.where(tail == 0, _E, np.where(tail == 1, sign,
                                                  _EXPONENT + 2 + tail - exponent_digits))
    index = np.where(exponent_form & (tail >= 0), tail_index, index)
    index = np.where(j == -1, _MINUS, index)
    length = negative + np.where(exponent_form, mantissa + 2 + exponent_digits,
                                 integer + 1 + np.maximum(digits - point, 1))
    return np.where(np.arange(WIDTH) >= length, _NUL, index).astype(np.intp)


def _high_low(a1, a0, b1, b0):
    """The high and low 64-bit words of (a1*2^32 + a0)*(b1*2^32 + b0),
    from 32-bit limbs."""
    p00 = a0 * b0
    p01 = a0 * b1
    p10 = a1 * b0
    middle = (p00 >> 32) + (p01 & _M32) + (p10 & _M32)
    high = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (middle >> 32)
    return high, (middle << 32) | (p00 & _M32)


def _round_to_odd(g, cp):
    """floor(g*cp / 2^128), its last bit set if the remainder is inexact,
    for g in limbs and cp < 2^60 (Schubfach's rop; the low word of g_lo*cp
    cannot change the result)."""
    c1, c0 = cp >> 32, cp & _M32
    x1, _ = _high_low(g[2], g[3], c1, c0)
    y1, y0 = _high_low(g[0], g[1], c1, c0)
    z = y0 + x1
    # the remainder is z*2^64 plus the dropped low word.  g exceeds the scale
    # it stands for by at most 1, so an exact product leaves z = 0 and at most
    # cp below it; an inexact one lies far from any integer, the bound
    # Schubfach's proof rests on (Giulietti 2020; over 9e7 doubles the least
    # nonzero z was 1.5e11).  So z is never 1: z > 1 and z != 0 agree.
    return (y1 + (z < y0)) | (z > 1)


def _shortest(magnitude, pow10):
    """(d, k) with d*10^k the shortest nearest decimal of each positive
    finite bit pattern; d has at most 17 digits."""
    fraction = magnitude & ((1 << 52) - 1)
    biased = (magnitude >> 52).astype(np.int64)
    normal = biased != 0
    c = np.where(normal, fraction | (1 << 52), fraction)
    q = np.where(normal, biased - 1075, -1074)
    closer = (fraction == 0) & (biased > 1)
    # floor(q*log10 2) = (q*1262611) >> 22, less 524031 for floor(log10(3/4*2^q)),
    # and floor(e*log2 10) = (e*1741647) >> 19, exact over the doubles' range
    k = (q * 1262611 - closer * 524031) >> 22
    h = (q + ((-k * 1741647) >> 19) + 1).astype(np.uint64)
    g = np.take(pow10, 292 - k, axis=1)
    # 4x the value and the ends of its rounding interval, scaled by 10^-k;
    # the ends belong to the interval when c is even (ties round to even)
    odd = c & 1
    cb = c << 2
    lower = _round_to_odd(g, (cb - 2 + closer) << h) + odd
    vb = _round_to_odd(g, cb << h)
    upper = _round_to_odd(g, (cb + 2) << h) - odd
    # the candidates: 10*shorter or 10*shorter + 10 (one digit fewer), else s or s + 1
    s = vb >> 2
    shorter = s // 10
    low_in = lower <= 40 * shorter
    high_in = 40 * shorter + 40 <= upper
    take_shorter = (s >= 10) & (low_in != high_in)
    u_in = lower <= 4 * s
    w_in = 4 * s + 4 <= upper
    middle = 4 * s + 2
    up = np.where(u_in != w_in, w_in, (vb > middle) | ((vb == middle) & (s & 1 == 1)))
    return np.where(take_shorter, shorter + high_in, s + up), k + take_shorter


def repr_bytes(values) -> np.ndarray:
    """``repr`` of each float64 of ``values``, as a NUL-padded ``S24``
    array of the same shape (see the module docstring; every value must be
    finite)."""
    values = np.asarray(values, dtype=np.float64)
    tables = _tables()
    bits = np.ascontiguousarray(values).ravel().view(np.uint64)
    magnitude = bits & ((1 << 63) - 1)
    zero = magnitude == 0
    d, k = _shortest(magnitude, tables.pow10)
    d[zero] = 0
    # the digits of d scaled to exactly 17, four characters per uint32
    count = np.searchsorted(tables.scale, d, side="right")
    source = np.empty((len(bits), _SOURCE // 4), np.uint32)
    high, low = np.divmod(d * tables.scale[17 - count], 10 ** 8)
    source[:, 0], high = np.divmod(high, 10 ** 8)
    source[:, 1], source[:, 2] = np.divmod(high, 10 ** 4)
    source[:, 3], source[:, 4] = np.divmod(low, 10 ** 4)
    source[:, :5] = tables.digits4[source[:, :5]]
    chars = source.view(np.uint8)
    # 17 less the trailing zeros
    digits = 17 - np.argmax(chars[:, _EXPONENT - 1:_DIGITS - 1:-1] != ord("0"), axis=1)
    # the power of ten of the first digit
    exponent = k + count - 1
    digits[zero] = 1
    exponent[zero] = 0
    source[:, 5] = tables.digits4[np.abs(exponent)]
    source[:, 6:] = np.frombuffer(b".e-+\0\0\0\0", np.uint32)
    form = np.where((exponent < -4) | (exponent > 15),
                    _FIXED + 2 * (exponent < 0) + (np.abs(exponent) >= 100), exponent + 4)
    key = ((bits >> 63).astype(np.intp) * _FORMS + form) * 17 + digits - 1
    # each text byte's source column, offset to its cell's row
    index = np.take(tables.layouts, key, axis=0)
    index += (_SOURCE * np.arange(len(bits)))[:, None]
    return np.take(chars.ravel(), index).view(f"S{WIDTH}").reshape(values.shape)
