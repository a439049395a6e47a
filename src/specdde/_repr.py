"""CSV lines of a float64 block, each cell the text ``repr`` gives it,
computed for the whole block at once.

``csv_lines(block)`` returns, for a (rows, columns) array of finite
float64, the ASCII bytes of its CSV lines: each cell as ``float.__repr__``
writes it in Python's ``short`` repr style (``sys.float_repr_style ==
"short"``), followed by ``,``, or by LF after a row's last cell.  A cell is
the shortest decimal that reads back as the same double and, among those,
the nearest one, ties to an even last digit, laid out as ``repr`` does:

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
edge of a binade, where the gap below is half the gap above.  One product
per cell, g times 4c*2^h from 32-bit limbs in uint64, is kept to all three
of its 64-bit words; the two rounding boundaries are that product plus and
minus g*2^s, with exact carries and borrows, so the round-to-odd quotients
of all three give the digits s of the scaled value and where the
boundaries fall.  The result is the one digit shorter multiple of ten
inside the rounding interval if there is one, and otherwise s or s + 1,
whichever is in the interval, or the nearer if both are.

A cell's text and separator are at most 25 bytes: a row of four
little-endian uint64 words, each word computed as one contiguous vector
over the block's cells, not across a short inner axis.  The digits,
scaled to exactly 17 and led by ``0000``, are written four at a time from a
table of the 10,000 four-digit strings, and their trailing zeros counted
from a table of each four-digit group's.  The string is shifted by a
per-cell byte count, and byte masks from one table, keyed by the sign and
the positions of the point and the end, keep the integer part and the
fraction and write the sign and the point.  The exponent suffix (empty in
the fixed form) and the separator, from one table keyed by the exponent and
the column, are shifted to the end; the NUL bytes past each line are
dropped once, for the whole block.  The work is a fixed sequence of array
operations whatever the values, and its temporaries are about 150 bytes
per cell, so a caller with a large table formats it in blocks.

Every value must be finite: a NaN or an infinity gives meaningless bytes,
not an error.  The tables are built on the first call.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

_M32 = 0xFFFFFFFF
#: the byte positions a line's point and end take: the point at most at 17
#: (a sign and 16 integer digits), the end at most at 23
_POINTS, _ENDS = 18, 24
#: the powers of ten a first digit takes: -324 (5e-324) to 308, also for the
#: bit patterns of an infinity or a NaN, which read as about 2^1024
_EXPONENTS = (-324, 309)


class _Tables(NamedTuple):
    pow10: np.ndarray   # (2, 617) uint64: g for 10^-292..10^324, high and low words
    digits4: np.ndarray  # (10000,) uint64: the ASCII of n, zero-padded to 4
    zeros4: np.ndarray  # (10000,) uint8: the trailing zeros of n written with 4 digits
    scale: np.ndarray   # (18,) uint64: 10^0..10^17
    masks: np.ndarray   # (3, 3, 2*_POINTS*_ENDS) uint64: the integer part's,
    #                     the fraction's and the sign and point's bytes of a line
    suffixes: np.ndarray  # (2*(_EXPONENTS[1] - _EXPONENTS[0]),) uint64: a cell's
    #                       text after its digits, with a comma, then with LF


@functools.cache
def _tables() -> _Tables:
    # g = floor(10^e * 2^(127 - floor(e*log2 10))) + 1, so 2^127 < g < 2^128
    exponents = np.arange(-292, 325)
    shifts = 127 - ((exponents * 1741647) >> 19)
    g = b"".join(((10 ** e << max(s, 0) >> max(-s, 0) if e >= 0 else (1 << s) // 10 ** -e) + 1)
                 .to_bytes(16, "big") for e, s in zip(exponents.tolist(), shifts.tolist()))
    pow10 = np.frombuffer(g, dtype=">u8").reshape(-1, 2).T.astype(np.uint64)

    # n = 1000a + 100b + 10c + d: its string "abcd" and its trailing zeros
    a, b, c, d = np.ix_(*[np.arange(10, dtype=np.uint64)] * 4)
    digits4 = (a | b << 8 | c << 16 | d << 24).ravel() + 0x30303030
    zeros4 = (d == 0) * (1 + (c == 0) * (1 + (b == 0) * (1 + (a == 0))))

    # "e", the sign and 2 or 3 digits of each exponent, none in the fixed form,
    # then the separator
    exponent = np.arange(*_EXPONENTS)
    size = np.abs(exponent)
    three = (size >= 100).astype(np.uint64)
    sign = (ord("+") + 2 * (exponent < 0)).astype(np.uint64)
    exponent_form = (exponent < -4) | (exponent > 15)
    suffix = (digits4[size] >> 16 - 8 * three << 16 | sign << 8 | ord("e")) * exponent_form
    length = 8 * (4 + three) * exponent_form
    suffixes = suffix[:, None] | np.array([ord(","), ord("\n")], np.uint64) << length[:, None]

    tables = _Tables(pow10, digits4, zeros4.astype(np.uint8).ravel(),
                     10 ** np.arange(18, dtype=np.uint64), _mask_table(), suffixes.ravel())
    for table in tables:
        table.setflags(write=False)
    return tables


def _mask_table() -> np.ndarray:
    """Entry (negative * _POINTS + point) * _ENDS + end holds, as three
    words each, the masks of a line whose point is at byte ``point`` and
    whose text ends before byte ``end``: the integer part's bytes (from
    the sign to the point), the fraction's (from the point to the end), and
    the ``-`` and ``.`` written in (no point when it is not before the end,
    a one-digit exponent form)."""
    # below[x]: the three words with the bytes before byte x set
    below = (np.arange(25)[:, None] > np.arange(24)).astype(np.uint8).view("<u8") * 0xFF
    negative, point, end = np.ix_(np.arange(2), np.arange(_POINTS), np.arange(_ENDS))
    integer = below[np.minimum(point, end)] & ~below[negative]
    fraction = below[end] & ~below[np.minimum(point + 1, end)]
    dot = (below[point + 1] ^ below[point]) * (point < end)[..., None] & 0x2E2E2E2E2E2E2E2E
    marks = dot | below[negative] & ord("-")
    masks = np.stack(np.broadcast_arrays(integer, fraction, marks))
    return masks.reshape(3, -1, 3).transpose(0, 2, 1).copy()


def _high_low(a1, a0, b1, b0):
    """The high and low 64-bit words of (a1*2^32 + a0)*(b1*2^32 + b0),
    from 32-bit limbs."""
    low = a0 * b0
    p01 = a0 * b1
    p10 = a1 * b0
    middle = low >> 32
    middle += p01 & _M32
    middle += p10 & _M32
    high = a1 * b1
    high += p01 >> 32
    high += p10 >> 32
    high += middle >> 32
    low &= _M32
    low |= middle << 32
    return high, low


def _product(g1, g0, cp):
    """The three 64-bit words of (g1*2^64 + g0)*cp, from 32-bit limbs."""
    c1 = cp >> 32
    c0 = cp & _M32
    x1, w0 = _high_low(g0 >> 32, g0 & _M32, c1, c0)
    w2, w1 = _high_low(g1 >> 32, g1 & _M32, c1, c0)
    w1 += x1
    w2 += w1 < x1
    return w2, w1, w0


def _scaled(c, h, closer, g1, g0):
    """Schubfach's vb, lower and upper: 4c and the ends of its rounding
    interval, times 2^h and the 128-bit g = g1*2^64 + g0, each
    floor-divided by 2^128 with its last bit set if the remainder is inexact
    (round to odd).  The ends are moved in by one where c is odd: they
    belong to the interval when c is even (ties round to even)."""
    w2, w1, w0 = _product(g1, g0, c << 2 << h)
    # the ends, (4c + 2)*2^h above and (4c - 2)*2^h below, (4c - 1)*2^h at
    # the lower edge of a binade: that product plus or minus g*2^s, s = h + 1
    # or h, with every carry and borrow, so that each is word for word the
    # product by its own multiplier; only the carry of the low words is kept
    s = h + 1
    carry = g0 << s > ~w0
    up1 = g1 << s | g0 >> (64 - s)
    up1 += w1
    up1 += carry
    up2 = g1 >> (64 - s)
    up2 += w2
    up2 += (up1 < w1) | (up1 == w1) & carry
    s -= closer
    borrow = g0 << s > w0
    low1 = g1 << s | g0 >> (64 - s)
    low2 = w2 - (g1 >> (64 - s))
    low2 -= (w1 < low1) | (w1 == low1) & borrow
    low1 = w1 - low1
    low1 -= borrow
    # g exceeds the scale it stands for by at most 1, so an exact product
    # leaves the middle word 0 and at most the multiplier in the low one; an
    # inexact one lies far from any integer, the bound Schubfach's proof
    # rests on (Giulietti 2020; over 9e7 doubles the least nonzero middle
    # word was 1.5e11).  So the middle word is never 1: > 1 and != 0 agree.
    odd = c & 1
    w2 |= w1 > 1
    low2 |= low1 > 1
    low2 += odd
    up2 |= up1 > 1
    up2 -= odd
    return w2, low2, up2


def _shortest(magnitude, pow10):
    """(d, k) with d*10^k the shortest nearest decimal of each positive
    finite bit pattern; d has at most 17 digits."""
    fraction = magnitude & ((1 << 52) - 1)
    biased = (magnitude >> 52).view(np.int64)
    c = np.where(biased != 0, fraction | (1 << 52), fraction)
    q = np.maximum(biased, 1) - 1075
    closer = (fraction == 0) & (biased > 1)
    del fraction, biased
    # floor(q*log10 2) = (q*1262611) >> 22, less 524031 for floor(log10(3/4*2^q)),
    # and floor(e*log2 10) = (e*1741647) >> 19, exact over the doubles' range
    k = (q * 1262611 - closer * 524031) >> 22
    h = (q + ((-k * 1741647) >> 19) + 1).view(np.uint64)
    del q
    vb, lower, upper = _scaled(c, h, closer, *np.take(pow10, 292 - k, axis=1))
    # the candidates: 10*shorter or 10*shorter + 10 (one digit fewer), else
    # s or s + 1, the nearer if both are in (ties to even s)
    s = vb >> 2
    shorter = s // 10
    tens = 40 * shorter
    high_in = tens + 40 <= upper
    take_shorter = (s >= 10) & ((lower <= tens) != high_in)
    units = s << 2
    u_in = lower <= units
    units += 4
    w_in = units <= upper
    up = np.where(u_in != w_in, w_in, (vb & 3) + (s & 1) > 2)
    return np.where(take_shorter, shorter + high_in, s + up), k + take_shorter


def _split(x, divisor):
    """x // divisor and x % divisor, for x >= 0."""
    quotient = x // divisor
    return quotient, x - quotient * divisor


def _digit_words(d, tables):
    """The string ``0000`` and the digits of d scaled to exactly 17, at bytes
    3-23 of three words (``0`` at 3), and the count of those digits less
    their trailing zeros (at least 1)."""
    high, low = _split(d.view(np.int64), 10 ** 8)
    first, high = _split(high, 10 ** 8)
    groups = [first, *_split(high, 10 ** 4), *_split(low, 10 ** 4)]
    # past an all-zero group (4 zeros), the group before it counts too
    trailing = np.take(tables.zeros4, groups[1])
    for group in groups[2:]:
        zeros = np.take(tables.zeros4, group)
        trailing = zeros + (zeros == 4) * trailing
    chars = tables.digits4
    words = [np.take(chars, first) << 32 | ord("0") << 24,
             np.take(chars, groups[2]) << 32 | np.take(chars, groups[1]),
             np.take(chars, groups[4]) << 32 | np.take(chars, groups[3])]
    return words, 17 - trailing


def _lines(bits, columns, tables):
    """The (cells, 4) uint64 words of each cell's line, NUL-padded, for the
    bit patterns of a block of ``columns`` columns."""
    d, k = _shortest(bits & ((1 << 63) - 1), tables.pow10)
    zero = bits << 1 == 0
    d[zero] = 0
    # the count of d's digits: floor(log10 2^b) + 1 or + 2, for 2^b the
    # power of two at or below d as a float (a zero counts as 1 digit)
    b = (np.bitwise_or(d, 1).astype(np.float64).view(np.int64) >> 52) - 1023
    count = (b * 1233 >> 12) + 1
    count += d >= np.take(tables.scale, count)
    d *= tables.scale[17 - count]
    words, digits = _digit_words(d, tables)
    del d
    # the power of ten of the first digit; the exponent form is laid out as
    # the fixed form of exponent 0, then its suffix added
    exponent = np.where(zero, 0, k + count - 1).astype(np.int16)
    del k, count, zero
    fixed = (exponent >= -4) & (exponent <= 15)
    shown = exponent * fixed
    negative = (bits >> 63).astype(np.int16)
    decimals = np.maximum(digits - 1 - shown, fixed)
    point = negative + np.maximum(shown, 0) + 1
    end = point + decimals + (decimals > 0)
    key = ((negative * _POINTS + point) * _ENDS + end).astype(np.intp)
    # the exponent suffix, then a comma, or LF after a row's last cell
    last = np.zeros((len(bits) // columns, columns), np.int16)
    last[:, -1] = 1
    suffix = np.take(tables.suffixes, 2 * (exponent - _EXPONENTS[0]) + last.ravel())
    # the suffix shifted to the line's end, across its four words; a shift
    # by 64 or more, or by a negative count read as unsigned, gives 0
    lines = np.empty((len(bits), 4), np.uint64)
    at = 8 * end
    for j in range(4):
        np.bitwise_or(suffix << (at - 64 * j).astype(np.uint64),
                      suffix >> (64 * j - at).astype(np.uint64), out=lines[:, j])
    del exponent, fixed, suffix, at
    # the string from its 4 + min(shown, 0)th byte moved to the sign's end
    # (the integer part), and one byte later (the fraction), kept by the
    # masks, with the sign and the point written in
    down = (8 * (7 + np.minimum(shown, 0) - negative)).astype(np.uint64)
    up = 64 - down
    words.append(np.zeros_like(down))
    for j in range(3):
        integer = words[j] >> down
        integer |= words[j + 1] << up
        integer &= np.take(tables.masks[0, j], key)
        fraction = words[j] >> (down - 8)
        fraction |= words[j + 1] << (up + 8)
        fraction &= np.take(tables.masks[1, j], key)
        integer |= fraction
        integer |= np.take(tables.masks[2, j], key)
        lines[:, j] |= integer
    return lines


def csv_lines(block) -> bytes:
    """The CSV lines of a (rows, columns) float64 block: each cell's
    ``repr``, then ``,``, or LF after a row's last cell (see the module
    docstring; every value must be finite)."""
    values = np.ascontiguousarray(block, dtype=np.float64)
    lines = _lines(values.ravel().view(np.uint64), values.shape[1], _tables())
    chars = lines.view(np.uint8).ravel()
    return chars[chars != 0].tobytes()
