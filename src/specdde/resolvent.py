"""Checked inversion of the modal matrices and the boundedness diagnostics.

For each integer mode k the problem reduces to the modal matrix

    M(k) = i k D_k - A D_k - G_k - atilde(ik) I,      D_k = I - L_k,

whose inverse maps forcing coefficients to solution coefficients.  The mode
symbols come from one table (``symbols.ModeSymbols``), built once per
problem and band, and M(k) is assembled in one place, ``ModeSymbols.modal``.

``_inverse_and_condition`` is the one inversion: it returns M(k)^{-1} and
the 1-norm condition number ||M(k)||_1 ||M(k)^{-1}||_1 of every mode.  For
n <= 2 both are closed forms on the entries, elementwise over the band (a
reciprocal; the adjugate over the determinant, with ||M||_1 ||M||_inf /
|det M| for the condition number), and only n >= 3 takes LAPACK.  It serves
the condition test ``_checked_inverse``, which rejects every mode whose
condition number exceeds the limit, and the collocation oracle's
per-frequency systems.  The lean solve (``solver``) uses the condition test
and nothing else from here.
``m_bounded_diagnostics`` reads the symbol table and the checked inverse
directly and stacks all eleven sequences of the boundedness report on one
band of modes, -K_diag..K_diag + 1: the sup norm over |k| <= K_diag and the
k-scaled difference k (X_{k+1} - X_k) of adjacent rows are all the
multiplier condition asks of each.  That difference is made in one place,
``_scaled_difference``, for the difference rows P, Q, R, B and for the
difference of every row alike.  Spectral norms are taken only here,
``_operator_norms``: a 2 x 2 norm is a closed form on the entries as they
are, and only a row whose norm leaves [2^-450, 2^450] is computed again
with its matrix scaled by a power of two.  The stack products T = G N and
B = A Q are ``symbols._stack_product``, elementwise like the norms.

Everything below is batched over the band with a deterministic ascending-k
order, and each mode's values are computed from that mode alone.  Every
matrix stack has the modes on its last axis, shape (n, n, modes) (the
convention of ``symbols``), so each elementwise step runs along the modes.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import List

import numpy as np

from .exceptions import SingularModeError
from .symbols import ModeSymbols, ProblemSpec, _stack_product

#: 1-norm condition number beyond which a modal matrix is treated as singular
COND_LIMIT = 1e12

#: 2 x 2 norms in this range are computed without scaling (``_operator_norms``)
_LEAST_UNSCALED, _MOST_UNSCALED = 2.0**-450, 2.0**450

_SEQUENCE_NAMES = ["N", "S", "T", "F", "P", "Q", "R", "B", "L", "G", "a_tilde"]

#: raw symbol rows whose k-scaled differences are rows of their own
_DIFFERENCE_ROW = {"L": "Q", "G": "R", "a_tilde": "P"}


def _scaled_difference(modes: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """k (X_{k+1} - X_k) for every mode k = modes[i] of a (n, n, m) stack but
    the last."""
    difference = stack[..., 1:] - stack[..., :-1]
    # in place: a fresh int-by-complex product takes several times as long
    difference *= modes[:-1]
    return difference


def _scale_in_place(stack: np.ndarray, exponent: np.ndarray) -> None:
    """Multiply each matrix of a C-contiguous (n, n, m) stack by
    2^exponent[k], one exponent per mode: an ``ldexp`` of its real and
    imaginary parts, exact for every finite matrix (a complex division by a
    scale below 2^-1024 would overflow)."""
    parts = stack.view(np.float64)
    # a complex mode k has its two parts at 2k and 2k + 1 of the last axis
    np.ldexp(parts, np.repeat(exponent, parts.shape[-1] // stack.shape[-1]), out=parts)


def _largest_singular_value(stack: np.ndarray) -> np.ndarray:
    """sqrt((p + r)/2 + hypot((p - r)/2, |q|)) for each matrix of a (2, 2, m)
    stack, where [[p, q], [q*, r]] is the Gram matrix of its columns."""
    squares = np.square(stack.real) + np.square(stack.imag)
    p = squares[0, 0] + squares[1, 0]
    r = squares[0, 1] + squares[1, 1]
    q = np.abs(np.conj(stack[0, 0]) * stack[0, 1] + np.conj(stack[1, 0]) * stack[1, 1])
    return np.sqrt(0.5 * (p + r) + np.hypot(0.5 * (p - r), q))


def _operator_norms(stack: np.ndarray) -> np.ndarray:
    """Spectral norm of each matrix in a (n, n, m) stack.

    For n = 2 it is the square root of the larger eigenvalue of the Gram
    matrix of the columns, (p + r)/2 + hypot((p - r)/2, |q|): a sum of
    non-negative terms, so it keeps full relative accuracy also for nearly
    isotropic matrices, where the determinant form
    (F + sqrt(F^2 - 4 |det|^2))/2 cancels.

    The formula is evaluated on the entries as they are.  Scaling a matrix
    by a power of two 2^e scales every square and product in it by 4^e and
    its root by 2^e, exactly, and so commutes with every correctly rounded
    step, as long as nothing overflows and no underflow reaches a bit of the
    result.  The norm lies between the largest entry and twice it, so a norm
    in [2^-450, 2^450] keeps every square below 2^902, and whatever
    underflows there (below 2^-1022) is under 2^-120 of the squared norm and
    cannot move a rounding: the value is then bit for bit the norm of the
    matrix first scaled to a largest entry in [1, 2).  Only the rows outside
    that range (overflowed, underflowed or not finite) are computed again,
    scaled that way (``_scale_in_place``); an exactly zero matrix, whose
    norm 0 is exact, is not.  An all-zero stack (Q, B and their
    differences when the neutral lag is the period) returns zeros for every
    n, with no formula and no SVD.
    """
    n = len(stack)
    if not stack.any():
        return np.zeros(stack.shape[-1])
    if n == 1:
        return np.abs(stack[0, 0])
    if n == 2:
        with np.errstate(all="ignore"):
            norms = _largest_singular_value(stack)
        rows = np.flatnonzero(~((norms >= _LEAST_UNSCALED) & (norms <= _MOST_UNSCALED)))
        rows = rows[np.any(stack[..., rows], axis=(0, 1))]
        if rows.size:
            unit = np.take(stack, rows, axis=-1)  # C-contiguous, unlike stack[..., rows]
            exponent = np.frexp(np.max(np.abs(unit), axis=(0, 1)))[1] - 1
            _scale_in_place(unit, -exponent)
            norms[rows] = np.ldexp(1.0, exponent) * _largest_singular_value(unit)
        return norms
    return np.linalg.svd(np.moveaxis(stack, -1, 0), compute_uv=False)[:, 0]


def _inverse_and_condition(stack: np.ndarray):
    """(M^{-1}, ||M||_1 ||M^{-1}||_1) for each matrix of a (n, n, m) stack.

    n = 1 is a reciprocal, and its condition number |m| / |m| is 1 for every
    finite nonzero m.  n = 2 is the adjugate over the determinant,
    elementwise over the stack, so each matrix's values come from that
    matrix alone.  The 1-norm of adj M = [[d, -b], [-c, a]] is the infinity
    norm of M, so the condition number is ||M||_1 ||M||_inf / |det M| and
    needs no inverse.  Every matrix is first scaled by a power of two 2^-e
    to a largest entry in [1/2, 1) (``_scale_in_place``), so no product in
    the determinant overflows or underflows to 0, and the inverse is scaled
    back by 2^-e.  The scaling is exact for a matrix with no subnormal
    entry, and then changes no bit of the result.  Cramer's rule is forward
    stable for n = 2 (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., SIAM 2002, section 1.10).  n >= 3 takes
    ``np.linalg.inv`` and the 1-norms of M and its inverse on a (m, n, n)
    view of the stack, and returns the inverse as a (n, n, m) view; an
    exactly singular M, which stops that inversion, gives ``None`` for the
    inverse and ``np.linalg.cond``'s condition numbers.

    A condition number is infinite where det M = 0 or ||M^{-1}||_1 is beyond
    the float range (M = 1e-310 I, whose condition number alone is 1), and
    NaN only where M itself holds a NaN (``np.linalg.cond``'s convention).
    No floating-point warning is raised.
    """
    n = len(stack)
    with np.errstate(all="ignore"):
        if n == 1:
            moduli = np.abs(stack[0, 0])
            inverse, condition = 1.0 / stack, moduli / moduli
            inverse_norm = np.abs(inverse[0, 0])
        elif n == 2:
            unit = stack.copy()
            moduli = np.abs(unit)
            # entry by entry: a reduction over the two small axes is slower
            exponent = np.frexp(np.maximum(np.maximum(moduli[0, 0], moduli[0, 1]),
                                           np.maximum(moduli[1, 0], moduli[1, 1])))[1]
            _scale_in_place(unit, -exponent)
            a, b, c, d = unit[0, 0], unit[0, 1], unit[1, 0], unit[1, 1]
            det = a * d - b * c
            reciprocal = 1.0 / det
            inverse = np.empty_like(unit)
            inverse[0, 0] = d * reciprocal
            inverse[0, 1] = -b * reciprocal
            inverse[1, 0] = -c * reciprocal
            inverse[1, 1] = a * reciprocal
            _scale_in_place(inverse, -exponent)
            moduli = np.abs(unit)
            one_norm = np.maximum(moduli[0, 0] + moduli[1, 0], moduli[0, 1] + moduli[1, 1])
            infinity_norm = np.maximum(moduli[0, 0] + moduli[0, 1], moduli[1, 0] + moduli[1, 1])
            magnitude = np.abs(det)
            inverse_norm = np.ldexp(infinity_norm / magnitude, -exponent)
            condition = one_norm * infinity_norm / magnitude
        else:
            matrices = np.moveaxis(stack, -1, 0)
            try:
                inverse = np.linalg.inv(matrices)
            except np.linalg.LinAlgError:
                return None, np.linalg.cond(matrices, 1)
            inverse_norm = np.linalg.norm(inverse, 1, axis=(1, 2))
            condition = np.linalg.norm(matrices, 1, axis=(1, 2)) * inverse_norm
            inverse = np.moveaxis(inverse, 0, -1)
        condition[np.isinf(inverse_norm)] = np.inf
    undefined = np.flatnonzero(np.isnan(condition))
    if undefined.size:
        condition[undefined[~np.isnan(stack[..., undefined]).any(axis=(0, 1))]] = np.inf
    return inverse, condition


def _checked_inverse(modes: np.ndarray, modal: np.ndarray, cond_limit: float):
    """(M(k)^{-1}, 1-norm condition numbers) for every mode, from
    ``_inverse_and_condition``.

    Raises SingularModeError naming every mode of ``modes`` whose condition
    number exceeds ``cond_limit`` or is not finite; an exactly singular
    M(k) has an infinite one.  Which of those modes a solve reports is the
    solver's rule (``solver._band_solve``).  A NaN or non-positive
    ``cond_limit`` raises ValueError.
    """
    if not cond_limit > 0:
        raise ValueError(f"condition limit must be positive, got {cond_limit}")
    inverse, condition = _inverse_and_condition(modal)
    bad = ~np.isfinite(condition) | (condition > cond_limit)
    if np.any(bad):
        raise SingularModeError(modes[bad], condition[bad])
    return inverse, condition


@dataclass
class SequenceDiagnostics:
    """One report row: boundedness evidence for a single symbol sequence."""

    name: str
    sup_norm: float
    sup_scaled_diff: float
    growth_exponent: float
    verdict: str

    def to_dict(self) -> dict:
        exponent = self.growth_exponent
        return {
            "name": self.name,
            "sup_norm": self.sup_norm,
            "sup_scaled_diff": self.sup_scaled_diff,
            "growth_exponent": None if np.isnan(exponent) else exponent,
            "verdict": self.verdict,
        }


@dataclass
class MBoundReport:
    """Boundedness verdicts for every sequence the solvability theory names."""

    window: int
    rows: List[SequenceDiagnostics]

    def to_dict(self) -> dict:
        return {"window": self.window, "rows": [r.to_dict() for r in self.rows]}


def _slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of y against x (two distinct x or more), in closed form."""
    x = x - x.mean()
    return float(np.sum(x * (y - y.mean())) / np.sum(x * x))


def _growth_exponent(window: int, by_abs_k: np.ndarray) -> float:
    """Slope (``_slope``) of log norm against log |k| over the window tail.

    ``by_abs_k[j]`` is the larger norm at modes +-j; index 0 (mode 0) never
    enters the fit.  Zero entries are dropped; NaN when fewer than two remain.
    """
    lo = max(window // 2, 4)
    js = np.arange(lo, window + 1)
    vals = by_abs_k[lo: window + 1]
    keep = vals > 0.0
    if np.count_nonzero(keep) < 2:
        return float("nan")
    return _slope(np.log(js[keep].astype(float)), np.log(vals[keep]))


def _verdict(window: int, by_abs_k: np.ndarray):
    """Classify a sequence from its per-|k| norms.

    bounded  : fitted exponent <= 0.1 and the tail sup within 2x the
               mid-window sup;
    growing  : fitted exponent >= 0.5;
    otherwise inconclusive.  Exact threshold ties resolve to inconclusive,
    windows below 16 are always inconclusive, and an identically zero tail is
    bounded with exponent 0.
    """
    if window < 16:
        return "inconclusive", float("nan")
    tail = float(np.max(by_abs_k[window // 2: window + 1]))
    mid = float(np.max(by_abs_k[max(window // 4, 1): window // 2]))
    if tail == 0.0:
        return "bounded", 0.0
    exponent = _growth_exponent(window, by_abs_k)
    if np.isnan(exponent):
        return "inconclusive", exponent
    if exponent == 0.1 or tail == 2.0 * mid:
        return "inconclusive", exponent
    if exponent <= 0.1 and tail <= 2.0 * mid:
        return "bounded", exponent
    if exponent >= 0.5:
        return "growing", exponent
    return "inconclusive", exponent


def m_bounded_diagnostics(spec: ProblemSpec, window: int,
                          cond_limit: float = COND_LIMIT) -> MBoundReport:
    """Boundedness report over |k| <= window, an integer >= 1, for the
    eleven named sequences.

    Every sequence is stacked on one band of 2 window + 2 modes,
    -window..window + 1, so that row window + j is mode j.  Rows N, S, T, F
    are M(k)^{-1} scaled by 1, ik, G_k and atilde(ik); P, Q, R are the
    k-scaled differences of atilde, L and G, made here from the table, and
    B = A Q; L, G and a_tilde are the raw symbols.  Each row records the sup
    of the norm over the first 2 window + 1 rows, the sup of ||k (X_{k+1} -
    X_k)|| over the same rows, a fitted tail growth exponent, and a verdict.
    The difference of L, G and a_tilde is the norm of Q, R and P.  One symbol
    table on |k| <= window + 2 serves every row, and every mode with |k| <=
    window + 1 passes the condition test.
    """
    window = operator.index(window)
    if window < 1:
        raise ValueError("window must be >= 1")
    table = ModeSymbols.from_spec(spec, window + 2)
    inverse = _checked_inverse(table.modes[1:-1], table.modal(spec.state_matrix)[..., 1:-1],
                               cond_limit)[0][..., 1:]
    ahead = table.modes[2:]      # -window..window + 2: one mode past the band
    modes = ahead[:-1]
    G, a = table.G[..., 2:-1], table.a[2:-1]
    Q = _scaled_difference(ahead, table.L[..., 2:])
    sequences = {
        "N": inverse,
        "S": 1j * modes * inverse,
        "T": _stack_product(G, inverse),
        "F": a * inverse,
        "P": _scaled_difference(ahead, table.a[None, None, 2:]),
        "Q": Q,
        "R": _scaled_difference(ahead, table.G[..., 2:]),
        "B": _stack_product(spec.state_matrix, Q),
        "L": table.L[..., 2:-1],
        "G": G,
        "a_tilde": a[None, None],
    }
    norms = {name: _operator_norms(stack) for name, stack in sequences.items()}

    rows = []
    for name in _SEQUENCE_NAMES:
        norm = norms[name]
        if name in _DIFFERENCE_ROW:
            # ||k (X_{k+1} - X_k)|| is the norm of the difference row at k
            scaled = norms[_DIFFERENCE_ROW[name]][:-1]
        else:
            scaled = _operator_norms(_scaled_difference(modes, sequences[name]))
        # per-|k| profile max(|.|_{+k}, |.|_{-k}) for |k| = 0..window
        profile = np.maximum(norm[window:-1], norm[window::-1])
        verdict, exponent = _verdict(window, profile)
        rows.append(SequenceDiagnostics(name, float(np.max(norm[:-1])),
                                        float(np.max(scaled)), exponent, verdict))
    return MBoundReport(window=window, rows=rows)
