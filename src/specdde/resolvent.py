"""Checked inversion of the modal matrices and the boundedness diagnostics.

For each integer mode k the problem reduces to the modal matrix

    M(k) = i k D_k - A D_k - G_k - atilde(ik) I,      D_k = I - L_k,

whose inverse maps forcing coefficients to solution coefficients.  The mode
symbols come from one table (``symbols.ModeSymbols``), built once per
problem and band, and M(k) is assembled in one place, ``ModeSymbols.modal``.

``_checked_inverse`` is the one condition test: it inverts once and rejects
every mode whose 1-norm condition number ||M(k)||_1 ||M(k)^{-1}||_1, read
off that inverse, exceeds the limit (that estimate needs no SVD).  The lean
solve (``solver``) uses it and nothing else from here.
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
order, and each mode's values are computed from that mode alone.
"""

from __future__ import annotations

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
    """k (X_{k+1} - X_k) for every row k = modes[i] of a (m, n, n) stack but
    the last."""
    difference = stack[1:] - stack[:-1]
    # in place: a fresh int-by-complex product takes several times as long
    difference *= modes[:-1, None, None]
    return difference


def _largest_singular_value(stack: np.ndarray) -> np.ndarray:
    """sqrt((p + r)/2 + hypot((p - r)/2, |q|)) for each matrix of a (m, 2, 2)
    stack, where [[p, q], [q*, r]] is the Gram matrix of its columns."""
    squares = np.square(stack.real) + np.square(stack.imag)
    p = squares[:, 0, 0] + squares[:, 1, 0]
    r = squares[:, 0, 1] + squares[:, 1, 1]
    q = np.abs(np.conj(stack[:, 0, 0]) * stack[:, 0, 1]
               + np.conj(stack[:, 1, 0]) * stack[:, 1, 1])
    return np.sqrt(0.5 * (p + r) + np.hypot(0.5 * (p - r), q))


def _operator_norms(stack: np.ndarray) -> np.ndarray:
    """Spectral norm of each matrix in a (m, n, n) stack.

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
    scaled that way; an exactly zero matrix, whose norm 0 is exact, is not.
    The scaling is an ``ldexp`` of the real and imaginary parts, exact for
    every finite matrix (a complex division by a scale below 2^-1024 would
    overflow).
    """
    n = stack.shape[1]
    if n == 1:
        return np.abs(stack[:, 0, 0])
    if n == 2:
        with np.errstate(all="ignore"):
            norms = _largest_singular_value(stack)
        rows = np.flatnonzero(~((norms >= _LEAST_UNSCALED) & (norms <= _MOST_UNSCALED)))
        rows = rows[np.any(stack[rows], axis=(1, 2))]
        if rows.size:
            unit = stack[rows]
            exponent = np.frexp(np.max(np.abs(unit), axis=(1, 2)))[1] - 1
            for part in (unit.real, unit.imag) if np.iscomplexobj(unit) else (unit,):
                np.ldexp(part, -exponent[:, None, None], out=part)
            norms[rows] = np.ldexp(1.0, exponent) * _largest_singular_value(unit)
        return norms
    return np.linalg.svd(stack, compute_uv=False)[:, 0]


def _checked_inverse(modes: np.ndarray, modal: np.ndarray, cond_limit: float):
    """(M(k)^{-1}, 1-norm condition numbers) for every mode, from one inversion.

    The condition number ||M(k)||_1 ||M(k)^{-1}||_1 is read off the inverse,
    exactly as ``np.linalg.cond(M, 1)`` computes it.  Raises
    SingularModeError naming every mode of ``modes`` whose condition number
    exceeds ``cond_limit`` or is not finite; an exactly singular M(k), which
    stops the batched inversion, is then located by ``np.linalg.cond`` and
    has an infinite condition number.  Which of those modes a solve reports
    is the solver's rule (``solver._band_solve``).
    """
    try:
        inverse = np.linalg.inv(modal)
    except np.linalg.LinAlgError:
        inverse, condition = None, np.linalg.cond(modal, 1)
    else:
        with np.errstate(all="ignore"):
            condition = (np.linalg.norm(modal, 1, axis=(1, 2))
                         * np.linalg.norm(inverse, 1, axis=(1, 2)))
        # np.linalg.cond's convention: NaN only where M(k) itself holds one
        condition[np.isnan(condition) & ~np.isnan(modal).any(axis=(1, 2))] = np.inf
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


def _growth_exponent(window: int, by_abs_k: np.ndarray) -> float:
    """Least-squares slope of log norm against log |k| over the window tail.

    ``by_abs_k[j]`` is the larger of the two norms at modes +-j (index 0 is
    mode 0 and never enters the fit).  Zero entries are dropped.
    """
    lo = max(window // 2, 4)
    js = np.arange(lo, window + 1)
    vals = by_abs_k[lo: window + 1]
    keep = vals > 0.0
    if np.count_nonzero(keep) < 2:
        return float("nan")
    slope = np.polyfit(np.log(js[keep].astype(float)), np.log(vals[keep]), 1)[0]
    return float(slope)


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
    """Boundedness report over |k| <= window for the eleven named sequences.

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
    if window < 1:
        raise ValueError("window must be >= 1")
    table = ModeSymbols.from_spec(spec, window + 2)
    inverse = _checked_inverse(table.modes[1:-1], table.modal(spec.state_matrix)[1:-1],
                               cond_limit)[0][1:]
    ahead = table.modes[2:]      # -window..window + 2: one mode past the band
    modes = ahead[:-1]
    G, a = table.G[2:-1], table.a[2:-1, None, None]
    Q = _scaled_difference(ahead, table.L[2:])
    sequences = {
        "N": inverse,
        "S": (1j * modes)[:, None, None] * inverse,
        "T": _stack_product(G, inverse),
        "F": a * inverse,
        "P": _scaled_difference(ahead, table.a[2:, None, None]),
        "Q": Q,
        "R": _scaled_difference(ahead, table.G[2:]),
        "B": _stack_product(spec.state_matrix, Q),
        "L": table.L[2:-1],
        "G": G,
        "a_tilde": a,
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
