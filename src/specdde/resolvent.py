"""Checked inversion of the modal matrices and the diagnostic family.

For each integer mode k the problem reduces to the modal matrix

    M(k) = i k D_k - A D_k - G_k - atilde(ik) I,      D_k = I - L_k,

whose inverse maps forcing coefficients to solution coefficients.  The mode
symbols come from one table (``symbols.ModeSymbols``), built once per
problem and band, and M(k) is assembled in one place, ``ModeSymbols.modal``.

``_checked_inverse`` is the one condition test: it rejects every mode whose
1-norm condition number ||M(k)||_1 ||M(k)^{-1}||_1 exceeds the limit (that
estimate needs no SVD), then inverts.  The lean solve (``solver``) uses it
and nothing else from here.  The diagnostic family adds the companion
sequences of the boundedness report; spectral norms are taken only by the
diagnostics that report them.  The module also verifies the exact algebraic
identities relating the assembled pieces.

Everything below is batched over the band with a deterministic ascending-k
order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .exceptions import SingularModeError
from .symbols import ModeSymbols, ProblemSpec, difference_sequences

#: 1-norm condition number beyond which a modal matrix is treated as singular
COND_LIMIT = 1e12

_SEQUENCE_NAMES = ["N", "S", "T", "F", "P", "Q", "R", "B", "L", "G", "a_tilde"]


def _operator_norms(stack: np.ndarray) -> np.ndarray:
    """Spectral norm of each matrix in a (m, n, n) stack."""
    if stack.shape[1] == 1:
        return np.abs(stack[:, 0, 0])
    return np.linalg.svd(stack, compute_uv=False)[:, 0]


def _checked_inverse(modes: np.ndarray, modal: np.ndarray, cond_limit: float):
    """(M(k)^{-1}, 1-norm condition numbers) for every mode.

    Raises SingularModeError naming every mode whose 1-norm condition number
    exceeds ``cond_limit`` or is not finite; an exactly singular M(k) gives
    an infinite condition number rather than an exception.
    """
    condition = np.linalg.cond(modal, 1)
    bad = ~np.isfinite(condition) | (condition > cond_limit)
    if np.any(bad):
        raise SingularModeError(modes[bad], condition[bad])
    return np.linalg.inv(modal), condition


@dataclass
class ResolventFamily:
    """Band snapshot of the solution operator and its companions.

    Per mode k (rows follow ``modes`` in ascending order):

    * ``modal``            M(k) = ik D_k - A D_k - G_k - atilde(ik) I
    * ``resolvent``        M(k)^{-1}
    * ``resolvent_ik``     ik M(k)^{-1}
    * ``delay_response``   G_k M(k)^{-1}
    * ``kernel_response``  atilde(ik) M(k)^{-1}
    * ``neutral``          D_k = I - L_k

    ``condition`` holds the per-mode 1-norm condition number.
    """

    modes: np.ndarray
    modal: np.ndarray
    resolvent: np.ndarray
    resolvent_ik: np.ndarray
    delay_response: np.ndarray
    kernel_response: np.ndarray
    neutral: np.ndarray
    condition: np.ndarray


def resolvent_family(spec: ProblemSpec, symbols: ModeSymbols,
                     cond_limit: float = COND_LIMIT) -> ResolventFamily:
    """Assemble and invert the modal matrices on the band of ``symbols``.

    Raises SingularModeError naming every mode whose 1-norm condition number
    exceeds ``cond_limit`` (or fails to be finite).
    """
    modal = symbols.modal(spec.state_matrix)
    resolvent, condition = _checked_inverse(symbols.modes, modal, cond_limit)
    ik = (1j * symbols.modes)[:, None, None]
    return ResolventFamily(
        modes=symbols.modes,
        modal=modal,
        resolvent=resolvent,
        resolvent_ik=ik * resolvent,
        delay_response=np.matmul(symbols.G, resolvent),
        kernel_response=symbols.a[:, None, None] * resolvent,
        neutral=symbols.neutral,
        condition=condition,
    )


def verify_modal_identity(family: ResolventFamily) -> float:
    """max_k || M(k) M(k)^{-1} - I ||, the inversion defect over the window."""
    eye = np.eye(family.modal.shape[1])
    defect = np.matmul(family.modal, family.resolvent) - eye[None, :, :]
    return float(np.max(_operator_norms(defect)))


def telescoping_check(spec: ProblemSpec, symbols: ModeSymbols) -> float:
    """Largest defect over the table of the exact difference identity of the
    non-state part.

    With C_k = ik D_k - G_k - atilde(ik) I and the k-scaled symbol differences
    P_k, Q_k, R_k, the identity

        k (C_k - C_{k+1}) = -ik I + ik L_{k+1} + ik Q_k + R_k + P_k I

    holds exactly for every mode of the table but the last; both sides are
    evaluated from the same symbol values and the largest spectral norm of
    their difference is returned.
    """
    diffs = difference_sequences(spec, symbols)
    eye = np.eye(spec.dim)[None, :, :]
    kcol = diffs.modes[:, None, None]
    nonstate = symbols.nonstate()
    lhs = kcol * (nonstate[:-1] - nonstate[1:])
    ik = 1j * kcol
    rhs = (-ik * eye + ik * symbols.L[1:] + ik * diffs.neutral
           + diffs.reaction + diffs.kernel[:, None, None] * eye)
    return float(np.max(_operator_norms(lhs - rhs)))


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

    def row(self, name: str) -> SequenceDiagnostics:
        for row in self.rows:
            if row.name == name:
                return row
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {"window": self.window, "rows": [r.to_dict() for r in self.rows]}

    def all_bounded(self, names) -> bool:
        return all(self.row(name).verdict == "bounded" for name in names)


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

    Rows N, S, T, F come from the inverted modal family; P, Q, R, B are the
    k-scaled symbol differences; L, G and a_tilde are the raw symbols.  Each
    row records the sup of the norm over the window, the sup of the k-scaled
    first difference, a fitted tail growth exponent, and a verdict.  One
    symbol table on |k| <= window + 2 serves every row.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    symbols = ModeSymbols.from_spec(spec, window + 2)
    diffs = difference_sequences(spec, symbols)
    family = resolvent_family(spec, symbols.band(window + 1), cond_limit=cond_limit)

    sequences = {
        "N": (family.modes, family.resolvent),
        "S": (family.modes, family.resolvent_ik),
        "T": (family.modes, family.delay_response),
        "F": (family.modes, family.kernel_response),
        "P": (diffs.modes, diffs.kernel[:, None, None] * np.eye(1)),
        "Q": (diffs.modes, diffs.neutral),
        "R": (diffs.modes, diffs.reaction),
        "B": (diffs.modes, diffs.neutral_state),
        "L": (symbols.modes, symbols.L),
        "G": (symbols.modes, symbols.G),
        "a_tilde": (symbols.modes, symbols.a[:, None, None] * np.eye(1)),
    }

    rows = []
    for name in _SEQUENCE_NAMES:
        ks_seq, stack = sequences[name]
        norms = _operator_norms(stack)
        offset = -int(ks_seq[0])
        inside = slice(offset - window, offset + window + 1)
        sup_norm = float(np.max(norms[inside]))
        scaled = np.abs(ks_seq[inside]) * \
            _operator_norms(stack[offset - window + 1: offset + window + 2]
                            - stack[inside])
        sup_scaled_diff = float(np.max(scaled))
        # per-|k| profile max(|.|_{+k}, |.|_{-k}) for |k| = 0..window
        profile = np.maximum(norms[offset: offset + window + 1],
                             norms[offset - window: offset + 1][::-1])
        verdict, exponent = _verdict(window, profile)
        rows.append(SequenceDiagnostics(name, sup_norm, sup_scaled_diff,
                                        exponent, verdict))
    return MBoundReport(window=window, rows=rows)
