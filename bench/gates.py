"""Correctness gates: one check per CLI report, against independent references.

A gate returns the list of reasons a report fails (empty when it passes).
The reference values are computed once per run from the configuration
document by ``reference.Reference``, outside every timed region.
"""

from __future__ import annotations

import numpy as np

from reference import Reference
from workloads import VERIFY_K

#: residual bound, relative to max(1, max_t |f(t)|)
RESIDUAL_TOL = 1e-12
#: relative agreement of the diagnose sup norms with the reference
SUP_NORM_RTOL = 1e-9
#: relative agreement of Besov norms (or the report's quadrature error if larger)
BESOV_RTOL = 1e-10
#: verify: grid size whose gap may not exceed the reference gap, and the order
GAP_GRID = 128
ORDER, ORDER_TOL = 2.0, 0.1

#: diagnose verdicts of the workload structure, recorded at the seed commit
#: for every seed tried: the reaction atom at lag pi/2 makes k (G_{k+1} - G_k)
#: grow linearly; every other sequence is bounded.
EXPECTED_VERDICTS = {
    "N": "bounded", "S": "bounded", "T": "bounded", "F": "bounded",
    "P": "bounded", "Q": "bounded", "R": "growing", "B": "bounded",
    "L": "bounded", "G": "bounded", "a_tilde": "bounded",
}


def coefficients_from_report(report: dict) -> np.ndarray:
    return np.array([[complex(v["re"], v["im"]) for v in row["value"]]
                     for row in report["coefficients"]])


def besov_norm(coefficients: np.ndarray, n_samples: int, s: float, p: float,
               q: float, refine: int = 4) -> float:
    """Dyadic Besov norm with the tent partition and trapezoid L^p blocks."""
    K = (coefficients.shape[0] - 1) // 2
    absk = np.abs(np.arange(-K, K + 1)).astype(float)
    levels = int(np.ceil(np.log2(K))) + 1 if K >= 1 else 0
    n_quad = n_samples if p == 2.0 else max(n_samples, refine * (2 * K + 1))
    total = 0.0
    for j in range(levels + 1):
        if j == 0:
            weight = np.clip(2.0 - absk, 0.0, 1.0)
        else:
            x = absk / 2.0**j
            weight = np.where((x >= 0.5) & (x <= 1.0), 2.0 * x - 1.0,
                              np.where((x > 1.0) & (x < 2.0), 2.0 - x, 0.0))
        spectrum = np.zeros((n_quad, coefficients.shape[1]), dtype=complex)
        spectrum[np.mod(np.arange(-K, K + 1), n_quad)] = weight[:, None] * coefficients
        samples = np.fft.ifft(spectrum * n_quad, axis=0)
        block = (2.0 * np.pi / n_quad * np.sum(np.linalg.norm(samples, axis=1) ** p)) ** (1.0 / p)
        total += (2.0 ** (s * j) * block) ** q
    return float(total ** (1.0 / q))


class Gates:
    """Reference values for one configuration, and the per-command checks."""

    def __init__(self, doc: dict, commands):
        self.doc = doc
        self.ref = Reference(doc)
        self.tol = RESIDUAL_TOL * max(1.0, self.ref.forcing_norm)
        self.sup_norms = self.ref.sup_norms(int(doc["K_diag"])) if "diagnose" in commands else {}
        self.besov = {}
        if "besov" in commands:
            b = doc["besov"]
            K, band = self.ref.truncation, self.ref.forcing_band
            # p != 2 integrates on max(N, 4 (2K+1)) points; the forcing grid
            # (16 samples) is below that, so 16 stands for it exactly
            self.besov = {
                "forcing": besov_norm(self.ref.forcing_coefficients(band), 16,
                                      b["s"], b["p"], b["q"]),
                "solution": besov_norm(self.ref.solve(K), self.ref.grid,
                                       b["s"], b["p"], b["q"]),
            }
        self.gap = self.ref.collocation_gap(GAP_GRID, VERIFY_K) if "verify" in commands else None

    def check(self, command: str, report: dict) -> list:
        if report.get("exit_code") != 0:
            return [f"exit code {report.get('exit_code')}: {report.get('error')}"]
        return getattr(self, "_" + command)(report)

    def _solve(self, report):
        reasons = []
        if not report["residual_modal"] <= self.tol:
            reasons.append(f"residual_modal {report['residual_modal']:.3e} > {self.tol:.3e}")
        coefficients = coefficients_from_report(report)
        if coefficients.shape[0] != 2 * self.ref.truncation + 1:
            return reasons + [f"{coefficients.shape[0]} coefficients for K={self.ref.truncation}"]
        recomputed = self.ref.modal_residual(coefficients)
        if not recomputed <= self.tol:
            reasons.append(f"recomputed residual {recomputed:.3e} > {self.tol:.3e}")
        return reasons

    def _diagnose(self, report):
        reasons = []
        if report["window"] != self.doc["K_diag"]:
            reasons.append(f"window {report['window']} != {self.doc['K_diag']}")
        rows = {row["name"]: row for row in report["rows"]}
        if set(rows) != set(EXPECTED_VERDICTS):
            return reasons + [f"rows {sorted(rows)}"]
        for name, verdict in EXPECTED_VERDICTS.items():
            if rows[name]["verdict"] != verdict:
                reasons.append(f"{name} verdict {rows[name]['verdict']} != {verdict}")
            got, want = rows[name]["sup_norm"], self.sup_norms[name]
            if not abs(got - want) <= SUP_NORM_RTOL * abs(want) + 1e-15:
                reasons.append(f"{name} sup_norm {got!r} != {want!r}")
        return reasons

    def _besov(self, report):
        reasons = []
        for part, want in self.besov.items():
            got = report[part]["norm"]
            allowed = max(BESOV_RTOL * abs(want), report[part]["quadrature_error"])
            if not abs(got - want) <= allowed:
                reasons.append(f"{part} norm {got!r} != {want!r} (allowed {allowed:.2e})")
        return reasons

    def _sweep(self, report):
        rows = report["rows"]
        reasons = []
        if [row["K"] for row in rows] != self.doc["K_list"]:
            reasons.append(f"sweep truncations {[row['K'] for row in rows]}")
        last = rows[-1]["residual_full_band"]
        if not last <= self.tol:
            reasons.append(f"residual_full_band {last!r} > {self.tol:.3e}")
        return reasons

    def _verify(self, report):
        rows = {row["n"]: row["gap"] for row in report["rows"]}
        reasons = []
        if sorted(rows) != self.doc["N_list"]:
            reasons.append(f"verify grids {sorted(rows)}")
        gap = rows.get(GAP_GRID)
        if gap is None or not gap <= self.gap * (1.0 + 1e-9):
            reasons.append(f"gap at N={GAP_GRID} {gap!r} > reference {self.gap!r}")
        order = report["fitted_order"]
        if order is None or not abs(order - ORDER) <= ORDER_TOL:
            reasons.append(f"fitted_order {order!r} not within {ORDER_TOL} of {ORDER}")
        return reasons
