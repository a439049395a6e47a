"""Independent reference values for the correctness gates.

Everything here is computed from the configuration document alone, with
numpy and scipy, never through ``specdde``: closed-form atom and memory
symbols, the exact Fourier integral of the cubic-spline distributed kernel
(piecewise cubic times e^{ik theta}, integrated in closed form), a batched
direct solve of M(k) uhat = fhat, the dyadic Besov norm, and a dense
collocation solve at one grid size.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.interpolate import CubicSpline

TWO_PI = 2.0 * math.pi


def _phase(ks, lag):
    # e^{-ik lag} with whole turns removed first, so lags that are binary
    # fractions of the period stay exactly on the unit circle
    return np.exp(-2j * np.pi * np.mod(ks * (lag / TWO_PI), 1.0))


def spline_fourier(samples: np.ndarray, span: float, ks: np.ndarray) -> np.ndarray:
    """int_{-span}^0 S(theta) e^{ik theta} dtheta for the not-a-knot cubic
    spline S through uniform samples, exact per piece; shape (len(ks), n, n)."""
    grid = np.linspace(-span, 0.0, samples.shape[0])
    spline = CubicSpline(grid, samples, axis=0)
    h = grid[1] - grid[0]
    # spline.c[3 - m] multiplies (theta - x_j)^m on piece j
    coef = spline.c[::-1]                                  # (4, pieces, n, n)
    ks = np.asarray(ks, dtype=float)
    moments = np.empty((4, len(ks)), dtype=complex)        # int_0^h t^m e^{ikt} dt
    zero = ks == 0.0
    ik = 1j * ks[~zero]
    e = np.exp(ik * h)
    prev = (e - 1.0) / ik
    moments[0, ~zero] = prev
    for m in range(1, 4):
        prev = (h**m * e - m * prev) / ik
        moments[m, ~zero] = prev
    for m in range(4):
        moments[m, zero] = h ** (m + 1) / (m + 1)
    starts = np.exp(1j * np.outer(ks, grid[:-1]))          # (len(ks), pieces)
    return np.einsum("kp,mk,mpij->kij", starts, moments, coef)


class Reference:
    """The problem of one configuration document, evaluated independently."""

    def __init__(self, doc: dict):
        prob = doc["problem"]
        self.n = int(prob["n"])
        self.state = np.asarray(prob["A"], dtype=float)
        self.neutral_atoms = [(np.asarray(a["coef"], float), float(a["lag"]))
                              for a in prob.get("L", {}).get("atoms", [])]
        dist = prob.get("L", {}).get("distributed")
        self.distributed = None
        if dist is not None:
            self.distributed = (np.asarray(dist["samples"], float), float(dist["span"]))
        self.reaction_atoms = [(np.asarray(a["coef"], float), float(a["lag"]))
                               for a in prob.get("G", {}).get("atoms", [])]
        self.terms = [(float(t["c"]), int(t.get("m", 0)), float(t["alpha"]))
                      for t in prob.get("kernel", {}).get("terms", [])]
        forcing = prob["forcing"]
        cos = np.asarray(forcing.get("cos", []), float).reshape(-1, self.n)
        sin = np.asarray(forcing.get("sin", []), float).reshape(-1, self.n)
        self.forcing_band = max(len(cos), len(sin))
        band = self.forcing_band
        fhat = np.zeros((2 * band + 1, self.n), dtype=complex)
        fhat[band] = np.asarray(forcing.get("const", 0.0), float) * np.ones(self.n)
        for m in range(1, band + 1):
            c = cos[m - 1] if m <= len(cos) else np.zeros(self.n)
            s = sin[m - 1] if m <= len(sin) else np.zeros(self.n)
            fhat[band + m] = (c - 1j * s) / 2.0
            fhat[band - m] = (c + 1j * s) / 2.0
        self._fhat = fhat
        t = TWO_PI * np.arange(64 * (band + 1)) / (64 * (band + 1))
        values = np.exp(1j * np.outer(t, np.arange(-band, band + 1))) @ fhat
        #: max over t of |f(t)|, the scale of the residual gates
        self.forcing_norm = float(np.max(np.linalg.norm(values, axis=1)))
        self.truncation = int(doc.get("K", 64))
        self.grid = int(doc.get("N", 4 * self.truncation))

    # -- symbols -----------------------------------------------------------

    def forcing_coefficients(self, K: int) -> np.ndarray:
        out = np.zeros((2 * K + 1, self.n), dtype=complex)
        b = min(K, self.forcing_band)
        out[K - b: K + b + 1] = self._fhat[self.forcing_band - b: self.forcing_band + b + 1]
        return out

    def neutral_symbols(self, ks) -> np.ndarray:
        out = self._atoms(self.neutral_atoms, ks)
        if self.distributed is not None:
            out = out + spline_fourier(*self.distributed, ks)
        return out

    def reaction_symbols(self, ks) -> np.ndarray:
        return self._atoms(self.reaction_atoms, ks)

    def _atoms(self, atoms, ks):
        ks = np.asarray(ks)
        out = np.zeros((len(ks), self.n, self.n), dtype=complex)
        for coef, lag in atoms:
            out += _phase(ks, lag)[:, None, None] * coef
        return out

    def memory_symbols(self, ks) -> np.ndarray:
        lam = 1j * np.asarray(ks, dtype=float)
        out = np.zeros_like(lam)
        for c, m, alpha in self.terms:
            out += c * math.factorial(m) / (alpha + lam) ** (m + 1)
        return out

    def modal(self, ks) -> np.ndarray:
        ks = np.asarray(ks)
        eye = np.eye(self.n)
        neutral = eye - self.neutral_symbols(ks)
        return ((1j * ks)[:, None, None] * neutral - self.state @ neutral
                - self.reaction_symbols(ks)
                - self.memory_symbols(ks)[:, None, None] * eye)

    # -- solution ----------------------------------------------------------

    def solve(self, K: int) -> np.ndarray:
        """uhat(k) for |k| <= K, ascending k, by a batched direct solve."""
        ks = np.arange(-K, K + 1)
        return np.linalg.solve(self.modal(ks), self.forcing_coefficients(K)[..., None])[..., 0]

    def modal_residual(self, coefficients: np.ndarray) -> float:
        """max_k |M(k) uhat(k) - fhat(k)| of the given coefficients."""
        K = (coefficients.shape[0] - 1) // 2
        ks = np.arange(-K, K + 1)
        defect = np.einsum("kij,kj->ki", self.modal(ks), coefficients) \
            - self.forcing_coefficients(K)
        return float(np.max(np.linalg.norm(defect, axis=1)))

    # -- diagnostics -------------------------------------------------------

    def sup_norms(self, window: int) -> dict:
        """Sup over |k| <= window of the norms of the eleven report sequences."""
        ks = np.arange(-window - 2, window + 3)
        lsym, gsym = self.neutral_symbols(ks), self.reaction_symbols(ks)
        asym = self.memory_symbols(ks)
        inv = np.linalg.inv(self.modal(ks))
        kcol = ks[:-1, None, None]
        q = kcol * (lsym[1:] - lsym[:-1])
        stacks = {
            "N": (ks, inv),
            "S": (ks, (1j * ks)[:, None, None] * inv),
            "T": (ks, gsym @ inv),
            "F": (ks, asym[:, None, None] * inv),
            "P": (ks[:-1], (ks[:-1] * (asym[1:] - asym[:-1]))[:, None, None]),
            "Q": (ks[:-1], q),
            "R": (ks[:-1], kcol * (gsym[1:] - gsym[:-1])),
            "B": (ks[:-1], self.state @ q),
            "L": (ks, lsym),
            "G": (ks, gsym),
            "a_tilde": (ks, asym[:, None, None]),
        }
        out = {}
        for name, (kk, stack) in stacks.items():
            inside = np.abs(kk) <= window
            norms = np.linalg.norm(stack[inside], ord=2, axis=(1, 2))
            out[name] = float(np.max(norms))
        return out

    # -- collocation -------------------------------------------------------

    def collocation_gap(self, n_nodes: int, K: int) -> float:
        """Max-norm gap between the spectral solution and a dense second-order
        collocation solve on n_nodes points (centred difference, wrapped
        lags, exactly folded memory kernel with the jump-averaged node)."""
        if self.distributed is not None or any(m > 1 for _, m, _ in self.terms):
            raise ValueError("the reference oracle covers atoms and memory terms with m <= 1")
        n, dt = self.n, TWO_PI / n_nodes
        size = n_nodes * n
        rows = np.arange(n_nodes)

        def shift(s, block):
            out = np.zeros((n_nodes, n, n_nodes, n), dtype=complex)
            out[rows, :, (rows - s) % n_nodes, :] = block
            return out.reshape(size, size)

        def delays(atoms):
            total = np.zeros((size, size), dtype=complex)
            for coef, lag in atoms:
                total += shift(int(round(lag / dt)), coef)
            return total

        eye = np.eye(n)
        diff = shift(-1, eye / (2 * dt)) + shift(1, -eye / (2 * dt))
        tau = dt * np.arange(n_nodes)
        fold = np.zeros(n_nodes)
        for c, m, alpha in self.terms:
            q = math.exp(-TWO_PI * alpha)
            base = np.exp(-alpha * tau) / (1.0 - q)
            # sum over folds j of a(tau + 2 pi j), in closed form
            fold += c * base * (tau + TWO_PI * q / (1.0 - q)) if m == 1 else c * base
        fold[0] -= 0.5 * sum(c for c, m, _ in self.terms if m == 0)
        conv = sum(shift(l, dt * fold[l] * eye) for l in range(n_nodes))
        system = (diff - shift(0, self.state)) @ (np.eye(size) - delays(self.neutral_atoms)) \
            - delays(self.reaction_atoms) - conv
        t = tau
        band = self.forcing_band
        forcing = np.exp(1j * np.outer(t, np.arange(-band, band + 1))) @ self._fhat
        x = np.linalg.solve(system, forcing.reshape(-1)).reshape(n_nodes, n)
        exact = np.exp(1j * np.outer(t, np.arange(-K, K + 1))) @ self.solve(K)
        return float(np.max(np.linalg.norm(exact - x, axis=1)))
