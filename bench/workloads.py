"""Seeded configuration documents for the three benchmark workloads.

Every workload shares one problem structure, n = 2:

* upper-triangular state matrix A with a stable diagonal;
* a neutral atom at lag 2*pi (mode-independent symbol);
* a reaction atom at lag pi/2 (on the collocation grid for every N divisible
  by 4);
* a two-term exponential memory kernel (c1 e^{-a1 t} + c2 t e^{-a2 t});
* forcing with three harmonics.

The seed only draws values from fixed small ranges, chosen so that every
modal matrix stays well conditioned (|L_k| <= 0.6, |G_k| <= 0.6, a~(0) < 1
against -A with eigenvalues in [-2, -1]).  ``distributed`` adds a sampled
kernel to L.  ``lumped`` also runs verify, at K = VERIFY_K: the dense oracle
cannot carry K = 4096.
"""

from __future__ import annotations

import json
import math

import numpy as np

TWO_PI = 2.0 * math.pi

SPECTRAL = ("solve", "diagnose", "besov", "sweep")

#: the invocations of one pass, in order
COMMANDS = {
    "lumped": SPECTRAL + ("verify",),
    "distributed": SPECTRAL,
}

#: truncation of the verify invocation (passed as --k)
VERIFY_K = 32

_SIZES = {
    "lumped": {"K": 4096, "K_diag": 2048, "besov": {"s": 1.0, "p": 3.0, "q": 2.0},
               "K_list": [512, 1024, 2048, 4096], "N_list": [128, 256, 512, 1024]},
    "distributed": {"K": 256, "K_diag": 256, "besov": {"s": 1.0, "p": 3.0, "q": 2.0},
                    "K_list": [32, 64, 128, 256]},
}

#: samples and span of the sampled distributed kernel
KERNEL_SAMPLES = 65
KERNEL_SPAN = TWO_PI


def _matrix(rng, lo, hi, upper=False):
    mat = rng.uniform(lo, hi, size=(2, 2))
    if upper:
        mat[1, 0] = 0.0
    return mat.round(6).tolist()


def problem_document(rng, distributed: bool) -> dict:
    """The seeded problem block of a configuration."""
    state = _matrix(rng, -0.5, 0.5, upper=True)
    state[0][0] = round(float(rng.uniform(-2.0, -1.0)), 6)
    state[1][1] = round(float(rng.uniform(-2.0, -1.0)), 6)
    neutral = {"atoms": [{"coef": _matrix(rng, -0.3, 0.3), "lag": TWO_PI}]}
    if distributed:
        samples = rng.uniform(-0.03, 0.03, size=(KERNEL_SAMPLES, 2, 2)).round(6)
        neutral["distributed"] = {"samples": samples.tolist(), "span": KERNEL_SPAN}
    c1, c2 = (round(float(v), 6) for v in rng.uniform(0.1, 0.3, size=2))
    a1, a2 = (round(float(v), 6) for v in rng.uniform(1.0, 2.0, size=2))
    forcing = {
        "const": rng.uniform(-1.0, 1.0, size=2).round(6).tolist(),
        "cos": rng.uniform(-1.0, 1.0, size=(3, 2)).round(6).tolist(),
        "sin": rng.uniform(-1.0, 1.0, size=(3, 2)).round(6).tolist(),
    }
    return {
        "n": 2,
        "A": state,
        "L": neutral,
        "G": {"atoms": [{"coef": _matrix(rng, -0.3, 0.3), "lag": TWO_PI / 4.0}]},
        "kernel": {"terms": [{"c": c1, "m": 0, "alpha": a1},
                             {"c": c2, "m": 1, "alpha": a2}]},
        "forcing": forcing,
    }


def config_document(workload: str, seed: int) -> dict:
    """Configuration document of ``workload`` for ``seed``."""
    if workload not in COMMANDS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed, sorted(COMMANDS).index(workload)])
    doc = {"problem": problem_document(rng, distributed=workload == "distributed")}
    doc.update(json.loads(json.dumps(_SIZES[workload])))
    return doc


def defaults_document(doc: dict) -> dict:
    """The same problem with K and N_list left at the front end's defaults."""
    return {key: value for key, value in doc.items() if key not in ("K", "N_list")}
