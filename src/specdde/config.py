"""JSON problem configurations for the batch front end.

A configuration is a single JSON document.  Matrices are row-major nested
arrays, forcing is given either as harmonic lists {const, cos, sin} or as
grid samples, and delays as atom lists plus an optional sampled distributed
kernel.  All data in a configuration is real; complex problems are built
through the Python API.  Every document is validated before any computation,
and the fully resolved values (defaults included) are echoed into each
report for reproducibility.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from .besov import BesovParams
from .exceptions import ConfigError, InvalidKernelError
from .resolvent import COND_LIMIT
from .symbols import (
    DelayFunctional,
    DistributedDelay,
    KernelSpec,
    PeriodicGridFunction,
    ProblemSpec,
)

_TOP_KEYS = {"problem", "K", "N", "K_diag", "besov", "N_list", "K_list",
             "tolerances"}
_PROBLEM_KEYS = {"n", "A", "L", "G", "kernel", "forcing"}
_DELAY_KEYS = {"atoms", "distributed"}
_ATOM_KEYS = {"coef", "lag"}
_DISTRIBUTED_KEYS = {"samples", "span"}
_KERNEL_KEYS = {"terms"}
_TERM_KEYS = {"c", "m", "alpha"}
_FORCING_KEYS = {"const", "cos", "sin", "samples"}
_BESOV_KEYS = {"s", "p", "q"}

_DEFAULTS = {"K": 64, "K_diag": 512,
             "besov": {"s": 1.0, "p": 2.0, "q": 2.0},
             "N_list": [64, 128, 256], "K_list": [4, 8, 16, 32],
             "tolerances": {"singular_cond": COND_LIMIT}}


@dataclass
class RunConfig:
    """A validated configuration plus the resolved document echoed in reports."""

    problem: ProblemSpec
    truncation: int
    window: int
    besov: BesovParams
    grid_sizes: List[int]
    truncation_sweep: List[int]
    tolerances: Dict[str, float]
    resolved: Dict[str, Any]


class _Collector:
    def __init__(self):
        self.violations: List[Tuple[str, str]] = []

    def add(self, path: str, message: str):
        self.violations.append((path, message))

    def unknown(self, path: str, doc: dict, allowed: set):
        for key in doc:
            if key not in allowed:
                self.add(f"{path}.{key}" if path else key, "unknown field")


def _number(value, path, errs, positive=False, integer=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        errs.add(path, "must be a number")
        return None
    if not abs(value) <= sys.float_info.max:
        errs.add(path, "must be finite")
        return None
    if integer and int(value) != value:
        errs.add(path, "must be an integer")
        return None
    if positive and not value > 0:
        errs.add(path, "must be positive")
        return None
    return int(value) if integer else float(value)


def _array(value, path, errs, message):
    """``value`` as a float array, or None with a violation at ``path``."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        errs.add(path, message)
        return None
    if not np.all(np.isfinite(arr)):
        errs.add(path, "must be finite")
        return None
    return arr


def _matrix(value, n, path, errs):
    mat = _array(value, path, errs, "must be a nested array of numbers")
    if mat is not None and mat.shape != (n, n):
        errs.add(path, f"expected an {n}x{n} matrix, got shape {list(mat.shape)}")
        return None
    return mat


def _vector(value, n, path, errs):
    message = "must be a number or an array of numbers"
    if isinstance(value, bool) or not isinstance(value, (int, float, list)):
        errs.add(path, message)
        return None
    arr = _array(value, path, errs, message)
    if arr is None:
        return None
    arr = np.atleast_1d(arr)
    if arr.shape == (1,) and n > 1:
        arr = np.full(n, arr[0])
    if arr.shape != (n,):
        errs.add(path, f"expected a length-{n} vector")
        return None
    return arr


def _list(doc, key, path, errs) -> list:
    """The list at ``doc[key]`` (empty when absent), or [] with a violation."""
    value = doc.get(key, [])
    if not isinstance(value, list):
        errs.add(f"{path}.{key}", "must be a list")
        return []
    return value


def _parse_delay(doc, n, path, errs) -> Optional[DelayFunctional]:
    if doc is None:
        return DelayFunctional(dim=n)
    if not isinstance(doc, dict):
        errs.add(path, "must be an object")
        return None
    before = len(errs.violations)
    errs.unknown(path, doc, _DELAY_KEYS)
    atoms = []
    for i, atom in enumerate(_list(doc, "atoms", path, errs)):
        apath = f"{path}.atoms[{i}]"
        if not isinstance(atom, dict):
            errs.add(apath, "must be an object")
            continue
        errs.unknown(apath, atom, _ATOM_KEYS)
        coef = _matrix(atom.get("coef"), n, f"{apath}.coef", errs)
        lag = _number(atom.get("lag"), f"{apath}.lag", errs)
        if lag is not None and lag < 0:
            errs.add(f"{apath}.lag", "must be nonnegative")
            lag = None
        if coef is not None and lag is not None:
            atoms.append((coef, lag))
    distributed = None
    if "distributed" in doc and doc["distributed"] is not None:
        dpath = f"{path}.distributed"
        ddoc = doc["distributed"]
        if not isinstance(ddoc, dict):
            errs.add(dpath, "must be an object")
        else:
            errs.unknown(dpath, ddoc, _DISTRIBUTED_KEYS)
            span = _number(ddoc.get("span"), f"{dpath}.span", errs, positive=True)
            samples = ddoc.get("samples")
            if samples is None:
                errs.add(f"{dpath}.samples", "required (list of n x n matrices)")
            elif span is not None:
                arr = _array(samples, f"{dpath}.samples", errs, "must be numeric")
                if arr is not None:
                    if arr.ndim == 1:
                        arr = arr.reshape(-1, 1, 1)
                    if arr.ndim != 3 or arr.shape[1:] != (n, n) or arr.shape[0] < 4:
                        errs.add(f"{dpath}.samples",
                                 f"expected at least 4 samples of shape {n}x{n}")
                    else:
                        distributed = DistributedDelay(arr, span)
    if len(errs.violations) > before:
        return None
    return DelayFunctional(dim=n, atoms=atoms, distributed=distributed)


def _parse_kernel(doc, path, errs) -> Optional[KernelSpec]:
    if doc is None:
        return KernelSpec()
    if not isinstance(doc, dict):
        errs.add(path, "must be an object")
        return None
    before = len(errs.violations)
    errs.unknown(path, doc, _KERNEL_KEYS)
    terms = []
    for i, term in enumerate(_list(doc, "terms", path, errs)):
        tpath = f"{path}.terms[{i}]"
        if not isinstance(term, dict):
            errs.add(tpath, "must be an object")
            continue
        errs.unknown(tpath, term, _TERM_KEYS)
        c = _number(term.get("c"), f"{tpath}.c", errs)
        m = _number(term.get("m", 0), f"{tpath}.m", errs, integer=True)
        alpha = _number(term.get("alpha"), f"{tpath}.alpha", errs, positive=True)
        if m is not None and m < 0:
            errs.add(f"{tpath}.m", "must be >= 0")
            m = None
        if None in (c, m, alpha):
            continue
        try:
            terms.append(KernelSpec.term(c, m, alpha))
        except InvalidKernelError as exc:
            errs.add(tpath, str(exc))
    if len(errs.violations) > before:
        return None
    return KernelSpec(terms=terms)


def _parse_forcing(doc, n, path, errs) -> Optional[PeriodicGridFunction]:
    if not isinstance(doc, dict):
        errs.add(path, "required object with {const, cos, sin} or {samples}")
        return None
    errs.unknown(path, doc, _FORCING_KEYS)
    if "samples" in doc:
        if any(k in doc for k in ("const", "cos", "sin")):
            errs.add(path, "give either samples or harmonics, not both")
            return None
        arr = _array(doc["samples"], f"{path}.samples", errs, "must be numeric")
        if arr is None:
            return None
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2 or arr.shape[1] != n:
            errs.add(f"{path}.samples", f"expected shape (N, {n})")
            return None
        if arr.shape[0] < 3:
            errs.add(f"{path}.samples", "need at least 3 samples")
            return None
        return PeriodicGridFunction.from_samples(arr)
    before = len(errs.violations)
    harmonics = {name: [_vector(entry, n, f"{path}.{name}[{i}]", errs)
                        for i, entry in enumerate(_list(doc, name, path, errs))]
                 for name in ("cos", "sin")}
    const = _vector(doc.get("const", 0.0), n, f"{path}.const", errs)
    if len(errs.violations) > before:
        return None
    return PeriodicGridFunction.from_harmonics(**harmonics, const=const, dim=n)


def parse_config(text: str, overrides: Optional[Dict[str, Any]] = None) -> RunConfig:
    """Validate a JSON configuration document and build the run inputs.

    ``overrides`` replace top-level fields of the decoded document, so they
    are validated and echoed like any other field; the text is decoded once.
    Raises ConfigError carrying (path, message) pairs for every violation.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([("$", f"not valid JSON: {exc}")]) from None
    if isinstance(doc, dict) and overrides:
        doc.update(overrides)
    return _parse_document(doc)


def _parse_document(doc: Any) -> RunConfig:
    """The run inputs of a decoded configuration document."""
    errs = _Collector()
    if not isinstance(doc, dict):
        raise ConfigError([("$", "top level must be an object")])
    errs.unknown("", doc, _TOP_KEYS)

    problem_doc = doc.get("problem")
    if not isinstance(problem_doc, dict):
        errs.add("problem", "required object")
        raise ConfigError(errs.violations)
    errs.unknown("problem", problem_doc, _PROBLEM_KEYS)

    a_raw = problem_doc.get("A")
    n = problem_doc.get("n")
    if n is None:
        if isinstance(a_raw, list) and a_raw:
            n = len(a_raw)
        else:
            errs.add("problem.n", "required when A does not fix the dimension")
    n = _number(n, "problem.n", errs, positive=True, integer=True) if n is not None else None
    if n is None:
        raise ConfigError(errs.violations)

    state = _matrix(a_raw, n, "problem.A", errs)
    neutral = _parse_delay(problem_doc.get("L"), n, "problem.L", errs)
    reaction = _parse_delay(problem_doc.get("G"), n, "problem.G", errs)
    kernel = _parse_kernel(problem_doc.get("kernel"), "problem.kernel", errs)
    forcing = _parse_forcing(problem_doc.get("forcing"), n, "problem.forcing", errs)

    truncation = _number(doc.get("K", _DEFAULTS["K"]), "K", errs,
                         positive=True, integer=True)
    grid = doc.get("N")
    if grid is not None:
        grid = _number(grid, "N", errs, positive=True, integer=True)
    if truncation is not None and grid is not None and grid < 2 * truncation + 1:
        errs.add("N", f"must satisfy N >= 2K+1 (K={truncation}, N={grid})")
    window = _number(doc.get("K_diag", _DEFAULTS["K_diag"]), "K_diag", errs,
                     positive=True, integer=True)

    besov_doc = doc.get("besov", dict(_DEFAULTS["besov"]))
    besov = None
    if not isinstance(besov_doc, dict):
        errs.add("besov", "must be an object")
    else:
        errs.unknown("besov", besov_doc, _BESOV_KEYS)
        s = _number(besov_doc.get("s", 1.0), "besov.s", errs)
        p = _number(besov_doc.get("p", 2.0), "besov.p", errs)
        q = _number(besov_doc.get("q", 2.0), "besov.q", errs)
        if None not in (s, p, q):
            try:
                besov = BesovParams(s, p, q)
            except ValueError as exc:
                errs.add("besov", str(exc))

    def _int_list(key):
        raw = doc.get(key, list(_DEFAULTS[key]))
        if not isinstance(raw, list) or not raw:
            errs.add(key, "must be a nonempty list of integers")
            return None
        out = []
        for i, v in enumerate(raw):
            iv = _number(v, f"{key}[{i}]", errs, positive=True, integer=True)
            if iv is None:
                return None
            out.append(iv)
        if any(a >= b for a, b in zip(out, out[1:])):
            errs.add(key, "must be strictly ascending")
            return None
        return out

    grid_sizes = _int_list("N_list")
    sweep = _int_list("K_list")

    tolerances = dict(_DEFAULTS["tolerances"])
    tol_doc = doc.get("tolerances", {})
    if not isinstance(tol_doc, dict):
        errs.add("tolerances", "must be an object")
    else:
        for key, value in tol_doc.items():
            if key not in tolerances:
                errs.add(f"tolerances.{key}", "unknown tolerance")
                continue
            tv = _number(value, f"tolerances.{key}", errs, positive=True)
            if tv is not None:
                tolerances[key] = tv

    if errs.violations:
        raise ConfigError(errs.violations)

    try:
        problem = ProblemSpec(
            state_matrix=state,
            neutral_delay=neutral,
            reaction_delay=reaction,
            kernel=kernel,
            forcing=forcing,
            truncation=truncation,
            grid=grid,
        )
    except ValueError as exc:
        raise ConfigError([("problem", str(exc))]) from None

    resolved = _resolve_document(problem_doc, n, truncation, problem.grid, window, besov,
                                 grid_sizes, sweep, tolerances)
    return RunConfig(
        problem=problem,
        truncation=truncation,
        window=window,
        besov=besov,
        grid_sizes=grid_sizes,
        truncation_sweep=sweep,
        tolerances=tolerances,
        resolved=resolved,
    )


def _resolve_document(problem_doc, n, truncation, grid, window, besov,
                      grid_sizes, sweep, tolerances) -> Dict[str, Any]:
    """Defaults-filled copy of the configuration, echoed into every report."""
    problem = {"n": n, "A": problem_doc["A"]}
    for key in ("L", "G", "kernel", "forcing"):
        if problem_doc.get(key) is not None:
            problem[key] = problem_doc[key]
    return {
        "problem": problem,
        "K": truncation,
        "N": grid,
        "K_diag": window,
        "besov": {"s": besov.s, "p": besov.p, "q": besov.q},
        "N_list": grid_sizes,
        "K_list": sweep,
        "tolerances": tolerances,
    }
