"""JSON problem configurations for the batch front end.

A configuration is a single JSON document.  Matrices are row-major nested
arrays, forcing is given either as harmonic lists {const, cos, sin} or as
grid samples, and delays as atom lists plus an optional sampled distributed
kernel.  All data in a configuration is real; complex problems are built
through the Python API.  Every document is validated before any computation,
and the fully resolved values (defaults included) are echoed into each
report for reproducibility.  The top-level fields beside ``problem`` are
declared once, in ``_FIELDS``, and echoed as the run holds them.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, is_dataclass
from operator import attrgetter
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

_PROBLEM_KEYS = {"n", "A", "L", "G", "kernel", "forcing"}
_DELAY_KEYS = {"atoms", "distributed"}
_ATOM_KEYS = {"coef", "lag"}
_DISTRIBUTED_KEYS = {"samples", "span"}
_KERNEL_KEYS = {"terms"}
_TERM_KEYS = {"c", "m", "alpha"}
_FORCING_KEYS = {"const", "cos", "sin", "samples"}


@dataclass
class RunConfig:
    """A validated configuration plus the resolved document echoed in reports."""

    problem: ProblemSpec
    window: int
    besov: BesovParams
    grid_sizes: List[int]
    truncation_sweep: List[int]
    tolerances: Dict[str, float]
    resolved: Dict[str, Any]

    @property
    def truncation(self) -> int:
        """The solver bandwidth K, the problem's own (``problem.truncation``)."""
        return self.problem.truncation


class _Collector:
    def __init__(self):
        self.violations: List[Tuple[str, str]] = []

    def add(self, path: str, message: str):
        self.violations.append((path, message))

    def unknown(self, path: str, doc: dict, allowed):
        for key in doc:
            if key not in allowed:
                self.add(f"{path}.{key}" if path else key, "unknown field")

    def object(self, path: str, doc, allowed) -> bool:
        """Whether ``doc`` is an object, with a violation if not, and one for
        each of its fields outside ``allowed``."""
        if not isinstance(doc, dict):
            self.add(path, "must be an object")
            return False
        self.unknown(path, doc, allowed)
        return True


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


def _holds_null(value) -> bool:
    """Whether ``value`` is null or a nested list holding one."""
    if isinstance(value, list):
        return any(map(_holds_null, value))
    return value is None


def _array(value, path, errs, message):
    """``value`` as a float array, or None with a violation: ``required`` if
    it is absent or holds a null (which numpy reads as NaN)."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        errs.add(path, message)
        return None
    if not np.all(np.isfinite(arr)):
        errs.add(path, "required" if _holds_null(value) else "must be finite")
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
    """The functional of a delay block, or None: for an absent block, which
    ``ProblemSpec`` makes the zero functional, or with a violation."""
    if doc is None:
        return None
    before = len(errs.violations)
    if not errs.object(path, doc, _DELAY_KEYS):
        return None
    atoms = []
    for i, atom in enumerate(_list(doc, "atoms", path, errs)):
        apath = f"{path}.atoms[{i}]"
        if not errs.object(apath, atom, _ATOM_KEYS):
            continue
        coef = _matrix(atom.get("coef"), n, f"{apath}.coef", errs)
        lag = _number(atom.get("lag"), f"{apath}.lag", errs)
        if lag is not None and lag < 0:
            errs.add(f"{apath}.lag", "must be nonnegative")
            lag = None
        if coef is not None and lag is not None:
            atoms.append((coef, lag))
    distributed = None
    ddoc = doc.get("distributed")
    dpath = f"{path}.distributed"
    if ddoc is not None and errs.object(dpath, ddoc, _DISTRIBUTED_KEYS):
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
    """The memory kernel of a kernel block, or None: for an absent block,
    which ``ProblemSpec`` makes the zero kernel, or with a violation."""
    if doc is None:
        return None
    before = len(errs.violations)
    if not errs.object(path, doc, _KERNEL_KEYS):
        return None
    terms = []
    for i, term in enumerate(_list(doc, "terms", path, errs)):
        tpath = f"{path}.terms[{i}]"
        if not errs.object(tpath, term, _TERM_KEYS):
            continue
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


def _parse_problem(doc, errs) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """The ``ProblemSpec`` arguments of the ``problem`` block and its echo.
    Raises ConfigError at once where the block gives no dimension."""
    if not isinstance(doc, dict):
        errs.add("problem", "required object")
        raise ConfigError(errs.violations)
    errs.unknown("problem", doc, _PROBLEM_KEYS)
    a_raw = doc.get("A")
    n = doc.get("n")
    if n is None and isinstance(a_raw, list) and a_raw:
        n = len(a_raw)
    if n is None:
        errs.add("problem.n", "required when A does not fix the dimension")
    else:
        n = _number(n, "problem.n", errs, positive=True, integer=True)
    if n is None:
        raise ConfigError(errs.violations)
    args = {
        "state_matrix": _matrix(a_raw, n, "problem.A", errs),
        "neutral_delay": _parse_delay(doc.get("L"), n, "problem.L", errs),
        "reaction_delay": _parse_delay(doc.get("G"), n, "problem.G", errs),
        "kernel": _parse_kernel(doc.get("kernel"), "problem.kernel", errs),
        "forcing": _parse_forcing(doc.get("forcing"), n, "problem.forcing", errs),
    }
    echo = {"n": n, "A": a_raw, **{key: doc[key] for key in ("L", "G", "kernel", "forcing")
                                   if doc.get(key) is not None}}
    return args, echo


# Parsers of the top-level fields: each takes (value, path, errs, default,
# the fields parsed before it) and returns the value, or None with a violation.

def _count(value, path, errs, *_):
    """A positive integer."""
    return _number(value, path, errs, positive=True, integer=True)


def _grid(value, path, errs, _, parsed):
    """The grid N, absent (None) for the problem's default; N >= 2K+1."""
    if value is None:
        return None
    grid, truncation = _count(value, path, errs), parsed["K"]
    if truncation is not None and grid is not None and grid < 2 * truncation + 1:
        errs.add(path, f"must satisfy N >= 2K+1 (K={truncation}, N={grid})")
    return grid


def _besov(value, path, errs, default, *_):
    """Norm parameters; an absent member takes its default."""
    if not errs.object(path, value, default):
        return None
    s, p, q = (_number(value.get(key, fallback), f"{path}.{key}", errs)
               for key, fallback in default.items())
    if None in (s, p, q):
        return None
    try:
        return BesovParams(s, p, q)
    except ValueError as exc:
        errs.add(path, str(exc))


def _ascending(value, path, errs, *_):
    """A nonempty, strictly ascending list of positive integers."""
    if not isinstance(value, list) or not value:
        errs.add(path, "must be a nonempty list of integers")
        return None
    out = []
    for i, entry in enumerate(value):
        count = _count(entry, f"{path}[{i}]", errs)
        if count is None:
            return None
        out.append(count)
    if any(a >= b for a, b in zip(out, out[1:])):
        errs.add(path, "must be strictly ascending")
        return None
    return out


def _tolerances(value, path, errs, default, *_):
    """The default tolerances, each one given replacing its default."""
    if not isinstance(value, dict):
        errs.add(path, "must be an object")
        return None
    tolerances = dict(default)
    for key, entry in value.items():
        if key not in tolerances:
            errs.add(f"{path}.{key}", "unknown tolerance")
            continue
        tolerance = _number(entry, f"{path}.{key}", errs, positive=True)
        if tolerance is not None:
            tolerances[key] = tolerance
    return tolerances


#: the top-level fields beside ``problem``, in the order they are checked and
#: echoed: name -> (the attribute of the RunConfig that holds the value,
#: ``problem.`` for a ProblemSpec argument; default; parser)
_FIELDS = {
    "K": ("problem.truncation", 64, _count),
    "N": ("problem.grid", None, _grid),
    "K_diag": ("window", 512, _count),
    "besov": ("besov", {"s": 1.0, "p": 2.0, "q": 2.0}, _besov),
    "N_list": ("grid_sizes", [64, 128, 256], _ascending),
    "K_list": ("truncation_sweep", [4, 8, 16, 32], _ascending),
    "tolerances": ("tolerances", {"singular_cond": COND_LIMIT}, _tolerances),
}


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
    if not isinstance(doc, dict):
        raise ConfigError([("$", "top level must be an object")])
    errs = _Collector()
    errs.unknown("", doc, {"problem", *_FIELDS})
    problem_args, echo = _parse_problem(doc.get("problem"), errs)
    parsed, run_args = {}, {}
    for name, (attribute, default, parse) in _FIELDS.items():
        parsed[name] = parse(doc.get(name, default), name, errs, default, parsed)
        owner, _, key = attribute.rpartition(".")
        (problem_args if owner else run_args)[key] = parsed[name]
    if errs.violations:
        raise ConfigError(errs.violations)
    try:
        problem = ProblemSpec(**problem_args)
    except ValueError as exc:
        raise ConfigError([("problem", str(exc))]) from None
    config = RunConfig(problem=problem, resolved={"problem": echo}, **run_args)
    for name, (attribute, _, _) in _FIELDS.items():
        value = attrgetter(attribute)(config)
        config.resolved[name] = asdict(value) if is_dataclass(value) else value
    return config
