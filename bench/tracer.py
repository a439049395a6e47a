"""In-memory span tracer installed around the layers of ``specdde``.

Each wrapped function records a span (name, start, end, parent, request) and,
where the layer does countable work, counts on the same span.  Wrappers are
installed at module attributes, including names that one module re-imports
from another, and around the ``numpy.linalg`` entry points the layers call.
Nothing under ``src/`` is edited; ``uninstall`` restores every attribute.
"""

from __future__ import annotations

import importlib
import inspect
import time
from dataclasses import dataclass, field

import numpy as np

#: modules whose public functions are wrapped; a module's name is its layer's
LAYERS = ("config", "symbols", "resolvent", "solver", "besov", "oracle", "cli")

#: public methods wrapped as well (module-level functions are found by name)
METHODS = {
    "symbols": {
        "DelayFunctional": ("symbol_window", "symbol"),
        "DistributedDelay": ("evaluate",),
        "PeriodicGridFunction": ("from_coefficients",),
    },
}

#: span names that differ from <layer>.<function>
RENAMES = {"symbols.from_coefficients": "symbols.synthesis"}

LINALG = ("svd", "cond", "inv", "solve")


def _stack_size(a) -> int:
    shape = np.shape(a)
    return int(np.prod(shape[:-2])) if len(shape) > 2 else 1


def _symbol_counts(tracer, args, kwargs):
    modes = set(np.atleast_1d(args[1]).tolist())
    seen = tracer.seen.setdefault(id(args[0]), set())
    fresh = modes - seen
    seen |= fresh
    return {"evaluated": int(np.size(args[1])), "distinct": len(fresh)}


#: span name -> function(tracer, args, kwargs) giving the counts of one call
COUNTERS = {
    "symbols.symbol_window": _symbol_counts,
    "symbols.symbol": _symbol_counts,
    "symbols.evaluate": lambda t, a, kw: {"nodes": int(np.size(a[1]))},
    "symbols.synthesis": lambda t, a, kw: {
        "points": int(a[2] if len(a) > 2 else kw["n_samples"])},
    "linalg.svd": lambda t, a, kw: {"matrices": _stack_size(a[0])},
    "linalg.cond": lambda t, a, kw: {"matrices": _stack_size(a[0])},
    "linalg.solve": lambda t, a, kw: {"bytes": int(np.asarray(a[0]).nbytes)},
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    request: int
    counts: dict = field(default_factory=dict)


class Tracer:
    """Collects spans while ``enabled``; the caller starts each request."""

    def __init__(self):
        self.spans: list = []
        self.enabled = False
        self.seen: dict = {}   # id(functional) -> modes evaluated this request
        self._stack: list = []
        self._request = -1
        self._restore: list = []

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                        self._request)
            if counter is not None:
                span.counts = counter(self, args, kwargs)
            index = len(self.spans)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()

        traced.__wrapped__ = fn
        return traced

    def request(self):
        """Start a new request: later spans carry its number."""
        self._request += 1
        self.seen = {}
        return self._request

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every layer; a name missing from the program is skipped."""
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"specdde.{layer}")
            except ImportError:
                continue
        replaced = {}
        for layer, module in modules.items():
            for attr, value in list(vars(module).items()):
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    name = RENAMES.get(f"{layer}.{attr}", f"{layer}.{attr}")
                    replaced[value] = self.wrap(name, value)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name, None)
                for method in methods:
                    raw = vars(cls).get(method) if cls is not None else None
                    if raw is None:
                        continue
                    name = RENAMES.get(f"{layer}.{method}", f"{layer}.{method}")
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self.wrap(name, raw.__func__))
                    else:
                        wrapped = self.wrap(name, raw)
                    self._set(cls, method, wrapped)
        # re-imports: every module attribute bound to a wrapped function
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in replaced:
                    self._set(module, attr, replaced[value])
        for attr in LINALG:
            self._set(np.linalg, attr, self.wrap(f"linalg.{attr}", getattr(np.linalg, attr)))

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list:
        """Duration of each span minus the union of its children's intervals."""
        children = [[] for _ in self.spans]
        for span in self.spans:
            if span.parent >= 0:
                children[span.parent].append((span.start, span.end))
        out = []
        for span, kids in zip(self.spans, children):
            covered, reach = 0.0, span.start
            for start, end in sorted(kids):
                start, end = max(start, reach), min(end, span.end)
                if end > start:
                    covered += end - start
                    reach = end
            out.append(span.end - span.start - covered)
        return out

    def layer_of(self, index: int) -> str:
        """Layer a span's self time belongs to; numpy.linalg spans count
        toward the nearest enclosing layer span."""
        while self.spans[index].name.startswith("linalg.") and self.spans[index].parent >= 0:
            index = self.spans[index].parent
        return self.spans[index].name.split(".")[0]
