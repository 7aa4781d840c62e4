"""Outside-in per-layer wall-time spans for the traced benchmark run.

Nothing under ``src/`` knows about these spans: :func:`install` wraps
the public functions and methods of every ``repro`` module that maps to
a layer, from the outside, after the workload has imported what it
needs.  Each wrapper opens a span when control crosses *into* its layer
and passes straight through when the caller is already in that layer,
so a span is the outermost call of one visit to a layer.  A visit that
leaves and re-enters a layer (posix -> trace -> posix) opens a new,
nested span.

Self time of a span is its duration minus the durations of its child
spans; a layer's ``self_s`` sums that over its spans, and ``calls``
counts the spans.  Time spent outside every span (the harness itself)
is ``elapsed - sum(self_s)``, reported as ``unattributed_s``.  Spans
are folded into these sums as they close, so memory stays O(layers).
"""

from __future__ import annotations

import enum
import functools
import inspect
import sys
import time
from collections import defaultdict

#: module-name prefix -> layer; the longest matching prefix wins, and a
#: module matching none is left unwrapped (its time is self time of the
#: calling layer)
LAYER_OF_MODULE = {
    "repro.workloads": "workloads",
    "repro.experiments": "workloads",
    "repro.experiments.sweep": "sweep",
    "repro.mpi": "mpi",
    "repro.fs": "fs.vfs",
    "repro.fs.posix": "fs.posix",
    "repro.fs.stdio": "fs.posix",
    "repro.fs.perfmodel": "fs.perfmodel",
    "repro.util.scatter": "util.scatter",
    "repro.adios2": "adios2.engine",
    "repro.adios2.aggregation": "adios2.aggregation",
    "repro.openpmd": "openpmd",
    "repro.io_adaptor": "io_adaptor",
    "repro.compression": "compression",
    "repro.darshan": "darshan",
    "repro.trace": "trace",
    "repro.faults": "faults",
    "repro.mem": "mem",
    "repro.resilience": "resilience",
    "repro.serving": "serving",
    "repro.pic": "pic",
    "repro.tuning": "tuning",
}

#: every layer the traced run reports, in report order
LAYERS = tuple(dict.fromkeys(LAYER_OF_MODULE.values()))

#: dunder methods that are layer entry points (constructors and
#: call/index protocols); every other dunder is left alone
_DUNDERS = frozenset({"__init__", "__call__", "__getitem__"})

#: modules whose references to a wrapped module function are rebound
_REBIND_PREFIXES = ("repro", "bench")


def layer_of(module: str) -> str | None:
    """The layer a module belongs to (longest prefix), or None."""
    best = None
    for prefix, layer in LAYER_OF_MODULE.items():
        if (module == prefix or module.startswith(prefix + ".")) and \
                (best is None or len(prefix) > len(best[0])):
            best = (prefix, layer)
    return best[1] if best else None


class Tracer:
    """Span stack plus per-layer sums; one per traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        #: open spans, innermost last: [layer, start, child seconds]
        self._stack: list[list] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        #: (parent layer or "-", layer) -> summed span seconds
        self.edges: dict[tuple[str, str], float] = defaultdict(float)

    def wrap(self, fn, layer: str):
        """``fn`` recording a span in ``layer`` around each outermost call."""
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - frame[1]
                stack.pop()
                self.calls[layer] += 1
                self.self_s[layer] += dur - frame[2]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += dur
                self.edges[(parent[0] if parent else "-", layer)] += dur

        span.__bench_layer__ = layer
        return span

    def snapshot(self) -> dict:
        """Per-layer calls/self seconds and parent->child edge seconds."""
        return {
            "calls": {k: self.calls.get(k, 0) for k in LAYERS},
            "self_s": {k: self.self_s.get(k, 0.0) for k in LAYERS},
            "edges": {f"{p}>{c}": s for (p, c), s in sorted(self.edges.items())},
        }


def _wrap_member(tracer: Tracer, value, layer: str, memo: dict):
    """Wrapped version of a class-dict entry, or None to leave it."""
    if isinstance(value, (staticmethod, classmethod)):
        inner = _wrap_member(tracer, value.__func__, layer, memo)
        return None if inner is None else type(value)(inner)
    if not inspect.isfunction(value) or hasattr(value, "__bench_layer__"):
        return None
    if id(value) not in memo:
        memo[id(value)] = (value, tracer.wrap(value, layer))
    return memo[id(value)][1]


def install(tracer: Tracer, modules: dict | None = None) -> int:
    """Wrap every layer's public callables; returns how many were wrapped.

    Module functions are wrapped where they are defined and then rebound
    in every ``repro.*`` / ``bench.*`` module that imported them by name;
    methods are patched on their class, which every importer shares.
    References held elsewhere (default arguments, registries, closures)
    keep the unwrapped function, so their time stays with the caller.
    Call after the workload's imports: modules imported later are not
    wrapped.  ``modules`` defaults to ``sys.modules``.
    """
    modules = sys.modules if modules is None else modules
    memo: dict[int, tuple] = {}
    functions: dict[int, tuple] = {}
    for mod_name, module in list(modules.items()):
        layer = layer_of(mod_name) if module is not None else None
        if layer is None:
            continue
        for name, obj in list(vars(module).items()):
            if getattr(obj, "__module__", None) != mod_name:
                continue
            if inspect.isfunction(obj) and not name.startswith("_"):
                wrapped = _wrap_member(tracer, obj, layer, memo)
                if wrapped is not None:
                    functions[id(obj)] = (obj, wrapped)
            elif inspect.isclass(obj) and not issubclass(
                    obj, (BaseException, enum.Enum)):
                for attr, value in list(vars(obj).items()):
                    if attr.startswith("_") and attr not in _DUNDERS:
                        continue
                    wrapped = _wrap_member(tracer, value, layer, memo)
                    if wrapped is not None:
                        setattr(obj, attr, wrapped)
    for mod_name, module in list(modules.items()):
        if module is None or not mod_name.startswith(_REBIND_PREFIXES):
            continue
        for name, obj in list(vars(module).items()):
            hit = functions.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, name, hit[1])
    return len(memo)
