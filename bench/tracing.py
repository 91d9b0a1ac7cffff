"""Outside-in tracing of the affinekit layers.

The library carries no instrumentation of its own, so the benchmark wraps
the public functions of each module from here, by rebinding attributes:
the defining module's global, every other affinekit module's global that
names the same function (re-exports and ``from .x import y`` bindings),
and class attributes for methods. Calls between modules and calls inside
one module then both pass through the wrappers.

Spans are kept in memory as flat arrays (name, parent, start, end) and
written out once, when the run ends. Self time is a span's duration minus
the durations of its direct children; the program is single-threaded, so
children of one span never overlap and lie inside their parent.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

# layer -> functions and methods that get a span
SPANS = {
    "core": ("all_congruences", "generate_congruence", "is_homomorphism",
             "quotient_algebra"),
    "free": ("free_algebra", "ground_space", "substitute",
             "FreeAlgebra.as_algebra"),
    "galois": ("c_operator", "v_of_partition", "zariski_closure",
               "radical_of_partition", "gelfand_evaluation",
               "nullstellensatz_check", "zariski_report"),
    "adjunction": ("verify_adjunction", "hom_set_rq", "hom_set_dq",
                   "representability_check"),
    "instances": ("stone_demo", "classify_fixed"),
    "cli": ("main",),
}
# methods that are only counted: their time stays in the caller's self time
COUNTED = {"core": ("Partition.join", "Partition.meet")}

# counters filled by the hooks at the end of this file
COUNTERS = ("core.congruences", "free.elements", "adjunction.witness_tuples",
            "adjunction.arrows", "galois.closed_sets")

# the free algebras set-up builds; their time is set-up, not a verdict
BUILDERS = {"free": ("free_algebra", "ground_space", "FreeAlgebra.as_algebra")}


def _modules(package):
    return {layer: importlib.import_module(f"{package.__name__}.{layer}")
            for layer in SPANS}


def _rebind(package, layer_module, qualname, make):
    """Replace one function or method everywhere affinekit binds it."""
    owner = layer_module
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    orig = getattr(owner, attr)
    wrapped = functools.wraps(orig)(make(orig))
    setattr(owner, attr, wrapped)
    if not path:
        mods = [package, *_modules(package).values()]
        for mod in mods:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)


class Stopwatch:
    """Inclusive time spent inside a set of functions, outermost calls only."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.total = 0.0
        self._depth = 0

    def install(self, package):
        mods = _modules(package)
        for layer, names in BUILDERS.items():
            for name in names:
                _rebind(package, mods[layer], name, self._wrap)

    def _wrap(self, fn):
        def timed(*args, **kwargs):
            if self._depth:
                return fn(*args, **kwargs)
            self._depth += 1
            t0 = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.total += self.clock() - t0
                self._depth -= 1
        return timed


class Tracer:
    """Span recorder with per-layer work counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._name_id = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._seen_free = {}

    # -- recording ---------------------------------------------------------

    def name_id(self, name):
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def enter(self, nid):
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_start.append(self.clock())
        self.span_end.append(0.0)
        self._stack.append(idx)
        return idx

    def leave(self, idx):
        self.span_end[idx] = self.clock()
        self._stack.pop()

    def count(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n

    # -- installation ------------------------------------------------------

    def install(self, package):
        mods = _modules(package)
        for layer, names in SPANS.items():
            for name in names:
                metric = f"{layer}.{name}"
                hook = _HOOKS.get(metric)
                _rebind(package, mods[layer], name,
                        lambda fn, m=metric, h=hook: self._span(fn, m, h))
        for layer, names in COUNTED.items():
            for name in names:
                metric = f"{layer}.{name}.calls"
                _rebind(package, mods[layer], name,
                        lambda fn, m=metric: self._counter(fn, m))

    def _span(self, fn, metric, hook):
        nid = self.name_id(metric)

        def traced(*args, **kwargs):
            idx = self.enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.leave(idx)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result
        return traced

    def _counter(self, fn, metric):
        counts = self.counts
        counts.setdefault(metric, 0)

        def counted(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)
        return counted

    # -- results -----------------------------------------------------------

    def summary(self):
        """Per span name: calls and self seconds; plus the counters."""
        calls, self_s = self_times(
            self.names, self.span_name, self.span_parent, self.span_start,
            self.span_end)
        return {"calls": calls, "self_s": self_s, "counts": dict(self.counts)}

    def dump(self, path):
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )


def self_times(names, name, parent, start, end):
    """Calls and self time per span name. ``parent`` holds the index of each
    span's parent, or -1 at the top."""
    n = len(start)
    child = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    calls = {nm: 0 for nm in names}
    self_s = {nm: 0.0 for nm in names}
    for i in range(n):
        nm = names[name[i]]
        calls[nm] += 1
        self_s[nm] += end[i] - start[i] - child[i]
    return calls, self_s


# -- counters computed from arguments and results ---------------------------

def _count_congruences(tr, args, kwargs, result):
    tr.count("core.congruences", len(result))


def _count_free_elements(tr, args, kwargs, result):
    # free_algebra is memoised; count each algebra once, when first built
    if id(result) not in tr._seen_free:
        tr._seen_free[id(result)] = result
        tr.count("free.elements", result.size)


def _count_hom_set(tr, args, kwargs, result):
    # both hom-set functions enumerate |F(n)|^m witness tuples, with F(n)
    # the source's free algebra and m the target's arity
    src, dst = args[0], args[1]
    tr.count("adjunction.witness_tuples", src.space.free.size ** dst.space.arity)
    tr.count("adjunction.arrows", len(result))


def _count_closed_sets(tr, args, kwargs, result):
    tr.count("galois.closed_sets", len(result.closed_sets))


_HOOKS = {
    "core.all_congruences": _count_congruences,
    "free.free_algebra": _count_free_elements,
    "adjunction.hom_set_rq": _count_hom_set,
    "adjunction.hom_set_dq": _count_hom_set,
    "galois.zariski_report": _count_closed_sets,
}
