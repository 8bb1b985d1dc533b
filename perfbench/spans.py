"""Per-layer tracing of ``ftop`` from outside the package, as spans.

The layers are the modules of ``src/ftop``.  :func:`install` wraps every
public callable of each module (the functions in its ``__all__`` and the
non-dunder methods of the classes it exports) and replaces each
reference to the original: in every ``ftop.*`` module namespace, in
module-level dicts such as the oracle's class table, and on the classes.

Each wrapped call is a span.  Spans nest on one stack, and a span's self
time is its duration minus the durations of the spans it contains.  The
spans are aggregated in memory per function (calls, self time) as they
close, because a traced run makes millions of them; :func:`layer_metrics`
turns the aggregates and a few work counters into the per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import sys
import types
from time import perf_counter

LAYERS = ("degrees", "fset", "plin", "topology", "semiclass", "functions", "oracle", "documents", "cli")

# Function groups reported on their own, by (module, qualified name).
LEQ = {("fset", "FiniteFuzzySet.leq")}
LATTICE = {
    ("fset", name)
    for name in (
        "FiniteFuzzySet.meet", "FiniteFuzzySet.join", "FiniteFuzzySet.meet_many",
        "FiniteFuzzySet.join_many", "FiniteFuzzySet.complement", "join_family", "inf_family",
    )
}
OPERATOR = {("topology", "FuzzyTopology.interior"), ("topology", "FuzzyTopology.closure")}
BUILD = {("topology", "generate"), ("topology", "validate"), ("topology", "check_axioms")}
PL_BINARY = {"PLFuzzySet.meet", "PLFuzzySet.join", "PLFuzzySet.leq"}


class Tracer:
    """Span stack, per-function aggregates and work counters."""

    def __init__(self) -> None:
        self.stack: list[float] = []  # child time accumulated by each open span
        self.stats: dict[tuple[str, str], list] = {}  # key -> [calls, self_s]
        self.reset()

    def reset(self) -> None:
        for stat in self.stats.values():
            stat[0], stat[1] = 0, 0.0
        self.counters = {
            "oracle.grid_sets": 0,
            "plin.points_in": 0,
            "plin.points_out_max": 0,
            "topology.members_built": 0,
            "documents.bytes_in": 0,
            "operator.repeats": 0,
        }
        # Arguments already queried, per live space; keyed by id() with
        # the space kept alive so that an id is never reused meanwhile.
        self.queried: dict[int, tuple[object, set]] = {}

    def wrap(self, fn, key, after=None):
        """A span around ``fn``; ``after(args, result)`` updates counters."""
        stat = self.stats.setdefault(key, [0, 0.0])
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stat[0] += 1
                stat[1] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def wrap_generator(self, fn, key, on_item):
        """Each resumption of the generator is a span of its own."""
        stat = self.stats.setdefault(key, [0, 0.0])
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                stack.append(0.0)
                start = perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    elapsed = perf_counter() - start
                    stat[0] += 1
                    stat[1] += elapsed - stack.pop()
                    if stack:
                        stack[-1] += elapsed
                if on_item is not None:
                    on_item()
                yield item

        return wrapper

    # --- work counters -----------------------------------------------------

    def _grid_set(self) -> None:
        self.counters["oracle.grid_sets"] += 1

    def _built(self, args, space) -> None:
        self.counters["topology.members_built"] += len(space.members)

    def _document(self, args, result) -> None:
        self.counters["documents.bytes_in"] += len(args[0].encode("utf-8"))

    def _pl_binary(self, args, result) -> None:
        self.counters["plin.points_in"] += len(args[0].breakpoints) + len(args[1].breakpoints)
        if not isinstance(result, bool):
            self._pl_out(args, result)

    def _pl_out(self, args, result) -> None:
        count = len(result.breakpoints)
        if count > self.counters["plin.points_out_max"]:
            self.counters["plin.points_out_max"] = count

    def _operator(self, op: str):
        def after(args, result) -> None:
            space, s = args
            entry = self.queried.get(id(space))
            if entry is None or entry[0] is not space:
                entry = self.queried[id(space)] = (space, set())
            seen = entry[1]
            if (op, s) in seen:
                self.counters["operator.repeats"] += 1
            else:
                seen.add((op, s))

        return after

    def release_spaces(self) -> None:
        """Forget queried arguments once a case has finished."""
        self.queried.clear()


def _public_callables(module):
    """(layer, qualified name, owner class or None, attribute name, raw attribute)."""
    short = module.__name__.rsplit(".", 1)[1]
    for name in getattr(module, "__all__", ()):
        obj = getattr(module, name)
        if isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__:
            yield short, name, None, name, obj
        elif isinstance(obj, type) and obj.__module__ == module.__name__:
            for attr, raw in vars(obj).items():
                if attr.startswith("__") and attr.endswith("__"):
                    continue
                if isinstance(raw, (types.FunctionType, classmethod, staticmethod)):
                    yield short, f"{obj.__name__}.{attr}", obj, attr, raw


def install(tracer: Tracer) -> None:
    """Wrap every public callable of every layer and patch all references."""
    modules = [sys.modules[f"ftop.{layer}"] for layer in LAYERS]
    replaced: dict[int, object] = {}
    for module in modules:
        for short, qualname, owner, attr, raw in list(_public_callables(module)):
            key = (short, qualname)
            fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
            after = None
            if key in BUILD and qualname != "check_axioms":
                after = tracer._built
            elif short == "documents" and qualname in ("parse_space", "parse_function"):
                after = tracer._document
            elif key in OPERATOR:
                after = tracer._operator(attr)
            elif short == "plin" and qualname in PL_BINARY:
                after = tracer._pl_binary
            elif short == "plin" and qualname == "PLFuzzySet.complement":
                after = tracer._pl_out
            if inspect.isgeneratorfunction(fn):
                on_item = tracer._grid_set if qualname == "enumerate_grid_sets" else None
                wrapped = tracer.wrap_generator(fn, key, on_item)
            else:
                wrapped = tracer.wrap(fn, key, after)
            if owner is None:
                replaced[id(fn)] = wrapped
            else:
                setattr(owner, attr, type(raw)(wrapped) if fn is not raw else wrapped)
    for module in [m for name, m in sys.modules.items() if name == "ftop" or name.startswith("ftop.")]:
        for name, value in list(vars(module).items()):
            if id(value) in replaced:
                setattr(module, name, replaced[id(value)])
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if id(item) in replaced:
                        value[key] = replaced[id(item)]


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as ``{name: (value, unit)}``."""

    def total(keys):
        calls = sum(tracer.stats[k][0] for k in keys if k in tracer.stats)
        self_s = sum(tracer.stats[k][1] for k in keys if k in tracer.stats)
        return calls, self_s

    metrics: dict[str, tuple[float, str]] = {}
    for layer in ("degrees", "fset", "plin", "semiclass", "functions", "documents", "cli"):
        calls, self_s = total([k for k in tracer.stats if k[0] == layer])
        metrics[f"{layer}.calls"] = (calls, "count")
        metrics[f"{layer}.self_s"] = (self_s, "s")
    metrics["fset.leq.calls"] = (total(LEQ)[0], "count")
    metrics["fset.lattice.calls"] = (total(LATTICE)[0], "count")
    counters = tracer.counters
    metrics["plin.points_in"] = (counters["plin.points_in"], "count")
    metrics["plin.points_out_max"] = (counters["plin.points_out_max"], "count")
    calls, self_s = total(OPERATOR)
    metrics["topology.operator.calls"] = (calls, "count")
    metrics["topology.operator.self_s"] = (self_s, "s")
    metrics["topology.operator.repeat_ratio"] = (counters["operator.repeats"] / calls if calls else 0.0, "1")
    calls, self_s = total(BUILD)
    metrics["topology.build.calls"] = (calls, "count")
    metrics["topology.build.self_s"] = (self_s, "s")
    metrics["topology.members_built"] = (counters["topology.members_built"], "count")
    metrics["oracle.grid_sets"] = (counters["oracle.grid_sets"], "count")
    metrics["oracle.self_s"] = (total([k for k in tracer.stats if k[0] == "oracle"])[1], "s")
    metrics["documents.bytes_in"] = (counters["documents.bytes_in"], "B")
    return metrics
