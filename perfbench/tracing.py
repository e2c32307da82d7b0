"""Spans and counters around calls into the library's public functions.

The library is not edited: `install` replaces each target function with a
wrapper in every `zerosum` module that holds a reference to it (modules such
as `search` and `constructions` import `find_short_zero_sum` and
`close_symmetries` by name), and methods are replaced on their class.  A
wrapper records a span (name, start, end, parent span, op id) only while the
tracer is active, that is, inside the timed call of an op, so answer checks
do not count.  Functions called millions of times are only counted.
`combine` merges the metrics of several traced passes of one run.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
from collections import Counter
from time import perf_counter

from workloads import search_nodes

# (metric prefix, module, attribute path, kind)
#   span:  calls, inclusive seconds, self seconds
#   count: calls only
#   gen:   a generator; each next() is a span, items are counted
SEARCH_OPS = ("max_extremal_length", "compute_c0_at", "enumerate_short_free", "check_property_D0")
TARGETS = (
    *[(f"search.{f}", "zerosum.search", f, "span") for f in SEARCH_OPS],
    ("group.symmetries", "zerosum.group", "symmetries", "count"),
    ("group.close_symmetries", "zerosum.group", "close_symmetries", "span"),
    ("group.AbelianGroup.index_of", "zerosum.group", "AbelianGroup.index_of", "count"),
    ("group.AbelianGroup.coords_of", "zerosum.group", "AbelianGroup.coords_of", "count"),
    ("subsum.ReachTable", "zerosum.subsum", "ReachTable.__init__", "span"),
    ("subsum.find_short_zero_sum", "zerosum.subsum", "find_short_zero_sum", "span"),
    ("subsum.find_zero_sum_exact_length", "zerosum.subsum", "find_zero_sum_exact_length", "span"),
    ("subsum.find_nonempty_zero_sum", "zerosum.subsum", "find_nonempty_zero_sum", "span"),
    ("constructions.verify_family", "zerosum.constructions", "verify_family", "span"),
    ("constructions.known_witnesses", "zerosum.constructions", "known_witnesses", "gen"),
    ("constructions.build_family", "zerosum.constructions", "build_family", "count"),
    ("catalog.instantiate_for", "zerosum.catalog", "instantiate_for", "span"),
    ("catalog.infer", "zerosum.catalog", "infer", "span"),
    ("catalog.consistency_check", "zerosum.catalog", "consistency_check", "span"),
    ("catalog.FactStore.load", "zerosum.catalog", "FactStore.load", "span"),
    ("catalog.FactStore.save", "zerosum.catalog", "FactStore.save", "span"),
    ("cli.main", "zerosum.cli", "main", "span"),
    ("search.Certificate.to_json", "zerosum.search", "Certificate.to_json", "span"),
    ("search.Certificate.from_json", "zerosum.search", "Certificate.from_json", "span"),
)

# The per-layer metrics a traced run reports, in order, with their units.
LAYER_METRICS = (
    *[(f"search.{f}.{stat}", unit) for f in SEARCH_OPS
      for stat, unit in (("calls", "count"), ("s", "s"), ("self_s", "s"))],
    ("search.nodes", "count"),
    ("search.nodes_per_s", "1/s"),
    ("group.symmetries.calls", "count"),
    ("group.close_symmetries.calls", "count"),
    ("group.close_symmetries.s", "s"),
    ("group.close_symmetries.perms", "count"),
    ("group.AbelianGroup.index_of.calls", "count"),
    ("group.AbelianGroup.coords_of.calls", "count"),
    *[(f"subsum.{f}.{stat}", unit)
      for f in ("ReachTable", "find_short_zero_sum", "find_zero_sum_exact_length", "find_nonempty_zero_sum")
      for stat, unit in (("calls", "count"), ("s", "s"))],
    ("constructions.verify_family.calls", "count"),
    ("constructions.verify_family.s", "s"),
    ("constructions.known_witnesses.s", "s"),
    ("constructions.known_witnesses.yielded", "count"),
    ("constructions.build_family.calls", "count"),
    ("catalog.instantiate_for.calls", "count"),
    ("catalog.instantiate_for.s", "s"),
    ("catalog.infer.s", "s"),
    ("catalog.infer.derived", "count"),
    ("catalog.consistency_check.s", "s"),
    ("catalog.FactStore.load.s", "s"),
    ("catalog.FactStore.save.s", "s"),
    ("cli.main.cold.s", "s"),
    ("cli.main.warm.s", "s"),
    ("search.Certificate.to_json.s", "s"),
    ("search.Certificate.from_json.s", "s"),
    ("trace.overhead_s", "s"),
)


_DONE = object()


class Tracer:
    """In-memory spans and counters for one pass."""

    def __init__(self) -> None:
        self.active = False
        self.op_id = -1
        self.spans: list = []  # (name, start, end, parent index, op id)
        self.stack: list[int] = []
        self.calls: Counter = Counter()
        self.extra: Counter = Counter()  # perms, derived, yielded, search nodes
        self.search_depth = 0
        self.cli_seen: set = set()

    # -- wrappers ---------------------------------------------------------------

    def _open(self) -> int:
        sid = len(self.spans)
        self.spans.append(None)
        self.stack.append(sid)
        return sid

    def _close(self, sid: int, name: str, start: float) -> None:
        end = perf_counter()
        self.stack.pop()
        parent = self.stack[-1] if self.stack else -1
        self.spans[sid] = (name, start, end, parent, self.op_id)

    def span_wrapper(self, name: str, fn):
        tracer = self
        is_search = name.startswith("search.") and name.split(".")[1] in SEARCH_OPS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span_name = name
            if name == "cli.main":
                # the same argv a second time in one cache directory is the warm run
                key = tuple(args[0] if args else kwargs.get("argv") or ())
                span_name = "cli.main.warm" if key in tracer.cli_seen else "cli.main.cold"
                tracer.cli_seen.add(key)
            tracer.calls[span_name] += 1
            outermost_search = is_search and tracer.search_depth == 0
            tracer.search_depth += is_search
            sid = tracer._open()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid, span_name, start)
                tracer.search_depth -= is_search
            if name == "group.close_symmetries":
                tracer.extra["group.close_symmetries.perms"] += len(result)
            elif name == "catalog.infer":
                tracer.extra["catalog.infer.derived"] += len(result)
            elif outermost_search:  # each search counted once
                tracer.extra["search.nodes"] += search_nodes(result)
            return result

        return wrapper

    def count_wrapper(self, name: str, fn):
        tracer = self
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def gen_wrapper(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.calls[name] += 1
            return tracer._timed_iter(name, fn(*args, **kwargs))

        return wrapper

    def _timed_iter(self, name: str, inner):
        """Re-yield `inner`, with one span per next() so laziness is kept."""
        try:
            while True:
                if self.active:
                    sid = self._open()
                    start = perf_counter()
                    try:
                        item = next(inner, _DONE)
                    finally:
                        self._close(sid, name, start)
                else:
                    item = next(inner, _DONE)
                if item is _DONE:
                    return
                if self.active:
                    self.extra[f"{name}.yielded"] += 1
                yield item
        finally:
            inner.close()

    # -- metrics ----------------------------------------------------------------

    def metrics(self, scale: dict) -> dict:
        """Per-layer metrics: calls, inclusive seconds (outermost spans of a name)
        and self seconds (duration minus the direct children's durations).

        The duration of a span in op i is multiplied by scale[i], the op's
        factor that normalizes wall time to the calibration speed.
        """
        duration = [(end - start) * scale[op] for _, start, end, _, op in self.spans]
        child_time = [0.0] * len(self.spans)
        for sid, (_, _, _, parent, _) in enumerate(self.spans):
            if parent >= 0:
                child_time[parent] += duration[sid]
        inclusive: Counter = Counter()
        self_s: Counter = Counter()
        for sid, (name, _, _, parent, _) in enumerate(self.spans):
            self_s[name] += duration[sid] - child_time[sid]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                inclusive[name] += duration[sid]
        out = {}
        for metric, _unit in LAYER_METRICS:
            base, stat = metric.rsplit(".", 1)
            if stat == "calls":
                out[metric] = self.calls[base]
            elif stat == "s":
                out[metric] = inclusive[base]
            elif stat == "self_s":
                out[metric] = self_s[base]
        for key in ("search.nodes", "group.close_symmetries.perms", "catalog.infer.derived",
                    "constructions.known_witnesses.yielded"):
            out[key] = self.extra[key]
        out["search.nodes_per_s"] = _nodes_per_s(out)
        return out


def _nodes_per_s(layers: dict) -> float:
    search_s = sum(layers[f"search.{f}.s"] for f in SEARCH_OPS)
    return layers["search.nodes"] / search_s if search_s else 0.0


def combine(passes: list) -> tuple[dict, bool]:
    """Merge the layer metrics of several traced passes of one run.

    A time is the median over the passes, the statistic `wall_s` takes per
    op; a count is the first pass's, and the flag says whether every pass
    gave the same counts.  search.nodes_per_s is recomputed from the merged
    nodes and seconds.
    """
    units = dict(LAYER_METRICS)
    out, counts_agree = {}, True
    for name in passes[0]:
        values = [p[name] for p in passes]
        if units.get(name) == "s":
            out[name] = statistics.median(values)
        else:
            out[name] = values[0]
            counts_agree &= units.get(name) != "count" or len(set(values)) == 1
    out["search.nodes_per_s"] = _nodes_per_s(out)
    return out, counts_agree


def _resolve(owner, path: str):
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def install(tracer: Tracer) -> None:
    """Wrap every target, replacing each reference that zerosum modules hold."""
    for _, module_name, _, _ in TARGETS:
        importlib.import_module(module_name)
    for name, module_name, path, kind in TARGETS:
        module = sys.modules[module_name]
        owner, attr = _resolve(module, path)
        raw = owner.__dict__[attr]
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        make = {"span": tracer.span_wrapper, "count": tracer.count_wrapper, "gen": tracer.gen_wrapper}[kind]
        wrapped = make(name, fn)
        if owner is not module:  # a method: replacing it on the class covers every caller
            setattr(owner, attr, classmethod(wrapped) if is_classmethod else wrapped)
            continue
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "zerosum" or mod_name.startswith("zerosum."):
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)
