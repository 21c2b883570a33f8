"""Spans and counters wrapped around approvalwd's public functions.

Nothing under src/ changes: ``instrument`` rebinds each traced function
wherever it is referenced (module namespaces, ``cli.ALGOS`` and the classes
that own traced methods) and puts the originals back on exit.

Each wrapped call opens a frame.  On return its duration is added to the
parent frame's child time, and its self time (duration minus the time of the
wrapped calls inside it) is added to its layer metric.  Spans are kept in
memory for the calls marked as spans; hot calls only count.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter

# (module, attribute or Class.method, metric, record a span)
TARGETS = (
    ("core", "parse_instance", "core.parse", True),
    ("core", "compute_params", "core.params", True),
    ("core", "score", "core.score", False),
    ("core", "Election.approvers", "core.approvers", False),
    ("graphs", "max_matching", "graphs.matching", True),
    ("graphs", "tree_decomposition", "graphs.decomp", True),
    ("graphs", "to_nice", "graphs.nice", True),
    ("graphs", "NiceTreeDecomposition.validate", "graphs.nice", True),
    ("graphs", "simple_b_edge_cover_exact", "graphs.bcover", True),
    ("graphs", "multigraph_rep", "graphs.multigraph", True),
    ("graphs", "multigraph_components", "graphs.multigraph", True),
    ("poly", "mav_deg2", "poly.mav_deg2", True),
    ("poly", "ccav_deg2", "poly.ccav_deg2", True),
    ("poly", "pav_deg22", "poly.pav_deg22", True),
    ("poly", "pav_deg1", "poly.other", True),
    ("poly", "av_optimal", "poly.other", True),
    ("fpt", "mav_by_classes", "fpt.classes", True),
    ("fpt", "mav_k_deltac", "fpt.classes", True),
    ("fpt", "pav_annotated", "fpt.classes", True),
    ("fpt", "ccav_bb_dual", "fpt.bb", True),
    ("fpt", "pav_bb_dv", "fpt.bb", True),
    ("fpt", "mav_dual_grsp", "fpt.grsp", True),
    ("fpt", "mav_by_matching", "fpt.matching_route", True),
    ("fpt", "pav_by_matching", "fpt.matching_route", True),
    ("twdp", "pav_tw_dp", "twdp.pav", True),
    ("twdp", "ccav_tw_dp", "twdp.ccav", True),
    ("twdp", "mav_tw_dp", "twdp.mav", True),
    ("oracle", "brute_force", "oracle.brute", True),
    ("portfolio", "dispatch", "portfolio.dispatch", True),
)

# metrics whose calls are routes that dispatch may try
ROUTE_LAYERS = ("poly.", "fpt.", "twdp.", "oracle.")

# stats keys the program returns, summed (or maxed) into layer counters
STAT_COUNTERS = {
    "fpt.": (("nodes", "fpt.nodes", "sum"), ("subinstances", "fpt.subinstances", "sum")),
    "twdp.": (("nodes", "twdp.nodes", "sum"), ("max_entries", "twdp.entries_max", "max"),
              ("width", "twdp.width_max", "max")),
    "oracle.": (("committees", "oracle.committees", "sum"),),
}


class Tracer:
    """Self times, call counts and spans of the wrapped calls."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.self_s = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self.spans = []
        self.case = None
        self._stack = []
        self._next_id = 0
        self._seen_stats = []

    def begin_case(self, name):
        self.case = name
        self._seen_stats = []
        self._stack.clear()  # a RecursionError can unwind past a frame's pop

    def call(self, metric, record, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        span_id = self._next_id
        self._next_id += 1
        frame = [metric, 0.0, span_id]
        self._stack.append(frame)
        start = self.clock()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = self.clock()
            self._stack.pop()
            duration = end - start
            if parent is not None:
                parent[1] += duration
            self.self_s[metric] += duration - frame[1]
            self.calls[metric] += 1
            if record:
                self.spans.append({
                    "id": span_id, "parent": parent[2] if parent else None,
                    "case": self.case, "name": metric, "start": start, "end": end,
                })
            self._route_counts(metric, parent, result)

    def _route_counts(self, metric, parent, result):
        if parent is not None and parent[0] == "portfolio.dispatch" and metric.startswith(ROUTE_LAYERS):
            self.counts["portfolio.routes_tried"] += 1
            self.counts["portfolio.routes_answered"] += result is not None
            if metric == "oracle.brute":
                self.counts["portfolio.brute_fallbacks"] += 1
        stats = getattr(result, "stats", None)
        if not isinstance(stats, dict) or any(stats is s for s in self._seen_stats):
            return
        self._seen_stats.append(stats)  # one dict can come back through two wrappers
        for prefix, keys in STAT_COUNTERS.items():
            if not metric.startswith(prefix):
                continue
            for key, name, how in keys:
                value = stats.get(key, 0)
                if how == "sum":
                    self.counts[name] += value
                else:
                    self.counts[name] = max(self.counts[name], value)


def _wrap(tracer, metric, record, fn):
    def wrapper(*args, **kwargs):
        return tracer.call(metric, record, fn, args, kwargs)
    wrapper.__name__ = getattr(fn, "__name__", metric)
    wrapper.__doc__ = fn.__doc__
    wrapper.__wrapped__ = fn
    return wrapper


@contextlib.contextmanager
def instrument(tracer, package):
    """Rebind every target in ``package``'s modules to a traced wrapper."""
    modules = [getattr(package, name) for name in
               ("core", "graphs", "oracle", "poly", "fpt", "twdp", "reductions",
                "portfolio", "cli")]
    undo = []
    try:
        for module_name, attr, metric, record in TARGETS:
            module = getattr(package, module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, _wrap(tracer, metric, record, original))
                undo.append((cls, meth, original))
                continue
            original = getattr(module, attr)
            wrapper = _wrap(tracer, metric, record, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
                        undo.append((mod, name, original))
            for key, value in list(package.cli.ALGOS.items()):
                if value is original:
                    package.cli.ALGOS[key] = wrapper
                    undo.append((package.cli.ALGOS, key, original))
        yield tracer
    finally:
        for owner, name, original in reversed(undo):
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)
