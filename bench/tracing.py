"""Spans around calls into codeq's public functions, recorded from outside.

``Tracer.install`` replaces each traced function on every ``codeq`` module
attribute that holds it, so calls made through ``from .linear import
rref`` in another module are seen too. Methods are replaced on their class.
Spans stay in memory until the pass ends; then ``dump`` writes them out and
``layer_metrics`` folds them into per-layer numbers.

Self time is a span's duration minus the durations of its direct children.
A group's inclusive time (``.s``) counts only spans with no ancestor in the
same group, so nested calls are not counted twice.
"""

import functools
import importlib
import json
import sys
from time import perf_counter

# (module, attribute, span name); a span name's group is its metric prefix
FUNCTIONS = (
    ("codeq.linear", "min_distance", "linear.distance"),
    ("codeq.linear", "min_weight_outside", "linear.distance"),
    ("codeq.linear", "rref", "linear.rref"),
    ("codeq.linear", "weight_distribution", "linear.weight_distribution"),
    ("codeq.search", "enumerate_orbits", "search.enumerate_orbits"),
    ("codeq.search", "group_orbits", "search.group_orbits"),
    ("codeq.search", "evaluate", "search.evaluate"),
    ("codeq.search", "search", "search.search"),
    ("codeq.quantum", "nearly_self_orthogonal",
     "quantum.nearly_self_orthogonal"),
    ("codeq.cyclic", "build_cyclic", "cyclic.build_cyclic"),
    ("codeq.constacyclic", "build_constacyclic",
     "constacyclic.build_constacyclic"),
    ("codeq.cosets", "coset_table", "cosets.coset_table"),
    ("codeq.cli", "main", "cli.main"),
)
DUAL_METHODS = ("hermitian_dual", "sum_code", "intersection",
                "contains_code")
ENGINES = ("exhaustive", "syndrome_dp", "information_set")


class Span:
    __slots__ = ("group", "start", "end", "parent", "result")

    def __init__(self, group: str, parent: int):
        self.group = group
        self.parent = parent
        self.start = perf_counter()
        self.end = self.start
        self.result = None


class Tracer:
    """Records one span per call to each traced function."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, group: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(group, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                span.result = fn(*args, **kwargs)
                return span.result
            finally:
                span.end = perf_counter()
                stack.pop()
        return traced

    def install(self) -> None:
        for mod_name, _, _ in FUNCTIONS:
            importlib.import_module(mod_name)
        modules = [m for name, m in list(sys.modules.items())
                   if name == "codeq" or name.startswith("codeq.")]
        for mod_name, attr, group in FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            traced = self.wrap(group, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
        linear_code = sys.modules["codeq.linear"].LinearCode
        for name in DUAL_METHODS:
            setattr(linear_code, name,
                    self.wrap("linear.dual", getattr(linear_code, name)))

    def dump(self, path) -> None:
        """One JSON line per span: group, start, end, parent index."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps([_span_group(s), s.start, s.end,
                                     s.parent]) + "\n")


def _span_group(span: Span) -> str:
    """Distance calls are labelled by the engine their result names."""
    if span.group == "linear.distance":
        return f"linear.{getattr(span.result, 'strategy', 'raised')}"
    return span.group


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer totals of one traced pass, keyed by metric name."""
    groups = [_span_group(s) for s in spans]
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start

    def nested_in_own_group(i: int) -> bool:
        p = spans[i].parent
        while p >= 0:
            if groups[p] == groups[i]:
                return True
            p = spans[p].parent
        return False

    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    work: dict[str, int] = {}
    for i, s in enumerate(spans):
        g = groups[i]
        calls[g] = calls.get(g, 0) + 1
        own[g] = own.get(g, 0.0) + (s.end - s.start) - child_time[i]
        if not nested_in_own_group(i):
            total[g] = total.get(g, 0.0) + (s.end - s.start)
        if g.startswith("linear.") and hasattr(s.result, "work"):
            work[g] = work.get(g, 0) + s.result.work

    m: dict[str, float] = {}
    for engine in ENGINES:
        g = f"linear.{engine}"
        m[f"{g}.self_s"] = own.get(g, 0.0)
        m[f"{g}.calls"] = calls.get(g, 0)
        m[f"{g}.work"] = work.get(g, 0)
        m[f"{g}.work_per_s"] = (work.get(g, 0) / own[g]) if own.get(g) else 0.0
    distance = [s.result for s in spans
                if s.group == "linear.distance" and s.result is not None]
    m["linear.exact_ratio"] = (
        sum(1 for r in distance if r.complete) / len(distance)
        if distance else 0.0)
    for g in ("linear.rref", "linear.dual", "linear.weight_distribution",
              "search.evaluate", "cyclic.build_cyclic",
              "constacyclic.build_constacyclic", "cosets.coset_table"):
        m[f"{g}.s"] = total.get(g, 0.0)
        m[f"{g}.calls"] = calls.get(g, 0)
    m["search.enumerate_orbits.s"] = total.get("search.enumerate_orbits", 0.0)
    m["search.group_orbits.s"] = total.get("search.group_orbits", 0.0)
    m["search.search.self_s"] = own.get("search.search", 0.0)
    reports = [s.result[1] for s in spans
               if s.group == "search.search" and s.result is not None]
    sets = sum(r["total_sets"] for r in reports)
    orbits = sum(r["orbit_count"] for r in reports)
    m["search.sets"] = sets
    m["search.orbits"] = orbits
    m["search.pruning_factor"] = sets / orbits if orbits else 0.0
    g = "quantum.nearly_self_orthogonal"
    m[f"{g}.self_s"] = own.get(g, 0.0)
    m[f"{g}.calls"] = calls.get(g, 0)
    m["cli.main.self_s"] = own.get("cli.main", 0.0)
    return m


def evaluate_latencies(spans: list[Span]) -> list[float]:
    return [s.end - s.start for s in spans if s.group == "search.evaluate"]


def tail(samples: list[float], beyond: int = 10) -> tuple[float, float]:
    """The highest percentile with at least ``beyond`` samples above it.

    Returns (percentile, value); (0, 0) when there are too few samples.
    """
    if len(samples) <= beyond:
        return 0.0, 0.0
    ordered = sorted(samples)
    idx = len(ordered) - beyond - 1
    return 100.0 * (idx + 1) / len(ordered), ordered[idx]
