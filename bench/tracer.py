"""Spans around expodom's layer boundaries, recorded from outside the package.

`install` replaces each traced function at the module (or class) attribute
its caller looks up, because `from .x import f` binds a second name that a
patch of `x.f` alone would miss.  Spans are kept in memory as
[group, parent index, start, end, extra] and written out once, at the end.
`summarize` turns a written span list into the per-layer metrics; a span's
self time is its duration minus the durations of its direct children.

Only layer boundaries are wrapped.  Hot helpers inside a layer (bit
iteration, BFS, graph6 encoding) stay unwrapped so that the traced run does
the same work at a bounded overhead, reported as `trace.overhead_s`.
"""

from __future__ import annotations

import functools
import json
import time

LAYERS = ("graphs", "enumeration", "patterns", "domination", "hereditary",
          "cache", "cli")

ROOT = -1


class Tracer:
    """In-memory span recorder for one process (single-threaded)."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack = [ROOT]

    def wrap(self, group: str, fn, extra=None):
        """`fn` recorded as a span of `group`; `extra(args, result)` is kept."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [group, stack[-1], clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if extra is not None:
                    span[4] = extra(args, result)
                return result
            finally:
                stack.pop()
                span[3] = clock()

        return traced

    def patch(self, owner, name: str, group: str, extra=None) -> None:
        setattr(owner, name, self.wrap(group, getattr(owner, name), extra))

    def write(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary that a sweep or a `params` call crosses."""
    from expodom import cache, cli, domination, enumeration, hereditary, \
        patterns

    tracer.patch(cli, "main", "cli.main")
    # the sweep table holds its own references, bound at import
    for name, fn in list(cli._SWEEPS.items()):
        cli._SWEEPS[name] = tracer.wrap("hereditary.sweep", fn)
    tracer.patch(hereditary, "_obstruction_self_check", "hereditary.gate")
    tracer.patch(hereditary.ParamStore, "params_for_code", "hereditary.lookup")

    tracer.patch(hereditary, "parameter_values", "domination.solve")
    tracer.patch(cli, "compute_all", "domination.solve")
    # the catalog check reaches the solver through the module object
    for name in ("_gamma_value", "exponential_domination_number"):
        tracer.patch(domination, name, "domination.kernel")

    for owner in (hereditary, enumeration):
        for name in ("canonical_code", "canonical_graph"):
            tracer.patch(owner, name, "graphs.canonical")

    tracer.patch(enumeration, "_level_pairs", "enumeration.level",
                 lambda args, result: len(result))

    tracer.patch(patterns, "is_free", "patterns.match", found_if_false)
    tracer.patch(patterns, "is_free_with_new_vertex", "patterns.match",
                 found_if_false)
    tracer.patch(patterns, "find_any_pattern", "patterns.match", found_if_set)
    tracer.patch(cli, "find_any_pattern", "patterns.match", found_if_set)
    tracer.patch(patterns, "verify_catalog", "patterns.catalog")

    tracer.patch(cache.ResultsCache, "_load", "cache.load",
                 lambda args, result: len(args[0]))
    tracer.patch(cache.ResultsCache, "put", "cache.put")


def found_if_false(args, result) -> bool:
    return not result


def found_if_set(args, result) -> bool:
    return result is not None


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def summarize(spans: list[list]) -> dict:
    """Per-layer counts and self times of one traced process."""
    child_time = [0.0] * len(spans)
    children: list[list[int]] = [[] for _ in spans]
    for idx, (_, parent, start, end, _) in enumerate(spans):
        if parent != ROOT:
            child_time[parent] += end - start
            children[parent].append(idx)

    def group(idx: int) -> str:
        return spans[idx][0]

    def layer(idx: int) -> str:
        return spans[idx][0].split(".", 1)[0]

    def outermost(idx: int, same) -> bool:
        parent = spans[idx][1]
        return parent == ROOT or not same(parent)

    self_by_group: dict[str, float] = {}
    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    for idx, (name, _, start, end, _) in enumerate(spans):
        own = end - start - child_time[idx]
        self_by_group[name] = self_by_group.get(name, 0.0) + own
        self_by_layer[layer(idx)] += own

    def in_group(name: str) -> list[int]:
        return [i for i in range(len(spans)) if group(i) == name]

    canonical = [i for i in in_group("graphs.canonical")
                 if outermost(i, lambda p: group(p) == "graphs.canonical")]
    levels = in_group("enumeration.level")
    candidates = 0
    kept = 0
    for i in levels:
        labeled = sum(1 for c in children[i] if group(c) == "graphs.canonical")
        if labeled:  # the level was built here, not served from the memo
            candidates += labeled
            kept += spans[i][4]
    matches = [i for i in in_group("patterns.match")
               if outermost(i, lambda p: group(p) == "patterns.match")]
    solves = in_group("domination.solve")
    solver_entries = [i for i in range(len(spans)) if layer(i) == "domination"
                      and outermost(i, lambda p: layer(p) == "domination")]
    lookups = in_group("hereditary.lookup")
    lookup_hits = sum(1 for i in lookups if not any(
        group(c) == "domination.solve" for c in children[i]))
    loads = in_group("cache.load")
    mains = in_group("cli.main")
    main_s = sum(spans[i][3] - spans[i][2] for i in mains)

    metrics = {
        "graphs.canonical.calls": (len(canonical), "count"),
        "graphs.canonical.self_s": (self_by_group.get("graphs.canonical", 0.0),
                                    "s"),
        "enumeration.level.self_s": (self_by_layer["enumeration"], "s"),
        "enumeration.candidates": (candidates, "count"),
        "enumeration.kept_ratio": (_ratio(kept, candidates), "ratio"),
        "patterns.match.calls": (len(matches), "count"),
        "patterns.match.self_s": (self_by_group.get("patterns.match", 0.0),
                                  "s"),
        "patterns.match.hit_ratio": (
            _ratio(sum(1 for i in matches if spans[i][4]), len(matches)),
            "ratio"),
        "domination.solve.calls": (len(solves), "count"),
        "domination.solve.self_s": (self_by_layer["domination"], "s"),
        "domination.solve.max_s": (
            max((spans[i][3] - spans[i][2] for i in solver_entries),
                default=0.0), "s"),
        "hereditary.lookup.calls": (len(lookups), "count"),
        "hereditary.lookup.hit_ratio": (_ratio(lookup_hits, len(lookups)),
                                        "ratio"),
        "hereditary.sweep.self_s": (self_by_layer["hereditary"], "s"),
        "cache.load.self_s": (self_by_group.get("cache.load", 0.0), "s"),
        "cache.load.records": (sum(spans[i][4] for i in loads), "count"),
        "cache.put.calls": (len(in_group("cache.put")), "count"),
        "cache.put.self_s": (self_by_group.get("cache.put", 0.0), "s"),
        "cli.main.self_s": (self_by_layer["cli"], "s"),
        "trace.main_s": (main_s, "s"),
    }
    for name in LAYERS:
        metrics[f"{name}.share"] = (_ratio(self_by_layer[name], main_s),
                                    "s/s")
    return metrics
