"""Spans and counts recorded around the library's public functions.

The tracer wraps functions in place on the module where callers look
them up: the solver modules import their kernels by name, so the kernel
seen by `polyalgos` is `polyalgos.lsap`, not `kernels.lsap`.  Each call
becomes a span (name, start, end, parent, request); spans stay in memory
until `write` at the end of the run.  Counts are taken after a span has
closed, so computing them costs no span any time.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from types import SimpleNamespace

import service

ROUTES = tuple(service.SOLVERS)
POLY_SOLVERS = sorted(fn for mod, fn in service.SOLVERS.values() if mod == "polyalgos")

# Counts that must repeat exactly for a fixed corpus.
EXACT_COUNTS = (
    *(f"classify.route.{r}" for r in ROUTES),
    "exact.leaves",
    "exact.search_space",
    "junction.gamma_total",
    "junction.guesses",
    "kernels.lsap_cells",
    "kernels.max_profit_flow_calls",
    "kernels.flow_arcs",
)


def _count_dispatch(counts, lib, args, result):
    counts[f"classify.route.{result.name}"] += 1


def _count_lsap(counts, lib, args, result):
    cost = args[0]
    counts["kernels.lsap_calls"] += 1
    counts["kernels.lsap_cells"] += len(cost) * (len(cost[0]) if cost else 0)


def _count_flow(counts, lib, args, result):
    counts["kernels.max_profit_flow_calls"] += 1
    counts["kernels.max_profit_flow_feasible"] += bool(result[0])
    counts["kernels.flow_arcs"] += len(args[0])


def _count_oracle(counts, lib, args, result):
    counts["exact.leaves"] += result.leaves
    counts["exact.search_space"] += lib.exact.search_space(args[0])


def _count_junction(counts, lib, args, result):
    gamma = lib.classify.junction_count(args[0])
    counts["junction.gamma_total"] += gamma
    counts["junction.guesses"] += 4**gamma


def _calls(name):
    def count(counts, lib, args, result):
        counts[name] += 1

    return count


# (module, attribute, span name, count hook)
WRAPS = (
    ("core", "parse_instance", "core.parse", _calls("core.parse_calls")),
    ("classify", "dispatch", "classify.dispatch", _count_dispatch),
    *(("polyalgos", fn, f"polyalgos.{fn}", _calls(f"polyalgos.{fn}.calls")) for fn in POLY_SOLVERS),
    ("junction", "minsum_few_junctions", "junction.minsum_few_junctions", _count_junction),
    ("exact", "minimize", "exact.minimize", _count_oracle),
    ("polyalgos", "lsap", "kernels.lsap", _count_lsap),
    ("polyalgos", "lbap", "kernels.lbap", None),
    ("polyalgos", "max_weight_matching", "kernels.max_weight_matching", None),
    ("polyalgos", "bipartite_mwis", "kernels.bipartite_mwis", None),
    ("junction", "max_profit_flow", "kernels.max_profit_flow", _count_flow),
    ("kernels", "lsap", "kernels.lsap", _count_lsap),
    ("kernels", "hopcroft_karp", "kernels.hopcroft_karp", _calls("kernels.hopcroft_karp_calls")),
    ("core", "profile", "core.profile", None),
    ("polyalgos", "profile", "core.profile", None),
    ("junction", "profile", "core.profile", None),
    ("reductions", "parse_dimacs", "reductions.parse_dimacs", None),
    ("reductions", "witness_extract", "reductions.extract", None),
)


class Tracer:
    def __init__(self, lib: SimpleNamespace):
        self.lib = lib
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: Counter = Counter()
        self.request = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, module, attr: str, name: str, count) -> None:
        original = getattr(module, attr)
        spans, stack, lib = self.spans, self._stack, self.lib

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.request)
            if count is not None:
                count(self.counts, lib, args, result)
            return result

        self._saved.append((module, attr, original))
        setattr(module, attr, traced)

    def install(self) -> None:
        for mod, attr, name, count in WRAPS:
            self._wrap(getattr(self.lib, mod), attr, name, count)
        self._wrap(service, "serialize_report", "core.serialize", None)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    @contextmanager
    def request_span(self, rid: int):
        """Root span of one request; library spans inside it become its children."""
        self.request = rid
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = ("request", start, end, -1, rid)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, rid) in enumerate(self.spans):
                fh.write(json.dumps([sid, name, start, end, parent, rid]) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer times, self times, self-time shares and counts of everything recorded."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        total: Counter = Counter()  # summed span time by span name
        self_time: Counter = Counter()  # time in each layer's own code, children excluded
        for sid, (name, start, end, parent, _) in enumerate(spans):
            total[name] += end - start
            self_time[name.split(".")[0]] += end - start - child_time[sid]
        c = self.counts
        out = {
            "core.parse_s": total["core.parse"],
            "core.parse_calls": c["core.parse_calls"],
            "core.profile_s": total["core.profile"],
            "core.serialize_s": total["core.serialize"],
            "classify.dispatch_s": total["classify.dispatch"],
            **{f"classify.route.{r}": c[f"classify.route.{r}"] for r in ROUTES},
            "polyalgos.self_s": self_time["polyalgos"],
            **{f"polyalgos.{fn}.calls": c[f"polyalgos.{fn}.calls"] for fn in POLY_SOLVERS},
            "kernels.lsap_s": total["kernels.lsap"],
            "kernels.lsap_calls": c["kernels.lsap_calls"],
            "kernels.lsap_cells": c["kernels.lsap_cells"],
            "kernels.lbap_s": total["kernels.lbap"],
            "kernels.hopcroft_karp_calls": c["kernels.hopcroft_karp_calls"],
            "kernels.max_weight_matching_s": total["kernels.max_weight_matching"],
            "kernels.bipartite_mwis_s": total["kernels.bipartite_mwis"],
            "kernels.max_profit_flow_s": total["kernels.max_profit_flow"],
            "kernels.max_profit_flow_calls": c["kernels.max_profit_flow_calls"],
            "kernels.max_profit_flow_feasible_ratio": _ratio(
                c["kernels.max_profit_flow_feasible"], c["kernels.max_profit_flow_calls"]
            ),
            "kernels.flow_arcs": c["kernels.flow_arcs"],
            "junction.self_s": self_time["junction"],
            "junction.gamma_total": c["junction.gamma_total"],
            "junction.guesses": c["junction.guesses"],
            "exact.minimize_s": total["exact.minimize"],
            "exact.leaves": c["exact.leaves"],
            "exact.search_space": c["exact.search_space"],
            "exact.leaf_ratio": _ratio(c["exact.leaves"], c["exact.search_space"]),
            "reductions.extract_s": total["reductions.extract"],
        }
        busy = total["request"]
        for lay in ("core", "classify", "polyalgos", "junction", "kernels", "exact", "reductions"):
            out[f"{lay}.share"] = _ratio(self_time[lay], busy)
        return out

    def exact_counts(self) -> dict[str, int]:
        return {name: self.counts[name] for name in EXACT_COUNTS}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
