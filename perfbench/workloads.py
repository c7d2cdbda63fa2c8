"""Seeded request corpora, one per workload.

Each workload is a list of strata: a fixed number of requests of one
shape, size and objective that the dispatcher must send down one route.
Sizes are fixed rather than drawn at random, and candidates whose route,
junction count or summed graph size misses the stratum are redrawn, so two seeds give
corpora of the same make-up and differ only in the random graphs.  The
strata are interleaved, so any prefix of the corpus holds a balanced mix.
The reasons each workload exists are in README.md.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

from service import Request

MAX_DRAWS = 5000


@dataclass(frozen=True)
class Stratum:
    count: int
    make: Callable  # (lib, rng, clock) -> Request | None; None means redraw


class GenClock:
    """Seconds spent inside each generator layer while building a corpus."""

    def __init__(self):
        self.seconds = {"randgen": 0.0, "reductions": 0.0}

    def call(self, layer: str, fn, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.seconds[layer] += time.perf_counter() - start


def _routed(lib, inst, objective: str, route: str, **extra) -> Request | None:
    if lib.classify.dispatch(inst, objective).name != route:
        return None
    return Request(lib.core.serialize_instance(inst), objective, route, **extra)


def shaped(route: str, shape: str, items: int, agents: int, objective: str):
    """Every agent draws a random graph of `shape` over a shared item pool."""

    def make(lib, rng, clock):
        inst = clock.call("randgen", lib.randgen.random_instance, rng, shape, items, agents)
        return _routed(lib, inst, objective, route)

    return make


def junctioned(items: int, agents: int, gamma: int, desired: tuple[int, int]):
    """Mostly-path graphs with exactly `gamma` junction vertices in total,
    and summed graph sizes within `desired`, which sets the flow network size.
    """

    def make(lib, rng, clock):
        inst = clock.call(
            "randgen", lib.randgen.junction_bounded_instance, rng, items, agents, gamma + 8
        )
        size = sum(len(g.items) for g in inst.graphs.values())
        if lib.classify.junction_count(inst) != gamma or not desired[0] <= size <= desired[1]:
            return None
        return _routed(lib, inst, "sum", "minsum-junctions")

    return make


def dimacs(num_vars: int, clauses: list[tuple[int, int, int]]) -> str:
    body = "".join(" ".join(map(str, c)) + " 0\n" for c in clauses)
    return f"p cnf {num_vars} {len(clauses)}\n{body}"


def gadget(num_vars: int, num_clauses: int):
    """Two-agent gadget of a random 3-CNF formula, decided under max at its threshold.

    Literals draw their variable freely, so a clause may repeat one and a
    few formulas come out unsatisfiable.
    """

    def make(lib, rng, clock):
        clauses = [
            tuple(rng.choice((1, -1)) * rng.randint(1, num_vars) for _ in range(3))
            for _ in range(num_clauses)
        ]
        text = dimacs(num_vars, clauses)
        formula = lib.reductions.parse_dimacs(text)
        inst, _, max_bound = clock.call("reductions", lib.reductions.gen_two_agents_sat, formula)
        return _routed(lib, inst, "max", "oracle", threshold=max_bound, formula=text)

    return make


WORKLOADS: dict[str, list[Stratum]] = {
    "tractable-large": [
        Stratum(80, shaped("minsum-paths", "path", 32, 12, "sum")),
        Stratum(80, shaped("minmax-paths", "path", 32, 12, "max")),
        Stratum(80, shaped("minsum-disjoint-paths", "disjoint-paths", 24, 8, "sum")),
        Stratum(80, shaped("minsum-matchings", "matching", 16, 5, "sum")),
        Stratum(80, shaped("minmax-two-matchings", "matching", 24, 2, "max")),
        Stratum(80, shaped("minsum-two-star-forests", "union-out-stars", 160, 2, "sum")),
    ],
    "junction-flow": [
        Stratum(60, junctioned(12, 6, 2, (34, 46))),
        Stratum(60, junctioned(12, 6, 3, (34, 46))),
    ],
    # The DAG third is cheap and sits below every gadget, so the median
    # falls inside the 2-clause gadgets, not between modes.  A run serves
    # each request about once.
    "oracle-gadgets": [
        Stratum(300, gadget(3, 2)),
        Stratum(100, gadget(3, 3)),
        Stratum(200, shaped("oracle", "dag", 8, 3, "max")),
    ],
}


def build(lib: SimpleNamespace, workload: str, seed: int) -> tuple[list[Request], GenClock]:
    """The workload's corpus for `seed`; the same seed gives the same corpus."""
    rng = random.Random(f"{workload}/{seed}")
    clock = GenClock()
    columns = []
    for k, stratum in enumerate(WORKLOADS[workload]):
        made = []
        for _ in range(MAX_DRAWS):
            req = stratum.make(lib, rng, clock)
            if req is not None:
                made.append(req)
                if len(made) == stratum.count:
                    break
        else:
            raise RuntimeError(f"{workload}: could not draw {stratum.count} requests of stratum {k}")
        columns.append(made)
    corpus = [col[k] for k in range(max(len(c) for c in columns)) for col in columns if k < len(col)]
    return corpus, clock
