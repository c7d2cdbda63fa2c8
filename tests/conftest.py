"""Shared builders for the test suite."""

import itertools
import runpy
import warnings
from pathlib import Path

import pytest

from prefalloc.core import (
    Allocation,
    Instance,
    PreferenceGraph,
    parse_instance,
    profile,
    serialize_instance,
)


def graph(items, arcs=()) -> PreferenceGraph:
    return PreferenceGraph(frozenset(items), frozenset(arcs))


def reachable(g: PreferenceGraph, v) -> set:
    """Items reachable from v along `g.arcs`, v included: a plain
    breadth-first walk, independent of the graph's reach masks."""
    seen, frontier = {v}, [v]
    while frontier:
        frontier = [h for t, h in g.arcs if t in frontier and h not in seen]
        seen.update(frontier)
    return seen


def instance(graphs: dict) -> Instance:
    return Instance(graphs)


def reparsed(inst: Instance) -> Instance:
    """`inst` serialized and parsed back; a NormalizationWarning fails the
    call, so the document's declared pool is exactly `inst.items`."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return parse_instance(serialize_instance(inst))


_JOIN = graph("abc", [("a", "c"), ("b", "c")])

#: Instances outside polynomial routes' domains.  Under "shape" both
#: agents' graphs join two items into a third, which no polynomial route's
#: class allows; "count" has one agent, too few for the two-agent routes.
OUT_OF_DOMAIN = {
    "shape": instance({"x": _JOIN, "y": _JOIN}),
    "count": instance({"x": graph("ab", [("a", "b")])}),
}


def misfit_cases(routes) -> list[tuple]:
    """(route, OUT_OF_DOMAIN key) for every out-of-domain instance a route refuses."""
    return [(r, kind) for r in routes for kind, inst in OUT_OF_DOMAIN.items() if r.misfit(inst)]


def scan_first_optimum(inst: Instance, objective: str) -> tuple[int, Allocation]:
    """Value and first optimal allocation of a plain ordered scan.

    Written independently of the solvers; only usable on tiny instances.
    Scan order: items in sorted order, each item tried unassigned first,
    then given to desiring agents in sorted order.
    """
    options = []
    for v in inst.items:
        options.append([None] + [a for a in inst.agents if v in inst.graphs[a].items])
    best = None
    for combo in itertools.product(*options):
        bundles: dict = {}
        for v, a in zip(inst.items, combo):
            if a is not None:
                bundles.setdefault(a, set()).add(v)
        alloc = Allocation.of(bundles)
        prof = profile(inst, alloc)
        val = prof.total if objective == "sum" else prof.maximum
        if best is None or val < best[0]:
            best = (val, alloc)
    return best


def chain_instance(n: int) -> Instance:
    """One agent whose n items form a chain; each item is preferred over
    the item before it, so the last item in sorted order reaches every item."""
    names = [f"i{k:05d}" for k in range(n)]
    return instance({"x": graph(names, zip(names[1:], names))})


def ladder_instance(n: int) -> Instance:
    """One agent whose n items form a ladder, arcs i -> i+1 and i -> i+2: a
    general DAG whose every inner item is a junction, so `dispatch` sends
    it to the oracle under either objective."""
    names = [f"i{k:05d}" for k in range(n)]
    return instance({"x": graph(names, [*zip(names, names[1:]), *zip(names, names[2:])])})


def short_paths_instance(n: int) -> Instance:
    """Two agents sharing n items cut into 3-item paths (arcs i -> i+1 for
    i mod 3 != 2).  No route takes path forests under max, so `dispatch`
    sends them to the oracle, whose search space is 3**n."""
    names = [f"i{k:05d}" for k in range(n)]
    g = graph(names, [(names[k], names[k + 1]) for k in range(n - 1) if k % 3 != 2])
    return instance({"x": g, "y": g})


def brute_minimum(inst: Instance, objective: str) -> int:
    """Plain exhaustive minimum, by the ordered scan above."""
    return scan_first_optimum(inst, objective)[0]


def brute_profiles(inst: Instance) -> set:
    """Every realizable dissatisfaction profile, by the same enumeration."""
    options = []
    for v in inst.items:
        options.append([None] + [a for a in inst.agents if v in inst.graphs[a].items])
    out = set()
    for combo in itertools.product(*options):
        bundles: dict = {}
        for v, a in zip(inst.items, combo):
            if a is not None:
                bundles.setdefault(a, set()).add(v)
        out.add(profile(inst, Allocation.of(bundles)).values)
    return out


def max_flow_arcs(edges, sink):
    """Arcs (u, v, cap) as `max_profit_flow` arcs whose profit is the flow
    value: profit 1 on each arc into the sink, which must have no arc out."""
    return [(u, v, 0, c, int(v == sink)) for u, v, c in edges]


def residual_reach(arcs, flows, source):
    """Nodes reachable from `source` in the residual graph of `flows`."""
    step = {}
    for (u, v, _, cap, _), f in zip(arcs, flows):
        if cap is None or f < cap:
            step.setdefault(u, []).append(v)
        if f:
            step.setdefault(v, []).append(u)
    seen = {source}
    todo = [source]
    while todo:
        for v in step.get(todo.pop(), ()):
            if v not in seen:
                seen.add(v)
                todo.append(v)
    return seen


@pytest.fixture
def worked() -> Instance:
    """Three agents over {a, b, c}: one wants everything, two want one item."""
    return instance({"1": graph("abc"), "2": graph("b"), "3": graph("c")})


@pytest.fixture(scope="session")
def reference():
    """The benchmark's 0/1 ILP reference, independent of every solver here."""
    return runpy.run_path(str(Path(__file__).parents[1] / "perfbench" / "reference.py"))
