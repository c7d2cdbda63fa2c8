"""Seeded random instance builders, one per graph shape.

Item pools are "i1".."iN" and agents "a1".."aK".  Every builder takes a
`random.Random` so callers control determinism.  Agents sample their
graphs independently from the shared pool; items nobody samples are
dropped from the instance, so generated instances can end up with fewer
items than requested.
"""

from __future__ import annotations

import random
from collections.abc import Callable

from .core import _REACH_BUDGET, Instance, PreconditionError, PreferenceGraph, SizeGuardError


def _pool(num_items: int, num_agents: int) -> list[str]:
    """The pool "i1".."iN", once the sizes are checked: at least 2 items and
    1 agent, and no more graph bits than parsing accepts (see _REACH_BUDGET)."""
    if num_items < 2 or num_agents < 1:
        raise PreconditionError("need at least 2 items and 1 agent")
    if num_agents * num_items**2 > _REACH_BUDGET:
        raise SizeGuardError(
            f"graphs' reach masks could pass {_REACH_BUDGET} bits"
            f" ({num_agents} agent(s) over {num_items} items)"
        )
    return [f"i{k}" for k in range(1, num_items + 1)]


def _agent_names(num_agents: int) -> list[str]:
    return [f"a{j}" for j in range(1, num_agents + 1)]


def _sample(rng: random.Random, pool: list[str], size: int) -> list[str]:
    picked = rng.sample(pool, size)
    rng.shuffle(picked)
    return picked


def matching_graph(rng: random.Random, pool: list[str]) -> PreferenceGraph:
    """Disjoint arcs: every sampled vertex has total degree exactly one."""
    pairs = rng.randint(1, max(1, len(pool) // 2))
    verts = _sample(rng, pool, 2 * pairs)
    arcs = [(verts[2 * t], verts[2 * t + 1]) for t in range(pairs)]
    return PreferenceGraph(frozenset(verts), frozenset(arcs))


def path_graph(rng: random.Random, pool: list[str]) -> PreferenceGraph:
    verts = _sample(rng, pool, rng.randint(1, len(pool)))
    arcs = [(verts[t], verts[t + 1]) for t in range(len(verts) - 1)]
    return PreferenceGraph(frozenset(verts), frozenset(arcs))


def _disjoint_paths(
    rng: random.Random, pool: list[str]
) -> tuple[list[str], list[tuple[str, str]]]:
    """Sampled vertices, in sample order, and the arcs that chain them into paths."""
    verts = _sample(rng, pool, rng.randint(1, len(pool)))
    arcs = []
    for t in range(len(verts) - 1):
        # run another arc or cut the path here
        if rng.random() < 0.6:
            arcs.append((verts[t], verts[t + 1]))
    return verts, arcs


def disjoint_paths_graph(rng: random.Random, pool: list[str]) -> PreferenceGraph:
    return PreferenceGraph(*_disjoint_paths(rng, pool))


def out_star_graph(rng: random.Random, pool: list[str]) -> PreferenceGraph:
    verts = _sample(rng, pool, rng.randint(1, len(pool)))
    root = verts[0]
    return PreferenceGraph(
        frozenset(verts), frozenset((root, leaf) for leaf in verts[1:])
    )


def out_tree_graph(rng: random.Random, pool: list[str]) -> PreferenceGraph:
    verts = _sample(rng, pool, rng.randint(1, len(pool)))
    arcs = []
    for t in range(1, len(verts)):
        arcs.append((verts[rng.randrange(t)], verts[t]))
    return PreferenceGraph(frozenset(verts), frozenset(arcs))


def union_out_stars_graph(rng: random.Random, pool: list[str]) -> PreferenceGraph:
    verts = _sample(rng, pool, rng.randint(1, len(pool)))
    arcs = []
    root = verts[0]
    for v in verts[1:]:
        if rng.random() < 0.4:
            root = v  # start a new star; v is its root (or stays isolated)
        else:
            arcs.append((root, v))
    return PreferenceGraph(frozenset(verts), frozenset(arcs))


def dag_graph(rng: random.Random, pool: list[str]) -> PreferenceGraph:
    verts = _sample(rng, pool, rng.randint(1, len(pool)))
    arcs = []
    for s in range(len(verts)):
        for t in range(s + 1, len(verts)):
            if rng.random() < 0.25:
                arcs.append((verts[s], verts[t]))
    return PreferenceGraph(frozenset(verts), frozenset(arcs))


_BUILDERS: dict[str, Callable[[random.Random, list[str]], PreferenceGraph]] = {
    "matching": matching_graph,
    "path": path_graph,
    "disjoint-paths": disjoint_paths_graph,
    "out-star": out_star_graph,
    "out-tree": out_tree_graph,
    "union-out-stars": union_out_stars_graph,
    "dag": dag_graph,
}
SHAPES = tuple(_BUILDERS)


def random_instance(
    rng: random.Random, shape: str, num_items: int, num_agents: int
) -> Instance:
    """Instance whose every agent has a random graph of the given shape."""
    if shape not in _BUILDERS:
        raise PreconditionError(
            f"unknown shape {shape!r}; expected one of {', '.join(SHAPES)}"
        )
    pool = _pool(num_items, num_agents)
    builder = _BUILDERS[shape]
    graphs = {a: builder(rng, pool) for a in _agent_names(num_agents)}
    return Instance(graphs)


def junction_bounded_instance(
    rng: random.Random,
    num_items: int,
    num_agents: int,
    max_junctions: int,
) -> Instance:
    """Instance of mostly-path graphs with at most `max_junctions` junction
    vertices across all agents.

    Starts from per-agent disjoint paths (no junctions) and spends a random
    budget of extra arcs.  Each extra arc runs from an existing vertex to an
    in-degree-0 vertex of a different weak component, so it costs at most
    one junction (at its tail) and cannot close a cycle.
    """
    pool = _pool(num_items, num_agents)
    agents = _agent_names(num_agents)
    # per agent: its sorted vertices, its arcs, the vertices with an in-arc
    # and each vertex's weak-component label, kept up to date as arcs land
    raw = {}
    for a in agents:
        verts, arcs = _disjoint_paths(rng, pool)
        headed = {head for _, head in arcs}
        comp = {}
        for t, v in enumerate(verts):  # a path runs on until a vertex has no in-arc
            comp[v] = comp[verts[t - 1]] if v in headed else v
        raw[a] = (sorted(verts), arcs, headed, comp)
    for _ in range(rng.randint(0, max_junctions)):  # the extra-arc budget
        verts, arcs, headed, comp = raw[rng.choice(agents)]
        tail = rng.choice(verts)
        targets = [v for v in verts if v not in headed and comp[v] != comp[tail]]
        if not targets:
            continue
        head = rng.choice(targets)
        arcs.append((tail, head))
        headed.add(head)
        merged = comp[head]
        for v in verts:
            if comp[v] == merged:
                comp[v] = comp[tail]
    return Instance({a: PreferenceGraph(verts, arcs) for a, (verts, arcs, _, _) in raw.items()})
