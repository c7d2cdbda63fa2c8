"""Polynomial-time solvers for structured preference graphs.

Each solver checks that the instance lies in its route's domain, as
`classify.ROUTES` states it, and raises PreconditionError with the
route's `misfit` text outside it.  All of them return exact optima; the
tests check them against the exhaustive reference solver.

Directed matchings, single paths and path forests are all unions of
disjoint paths: their min-sum solvers share one chain assignment,
`kernels.chain_flow`, the flow that the junction route also runs.
Min-max over single paths searches for the least bound that a
cardinality matching of each agent to its first items can meet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .classify import ROUTE
from .core import Allocation, Instance, PreconditionError
from .core import profile  # noqa: F401  perfbench/tracing.py wraps it by name
from .kernels import bipartite_mwis, chain_flow, hopcroft_karp
from .kernels import lbap, lsap, max_weight_matching  # noqa: F401  perfbench/tracing.py wraps them by name


@dataclass(frozen=True)
class SolveResult:
    value: int
    witness: Allocation


def _require(inst: Instance, route: str) -> None:
    """Raise PreconditionError unless the instance lies in the named route's domain."""
    why = ROUTE[route].misfit(inst)
    if why is not None:
        raise PreconditionError(why)


# -- path forests: directed matchings, single paths, unions of paths ---------
#
# A directed matching is a union of disjoint paths whose components are
# single arcs, and a single path is a union with one component, so the
# three min-sum routes share one chain assignment.  Dissatisfaction
# splits over path components, and receiving an item covers it and
# everything after it on its path, so only a component's earliest
# received item matters: handing a chain of m items its item at depth t
# satisfies m - t of them.  So each (agent, component) chain takes at
# most one item, each item goes to at most one chain, and the optimum
# is the total chain size minus the most profitable such assignment.
# Any allocation gives an assignment worth its satisfaction (each
# component takes its earliest received item), and the decoded
# allocation, which hands each agent the items assigned to its chains,
# satisfies at least that much; so the difference is the optimum and
# the witness's dissatisfaction.  The junction route hands out chain
# items by the same `chain_flow`, with groups that must each take an item.


class Chain(NamedTuple):
    start: str | None  # junction feeding the first item, None at a source
    items: list[str]
    end: str | None  # junction fed by the last item, None at a sink


def _chains(g) -> list[Chain]:
    """Maximal paths of g through non-junction vertices only.

    Chains leaving a junction come first, by junction in sorted order,
    then chains from sources in item order.  A graph without junctions
    is a union of disjoint paths, and its chains are its components.
    """
    order, outs = g.sorted_items, g.outs
    juncs = {g.position[v] for v in g.junctions}

    def walk(first: int, start: str | None) -> Chain:
        # A walk only leaves non-junctions, which have one out-arc at most.
        path = [first]
        while (heads := outs[path[-1]]) and heads[0] not in juncs:
            path.append(heads[0])
        return Chain(start, [order[i] for i in path], order[heads[0]] if heads else None)

    chains = [walk(w, order[u]) for u in sorted(juncs) for w in outs[u] if w not in juncs]
    chains += [walk(i, None) for i, d in enumerate(g.indeg) if not d and i not in juncs]
    return chains


def _gains(items: list[str]) -> list[tuple[str, int]]:
    """(item, gain) along a chain: the item at depth t satisfies the m - t items from it on."""
    return [(x, len(items) - t) for t, x in enumerate(items)]


def _minsum_chains(inst: Instance) -> SolveResult:
    agents, rows = [], []
    for a in inst.agents:
        for ch in _chains(inst.graphs[a]):
            agents.append(a)
            rows.append(_gains(ch.items))
    _, prof, items = chain_flow(rows, [None] * len(rows), 0)
    bundles: dict[str, set[str]] = {}
    for a, x in zip(agents, items):
        if x is not None:
            bundles.setdefault(a, set()).add(x)
    size = sum(len(row) for row in rows)
    return SolveResult(size - prof, Allocation.of(bundles))


def minsum_directed_matchings(inst: Instance) -> SolveResult:
    """Min total dissatisfaction when every graph is a directed matching."""
    _require(inst, "minsum-matchings")
    return _minsum_chains(inst)


def minsum_paths(inst: Instance) -> SolveResult:
    """Min total dissatisfaction when every graph is one directed path."""
    _require(inst, "minsum-paths")
    return _minsum_chains(inst)


def minsum_disjoint_paths(inst: Instance) -> SolveResult:
    """Min total dissatisfaction when every graph is a union of disjoint paths."""
    _require(inst, "minsum-disjoint-paths")
    return _minsum_chains(inst)


def minmax_paths(inst: Instance) -> SolveResult:
    """Min worst-agent dissatisfaction for single paths (bottleneck matching).

    An agent whose path's earliest received item sits at depth t is
    dissatisfied by exactly t, and one who receives none of its m items
    by m.  So some allocation keeps every agent at or below d exactly
    when every agent whose path has more than d items can get one of its
    first d + 1 items, a distinct one each: a cardinality matching that
    covers those agents.  Feasibility only grows with d and holds at the
    longest path's length, so a binary search over 0..that length finds
    the least feasible d, the value, and its matching is the witness.
    """
    _require(inst, "minmax-paths")
    at = inst.position
    paths = [(a, [at[v] for v in _chains(inst.graphs[a])[0].items]) for a in inst.agents]

    def attempt(d: int) -> dict[str, set[str]] | None:
        rows = [(a, path[: d + 1]) for a, path in paths if len(path) > d]
        size, match = hopcroft_karp(len(rows), len(inst.items), [adj for _, adj in rows])
        if size < len(rows):
            return None
        return {a: {inst.items[j]} for (a, _), j in zip(rows, match)}

    lo, hi = 0, max((len(path) for _, path in paths), default=0)
    best: dict[str, set[str]] = {}  # nobody needs an item at the longest length
    while lo < hi:
        mid = (lo + hi) // 2
        got = attempt(mid)
        if got is None:
            lo = mid + 1
        else:
            best, hi = got, mid
    return SolveResult(lo, Allocation.of(best))


# -- two agents with star-forest graphs ---------------------------------------


def preassign_two_star_forests(inst: Instance) -> Allocation:
    """Forced part of an optimal allocation for two star-forest agents.

    Items only one agent desires go to that agent.  A shared item that
    roots a star for exactly one agent goes to that agent, and the star's
    shared leaves go to the other agent (worthless to the root's owner
    once the root is theirs).  When both graphs claim the same leaf, the
    first claim in (agent, item) order stands; either way the leaf is
    already covered for both agents, so the value is unaffected.
    """
    _require(inst, "minsum-two-star-forests")
    a1, a2 = inst.agents
    g = {a1: inst.graphs[a1], a2: inst.graphs[a2]}
    assigned: dict[str, str] = {}
    for v in inst.items:
        own1 = v in g[a1].items
        own2 = v in g[a2].items
        if own1 and not own2:
            assigned[v] = a1
        elif own2 and not own1:
            assigned[v] = a2
    for agent, other in ((a1, a2), (a2, a1)):
        mine, theirs = g[agent], g[other]
        for i, v in enumerate(mine.sorted_items):
            j = theirs.position.get(v)
            if j is not None and not mine.indeg[i] and theirs.indeg[j] == 1:
                assigned.setdefault(v, agent)
                for u in mine.outs[i]:
                    leaf = mine.sorted_items[u]
                    if leaf in theirs.items and leaf not in assigned:
                        assigned[leaf] = other
    bundles: dict[str, set[str]] = {}
    for v, a in assigned.items():
        bundles.setdefault(a, set()).add(v)
    return Allocation.of(bundles)


def minsum_two_star_forests(inst: Instance) -> SolveResult:
    """Min total dissatisfaction for two agents with star-forest graphs.

    After the forced preassignment the undecided items are exactly the
    shared ones rooting stars in both graphs or hanging as leaves in
    both.  Giving item v to agent i is worth the part of v's star cone
    not already covered for i; the only interactions are "don't pay a
    leaf twice along with its own root" and "one agent per item", and
    that conflict graph is bipartite, so a max-weight independent set
    finishes the job.  The value is what the preassignment leaves
    uncovered, less that set's weight.
    """
    pre = preassign_two_star_forests(inst)  # checks the shape and agent count
    a1, a2 = inst.agents
    g = {a1: inst.graphs[a1], a2: inst.graphs[a2]}
    dom0 = {a: g[a].dominated_mask(pre.get(a)) for a in (a1, a2)}
    taken = pre.assigned_items()

    def weight(v: str, a: str) -> int:
        return (g[a].reach[g[a].position[v]] & ~dom0[a]).bit_count()

    side_a: dict[tuple, int] = {}
    side_b: dict[tuple, int] = {}
    edges = []
    for v in inst.items:
        if v in taken:
            continue
        # Remaining items sit in both graphs, as roots of both or leaves
        # of both; that split is what makes the conflict graph two-sided.
        if g[a1].indeg[g[a1].position[v]]:  # a leaf: agent 2's copy on side A
            side_b[(v, a1)] = weight(v, a1)
            side_a[(v, a2)] = weight(v, a2)
            edges.append(((v, a2), (v, a1)))
            continue
        side_a[(v, a1)] = weight(v, a1)
        side_b[(v, a2)] = weight(v, a2)
        edges.append(((v, a1), (v, a2)))
        # A root also conflicts, per agent, with its star's remaining leaves.
        for i in g[a1].outs[g[a1].position[v]]:
            if (u := g[a1].sorted_items[i]) not in taken:
                edges.append(((v, a1), (u, a1)))
        for i in g[a2].outs[g[a2].position[v]]:
            if (u := g[a2].sorted_items[i]) not in taken:
                edges.append(((u, a2), (v, a2)))
    gain, chosen = bipartite_mwis(side_a, side_b, edges)
    bundles = {a: set(pre.get(a)) for a in (a1, a2)}
    for v, a in chosen:
        bundles[a].add(v)
    left = sum(len(g[a].items) - dom0[a].bit_count() for a in (a1, a2))
    return SolveResult(left - gain, Allocation.of(bundles))


# -- two agents with directed matchings: min worst dissatisfaction ------------
#
# Every item an agent desires lies on exactly one arc (t, h) of its
# matching: t is satisfied only by holding t, and h by holding t or h.
# So agent q's dissatisfaction is a sum over q's arcs of 0 if q holds t,
# 1 if q holds h but not t, and 2 otherwise, and each term reads only the
# states of the arc's two ends (0 = unallocated, or the holding agent's
# number).  A vertex has at most one arc per graph, so the overlay of the
# two graphs splits into alternating paths and even cycles, and the
# program walks each one vertex by vertex.  It charges every arc exactly
# once, when the state of its second walk vertex is chosen.  A cycle's
# closing arc joins the last vertex back to the first, so each key
# carries the first vertex's state and that arc is charged at the end.
# The charges then sum to each agent's dissatisfaction, so a component's
# final pairs are exactly the pairs it can realize.
#
# The min-max solver needs only Pareto-minimal pairs, those no other pair
# dominates (no larger in either coordinate and not equal).  With `prune`
# the builder keeps only the keys whose (d1, d2) is minimal among keys
# with the same (first state, current state), only each component's
# minimal pairs, and only each layer's minimal totals.  A charge reads
# only states, so a key dominating another with the same states reaches,
# by the same later choices, a final dominating the other's.  Hence every
# key on a path to a minimal final is minimal in its group, and so is
# its first parent in sorted scan order, and every split of a minimal
# total uses minimal parts.  The pruned tables thus hold every minimal
# key, and each sorted first-insert scan meets the same first parent or
# split as the full one.  The target, the least (max, pair) total, is
# minimal: a pair dominating it has no larger max and sorts first.  So
# value and witness are those of the full tables, which
# `two_matchings_profiles` keeps because it needs every pair.


def _overlay_components(inst: Instance):
    """Components of the two graphs' overlay as (vertices, arcs), paths first, then cycles.

    An arc is one (tail, head, agent number) tuple shared by both its
    ends.  arcs[j] joins vertices[j] to the next vertex, and a cycle's
    last arc joins its last vertex back to its first.  A path starts at
    its end that comes first in item order, a cycle at its first vertex
    in item order, along agent 1's arc.
    """
    inc: dict[str, list[tuple]] = {v: [] for v in inst.items}
    for q, a in enumerate(inst.agents, start=1):
        order = inst.graphs[a].sorted_items
        for t, hs in enumerate(inst.graphs[a].outs):
            for h in hs:
                arc = (order[t], order[h], q)
                inc[order[t]].append(arc)
                inc[order[h]].append(arc)
    seen: set[str] = set()
    comps = []
    for v0 in sorted(inst.items, key=lambda v: len(inc[v]) != 1):  # path ends first
        if v0 in seen:
            continue
        verts, arcs = [v0], []
        arc = inc[v0][0]
        while arc is not None:
            arcs.append(arc)
            tail, head, _ = arc
            v = head if tail == verts[-1] else tail
            if v == v0:
                break
            verts.append(v)
            arc = next((e for e in inc[v] if e is not arc), None)
        seen.update(verts)
        comps.append((verts, arcs))
    return comps


def _charge(arc, first, s_first, s_second, d1, d2):
    """(d1, d2) plus the arc's charge, given the states of its end `first` and of the other."""
    tail, _, q = arc
    s_tail, s_head = (s_first, s_second) if tail == first else (s_second, s_first)
    c = 0 if s_tail == q else 1 if s_head == q else 2
    return (d1 + c, d2) if q == 1 else (d1, d2 + c)


def _minimal(table: dict) -> dict:
    """The entries whose key's last two fields no key with the same leading fields dominates.

    Returned in sorted key order.  In that order a key is dominated
    exactly when an earlier key of its group has no larger last field.
    """
    least: dict[tuple, int] = {}
    out = {}
    for key in sorted(table):
        group, d2 = key[:-2], key[-1]
        if group not in least or d2 < least[group]:
            least[group] = d2
            out[key] = table[key]
    return out


def _component_table(inst: Instance, verts, arcs, prune: bool):
    """The (dissat_1, dissat_2) pairs a component can realize, with decode info.

    Keys are (first vertex's state, current vertex's state, d1, d2).
    Returns (pairs, finals, tables) where finals maps a pair to its
    first final key in sorted order and tables hold parent pointers.
    With `prune`, only the minimal keys and pairs are kept.
    """
    g1, g2 = (inst.graphs[a].items for a in inst.agents)
    states = [[0] + [q for q, g in ((1, g1), (2, g2)) if v in g] for v in verts]
    tables = [dict.fromkeys((s0, s0, 0, 0) for s0 in states[0])]
    for j in range(1, len(verts)):
        arc, prev = arcs[j - 1], verts[j - 1]
        cur = {}
        for key in sorted(tables[-1]):
            s0, sp, d1, d2 = key
            for s in states[j]:
                nk = (s0, s, *_charge(arc, prev, sp, s, d1, d2))
                if nk not in cur:
                    cur[nk] = key
        tables.append(_minimal(cur) if prune else cur)
    finals: dict[tuple[int, int], tuple] = {}
    for key in sorted(tables[-1]):
        s0, s, d1, d2 = key
        if len(arcs) == len(verts):  # a cycle: charge its closing arc
            d1, d2 = _charge(arcs[-1], verts[-1], s, s0, d1, d2)
        finals.setdefault((d1, d2), key)
    if prune:
        finals = _minimal(finals)
    return sorted(finals), finals, tables


def _decode_component(verts, finals, tables, pair):
    key = finals[pair]
    states_rev = []
    for j in range(len(tables) - 1, -1, -1):
        states_rev.append(key[1])
        key = tables[j][key]
    states_rev.reverse()
    return {v: s for v, s in zip(verts, states_rev) if s}


def _two_matchings_layers(inst: Instance, prune: bool = False):
    """Component tables and the layered combine of their pair sets.

    Returns (infos, layers): infos[c] is (verts, pairs, finals, tables)
    for component c, with pairs sorted, and layers[c + 1] maps each total
    pair reachable with the first c + 1 components to (previous total,
    component pair), the first such split in sorted scan order.  With
    `prune`, only minimal keys, pairs and totals are kept.
    """
    _require(inst, "minmax-two-matchings")
    infos = [
        (verts, *_component_table(inst, verts, arcs, prune))
        for verts, arcs in _overlay_components(inst)
    ]
    layers: list[dict[tuple[int, int], tuple]] = [{(0, 0): None}]
    for _, pairs, _, _ in infos:
        cur: dict[tuple[int, int], tuple] = {}
        for base in sorted(layers[-1]):
            for p in pairs:
                key = (base[0] + p[0], base[1] + p[1])
                if key not in cur:
                    cur[key] = (base, p)
        layers.append(_minimal(cur) if prune else cur)
    return infos, layers


def two_matchings_profiles(inst: Instance) -> frozenset[tuple[int, int]]:
    """Every dissatisfaction pair two matching-shaped agents can realize."""
    _, layers = _two_matchings_layers(inst)
    return frozenset(layers[-1])


def minmax_two_matchings(inst: Instance) -> SolveResult:
    """Min worst-agent dissatisfaction for two agents with directed matchings.

    Dynamic program along the overlay's paths and cycles; component pair
    sets are then combined and the best total pair picked (smallest max,
    then lexicographic), with backpointers rebuilding a witness.
    """
    infos, layers = _two_matchings_layers(inst, prune=True)
    target = min(layers[-1], key=lambda t: (max(t), t))
    choices = []
    cursor = target
    for c in range(len(infos), 0, -1):
        base, p = layers[c][cursor]
        choices.append(p)
        cursor = base
    choices.reverse()
    a1, a2 = inst.agents
    bundles: dict[str, set[str]] = {a1: set(), a2: set()}
    for (verts, _, finals, tables), p in zip(infos, choices):
        for v, s in _decode_component(verts, finals, tables, p).items():
            bundles[a1 if s == 1 else a2].add(v)
    alloc = Allocation.of(bundles)
    return SolveResult(max(target), alloc)
