"""Min total dissatisfaction for general DAGs with few junction vertices.

A junction is a vertex with in-degree or out-degree above one.  Removing
the junctions from an agent's graph leaves disjoint chains, so the only
hard decisions concern the junctions.  For each (agent, junction) the
search guesses one of four situations holding in some minimal optimal
allocation:

  1: the agent receives the junction itself,
  2: the agent receives a predecessor of it (covering it from above),
  3: the agent receives a successor of it and nothing at or above it,
  4: the agent receives nothing in its cone at all.

Given a consistent guess, choosing which chain items to hand out is a
max-profit flow: each item may go to one agent, each chain contributes at
most one handed-out item, and promised coverage from cases 2 and 3 turns
into lower bounds.  The guess count is exponential only in the total
junction count, so this is meant for instances where that count is small.
"""

from __future__ import annotations

import itertools

from .classify import junctions
from .core import Allocation, Instance, SizeGuardError, profile
from .kernels import max_profit_flow
from .polyalgos import SolveResult, _chain_network, _chains


def minsum_few_junctions(
    inst: Instance, max_junctions: int | None = None
) -> SolveResult:
    """Exact min-sum solver parameterized by the total junction count."""
    juncs = {a: junctions(inst.graphs[a]) for a in inst.agents}
    slots = [(a, v) for a in inst.agents for v in sorted(juncs[a])]
    gamma = len(slots)
    if max_junctions is not None and gamma > max_junctions:
        raise SizeGuardError(
            f"{gamma} junction vertices exceed the limit {max_junctions}"
        )
    chains = {a: _chains(inst.graphs[a], juncs[a]) for a in inst.agents}
    succ = {
        a: {v: inst.graphs[a].successors(v) for v in juncs[a]} for a in inst.agents
    }
    pred = {
        a: {v: inst.graphs[a].predecessors(v) for v in juncs[a]} for a in inst.agents
    }
    total_items = sum(len(inst.graphs[a].items) for a in inst.agents)

    best: tuple[int, dict[str, set[str]]] | None = None

    for assignment in itertools.product((1, 2, 3, 4), repeat=gamma):
        case = {slot: c for slot, c in zip(slots, assignment)}
        result = _evaluate_guess(inst, juncs, chains, succ, pred, case)
        if result is None:
            continue
        claimed_sat, bundles = result
        value = total_items - claimed_sat
        if best is None or value < best[0]:
            best = (value, bundles)
    assert best is not None  # the all-4 guess is always feasible
    value, bundles = best
    witness = _minimalize(inst, bundles)
    got = profile(inst, witness)
    assert got.total == value, "claimed optimum does not match its witness"
    return SolveResult(value, witness)


def _evaluate_guess(inst, juncs, chains, succ, pred, case):
    """Best claimed satisfaction under one case guess, or None if infeasible."""
    # No item may be taken outright by two agents.
    taken: dict[str, str] = {}
    for (a, v), c in case.items():
        if c == 1:
            if v in taken:
                return None
            taken[v] = a
    by_case = {
        a: {
            c: {v for v in juncs[a] if case[(a, v)] == c}
            for c in (1, 2, 3, 4)
        }
        for a in inst.agents
    }
    for a in inst.agents:
        covered = by_case[a][1] | by_case[a][2]
        exposed = by_case[a][3]
        dead = by_case[a][4]
        for u in covered:
            # Anything below a covered junction is covered too.
            if succ[a][u] & exposed:
                return None
            if succ[a][u] & dead:
                return None
        for w in dead:
            # A dead cone admits no allocation above or below the junction.
            if succ[a][w] & (by_case[a][1] | exposed):
                return None

    auto3 = {
        a: {
            v
            for v in by_case[a][3]
            if succ[a][v] & (by_case[a][1] | by_case[a][3])
        }
        for a in inst.agents
    }
    auto2 = {
        a: {
            v
            for v in by_case[a][2]
            if pred[a][v] & (by_case[a][1] | by_case[a][2])
        }
        for a in inst.agents
    }

    def eligible(a: str, ch) -> bool:
        if ch.start is not None and case[(a, ch.start)] != 3:
            return False
        if ch.end is not None and case[(a, ch.end)] != 2:
            return False
        return True

    open_chains = {a: [ch for ch in chains[a] if eligible(a, ch)] for a in inst.agents}

    # Pairs of promises one chain allocation could fulfill at once.
    pair_slots: list[tuple[str, str, str]] = []
    for a in inst.agents:
        linking = {
            (ch.start, ch.end)
            for ch in open_chains[a]
            if ch.start is not None and ch.end is not None
        }
        for v1 in sorted(by_case[a][3]):
            for v2 in sorted(by_case[a][2]):
                if (v1, v2) in linking and not (v1 in auto3[a] and v2 in auto2[a]):
                    pair_slots.append((a, v1, v2))

    # Items covered by the junctions an agent receives or is covered at.
    fixed_sat = sum(
        len(inst.graphs[a].dominated_set(by_case[a][1] | by_case[a][2]))
        for a in inst.agents
    )
    best = None
    for picks in itertools.product((False, True), repeat=len(pair_slots)):
        mandatory = {ps for ps, on in zip(pair_slots, picks) if on}
        got = _solve_flow(
            inst, by_case, auto2, auto3, open_chains, taken, mandatory, fixed_sat
        )
        if got is None:
            continue
        if best is None or got[0] > best[0]:
            best = got
    return best


def _solve_flow(
    inst, by_case, auto2, auto3, open_chains, taken, mandatory, fixed_sat
):
    """Claimed satisfaction and bundles for one fully specified guess."""
    # Chain groups that must hand out at least one item.
    groups: list[list[tuple[str, int]]] = []  # members are (agent, chain index)
    group_of: dict[tuple[str, int], int] = {}

    def add_group(members: list[tuple[str, int]]) -> bool:
        if not members:
            return False
        gid = len(groups)
        groups.append(members)
        for m in members:
            group_of[m] = gid
        return True

    for a, v1, v2 in sorted(mandatory):
        members = [
            (a, ci)
            for ci, ch in enumerate(open_chains[a])
            if ch.start == v1 and ch.end == v2
        ]
        add_group(members)
    for a in inst.agents:
        paired3 = {v1 for (aa, v1, _) in mandatory if aa == a}
        paired2 = {v2 for (aa, _, v2) in mandatory if aa == a}
        for v1 in sorted(by_case[a][3] - auto3[a] - paired3):
            members = [
                (a, ci)
                for ci, ch in enumerate(open_chains[a])
                if ch.start == v1 and ch.end is None
            ]
            if not add_group(members):
                return None  # promise cannot be kept on its own
        for v2 in sorted(by_case[a][2] - auto2[a] - paired2):
            members = [
                (a, ci)
                for ci, ch in enumerate(open_chains[a])
                if ch.start is None and ch.end == v2
            ]
            if not add_group(members):
                return None

    # The network is a DAG, as max_profit_flow requires: s -> item ->
    # chain node -> group -> t, or straight from the chain node to t.
    rows = [
        (a, ch.items, ("g", group_of[(a, ci)]) if (a, ci) in group_of else "t")
        for a in inst.agents
        for ci, ch in enumerate(open_chains[a])
    ]
    arcs, tags = _chain_network(rows, taken)
    arcs += [(("g", gid), "t", 1, None, 0) for gid in range(len(groups))]

    feasible, prof, flows = max_profit_flow(arcs, "s", "t")
    if not feasible:
        return None
    bundles: dict[str, set[str]] = {}
    for v, a in taken.items():
        bundles.setdefault(a, set()).add(v)
    for tag, flow in zip(tags, flows):
        if tag is not None and flow:
            bundles.setdefault(tag[0], set()).add(tag[1])
    return fixed_sat + prof, bundles


def _minimalize(inst: Instance, bundles: dict[str, set[str]]) -> Allocation:
    """Drop items already covered by the rest of their bundle."""
    out: dict[str, set[str]] = {}
    for a, items in bundles.items():
        g = inst.graphs[a]
        kept = set(items)
        for v in sorted(items):
            rest = kept - {v}
            if v in g.dominated_set(rest):
                kept = rest
        out[a] = kept
    return Allocation.of(out)
