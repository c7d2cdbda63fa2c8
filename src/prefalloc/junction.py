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

Each agent's consistency rules read only its own junctions, so each
agent's consistent cases are built once and a guess is one case per
agent, with no junction received by two agents.  A case is dropped when
it is built if one of its case-2 or case-3 promises has neither a chain
of its own nor a pair slot to keep it, since every flow of every guess
holding it would fail.

Before its flows, a guess is bounded by its fixed satisfaction plus an
upper bound on its flows.  Every flow, whatever its pair picks, is a
matching of items not taken to open chains, where item x at depth t of
an m-item chain gains m - t; the promises only add lower bounds.  So any
prices p_x, q_c >= 0 with p_x + q_c >= gain(x, c) on every such pair
cap it at sum p + sum q, by weak duality of the assignment relaxation.
Three price choices are taken.  With p = 0, q_c is the gain of chain
c's first item not taken; with q = 0, p_x is the best gain of item x on
any open chain.  The third is one round: with p0_x the second-best gain
of x over the open chains (0 on one chain), q_c is the largest
gain(x, c) - p0_x on c, clamped at 0, and p_x is then the least price
that covers every chain of x.  The bound uses the smallest of the three
sums.  A guess whose bound does not exceed the incumbent is skipped, and
a guess stops at the first pick that reaches its bound.  Only a strictly
better guess or pick replaces the best, so neither skip changes which
optimum, the first in guess order, is returned.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .classify import junctions
from .core import Allocation, Instance, SizeGuardError, profile
from .kernels import max_profit_flow
from .polyalgos import Chain, SolveResult, _chain_network, _chains


class _Case(NamedTuple):
    """One consistent choice of cases at one agent's junctions."""

    taken: list[str]  # junctions the agent receives (case 1), sorted
    sat: int  # items covered by its case-1 and case-2 junctions
    chains: list[Chain]  # open chains: every end the guess allows
    need3: list[str]  # case-3 junctions a chain must keep, sorted
    need2: list[str]  # case-2 junctions a chain must keep, sorted
    pairs: list[tuple[str, str]]  # (case-3, case-2) promises one chain may keep
    rows: list[list[tuple[str, int]]]  # per open chain, (item, gain m - t) by depth t


def minsum_few_junctions(
    inst: Instance, max_junctions: int | None = None
) -> SolveResult:
    """Exact min-sum solver parameterized by the total junction count."""
    juncs = {a: junctions(inst.graphs[a]) for a in inst.agents}
    gamma = sum(len(js) for js in juncs.values())
    if max_junctions is not None and gamma > max_junctions:
        raise SizeGuardError(
            f"{gamma} junction vertices exceed the limit {max_junctions}"
        )
    # Guesses run through the agents in order, each over its sorted
    # junctions, so this product is the product over all (agent, junction)
    # slots with the infeasible local cases left out.
    cases = [_agent_cases(inst.graphs[a], sorted(juncs[a])) for a in inst.agents]
    total_items = sum(len(inst.graphs[a].items) for a in inst.agents)

    best_sat, best = -1, None
    for combo in itertools.product(*cases):
        guess = dict(zip(inst.agents, combo))
        taken = _taken(guess)
        if taken is None:
            continue
        bound = _bound(guess, taken)
        if bound <= best_sat:
            continue
        result = _evaluate_guess(guess, taken, bound)
        if result is not None and result[0] > best_sat:
            best_sat, best = result
    assert best is not None  # the all-4 guess is always feasible
    witness = _minimalize(inst, best)
    value = total_items - best_sat
    got = profile(inst, witness)
    assert got.total == value, "claimed optimum does not match its witness"
    return SolveResult(value, witness)


def _agent_cases(g, js: list[str]) -> list[_Case]:
    """Consistent cases at the junctions js of one agent's graph g, in guess order."""
    chains = _chains(g, frozenset(js))
    succ = {v: g.successors(v) for v in js}
    pred = {v: g.predecessors(v) for v in js}
    out = []
    for assignment in itertools.product((1, 2, 3, 4), repeat=len(js)):
        case = dict(zip(js, assignment))
        by_case = {c: {v for v in js if case[v] == c} for c in (1, 2, 3, 4)}
        taken, exposed, dead = by_case[1], by_case[3], by_case[4]
        covered = taken | by_case[2]
        # Anything below a covered junction is covered too, and a dead cone
        # admits no allocation above or below the junction.
        if any(succ[u] & (exposed | dead) for u in covered):
            continue
        if any(succ[w] & (taken | exposed) for w in dead):
            continue
        auto3 = {v for v in exposed if succ[v] & (taken | exposed)}
        auto2 = {v for v in by_case[2] if pred[v] & covered}
        open_chains = [
            ch
            for ch in chains
            if (ch.start is None or case[ch.start] == 3)
            and (ch.end is None or case[ch.end] == 2)
        ]
        linking = {(ch.start, ch.end) for ch in open_chains}
        # Pairs of promises one chain allocation could fulfill at once.
        pairs = [
            (v1, v2)
            for v1 in sorted(exposed)
            for v2 in sorted(by_case[2])
            if (v1, v2) in linking and not (v1 in auto3 and v2 in auto2)
        ]
        need3, need2 = sorted(exposed - auto3), sorted(by_case[2] - auto2)
        # A promise that neither a chain of its own nor a pair can keep
        # fails in every flow of every guess holding this case.
        keeps3 = {v1 for v1, v2 in linking if v2 is None} | {v1 for v1, _ in pairs}
        keeps2 = {v2 for v1, v2 in linking if v1 is None} | {v2 for _, v2 in pairs}
        if not (keeps3.issuperset(need3) and keeps2.issuperset(need2)):
            continue
        rows = [
            [(x, len(ch.items) - t) for t, x in enumerate(ch.items)] for ch in open_chains
        ]
        out.append(
            _Case(
                sorted(taken),
                len(g.dominated_set(covered)),
                open_chains,
                need3,
                need2,
                pairs,
                rows,
            )
        )
    return out


def _taken(guess: dict[str, _Case]) -> dict[str, str] | None:
    """Junction -> the agent receiving it, or None if two agents take one."""
    taken: dict[str, str] = {}
    for a, c in guess.items():
        for v in c.taken:
            if v in taken:
                return None
            taken[v] = a
    return taken


def _bound(guess: dict[str, _Case], taken: dict[str, str]) -> int:
    """Upper bound on the claimed satisfaction of every flow of the guess."""
    rows = [
        row
        for c in guess.values()
        for full in c.rows
        if (row := [(x, gx) for x, gx in full if x not in taken])
    ]
    best: dict[str, int] = {}  # item -> its best gain on an open chain
    second: dict[str, int] = {}  # item -> its second-best gain, 0 on one chain
    for row in rows:
        for x, gx in row:
            bx = best.get(x, 0)
            if gx > bx:
                best[x], second[x] = gx, bx
            elif gx > second.get(x, 0):
                second[x] = gx
    # One round of prices: q_c against the second-best gains, then p_x
    # against q.  A chain or an item may hand out nothing, so neither
    # price may go below 0, and q_c starts there.
    q = []
    for row in rows:
        qc = 0
        for x, gx in row:
            if (d := gx - second.get(x, 0)) > qc:
                qc = d
        q.append(qc)
    p: dict[str, int] = {}
    for row, qc in zip(rows, q):
        for x, gx in row:
            if gx - qc > p.get(x, 0):
                p[x] = gx - qc
    by_chain = sum(row[0][1] for row in rows)
    by_price = sum(q) + sum(p.values())
    fixed = sum(c.sat for c in guess.values())
    return fixed + min(by_chain, sum(best.values()), by_price)


def _evaluate_guess(guess, taken, bound):
    """Best claimed satisfaction and bundles under one guess, or None if infeasible."""
    pair_slots = [(a, v1, v2) for a, c in guess.items() for v1, v2 in c.pairs]
    best = None
    for picks in itertools.product((False, True), repeat=len(pair_slots)):
        mandatory = {ps for ps, on in zip(pair_slots, picks) if on}
        got = _solve_flow(guess, taken, mandatory)
        if got is not None and (best is None or got[0] > best[0]):
            best = got
            if best[0] >= bound:
                break
    return best


def _solve_flow(guess, taken, mandatory):
    """Claimed satisfaction and bundles for one fully specified guess."""
    # Chain groups that must hand out at least one item.
    groups: list[list[tuple[str, int]]] = []  # members are (agent, chain index)
    group_of: dict[tuple[str, int], int] = {}

    def add_group(a: str, start: str | None, end: str | None) -> bool:
        members = [
            (a, ci)
            for ci, ch in enumerate(guess[a].chains)
            if ch.start == start and ch.end == end
        ]
        if not members:
            return False
        for m in members:
            group_of[m] = len(groups)
        groups.append(members)
        return True

    for a, v1, v2 in sorted(mandatory):
        add_group(a, v1, v2)
    for a, c in guess.items():
        paired3 = {v1 for (aa, v1, _) in mandatory if aa == a}
        paired2 = {v2 for (aa, _, v2) in mandatory if aa == a}
        for v1 in c.need3:
            if v1 not in paired3 and not add_group(a, v1, None):
                return None  # promise cannot be kept on its own
        for v2 in c.need2:
            if v2 not in paired2 and not add_group(a, None, v2):
                return None

    # The network is a DAG, as max_profit_flow requires: s -> item ->
    # chain node -> group -> t, or straight from the chain node to t.
    rows = [
        (a, ch.items, ("g", group_of[(a, ci)]) if (a, ci) in group_of else "t")
        for a, c in guess.items()
        for ci, ch in enumerate(c.chains)
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
    return sum(c.sat for c in guess.values()) + prof, bundles


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
