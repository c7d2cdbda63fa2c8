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
agent, with no junction received by two agents.  A pair slot is a
case-3 and a case-2 promise that one chain could keep at once.  Each
case lists its keepable picks of its pair slots once, as the flow group
of each open chain: a pick is kept only when every promise it leaves
unpaired has a chain of its own, and a case with no keepable pick is
dropped, since every flow of every guess holding it would fail.

Before its flows, a guess is bounded by its fixed satisfaction plus an
upper bound on its flows.  Every flow, whatever its pair picks, is a
matching of items not taken to open chains, where item x at depth t of
an m-item chain gains m - t; the promises only add lower bounds.  So any
prices p_x, q_c >= 0 with p_x + q_c >= gain(x, c) on every such pair
cap it at sum p + sum q, by weak duality of the assignment relaxation.
Two price choices are taken, and the bound uses the smaller sum.  With
p = 0, q_c is the gain of chain c's first item not taken.  The other is
one round: with p0_x the second-best gain of x over the open chains (0
on one chain), q_c is the largest gain(x, c) - p0_x on c, clamped at 0,
and p_x is then the least price that covers every chain of x.

The choice q = 0, p_x the best gain of x on any open chain, is omitted:
the round never exceeds it.  A positive q_c is best_x - second_x for an
item x whose unique best chain is c, so distinct chains name distinct
items, and that x then gets p_x <= second_x, since its other chains gain
it at most second_x.  Every other item y has p_y <= best_y.

The bound takes the chain sum first.  When the fixed satisfaction plus
it cannot beat the incumbent, the price round, which could only lower
the bound, is not run.  A guess whose bound does not exceed the
incumbent is skipped, and a guess stops at the first pick that reaches
its bound.  Only a strictly better guess or pick replaces the best, so
neither skip changes which optimum, the first in guess order, is
returned.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .classify import DEFAULT_GAMMA_LIMIT, junction_count
from .core import Allocation, Instance, SizeGuardError
from .core import profile  # noqa: F401  perfbench/tracing.py wraps it by name
from .kernels import chain_flow
from .kernels import max_profit_flow  # noqa: F401  perfbench/tracing.py wraps it by name
from .polyalgos import SolveResult, _chains, _gains


class _Case(NamedTuple):
    """One consistent choice of cases at one agent's junctions."""

    taken: list[str]  # junctions the agent receives (case 1), sorted
    sat: int  # items covered by its case-1 and case-2 junctions
    # Per keepable pair pick: each open chain's flow group (None: straight
    # to the sink) and the group count.
    exits: list[tuple[list[int | None], int]]
    rows: list[list[tuple[str, int]]]  # per open chain (ends the case allows): (item, gain)


def minsum_few_junctions(inst: Instance) -> SolveResult:
    """Exact min-sum solver parameterized by the total junction count.

    Refuses with SizeGuardError past `DEFAULT_GAMMA_LIMIT` junctions, the
    limit `dispatch` routes by.
    """
    gamma = junction_count(inst)
    if gamma > DEFAULT_GAMMA_LIMIT:
        raise SizeGuardError(f"gamma = {gamma} exceeds the junction limit {DEFAULT_GAMMA_LIMIT}")
    # Guesses run through the agents in order, each over its sorted
    # junctions, so this product is the product over all (agent, junction)
    # slots with the infeasible local cases left out.
    cases = [_agent_cases(inst.graphs[a]) for a in inst.agents]
    total_items = sum(len(inst.graphs[a].items) for a in inst.agents)

    best_sat, best = -1, None
    for combo in itertools.product(*cases):
        guess = dict(zip(inst.agents, combo))
        taken = _taken(guess)
        if taken is None:
            continue
        # Every open chain's row without the junctions the guess hands out;
        # a guess that hands out none shares its cases' rows.
        if taken:
            rows = [[(x, gx) for x, gx in full if x not in taken] for c in combo for full in c.rows]
        else:
            rows = [full for c in combo for full in c.rows]
        bound = _bound(guess, rows, best_sat)
        if bound <= best_sat:
            continue
        result = _evaluate_guess(guess, taken, rows, bound)
        if result is not None and result[0] > best_sat:
            best_sat, best = result
    assert best is not None  # the all-4 guess is always feasible
    return SolveResult(total_items - best_sat, _minimalize(inst, best))


def _agent_cases(g) -> list[_Case]:
    """Consistent cases at the junctions of one agent's graph g, in guess order."""
    chains = _chains(g)
    gains = [_gains(ch.items) for ch in chains]
    js = sorted(g.junctions)
    if not js:
        # One case: every chain open and straight to the sink.
        return [_Case([], 0, [([None] * len(chains), 0)], gains)]
    # Junction i is bit i of a junction mask.  succ[i] masks its strict
    # successors among the junctions and pred[i] its strict predecessors;
    # below[m] is the union of succ over m and reach[m] the items m covers.
    n = len(js)
    bits = [1 << g.position[v] for v in js]
    item_reach = [g.reach[g.position[v]] for v in js]
    succ = [
        sum(1 << j for j in range(n) if j != i and r & bits[j]) for i, r in enumerate(item_reach)
    ]
    pred = [sum(1 << j for j in range(n) if succ[j] >> i & 1) for i in range(n)]
    below, reach = [0] * (1 << n), [0] * (1 << n)
    for m in range(1, 1 << n):
        low = m & -m
        i = low.bit_length() - 1
        below[m], reach[m] = below[m ^ low] | succ[i], reach[m ^ low] | item_reach[i]
    at = {v: i for i, v in enumerate(js)}
    ends = [(at.get(ch.start), at.get(ch.end)) for ch in chains]
    out = []
    for assignment in itertools.product(range(4), repeat=n):
        by_case = [0, 0, 0, 0]  # junction masks of cases 1 to 4
        for i, c in enumerate(assignment):
            by_case[c] |= 1 << i
        taken, covering, exposed, dead = by_case
        # Anything below a covered junction is covered too, and a dead cone
        # admits no allocation above or below the junction.
        if below[taken | covering] & (exposed | dead) or below[dead] & (taken | exposed):
            continue
        auto3 = sum(1 << i for i in range(n) if exposed >> i & 1 and succ[i] & (taken | exposed))
        auto2 = sum(1 << i for i in range(n) if covering >> i & 1 and pred[i] & (taken | covering))
        open_chains = [
            c
            for c, (s, e) in enumerate(ends)
            if (s is None or exposed >> s & 1) and (e is None or covering >> e & 1)
        ]
        linking = {ends[c] for c in open_chains}
        # Pairs of promises one chain allocation could fulfill at once.
        v1s = [i for i in range(n) if exposed >> i & 1]
        v2s = [i for i in range(n) if covering >> i & 1]
        pairs = [
            (v1, v2)
            for v1 in v1s
            for v2 in v2s
            if (v1, v2) in linking and not (auto3 >> v1 & 1 and auto2 >> v2 & 1)
        ]
        need3 = [v1 for v1 in v1s if not auto3 >> v1 & 1]
        need2 = [v2 for v2 in v2s if not auto2 >> v2 & 1]
        # Each pick's groups: its pairs, then every promise it leaves
        # unpaired, on a chain of its own; a promise with no such chain
        # fails in every flow, so the pick is not kept.
        exits = []
        for pick in itertools.product((False, True), repeat=len(pairs)):
            picked = [p for p, on in zip(pairs, pick) if on]
            paired3, paired2 = {v1 for v1, _ in picked}, {v2 for _, v2 in picked}
            groups = picked + [(v1, None) for v1 in need3 if v1 not in paired3]
            groups += [(None, v2) for v2 in need2 if v2 not in paired2]
            if linking.issuperset(groups):
                group_of = {e: k for k, e in enumerate(groups)}
                exits.append(([group_of.get(ends[c]) for c in open_chains], len(groups)))
        if not exits:
            continue
        out.append(
            _Case(
                [js[i] for i in range(n) if taken >> i & 1],
                reach[taken | covering].bit_count(),
                exits,
                [gains[c] for c in open_chains],
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


def _bound(guess: dict[str, _Case], rows: list[list[tuple[str, int]]], best_sat: int = -1) -> int:
    """Upper bound on the claimed satisfaction of every flow of the guess,
    whose open chains' rows, less the taken junctions, are `rows`.

    The chain sum comes first: when it cannot beat `best_sat`, the
    incumbent, it is returned as it stands, since the price round could
    only lower it.
    """
    fixed = sum(c.sat for c in guess.values())
    by_chain = sum(row[0][1] for row in rows if row)
    if fixed + by_chain <= best_sat:
        return fixed + by_chain
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
    by_price = sum(q) + sum(p.values())
    return fixed + min(by_chain, by_price)


def _evaluate_guess(guess, taken, rows, bound):
    """Best claimed satisfaction and bundles under one guess, or None if infeasible."""
    best = None
    for picks in itertools.product(*(c.exits for c in guess.values())):
        got = _solve_flow(guess, taken, rows, picks)
        if got is not None and (best is None or got[0] > best[0]):
            best = got
            if best[0] >= bound:
                break
    return best


def _solve_flow(guess, taken, rows, picks):
    """Claimed satisfaction and bundles for one guess and one stored pick per agent."""
    # rows run over the agents' open chains in guess order, as do the
    # picks' groups; each agent's groups follow the earlier agents'.
    exits: list[int | None] = []
    agents: list[str] = []
    groups = 0
    for (a, c), (chain_groups, count) in zip(guess.items(), picks):
        exits += [None if k is None else groups + k for k in chain_groups]
        agents += [a] * len(c.rows)
        groups += count
    feasible, prof, items = chain_flow(rows, exits, groups)
    if not feasible:
        return None
    bundles: dict[str, set[str]] = {}
    for v, a in taken.items():
        bundles.setdefault(a, set()).add(v)
    for a, x in zip(agents, items):
        if x is not None:
            bundles.setdefault(a, set()).add(x)
    return sum(c.sat for c in guess.values()) + prof, bundles


def _minimalize(inst: Instance, bundles: dict[str, set[str]]) -> Allocation:
    """Drop items already covered by the rest of their bundle."""
    out: dict[str, set[str]] = {}
    for a, items in bundles.items():
        g = inst.graphs[a]
        kept = set(items)
        for v in sorted(items):
            rest = kept - {v}
            if g.dominated_mask(rest) >> g.position[v] & 1:
                kept = rest
        out[a] = kept
    return Allocation.of(out)
