"""Exhaustive reference solvers.

These search the space of all partial allocations (each item goes to
one desiring agent or to nobody), so they are exponential and guarded by
a search-space limit.  They exist as ground truth: the polynomial
solvers are tested against them, and the dispatcher falls back to them
on small instances that fit no special structure.

Witness convention: items are scanned in sorted order and, per item, the
options are "nobody" first and then desiring agents in sorted order.  The
first optimum in that depth-first order is returned, which pins the
witness down deterministically (the lexicographically least option
vector among optimal allocations).

`minimize` is a branch and bound over that scan.  Its cuts never move
the witness: a node is cut only when no completion from it scores below
the incumbent, so every node on the first optimum's path, whose bound is
no larger than the optimum and hence below every earlier incumbent,
survives.  Three bounds cut, and a skip drops twin branches:

* Suffix-union bound.  From item j on, agent a can at best gain every
  item of the union of its reach masks over items j..n-1 that it does not
  already reach.  Subtracting that from its current dissatisfaction gives
  a lower bound per agent; their sum (or max) bounds the objective, and a
  node whose bound is at least the incumbent is cut.
* Joint gain bounds.  Beating the incumbent needs the agents together to
  gain more than an allowance A: under sum, A is sum(dissat) - incumbent;
  under max, every agent a must gain max(0, dissat_a - incumbent + 1),
  and A is those needs' sum less 1 (with no cut when no agent needs any
  gain).  A node is cut when a bound on the total gain of every
  completion is at most A.  Two such bounds hold, since each item goes
  to at most one agent.  C(j), the sum over items j..n-1 of the largest
  reach mask any desiring agent has for the item, is computed once per
  instance beside the suffix unions.  G(j), the same sum over the
  marginal gains |reach & ~mask| under the node's masks, is never
  larger, as a marginal gain only shrinks while its agent's mask grows
  further down; it costs a pass over the remaining items, so it is tried
  only when the other cuts fail, and the pass stops once G passes A.
* Zero-gain skip.  Giving item j to an agent that already reaches all of
  it leaves the search state exactly as in the "nobody" branch, which is
  searched first.  Every leaf of the skipped branch has an equal-valued
  twin earlier in scan order, which was either visited or cut by a
  bound; either way the incumbent is already no worse, and only a
  strictly lower value replaces it.  So no skipped leaf is the first
  optimum or could have been returned.
  `all_profiles` uses the same skip: the twin leaves give the same
  profiles.  It uses none of the bounds, because it enumerates every
  profile, not an optimum.

The search recurses once per item, so `fits`, the size check behind
`_guard` and `classify.dispatch`, also refuses instances with more items
than half the interpreter's recursion limit.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass

from .core import Allocation, Instance, ParseError, SizeGuardError

_LIMIT_ENV = "PREFALLOC_ORACLE_LIMIT"
_DEFAULT_LIMIT = 10_000_000


@dataclass(frozen=True)
class OracleResult:
    value: int
    witness: Allocation
    leaves: int


def search_space(inst: Instance) -> int:
    """Number of leaf assignments the oracle would enumerate."""
    space = 1
    for v in inst.items:
        options = 1 + sum(1 for a in inst.agents if v in inst.graphs[a].items)
        space *= options
    return space


def _effective_limit(limit: int | None) -> int:
    if limit is not None:
        return limit
    raw = os.environ.get(_LIMIT_ENV)
    if not raw:
        return _DEFAULT_LIMIT
    try:
        value = int(raw)
    except ValueError:
        value = None
    if value is None or value < 0:
        raise ParseError(f"{_LIMIT_ENV} must be a non-negative integer, got {raw!r}")
    return value


def fits(inst: Instance, limit: int | None = None) -> tuple[bool, str]:
    """Whether the oracle searches inst, and why: the one size check that
    `_guard` enforces and `classify.dispatch` reports."""
    space, cap = search_space(inst), _effective_limit(limit)
    if space > cap:
        return False, f"search space {space} exceeds limit {cap}"
    # The search recurses once per item; leave half the interpreter's
    # recursion limit to the caller's frames.
    depth = sys.getrecursionlimit() // 2
    if len(inst.items) > depth:
        return False, (
            f"{len(inst.items)} items exceed the search depth {depth}, "
            "half the interpreter's recursion limit"
        )
    return True, f"search space {space} within limit {cap}"


def _guard(inst: Instance, limit: int | None) -> None:
    ok, reason = fits(inst, limit)
    if not ok:
        if reason.startswith("search space"):  # a larger limit would lift it
            reason += f"; raise it explicitly or via {_LIMIT_ENV}"
        raise SizeGuardError(reason)


def _prepare(inst: Instance):
    items = inst.items
    agents = inst.agents
    # Per item: desiring agent index -> reach mask, filled in agent order.
    at = {v: j for j, v in enumerate(items)}
    reach: list[dict[int, int]] = [{} for _ in items]
    for ai, a in enumerate(agents):
        g = inst.graphs[a]
        for v, r in zip(g.sorted_items, g.reach):
            reach[at[v]][ai] = r
    sizes = [len(inst.graphs[a].items) for a in agents]
    return items, agents, reach, sizes


def _suffix_bounds(
    reach: list[dict[int, int]], n: int, k: int
) -> tuple[list[list[int]], list[int]]:
    """suffix[ai][j], the union of agent ai's reach masks over items j..n-1,
    and cap[j], the sum over those items of the largest reach mask desiring it."""
    suffix = [[0] * (n + 1) for _ in range(k)]
    cap = [0] * (n + 1)
    for j in range(n - 1, -1, -1):
        for ai in range(k):
            suffix[ai][j] = suffix[ai][j + 1] | reach[j].get(ai, 0)
        cap[j] = cap[j + 1] + max((r.bit_count() for r in reach[j].values()), default=0)
    return suffix, cap


def _to_allocation(inst: Instance, assign: list[int | None]) -> Allocation:
    bundles: dict[str, set[str]] = {}
    for v, ai in zip(inst.items, assign):
        if ai is not None:
            bundles.setdefault(inst.agents[ai], set()).add(v)
    return Allocation.of(bundles)


def minimize(
    inst: Instance, objective: str = "sum", limit: int | None = None
) -> OracleResult:
    """Optimal allocation by branch and bound over all partial allocations.

    objective is "sum" (total dissatisfaction) or "max" (worst agent).
    """
    if objective not in ("sum", "max"):
        raise ValueError(f"unknown objective {objective!r}")
    _guard(inst, limit)
    items, agents, reach, sizes = _prepare(inst)
    n = len(items)
    k = len(agents)
    suffix, cap = _suffix_bounds(reach, n, k)

    masks = [0] * k
    dissat = sizes[:]
    assign: list[int | None] = [None] * n
    best_value: int | None = None
    best_assign: list[int | None] | None = None
    leaves = 0

    def gain_at_most(j: int, allowance: int) -> bool:
        # True when G(j), the sum over items j..n-1 of the largest marginal
        # gain any desiring agent gets from the item under the current
        # masks, is at most allowance.  Stops as soon as the sum passes it.
        total = 0
        for i in range(j, n):
            best = 0
            for ai, r in reach[i].items():
                gain = (r & ~masks[ai]).bit_count()
                if gain > best:
                    best = gain
            total += best
            if total > allowance:
                return False
        return True

    def pruned(j: int) -> bool:
        # True when no completion from this node can beat the incumbent.
        # Agent ai ends with at least sizes[ai] - |masks[ai] | suffix[ai][j]|
        # dissatisfaction (dissat[ai] is sizes[ai] - |masks[ai]|).  To beat
        # the incumbent the agents must together gain more than allowance,
        # and they gain at most cap[j], and at most G(j).
        if objective == "sum":
            low = 0
            for ai in range(k):
                low += sizes[ai] - (masks[ai] | suffix[ai][j]).bit_count()
            if low >= best_value:
                return True
            allowance = sum(dissat) - best_value
        else:
            need = 0
            for ai in range(k):
                if sizes[ai] - (masks[ai] | suffix[ai][j]).bit_count() >= best_value:
                    return True
                if dissat[ai] >= best_value:
                    need += dissat[ai] - best_value + 1
            if need == 0:
                return False
            allowance = need - 1
        return cap[j] <= allowance or gain_at_most(j, allowance)

    def dfs(j: int) -> None:
        nonlocal best_value, best_assign, leaves
        if j == n:
            leaves += 1
            value = sum(dissat) if objective == "sum" else (max(dissat) if k else 0)
            if best_value is None or value < best_value:
                best_value = value
                best_assign = assign[:]
            return
        if best_value is not None and pruned(j):
            return
        dfs(j + 1)  # leave item j unassigned
        for ai, r in reach[j].items():
            old_mask = masks[ai]
            new_mask = old_mask | r
            if new_mask == old_mask:
                continue  # same state as the "nobody" branch already searched
            gained = (new_mask ^ old_mask).bit_count()
            masks[ai] = new_mask
            dissat[ai] -= gained
            assign[j] = ai
            dfs(j + 1)
            assign[j] = None
            dissat[ai] += gained
            masks[ai] = old_mask

    dfs(0)
    assert best_value is not None and best_assign is not None
    return OracleResult(best_value, _to_allocation(inst, best_assign), leaves)


def all_profiles(inst: Instance, limit: int | None = None) -> frozenset[tuple[int, ...]]:
    """Every dissatisfaction profile any partial allocation can realize."""
    _guard(inst, limit)
    items, agents, reach, sizes = _prepare(inst)
    n = len(items)
    k = len(agents)
    masks = [0] * k
    dissat = sizes[:]
    out: set[tuple[int, ...]] = set()

    def dfs(j: int) -> None:
        if j == n:
            out.add(tuple(dissat))
            return
        dfs(j + 1)
        for ai, r in reach[j].items():
            old_mask = masks[ai]
            new_mask = old_mask | r
            if new_mask == old_mask:
                continue  # same profiles as the "nobody" branch
            gained = (new_mask ^ old_mask).bit_count()
            masks[ai] = new_mask
            dissat[ai] -= gained
            dfs(j + 1)
            dissat[ai] += gained
            masks[ai] = old_mask

    dfs(0)
    return frozenset(out)


def decide(
    inst: Instance,
    objective: str,
    threshold: int,
    limit: int | None = None,
) -> Allocation | None:
    """Witness allocation with objective value at most `threshold`, if any."""
    result = minimize(inst, objective, limit)
    if result.value <= threshold:
        return result.witness
    return None
