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

`minimize` is a branch and bound over that scan.  Four rules cut it
down without moving the witness:

* Suffix-union bound.  From item j on, agent a can at best gain every
  item of the union of its reach masks over items j..n-1 that it does not
  already reach.  Subtracting that from its current dissatisfaction gives
  a lower bound per agent; their sum (or max) bounds the objective, and a
  node whose bound is at least the incumbent is cut.  Cutting at ">="
  keeps the first optimum: every node on its path has a bound no larger
  than the optimum, which is below every incumbent found before it.
* Joint gain cap.  Each item goes to at most one agent and gains it at
  most its reach mask's size, so C(j), the sum over items j..n-1 of the
  largest reach mask any desiring agent has for the item, bounds the
  total gain of every completion from item j on; an item two agents
  desire counts once.  Under sum the objective ends at least at
  sum(dissat) - C(j), so the node is cut when that is at least the
  incumbent.  Under max, beating the incumbent needs every agent a to
  gain at least max(0, dissat_a - incumbent + 1); the node is cut when
  those needs add up to more than C(j).  Either cut fires only when no
  completion from the node scores below the incumbent, which is all the
  argument for ">=" above uses.
  C is computed once per instance, beside the suffix unions.
* Dynamic joint gain bound.  G(j), the sum over items j..n-1 of the
  largest marginal gain |reach & ~mask| that any desiring agent would get
  from the item under the node's masks, also bounds the total gain of
  every completion: an item goes to at most one agent, and its marginal
  gain only shrinks as that agent's mask grows further down.  G makes the
  same two cuts as C, in its place, and is never larger.  It costs a pass
  over the remaining items, so it is tried only when the two bounds above
  do not cut, and the pass stops once G is too large to cut.  It too cuts
  only when no completion from the node scores below the incumbent, so
  the first optimum keeps its path.
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


def _suffix_unions(reach: list[dict[int, int]], n: int, k: int) -> list[list[int]]:
    """suffix[ai][j]: union of agent ai's reach masks over items j..n-1."""
    suffix = [[0] * (n + 1) for _ in range(k)]
    for j in range(n - 1, -1, -1):
        for ai in range(k):
            suffix[ai][j] = suffix[ai][j + 1] | reach[j].get(ai, 0)
    return suffix


def _suffix_caps(reach: list[dict[int, int]], n: int) -> list[int]:
    """cap[j]: sum over items j..n-1 of the largest reach mask desiring it."""
    cap = [0] * (n + 1)
    for j in range(n - 1, -1, -1):
        cap[j] = cap[j + 1] + max((r.bit_count() for r in reach[j].values()), default=0)
    return cap


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
    suffix = _suffix_unions(reach, n, k)
    cap = _suffix_caps(reach, n)

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
        # dissatisfaction (dissat[ai] is sizes[ai] - |masks[ai]|), and all
        # agents together gain at most cap[j], and at most G(j).
        if objective == "sum":
            total = sum(dissat)
            if total - cap[j] >= best_value:
                return True
            low = 0
            for ai in range(k):
                low += sizes[ai] - (masks[ai] | suffix[ai][j]).bit_count()
            if low >= best_value:
                return True
            return gain_at_most(j, total - best_value)
        need = 0
        for ai in range(k):
            if sizes[ai] - (masks[ai] | suffix[ai][j]).bit_count() >= best_value:
                return True
            if dissat[ai] >= best_value:
                need += dissat[ai] - best_value + 1
        if need == 0:
            return False
        return need > cap[j] or gain_at_most(j, need - 1)

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
