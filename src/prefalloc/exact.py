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
* Joint gain cap.  Beating the incumbent needs the agents together to
  gain more than an allowance A: under sum, A is sum(dissat) - incumbent;
  under max, every agent a must gain max(0, dissat_a - incumbent + 1),
  and A is those needs' sum less 1 (with no cut when no agent needs any
  gain).  Each item goes to at most one agent, so C(j), the sum over
  items j..n-1 of the largest reach mask any desiring agent has for the
  item, bounds the total gain of every completion, and a node is cut
  when C(j) is at most A.  C(j) is computed once per instance beside the
  suffix unions.
* Private-bit loss bound.  The gain cap counts what the agents can
  still win, so it misses what two agents both need.  once[a][j] holds the
  bits of agent a's suffix union that exactly one of items j..n-1 reaches;
  a bit of it outside mask_a is won only if that item goes to a.  Item i
  gives agent a p_ia = |reach_ia & once[a][j] & ~mask_a| such bits, and as
  it goes to one agent at most, all desiring agents but one lose theirs:
  together at least L(j) = sum over i >= j of (sum_a p_ia - max_a p_ia)
  bits, each item's bits apart from every other's.  Agent a ends with at
  least base_a = sizes_a - |mask_a | suffix[a][j]| plus the private bits
  it loses, so a node is cut when L(j) exceeds a budget: under sum,
  incumbent - 1 - sum_a base_a; under max, where every agent must end below
  the incumbent, the sum over agents of incumbent - 1 - base_a.  L(j) costs
  a pass over the remaining items, so it is tried last, and a pre-check
  skips the pass when sum_a |P_a| - max_a |P_a|, with P_a = once[a][j] &
  ~mask_a, is within the budget: L(j) is never larger, since every item's
  max_a p_ia is at least its share of the largest |P_a|.  Without it, two
  opposed 400-item chains, where no loss is forced, took 20 times longer.
  Like the other bounds, it only cuts nodes no completion of which beats
  the incumbent, so values and witnesses stay as they were.
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

from .core import OBJECTIVES, Allocation, Instance, ParseError, PreconditionError, SizeGuardError

_LIMIT_ENV = "PREFALLOC_ORACLE_LIMIT"
_DEFAULT_LIMIT = 10_000_000


@dataclass(frozen=True)
class OracleResult:
    value: int
    witness: Allocation
    leaves: int
    nodes: int


def search_space(inst: Instance) -> int:
    """Number of leaf assignments the oracle would enumerate."""
    space = 1
    for v in inst.items:
        options = 1 + sum(1 for a in inst.agents if v in inst.graphs[a].items)
        space *= options
    return space


def _effective_limit() -> int:
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


def _decimal(x: int) -> str:
    """x in decimal or, past the interpreter's int-to-str digit limit, as the
    power of two it reaches."""
    try:
        return str(x)
    except ValueError:
        return f"at least 2**{x.bit_length() - 1}"


def fits(inst: Instance) -> tuple[bool, str]:
    """Whether the oracle searches inst under the limit read from
    PREFALLOC_ORACLE_LIMIT, and why: the one size check that `_guard`
    enforces and `classify.dispatch` reports."""
    space, cap = search_space(inst), _effective_limit()
    if space > cap:
        return False, f"search space {_decimal(space)} exceeds limit {_decimal(cap)}"
    # The search recurses once per item; leave half the interpreter's
    # recursion limit to the caller's frames.
    depth = sys.getrecursionlimit() // 2
    if len(inst.items) > depth:
        return False, (
            f"{len(inst.items)} items exceed the search depth {depth}, "
            "half the interpreter's recursion limit"
        )
    return True, f"search space {_decimal(space)} within limit {_decimal(cap)}"


def _guard(inst: Instance) -> None:
    ok, reason = fits(inst)
    if not ok:
        if reason.startswith("search space"):  # a larger limit would lift it
            reason += f"; raise it via {_LIMIT_ENV}"
        raise SizeGuardError(reason)


def _prepare(inst: Instance) -> tuple[list[dict[int, int]], list[int]]:
    """Per item, desiring agent index -> reach mask, filled in agent order;
    and per agent, its graph's item count."""
    at = inst.position
    reach: list[dict[int, int]] = [{} for _ in inst.items]
    for ai, a in enumerate(inst.agents):
        g = inst.graphs[a]
        for v, r in zip(g.sorted_items, g.reach):
            reach[at[v]][ai] = r
    sizes = [len(inst.graphs[a].items) for a in inst.agents]
    return reach, sizes


def _suffix_bounds(
    reach: list[dict[int, int]], n: int, k: int
) -> tuple[list[list[int]], list[list[int]], list[int]]:
    """suffix[ai][j], the union of agent ai's reach masks over items j..n-1,
    once[ai][j], the bits of that union exactly one of those masks holds,
    and cap[j], the sum over those items of the largest reach mask desiring it."""
    suffix = [[0] * (n + 1) for _ in range(k)]
    once = [[0] * (n + 1) for _ in range(k)]
    twice = [0] * k
    cap = [0] * (n + 1)
    for j in range(n - 1, -1, -1):
        for ai in range(k):
            r = reach[j].get(ai, 0)
            twice[ai] |= r & suffix[ai][j + 1]
            suffix[ai][j] = union = suffix[ai][j + 1] | r
            once[ai][j] = union & ~twice[ai]
        cap[j] = cap[j + 1] + max((r.bit_count() for r in reach[j].values()), default=0)
    return suffix, once, cap


def _to_allocation(inst: Instance, assign: list[int | None]) -> Allocation:
    bundles: dict[str, set[str]] = {}
    for v, ai in zip(inst.items, assign):
        if ai is not None:
            bundles.setdefault(inst.agents[ai], set()).add(v)
    return Allocation.of(bundles)


def minimize(inst: Instance, objective: str = "sum") -> OracleResult:
    """Optimal allocation by branch and bound over all partial allocations.

    objective is "sum" (total dissatisfaction) or "max" (worst agent).
    """
    if objective not in OBJECTIVES:
        raise PreconditionError(f"unknown objective {objective!r}")
    _guard(inst)
    reach, sizes = _prepare(inst)
    n, k = len(inst.items), len(inst.agents)
    score = OBJECTIVES[objective]
    suffix, once, cap = _suffix_bounds(reach, n, k)

    masks = [0] * k
    dissat = sizes[:]
    assign: list[int | None] = [None] * n
    best_value: int | None = None
    best_assign: list[int | None] | None = None
    leaves = nodes = 0

    def loss_above(j: int, budget: int) -> bool:
        # True when L(j), the bits the agents must lose for certain, exceeds
        # budget.  A bit of once[ai][j] & ~masks[ai] is still needed and only
        # one remaining item reaches it, so an item gives each desiring agent
        # p such bits and, going to one agent at most, costs the others theirs.
        private = [once[ai][j] & ~masks[ai] for ai in range(k)]
        counts = [p.bit_count() for p in private]
        if sum(counts) - max(counts) <= budget:
            return False  # L(j) is never larger
        loss = 0
        for i in range(j, n):
            total = top = 0
            for ai, r in reach[i].items():
                p = (r & private[ai]).bit_count()
                total += p
                if p > top:
                    top = p
            loss += total - top
            if loss > budget:
                return True
        return False

    def pruned(j: int) -> bool:
        # True when no completion from this node can beat the incumbent.
        # Agent ai ends with at least base = sizes[ai] - |masks[ai] |
        # suffix[ai][j]| dissatisfaction (dissat[ai] is sizes[ai] -
        # |masks[ai]|).  To beat the incumbent the agents must together gain
        # more than allowance, and they gain at most cap[j]; they must also
        # lose no more than budget bits beyond base.
        if objective == "sum":
            low = 0
            for ai in range(k):
                low += sizes[ai] - (masks[ai] | suffix[ai][j]).bit_count()
            if low >= best_value:
                return True
            allowance = sum(dissat) - best_value
            budget = best_value - 1 - low
        else:
            need = budget = 0
            for ai in range(k):
                base = sizes[ai] - (masks[ai] | suffix[ai][j]).bit_count()
                if base >= best_value:
                    return True
                budget += best_value - 1 - base
                if dissat[ai] >= best_value:
                    need += dissat[ai] - best_value + 1
            if need == 0:
                return False
            allowance = need - 1
        return cap[j] <= allowance or loss_above(j, budget)

    def dfs(j: int) -> None:
        nonlocal best_value, best_assign, leaves, nodes
        nodes += 1
        if j == n:
            leaves += 1
            value = score(dissat)
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
    return OracleResult(best_value, _to_allocation(inst, best_assign), leaves, nodes)


def all_profiles(inst: Instance) -> frozenset[tuple[int, ...]]:
    """Every dissatisfaction profile any partial allocation can realize."""
    _guard(inst)
    reach, sizes = _prepare(inst)
    n, k = len(inst.items), len(inst.agents)
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
