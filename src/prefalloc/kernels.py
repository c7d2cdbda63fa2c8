"""Integer combinatorial kernels used by the allocation solvers.

Everything here is exact integer arithmetic.  There are two flow entries.
`max_profit_flow` is max-profit flow with arc lower bounds over any DAG
network (successive shortest source->sink paths, no artificial excess);
linear sum assignment, max-weight bipartite matching and max-weight
independent set in bipartite graphs are thin adapters onto it.
`chain_flow` solves the chain network of the chain and junction routes on
integer node ids: the same flow as `max_profit_flow` on the chain
network's arcs, which its docstring lists; rows are read, never mutated.
Bottleneck assignment and cardinality matching complete the set.  Only
the infinity sentinels of `hopcroft_karp`, `max_profit_flow` and
`chain_flow` are floats.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from typing import Hashable, Iterable, Sequence

from .core import PreconditionError


# -- linear sum assignment -------------------------------------------------


def lsap(cost: Sequence[Sequence[int]]) -> tuple[int, list[int]]:
    """Minimize total cost assigning each row to a distinct column.

    Requires len(rows) <= len(cols) and all entries nonnegative integers
    (callers shift their matrices if needed).  Returns (total, cols) with
    cols[i] the column assigned to row i.  Solved by `max_profit_flow`:
    s -> row at lower bound 1, row -> column at profit -cost, column -> t.
    """
    n = len(cost)
    if n == 0:
        return 0, []
    m = len(cost[0])
    if any(len(row) != m for row in cost):
        raise PreconditionError("ragged cost matrix")
    if n > m:
        raise PreconditionError("more rows than columns")
    if any(c < 0 for row in cost for c in row):
        raise PreconditionError("negative entries; shift the matrix first")
    arcs = [(("r", i), ("c", j), 0, 1, -c) for i, row in enumerate(cost) for j, c in enumerate(row)]
    arcs += [("s", ("r", i), 1, 1, 0) for i in range(n)]
    arcs += [(("c", j), "t", 0, 1, 0) for j in range(m)]
    _, profit, flows = max_profit_flow(arcs, "s", "t")
    return -profit, [k % m for k, f in enumerate(flows[: n * m]) if f]


# -- bipartite matching (cardinality) ---------------------------------------


def hopcroft_karp(
    n_left: int, n_right: int, adj: Sequence[Sequence[int]]
) -> tuple[int, list[int]]:
    """Maximum-cardinality bipartite matching.

    adj[i] lists right-side neighbors of left vertex i.  Returns
    (size, match_l) with match_l[i] the matched right vertex or -1.
    """
    inf = float("inf")
    match_l = [-1] * n_left
    match_r = [-1] * n_right
    dist = [inf] * n_left

    def bfs() -> bool:
        queue = deque()
        for i in range(n_left):
            if match_l[i] == -1:
                dist[i] = 0
                queue.append(i)
            else:
                dist[i] = inf
        found = False
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                w = match_r[v]
                if w == -1:
                    found = True
                elif dist[w] == inf:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return found

    def dfs(root: int) -> bool:
        # Augmenting-path search along the BFS layers, with an explicit
        # stack so path length is not bounded by the recursion limit.
        # via[f] is the right vertex leading from path[f] to path[f + 1].
        path = [root]
        todo = [iter(adj[root])]
        via: list[int] = []
        while path:
            u = path[-1]
            for v in todo[-1]:
                w = match_r[v]
                if w == -1:
                    via.append(v)
                    for x, y in zip(path, via):
                        match_l[x] = y
                        match_r[y] = x
                    return True
                if dist[w] == dist[u] + 1:
                    via.append(v)
                    path.append(w)
                    todo.append(iter(adj[w]))
                    break
            else:
                dist[u] = inf  # dead end for the rest of this phase
                path.pop()
                todo.pop()
                if via:
                    via.pop()
        return False

    size = 0
    while bfs():
        for i in range(n_left):
            if match_l[i] == -1 and dfs(i):
                size += 1
    return size, match_l


# -- bottleneck assignment ---------------------------------------------------


def lbap(cost: Sequence[Sequence[int]]) -> tuple[int, list[int]]:
    """Minimize the largest cost used, assigning each row a distinct column.

    Binary search over the distinct entries; feasibility by matching.
    Returns (bottleneck, cols).
    """
    n = len(cost)
    if n == 0:
        return 0, []
    m = len(cost[0])
    if any(len(row) != m for row in cost):
        raise PreconditionError("ragged cost matrix")
    if n > m:
        raise PreconditionError("more rows than columns")
    values = sorted({c for row in cost for c in row})

    def attempt(limit: int) -> list[int] | None:
        adj = [
            [j for j in range(m) if cost[i][j] <= limit] for i in range(n)
        ]
        size, match_l = hopcroft_karp(n, m, adj)
        return match_l if size == n else None

    lo, hi = 0, len(values) - 1
    best = attempt(values[hi])  # every entry admitted: all n <= m rows match
    while lo < hi:
        mid = (lo + hi) // 2
        got = attempt(values[mid])
        if got is not None:
            best = got
            hi = mid
        else:
            lo = mid + 1
    return values[lo], best


# -- max-weight bipartite matching -------------------------------------------


def max_weight_matching(
    left: Sequence[Hashable],
    right: Sequence[Hashable],
    weights: dict[tuple[Hashable, Hashable], int],
) -> tuple[int, dict[Hashable, Hashable]]:
    """Maximum-weight bipartite matching (not necessarily perfect).

    Weights must be nonnegative.  Solved by `max_profit_flow`: s -> left,
    left -> right at profit w, right -> t.  Returns (weight, mapping of
    matched left vertex -> right vertex).
    """
    if any(w < 0 for w in weights.values()):
        raise PreconditionError("negative weights")
    lv, rv = dict.fromkeys(left), dict.fromkeys(right)
    for (a, b) in weights:
        if a not in lv or b not in rv:
            raise PreconditionError(f"edge ({a!r}, {b!r}) off the vertex sets")
    arcs = [(("l", a), ("r", b), 0, 1, w) for (a, b), w in weights.items()]
    arcs += [("s", ("l", a), 0, 1, 0) for a in lv]
    arcs += [(("r", b), "t", 0, 1, 0) for b in rv]
    _, total, flows = max_profit_flow(arcs, "s", "t")
    return total, {a: b for (a, b), f in zip(weights, flows) if f}


# -- max-weight independent set in a bipartite graph -------------------------


def bipartite_mwis(
    a_weights: dict[Hashable, int],
    b_weights: dict[Hashable, int],
    edges: Iterable[tuple[Hashable, Hashable]],
) -> tuple[int, set[Hashable]]:
    """Heaviest set of vertices spanning no edge, sides A and B disjoint.

    Weights must be nonnegative.  The chosen set is the complement of a
    minimum vertex cover, found as a min cut by `max_profit_flow`:
    s -> A at capacity w, A -> B unbounded, B -> t at capacity w and
    profit 1, so the profit is the max-flow value.  The cover is read off
    the residual graph: the A vertices s does not reach and the B vertices
    it does.  Every maximum flow leaves the same vertices reachable, so
    the set does not depend on the flow found.  Zero-weight vertices may
    be left out; that never changes the weight.
    """
    if any(w < 0 for w in a_weights.values()) or any(
        w < 0 for w in b_weights.values()
    ):
        raise PreconditionError("negative vertex weights")
    if a_weights.keys() & b_weights.keys():
        raise PreconditionError("sides are not disjoint")
    arcs = [("s", ("a", x), 0, w, 0) for x, w in a_weights.items()]
    arcs += [(("b", y), "t", 0, w, 1) for y, w in b_weights.items()]
    for a, b in edges:
        if a not in a_weights or b not in b_weights:
            raise PreconditionError(f"edge ({a!r}, {b!r}) off the vertex sets")
        arcs.append((("a", a), ("b", b), 0, None, 0))
    _, cut, flows = max_profit_flow(arcs, "s", "t")
    residual: dict[Hashable, list[Hashable]] = {}
    for (u, v, _, cap, _), f in zip(arcs, flows):
        if cap is None or f < cap:
            residual.setdefault(u, []).append(v)
        if f:
            residual.setdefault(v, []).append(u)
    reach = {"s"}
    todo = ["s"]
    while todo:
        for v in residual.get(todo.pop(), ()):
            if v not in reach:
                reach.add(v)
                todo.append(v)
    chosen = {x for x in a_weights if ("a", x) in reach}
    chosen |= {y for y in b_weights if ("b", y) not in reach}
    total = sum(a_weights.values()) + sum(b_weights.values()) - cut
    return total, chosen


# -- max-profit flow with lower bounds ----------------------------------------


def max_profit_flow(
    arcs: Sequence[tuple[Hashable, Hashable, int, int | None, int]],
    source: Hashable,
    sink: Hashable,
) -> tuple[bool, int, list[int]]:
    """Most profitable source->sink flow respecting arc bounds, on a DAG.

    Each arc is (u, v, low, cap, profit); cap None means unbounded, which
    is only allowed with profit <= 0.  The arcs must form no directed
    cycle.  The flow value itself is free; only the bounds constrain it.
    Returns (feasible, profit, flows) with flows parallel to `arcs`.

    Method: an arc with low > 0 becomes two parallel arcs, one of capacity
    `low` whose profit is raised by M (more than the profits of any two
    flows can differ), and one carrying the rest at the plain profit.
    One pass in topological order finds the cheapest paths from `source`:
    their costs are the start potentials and their tree holds the first
    augmenting path.  Successive shortest paths (Dijkstra on reduced
    costs) then augment source->sink while the path still makes a profit.
    Path costs only rise, so stopping there maximizes the profit over
    every flow value, and the bounds hold exactly when every M arc ends
    saturated.  No return arc, super source or super sink is needed.
    """
    ids: dict[Hashable, int] = {source: 0}
    s = 0
    t = ids.setdefault(sink, len(ids))
    tails: list[int] = []
    heads: list[int] = []
    finite_total = 0
    for u, v, low, cap, prof in arcs:
        if low < 0:
            raise PreconditionError("negative lower bound")
        if cap is None:
            if prof > 0:
                raise PreconditionError("unbounded arc with positive profit")
        elif cap < low:
            raise PreconditionError("capacity below lower bound")
        else:
            finite_total += cap
        finite_total += low
        tails.append(ids.setdefault(u, len(ids)))
        heads.append(ids.setdefault(v, len(ids)))
    n = len(ids)
    m2 = 2 * len(arcs)

    # Residual graph in flat lists: edge e and e ^ 1 are twins, and the
    # cost is the negated profit.  Edge 2k carries arc k above its lower
    # bound; the M edges of the bounded arcs follow from edge m2 on.
    inf_cap = finite_total + 1
    caps = [inf_cap if arc[3] is None else arc[3] for arc in arcs]
    big = 1 + sum(abs(arc[4]) * cap for arc, cap in zip(arcs, caps))
    to: list[int] = []
    res: list[int] = []
    cost: list[int] = []
    for u, v, cap, (_, _, low, _, prof) in zip(tails, heads, caps, arcs):
        to += (v, u)
        res += (cap - low, 0)
        cost += (-prof, prof)
    bounded = [k for k, arc in enumerate(arcs) if arc[2]]
    for k in bounded:
        _, _, low, _, prof = arcs[k]
        to += (heads[k], tails[k])
        res += (low, 0)
        cost += (-prof - big, prof + big)
    adj: list[list[int]] = [[] for _ in range(n)]
    for e in range(0, len(to), 2):
        adj[to[e + 1]].append(e)
        adj[to[e]].append(e + 1)

    # One pass in Kahn's order checks for cycles and finds the cheapest
    # paths from the source: their costs are the start potentials, and
    # their tree gives the first augmenting path.  Nodes the source cannot
    # reach keep potential 0; no residual edge ever leads to them.
    h = [0] * n
    prev = [-1] * n
    seen = [False] * n
    seen[s] = True
    indeg = [0] * n
    for v in heads:
        indeg[v] += 1
    stack = [v for v in range(n) if not indeg[v]]
    done = 0
    while stack:
        u = stack.pop()
        done += 1
        reached = seen[u]
        hu = h[u]
        for e in adj[u]:
            if e & 1:
                continue
            v = to[e]
            if e < m2:
                indeg[v] -= 1
                if not indeg[v]:
                    stack.append(v)
            if reached and res[e]:
                d = hu + cost[e]
                if not seen[v] or d < h[v]:
                    h[v] = d
                    prev[v] = e
                    seen[v] = True
    if done < n:
        raise PreconditionError("arc list has a directed cycle")

    inf = float("inf")
    # h[t] is the cost of the cheapest path, prev its edges; augment while
    # it makes a profit, then find the next one.
    while s != t and seen[t] and h[t] < 0:
        push = inf_cap
        v = t
        while v != s:
            e = prev[v]
            if res[e] < push:
                push = res[e]
            v = to[e ^ 1]
        v = t
        while v != s:
            e = prev[v]
            res[e] -= push
            res[e ^ 1] += push
            v = to[e ^ 1]
        dist = [inf] * n
        dist[s] = 0
        heap = [(0, s)]
        while heap:
            d, u = heappop(heap)
            if u == t:
                break
            if d > dist[u]:
                continue
            du = d + h[u]
            for e in adj[u]:
                if res[e]:
                    v = to[e]
                    nd = du + cost[e] - h[v]
                    if nd < dist[v]:
                        dist[v] = nd
                        prev[v] = e
                        heappush(heap, (nd, v))
        else:
            break  # the sink is out of reach
        # Nodes not settled before the sink move by its distance, which
        # keeps every reduced cost nonnegative.
        cut = dist[t]
        h = [hv + (dv if dv < cut else cut) for hv, dv in zip(h, dist)]

    flows = res[1:m2:2]
    for j, k in enumerate(bounded):
        e = m2 + 2 * j
        if res[e]:
            return False, 0, [0] * len(arcs)
        flows[k] += res[e + 1]
    profit = sum(f * arc[4] for f, arc in zip(flows, arcs))
    return True, profit, flows


# -- chain networks ------------------------------------------------------------


def chain_flow(
    rows: Sequence[Sequence[tuple[Hashable, int]]],
    exits: Sequence[int | None],
    groups: int,
) -> tuple[bool, int, list[Hashable | None]]:
    """Most profitable pick of at most one item per row, each item in one
    row at most, such that every group's rows pick at least one item.

    rows[r] lists its (item, gain) pairs, each item at most once per row,
    and exits[r] is the index of its group in range(groups), or None for a
    row in no group.  Returns (feasible, profit, item per row, None where
    the row picks none); an infeasible network gives (False, 0, all None).
    Rows are read, never mutated.

    This is the same flow as `max_profit_flow` on the chain network: for
    each row in order, its arcs (item, row, 0, 1, gain) in row order and
    then (row, exit, 0, 1, 0), the exit being t or the row's group node;
    then (s, item, 0, 1, 0) in descending item order; then (group, t, 1,
    None, 0) per group.  So it finds the same shortest paths with the same
    ties: node ids follow first appearance in that arc order, the first
    path is the tree that `max_profit_flow`'s Kahn pass leaves, and
    Dijkstra settles nodes in (distance, id) order under the same
    potentials.  Every path starts at an s -> item arc of capacity 1, so
    each augmentation moves one unit, and a row carrying flow has exactly
    one residual arc out: back to its item.
    """
    # Node ids: s 0, t 1, then items, row nodes and group nodes as the arc
    # order first names them.  kind: 1 item, 2 row, 3 group.
    ids: dict[Hashable, int] = {}
    row_node: list[int] = []
    group_node = [0] * groups
    n = 2
    for row, ex in zip(rows, exits):
        r = 0
        for x, _ in row:
            if x not in ids:
                ids[x] = n
                n += 1
            if not r:
                r = n
                n += 1
        if not r:  # an empty row is first named by its exit arc
            r = n
            n += 1
        row_node.append(r)
        if ex is not None and not group_node[ex]:
            group_node[ex] = n
            n += 1
    for g in range(groups):
        if not group_node[g]:
            group_node[g] = n
            n += 1
    label: list[Hashable] = [None] * n
    kind = [0] * n
    out: list[list] = [[] for _ in range(n)]  # item: its (row, gain); group: its rows
    exit_of = [1] * n
    left = [0] * n  # arcs into a row, nonempty rows into a group: the Kahn in-degrees
    for x, v in ids.items():
        label[v], kind[v] = x, 1
    for g in group_node:
        kind[g] = 3
    for row, ex, r in zip(rows, exits, row_node):
        kind[r], left[r] = 2, len(row)
        for x, gain in row:
            out[ids[x]].append((r, gain))
        if ex is not None:
            exit_of[r] = g = group_node[ex]
            out[g].append(r)
            left[g] += bool(row)
    big = 1 + sum(abs(gain) for row in rows for _, gain in row)

    # max_profit_flow's Kahn pass pops s, then the items in ascending order
    # (s pushed them in descending order), each followed by the rows it
    # completes, last row first, each followed by its group once complete.
    # Empty rows and groups of empty rows pop earlier but are never reached.
    # The first relaxation of a node reaching its least cost wins.
    h = [0] * n
    prev = [-1] * n
    gain_in = [0] * n  # the gain of the item arc that set a row's prev
    for x in sorted(ids):
        u = ids[x]
        prev[u] = 0
        done = []
        for r, gain in out[u]:
            if prev[r] < 0 or -gain < h[r]:
                h[r], prev[r], gain_in[r] = -gain, u, gain
            left[r] -= 1
            if not left[r]:
                done.append(r)
        for r in reversed(done):
            v = exit_of[r]
            if prev[v] < 0 or h[r] < h[v]:
                h[v], prev[v] = h[r], r
            if v != 1:
                left[v] -= 1
                # The group's M arc to t beats its plain one by `big`.
                if not left[v] and (prev[1] < 0 or h[v] - big < h[1]):
                    h[1], prev[1] = h[v] - big, v

    # Successive shortest paths.  picked[r] is row r's item node (0: none)
    # and m_live[g] whether group g's lower-bound arc is still unused.  The
    # potentials are h[v] + shift: a round moves only the nodes settled
    # before t, each by its distance less t's, and the shift by t's.
    picked = [0] * n
    picked_gain = [0] * n
    m_live = [k == 3 for k in kind]
    free = list(ids.values())
    inf = float("inf")
    shift = 0
    # A sink the Kahn pass did not reach keeps h[1] = 0: no path to augment.
    while h[1] + shift < 0:
        # Augment one unit along prev from t back to s.
        v = 1
        while v:
            u = prev[v]
            if kind[v] == 2:
                if kind[u] == 1:
                    picked[v], picked_gain[v] = u, gain_in[v]
                else:  # back from its group: the row gives up its item
                    picked[v] = 0
            elif v == 1:
                if kind[u] == 3:
                    m_live[u] = False
            elif not u:  # s -> item
                free.remove(v)
            v = u
        # Settle s: its only residual arcs lead to the free items.
        dist = [inf] * n
        dist[0] = 0
        hs = h[0]
        heap = []
        for x in free:
            dist[x] = nd = hs - h[x]
            prev[x] = 0
            heap.append(nd * n + x)
        heapify(heap)
        settled = [0]
        while heap:
            k = heappop(heap)
            u = k % n
            if u == 1:
                break
            d = k // n
            if d > dist[u]:
                continue
            settled.append(u)
            du = d + h[u]
            k = kind[u]
            if k == 1:
                for r, gain in out[u]:
                    if picked[r] != u:
                        nd = du - gain - h[r]
                        if nd < dist[r]:
                            dist[r], prev[r], gain_in[r] = nd, u, gain
                            heappush(heap, nd * n + r)
            elif k == 2:
                v = picked[u]
                if v:
                    nd = du + picked_gain[u] - h[v]
                else:
                    v = exit_of[u]
                    nd = du - h[v]
                if nd < dist[v]:
                    dist[v], prev[v] = nd, u
                    heappush(heap, nd * n + v)
            else:
                for r in out[u]:
                    if picked[r]:
                        nd = du - h[r]
                        if nd < dist[r]:
                            dist[r], prev[r] = nd, u
                            heappush(heap, nd * n + r)
                nd = du - h[1] - (big if m_live[u] else 0)
                if nd < dist[1]:
                    dist[1], prev[1] = nd, u
                    heappush(heap, nd * n + 1)
        else:
            break  # the sink is out of reach
        cut = dist[1]
        shift += cut
        for v in settled:
            h[v] += dist[v] - cut

    if any(m_live[g] for g in group_node):
        return False, 0, [None] * len(rows)
    profit = sum(picked_gain[r] for r in row_node if picked[r])
    return True, profit, [label[picked[r]] for r in row_node]
