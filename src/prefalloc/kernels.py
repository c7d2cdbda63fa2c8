"""Integer combinatorial kernels used by the allocation solvers.

Everything here is exact integer arithmetic on small dense inputs: linear
sum assignment, bottleneck assignment, max-weight bipartite matching,
max-flow / min-cut, max-weight independent set in bipartite graphs, and
max-profit flow with arc lower bounds.  No floating point anywhere.
"""

from __future__ import annotations

from collections import deque
from typing import Hashable, Iterable, Sequence

from .core import PreconditionError


# -- linear sum assignment -------------------------------------------------


def lsap(cost: Sequence[Sequence[int]]) -> tuple[int, list[int]]:
    """Minimize total cost assigning each row to a distinct column.

    Requires len(rows) <= len(cols) and all entries nonnegative integers
    (callers shift their matrices if needed).  Returns (total, cols) with
    cols[i] the column assigned to row i.  O(n^2 m).
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
    big = 1 + (max(max(row) for row in cost) + 1) * (n + m + 1)
    u = [0] * (n + 1)
    v = [0] * (m + 1)
    p = [0] * (m + 1)  # p[j] = row matched to column j (1-indexed, 0 = free)
    way = [0] * (m + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [big] * (m + 1)
        used = [False] * (m + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = big
            j1 = -1
            row = cost[i0 - 1]
            ui0 = u[i0]
            for j in range(1, m + 1):
                if not used[j]:
                    cur = row[j - 1] - ui0 - v[j]
                    if cur < minv[j]:
                        minv[j] = cur
                        way[j] = j0
                    if minv[j] < delta:
                        delta = minv[j]
                        j1 = j
            for j in range(m + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while True:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
            if j0 == 0:
                break
    cols = [-1] * n
    total = 0
    for j in range(1, m + 1):
        if p[j]:
            cols[p[j] - 1] = j - 1
            total += cost[p[j] - 1][j - 1]
    return total, cols


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
    best = attempt(values[hi])
    if best is None:
        raise PreconditionError("no feasible assignment at any threshold")
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

    Weights must be nonnegative.  Reduced to one assignment problem by
    padding with per-row "stay unmatched" columns.  Returns (weight,
    mapping of matched left vertex -> right vertex).
    """
    if not weights:
        return 0, {}
    if any(w < 0 for w in weights.values()):
        raise PreconditionError("negative weights")
    lv = list(left)
    rv = list(right)
    lpos = {x: i for i, x in enumerate(lv)}
    rpos = {x: j for j, x in enumerate(rv)}
    for (a, b) in weights:
        if a not in lpos or b not in rpos:
            raise PreconditionError(f"edge ({a!r}, {b!r}) off the vertex sets")
    top = max(weights.values())
    n = len(lv)
    m = len(rv)
    # Column j < m is right vertex j; columns m..m+n-1 are unmatched slots.
    cost = [[top + 1] * (m + n) for _ in range(n)]
    for (a, b), w in weights.items():
        cost[lpos[a]][rpos[b]] = top - w
    for i in range(n):
        for j in range(m, m + n):
            cost[i][j] = top
    _, cols = lsap(cost)
    matched: dict[Hashable, Hashable] = {}
    total = 0
    for i, j in enumerate(cols):
        if j < m and (lv[i], rv[j]) in weights:
            matched[lv[i]] = rv[j]
            total += weights[(lv[i], rv[j])]
    return total, matched


# -- max flow / min cut ------------------------------------------------------


class Dinic:
    """Max-flow on integer capacities; exposes per-arc flow and the min cut."""

    def __init__(self, n: int):
        self.n = n
        self.adj: list[list[int]] = [[] for _ in range(n)]
        # edges[e] = [to, residual_capacity]; edge e and e^1 are twins
        self.edges: list[list[int]] = []
        self.caps: list[int] = []

    def add_edge(self, u: int, v: int, cap: int) -> int:
        if cap < 0:
            raise PreconditionError("negative capacity")
        eid = len(self.edges)
        self.edges.append([v, cap])
        self.adj[u].append(eid)
        self.edges.append([u, 0])
        self.adj[v].append(eid + 1)
        self.caps.append(cap)
        self.caps.append(0)
        return eid

    def flow_on(self, eid: int) -> int:
        return self.caps[eid] - self.edges[eid][1]

    def max_flow(self, s: int, t: int) -> int:
        total = 0
        while True:
            level = [-1] * self.n
            level[s] = 0
            queue = deque([s])
            while queue:
                u = queue.popleft()
                for eid in self.adj[u]:
                    v, residual = self.edges[eid]
                    if residual > 0 and level[v] == -1:
                        level[v] = level[u] + 1
                        queue.append(v)
            if level[t] == -1:
                return total
            # Blocking flow along current arcs of the level graph, with an
            # explicit path of edge ids instead of recursion.
            it = [0] * self.n
            path: list[int] = []
            u = s
            while True:
                if u == t:
                    pushed = min(self.edges[eid][1] for eid in path)
                    for eid in path:
                        self.edges[eid][1] -= pushed
                        self.edges[eid ^ 1][1] += pushed
                    total += pushed
                    path.clear()
                    u = s
                    continue
                adj = self.adj[u]
                while it[u] < len(adj):
                    eid = adj[it[u]]
                    v, residual = self.edges[eid]
                    if residual > 0 and level[v] == level[u] + 1:
                        path.append(eid)
                        u = v
                        break
                    it[u] += 1
                else:  # dead end: retreat one arc, or stop when s is stuck
                    if not path:
                        break
                    u = self.edges[path.pop() ^ 1][0]
                    it[u] += 1

    def residual_reachable(self, s: int) -> set[int]:
        seen = {s}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for eid in self.adj[u]:
                v, residual = self.edges[eid]
                if residual > 0 and v not in seen:
                    seen.add(v)
                    queue.append(v)
        return seen


# -- max-weight independent set in a bipartite graph -------------------------


def bipartite_mwis(
    a_weights: dict[Hashable, int],
    b_weights: dict[Hashable, int],
    edges: Iterable[tuple[Hashable, Hashable]],
) -> tuple[int, set[Hashable]]:
    """Heaviest set of vertices spanning no edge, sides A and B disjoint.

    Weights must be nonnegative.  Standard cut construction: the chosen
    set is the complement of a minimum vertex cover.  Zero-weight vertices
    may be left out; that never changes the weight.
    """
    if any(w < 0 for w in a_weights.values()) or any(
        w < 0 for w in b_weights.values()
    ):
        raise PreconditionError("negative vertex weights")
    a_list = sorted(a_weights)
    b_list = sorted(b_weights)
    if set(a_list) & set(b_list):
        raise PreconditionError("sides are not disjoint")
    idx: dict[Hashable, int] = {}
    for x in a_list:
        idx[x] = len(idx) + 2
    for x in b_list:
        idx[x] = len(idx) + 2
    net = Dinic(2 + len(idx))
    s, t = 0, 1
    inf = sum(a_weights.values()) + sum(b_weights.values()) + 1
    for x in a_list:
        net.add_edge(s, idx[x], a_weights[x])
    for x in b_list:
        net.add_edge(idx[x], t, b_weights[x])
    edge_list = sorted(edges)
    for a, b in edge_list:
        if a not in a_weights or b not in b_weights:
            raise PreconditionError(f"edge ({a!r}, {b!r}) off the vertex sets")
        net.add_edge(idx[a], idx[b], inf)
    cut = net.max_flow(s, t)
    reach = net.residual_reachable(s)
    chosen = {x for x in a_list if idx[x] in reach}
    chosen |= {x for x in b_list if idx[x] not in reach}
    total = sum(a_weights.values()) + sum(b_weights.values()) - cut
    return total, chosen


# -- min-cost flow (internal) ------------------------------------------------


class _MinCostFlow:
    """Successive shortest paths with Dijkstra and potentials.

    All arc costs must be nonnegative (the caller's transformation
    guarantees this), which keeps reduced costs nonnegative throughout.
    """

    def __init__(self, n: int):
        self.n = n
        self.adj: list[list[int]] = [[] for _ in range(n)]
        # edges[e] = [to, residual, cost]
        self.edges: list[list[int]] = []
        self.caps: list[int] = []

    def add_edge(self, u: int, v: int, cap: int, cost: int) -> int:
        eid = len(self.edges)
        self.edges.append([v, cap, cost])
        self.adj[u].append(eid)
        self.edges.append([u, 0, -cost])
        self.adj[v].append(eid + 1)
        self.caps.append(cap)
        self.caps.append(0)
        return eid

    def flow_on(self, eid: int) -> int:
        return self.caps[eid] - self.edges[eid][1]

    def run(self, s: int, t: int) -> tuple[int, int]:
        import heapq

        inf = float("inf")
        h = [0] * self.n  # potentials
        total_flow = 0
        total_cost = 0
        while True:
            dist = [inf] * self.n
            dist[s] = 0
            prev_edge = [-1] * self.n
            heap = [(0, s)]
            while heap:
                d, u = heapq.heappop(heap)
                if d > dist[u]:
                    continue
                for eid in self.adj[u]:
                    v, residual, cost = self.edges[eid]
                    if residual <= 0:
                        continue
                    nd = d + cost + h[u] - h[v]
                    if nd < dist[v]:
                        dist[v] = nd
                        prev_edge[v] = eid
                        heapq.heappush(heap, (nd, v))
            if dist[t] == inf:
                return total_flow, total_cost
            for v in range(self.n):
                if dist[v] < inf:
                    h[v] += dist[v]
            push = None
            v = t
            while v != s:
                eid = prev_edge[v]
                residual = self.edges[eid][1]
                push = residual if push is None else min(push, residual)
                v = self.edges[eid ^ 1][0]
            v = t
            while v != s:
                eid = prev_edge[v]
                self.edges[eid][1] -= push
                self.edges[eid ^ 1][1] += push
                total_cost += push * self.edges[eid][2]
                v = self.edges[eid ^ 1][0]
            total_flow += push


# -- max-profit flow with lower bounds ----------------------------------------


def max_profit_flow(
    arcs: Sequence[tuple[Hashable, Hashable, int, int | None, int]],
    source: Hashable,
    sink: Hashable,
) -> tuple[bool, int, list[int]]:
    """Most profitable source->sink flow respecting arc bounds.

    Each arc is (u, v, low, cap, profit); cap None means unbounded, which
    is only allowed with profit <= 0.  The flow value itself is free (a
    return arc closes the circulation); only the bounds constrain it.
    Returns (feasible, profit, flows) with flows parallel to `arcs`.
    """
    nodes: dict[Hashable, int] = {}

    def nid(x: Hashable) -> int:
        if x not in nodes:
            nodes[x] = len(nodes)
        return nodes[x]

    nid(source)
    nid(sink)
    finite_total = 0
    for u, v, low, cap, prof in arcs:
        nid(u)
        nid(v)
        if low < 0:
            raise PreconditionError("negative lower bound")
        if cap is not None and cap < low:
            raise PreconditionError("capacity below lower bound")
        if cap is None and prof > 0:
            raise PreconditionError("unbounded arc with positive profit")
        finite_total += low + (cap if cap is not None else 0)
    inf_cap = finite_total + 1
    work = [
        (nid(u), nid(v), low, cap if cap is not None else inf_cap, -prof)
        for u, v, low, cap, prof in arcs
    ]
    # Close the circulation so the flow value is unconstrained.
    work.append((nid(sink), nid(source), 0, inf_cap, 0))

    n = len(nodes)
    excess = [0] * n
    baseline = 0
    # (mcmf edge id, kind) per arc; kind "fwd" or "rev" drives reconstruction
    plan: list[tuple[int, str, int, int]] = []
    mcmf = _MinCostFlow(n + 2)
    super_s, super_t = n, n + 1
    for u, v, low, cap, cost in work:
        span = cap - low
        excess[v] += low
        excess[u] -= low
        baseline += low * cost
        if cost >= 0:
            eid = mcmf.add_edge(u, v, span, cost)
            plan.append((eid, "fwd", low, span))
        else:
            # Profitable arc: take it in full, let reverse flow give some back.
            excess[v] += span
            excess[u] -= span
            baseline += span * cost
            eid = mcmf.add_edge(v, u, span, -cost)
            plan.append((eid, "rev", low, span))
    need = 0
    for v in range(n):
        if excess[v] > 0:
            mcmf.add_edge(super_s, v, excess[v], 0)
            need += excess[v]
        elif excess[v] < 0:
            mcmf.add_edge(v, super_t, -excess[v], 0)
    got, extra_cost = mcmf.run(super_s, super_t)
    if got != need:
        return False, 0, [0] * len(arcs)
    flows = []
    for eid, kind, low, span in plan[:-1]:
        if kind == "fwd":
            flows.append(low + mcmf.flow_on(eid))
        else:
            flows.append(low + span - mcmf.flow_on(eid))
    profit = -(baseline + extra_cost)
    return True, profit, flows
