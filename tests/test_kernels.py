"""Combinatorial kernels checked against brute force on small inputs."""

import hashlib
import itertools
import json
import random

import pytest

from prefalloc.core import PreconditionError
from prefalloc.kernels import (
    bipartite_mwis,
    chain_flow,
    hopcroft_karp,
    lbap,
    lsap,
    max_profit_flow,
    max_weight_matching,
)

from conftest import max_flow_arcs, residual_reach


def brute_assignment(cost, aggregate):
    """Best row->column assignment by trying every injection."""
    n, m = len(cost), len(cost[0])
    best = None
    for cols in itertools.permutations(range(m), n):
        val = aggregate(cost[i][c] for i, c in enumerate(cols))
        if best is None or val < best:
            best = val
    return best


def subset_dp_assignment(cost):
    """Least total cost by a DP over column subsets: best[mask] assigns
    the first popcount(mask) rows to exactly the columns in mask."""
    n, m = len(cost), len(cost[0])
    best = {0: 0}
    for i in range(n):
        nxt = {}
        for mask, val in best.items():
            for j in range(m):
                if not mask >> j & 1:
                    key = mask | 1 << j
                    cand = val + cost[i][j]
                    if cand < nxt.get(key, cand + 1):
                        nxt[key] = cand
        best = nxt
    return min(best.values())


def brute_max_profit_flow(arcs, source, sink):
    """(feasible, profit) over every integer flow vector within the bounds.

    An unbounded arc is tried up to the summed finite capacities and lower
    bounds: on a DAG an optimal flow splits into source-sink paths, and a
    path of unbounded arcs only (profit <= 0) is needed only to meet a
    lower bound, so no arc needs more than that.
    """
    limit = sum(low + (cap or 0) for _, _, low, cap, _ in arcs)
    ranges = [
        range(low, (limit if cap is None else cap) + 1) for _, _, low, cap, _ in arcs
    ]
    best = None
    for flows in itertools.product(*ranges):
        net = {}
        for f, (u, v, _, _, _) in zip(flows, arcs):
            net[u] = net.get(u, 0) + f
            net[v] = net.get(v, 0) - f
        if any(x for node, x in net.items() if node not in (source, sink)):
            continue
        if net.get(source, 0) < 0 or net.get(source, 0) + net.get(sink, 0):
            continue  # the flow must run from source to sink
        profit = sum(f * p for f, (_, _, _, _, p) in zip(flows, arcs))
        if best is None or profit > best:
            best = profit
    return (False, None) if best is None else (True, best)


def assert_valid_flow(arcs, flows, profit):
    """Flows within their bounds, conserved off s and t, worth `profit`."""
    assert profit == sum(f * p for f, (_, _, _, _, p) in zip(flows, arcs))
    net = {}
    for f, (u, v, low, cap, _) in zip(flows, arcs):
        assert low <= f and (cap is None or f <= cap)
        net[u] = net.get(u, 0) + f
        net[v] = net.get(v, 0) - f
    assert all(x == 0 for node, x in net.items() if node not in ("s", "t"))


def random_flow_dag(rng):
    """At most 6 arcs along a topological order of s, 1-3 more nodes and t,
    with lower bounds, unbounded arcs (profit <= 0) and parallel arcs.  One
    network in four shuffles the order, so arcs may enter s or leave t."""
    nodes = ["s"] + ["abc"[i] for i in range(rng.randint(1, 3))] + ["t"]
    if rng.random() < 0.25:
        rng.shuffle(nodes)
    arcs = []
    for _ in range(rng.randint(1, 6)):
        i, j = sorted(rng.sample(range(len(nodes)), 2))
        low = rng.choice((0,) * 6 + (1, 2))
        if rng.random() < 0.2:
            arcs.append((nodes[i], nodes[j], low, None, rng.randint(-3, 0)))
        else:
            cap = rng.randint(low, low + 2)
            arcs.append((nodes[i], nodes[j], low, cap, rng.randint(-3, 4)))
    return arcs


def brute_max_matching(n_left, n_right, adj):
    edges = [(u, v) for u in range(n_left) for v in adj[u]]
    best = 0
    for r in range(min(n_left, n_right), 0, -1):
        for combo in itertools.combinations(edges, r):
            if len({u for u, _ in combo}) == r and len({v for _, v in combo}) == r:
                return r
    return best


class TestLsap:
    def test_known_square(self):
        cost = [[4, 1, 3], [2, 0, 5], [3, 2, 2]]
        total, cols = lsap(cost)
        assert total == 5
        assert sorted(cols) == [0, 1, 2]
        assert sum(cost[i][c] for i, c in enumerate(cols)) == 5

    def test_empty(self):
        assert lsap([]) == (0, [])

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_brute_force(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 5)
        m = rng.randint(n, 6)
        cost = [[rng.randint(0, 9) for _ in range(m)] for _ in range(n)]
        total, cols = lsap(cost)
        assert len(set(cols)) == n
        assert total == sum(cost[i][c] for i, c in enumerate(cols))
        assert total == brute_assignment(cost, sum)

    def test_rejects_more_rows_than_columns(self):
        with pytest.raises(PreconditionError):
            lsap([[1], [2]])

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_subset_dp(self, seed):
        # Beyond the permutation brute force: up to 8 x 12, costs drawn
        # from a few values so that many assignments tie.
        rng = random.Random(400 + seed)
        n = rng.randint(5, 8)
        m = rng.randint(n, 12)
        values = rng.sample(range(10), rng.randint(1, 3))
        cost = [[rng.choice(values) for _ in range(m)] for _ in range(n)]
        total, cols = lsap(cost)
        assert len(cols) == n and len(set(cols)) == n
        assert total == sum(cost[i][c] for i, c in enumerate(cols))
        assert total == subset_dp_assignment(cost)


class TestLbap:
    def test_known_square(self):
        cost = [[9, 2], [2, 9]]
        bottleneck, cols = lbap(cost)
        assert bottleneck == 2
        assert cols == [1, 0]

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_brute_force(self, seed):
        rng = random.Random(100 + seed)
        n = rng.randint(1, 5)
        m = rng.randint(n, 6)
        cost = [[rng.randint(0, 9) for _ in range(m)] for _ in range(n)]
        bottleneck, cols = lbap(cost)
        assert len(set(cols)) == n
        assert bottleneck == max(cost[i][c] for i, c in enumerate(cols))
        assert bottleneck == brute_assignment(cost, max)

    @pytest.mark.parametrize("cost", [[[1, 2], [3]], [[5], [1, 0]]])
    def test_rejects_ragged_matrix(self, cost):
        with pytest.raises(PreconditionError, match="ragged cost matrix"):
            lbap(cost)


class TestHopcroftKarp:
    def test_known_graph(self):
        size, match_l = hopcroft_karp(3, 3, [[0, 1], [0], [1, 2]])
        assert size == 3
        assert sorted(match_l) == [0, 1, 2]

    def test_unmatchable_left_vertex(self):
        size, match_l = hopcroft_karp(2, 1, [[0], [0]])
        assert size == 1
        assert match_l.count(-1) == 1

    def test_long_augmenting_path_does_not_recurse(self):
        # The first phase matches i -> i+1 greedily and strands the last
        # vertex; its augmenting path then runs through all 3000 vertices.
        n = 3000
        adj = [[i + 1, i] if i + 1 < n else [i] for i in range(n)]
        size, match_l = hopcroft_karp(n, n, adj)
        assert size == n
        assert match_l == list(range(n))

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_brute_force(self, seed):
        rng = random.Random(200 + seed)
        nl, nr = rng.randint(1, 5), rng.randint(1, 5)
        adj = [
            sorted({rng.randrange(nr) for _ in range(rng.randint(0, 3))})
            for _ in range(nl)
        ]
        size, match_l = hopcroft_karp(nl, nr, adj)
        matched = [(u, v) for u, v in enumerate(match_l) if v != -1]
        assert len(matched) == size
        assert len({v for _, v in matched}) == size
        assert all(v in adj[u] for u, v in matched)
        assert size == brute_max_matching(nl, nr, adj)


class TestMaxWeightMatching:
    def test_prefers_heavy_pair(self):
        weight, mapping = max_weight_matching(
            ["u", "v"], ["x", "y"], {("u", "x"): 5, ("u", "y"): 1, ("v", "x"): 4}
        )
        assert weight == 5
        # two optima tie at 5: u alone on x, or the pair (u,y),(v,x)
        assert mapping in ({"u": "x"}, {"u": "y", "v": "x"})
        assert sum({"u": {"x": 5, "y": 1}, "v": {"x": 4}}[u][v] for u, v in mapping.items()) == 5

    def test_empty_weights(self):
        assert max_weight_matching(["u"], ["x"], {}) == (0, {})

    def test_rejects_negative(self):
        with pytest.raises(PreconditionError):
            max_weight_matching(["u"], ["x"], {("u", "x"): -1})

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_brute_force(self, seed):
        rng = random.Random(300 + seed)
        left = [f"l{i}" for i in range(rng.randint(1, 4))]
        right = [f"r{i}" for i in range(rng.randint(1, 4))]
        weights = {
            (u, v): rng.randint(0, 8)
            for u in left
            for v in right
            if rng.random() < 0.6
        }
        got, mapping = max_weight_matching(left, right, weights)
        assert got == sum(weights[(u, v)] for u, v in mapping.items())
        assert len(set(mapping.values())) == len(mapping)
        best = 0
        pairs = list(weights)
        for r in range(min(len(left), len(right)) + 1):
            for combo in itertools.combinations(pairs, r):
                if len({u for u, _ in combo}) == r and len({v for _, v in combo}) == r:
                    best = max(best, sum(weights[p] for p in combo))
        assert got == best


def brute_min_cut(n, edges, s, t):
    """Minimum s-t cut weight by trying every vertex bipartition."""
    best = None
    rest = [v for v in range(n) if v not in (s, t)]
    for r in range(len(rest) + 1):
        for side in itertools.combinations(rest, r):
            s_side = set(side) | {s}
            w = sum(c for u, v, c in edges if u in s_side and v not in s_side)
            if best is None or w < best:
                best = w
    return best


class TestMaxFlowMinCut:
    """Max-flow as `max_profit_flow` with profit 1 into the sink, and the
    min cut read back from the residual graph of the flows it returns."""

    def test_two_disjoint_unit_paths(self):
        arcs = max_flow_arcs([(0, 1, 1), (1, 3, 1), (0, 2, 1), (2, 3, 1)], 3)
        assert max_profit_flow(arcs, 0, 3)[1] == 2

    def test_flow_on_and_reachability(self):
        arcs = max_flow_arcs([(0, 1, 2), (1, 2, 1)], 2)
        _, flow, flows = max_profit_flow(arcs, 0, 2)
        assert flow == 1
        assert flows == [1, 1]
        # the bottleneck arc (1, 2) is saturated, so 1 stays reachable but 2 not
        assert residual_reach(arcs, flows, 0) == {0, 1}

    def test_long_augmenting_path_does_not_recurse(self):
        n = 3000
        arcs = max_flow_arcs([(i, i + 1, 1) for i in range(n - 1)], n - 1)
        _, flow, flows = max_profit_flow(arcs, 0, n - 1)
        assert flow == 1
        assert flows == [1] * (n - 1)

    @pytest.mark.parametrize("seed", range(30))
    def test_max_flow_equals_min_cut(self, seed):
        rng = random.Random(400 + seed)
        n = rng.randint(2, 6)
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.4:
                    edges.append((u, v, rng.randint(0, 5)))
        arcs = max_flow_arcs(edges, n - 1)
        feasible, flow, flows = max_profit_flow(arcs, 0, n - 1)
        assert feasible
        assert flow == sum(f for f, (_, v, _) in zip(flows, edges) if v == n - 1)
        assert flow == brute_min_cut(n, edges, 0, n - 1)
        # min-cut read back from the residual: no residual arc may cross it
        reach = residual_reach(arcs, flows, 0)
        assert 0 in reach and (n - 1) not in reach
        assert flow == sum(c for u, v, c in edges if u in reach and v not in reach)


class TestBipartiteMwis:
    def test_isolated_vertices_all_chosen(self):
        weight, chosen = bipartite_mwis({"a": 3}, {"b": 4}, [])
        assert weight == 7
        assert chosen == {"a", "b"}

    def test_edge_forces_a_choice(self):
        weight, chosen = bipartite_mwis({"a": 3}, {"b": 4}, [("a", "b")])
        assert weight == 4
        assert chosen == {"b"}

    def test_rejects_overlapping_sides(self):
        with pytest.raises(PreconditionError):
            bipartite_mwis({"a": 1}, {"a": 1}, [])

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_brute_force(self, seed):
        rng = random.Random(500 + seed)
        a = {f"a{i}": rng.randint(0, 6) for i in range(rng.randint(1, 4))}
        b = {f"b{i}": rng.randint(0, 6) for i in range(rng.randint(1, 4))}
        edges = [
            (x, y) for x in a for y in b if rng.random() < 0.5
        ]
        weight, chosen = bipartite_mwis(a, b, edges)
        assert all(not (x in chosen and y in chosen) for x, y in edges)
        assert weight == sum(a.get(v, 0) + b.get(v, 0) for v in chosen)
        verts = list(a) + list(b)
        best = 0
        for r in range(len(verts) + 1):
            for combo in itertools.combinations(verts, r):
                s = set(combo)
                if all(not (x in s and y in s) for x, y in edges):
                    best = max(best, sum(a.get(v, 0) + b.get(v, 0) for v in s))
        assert weight == best

    def test_complement_is_a_vertex_cover(self):
        rng = random.Random(7)
        a = {f"a{i}": rng.randint(1, 5) for i in range(4)}
        b = {f"b{i}": rng.randint(1, 5) for i in range(4)}
        edges = [(x, y) for x in a for y in b if rng.random() < 0.5]
        weight, chosen = bipartite_mwis(a, b, edges)
        cover = (set(a) | set(b)) - chosen
        assert all(x in cover or y in cover for x, y in edges)
        total = sum(a.values()) + sum(b.values())
        cover_weight = sum(a.get(v, 0) + b.get(v, 0) for v in cover)
        assert weight + cover_weight == total

    def test_chosen_sets_are_pinned(self):
        got = []
        for seed in range(300):
            weight, chosen = bipartite_mwis(*_mwis_draw(seed))
            got.append([weight, sorted(chosen)])
        digest = hashlib.sha256(json.dumps(got).encode()).hexdigest()
        assert digest == PINNED_MWIS_DIGEST


def _mwis_draw(seed):
    """Up to 7 vertices a side, zero weights and duplicate edges included."""
    rng = random.Random(f"mwis/{seed}")
    a = {f"a{i}": rng.randint(0, 6) for i in range(rng.randint(0, 7))}
    b = {f"b{i}": rng.randint(0, 6) for i in range(rng.randint(0, 7))}
    if not (a and b):
        return a, b, []
    edges = [(rng.choice(sorted(a)), rng.choice(sorted(b))) for _ in range(rng.randint(0, 14))]
    return a, b, edges


# sha256 of the (weight, sorted chosen set) list over _mwis_draw(0..299).
# Every maximum flow leaves the same vertices reachable from the source,
# so the chosen set must not move with the flow algorithm.
PINNED_MWIS_DIGEST = "5413fa78a3fd4a87bb3114e38c6195c98b0baa7a009c01e822cf9d88bf11e50f"


class TestMaxProfitFlow:
    def test_simple_profitable_arc(self):
        feasible, profit, flows = max_profit_flow(
            [("s", "t", 0, 3, 2)], "s", "t"
        )
        assert feasible
        assert profit == 6
        assert flows == [3]

    def test_losses_are_left_at_lower_bound(self):
        feasible, profit, flows = max_profit_flow(
            [("s", "t", 1, 5, -3)], "s", "t"
        )
        assert feasible
        assert profit == -3
        assert flows == [1]

    def test_infeasible_lower_bound(self):
        # the middle node cannot pass 2 units on when the exit caps at 1
        feasible, profit, flows = max_profit_flow(
            [("s", "m", 2, 2, 0), ("m", "t", 0, 1, 0)], "s", "t"
        )
        assert not feasible

    def test_chained_profit_respects_bottleneck(self):
        feasible, profit, flows = max_profit_flow(
            [("s", "m", 0, 4, 5), ("m", "t", 0, 2, 0)], "s", "t"
        )
        assert feasible
        assert profit == 10
        assert flows == [2, 2]

    def test_unbounded_cap_requires_nonpositive_profit(self):
        with pytest.raises(PreconditionError):
            max_profit_flow([("s", "t", 0, None, 1)], "s", "t")

    def test_negative_lower_bound_rejected(self):
        with pytest.raises(PreconditionError):
            max_profit_flow([("s", "t", -1, 2, 1)], "s", "t")

    def test_conservation_holds(self):
        arcs = [
            ("s", "a", 0, 3, 1),
            ("s", "b", 1, 2, 0),
            ("a", "t", 0, 2, 2),
            ("b", "t", 0, 2, 1),
            ("a", "b", 0, 1, 0),
        ]
        feasible, profit, flows = max_profit_flow(arcs, "s", "t")
        assert feasible
        assert_valid_flow(arcs, flows, profit)

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_brute_force_on_random_dags(self, seed):
        rng = random.Random(seed)
        for _ in range(10):
            arcs = random_flow_dag(rng)
            feasible, profit, flows = max_profit_flow(arcs, "s", "t")
            assert len(flows) == len(arcs)
            expected = brute_max_profit_flow(arcs, "s", "t")
            assert (feasible, profit if feasible else None) == expected, arcs
            if feasible:
                assert_valid_flow(arcs, flows, profit)

    def test_cyclic_arc_list_rejected(self):
        with pytest.raises(PreconditionError):
            max_profit_flow(
                [("s", "a", 0, 1, 1), ("a", "b", 0, 1, 0), ("b", "a", 0, 1, 0)],
                "s",
                "b",
            )
        with pytest.raises(PreconditionError):
            max_profit_flow([("a", "b", 0, 1, 0), ("b", "a", 0, 1, 0)], "a", "b")


@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda: lsap([[1, 2], [3]]), "ragged cost matrix"),
        (lambda: lsap([[1, -1]]), "negative entries; shift the matrix first"),
        (lambda: lbap([]), (0, [])),
        (lambda: lbap([[1], [2]]), "more rows than columns"),
        (
            lambda: max_weight_matching(["u"], ["x"], {("u", "y"): 1}),
            "edge ('u', 'y') off the vertex sets",
        ),
        (lambda: bipartite_mwis({"a": -1}, {"b": 1}, []), "negative vertex weights"),
        (
            lambda: bipartite_mwis({"a": 1}, {"b": 1}, [("b", "a")]),
            "edge ('b', 'a') off the vertex sets",
        ),
        (lambda: max_profit_flow([("s", "t", 2, 1, 0)], "s", "t"), "capacity below lower bound"),
    ],
)
def test_input_edges(call, expected):
    """A refusal's exact text (str), or the return value at an edge."""
    if isinstance(expected, str):
        with pytest.raises(PreconditionError) as exc:
            call()
        assert str(exc.value) == expected
    else:
        assert call() == expected


def chain_network(rows, exits, groups):
    """The chain network that `kernels.chain_flow` solves, as arcs for
    `max_profit_flow` from "s" to "t": s -> item -> row node -> exit -> t.

    An item earns its gain on its arc to the row node, and each row node
    has one capacity-1 arc to its exit, t or its group node, so a row hands
    out at most one item; each group's arc to t has lower bound 1.  Arc
    order decides ties between equally profitable flows: each row's item
    arcs in row order, then its exit arc, rows in the given order, then the
    s -> item arcs in descending item order, then each group's arc to t.
    """
    arcs, items = [], set()
    for r, (row, ex) in enumerate(zip(rows, exits)):
        for x, gain in row:
            items.add(x)
            arcs.append((("i", x), ("r", r), 0, 1, gain))
        arcs.append((("r", r), "t" if ex is None else ("g", ex), 0, 1, 0))
    arcs += [("s", ("i", x), 0, 1, 0) for x in sorted(items, reverse=True)]
    arcs += [(("g", k), "t", 1, None, 0) for k in range(groups)]
    return arcs


def reference_chain_flow(rows, exits, groups):
    """`chain_flow`'s (feasible, profit, item per row), read off the flow
    `max_profit_flow` finds on `chain_network`."""
    arcs = chain_network(rows, exits, groups)
    feasible, profit, flows = max_profit_flow(arcs, "s", "t")
    items = [None] * len(rows)
    for (u, v, *_), f in zip(arcs, flows):
        if f and u[0] == "i":
            items[v[1]] = u[1]
    return feasible, profit, items


def _chain_draw(rng):
    """Rows over a small shared pool, as chains (depth t of m items gains
    m - t) or with tied random gains, some empty; each row goes to the sink
    or to one of up to three groups, so some groups get no nonempty row."""
    pool = [f"x{i}" for i in range(rng.randint(1, 9))]
    groups = rng.randint(0, 3)
    rows, exits = [], []
    for _ in range(rng.randint(0, 8)):
        items = rng.sample(pool, rng.randint(0, len(pool)))
        if rng.random() < 0.4:
            rows.append([(x, len(items) - t) for t, x in enumerate(items)])
        else:
            rows.append([(x, rng.randint(1, 3)) for x in items])
        exits.append(rng.randrange(groups) if groups and rng.random() < 0.6 else None)
    return rows, exits, groups


@pytest.mark.parametrize("seed", range(20))
def test_chain_flow_is_max_profit_flow_on_the_chain_network(seed):
    # The same flow, not only the same profit: ties between equally
    # profitable picks must fall the same way.
    rng = random.Random(seed)
    outcomes = set()
    for _ in range(100):
        rows, exits, groups = _chain_draw(rng)
        frozen = json.dumps([rows, exits])
        got = chain_flow(rows, exits, groups)
        assert got == reference_chain_flow(rows, exits, groups), (rows, exits, groups)
        assert json.dumps([rows, exits]) == frozen  # rows are only read
        outcomes.add(got[0])
    assert outcomes == {True, False}
