"""Polynomial special-case solvers versus the oracle and hand examples."""

import hashlib
import json
import random
import string

import pytest

from prefalloc import exact, polyalgos, randgen
from prefalloc.classify import ROUTE, ROUTES, GraphClass, dispatch, solve
from prefalloc.core import PreconditionError, profile, serialize_instance, validate_allocation
from prefalloc.junction import minsum_few_junctions
from prefalloc.kernels import lbap
from prefalloc.polyalgos import (
    minmax_paths,
    minmax_two_matchings,
    minsum_directed_matchings,
    minsum_disjoint_paths,
    minsum_paths,
    minsum_two_star_forests,
    preassign_two_star_forests,
    two_matchings_profiles,
)

from conftest import OUT_OF_DOMAIN, graph, instance, misfit_cases


def check_against_oracle(inst, solver, objective):
    res = solver(inst)
    assert validate_allocation(inst, res.witness) == []
    prof = profile(inst, res.witness)
    got = prof.total if objective == "sum" else prof.maximum
    assert got == res.value
    assert res.value == exact.minimize(inst, objective).value


class TestMinsumDirectedMatchings:
    def test_two_agents_same_arc(self):
        inst = instance({"x": graph("ab", [("a", "b")]), "y": graph("ab", [("a", "b")])})
        assert minsum_directed_matchings(inst).value == 1

    def test_single_agent_gets_its_tail(self):
        inst = instance({"x": graph("ab", [("a", "b")])})
        res = minsum_directed_matchings(inst)
        assert res.value == 0
        assert res.witness.get("x") >= {"a"}

    def test_disjoint_arcs_no_competition(self):
        inst = instance({"x": graph("ab", [("a", "b")]), "y": graph("cd", [("c", "d")])})
        assert minsum_directed_matchings(inst).value == 0

    def test_rejects_isolated_vertex(self):
        inst = instance({"x": graph("abc", [("a", "b")])})
        with pytest.raises(PreconditionError):
            minsum_directed_matchings(inst)

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_oracle(self, seed):
        rng = random.Random(seed)
        inst = randgen.random_instance(
            rng, "matching", rng.randint(2, 8), rng.randint(1, 4)
        )
        check_against_oracle(inst, minsum_directed_matchings, "sum")


class TestPathSolvers:
    def test_two_agents_one_path(self):
        inst = instance({"x": graph("ab", [("a", "b")]), "y": graph("ab", [("a", "b")])})
        assert minsum_paths(inst).value == 1
        assert minmax_paths(inst).value == 1

    def test_disjoint_single_items(self):
        inst = instance({"x": graph("a"), "y": graph("b")})
        assert minsum_paths(inst).value == 0
        assert minmax_paths(inst).value == 0

    def test_three_agents_share_chain(self):
        chain = graph("abc", [("a", "b"), ("b", "c")])
        inst = instance({"x": chain, "y": chain, "z": chain})
        assert minmax_paths(inst).value == 2
        assert minsum_paths(inst).value == 3

    def test_at_most_one_item_per_agent(self):
        chain = graph("abc", [("a", "b"), ("b", "c")])
        inst = instance({"x": chain, "y": chain})
        for solver in (minsum_paths, minmax_paths):
            witness = solver(inst).witness
            assert all(len(items) <= 1 for _, items in witness.pairs)

    def test_rejects_path_forest(self):
        inst = instance({"x": graph("abc", [("a", "b")])})
        with pytest.raises(PreconditionError):
            minsum_paths(inst)

    @pytest.mark.parametrize("seed", range(40))
    @pytest.mark.parametrize(
        "solver,objective", [(minsum_paths, "sum"), (minmax_paths, "max")]
    )
    def test_matches_oracle(self, seed, solver, objective):
        rng = random.Random(1000 + seed)
        inst = randgen.random_instance(
            rng, "path", rng.randint(2, 8), rng.randint(1, 4)
        )
        check_against_oracle(inst, solver, objective)


class TestMinsumDisjointPaths:
    def test_single_agent_collects_component_heads(self):
        inst = instance({"x": graph("abc", [("a", "b")])})
        res = minsum_disjoint_paths(inst)
        assert res.value == 0
        assert res.witness.get("x") >= {"a", "c"}

    def test_two_agents_two_components_each(self):
        g = graph("abcd", [("a", "b"), ("c", "d")])
        inst = instance({"x": g, "y": g})
        assert minsum_disjoint_paths(inst).value == 2

    def test_agrees_with_matching_solver_on_arc_forests(self):
        for seed in range(15):
            rng = random.Random(2000 + seed)
            inst = randgen.random_instance(
                rng, "matching", rng.randint(2, 8), rng.randint(1, 3)
            )
            assert (
                minsum_disjoint_paths(inst).value
                == minsum_directed_matchings(inst).value
            )

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_oracle(self, seed):
        rng = random.Random(3000 + seed)
        inst = randgen.random_instance(
            rng, "disjoint-paths", rng.randint(2, 8), rng.randint(1, 4)
        )
        check_against_oracle(inst, minsum_disjoint_paths, "sum")


class TestTwoStarForests:
    def test_personal_items_go_home(self):
        inst = instance({"x": graph("ab", [("a", "b")]), "y": graph("c")})
        pre = preassign_two_star_forests(inst)
        assert pre.get("x") == {"a", "b"}
        assert pre.get("y") == {"c"}

    def test_one_root_star_resolves_leaves(self):
        # x roots a at {b}; y sees both only as leaves (roots r1, r2)
        gx = graph("ab", [("a", "b")])
        gy = graph("abrs", [("r", "a"), ("s", "b")])
        inst = instance({"x": gx, "y": gy})
        pre = preassign_two_star_forests(inst)
        assert pre.get("x") >= {"a"}
        assert pre.get("y") >= {"b", "r", "s"}

    def test_identical_star_preassigns_nothing(self):
        g = graph("rxy", [("r", "x"), ("r", "y")])
        inst = instance({"x": g, "y": g})
        assert preassign_two_star_forests(inst).pairs == ()

    def test_identical_star_value(self):
        g = graph("rxy", [("r", "x"), ("r", "y")])
        inst = instance({"x": g, "y": g})
        assert minsum_two_star_forests(inst).value == 1

    def test_fully_personal_value_zero(self):
        inst = instance({"x": graph("ab", [("a", "b")]), "y": graph("cd", [("c", "d")])})
        assert minsum_two_star_forests(inst).value == 0

    def test_rejects_non_star_shapes(self):
        chain = graph("abc", [("a", "b"), ("b", "c")])
        inst = instance({"x": chain, "y": chain})
        with pytest.raises(PreconditionError):
            minsum_two_star_forests(inst)

    def test_rejects_wrong_agent_count(self):
        inst = instance({"x": graph("a")})
        with pytest.raises(PreconditionError):
            minsum_two_star_forests(inst)

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_oracle_and_extends_preassignment(self, seed):
        rng = random.Random(4000 + seed)
        inst = randgen.random_instance(rng, "union-out-stars", rng.randint(2, 8), 2)
        check_against_oracle(inst, minsum_two_star_forests, "sum")
        pre = preassign_two_star_forests(inst)
        assert pre == preassign_two_star_forests(inst)
        witness = minsum_two_star_forests(inst).witness
        for agent, items in pre.pairs:
            assert items <= witness.get(agent)

    def test_values_and_witnesses_are_pinned(self):
        # sha256 of (value, sorted witness) over 200 seeded draws, one in
        # four at the benchmark's 160 items and the rest at 2-40 items.
        # Ties between optimal witnesses are broken by which min cut the
        # independent set reads, so the pin holds that choice in place.
        got = []
        for seed in range(200):
            rng = random.Random(f"star-forests/{seed}")
            n = 160 if seed % 4 == 0 else rng.randint(2, 40)
            res = minsum_two_star_forests(randgen.random_instance(rng, "union-out-stars", n, 2))
            got.append([res.value, [[a, sorted(items)] for a, items in res.witness.pairs]])
        digest = hashlib.sha256(json.dumps(got).encode()).hexdigest()
        assert digest == "214fe8031de57f89d3708492576caec9addde1333579b10a3f82044c0e1bc3ae"


class TestTwoMatchings:
    def test_two_cycle_reaches_zero(self):
        inst = instance({"x": graph("ab", [("a", "b")]), "y": graph("ab", [("b", "a")])})
        res = minmax_two_matchings(inst)
        assert res.value == 0
        assert (0, 0) in two_matchings_profiles(inst)

    def test_lone_arc_against_empty_agent(self):
        inst = instance({"x": graph("ab", [("a", "b")]), "y": graph("", [])})
        res = minmax_two_matchings(inst)
        assert res.value == 0
        assert two_matchings_profiles(inst) == {(0, 0), (1, 0), (2, 0)}

    def test_profile_set_size_bound(self):
        for seed in range(15):
            rng = random.Random(5000 + seed)
            n = rng.randint(2, 8)
            inst = randgen.random_instance(rng, "matching", n, 2)
            profs = two_matchings_profiles(inst)
            assert len(profs) <= (inst.num_items + 1) ** 2

    @pytest.mark.parametrize("seed", range(40))
    def test_profiles_match_oracle(self, seed):
        rng = random.Random(6000 + seed)
        inst = randgen.random_instance(rng, "matching", rng.randint(2, 8), 2)
        assert two_matchings_profiles(inst) == exact.all_profiles(inst)

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_oracle(self, seed):
        rng = random.Random(7000 + seed)
        inst = randgen.random_instance(rng, "matching", rng.randint(2, 8), 2)
        check_against_oracle(inst, minmax_two_matchings, "max")


# Hand-built two-matching instances and the witness each had before the
# program charged arcs one at a time; the witness is the first optimal
# pair in the program's scan order, so it must not move.
PINNED_TWO_MATCHINGS = {
    "lone-path": (
        {"x": graph("abcd", [("a", "b"), ("d", "c")]), "y": graph("bc", [("c", "b")])},
        0,
        {"x": "ad", "y": "c"},
    ),
    "two-cycle": (
        {"x": graph("ab", [("a", "b")]), "y": graph("ab", [("a", "b")])},
        1,
        {"x": "a", "y": "b"},
    ),
    "six-cycle": (
        {
            "x": graph("abcdef", [("a", "b"), ("c", "d"), ("e", "f")]),
            "y": graph("abcdef", [("c", "b"), ("d", "e"), ("a", "f")]),
        },
        2,
        {"x": "ace", "y": "bdf"},
    ),
    "paths-and-cycles": (
        {
            "x": graph("abcdefghjk", [("a", "b"), ("c", "d"), ("e", "f"), ("h", "g"), ("j", "k")]),
            "y": graph("abcdefgi", [("b", "a"), ("d", "e"), ("f", "c"), ("g", "i")]),
        },
        0,
        {"x": "acehj", "y": "bdfg"},
    ),
    "empty-agent": (
        {"x": graph("abcd", [("a", "b"), ("c", "d")]), "y": graph("", [])},
        0,
        {"x": "ac"},
    ),
}


# Chain-route witnesses captured from the flow assignment; the value must
# also agree with the junction solver, which sees no junction here.
PINNED_CHAINS = {
    "two-on-one-path": (
        minsum_paths,
        {"x": graph("abc", [("a", "b"), ("b", "c")]), "y": graph("abc", [("a", "b"), ("b", "c")])},
        1,
        {"x": "b", "y": "a"},
    ),
    "contested-arc": (
        minsum_directed_matchings,
        {
            "x": graph("ab", [("a", "b")]),
            "y": graph("abcd", [("a", "b"), ("c", "d")]),
            "z": graph("cd", [("d", "c")]),
        },
        1,
        {"x": "b", "y": "ac", "z": "d"},
    ),
    "isolated-vs-path": (
        minsum_disjoint_paths,
        {"x": graph("abcd", [("b", "c"), ("c", "d")]), "y": graph("ab", [("a", "b")]), "z": graph("a")},
        2,
        {"x": "b", "y": "a"},
    ),
    "mixed-components": (
        minsum_disjoint_paths,
        {
            "w": graph("abcdefg", [("a", "b"), ("b", "c"), ("e", "f")]),
            "x": graph("bcdg", [("d", "b"), ("b", "c")]),
            "y": graph("acef", [("c", "a"), ("f", "e")]),
            "z": graph("dg", [("g", "d")]),
        },
        3,
        {"w": "ae", "x": "d", "y": "cf", "z": "g"},
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED_CHAINS))
def test_chain_witness_is_pinned(case):
    solver, graphs, value, bundles = PINNED_CHAINS[case]
    inst = instance(graphs)
    res = solver(inst)
    assert res.value == value
    assert {a: "".join(sorted(items)) for a, items in res.witness.pairs} == bundles
    assert profile(inst, res.witness).total == value
    assert minsum_few_junctions(inst).value == value


@pytest.mark.parametrize("case", sorted(PINNED_TWO_MATCHINGS))
def test_two_matchings_witness_is_pinned(case):
    graphs, value, bundles = PINNED_TWO_MATCHINGS[case]
    res = minmax_two_matchings(instance(graphs))
    assert res.value == value
    assert {a: "".join(sorted(items)) for a, items in res.witness.pairs} == bundles


def alternating(n, closed, flips, first="x"):
    """Two matchings whose overlay is one alternating path, or cycle, on n items.

    Arc k joins the k-th and (k + 1)-th letters (wrapping round when
    closed) and belongs to `first` for even k, to the other agent for odd
    k; bit k of `flips` reverses it.
    """
    names = (string.ascii_lowercase + string.ascii_uppercase)[:n]
    arcs = {"x": [], "y": []}
    owners = "xy" if first == "x" else "yx"
    for k in range(n if closed else n - 1):
        u, v = names[k], names[(k + 1) % n]
        arcs[owners[k % 2]].append((v, u) if flips >> k & 1 else (u, v))
    return instance({a: graph({w for arc in arcs[a] for w in arc}, arcs[a]) for a in "xy"})


@pytest.mark.parametrize(
    "n, closed, flips, first",
    [
        (4, True, 0b0000, "x"),
        (6, True, 0b101010, "x"),
        (8, True, 0b11001010, "x"),
        (10, True, 0b1011001110, "x"),
        (10, True, 0, "x"),
        (3, False, 0b01, "y"),
        (5, False, 0b1010, "x"),
        (7, False, 0b110010, "y"),
        (9, False, 0b10110101, "x"),
        (10, False, 0b111000111, "y"),
        (10, False, 0, "x"),
    ],
)
def test_two_matchings_long_alternations_match_oracle(n, closed, flips, first):
    inst = alternating(n, closed, flips, first)
    assert two_matchings_profiles(inst) == exact.all_profiles(inst)
    check_against_oracle(inst, minmax_two_matchings, "max")


def full_table_minmax(inst, monkeypatch):
    """minmax_two_matchings run on the full tables, as if `prune` were off."""
    build = polyalgos._two_matchings_layers
    with monkeypatch.context() as m:
        m.setattr(polyalgos, "_two_matchings_layers", lambda inst, prune: build(inst))
        return minmax_two_matchings(inst)


def pareto_minimal(pairs):
    return {p for p in pairs if not any(q != p and q[0] <= p[0] and q[1] <= p[1] for q in pairs)}


def check_pruning(inst, monkeypatch):
    assert minmax_two_matchings(inst) == full_table_minmax(inst, monkeypatch)
    _, layers = polyalgos._two_matchings_layers(inst, prune=True)
    assert set(layers[-1]) == pareto_minimal(two_matchings_profiles(inst))


@pytest.mark.parametrize("seed", range(10))
def test_two_matchings_pruning_keeps_value_and_witness(monkeypatch, seed):
    rng = random.Random(f"pareto/{seed}")
    for _ in range(30):
        check_pruning(randgen.random_instance(rng, "matching", rng.randint(2, 30), 2), monkeypatch)


@pytest.mark.parametrize(
    "n, closed, flips, first",
    [
        (12, True, 0, "x"),
        (16, True, 0b1011001110100101, "y"),
        (24, True, 0b101010101010101010101010, "x"),
        (26, True, 0b11011000110110011101001011, "y"),
        (15, False, 0b10110101110010, "x"),
        (26, False, 0, "y"),
    ],
)
def test_two_matchings_pruning_on_long_alternations(monkeypatch, n, closed, flips, first):
    check_pruning(alternating(n, closed, flips, first), monkeypatch)


def test_two_matchings_pruned_key_count_regression():
    # One benchmark-size draw: its component tables hold 1,652 keys in
    # full and 165 with the dominated (d1, d2) of each state pair dropped.
    inst = randgen.random_instance(random.Random("pareto-keys"), "matching", 24, 2)
    infos, _ = polyalgos._two_matchings_layers(inst, prune=True)
    assert sum(len(table) for *_, tables in infos for table in tables) == 165


def dense_chain_lbap(inst):
    """`kernels.lbap` on the dense bottleneck matrix of single-path agents.

    One row per agent: an item's depth on the agent's path, else the
    path's length, plus one "receives nothing" column per row.
    """
    cost = []
    for a in inst.agents:
        g = inst.graphs[a]
        path = sorted(g.items, key=lambda v: -g.reach[g.position[v]].bit_count())
        depth = {v: t for t, v in enumerate(path)}
        cost.append([depth.get(v, len(path)) for v in inst.items] + [len(path)] * inst.num_agents)
    return lbap(cost)[0]


@pytest.mark.parametrize("seed", range(10))
def test_minmax_paths_matches_dense_bottleneck_assignment(seed):
    rng = random.Random(f"minmax-paths/{seed}")
    for _ in range(30):
        inst = randgen.random_instance(rng, "path", rng.randint(2, 30), rng.randint(1, 12))
        res = minmax_paths(inst)
        assert validate_allocation(inst, res.witness) == []
        assert profile(inst, res.witness).maximum == res.value
        assert res.value == dense_chain_lbap(inst)


# Each polynomial route's benchmark stratum (perfbench/workloads.py):
# randgen shape, items, agents.  The general-DAG route is checked the
# same way in test_junction.py.
BENCHMARK_SIZES = {
    "minsum-matchings": ("matching", 16, 5),
    "minsum-paths": ("path", 32, 12),
    "minsum-disjoint-paths": ("disjoint-paths", 24, 8),
    "minsum-two-star-forests": ("union-out-stars", 160, 2),
    "minmax-paths": ("path", 32, 12),
    "minmax-two-matchings": ("matching", 24, 2),
}
POLY_ROUTES = [r for r in ROUTES if r.shape is not GraphClass.GENERAL_DAG]


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("route", POLY_ROUTES, ids=lambda r: r.name)
def test_matches_ilp_at_benchmark_size(reference, route, seed):
    # These sizes are past the oracle's reach; the ILP checks them.  Draws
    # the dispatcher sends elsewhere are redrawn, as the benchmark does.
    shape, items, agents = BENCHMARK_SIZES[route.name]
    rng = random.Random(f"{route.name}/{seed}")
    inst = randgen.random_instance(rng, shape, items, agents)
    while dispatch(inst, route.objective).name != route.name:
        inst = randgen.random_instance(rng, shape, items, agents)
    res = solve(inst, route.objective, route.name)
    assert validate_allocation(inst, res.witness) == []
    prof = profile(inst, res.witness)
    assert (prof.total if route.objective == "sum" else prof.maximum) == res.value
    assert res.value == reference["optimum"](serialize_instance(inst), route.objective)


@pytest.mark.parametrize(
    "route,kind", misfit_cases(POLY_ROUTES), ids=lambda p: getattr(p, "name", p)
)
def test_solver_refuses_with_its_route_misfit(route, kind):
    # The route table states each domain once; the solver's refusal is its
    # text, which `solve` prefixes with the route's name.
    inst = OUT_OF_DOMAIN[kind]
    with pytest.raises(PreconditionError) as exc:
        solve(inst, route.objective, route.name)
    assert str(exc.value) == f"{route.name}: {route.misfit(inst)}"


@pytest.mark.parametrize("kind", sorted(OUT_OF_DOMAIN))
@pytest.mark.parametrize(
    "helper,route",
    [
        (preassign_two_star_forests, "minsum-two-star-forests"),
        (two_matchings_profiles, "minmax-two-matchings"),
    ],
)
def test_two_agent_helpers_refuse_with_their_route_misfit(helper, route, kind):
    inst = OUT_OF_DOMAIN[kind]
    with pytest.raises(PreconditionError) as exc:
        helper(inst)
    assert str(exc.value) == ROUTE[route].misfit(inst)


def test_misfit_texts_are_pinned():
    assert ROUTE["minmax-two-matchings"].misfit(OUT_OF_DOMAIN["count"]) == (
        "exactly 2 agents required"
    )
    assert ROUTE["minsum-matchings"].misfit(OUT_OF_DOMAIN["shape"]) == (
        "graph of agent 'x' is not of class 'directed-matching'"
    )
    assert ROUTE["minsum-paths"].misfit(OUT_OF_DOMAIN["count"]) is None
