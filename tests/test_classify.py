"""Graph class labels, junction counting, solver routing."""

import hashlib
import itertools
import json
import random
import sys

import pytest

from prefalloc import exact, polyalgos, randgen
from prefalloc.classify import (
    DEFAULT_GAMMA_LIMIT,
    GraphClass,
    SolverChoice,
    dispatch,
    instance_class,
    junction_count,
    misfit_agent,
    solve,
)
from prefalloc.core import ParseError, PreconditionError, PreferenceGraph

from conftest import (
    brute_minimum,
    graph,
    instance,
    ladder_instance,
    reachable,
    short_paths_instance,
)

SINGLE = graph("a")
ARC = graph("ab", [("a", "b")])
CHAIN3 = graph("abc", [("a", "b"), ("b", "c")])
STAR3 = graph("abc", [("a", "b"), ("a", "c")])
TWO_ARCS = graph("abcd", [("a", "b"), ("c", "d")])
ISOLATED_PAIR = graph("ab")
DIAMOND = graph("abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
TWO_STARS = graph("abcde", [("a", "b"), ("a", "c"), ("d", "e")])


def most_specific(g):
    """Most specific label of one graph: its one-agent instance's class."""
    return instance_class(instance({"x": g}))


class TestPredicates:
    def test_single_vertex_memberships(self):
        cs = SINGLE.classes
        assert GraphClass.OUT_STAR in cs
        assert GraphClass.PATH in cs
        assert GraphClass.OUT_TREE in cs
        assert GraphClass.DISJOINT_PATHS in cs
        assert GraphClass.UNION_OUT_STARS in cs
        # an isolated vertex has total degree zero, so no matching
        assert GraphClass.DIRECTED_MATCHING not in cs

    def test_single_arc_is_everything(self):
        assert ARC.classes == frozenset(GraphClass)

    def test_chain_is_path_not_star(self):
        cs = CHAIN3.classes
        assert GraphClass.PATH in cs
        assert GraphClass.OUT_STAR not in cs
        assert GraphClass.DIRECTED_MATCHING not in cs
        assert GraphClass.UNION_OUT_STARS not in cs

    def test_star_is_tree_not_path(self):
        cs = STAR3.classes
        assert GraphClass.OUT_STAR in cs
        assert GraphClass.OUT_TREE in cs
        assert GraphClass.UNION_OUT_STARS in cs
        assert GraphClass.PATH not in cs
        assert GraphClass.DISJOINT_PATHS not in cs

    def test_two_arcs_form_a_matching(self):
        cs = TWO_ARCS.classes
        assert GraphClass.DIRECTED_MATCHING in cs
        assert GraphClass.DISJOINT_PATHS in cs
        assert GraphClass.PATH not in cs
        assert GraphClass.OUT_TREE not in cs

    def test_isolated_vertex_breaks_matching(self):
        assert GraphClass.DIRECTED_MATCHING not in ISOLATED_PAIR.classes
        assert GraphClass.DISJOINT_PATHS in ISOLATED_PAIR.classes

    def test_diamond_is_general_dag_only(self):
        assert most_specific(DIAMOND) is GraphClass.GENERAL_DAG

    def test_star_forest(self):
        cs = TWO_STARS.classes
        assert GraphClass.UNION_OUT_STARS in cs
        assert GraphClass.OUT_STAR not in cs
        assert GraphClass.OUT_TREE not in cs

    def test_priority_picks_most_specific(self):
        assert most_specific(SINGLE) is GraphClass.OUT_STAR
        assert most_specific(CHAIN3) is GraphClass.PATH
        assert most_specific(TWO_ARCS) is GraphClass.DIRECTED_MATCHING
        assert most_specific(TWO_STARS) is GraphClass.UNION_OUT_STARS


class TestInstanceClass:
    def test_shared_label(self):
        inst = instance({"x": CHAIN3, "y": graph("ab", [("a", "b")])})
        assert instance_class(inst) is GraphClass.PATH

    def test_star_and_chain_are_both_trees(self):
        inst = instance({"x": STAR3, "y": CHAIN3})
        assert instance_class(inst) is GraphClass.OUT_TREE

    def test_mixed_shapes_fall_back(self):
        inst = instance({"x": STAR3, "y": DIAMOND})
        assert instance_class(inst) is GraphClass.GENERAL_DAG

    def test_all_graphs_are(self):
        inst = instance({"x": TWO_ARCS, "y": graph("ab", [("a", "b")])})
        assert misfit_agent(inst, GraphClass.DIRECTED_MATCHING) is None
        assert misfit_agent(inst, GraphClass.PATH) is not None
        assert misfit_agent(inst, GraphClass.GENERAL_DAG) is None


class TestJunctions:
    def test_fan_out_and_fan_in(self):
        assert DIAMOND.junctions == {"a", "d"}
        assert CHAIN3.junctions == frozenset()
        assert STAR3.junctions == {"a"}

    def test_count_is_per_agent_with_multiplicity(self):
        inst = instance({"x": DIAMOND, "y": DIAMOND})
        assert junction_count(inst) == 4
        assert {a: inst.graphs[a].junctions for a in inst.agents} == {
            "x": {"a", "d"},
            "y": {"a", "d"},
        }


class TestDispatch:
    def test_sum_matchings(self):
        inst = instance({"x": TWO_ARCS, "y": graph("cd", [("c", "d")])})
        assert dispatch(inst, "sum").name == "minsum-matchings"

    def test_sum_paths(self):
        inst = instance({"x": CHAIN3, "y": CHAIN3})
        assert dispatch(inst, "sum").name == "minsum-paths"
        assert dispatch(inst, "max").name == "minmax-paths"

    def test_sum_path_forest(self):
        inst = instance({"x": ISOLATED_PAIR, "y": CHAIN3})
        assert dispatch(inst, "sum").name == "minsum-disjoint-paths"

    def test_max_never_routes_forests_to_bottleneck(self):
        inst = instance({"x": ISOLATED_PAIR, "y": CHAIN3, "z": CHAIN3})
        assert dispatch(inst, "max").name == "oracle"

    def test_max_two_matchings(self):
        inst = instance({"x": TWO_ARCS, "y": TWO_ARCS})
        assert dispatch(inst, "max").name == "minmax-two-matchings"

    def test_max_three_matching_agents_fall_through(self):
        inst = instance({"x": TWO_ARCS, "y": TWO_ARCS, "z": TWO_ARCS})
        assert dispatch(inst, "max").name == "oracle"

    def test_sum_two_star_forests(self):
        inst = instance({"x": TWO_STARS, "y": STAR3})
        assert dispatch(inst, "sum").name == "minsum-two-star-forests"

    def test_sum_junction_route(self):
        inst = instance({"x": DIAMOND, "y": CHAIN3})
        choice = dispatch(inst, "sum")
        assert choice.name == "minsum-junctions"
        assert "gamma = 2" in choice.reason

    def test_sum_gamma_above_limit_goes_to_oracle(self):
        # Every item of a ladder is a junction: gamma = 6 still takes the
        # junction route, gamma = 7 goes to the oracle.
        at, above = ladder_instance(DEFAULT_GAMMA_LIMIT), ladder_instance(DEFAULT_GAMMA_LIMIT + 1)
        assert junction_count(at) == DEFAULT_GAMMA_LIMIT
        assert dispatch(at, "sum") == SolverChoice("minsum-junctions", "gamma = 6 <= 6")
        assert junction_count(above) == DEFAULT_GAMMA_LIMIT + 1
        assert dispatch(above, "sum").name == "oracle"

    def test_oracle_too_large(self, monkeypatch):
        monkeypatch.setenv("PREFALLOC_ORACLE_LIMIT", "3")
        inst = instance({"x": DIAMOND, "y": DIAMOND})
        choice = dispatch(inst, "max")
        assert choice.name == "oracle-too-large"

    @pytest.mark.parametrize("objective", ["sum", "max"])
    def test_oracle_too_deep(self, objective, monkeypatch):
        # One item past half the recursion limit: the search space fits
        # the limit, but the oracle would refuse the search depth.
        n = sys.getrecursionlimit() // 2 + 1
        inst = ladder_instance(n)
        monkeypatch.setenv("PREFALLOC_ORACLE_LIMIT", str(2**n))
        assert dispatch(inst, objective) == SolverChoice(
            "oracle-too-large",
            f"{n} items exceed the search depth {n - 1}, "
            "half the interpreter's recursion limit",
        )
        monkeypatch.setenv("PREFALLOC_ORACLE_LIMIT", str(2**n - 1))
        assert dispatch(inst, objective) == SolverChoice(
            "oracle-too-large", f"search space {2**n} exceeds limit {2**n - 1}"
        )
        monkeypatch.setenv("PREFALLOC_ORACLE_LIMIT", str(2**n))
        fits = ladder_instance(n - 1)
        assert dispatch(fits, objective) == SolverChoice(
            "oracle", f"search space {2 ** (n - 1)} within limit {2**n}"
        )

    def test_search_space_past_the_digit_limit_is_refused(self):
        # 3**12000 has more decimal digits than CPython turns into a string.
        inst = short_paths_instance(12_000)
        assert dispatch(inst, "max") == SolverChoice(
            "oracle-too-large", "search space at least 2**19019 exceeds limit 10000000"
        )

    def test_unknown_objective(self):
        inst = instance({"x": SINGLE})
        with pytest.raises(PreconditionError):
            dispatch(inst, "median")

    def test_default_gamma_limit_is_small(self):
        assert DEFAULT_GAMMA_LIMIT == 6


# -- labels against their definitions ------------------------------------
#
# Reference predicates written from the `GraphClass` member docstrings: arcs are
# read straight from the arc set and reachability from a plain walk over it
# (`conftest.reachable`), so none of them shares a degree shortcut or a
# reach mask with `PreferenceGraph.classes`.


def _in_arcs(g, v):
    return [arc for arc in g.arcs if arc[1] == v]


def _components(g):
    """Induced subgraphs of the weakly connected components."""
    comp = {v: {v} for v in g.items}
    for tail, head in g.arcs:
        if comp[tail] is not comp[head]:
            merged = comp[tail] | comp[head]
            for v in merged:
                comp[v] = merged
    parts = {id(c): c for c in comp.values()}.values()
    return [
        PreferenceGraph(frozenset(c), frozenset(a for a in g.arcs if a[0] in c))
        for c in parts
    ]


def _ref_out_star(g):
    # one root with arcs to every other vertex, and no other arcs
    return any(g.arcs == {(r, v) for v in g.items if v != r} for r in g.items)


def _ref_out_tree(g):
    # one root reaching every item, every other vertex entered by one arc
    return any(
        reachable(g, r) == g.items
        and not _in_arcs(g, r)
        and all(len(_in_arcs(g, v)) == 1 for v in g.items - {r})
        for r in g.items
    )


def _ref_path(g):
    # a walk from some start, one arc at a time, covers every vertex and arc
    for start in g.items:
        walk, used = [start], set()
        while True:
            nxt = [head for tail, head in g.arcs if tail == walk[-1]]
            if len(nxt) != 1:
                break
            used.add((walk[-1], nxt[0]))
            walk.append(nxt[0])
        if len(walk) == len(g.items) and used == g.arcs:
            return True
    return False


def _ref_classes(g):
    parts = _components(g)
    refs = {
        GraphClass.OUT_STAR: _ref_out_star(g),
        GraphClass.OUT_TREE: _ref_out_tree(g),
        GraphClass.PATH: _ref_path(g),
        GraphClass.DISJOINT_PATHS: bool(g.items) and all(map(_ref_path, parts)),
        # disjoint arcs covering all vertices; the empty graph qualifies
        GraphClass.DIRECTED_MATCHING: all(
            len(p.items) == 2 and len(p.arcs) == 1 for p in parts
        ),
        GraphClass.UNION_OUT_STARS: bool(g.items) and all(map(_ref_out_star, parts)),
        GraphClass.GENERAL_DAG: True,
    }
    return frozenset(label for label, holds in refs.items() if holds)


def _ref_junctions(g):
    # vertices with in-degree above one or out-degree above one
    return {v for v in g.items if len(_in_arcs(g, v)) > 1 or sum(t == v for t, _ in g.arcs) > 1}


def _all_small_dags(max_n=4):
    for n in range(max_n + 1):
        verts = "abcd"[:n]
        pairs = list(itertools.permutations(verts, 2))
        for keep in itertools.product((False, True), repeat=len(pairs)):
            arcs = [p for p, k in zip(pairs, keep) if k]
            try:
                yield graph(verts, arcs)
            except ParseError:  # a cycle
                continue


def _randgen_graphs():
    for shape in randgen.SHAPES:
        for size in (2, 3, 5, 8, 12):
            rng = random.Random(size)
            for _ in range(20):
                inst = randgen.random_instance(rng, shape, size, 3)
                yield from inst.graphs.values()


def _assert_labels_match(g):
    want = _ref_classes(g)
    assert g.classes == want, (sorted(g.items), sorted(g.arcs))
    assert g.junctions == _ref_junctions(g)


def test_labels_match_definitions_on_all_small_dags():
    count = 0
    for g in _all_small_dags():
        _assert_labels_match(g)
        count += 1
    assert count == 1 + 1 + 3 + 25 + 543  # labelled DAGs on 0..4 vertices


def test_labels_match_definitions_on_every_randgen_shape():
    for g in _randgen_graphs():
        _assert_labels_match(g)


# -- agents that desire nothing ------------------------------------------

EMPTY = graph("")


def test_empty_graph_is_a_vacuous_matching_only():
    assert EMPTY.classes == {GraphClass.DIRECTED_MATCHING, GraphClass.GENERAL_DAG}


@pytest.mark.parametrize(
    "x, objective, route",
    [
        (ARC, "sum", "minsum-matchings"),
        (ARC, "max", "minmax-two-matchings"),
        (CHAIN3, "sum", "minsum-junctions"),
        (CHAIN3, "max", "oracle"),
    ],
)
def test_agent_desiring_nothing_routes_and_solves(x, objective, route):
    inst = instance({"x": x, "y": EMPTY})
    assert dispatch(inst, objective).name == route
    got = brute_minimum(inst, objective) if route == "oracle" else solve(inst, objective, route).value
    assert got == exact.minimize(inst, objective).value


def test_solve_rechecks_the_value_against_the_witness(monkeypatch):
    # A value the witness does not score is a solver fault, not a refusal.
    real = polyalgos.minsum_paths

    def off_by_one(inst):
        res = real(inst)
        return polyalgos.SolveResult(res.value + 1, res.witness)

    monkeypatch.setattr(polyalgos, "minsum_paths", off_by_one)
    inst = instance({"x": CHAIN3, "y": ARC})
    with pytest.raises(AssertionError, match="^solver minsum-paths reported 2 but"):
        solve(inst, "sum", "minsum-paths")


# -- routing pin -----------------------------------------------------------

# sha256 of dispatch's (name, reason) under both objectives over 200
# seeded instances of every randgen shape, taken before the shape labels
# moved into `PreferenceGraph.classes`: any later label change that moves
# a route shows here.
PINNED_DISPATCH_DIGEST = "b2a1fb2904a7153c1bbeeeb6c07a9bc310bc8d74688a7d631a19cdc0613a7bb1"


def test_dispatch_is_pinned():
    got = []
    for shape in randgen.SHAPES:
        for seed in range(200):
            rng = random.Random(seed)
            inst = randgen.random_instance(rng, shape, rng.randint(2, 9), rng.randint(1, 4))
            for objective in ("sum", "max"):
                choice = dispatch(inst, objective)
                got.append([shape, seed, objective, choice.name, choice.reason])
    digest = hashlib.sha256(json.dumps(got).encode()).hexdigest()
    assert digest == PINNED_DISPATCH_DIGEST
