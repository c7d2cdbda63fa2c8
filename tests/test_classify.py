"""Graph class predicates, junction counting, solver routing."""

import hashlib
import itertools
import json
import random

import pytest

from prefalloc import classify, exact, randgen
from prefalloc.classify import (
    DEFAULT_GAMMA_LIMIT,
    ROUTES,
    GraphClass,
    all_graphs_are,
    dispatch,
    graph_class,
    graph_classes,
    instance_class,
    junction_count,
    junction_summary,
    junctions,
)
from prefalloc.core import ParseError, PreconditionError, PreferenceGraph

from conftest import brute_minimum, graph, instance

SINGLE = graph("a")
ARC = graph("ab", [("a", "b")])
CHAIN3 = graph("abc", [("a", "b"), ("b", "c")])
STAR3 = graph("abc", [("a", "b"), ("a", "c")])
TWO_ARCS = graph("abcd", [("a", "b"), ("c", "d")])
ISOLATED_PAIR = graph("ab")
DIAMOND = graph("abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
TWO_STARS = graph("abcde", [("a", "b"), ("a", "c"), ("d", "e")])


class TestPredicates:
    def test_single_vertex_memberships(self):
        cs = graph_classes(SINGLE)
        assert GraphClass.OUT_STAR in cs
        assert GraphClass.PATH in cs
        assert GraphClass.OUT_TREE in cs
        assert GraphClass.DISJOINT_PATHS in cs
        assert GraphClass.UNION_OUT_STARS in cs
        # an isolated vertex has total degree zero, so no matching
        assert GraphClass.DIRECTED_MATCHING not in cs

    def test_single_arc_is_everything(self):
        assert graph_classes(ARC) == frozenset(GraphClass)

    def test_chain_is_path_not_star(self):
        cs = graph_classes(CHAIN3)
        assert GraphClass.PATH in cs
        assert GraphClass.OUT_STAR not in cs
        assert GraphClass.DIRECTED_MATCHING not in cs
        assert GraphClass.UNION_OUT_STARS not in cs

    def test_star_is_tree_not_path(self):
        cs = graph_classes(STAR3)
        assert GraphClass.OUT_STAR in cs
        assert GraphClass.OUT_TREE in cs
        assert GraphClass.UNION_OUT_STARS in cs
        assert GraphClass.PATH not in cs
        assert GraphClass.DISJOINT_PATHS not in cs

    def test_two_arcs_form_a_matching(self):
        cs = graph_classes(TWO_ARCS)
        assert GraphClass.DIRECTED_MATCHING in cs
        assert GraphClass.DISJOINT_PATHS in cs
        assert GraphClass.PATH not in cs
        assert GraphClass.OUT_TREE not in cs

    def test_isolated_vertex_breaks_matching(self):
        assert GraphClass.DIRECTED_MATCHING not in graph_classes(ISOLATED_PAIR)
        assert GraphClass.DISJOINT_PATHS in graph_classes(ISOLATED_PAIR)

    def test_diamond_is_general_dag_only(self):
        assert graph_class(DIAMOND) is GraphClass.GENERAL_DAG

    def test_star_forest(self):
        cs = graph_classes(TWO_STARS)
        assert GraphClass.UNION_OUT_STARS in cs
        assert GraphClass.OUT_STAR not in cs
        assert GraphClass.OUT_TREE not in cs

    def test_priority_picks_most_specific(self):
        assert graph_class(SINGLE) is GraphClass.OUT_STAR
        assert graph_class(CHAIN3) is GraphClass.PATH
        assert graph_class(TWO_ARCS) is GraphClass.DIRECTED_MATCHING
        assert graph_class(TWO_STARS) is GraphClass.UNION_OUT_STARS


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
        assert all_graphs_are(inst, GraphClass.DIRECTED_MATCHING)
        assert not all_graphs_are(inst, GraphClass.PATH)
        assert all_graphs_are(inst, GraphClass.GENERAL_DAG)


class TestJunctions:
    def test_fan_out_and_fan_in(self):
        assert junctions(DIAMOND) == {"a", "d"}
        assert junctions(CHAIN3) == frozenset()
        assert junctions(STAR3) == {"a"}

    def test_count_is_per_agent_with_multiplicity(self):
        inst = instance({"x": DIAMOND, "y": DIAMOND})
        assert junction_count(inst) == 4
        summary = junction_summary(inst)
        assert summary.gamma == 4
        assert summary.per_agent == {"x": {"a", "d"}, "y": {"a", "d"}}


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
        inst = instance({"x": DIAMOND, "y": CHAIN3})
        assert dispatch(inst, "sum", gamma_limit=1).name == "oracle"

    def test_oracle_too_large(self):
        inst = instance({"x": DIAMOND, "y": DIAMOND})
        choice = dispatch(inst, "max", oracle_limit=3)
        assert choice.name == "oracle-too-large"

    def test_unknown_objective(self):
        inst = instance({"x": SINGLE})
        with pytest.raises(PreconditionError):
            dispatch(inst, "median")

    def test_default_gamma_limit_is_small(self):
        assert DEFAULT_GAMMA_LIMIT == 6


# -- labels against their definitions ------------------------------------
#
# Reference predicates written from the classify docstrings: arcs are
# read straight from the arc set and reachability from `successors`, so
# none of them shares a degree shortcut with `PreferenceGraph.classes`.


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
        g.successors(r) | {r} == g.items
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
    assert graph_classes(g) == want
    assert classify.is_out_star(g) == (GraphClass.OUT_STAR in want)
    assert classify.is_out_tree(g) == (GraphClass.OUT_TREE in want)
    assert classify.is_path(g) == (GraphClass.PATH in want)
    assert classify.is_disjoint_paths(g) == (GraphClass.DISJOINT_PATHS in want)
    assert classify.is_directed_matching(g) == (GraphClass.DIRECTED_MATCHING in want)
    assert classify.is_union_out_stars(g) == (GraphClass.UNION_OUT_STARS in want)


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
    assert graph_classes(EMPTY) == {GraphClass.DIRECTED_MATCHING, GraphClass.GENERAL_DAG}


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
    routes = {r.name: r for r in ROUTES}
    got = routes[route].solve(inst).value if route in routes else brute_minimum(inst, objective)
    assert got == exact.minimize(inst, objective).value


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
