"""Core data model: graphs, instances, allocations, dissatisfaction."""

import copy
import json
import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefalloc import core, randgen
from prefalloc.cli import main
from prefalloc.core import (
    Allocation,
    Instance,
    NormalizationWarning,
    ParseError,
    PreconditionError,
    PreferenceGraph,
    SizeGuardError,
    ValidationError,
    dissatisfaction,
    parse_allocation,
    parse_instance,
    profile,
    satisfaction,
    serialize_allocation,
    serialize_instance,
    serialize_profile,
    validate_allocation,
)
from prefalloc.reductions import parse_x3c

from conftest import graph, instance, reachable


def covered(g, bundle) -> set:
    """The items `dominated_mask` marks as covered by the bundle."""
    mask = g.dominated_mask(bundle)
    return {v for i, v in enumerate(g.sorted_items) if mask >> i & 1}


class TestPreferenceGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ParseError):
            graph("ab", [("a", "a")])

    def test_rejects_unknown_endpoint(self):
        with pytest.raises(ParseError):
            graph("ab", [("a", "z")])

    def test_rejects_cycle(self):
        with pytest.raises(ParseError):
            graph("abc", [("a", "b"), ("b", "c"), ("c", "a")])

    def test_degrees_and_neighbors(self):
        g = graph("abcd", [("a", "b"), ("a", "c"), ("b", "d")])
        a, b, c, d = (g.position[v] for v in "abcd")
        assert g.outs[a] == (b, c)
        assert g.outs[b] == (d,)
        assert [len(hs) for hs in g.outs] == [2, 1, 0, 0]
        assert g.indeg == [0, 1, 1, 1]
        assert g.indeg == [sum(h == v for _, h in g.arcs) for v in g.sorted_items]

    def test_dominated_set_is_bundle_plus_descendants(self):
        g = graph("abcd", [("a", "b"), ("b", "c")])
        assert covered(g, {"a"}) == {"a", "b", "c"}
        assert covered(g, {"c", "d"}) == {"c", "d"}
        assert covered(g, set()) == set()

    def test_successors_exclude_the_vertex(self):
        # reach[i] holds i itself; its strict successors are the rest
        g = graph("abc", [("a", "b"), ("b", "c")])
        a, c = g.position["a"], g.position["c"]
        assert g.reach[a] ^ 1 << a == 0b110
        assert g.reach[c] ^ 1 << c == 0


class TestInstance:
    def test_rejects_graph_item_outside_pool(self):
        with pytest.raises(ParseError, match=r"^agent 'x' desires unknown items \['b'\]$"):
            Instance.build(("a",), {"y": graph("a"), "x": graph("ab")})

    def test_agents_are_the_sorted_graph_keys(self):
        inst = Instance({"y": graph("b"), "x": graph("a")})
        assert inst.agents == ("x", "y")
        assert inst.items == ("a", "b")
        assert inst.position == {"a": 0, "b": 1}

    def test_items_are_the_union_of_the_graphs_items(self):
        inst = Instance({"y": graph("cb", [("c", "b")]), "x": graph("ab")})
        assert inst.items == ("a", "b", "c")
        assert Instance({}).items == ()

    def test_build_drops_undesired_with_warning(self):
        with pytest.warns(NormalizationWarning):
            inst = Instance.build({"a", "b"}, {"x": graph("a")})
        assert inst.items == ("a",)

    def test_generators_drop_unsampled_items_without_warning(self):
        # The generators leave out the pool items no agent sampled, which
        # `Instance.build` would drop with a warning.
        short = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for seed in range(20):
                rng = random.Random(seed)
                for inst in (
                    randgen.random_instance(rng, "path", 10, 1),
                    randgen.junction_bounded_instance(rng, 10, 1, 2),
                ):
                    short += inst.num_items < 10
        assert short >= 20

    def test_sorted_canonical_order(self, worked):
        assert worked.items == ("a", "b", "c")
        assert worked.agents == ("1", "2", "3")
        assert worked.num_items == 3
        assert worked.num_agents == 3


class TestAllocation:
    def test_empty_bundles_are_dropped(self):
        alloc = Allocation.of({"x": set(), "y": {"a"}})
        assert alloc.as_dict() == {"y": frozenset({"a"})}
        assert alloc.get("x") == frozenset()

    def test_assigned_items(self):
        alloc = Allocation.of({"x": {"a", "b"}, "y": {"c"}})
        assert alloc.assigned_items() == {"a", "b", "c"}

    def test_equality_ignores_input_order(self):
        one = Allocation.of({"y": {"c"}, "x": {"b", "a"}})
        two = Allocation.of({"x": {"a", "b"}, "y": {"c"}})
        assert one == two

    @pytest.mark.parametrize("second", [frozenset("y"), frozenset()])
    def test_rejects_two_bundles_for_one_agent(self, second):
        # profile, as_dict and assigned_items would each read such pairs
        # differently, so none can be built.
        with pytest.raises(PreconditionError, match="agent 'a' holds two bundles"):
            Allocation((("a", frozenset("x")), ("a", second)))


class TestValidation:
    def test_valid_allocation_has_no_violations(self, worked):
        assert validate_allocation(worked, Allocation.of({"1": {"a"}})) == []

    def test_unknown_agent(self, worked):
        bad = Allocation.of({"9": {"a"}})
        assert any("unknown agent" in v for v in validate_allocation(worked, bad))

    def test_unknown_item(self, worked):
        bad = Allocation.of({"1": {"a", "zz"}})
        assert validate_allocation(worked, bad) == ["unknown item 'zz' (agent '1')"]

    def test_undesired_item(self, worked):
        bad = Allocation.of({"2": {"a"}})
        assert any("does not desire" in v for v in validate_allocation(worked, bad))

    def test_overlap(self, worked):
        bad = Allocation.of({"1": {"b"}, "2": {"b"}})
        assert any("both" in v for v in validate_allocation(worked, bad))

    def test_profile_refuses_invalid(self, worked):
        with pytest.raises(ValidationError):
            profile(worked, Allocation.of({"1": {"b"}, "2": {"b"}}))


class TestDissatisfaction:
    def test_worked_example_values(self, worked):
        alloc = Allocation.of({"1": {"a"}, "2": {"b"}, "3": {"c"}})
        assert dissatisfaction(worked, alloc, "1") == 2
        assert dissatisfaction(worked, alloc, "2") == 0
        assert dissatisfaction(worked, alloc, "3") == 0

    def test_empty_allocation_counts_everything(self, worked):
        prof = profile(worked, Allocation.empty())
        assert prof.as_dict() == {"1": 3, "2": 1, "3": 1}
        assert prof.total == 5
        assert prof.maximum == 3

    def test_descendants_count_as_received(self):
        inst = instance({"x": graph("abc", [("a", "b"), ("b", "c")])})
        assert dissatisfaction(inst, Allocation.of({"x": {"a"}}), "x") == 0
        assert dissatisfaction(inst, Allocation.of({"x": {"b"}}), "x") == 1

    def test_satisfaction_complements(self, worked):
        alloc = Allocation.of({"1": {"a", "b", "c"}})
        assert satisfaction(worked, alloc, "1") == 3
        assert dissatisfaction(worked, alloc, "1") == 0

    def test_satisfaction_refuses_invalid(self, worked):
        bad = Allocation.of({"1": {"a"}, "2": {"a"}})
        with pytest.raises(ValidationError):
            dissatisfaction(worked, bad, "1")
        with pytest.raises(ValidationError):
            satisfaction(worked, bad, "1")

    def test_unknown_agent_is_refused_after_validation(self, worked):
        # Both read the agent off the profile, so an invalid allocation is
        # reported first, then an agent the instance does not have.
        for measure in (dissatisfaction, satisfaction):
            with pytest.raises(PreconditionError, match="^unknown agent 'zz'$"):
                measure(worked, Allocation.empty(), "zz")
            with pytest.raises(ValidationError):
                measure(worked, Allocation.of({"1": {"a"}, "2": {"a"}}), "zz")

    def test_profile_tuple_follows_agent_order(self, worked):
        prof = profile(worked, Allocation.of({"2": {"b"}}))
        assert prof.agents == ("1", "2", "3")
        assert prof.values == (3, 0, 1)
        assert prof["2"] == 0


class TestSerialization:
    def test_instance_round_trip(self, worked):
        assert parse_instance(serialize_instance(worked)) == worked

    def test_allocation_round_trip(self, worked):
        alloc = Allocation.of({"1": {"a", "c"}, "2": {"b"}})
        assert parse_allocation(serialize_allocation(alloc)) == alloc

    def test_profile_payload_shape(self, worked):
        prof = profile(worked, Allocation.of({"1": {"a", "b", "c"}}))
        data = json.loads(serialize_profile(prof))
        assert data == {"profile": {"1": 0, "2": 1, "3": 1}, "sum": 2, "max": 1}

    def test_parse_instance_rejects_bad_json(self):
        with pytest.raises(ParseError):
            parse_instance("{nope")

    def test_parse_instance_rejects_missing_fields(self):
        with pytest.raises(ParseError):
            parse_instance('{"items": []}')

    def test_parse_allocation_rejects_non_list_bundle(self):
        with pytest.raises(ParseError):
            parse_allocation('{"allocation": {"x": "a"}}')

    def test_parse_allocation_rejects_repeated_item(self):
        # A set would merge the repeats; like parse_instance, refuse them.
        with pytest.raises(ParseError) as info:
            parse_allocation('{"allocation": {"y": ["b"], "x": ["a", "c", "a"]}}')
        assert str(info.value) == "duplicate item 'a' (at allocation.x)"


def dumped(inst: Instance) -> str:
    """The bytes `serialize_instance` promises, spelled with `json.dumps`."""
    payload = {
        "items": list(inst.items),
        "agents": [
            {
                "id": a,
                "items": sorted(inst.graphs[a].items),
                "arcs": [list(arc) for arc in sorted(inst.graphs[a].arcs)],
            }
            for a in inst.agents
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


# ids json must escape: a quote, a backslash, a newline, non-ASCII (one
# outside the BMP) and an id that looks like JSON
ODD = ['"', "\\", "line\nbreak", "caf\u00e9", "\U0001f600", "[x,]"]
SERIALIZER_CASES = {
    "no agents": Instance({}),
    "only an empty graph": Instance({"x": graph("")}),
    "an empty graph": Instance({"x": graph(""), "y": graph("ab", [("a", "b")])}),
    "escaped ids": Instance({
        'a"\\\n\u00e9': graph(ODD, [(ODD[0], ODD[1]), (ODD[3], ODD[5]), (ODD[4], ODD[2])]),
        "[x,]": graph(ODD[3:], [(ODD[5], ODD[4])]),
    }),
    **{
        f"{shape} draw {seed}": randgen.random_instance(
            random.Random(seed), shape, 2 + 3 * seed, 1 + seed
        )
        for shape in randgen.SHAPES
        for seed in range(4)
    },
}


@pytest.mark.parametrize("case", SERIALIZER_CASES)
def test_serialize_instance_writes_the_json_dumps_bytes(case):
    assert serialize_instance(SERIALIZER_CASES[case]) == dumped(SERIALIZER_CASES[case])


PARSE_BASE = {
    "items": ["a", "b", "c"],
    "agents": [
        {"id": "1", "items": ["a", "b"], "arcs": [["a", "b"]]},
        {"id": "2", "items": ["b", "c"], "arcs": []},
    ],
}


def _set(path, value):
    def mutate(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        doc[last] = value

    return mutate


def _text(text):
    """Replace the whole document with `text` (str or bytes)."""
    return lambda doc: text


def _agent0(items, arcs):
    """Give agent 0 these items, added to the pool as well, and these arcs."""

    def mutate(doc):
        doc["items"] = sorted(set(doc["items"]) | set(items))
        doc["agents"][0].update(items=items, arcs=arcs)

    return mutate


class Whole(str):
    """An expected error text that must be the whole message."""


DEEP = "[" * 200_000

# (mutation of PARSE_BASE, text the error message must contain: the
# offending item or arc, or its location when the value has no name).
# The graph-level errors are pinned as whole messages.
PARSE_ERRORS = {
    "agent-item-not-in-pool": (_set(["agents", 0, "items"], ["a", "b", "zz"]), "'zz'"),
    "unknown-arc-tail": (
        _set(["agents", 0, "arcs"], [["zz", "b"]]),
        Whole("arc ('zz', 'b') uses an unknown item (at agents[0])"),
    ),
    "arc-head-outside-agent": (
        _set(["agents", 0, "arcs"], [["a", "c"]]),
        Whole("arc ('a', 'c') uses an unknown item (at agents[0])"),
    ),
    "self-loop": (
        _set(["agents", 0, "arcs"], [["b", "b"]]),
        Whole("self-loop on item 'b' (at agents[0])"),
    ),
    "cycle": (
        _set(["agents", 0, "arcs"], [["a", "b"], ["b", "a"]]),
        Whole("graph is not acyclic (cycle through ['a', 'b']) (at agents[0])"),
    ),
    # Every item downstream of the cycle is stuck too; the first four
    # in sorted order are named.
    "long-cycle": (
        _agent0(
            ["a", "b", "c", "d", "e", "f"],
            [["f", "e"], ["e", "d"], ["d", "c"], ["c", "b"], ["b", "a"], ["c", "f"]],
        ),
        Whole("graph is not acyclic (cycle through ['a', 'b', 'c', 'd']) (at agents[0])"),
    ),
    "duplicate-item-ids": (_set(["items"], ["a", "b", "c", "b"]), "'b'"),
    "duplicate-agent-items": (_set(["agents", 0, "items"], ["a", "b", "a"]), "'a'"),
    "duplicate-arcs": (_set(["agents", 0, "arcs"], [["a", "b"], ["a", "b"]]), "('a', 'b')"),
    "duplicate-agent-ids": (_set(["agents", 1, "id"], "1"), "'1'"),
    "non-string-agent-item": (
        _set(["agents", 0, "items"], ["a", 2]),
        Whole("item ids must be strings (at agents[0].items[1])"),
    ),
    "non-string-arc-end": (_set(["agents", 0, "arcs"], [["a", 3]]), "agents[0].arcs[0]"),
    "arc-not-a-pair": (_set(["agents", 0, "arcs"], [["a", "b", "c"]]), "agents[0].arcs[0]"),
    "empty-item-id": (_set(["items"], ["a", "", "b", "c"]), "items[1]"),
    "agent-not-an-object": (_set(["agents", 1], "2"), "agents[1]"),
    "nesting-too-deep": (_text(DEEP), "nesting too deep"),
    "deep-but-closed": (_text('{"items": ' + "[" * 5000 + "]" * 5000 + "}"), "nesting too deep"),
    "invalid-utf8": (_text(b'{"items": ["\xff"], "agents": []}'), "UTF-8"),
    # Past CPython's 4,300-digit limit for converting an integer literal.
    "oversized-integer": (_text('{"items": [' + "1" * 5000 + '], "agents": []}'), "too many digits"),
}


@pytest.mark.parametrize("case", sorted(PARSE_ERRORS))
def test_parse_error_contract(case, tmp_path, capsys):
    mutate, named = PARSE_ERRORS[case]
    doc = copy.deepcopy(PARSE_BASE)
    text = mutate(doc) or json.dumps(doc)
    with pytest.raises(ParseError) as info:
        parse_instance(text)
    if isinstance(named, Whole):
        assert str(info.value) == named
    assert named in str(info.value)
    path = tmp_path / "bad.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    assert main(["solve", str(path), "--objective", "sum"]) == 2
    assert named in capsys.readouterr().err


# parse_instance takes these cases in test_parse_error_contract above.
@pytest.mark.parametrize("parse", [parse_allocation, parse_x3c])
@pytest.mark.parametrize(
    "text, named",
    [
        ("{oops", "invalid JSON"),
        (DEEP, "nesting too deep"),
        (b'["\xff"]', "UTF-8"),
        ("[" + "1" * 5000 + "]", "too many digits"),
        ('{"k": [], "k": []}', "^invalid JSON: duplicate key 'k'$"),
    ],
    ids=["malformed", "too-deep", "not-utf8", "oversized-integer", "repeated-key"],
)
def test_other_json_parsers_raise_parse_error(parse, text, named):
    with pytest.raises(ParseError, match=named):
        parse(text)


def test_reach_budget_refuses_the_agent_that_passes_it(monkeypatch):
    # An n-item graph counts n**2 bits; using the budget up is allowed.
    def doc(*sizes):
        agents = [
            {"id": f"a{i}", "items": [f"{i}.{j}" for j in range(n)]} for i, n in enumerate(sizes)
        ]
        return json.dumps({"items": [v for a in agents for v in a["items"]], "agents": agents})

    monkeypatch.setattr(core, "_REACH_BUDGET", 9)
    assert parse_instance(doc(2, 2, 1)).num_items == 5
    message = r"^graphs' reach masks would pass 9 bits \(at agents\[2\]\)$"
    with pytest.raises(SizeGuardError, match=message):
        parse_instance(doc(2, 2, 2))


def test_rejected_instance_warns_about_nothing(recwarn):
    doc = copy.deepcopy(PARSE_BASE)
    doc["agents"][1]["items"] = ["b", "zz"]  # leaves "c" undesired as well
    with pytest.raises(ParseError, match="'zz'"):
        parse_instance(json.dumps(doc))
    assert not recwarn.list


def dags(max_items=6):
    """Random small DAG: pick a vertex count, then forward arcs only."""

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_items))
        verts = [f"v{i}" for i in range(n)]
        arcs = set()
        for i in range(n):
            for j in range(i + 1, n):
                if draw(st.booleans()):
                    arcs.add((verts[i], verts[j]))
        return PreferenceGraph(frozenset(verts), frozenset(arcs))

    return build()


@settings(max_examples=80, deadline=None)
@given(dags(), st.data())
def test_dominated_set_contains_bundle_and_is_monotone(g, data):
    verts = sorted(g.items)
    small = set(data.draw(st.lists(st.sampled_from(verts), unique=True)))
    extra = set(data.draw(st.lists(st.sampled_from(verts), unique=True)))
    dom = covered(g, small)
    assert small <= dom
    assert g.dominated_mask(small) >> len(verts) == 0
    assert dom <= covered(g, small | extra)


@settings(max_examples=80, deadline=None)
@given(dags())
def test_predecessors_are_the_items_that_reach(g):
    """Also checks the sorted-position form against the arcs and a plain
    walk over them."""
    for i, v in enumerate(g.sorted_items):
        above = {u for u, r in zip(g.sorted_items, g.reach) if r >> i & 1}
        assert above == {u for u in g.items if v in reachable(g, u)}
    with pytest.raises(PreconditionError):
        g.dominated_mask({"zz"})
    order = g.sorted_items
    assert order == tuple(sorted(g.items))
    assert dict(g.position) == {v: i for i, v in enumerate(order)}
    assert len(g.outs) == len(order)
    assert all(hs == tuple(sorted(set(hs))) for hs in g.outs)
    assert {(order[i], order[j]) for i, hs in enumerate(g.outs) for j in hs} == g.arcs
    assert g.indeg == [sum(h == v for _, h in g.arcs) for v in order]
    assert len(g.reach) == len(order)
    for i, v in enumerate(order):
        assert g.reach[i] == sum(1 << g.position[u] for u in reachable(g, v))


@settings(max_examples=80, deadline=None)
@given(dags(), st.data())
def test_dissatisfaction_bounds_and_monotonicity(g, data):
    inst = Instance.build(g.items, {"x": g})
    verts = sorted(g.items)
    bundle = set(data.draw(st.lists(st.sampled_from(verts), unique=True)))
    more = bundle | set(data.draw(st.lists(st.sampled_from(verts), unique=True)))
    d_small = dissatisfaction(inst, Allocation.of({"x": bundle}), "x")
    d_large = dissatisfaction(inst, Allocation.of({"x": more}), "x")
    assert 0 <= d_large <= d_small <= len(g.items)
    # receiving a full bundle of everything leaves nothing missing
    assert dissatisfaction(inst, Allocation.of({"x": g.items}), "x") == 0
