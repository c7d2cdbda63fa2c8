"""Core data model: graphs, instances, allocations, dissatisfaction."""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefalloc.cli import main
from prefalloc.core import (
    Allocation,
    Instance,
    NormalizationWarning,
    ParseError,
    PreconditionError,
    PreferenceGraph,
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

from conftest import graph, instance


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
        assert g.out_degree("a") == 2
        assert g.in_degree("d") == 1
        assert g.out_neighbors("a") == ("b", "c")
        assert g.in_neighbors("d") == ("b",)

    def test_dominated_set_is_bundle_plus_descendants(self):
        g = graph("abcd", [("a", "b"), ("b", "c")])
        assert g.dominated_set({"a"}) == {"a", "b", "c"}
        assert g.dominated_set({"c", "d"}) == {"c", "d"}
        assert g.dominated_set(set()) == set()

    def test_successors_exclude_the_vertex(self):
        g = graph("abc", [("a", "b"), ("b", "c")])
        assert g.successors("a") == {"b", "c"}
        assert g.successors("c") == set()


class TestInstance:
    def test_rejects_duplicate_agent_ids(self):
        with pytest.raises(ParseError):
            Instance(("a",), ("x", "x"), {"x": graph("a")})

    def test_rejects_graph_item_outside_pool(self):
        with pytest.raises(ParseError):
            Instance(("a",), ("x",), {"x": graph("ab")})

    def test_rejects_undesired_items(self):
        with pytest.raises(ParseError):
            Instance(("a", "b"), ("x",), {"x": graph("a")})

    def test_build_drops_undesired_with_warning(self):
        with pytest.warns(NormalizationWarning):
            inst = Instance.build({"a", "b"}, {"x": graph("a")})
        assert inst.items == ("a",)

    def test_build_silent_when_asked(self):
        inst = Instance.build({"a", "b"}, {"x": graph("a")}, warn_dropped=False)
        assert inst.items == ("a",)

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


class TestValidation:
    def test_valid_allocation_has_no_violations(self, worked):
        assert validate_allocation(worked, Allocation.of({"1": {"a"}})) == []

    def test_unknown_agent(self, worked):
        bad = Allocation.of({"9": {"a"}})
        assert any("unknown agent" in v for v in validate_allocation(worked, bad))

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

    def test_profile_tuple_follows_agent_order(self, worked):
        prof = profile(worked, Allocation.of({"2": {"b"}}))
        assert prof.agents == ("1", "2", "3")
        assert prof.as_tuple() == (3, 0, 1)
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

    def test_lenient_parse_drops_undesired(self, worked):
        text = '{"allocation": {"2": ["a", "b"]}}'
        with pytest.warns(NormalizationWarning):
            alloc = parse_allocation(text, worked, lenient=True)
        assert alloc.get("2") == {"b"}


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


DEEP = "[" * 200_000

# (mutation of PARSE_BASE, text the error message must contain: the
# offending item or arc, or its location when the value has no name)
PARSE_ERRORS = {
    "agent-item-not-in-pool": (_set(["agents", 0, "items"], ["a", "b", "zz"]), "'zz'"),
    "unknown-arc-tail": (_set(["agents", 0, "arcs"], [["zz", "b"]]), "'zz'"),
    "arc-head-outside-agent": (_set(["agents", 0, "arcs"], [["a", "c"]]), "'c'"),
    "self-loop": (_set(["agents", 0, "arcs"], [["b", "b"]]), "self-loop on item 'b'"),
    "cycle": (_set(["agents", 0, "arcs"], [["a", "b"], ["b", "a"]]), "'a'"),
    "duplicate-item-ids": (_set(["items"], ["a", "b", "c", "b"]), "'b'"),
    "duplicate-agent-items": (_set(["agents", 0, "items"], ["a", "b", "a"]), "'a'"),
    "duplicate-arcs": (_set(["agents", 0, "arcs"], [["a", "b"], ["a", "b"]]), "('a', 'b')"),
    "duplicate-agent-ids": (_set(["agents", 1, "id"], "1"), "'1'"),
    "non-string-arc-end": (_set(["agents", 0, "arcs"], [["a", 3]]), "agents[0].arcs[0]"),
    "arc-not-a-pair": (_set(["agents", 0, "arcs"], [["a", "b", "c"]]), "agents[0].arcs[0]"),
    "empty-item-id": (_set(["items"], ["a", "", "b", "c"]), "items[1]"),
    "agent-not-an-object": (_set(["agents", 1], "2"), "agents[1]"),
    "nesting-too-deep": (_text(DEEP), "nesting too deep"),
    "deep-but-closed": (_text('{"items": ' + "[" * 5000 + "]" * 5000 + "}"), "nesting too deep"),
    "invalid-utf8": (_text(b'{"items": ["\xff"], "agents": []}'), "UTF-8"),
}


@pytest.mark.parametrize("case", sorted(PARSE_ERRORS))
def test_parse_error_contract(case, tmp_path, capsys):
    mutate, named = PARSE_ERRORS[case]
    doc = copy.deepcopy(PARSE_BASE)
    text = mutate(doc) or json.dumps(doc)
    with pytest.raises(ParseError) as info:
        parse_instance(text)
    assert named in str(info.value)
    path = tmp_path / "bad.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    assert main(["solve", str(path), "--objective", "sum"]) == 2
    assert named in capsys.readouterr().err


# parse_instance takes these cases in test_parse_error_contract above.
@pytest.mark.parametrize("parse", [parse_allocation, parse_x3c])
@pytest.mark.parametrize(
    "text, named",
    [("{oops", "invalid JSON"), (DEEP, "nesting too deep"), (b'["\xff"]', "UTF-8")],
    ids=["malformed", "too-deep", "not-utf8"],
)
def test_other_json_parsers_raise_parse_error(parse, text, named):
    with pytest.raises(ParseError, match=named):
        parse(text)


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
    dom = g.dominated_set(small)
    assert small <= dom
    assert dom <= g.items
    assert dom <= g.dominated_set(small | extra)


@settings(max_examples=80, deadline=None)
@given(dags())
def test_predecessors_are_the_items_that_reach(g):
    for v in g.items:
        assert g.predecessors(v) == {u for u in g.items if u != v and v in g.successors(u)}
    with pytest.raises(PreconditionError):
        g.predecessors("zz")


@settings(max_examples=80, deadline=None)
@given(dags(), st.data())
def test_dissatisfaction_bounds_and_monotonicity(g, data):
    inst = Instance.build(g.items, {"x": g}, warn_dropped=False)
    verts = sorted(g.items)
    bundle = set(data.draw(st.lists(st.sampled_from(verts), unique=True)))
    more = bundle | set(data.draw(st.lists(st.sampled_from(verts), unique=True)))
    d_small = dissatisfaction(inst, Allocation.of({"x": bundle}), "x")
    d_large = dissatisfaction(inst, Allocation.of({"x": more}), "x")
    assert 0 <= d_large <= d_small <= len(g.items)
    # receiving a full bundle of everything leaves nothing missing
    assert dissatisfaction(inst, Allocation.of({"x": g.items}), "x") == 0
