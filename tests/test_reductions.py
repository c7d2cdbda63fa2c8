"""Hardness gadget generators, their parsers, witnesses and extraction."""

import json

import pytest

from prefalloc import classify, exact
from prefalloc.classify import GraphClass
from prefalloc.core import (
    Allocation,
    ParseError,
    PreconditionError,
    profile,
    validate_allocation,
)
from prefalloc.reductions import (
    Cnf3Formula,
    X3CInstance,
    gen_minmax_matchings,
    gen_minmax_outstars,
    gen_minmax_two_paths_sat,
    gen_minsum_outtrees,
    gen_two_agents_sat,
    parse_dimacs,
    parse_x3c,
    satisfies,
    satisfying_assignment,
    witness_allocation,
    witness_extract,
)

from conftest import reparsed

TRIPLE = ("e1", "e2", "e3")
COVER_Q1 = X3CInstance(TRIPLE, (TRIPLE, TRIPLE, TRIPLE))

# q = 2: three partitions of six elements stacked, planted cover at (1, 2)
COVER_Q2 = X3CInstance(
    ("e1", "e2", "e3", "e4", "e5", "e6"),
    (
        ("e1", "e2", "e3"),
        ("e4", "e5", "e6"),
        ("e1", "e2", "e4"),
        ("e3", "e5", "e6"),
        ("e1", "e2", "e5"),
        ("e3", "e4", "e6"),
    ),
)

SAT = Cnf3Formula(4, ((1, -3, -4), (-1, 2, -4)))
SAT_MODEL = (True, True, False, False)
UNSAT = Cnf3Formula(3, ((1, 1, 1), (-1, -1, -1)))
DISTINCT_SAT = Cnf3Formula(3, ((1, 2, 3), (-1, -2, 3)))
DISTINCT_MODEL = (True, False, True)


class TestX3CInstance:
    def test_accepts_q1(self):
        assert COVER_Q1.q == 1
        assert COVER_Q1.p == 3

    def test_rejects_bad_pool_size(self):
        with pytest.raises(PreconditionError):
            X3CInstance(("e1", "e2"), ())

    def test_rejects_duplicate_elements(self):
        with pytest.raises(PreconditionError, match="duplicate element 'e1'"):
            X3CInstance(("e1", "e1", "e2"), (("e1", "e1", "e2"),) * 3)

    def test_rejects_triple_with_repeats(self):
        with pytest.raises(PreconditionError):
            X3CInstance(TRIPLE, (("e1", "e1", "e2"),) * 3)

    def test_rejects_unknown_triple_member(self):
        with pytest.raises(PreconditionError):
            X3CInstance(TRIPLE, (("e1", "e2", "zz"),) * 3)

    def test_rejects_wrong_occurrence_count(self):
        with pytest.raises(PreconditionError):
            X3CInstance(TRIPLE, (TRIPLE, TRIPLE))

    def test_exact_cover_checks(self):
        assert COVER_Q2.is_exact_cover((1, 2))
        assert COVER_Q2.is_exact_cover((2, 1))
        assert not COVER_Q2.is_exact_cover((1, 3))  # overlap on e1
        assert not COVER_Q2.is_exact_cover((1,))  # leaves half uncovered
        assert not COVER_Q2.is_exact_cover((1, 1))
        assert not COVER_Q2.is_exact_cover((0, 7))


class TestCnf3Formula:
    def test_counts(self):
        assert SAT.num_vars == 4
        assert SAT.num_clauses == 2

    def test_rejects_zero_vars(self):
        with pytest.raises(PreconditionError):
            Cnf3Formula(0, ((1, 1, 1),))

    def test_rejects_no_clauses(self):
        with pytest.raises(PreconditionError):
            Cnf3Formula(2, ())

    def test_rejects_wrong_clause_width(self):
        with pytest.raises(PreconditionError):
            Cnf3Formula(2, ((1, 2),))

    def test_rejects_out_of_range_literal(self):
        with pytest.raises(PreconditionError):
            Cnf3Formula(2, ((1, 2, 5),))
        with pytest.raises(PreconditionError):
            Cnf3Formula(2, ((0, 1, 2),))

    def test_distinct_variables(self):
        assert DISTINCT_SAT.has_distinct_variables()
        assert not UNSAT.has_distinct_variables()

    def test_satisfies(self):
        assert satisfies(SAT, SAT_MODEL)
        assert not satisfies(SAT, (False, True, True, True))
        with pytest.raises(PreconditionError):
            satisfies(SAT, (True,))

    def test_satisfying_assignment(self):
        model = satisfying_assignment(SAT)
        assert model is not None
        assert satisfies(SAT, model)
        assert satisfying_assignment(UNSAT) is None

    def test_satisfying_assignment_is_capped(self):
        wide = Cnf3Formula(21, ((1, 2, 21),))
        with pytest.raises(PreconditionError, match="^truth-table search is capped at 20 variables$"):
            satisfying_assignment(wide)


class TestParsers:
    def test_parse_x3c_round_trip(self):
        text = json.dumps({"X": list(TRIPLE), "C": [list(TRIPLE)] * 3})
        assert parse_x3c(text) == COVER_Q1

    def test_parse_x3c_rejects_bad_json(self):
        with pytest.raises(ParseError):
            parse_x3c("{oops")

    def test_parse_x3c_rejects_missing_keys(self):
        with pytest.raises(ParseError):
            parse_x3c('{"X": ["e1"]}')

    def test_parse_x3c_rejects_nonlist_triple(self):
        with pytest.raises(ParseError):
            parse_x3c('{"X": ["e1"], "C": ["e1"]}')

    def test_parse_x3c_accepts_integer_elements(self):
        text = json.dumps({"X": [1, 2, "e3"], "C": [[1, 2, "e3"]] * 3})
        assert parse_x3c(text).elements == ("1", "2", "e3")

    def test_parse_x3c_names_duplicate_element(self):
        # The integer 1 and the string "1" are one element.
        with pytest.raises(ParseError) as info:
            parse_x3c(json.dumps({"X": [1, "1", "a"], "C": [[1, "1", "a"]]}))
        assert info.value.location == "X[1]"
        assert str(info.value) == "duplicate element '1' (at X[1])"

    @pytest.mark.parametrize(
        "doc,location",
        [
            ({"X": ["a", None, "c"], "C": []}, "X[1]"),
            ({"X": [True, "b", "c"], "C": []}, "X[0]"),
            ({"X": ["a", "b", 3.0], "C": []}, "X[2]"),
            ({"X": ["a", "b", "c"], "C": [["a", "b", [2]]]}, "C[0][2]"),
            ({"X": ["a", "b", "c"], "C": [list("abc"), ["a", {}, "c"]]}, "C[1][1]"),
            ({"X": ["a", "b", "c"], "C": [["a", "b", False]]}, "C[0][2]"),
        ],
    )
    def test_parse_x3c_rejects_other_element_types(self, doc, location):
        with pytest.raises(ParseError) as info:
            parse_x3c(json.dumps(doc))
        assert info.value.location == location
        assert "strings or integers" in str(info.value)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[]", "top level must be an object (at $)"),
            ('{"X": "e1", "C": []}', "expected a list of elements (at X)"),
        ],
        ids=["not-an-object", "ground-not-a-list"],
    )
    def test_parse_x3c_refusal_texts(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_x3c(text)
        assert str(info.value) == message

    def test_parse_dimacs_basic(self):
        text = "c comment\np cnf 4 2\n1 -3 -4 0\n-1 2 -4 0\n"
        assert parse_dimacs(text) == SAT

    def test_parse_dimacs_clause_spanning_lines(self):
        text = "p cnf 3 1\n1 2\n3 0\n"
        assert parse_dimacs(text) == Cnf3Formula(3, ((1, 2, 3),))

    def test_parse_dimacs_rejects_missing_header(self):
        with pytest.raises(ParseError):
            parse_dimacs("1 2 3 0\n")

    def test_parse_dimacs_rejects_count_mismatch(self):
        with pytest.raises(ParseError):
            parse_dimacs("p cnf 3 2\n1 2 3 0\n")

    def test_parse_dimacs_rejects_wide_clause(self):
        with pytest.raises(ParseError):
            parse_dimacs("p cnf 4 1\n1 2 3 4 0\n")

    def test_parse_dimacs_rejects_junk_token(self):
        with pytest.raises(ParseError):
            parse_dimacs("p cnf 3 1\n1 two 3 0\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("p cnf 3 1\np cnf 3 1\n1 2 3 0\n", "duplicate header (at line 2)"),
            ("c x\np cnf 3\n1 2 3 0\n", "header must read 'p cnf <vars> <clauses>' (at line 2)"),
            ("p dnf 3 1\n1 2 3 0\n", "header must read 'p cnf <vars> <clauses>' (at line 1)"),
            ("p cnf 3 one\n1 2 3 0\n", "header counts must be integers (at line 1)"),
            ("c only a comment\n\n", "missing 'p cnf' header (at line 1)"),
            ("p cnf 3 1\n1 2 3\n", "last clause is not 0-terminated (at clauses)"),
        ],
        ids=["duplicate-header", "short-header", "not-cnf", "non-integer-count",
             "missing-header", "unterminated-clause"],
    )
    def test_parse_dimacs_refusal_texts(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_dimacs(text)
        assert str(info.value) == message

    def test_parse_dimacs_bytes(self):
        assert parse_dimacs(b"p cnf 3 1\n1 2 3 0\n") == Cnf3Formula(3, ((1, 2, 3),))

    def test_parse_dimacs_rejects_invalid_utf8(self):
        with pytest.raises(ParseError, match="invalid UTF-8: .* at byte 14"):
            parse_dimacs(b"p cnf 1 1\n1 1 \xff 0\n")


class TestOutStars:
    def test_shape_and_bound(self):
        inst, bound = gen_minmax_outstars(COVER_Q1)
        assert bound == 3  # 2p/3 + 1 with p = 3
        assert inst.num_items == 10
        assert inst.num_agents == 8
        assert all(
            GraphClass.OUT_STAR in inst.graphs[a].classes for a in inst.agents
        )

    def test_witness_meets_bound_and_extracts(self):
        alloc = witness_allocation("minmax-outstars", COVER_Q1, (2,))
        inst, bound = gen_minmax_outstars(COVER_Q1)
        assert validate_allocation(inst, alloc) == []
        assert profile(inst, alloc).maximum <= bound
        assert COVER_Q1.is_exact_cover(
            witness_extract("minmax-outstars", COVER_Q1, alloc)
        )

    def test_rejects_non_cover_witness(self):
        with pytest.raises(PreconditionError):
            witness_allocation("minmax-outstars", COVER_Q2, (1, 3))

    def test_oracle_agrees_on_tiny_yes_instance(self):
        inst, bound = gen_minmax_outstars(COVER_Q1)
        assert exact.minimize(inst, "max").value == bound


class TestOutTrees:
    def test_shape_and_bound(self):
        inst, bound = gen_minsum_outtrees(COVER_Q1)
        assert bound == 20  # 2p^2 + p/3 + 1 with p = 3
        assert inst.num_items == 65
        assert inst.num_agents == 62
        for a in inst.agents:
            g = inst.graphs[a]
            assert GraphClass.OUT_TREE in g.classes
            assert g.items == frozenset(inst.items)  # spanning

    def test_witness_meets_bound_and_extracts(self):
        alloc = witness_allocation("minsum-outtrees", COVER_Q1, (3,))
        inst, bound = gen_minsum_outtrees(COVER_Q1)
        assert profile(inst, alloc).total <= bound
        assert COVER_Q1.is_exact_cover(
            witness_extract("minsum-outtrees", COVER_Q1, alloc)
        )

    def test_q2_round_trip(self):
        alloc = witness_allocation("minsum-outtrees", COVER_Q2, (1, 2))
        got = witness_extract("minsum-outtrees", COVER_Q2, alloc)
        assert COVER_Q2.is_exact_cover(got)


class TestTwoAgents:
    def test_shape_and_bounds(self):
        inst, sum_bound, max_bound = gen_two_agents_sat(SAT)
        assert (sum_bound, max_bound) == (8, 4)
        assert inst.num_items == 14  # 3 per variable plus one per clause
        assert inst.num_agents == 2
        for a in inst.agents:
            assert inst.graphs[a].items == frozenset(inst.items)

    def test_witness_meets_both_bounds(self):
        alloc = witness_allocation("two-agents-sat", SAT, SAT_MODEL)
        inst, sum_bound, max_bound = gen_two_agents_sat(SAT)
        prof = profile(inst, alloc)
        assert prof.total <= sum_bound
        assert prof.maximum <= max_bound

    def test_extract_round_trip(self):
        alloc = witness_allocation("two-agents-sat", SAT, SAT_MODEL)
        model = witness_extract("two-agents-sat", SAT, alloc)
        assert satisfies(SAT, model)

    def test_rejects_non_model_witness(self):
        with pytest.raises(PreconditionError):
            witness_allocation("two-agents-sat", SAT, (False, True, True, True))

    def test_extract_refuses_allocation_above_sum_bound(self):
        # 14 items in both graphs, none allocated: 28 against the sum bound 8
        with pytest.raises(PreconditionError, match="total dissatisfaction 28 exceeds bound 8$"):
            witness_extract("two-agents-sat", SAT, Allocation.empty())

    def test_oracle_decides_satisfiability(self):
        inst, sum_bound, _ = gen_two_agents_sat(SAT)
        res = exact.minimize(inst, "sum")
        assert res.value <= sum_bound
        assert satisfies(SAT, witness_extract("two-agents-sat", SAT, res.witness))

        inst_u, sum_u, max_u = gen_two_agents_sat(UNSAT)
        assert exact.minimize(inst_u, "sum").value > sum_u
        assert exact.minimize(inst_u, "max").value > max_u

    def test_repeated_literal_clause_still_works(self):
        # (x1 or x1 or x1) collapses to a single arc but stays correct
        inst, sum_bound, _ = gen_two_agents_sat(UNSAT)
        assert exact.minimize(inst, "sum").value > sum_bound


class TestMatchings:
    def test_shape_and_bound(self):
        inst, bound = gen_minmax_matchings(COVER_Q2)
        assert bound == 8  # 4p/3 with p = 6
        assert inst.num_items == 48
        assert inst.num_agents == 22
        assert all(
            GraphClass.DIRECTED_MATCHING in inst.graphs[a].classes for a in inst.agents
        )

    def test_requires_six_sets(self):
        with pytest.raises(PreconditionError):
            gen_minmax_matchings(COVER_Q1)

    def test_witness_meets_bound_and_extracts(self):
        alloc = witness_allocation("minmax-matchings", COVER_Q2, (1, 2))
        inst, bound = gen_minmax_matchings(COVER_Q2)
        assert profile(inst, alloc).maximum <= bound
        got = witness_extract("minmax-matchings", COVER_Q2, alloc)
        assert COVER_Q2.is_exact_cover(got)


class TestTwoPaths:
    def test_shape_and_bound(self):
        inst, bound = gen_minmax_two_paths_sat(DISTINCT_SAT)
        assert bound == 2
        assert inst.num_items == 21  # 3 shared plus 3 per variable per clause
        assert inst.num_agents == 11
        for a in inst.agents:
            g = inst.graphs[a]
            assert GraphClass.DISJOINT_PATHS in g.classes
            assert len(g.items) <= 5
            assert g.indeg == [sum(h == v for _, h in g.arcs) for v in g.sorted_items]
            assert g.indeg.count(0) <= 2

    def test_requires_distinct_variables(self):
        with pytest.raises(PreconditionError):
            gen_minmax_two_paths_sat(UNSAT)

    def test_requires_two_clauses(self):
        with pytest.raises(PreconditionError):
            gen_minmax_two_paths_sat(Cnf3Formula(3, ((1, 2, 3),)))

    def test_witness_meets_bound_and_extracts(self):
        alloc = witness_allocation("minmax-two-paths", DISTINCT_SAT, DISTINCT_MODEL)
        inst, bound = gen_minmax_two_paths_sat(DISTINCT_SAT)
        assert profile(inst, alloc).maximum <= bound
        model = witness_extract("minmax-two-paths", DISTINCT_SAT, alloc)
        assert satisfies(DISTINCT_SAT, model)


def test_unknown_kind_rejected():
    with pytest.raises(PreconditionError, match="unknown reduction kind 'nonsense'"):
        witness_allocation("nonsense", COVER_Q1, (1,))
    with pytest.raises(PreconditionError, match="unknown reduction kind 'nonsense'"):
        witness_extract("nonsense", COVER_Q1, None)


WRONG_SOURCES = [
    ("minmax-outstars", SAT, "of type X3CInstance, not Cnf3Formula$"),
    ("minsum-outtrees", SAT, "of type X3CInstance, not Cnf3Formula$"),
    ("minmax-matchings", DISTINCT_SAT, "of type X3CInstance, not Cnf3Formula$"),
    ("two-agents-sat", COVER_Q1, "of type Cnf3Formula, not X3CInstance$"),
    ("minmax-two-paths", COVER_Q2, "of type Cnf3Formula, not X3CInstance$"),
]


@pytest.mark.parametrize("kind, source, message", WRONG_SOURCES, ids=[c[0] for c in WRONG_SOURCES])
def test_wrong_source_type_rejected(kind, source, message):
    with pytest.raises(PreconditionError, match=message):
        witness_allocation(kind, source, (1, 2))
    with pytest.raises(PreconditionError, match=message):
        witness_extract(kind, source, Allocation.empty())


@pytest.mark.parametrize(
    "kind, source, cert, message",
    [
        ("minmax-outstars", COVER_Q1, (2,), "max dissatisfaction 6 exceeds bound 3$"),
        ("minsum-outtrees", COVER_Q1, (3,), "total dissatisfaction 4030 exceeds bound 20$"),
        ("minmax-two-paths", DISTINCT_SAT, DISTINCT_MODEL, "max dissatisfaction 5 exceeds bound 2$"),
    ],
)
def test_extract_refuses_invalid_and_unmet_allocations(kind, source, cert, message):
    stray = Allocation.of({**witness_allocation(kind, source, cert).as_dict(), "zz": {"q"}})
    with pytest.raises(PreconditionError, match="^allocation invalid: unknown agent 'zz'$"):
        witness_extract(kind, source, stray)
    with pytest.raises(PreconditionError, match=message):
        witness_extract(kind, source, Allocation.empty())


GADGETS = [
    (gen_minmax_outstars, COVER_Q1),
    (gen_minsum_outtrees, COVER_Q1),
    (gen_two_agents_sat, SAT),
    (gen_minmax_matchings, COVER_Q2),
    (gen_minmax_two_paths_sat, DISTINCT_SAT),
]


@pytest.mark.parametrize("generate, source", GADGETS, ids=[g.__name__ for g, _ in GADGETS])
def test_gadgets_round_trip(generate, source):
    inst = generate(source)[0]
    assert reparsed(inst) == inst


def test_all_generated_graphs_pass_their_class_check():
    checks = [
        (gen_minmax_outstars(COVER_Q1)[0], GraphClass.OUT_STAR),
        (gen_minsum_outtrees(COVER_Q1)[0], GraphClass.OUT_TREE),
        (gen_minmax_matchings(COVER_Q2)[0], GraphClass.DIRECTED_MATCHING),
        (gen_minmax_two_paths_sat(DISTINCT_SAT)[0], GraphClass.DISJOINT_PATHS),
    ]
    for inst, label in checks:
        assert all(label in inst.graphs[a].classes for a in inst.agents)
    inst, _, _ = gen_two_agents_sat(SAT)
    assert classify.instance_class(inst) is GraphClass.GENERAL_DAG
