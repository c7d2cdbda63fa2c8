"""Command line behavior: reports, exit codes, determinism."""

import ast
import hashlib
import importlib
import io
import json
import os
import random
import re
import runpy
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest

from prefalloc import classify, core, exact, junction, kernels, polyalgos, randgen, reductions
from prefalloc.cli import main
from prefalloc.core import serialize_instance
from prefalloc.reductions import Cnf3Formula, X3CInstance

from conftest import (
    OUT_OF_DOMAIN,
    chain_instance,
    graph,
    instance,
    ladder_instance,
    misfit_cases,
    short_paths_instance,
)

BENCH = Path(__file__).parents[1] / "perfbench"

WORKED = serialize_instance(
    instance({"1": graph("abc"), "2": graph("b"), "3": graph("c")})
)


@pytest.fixture
def worked_path(tmp_path):
    p = tmp_path / "worked.json"
    p.write_text(WORKED)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_max_value(self, worked_path, capsys):
        code, out, _ = run(capsys, "solve", worked_path, "--objective", "max")
        assert code == 0
        report = json.loads(out)
        assert report["value"] == 1
        assert report["objective"] == "max"
        assert report["algorithm"] == "oracle"

    def test_sum_value_routes_to_path_forest_solver(self, worked_path, capsys):
        code, out, _ = run(capsys, "solve", worked_path, "--objective", "sum")
        assert code == 0
        report = json.loads(out)
        assert report["value"] == 2
        assert report["algorithm"] == "minsum-disjoint-paths"

    def test_report_value_matches_allocation(self, worked_path, capsys):
        _, out, _ = run(capsys, "solve", worked_path, "--objective", "sum")
        report = json.loads(out)
        assert report["sum"] == sum(report["profile"].values())
        assert report["max"] == max(report["profile"].values())

    def test_threshold_yes(self, worked_path, capsys):
        code, out, _ = run(
            capsys, "solve", worked_path, "--objective", "max", "--threshold", "1"
        )
        assert code == 0
        assert json.loads(out)["decision"]["answer"] == "yes"

    def test_threshold_no(self, worked_path, capsys):
        code, out, _ = run(
            capsys, "solve", worked_path, "--objective", "max", "--threshold", "0"
        )
        assert code == 1
        assert json.loads(out)["decision"]["answer"] == "no"

    def test_forced_oracle_agrees_with_auto(self, worked_path, capsys):
        _, auto_out, _ = run(capsys, "solve", worked_path, "--objective", "sum")
        _, oracle_out, _ = run(
            capsys,
            "solve",
            worked_path,
            "--objective",
            "sum",
            "--algorithm",
            "oracle",
        )
        assert json.loads(auto_out)["value"] == json.loads(oracle_out)["value"]

    def test_table_mode(self, worked_path, capsys):
        code, out, _ = run(
            capsys, "solve", worked_path, "--objective", "max", "--table"
        )
        assert code == 0
        assert "value      1" in out

    def test_table_reports_decision_and_wall_time(self, worked_path, capsys):
        code, out, _ = run(
            capsys, "solve", worked_path, "--objective", "max", "--table",
            "--threshold", "0", "--timing"
        )
        assert code == 1
        lines = out.splitlines()
        assert lines[5] == "decision   no (threshold 0)"
        assert re.fullmatch(r"wall_ms    \d+\.?\d*", lines[6])
        assert lines[7] == "agent 1: delta 1, holds b, c"

    def test_timing_flag_adds_wall_time(self, worked_path, capsys):
        _, out, _ = run(
            capsys, "solve", worked_path, "--objective", "max", "--timing"
        )
        assert "wall_ms" in json.loads(out)

    def test_objective_mismatch_is_unsupported(self, worked_path, capsys):
        code, _, err = run(
            capsys,
            "solve",
            worked_path,
            "--objective",
            "max",
            "--algorithm",
            "minsum-paths",
        )
        assert code == 3
        assert "does not minimize" in err

    def test_unknown_algorithm(self, worked_path, capsys):
        code, _, _ = run(
            capsys, "solve", worked_path, "--objective", "sum", "--algorithm", "zig"
        )
        assert code == 3

    def test_unmet_shape_precondition(self, worked_path, capsys):
        code, _, err = run(
            capsys,
            "solve",
            worked_path,
            "--objective",
            "sum",
            "--algorithm",
            "minsum-matchings",
        )
        assert code == 3
        assert "matching" in err

    def test_size_refusal(self, worked_path, capsys, monkeypatch):
        monkeypatch.setenv("PREFALLOC_ORACLE_LIMIT", "2")
        code, _, _ = run(capsys, "solve", worked_path, "--objective", "max")
        assert code == 4

    def test_search_space_past_the_digit_limit_is_refused(self, tmp_path, capsys):
        path = tmp_path / "paths.json"
        path.write_text(serialize_instance(short_paths_instance(12_000)))
        code, out, err = run(capsys, "solve", str(path), "--objective", "max")
        assert code == 4
        assert out == ""
        assert err == "error: search space at least 2**19019 exceeds limit 10000000\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("solve", "--objective", "max"),
            ("solve", "--objective", "sum", "--algorithm", "oracle"),
            ("classify",),
        ],
    )
    def test_oracle_limit_not_an_integer(self, worked_path, capsys, monkeypatch, argv):
        monkeypatch.setenv("PREFALLOC_ORACLE_LIMIT", "abc")
        code, out, err = run(capsys, argv[0], worked_path, *argv[1:])
        assert code == 2
        assert out == ""
        assert "PREFALLOC_ORACLE_LIMIT" in err and "'abc'" in err

    def test_refuses_items_past_the_search_depth(self, tmp_path, capsys, monkeypatch):
        def no_search(inst):
            raise AssertionError("the search ran")

        monkeypatch.setattr(exact, "_prepare", no_search)
        monkeypatch.setenv("PREFALLOC_ORACLE_LIMIT", str(10**400))
        path = tmp_path / "chain.json"
        path.write_text(serialize_instance(chain_instance(1100)))
        code, out, err = run(
            capsys, "solve", str(path), "--objective", "sum", "--algorithm", "oracle"
        )
        assert code == 4
        assert out == ""
        assert "1100 items exceed the search depth" in err

    def test_forced_junction_route_refuses_past_the_routing_limit(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_search(g):
            raise AssertionError("the search ran")

        monkeypatch.setattr(junction, "_agent_cases", no_search)
        path = tmp_path / "ladder.json"
        path.write_text(serialize_instance(ladder_instance(7)))
        code, out, err = run(
            capsys, "solve", str(path), "--objective", "sum", "--algorithm", "minsum-junctions"
        )
        assert code == 4
        assert out == ""
        assert "gamma = 7 exceeds the junction limit 6" in err

    def test_refuses_a_document_past_the_reach_budget_before_any_graph(
        self, tmp_path, capsys, monkeypatch
    ):
        # 92,682**2 passes 2**33: one arc-free agent would need over
        # 0.5 GiB of reach masks.
        built, build = [], core.PreferenceGraph.__post_init__

        def counted(g):
            built.append(g)
            build(g)

        monkeypatch.setattr(core.PreferenceGraph, "__post_init__", counted)
        items = [f"i{j}" for j in range(92_682)]
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"items": items, "agents": [{"id": "x", "items": items}]}))
        code, out, err = run(capsys, "solve", str(path), "--objective", "sum")
        assert (code, out, built) == (4, "", [])
        reason = f"graphs' reach masks would pass {2**33} bits (at agents[0])"
        assert err == f"error: instance too large: {reason}\n"

    def test_auto_route_refuses_items_past_the_search_depth(
        self, tmp_path, capsys, monkeypatch
    ):
        # classify recommends no oracle run that solve would then refuse.
        def no_search(inst):
            raise AssertionError("the search ran")

        monkeypatch.setattr(exact, "_prepare", no_search)
        n = sys.getrecursionlimit() // 2 + 1
        monkeypatch.setenv("PREFALLOC_ORACLE_LIMIT", str(2**n))
        path = tmp_path / "ladder.json"
        path.write_text(serialize_instance(ladder_instance(n)))
        code, out, _ = run(capsys, "classify", str(path))
        assert code == 0
        assert json.loads(out)["recommended"] == {
            "sum": "oracle-too-large",
            "max": "oracle-too-large",
        }
        for objective in ("sum", "max"):
            code, out, err = run(capsys, "solve", str(path), "--objective", objective)
            assert code == 4
            assert out == ""
            assert f"{n} items exceed the search depth {n - 1}" in err

    def test_oracle_limit_negative(self, worked_path, capsys, monkeypatch):
        monkeypatch.setenv("PREFALLOC_ORACLE_LIMIT", "-5")
        code, out, err = run(capsys, "solve", worked_path, "--objective", "max")
        assert code == 2
        assert out == ""
        assert "PREFALLOC_ORACLE_LIMIT" in err and "'-5'" in err

    def test_bad_instance_file(self, tmp_path, capsys):
        p = tmp_path / "broken.json"
        p.write_text("{]")
        code, _, _ = run(capsys, "solve", str(p), "--objective", "sum")
        assert code == 2

    def test_missing_file(self, capsys):
        code, _, _ = run(capsys, "solve", "no-such.json", "--objective", "sum")
        assert code == 2

    def test_stdin_dash(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(WORKED))
        code, out, _ = run(capsys, "solve", "-", "--objective", "max")
        assert code == 0
        assert json.loads(out)["value"] == 1


UNREADABLE = {
    "too-deep": (b"[" * 200_000, "nesting too deep"),
    "not-utf8": (b"\xff\xfe{}", "not UTF-8"),
    "oversized-integer": (b'{"items": [' + b"1" * 5000 + b'], "agents": []}', "too many digits"),
}


@pytest.mark.parametrize("kind", sorted(UNREADABLE))
@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "BAD", "--objective", "sum"],
        ["classify", "BAD"],
        ["eval", "WORKED", "BAD"],
        ["generate", "--reduction", "x3c-stars", "BAD"],
    ],
    ids=["solve", "classify", "eval-allocation", "generate-x3c-stars"],
)
def test_unreadable_input_is_bad_input(argv, kind, worked_path, tmp_path, capsys):
    # Over-deep nesting, bad encoding and an integer too long to convert
    # exit 2 with one line, never a traceback.
    content, named = UNREADABLE[kind]
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    paths = {"BAD": str(bad), "WORKED": worked_path}
    code, out, err = run(capsys, *(paths.get(a, a) for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err


@pytest.mark.parametrize(
    "argv", [["classify"], ["solve", "--objective", "sum"]], ids=["classify", "solve"]
)
def test_dropped_item_warning_is_one_stderr_line(argv, tmp_path, capsys):
    # The pool names "zz", which no agent holds: the library's warning is
    # printed as one line, and stdout is what the pool without "zz" gives.
    doc = {"items": ["a", "b"], "agents": [{"id": "x", "items": ["a", "b"], "arcs": [["a", "b"]]}]}
    clean, dropping = tmp_path / "clean.json", tmp_path / "dropping.json"
    clean.write_text(json.dumps(doc))
    dropping.write_text(json.dumps({**doc, "items": ["a", "b", "zz"]}))
    want = run(capsys, argv[0], str(clean), *argv[1:])
    code, out, err = run(capsys, argv[0], str(dropping), *argv[1:])
    assert (code, out) == want[:2]
    assert err == "warning: dropping 1 item(s) desired by no agent: ['zz']\n"


BAD_SOURCES = {
    "x3c-null": ("x3c-stars", b'{"X": ["a", null, "c"], "C": []}', "X[1]"),
    "x3c-bool": ("x3c-stars", b'{"X": ["a", "b", "c"], "C": [["a", "b", true]]}', "C[0][2]"),
    "x3c-float": ("x3c-stars", b'{"X": ["a", "b", 1.5], "C": []}', "X[2]"),
    "x3c-array": ("x3c-stars", b'{"X": ["a", "b", "c"], "C": [[[2], "b", "c"]]}', "C[0][0]"),
    "x3c-object": ("x3c-stars", b'{"X": [{}, "b", "c"], "C": []}', "X[0]"),
    "x3c-duplicate": (
        "x3c-stars",
        b'{"X": [1, "1", "a"], "C": [[1, "1", "a"]]}',
        "duplicate element '1' (at X[1])",
    ),
    "dimacs-not-utf8": ("sat-2agents", b"p cnf 1 1\n1 1 \xff 0\n", "not UTF-8"),
    "x3c-oversized-integer": (
        "x3c-stars",
        b'{"X": [' + b"1" * 5000 + b', "b", "c"], "C": []}',
        "too many digits",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_SOURCES))
def test_bad_reduction_source_is_bad_input(case, tmp_path, capsys):
    kind, content, named = BAD_SOURCES[case]
    bad = tmp_path / "source"
    bad.write_bytes(content)
    code, out, err = run(capsys, "generate", "--reduction", kind, str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err


# A repeated key would keep only its last value; each document type refuses it.
REPEATED_KEYS = {
    "allocation-agent": (
        ["eval", "WORKED", "BAD"],
        '{"allocation": {"1": ["a"], "1": ["b"]}}',
        "error: bad allocation: invalid JSON: duplicate key '1'\n",
    ),
    "instance-arcs": (
        ["solve", "BAD", "--objective", "sum"],
        '{"items": ["a", "b"], "agents": [{"id": "1", "items": ["a", "b"],'
        ' "arcs": [["a", "b"]], "arcs": [["b", "a"]]}]}',
        "error: bad instance: invalid JSON: duplicate key 'arcs'\n",
    ),
    "x3c-ground": (
        ["generate", "--reduction", "x3c-stars", "BAD"],
        '{"X": ["e1", "e2", "e3"], "X": ["e4", "e5", "e6"], "C": [["e4", "e5", "e6"]]}',
        "error: invalid JSON: duplicate key 'X'\n",
    ),
}


@pytest.mark.parametrize("case", sorted(REPEATED_KEYS))
def test_repeated_json_key_is_bad_input(case, worked_path, tmp_path, capsys):
    argv, content, want = REPEATED_KEYS[case]
    bad = tmp_path / "bad.json"
    bad.write_text(content)
    paths = {"BAD": str(bad), "WORKED": worked_path}
    code, out, err = run(capsys, *(paths.get(a, a) for a in argv))
    assert (code, out, err) == (2, "", want)


class TestEval:
    def test_profile_output(self, worked_path, tmp_path, capsys):
        alloc = tmp_path / "alloc.json"
        alloc.write_text('{"allocation": {"1": ["a"], "2": ["b"], "3": ["c"]}}')
        code, out, _ = run(capsys, "eval", worked_path, str(alloc))
        assert code == 0
        assert json.loads(out) == {
            "profile": {"1": 2, "2": 0, "3": 0},
            "sum": 2,
            "max": 2,
        }

    def test_empty_allocation_counts_all_items(self, worked_path, tmp_path, capsys):
        alloc = tmp_path / "alloc.json"
        alloc.write_text('{"allocation": {}}')
        code, out, _ = run(capsys, "eval", worked_path, str(alloc))
        assert code == 0
        assert json.loads(out)["sum"] == 5

    def test_overlap_rejected(self, worked_path, tmp_path, capsys):
        alloc = tmp_path / "alloc.json"
        alloc.write_text('{"allocation": {"1": ["b"], "2": ["b"]}}')
        code, _, err = run(capsys, "eval", worked_path, str(alloc))
        assert code == 2
        assert "both" in err

    def test_repeated_item_rejected(self, worked_path, tmp_path, capsys):
        alloc = tmp_path / "alloc.json"
        alloc.write_text('{"allocation": {"2": ["b", "b"]}}')
        code, out, err = run(capsys, "eval", worked_path, str(alloc))
        assert code == 2 and out == ""
        assert err == "error: bad allocation: duplicate item 'b' (at allocation.2)\n"

    def test_undesired_item_rejected(self, worked_path, tmp_path, capsys):
        alloc = tmp_path / "alloc.json"
        alloc.write_text('{"allocation": {"2": ["a", "b"]}}')
        code, out, err = run(capsys, "eval", worked_path, str(alloc))
        assert code == 2 and out == ""
        assert "item 'a' assigned to agent '2' who does not desire it" in err


class TestClassify:
    def test_report_fields(self, worked_path, capsys):
        code, out, _ = run(capsys, "classify", worked_path)
        assert code == 0
        report = json.loads(out)
        assert report["gamma"] == 0
        assert report["instance_class"] == "disjoint-paths"
        assert report["recommended"]["sum"] == "minsum-disjoint-paths"
        assert set(report["agents"]) == {"1", "2", "3"}


# A diamond (junctions a and d, general DAG only), an out-star (junction
# a) and a single arc: gamma 3, the sum objective on the junction route.
# The instance with no agents reports general-dag, yet dispatch sends it
# to the first route of each objective, since every agent fits vacuously.
CLASSIFY_GOLDEN = {
    "junctions": (
        serialize_instance(instance({
            "1": graph("abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]),
            "2": graph("abc", [("a", "b"), ("a", "c")]),
            "3": graph("cd", [("c", "d")]),
        })),
        """{
  "agents": {
    "1": [
      "general-dag"
    ],
    "2": [
      "general-dag",
      "out-star",
      "out-tree",
      "union-of-out-stars"
    ],
    "3": [
      "directed-matching",
      "disjoint-paths",
      "general-dag",
      "out-star",
      "out-tree",
      "path",
      "union-of-out-stars"
    ]
  },
  "gamma": 3,
  "instance_class": "general-dag",
  "junctions": {
    "1": [
      "a",
      "d"
    ],
    "2": [
      "a"
    ],
    "3": []
  },
  "recommended": {
    "max": "oracle",
    "sum": "minsum-junctions"
  }
}
""",
    ),
    "empty": (
        '{"items": [], "agents": []}',
        """{
  "agents": {},
  "gamma": 0,
  "instance_class": "general-dag",
  "junctions": {},
  "recommended": {
    "max": "minmax-paths",
    "sum": "minsum-matchings"
  }
}
""",
    ),
}


@pytest.mark.parametrize("name", sorted(CLASSIFY_GOLDEN))
def test_golden_classify_output(name, tmp_path, capsys):
    text, want = CLASSIFY_GOLDEN[name]
    path = tmp_path / f"{name}.json"
    path.write_text(text)
    code, out, _ = run(capsys, "classify", str(path))
    assert code == 0
    assert out == want


# One source per source type.  The cover has q = 2 and p = 6, enough sets
# for x3c-matchings; the formula has three distinct variables per clause
# and two clauses, as sat-paths needs.
REDUCTION_SOURCES = {
    X3CInstance: json.dumps({
        "X": ["e1", "e2", "e3", "e4", "e5", "e6"],
        "C": [["e1", "e2", "e3"], ["e4", "e5", "e6"], ["e1", "e2", "e4"],
              ["e3", "e5", "e6"], ["e1", "e2", "e5"], ["e3", "e4", "e6"]],
    }),
    Cnf3Formula: "p cnf 3 2\n1 2 3 0\n-1 -2 3 0\n",
}


SMALL_OUT_TREE = """{
  "items": [
    "i2",
    "i4"
  ],
  "agents": [
    {
      "id": "a1",
      "items": [
        "i2",
        "i4"
      ],
      "arcs": [
        [
          "i2",
          "i4"
        ]
      ]
    },
    {
      "id": "a2",
      "items": [
        "i4"
      ],
      "arcs": []
    }
  ]
}
"""


class TestGenerate:
    def test_random_is_deterministic(self, capsys):
        args = ("generate", "--random", "path", "--items", "6", "--agents", "2",
                "--seed", "9")
        code1, out1, err1 = run(capsys, *args)
        code2, out2, err2 = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        assert "seed=9" in err1

    def test_random_requires_sizes(self, capsys):
        code, _, err = run(capsys, "generate", "--random", "path")
        assert code == 2
        assert "--items" in err

    def test_random_refuses_one_item(self, capsys):
        code, out, err = run(
            capsys, "generate", "--random", "path", "--items", "1", "--agents", "2"
        )
        assert (code, out) == (2, "")
        assert err == "error: need at least 2 items and 1 agent\n"

    def test_small_random_output_is_pinned(self, capsys):
        code, out, _ = run(
            capsys, "generate", "--random", "out-tree", "--items", "4", "--agents", "2",
            "--seed", "3",
        )
        assert code == 0
        assert out == SMALL_OUT_TREE

    @pytest.mark.parametrize("items, agents", [(92682, 1), (65537, 2)])
    def test_random_refuses_past_the_reach_budget(self, items, agents, capsys):
        code, out, err = run(
            capsys, "generate", "--random", "path", "--items", str(items),
            "--agents", str(agents),
        )
        assert (code, out) == (4, "")
        assert err == (
            "error: instance too large: graphs' reach masks could pass 8589934592 bits"
            f" ({agents} agent(s) over {items} items)\n"
        )

    def test_reduction_requires_a_source(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["generate", "--reduction", "x3c-stars"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == "prefalloc: error: --reduction requires a source path (or -)"

    def test_reduction_emits_instance_and_bounds(self, tmp_path, capsys):
        src = tmp_path / "cover.json"
        src.write_text(
            json.dumps({"X": ["e1", "e2", "e3"], "C": [["e1", "e2", "e3"]] * 3})
        )
        code, out, err = run(capsys, "generate", "--reduction", "x3c-stars", str(src))
        assert code == 0
        assert "max<=3" in err
        doc = json.loads(out)
        assert len(doc["items"]) == 10

    def test_sat_reduction_reports_both_bounds(self, tmp_path, capsys):
        src = tmp_path / "f.cnf"
        src.write_text("p cnf 4 2\n1 -3 -4 0\n-1 2 -4 0\n")
        code, out, err = run(
            capsys, "generate", "--reduction", "sat-2agents", str(src)
        )
        assert code == 0
        assert "sum<=8" in err and "max<=4" in err

    def test_too_small_cover_source(self, tmp_path, capsys):
        src = tmp_path / "cover.json"
        src.write_text(
            json.dumps({"X": ["e1", "e2", "e3"], "C": [["e1", "e2", "e3"]] * 3})
        )
        code, _, err = run(
            capsys, "generate", "--reduction", "x3c-matchings", str(src)
        )
        assert code == 2
        assert "6 sets" in err

    @pytest.mark.parametrize(
        "red", reductions.REDUCTIONS.values(), ids=lambda red: red.cli_name
    )
    def test_reduction_output_matches_its_generator(self, red, tmp_path, capsys):
        text = REDUCTION_SOURCES[red.source]
        src = tmp_path / "source"
        src.write_text(text)
        code, out, err = run(capsys, "generate", "--reduction", red.cli_name, str(src))
        inst, *bounds = red.generate(red.parse(text))
        assert code == 0
        assert out == serialize_instance(inst)
        assert len(bounds) == len(red.objectives)
        pairs = " ".join(f"{o}<={b}" for o, b in zip(red.objectives, bounds))
        assert err == f"reduction {red.cli_name}: decide {pairs}\n"

    def test_bad_source(self, tmp_path, capsys):
        src = tmp_path / "cover.json"
        src.write_text("{notjson")
        code, _, _ = run(capsys, "generate", "--reduction", "x3c-stars", str(src))
        assert code == 2

    def test_generated_instance_round_trips_through_solve(
        self, tmp_path, capsys, monkeypatch
    ):
        import io

        code, out, _ = run(
            capsys, "generate", "--random", "matching", "--items", "6",
            "--agents", "2", "--seed", "4"
        )
        assert code == 0
        monkeypatch.setattr("sys.stdin", io.StringIO(out))
        code, out2, _ = run(capsys, "solve", "-", "--objective", "sum")
        assert code == 0
        assert json.loads(out2)["algorithm"] == "minsum-matchings"


GOLDEN = {
    ("sum", False): """{
  "algorithm": "minsum-disjoint-paths",
  "allocation": {
    "1": [
      "a",
      "b",
      "c"
    ]
  },
  "max": 1,
  "objective": "sum",
  "profile": {
    "1": 0,
    "2": 1,
    "3": 1
  },
  "reason": "every graph is a union of disjoint paths",
  "sum": 2,
  "value": 2
}
""",
    ("sum", True): """objective  sum
algorithm  minsum-disjoint-paths
value      2
sum        2
max        1
agent 1: delta 0, holds a, b, c
agent 2: delta 1, holds -
agent 3: delta 1, holds -
""",
    ("max", False): """{
  "algorithm": "oracle",
  "allocation": {
    "1": [
      "b",
      "c"
    ]
  },
  "max": 1,
  "objective": "max",
  "profile": {
    "1": 1,
    "2": 1,
    "3": 1
  },
  "reason": "search space 18 within limit 10000000",
  "sum": 3,
  "value": 1
}
""",
    ("max", True): """objective  max
algorithm  oracle
value      1
sum        3
max        1
agent 1: delta 1, holds b, c
agent 2: delta 1, holds -
agent 3: delta 1, holds -
""",
}


@pytest.mark.parametrize("objective,table", sorted(GOLDEN))
def test_golden_solve_output(objective, table, worked_path, capsys, monkeypatch):
    monkeypatch.delenv("PREFALLOC_ORACLE_LIMIT", raising=False)
    argv = ["solve", worked_path, "--objective", objective] + (["--table"] if table else [])
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == GOLDEN[(objective, table)]


def test_module_entry_point_prints_the_golden(worked_path):
    """`python -m prefalloc.cli` exits with `main`'s code and prints its report."""
    src = str(Path(__file__).parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "PREFALLOC_ORACLE_LIMIT"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "prefalloc.cli", "solve", worked_path, "--objective", "sum"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == GOLDEN[("sum", False)]


# randgen shape that produces every agent graph of a route's class
RANDGEN_SHAPE = {
    classify.GraphClass.DIRECTED_MATCHING: "matching",
    classify.GraphClass.PATH: "path",
    classify.GraphClass.DISJOINT_PATHS: "disjoint-paths",
    classify.GraphClass.UNION_OUT_STARS: "union-out-stars",
}


def route_instance_path(route, tmp_path) -> str:
    rng = random.Random(route.name)
    agents = route.agents or 3
    if route.shape is classify.GraphClass.GENERAL_DAG:
        inst = randgen.junction_bounded_instance(rng, 7, agents, 3)
    else:
        inst = randgen.random_instance(rng, RANDGEN_SHAPE[route.shape], 7, agents)
    assert route.misfit(inst) is None
    path = tmp_path / f"{route.name}.json"
    path.write_text(serialize_instance(inst))
    return str(path)


@pytest.mark.parametrize("route", classify.ROUTES, ids=lambda r: r.name)
class TestRouteTable:
    def test_forced_route_agrees_with_auto(self, route, tmp_path, capsys):
        path = route_instance_path(route, tmp_path)
        argv = ("solve", path, "--objective", route.objective)
        code, auto_out, _ = run(capsys, *argv)
        assert code == 0
        code, forced_out, _ = run(capsys, *argv, "--algorithm", route.name)
        assert code == 0
        forced = json.loads(forced_out)
        assert forced["algorithm"] == route.name
        assert forced["reason"] == "forced by --algorithm"
        assert forced["value"] == json.loads(auto_out)["value"]

    def test_forced_route_under_other_objective_is_unsupported(
        self, route, tmp_path, capsys
    ):
        other = "max" if route.objective == "sum" else "sum"
        path = route_instance_path(route, tmp_path)
        code, out, err = run(
            capsys, "solve", path, "--objective", other, "--algorithm", route.name
        )
        assert code == 3
        assert out == ""
        assert "does not minimize" in err


@pytest.mark.parametrize(
    "route,kind",
    misfit_cases(classify.ROUTES),  # the junction route refuses only by size
    ids=lambda p: getattr(p, "name", p),
)
def test_forced_route_outside_its_domain_exits_3(route, kind, tmp_path, capsys):
    inst = OUT_OF_DOMAIN[kind]
    path = tmp_path / "misfit.json"
    path.write_text(serialize_instance(inst))
    code, out, err = run(
        capsys, "solve", str(path), "--objective", route.objective, "--algorithm", route.name
    )
    assert code == 3
    assert out == ""
    assert err == f"error: {route.name}: {route.misfit(inst)}\n"


def test_forced_route_misfit_message_is_pinned(tmp_path, capsys):
    path = tmp_path / "join.json"
    path.write_text(serialize_instance(OUT_OF_DOMAIN["shape"]))
    argv = ("solve", str(path), "--objective", "sum", "--algorithm", "minsum-matchings")
    assert run(capsys, *argv) == (
        3,
        "",
        "error: minsum-matchings: graph of agent 'x' is not of class 'directed-matching'\n",
    )


#: Every `--algorithm` value `solve_runs` asks for: both generic ones, a
#: name no route has and each route, forced under both objectives.
SOLVE_ALGORITHMS = ("auto", "oracle", "no-such-solver", *(r.name for r in classify.ROUTES))
SOLVE_FORMS = ((), ("--threshold", "1"), ("--table",))

# sha256 over (argv, exit code, stdout, stderr) of the `solve_runs(5)`
# requests, and their exit codes, taken while the CLI still chose the
# algorithm and re-checked the witness itself.
SOLVE_RUNS = {
    "sha256": "76648811d227e5dbefa6236e0f0a168dda1ad8eda2e8324a6a903e5bcdade0fd",
    "exits": {"0": 660, "1": 30, "3": 1410},
}


def solve_runs(seeds: int) -> dict:
    """Run `prefalloc solve` in process, reading the instance from stdin,
    on one instance per randgen shape and seed below `seeds`, under every
    objective, `SOLVE_ALGORITHMS` value and `SOLVE_FORMS` output form.
    Returns the sha256 over each run's (argv, exit code, stdout, stderr)
    and the count of each exit code."""
    digest, exits = hashlib.sha256(), {}
    with mock.patch.dict(os.environ):
        os.environ.pop("PREFALLOC_ORACLE_LIMIT", None)
        for shape in randgen.SHAPES:
            for seed in range(seeds):
                rng = random.Random(seed)
                inst = randgen.random_instance(rng, shape, rng.randint(2, 9), rng.randint(1, 4))
                text = serialize_instance(inst)
                for objective in core.OBJECTIVES:
                    for algorithm in SOLVE_ALGORITHMS:
                        for form in SOLVE_FORMS:
                            argv = ["solve", "-", "--objective", objective,
                                    "--algorithm", algorithm, *form]
                            out, err = io.StringIO(), io.StringIO()
                            with mock.patch.object(sys, "stdin", io.StringIO(text)), \
                                    redirect_stdout(out), redirect_stderr(err):
                                code = main(argv)
                            record = [argv, code, out.getvalue(), err.getvalue()]
                            digest.update(json.dumps(record).encode())
                            exits[str(code)] = exits.get(str(code), 0) + 1
    return {"sha256": digest.hexdigest(), "exits": dict(sorted(exits.items()))}


def test_solve_request_path_is_pinned():
    assert solve_runs(5) == SOLVE_RUNS


def test_route_table_matches_benchmark_service():
    """The benchmark keeps its own route map; it must name the same solvers."""
    service = runpy.run_path(str(BENCH / "service.py"))
    routes = {route.name: route.solver for route in classify.ROUTES}
    routes["oracle"] = ("exact", "minimize")
    assert routes == service["SOLVERS"]


# Library names the benchmark's own call sites spell out (perfbench's
# `lib.<module>.<name>`), at least the ones its service and workloads need.
BENCHMARK_CALLS = {
    ("classify", "dispatch"),
    ("classify", "junction_count"),
    ("core", "parse_instance"),
    ("core", "profile"),
    ("core", "serialize_instance"),
    ("exact", "search_space"),
    ("randgen", "junction_bounded_instance"),
    ("randgen", "random_instance"),
    ("reductions", "gen_two_agents_sat"),
    ("reductions", "parse_dimacs"),
    ("reductions", "witness_extract"),
}


def test_benchmark_names_exist_in_the_library(monkeypatch):
    """Every name the benchmark wraps or calls is still on its module."""
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    called = {
        (m.group(1), m.group(2))
        for path in BENCH.glob("*.py")
        for m in re.finditer(r"\blib\.(\w+)\.(\w+)", path.read_text())
    }
    assert BENCHMARK_CALLS <= called
    names = called | {(mod, attr) for mod, attr, _, _ in tracing.WRAPS}
    names |= set(tracing.service.SOLVERS.values())
    missing = sorted(
        (mod, attr)
        for mod, attr in names
        if not hasattr(importlib.import_module(f"prefalloc.{mod}"), attr)
    )
    assert missing == []


def test_unused_imports_are_benchmark_wraps(monkeypatch):
    """Every import `src/prefalloc` keeps only for the benchmark's tracer
    (marked `noqa: F401`) is a name the tracer still wraps on that module."""
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    wrapped = {(mod, attr) for mod, attr, _, _ in tracing.WRAPS}
    kept = {
        (path.stem, name.strip())
        for path in (Path(__file__).parents[1] / "src" / "prefalloc").glob("*.py")
        for m in re.finditer(
            r"^from \.\w+ import ([\w, ]+?)\s*# noqa: F401", path.read_text(), re.M
        )
        for name in m.group(1).split(",")
    }
    assert kept  # the pattern still finds the marked imports
    assert sorted(kept - wrapped) == []


def test_every_module_level_import_is_read():
    """Each name a `src/prefalloc` module imports at top level is read in
    it, except on the lines kept for the benchmark's tracer (above)."""
    unread = []
    for path in sorted((Path(__file__).parents[1] / "src" / "prefalloc").glob("*.py")):
        if path.name == "__init__.py":  # re-exports
            continue
        text = path.read_text()
        lines, tree = text.splitlines(), ast.parse(text)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if getattr(node, "module", None) == "__future__":
                continue
            if "noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).partition(".")[0]
                if name not in read:
                    unread.append(f"{path.name}:{node.lineno} {name}")
    assert unread == []


# sha256 over the `service.handle` responses to the first 120 requests of
# each workload's seed-1 corpus, the requests the benchmark's traced pass
# serves.  Taken before graphs were stored in sorted-position form.
BENCHMARK_RESPONSE_DIGESTS = {
    "tractable-large": "bebe8ad735c07cc153447794ef939bcfaa776618d824191f5f1049d872a6ec1e",
    "junction-flow": "a41d78d450d0504d6c34ad72222b62b19635ac93f3bf208602a64ddccd34b9d9",
    "oracle-gadgets": "945cb1f58d06fa2134c80f306ec38fc34bcfe746ca17b0470271e13d6b50464f",
}


# sha256 over every request of each workload's full seed-1 corpus: its
# instance text, objective, route, threshold and formula.  The response
# pins above see neither the requests past the first 120 nor a change in
# the instance text that parses the same.
BENCHMARK_CORPUS_DIGESTS = {
    "tractable-large": "2ee82ffadd7b318c5a840c17a967c8ee72b757c8340da34bfcf7d4504f0a0ea4",
    "junction-flow": "8ecc8f2c4980552d8da73cb283ce39f4572cab3ca6ba4ab2a46e17deca18ec76",
    "oracle-gadgets": "a6f534837a06cab5d0a977c8a39efcf15e3a678788fc4297654da5be8de34056",
}


def benchmark_corpus(workload):
    """The benchmark's `service` module, this library and the workload's
    seed-1 corpus; `perfbench` must be importable."""
    service = importlib.import_module("service")
    workloads = importlib.import_module("workloads")
    lib = SimpleNamespace(
        **{m: importlib.import_module(f"prefalloc.{m}") for m in service.MODULES}
    )
    corpus, _ = workloads.build(lib, workload, 1)
    return service, lib, corpus


def prefix_requests(workload):
    """`benchmark_corpus`, cut to the first 120 requests."""
    service, lib, corpus = benchmark_corpus(workload)
    return service, lib, corpus[:120]


def corpus_digest(workload) -> str:
    _, _, corpus = benchmark_corpus(workload)
    digest = hashlib.sha256()
    for req in corpus:
        fields = [req.instance, req.objective, req.route, req.threshold, req.formula]
        digest.update(json.dumps(fields).encode() + b"\n")
    return digest.hexdigest()


def benchmark_prefix(workload, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return prefix_requests(workload)


def serve_counting(workload, hooks):
    """Serve the workload's prefix with hook(*args) run before every call of
    owner.name, for each (owner, name, hook) in `hooks`; the originals are
    put back afterwards."""
    service, lib, requests = prefix_requests(workload)
    originals = [(owner, name, getattr(owner, name)) for owner, name, _ in hooks]

    def hooked(fn, hook):
        def call(*args, **kwargs):
            hook(*args, **kwargs)
            return fn(*args, **kwargs)

        return call

    try:
        for (owner, name, fn), (_, _, hook) in zip(originals, hooks):
            setattr(owner, name, hooked(fn, hook))
        for req in requests:
            service.handle(lib, req)
    finally:
        for owner, name, fn in originals:
            setattr(owner, name, fn)


def tally(counts, key):
    """A hook that counts its calls under counts[key]."""

    def hook(*_):
        counts[key] += 1

    return hook


@pytest.mark.parametrize("workload", sorted(BENCHMARK_RESPONSE_DIGESTS))
def test_benchmark_responses_are_pinned(workload, monkeypatch):
    service, lib, requests = benchmark_prefix(workload, monkeypatch)
    digest = hashlib.sha256()
    for req in requests:
        digest.update(service.handle(lib, req).encode())
    assert digest.hexdigest() == BENCHMARK_RESPONSE_DIGESTS[workload]


@pytest.mark.parametrize("workload", sorted(BENCHMARK_CORPUS_DIGESTS))
def test_benchmark_corpora_are_pinned(workload, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    assert corpus_digest(workload) == BENCHMARK_CORPUS_DIGESTS[workload]


# Construction ledger: `PreferenceGraph` and `Instance` objects built while
# `service.handle` serves the same 120-request prefixes.  Parsing builds one
# graph per agent and one instance per request; on `oracle-gadgets`,
# `reductions.witness_extract` rebuilds the gadget for each of the 80 "yes"
# answers in the prefix, which adds 160 graphs and 80 instances.
BENCHMARK_CONSTRUCTIONS = {
    "tractable-large": {"PreferenceGraph": 820, "Instance": 120},
    "junction-flow": {"PreferenceGraph": 720, "Instance": 120},
    "oracle-gadgets": {"PreferenceGraph": 440, "Instance": 200},
}


def constructions(workload) -> dict[str, int]:
    built = dict.fromkeys(("PreferenceGraph", "Instance"), 0)
    hooks = [(getattr(core, n), "__post_init__", tally(built, n)) for n in built]
    serve_counting(workload, hooks)
    return built


@pytest.mark.parametrize("workload", sorted(BENCHMARK_CONSTRUCTIONS))
def test_benchmark_constructions_are_pinned(workload, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    assert constructions(workload) == BENCHMARK_CONSTRUCTIONS[workload]


# Junction ledger: the work of the junction route while `service.handle`
# serves the same `junction-flow` prefix.  Each guess the agent product
# forms is checked for two agents taking one junction (`_taken`); the
# consistent ones are bounded (`_bound`), those whose bound can beat the
# incumbent are evaluated (`_evaluate_guess`), and each evaluation here
# runs one flow (`chain_flow`) on a network of `flow_arcs` arcs in all.
JUNCTION_WORK = {
    "_taken": 2701,
    "_bound": 2660,
    "_evaluate_guess": 380,
    "chain_flow": 380,
    "flow_arcs": 18981,
}


def chain_arcs(rows, exits, groups) -> int:
    """Arcs of the network `chain_flow` solves: one per (row, item), one
    exit per row, one s -> item per distinct item and one per group."""
    items = {x for row in rows for x, _ in row}
    return sum(len(row) for row in rows) + len(rows) + len(items) + groups


def junction_work() -> dict[str, int]:
    counts = dict.fromkeys(JUNCTION_WORK, 0)

    def flow(*args):
        counts["chain_flow"] += 1
        counts["flow_arcs"] += chain_arcs(*args)

    hooks = [(junction, n, tally(counts, n)) for n in ("_taken", "_bound", "_evaluate_guess")]
    serve_counting("junction-flow", [*hooks, (junction, "chain_flow", flow)])
    return counts


def test_benchmark_junction_work_is_pinned(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    assert junction_work() == JUNCTION_WORK


# Chain-flow ledger: the max-profit flows each route runs while
# `service.handle` serves the `tractable-large` prefix (20 requests per
# route), with the arcs of their networks.  The three path-forest routes
# run one chain network each (`polyalgos.chain_flow`); the star-forest
# route runs one min cut (`kernels.max_profit_flow`, under
# `bipartite_mwis`).  The two min-max routes run no flow.
CHAIN_FLOWS = {
    "minsum-matchings": {"calls": 20, "arcs": 1631},
    "minsum-paths": {"calls": 20, "arcs": 4940},
    "minsum-disjoint-paths": {"calls": 20, "arcs": 3418},
    "minsum-two-star-forests": {"calls": 20, "arcs": 857},
}


def chain_flows() -> dict[str, dict[str, int]]:
    counts: dict[str, dict[str, int]] = {}
    route = None

    def enter(name):
        def hook(*_):
            nonlocal route
            route = name

        return hook

    def count(arcs):
        c = counts.setdefault(route, {"calls": 0, "arcs": 0})
        c["calls"] += 1
        c["arcs"] += arcs

    def chain(*args):
        count(chain_arcs(*args))

    def flow(arcs, *_):
        count(len(arcs))

    hooks = [
        (importlib.import_module(f"prefalloc.{r.solver[0]}"), r.solver[1], enter(r.name))
        for r in classify.ROUTES
    ]
    hooks += [(polyalgos, "chain_flow", chain), (kernels, "max_profit_flow", flow)]
    serve_counting("tractable-large", hooks)
    return counts


def test_benchmark_chain_flows_are_pinned(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    assert chain_flows() == CHAIN_FLOWS


# sha256 of every `chain_flow` call, arguments and result, while
# `service.handle` serves the full seed-1 corpora of the two workloads that
# run chain networks; taken from the solver that ran `max_profit_flow` on
# the chain network's arcs, so the kernel must find that flow, ties and all.
CHAIN_FLOW_DIGESTS = {
    "junction-flow": {
        "calls": 380,
        "sha256": "990b1ac0003127ecb3ad30dba4918d0437efda8a9780701805e65d60c500b1e7",
    },
    "tractable-large": {
        "calls": 240,
        "sha256": "6c60f876f6c4b0c01dd460800423c8b487e7629ef2b5f323b36b009781c1e33d",
    },
}


def chain_flow_digest(workload) -> dict:
    service, lib, corpus = benchmark_corpus(workload)
    digest, calls = hashlib.sha256(), 0
    owners = [(m, m.chain_flow) for m in (polyalgos, junction)]

    def recorded(fn):
        def call(rows, exits, groups):
            nonlocal calls
            got = fn(rows, exits, groups)
            calls += 1
            digest.update(json.dumps([rows, exits, groups, *got]).encode() + b"\n")
            return got

        return call

    try:
        for owner, fn in owners:
            owner.chain_flow = recorded(fn)
        for req in corpus:
            service.handle(lib, req)
    finally:
        for owner, fn in owners:
            owner.chain_flow = fn
    return {"calls": calls, "sha256": digest.hexdigest()}


def test_benchmark_chain_flows_are_digested(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    for workload, want in CHAIN_FLOW_DIGESTS.items():
        assert chain_flow_digest(workload) == want, workload


def test_benchmark_flow_counts_ignore_the_hash_seed():
    """`tests/ledger.py` counts the junction and chain-flow tables and
    digests the chain flows and the corpora in fresh interpreters the same
    whatever their string hash seed, so the pins stand as exact evidence."""
    ledger = Path(__file__).parent / "ledger.py"
    procs = {
        seed: subprocess.Popen(
            [sys.executable, str(ledger), "junction_work", "chain_flows", "flows", "corpora"],
            stdout=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONHASHSEED": seed},
        )
        for seed in ("0", "7", "12345")
    }
    want = {
        "junction_work": JUNCTION_WORK,
        "chain_flows": CHAIN_FLOWS,
        "flows": CHAIN_FLOW_DIGESTS,
        "corpora": BENCHMARK_CORPUS_DIGESTS,
    }
    try:
        for seed, proc in procs.items():
            out, _ = proc.communicate(timeout=120)
            assert proc.returncode == 0, f"PYTHONHASHSEED={seed}"
            assert json.loads(out) == want, f"PYTHONHASHSEED={seed}"
    finally:
        for proc in procs.values():
            proc.kill()

