"""Exhaustive oracle: optimality, determinism, profile sets, size guard."""

import hashlib
import importlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from prefalloc.core import (
    Instance,
    ParseError,
    PreconditionError,
    SizeGuardError,
    parse_instance,
    profile,
    validate_allocation,
)
from prefalloc.exact import all_profiles, minimize, search_space
from prefalloc import classify, exact, randgen, reductions

from conftest import (
    brute_minimum,
    brute_profiles,
    chain_instance,
    graph,
    instance,
    scan_first_optimum,
    short_paths_instance,
)


def test_worked_example_minimums(worked):
    assert minimize(worked, "sum").value == 2
    assert minimize(worked, "max").value == 1


def test_worked_example_witnesses_are_valid(worked):
    for objective in ("sum", "max"):
        res = minimize(worked, objective)
        assert validate_allocation(worked, res.witness) == []
        prof = profile(worked, res.witness)
        got = prof.total if objective == "sum" else prof.maximum
        assert got == res.value


def test_worked_example_profiles(worked):
    profs = all_profiles(worked)
    assert (1, 1, 0) in profs
    assert (0, 1, 1) in profs
    assert (3, 1, 1) in profs  # nothing allocated
    assert min(p[0] + p[1] + p[2] for p in profs) == 2
    assert min(max(p) for p in profs) == 1


def test_single_agent_chain():
    inst = instance({"x": graph("abc", [("a", "b"), ("b", "c")])})
    assert minimize(inst, "sum").value == 0
    assert minimize(inst, "sum").witness.get("x") != frozenset()


def test_two_agents_fighting_over_one_item():
    inst = instance({"x": graph("a"), "y": graph("a")})
    res = minimize(inst, "sum")
    assert res.value == 1
    assert minimize(inst, "max").value == 1


@pytest.mark.parametrize("seed", range(25))
@pytest.mark.parametrize("objective", ["sum", "max"])
def test_matches_plain_enumeration(seed, objective):
    rng = random.Random(seed)
    inst = randgen.random_instance(
        rng, rng.choice(randgen.SHAPES), rng.randint(2, 6), rng.randint(1, 3)
    )
    assert minimize(inst, objective).value == brute_minimum(inst, objective)


@pytest.mark.parametrize("seed", range(10))
def test_profile_sets_match_plain_enumeration(seed):
    rng = random.Random(40 + seed)
    inst = randgen.random_instance(
        rng, rng.choice(randgen.SHAPES), rng.randint(2, 5), rng.randint(1, 3)
    )
    assert all_profiles(inst) == brute_profiles(inst)


def test_repeated_runs_return_identical_witnesses(worked):
    first = minimize(worked, "sum")
    second = minimize(worked, "sum")
    assert first.witness == second.witness
    assert first.value == second.value


@pytest.mark.parametrize("seed", range(10))
def test_witness_is_first_optimum_in_scan_order(seed):
    """The reported value and witness are those a plain ordered scan finds first."""
    rng = random.Random(70 + seed)
    for agents, low, high in ((2, 2, 5), (3, 6, 7)):
        inst = randgen.random_instance(rng, "dag", rng.randint(low, high), agents)
        for objective in ("sum", "max"):
            res = minimize(inst, objective)
            assert (res.value, res.witness) == scan_first_optimum(inst, objective)


def _gadget(rng: random.Random, clauses: int) -> Instance:
    """Two-agent 3-CNF gadget over 2 variables with random clauses."""
    formula = reductions.Cnf3Formula(
        2,
        [
            tuple(rng.choice((1, -1)) * rng.randint(1, 2) for _ in range(3))
            for _ in range(clauses)
        ],
    )
    return reductions.gen_two_agents_sat(formula)[0]


@pytest.mark.parametrize("seed", range(10))
def test_gadget_witness_is_first_optimum_in_scan_order(seed):
    """Two-agent 3-CNF gadgets under max, where the bound cuts most of the scan."""
    rng = random.Random(90 + seed)
    inst = _gadget(rng, rng.randint(1, 2))
    res = minimize(inst, "max")
    assert (res.value, res.witness) == scan_first_optimum(inst, "max")


_SCAN_BUDGET = 8192  # leaves scan_first_optimum may enumerate per draw


@pytest.mark.parametrize("seed", range(48))
def test_minimize_matches_ordered_scan(seed):
    """Value and witness equal the plain ordered scan's under both objectives.

    Draws cover four graph shapes with 2-4 agents, two-agent gadgets, where
    both agents desire every item and the joint gain cap cuts most, and
    (seeds 40 on) unions of out-stars with 5-6 agents, where a covered
    root's marginal gain falls far below its reach size.
    """
    rng = random.Random(300 + seed)
    if seed < 40:
        shape, agents = ("dag", "out-tree", "union-out-stars", "path", "gadget")[seed % 5], (2, 4)
    else:
        shape, agents = "union-out-stars", (5, 6)
    if shape == "gadget":
        inst = _gadget(rng, rng.randint(1, 2))
        objectives = ("sum",)  # max is covered by the gadget test above
    else:
        while True:
            n, k = rng.randint(4, 9), rng.randint(*agents)
            inst = randgen.random_instance(rng, shape, n, k)
            if search_space(inst) <= _SCAN_BUDGET:
                break
        objectives = ("sum", "max")
    for objective in objectives:
        res = minimize(inst, objective)
        assert (res.value, res.witness) == scan_first_optimum(inst, objective)


@pytest.mark.parametrize("seed", range(3))
def test_three_clause_gadget_witness_is_first_optimum_in_scan_order(seed):
    """2-variable, 3-clause gadgets (3**9 leaves), as the benchmark serves,
    under both objectives: contested items, where the loss bound cuts most."""
    inst = _gadget(random.Random(600 + seed), 3)
    for objective in ("sum", "max"):
        res = minimize(inst, objective)
        assert (res.value, res.witness) == scan_first_optimum(inst, objective)


@pytest.mark.parametrize("seed", range(8))
def test_many_agent_dag_witness_is_first_optimum_in_scan_order(seed):
    """General DAGs with 3-4 agents, where an item's loss falls on all but
    one of several desiring agents."""
    rng = random.Random(700 + seed)
    while True:
        inst = randgen.random_instance(rng, "dag", rng.randint(5, 8), rng.randint(3, 4))
        if search_space(inst) <= _SCAN_BUDGET:
            break
    for objective in ("sum", "max"):
        res = minimize(inst, objective)
        assert (res.value, res.witness) == scan_first_optimum(inst, objective)


def test_gadget_leaf_count_regression():
    # A satisfiable 3-variable, 3-clause gadget: 3^12 = 531441 leaves
    # unpruned.  Summing reach sizes as the bound visited 12816 of them
    # under max; the suffix-union bound with the zero-gain skip visited 447
    # under max and 1266 under sum, the joint gain cap brought them to
    # 231 and 648, and a dynamic joint gain bound to 51 and 48.  The
    # private-bit loss bound keeps them there without it; the search nodes
    # went from 346 to 373 under max and from 281 to 392 under sum when it
    # was dropped.
    formula = reductions.Cnf3Formula(3, ((1, 2, 3), (-1, -2, 3), (1, -2, -3)))
    inst, sum_threshold, threshold = reductions.gen_two_agents_sat(formula)
    res = minimize(inst, "max")
    assert res.value == threshold
    assert res.leaves <= 51
    res = minimize(inst, "sum")
    assert res.value == sum_threshold
    assert res.leaves <= 48


# Leaves and search nodes (`dfs` calls) of `minimize`, summed over the first
# 120 requests of the seed-1 oracle-gadgets corpus, the requests the
# benchmark's traced pass serves.  The corpus asks for max; sum pins the sum
# budgets' cuts.  Under max the leaves were 20490 under the suffix-union
# bound, 9438 with the joint gain cap and 3444 with a dynamic joint gain
# bound G(j); under sum they were 4335.  The private-bit loss bound then cut
# the nodes from 53188 to 21625 under max and from 69223 to 24741 under sum.
# Dropping G(j), whose pass over the remaining items cost more time than it
# saved once the loss bound cut, moved them to the counts below.
ORACLE_PREFIX_COUNTS = {"max": (3453, 23538), "sum": (4335, 27817)}


def _oracle_corpus() -> list:
    """The seed-1 oracle-gadgets corpus; `perfbench` must be importable."""
    service = importlib.import_module("service")
    workloads = importlib.import_module("workloads")
    lib = SimpleNamespace(
        **{m: importlib.import_module(f"prefalloc.{m}") for m in service.MODULES}
    )
    return workloads.build(lib, "oracle-gadgets", 1)[0]


def oracle_prefix_counts(objective: str) -> tuple[int, int]:
    """(leaves, nodes) over the prefix above; `perfbench` must be importable."""
    corpus = _oracle_corpus()
    assert {req.objective for req in corpus[:120]} == {"max"}
    results = [minimize(parse_instance(req.instance), objective) for req in corpus[:120]]
    return sum(r.leaves for r in results), sum(r.nodes for r in results)


@pytest.mark.parametrize("objective", ["max", "sum"])
def test_benchmark_oracle_prefix_leaf_count(monkeypatch, objective):
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    assert oracle_prefix_counts(objective) == ORACLE_PREFIX_COUNTS[objective]


def test_benchmark_oracle_prefix_counts_ignore_the_hash_seed():
    """The pinned counts come out the same in fresh interpreters whatever
    their string hash seed, so they stand as exact evidence."""
    root = Path(__file__).parents[1]
    path = os.pathsep.join(str(root / d) for d in ("src", "tests", "perfbench"))
    code = (
        "import json, test_exact; print(json.dumps("
        "{o: test_exact.oracle_prefix_counts(o) for o in test_exact.ORACLE_PREFIX_COUNTS}))"
    )
    for seed in ("0", "7", "12345"):
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path},
        )
        counts = {o: tuple(c) for o, c in json.loads(proc.stdout).items()}
        assert counts == ORACLE_PREFIX_COUNTS, f"PYTHONHASHSEED={seed}"


# sha256 of the JSON list of (value, witness) that `minimize` returns on
# every request of the seed-1 oracle-gadgets corpus (600), each witness
# written as sorted (agent, sorted bundle) pairs.  A change to the search
# may move the counts above, never these.
ORACLE_DIGESTS = {
    "max": "584c4a5badcbc1883700f245998edc3d5f336f6417e7ba75d22504828836aec6",
    "sum": "441ad83e6d348c8db8b67f488789ee3be88125976db5d16b8fa3c5d9f025b8a5",
}


def oracle_digest(objective: str) -> str:
    """The digest above; `perfbench` must be importable."""
    rows = []
    for req in _oracle_corpus():
        res = minimize(parse_instance(req.instance), objective)
        rows.append((res.value, [(a, sorted(b)) for a, b in sorted(res.witness.pairs)]))
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


@pytest.mark.parametrize("objective", ["max", "sum"])
def test_benchmark_oracle_answers_are_digested(monkeypatch, objective):
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    assert oracle_digest(objective) == ORACLE_DIGESTS[objective]


def test_loss_bound_cuts_a_shared_chain():
    """Two agents share a 14-item chain plus the arc i00002 -> i00000.  Each
    needs the top items, which only one of them can get, and no gain bound
    sees that.  `dispatch` serves it with the oracle (3**14 leaves); before
    the loss bound the search visited 2391490 nodes."""
    names = [f"i{k:05d}" for k in range(14)]
    g = graph(names, [*zip(names[1:], names), ("i00002", "i00000")])
    inst = instance({"x": g, "y": g})
    assert classify.dispatch(inst, "max").name == "oracle"
    res = minimize(inst, "max")
    assert res.value == 1
    assert res.witness.get("x") == frozenset({"i00012"})
    assert res.witness.get("y") == frozenset({"i00013"})
    assert res.nodes <= 100


@pytest.mark.parametrize("objective, nodes", [("sum", 1681), ("max", 1684)])
def test_loss_bound_leaves_opposed_chains_alone(objective, nodes, monkeypatch):
    """Two 40-item chains in opposite directions: each agent's top item is
    the other's bottom, so no loss is forced and the search visits exactly
    the nodes it visited without the loss bound."""
    names = [f"i{k:05d}" for k in range(40)]
    inst = instance(
        {"x": graph(names, zip(names[1:], names)), "y": graph(names, zip(names, names[1:]))}
    )
    monkeypatch.setenv("PREFALLOC_ORACLE_LIMIT", str(10**20))
    res = minimize(inst, objective)
    assert res.value == 0
    assert res.nodes == nodes


@pytest.mark.parametrize("seed", range(4))
def test_gadget_profile_sets_match_plain_enumeration(seed):
    """all_profiles enumerates every profile; no optimum bound may cut it."""
    inst = _gadget(random.Random(500 + seed), 1)
    assert all_profiles(inst) == brute_profiles(inst)


class TestDecide:
    """Deciding value <= t is one `minimize`: "yes" exactly when its value meets t."""

    def test_yes_returns_a_meeting_witness(self, worked):
        res = minimize(worked, "max")
        assert res.value <= 1
        assert profile(worked, res.witness).maximum <= 1

    def test_no_returns_none(self, worked):
        assert minimize(worked, "max").value > 0
        assert minimize(worked, "sum").value > 1

    def test_threshold_at_optimum_is_tight(self, worked):
        assert minimize(worked, "sum").value <= 2


class TestSizeGuard:
    def test_search_space_counts_options(self, worked):
        # item a: only agent 1; b: agents 1, 2; c: agents 1, 3
        assert search_space(worked) == 2 * 3 * 3

    def test_minimize_refuses_over_limit(self, worked, monkeypatch):
        monkeypatch.setenv("PREFALLOC_ORACLE_LIMIT", "17")
        with pytest.raises(SizeGuardError):
            minimize(worked, "sum")
        monkeypatch.setenv("PREFALLOC_ORACLE_LIMIT", "18")
        assert minimize(worked, "sum").value == 2

    def test_env_var_controls_default(self, worked, monkeypatch):
        monkeypatch.setenv("PREFALLOC_ORACLE_LIMIT", "2")
        with pytest.raises(SizeGuardError):
            minimize(worked, "sum")
        monkeypatch.setenv("PREFALLOC_ORACLE_LIMIT", "1000")
        assert minimize(worked, "sum").value == 2

    @pytest.mark.parametrize("raw", ["abc", "1e6", "10_000x"])
    def test_env_var_not_an_integer_is_refused(self, worked, monkeypatch, raw):
        monkeypatch.setenv("PREFALLOC_ORACLE_LIMIT", raw)
        with pytest.raises(ParseError, match="PREFALLOC_ORACLE_LIMIT"):
            minimize(worked, "sum")

    @pytest.mark.parametrize("raw", ["-5", "-1"])
    def test_env_var_negative_is_refused(self, worked, monkeypatch, raw):
        monkeypatch.setenv("PREFALLOC_ORACLE_LIMIT", raw)
        with pytest.raises(ParseError, match="non-negative"):
            minimize(worked, "sum")

    def test_env_var_zero_is_a_limit(self, worked, monkeypatch):
        monkeypatch.setenv("PREFALLOC_ORACLE_LIMIT", "0")
        with pytest.raises(SizeGuardError, match="exceeds limit 0"):
            minimize(worked, "sum")

    def test_all_profiles_guarded_too(self, worked, monkeypatch):
        monkeypatch.setenv("PREFALLOC_ORACLE_LIMIT", "3")
        with pytest.raises(SizeGuardError):
            all_profiles(worked)

    def test_refuses_items_past_the_search_depth(self, monkeypatch):
        # The search recurses once per item, so 1100 items would end in
        # RecursionError; the guard refuses before any search runs.
        def no_search(inst):
            raise AssertionError("the search ran")

        monkeypatch.setattr(exact, "_prepare", no_search)
        monkeypatch.setenv("PREFALLOC_ORACLE_LIMIT", str(10**400))
        inst = chain_instance(1100)
        message = f"1100 items exceed the search depth {sys.getrecursionlimit() // 2}"
        with pytest.raises(SizeGuardError, match=message):
            minimize(inst, "sum")
        with pytest.raises(SizeGuardError, match=message):
            all_profiles(inst)

    def test_search_space_past_the_digit_limit_is_refused(self, monkeypatch):
        # 3**12000 has more decimal digits than CPython turns into a string;
        # the reason names a power of two instead of crashing.
        def no_search(inst):
            raise AssertionError("the search ran")

        monkeypatch.setattr(exact, "_prepare", no_search)
        message = (
            r"^search space at least 2\*\*19019 exceeds limit 10000000; "
            "raise it via PREFALLOC_ORACLE_LIMIT$"
        )
        with pytest.raises(SizeGuardError, match=message):
            minimize(short_paths_instance(12_000), "max")

    def test_search_depth_limit_is_reachable(self, monkeypatch):
        # As many items as the guard allows search without RecursionError.
        monkeypatch.setenv("PREFALLOC_ORACLE_LIMIT", str(10**400))
        inst = chain_instance(sys.getrecursionlimit() // 2)
        for objective in ("sum", "max"):
            assert minimize(inst, objective).value == 0


def test_unknown_objective_rejected(worked):
    with pytest.raises(PreconditionError, match="unknown objective 'median'"):
        minimize(worked, "median")
    with pytest.raises(PreconditionError, match="unknown objective 'median'"):
        classify.dispatch(worked, "median")
