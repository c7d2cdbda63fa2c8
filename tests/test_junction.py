"""Junction-parameterized exact min-sum solver."""

import hashlib
import itertools
import json
import random

import pytest

from prefalloc import exact, junction, randgen
from prefalloc.classify import junction_count, junctions
from prefalloc.core import (
    SizeGuardError,
    profile,
    serialize_instance,
    validate_allocation,
)
from prefalloc.junction import (
    _agent_cases,
    _bound,
    _solve_flow,
    _taken,
    minsum_few_junctions,
)
from prefalloc.kernels import max_profit_flow
from prefalloc.polyalgos import _chain_network, minsum_disjoint_paths

from conftest import graph, instance


def test_no_junctions_behaves_like_path_solver():
    g = graph("abcd", [("a", "b"), ("c", "d")])
    inst = instance({"x": g, "y": g})
    assert minsum_few_junctions(inst).value == minsum_disjoint_paths(inst).value


def test_single_diamond():
    g = graph("abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
    inst = instance({"x": g})
    res = minsum_few_junctions(inst)
    assert res.value == 0
    assert res.witness.get("x") >= {"a"}


def test_two_agents_on_a_diamond():
    g = graph("abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
    inst = instance({"x": g, "y": g})
    res = minsum_few_junctions(inst)
    assert res.value == exact.minimize(inst, "sum").value


def test_fan_in_needs_all_parents():
    # receiving both parents covers the shared child twice over
    g = graph("abc", [("a", "c"), ("b", "c")])
    inst = instance({"x": g, "y": graph("c")})
    res = minsum_few_junctions(inst)
    assert res.value == exact.minimize(inst, "sum").value == 0


def test_junction_limit_enforced():
    g = graph("abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
    inst = instance({"x": g})
    with pytest.raises(SizeGuardError):
        minsum_few_junctions(inst, max_junctions=1)
    assert minsum_few_junctions(inst, max_junctions=2).value == 0


@pytest.mark.parametrize("seed", range(50))
def test_matches_oracle_on_junction_bounded_instances(seed):
    rng = random.Random(seed)
    inst = randgen.junction_bounded_instance(
        rng, rng.randint(3, 8), rng.randint(1, 3), max_junctions=3
    )
    assert junction_count(inst) <= 3
    res = minsum_few_junctions(inst)
    assert validate_allocation(inst, res.witness) == []
    assert profile(inst, res.witness).total == res.value
    assert res.value == exact.minimize(inst, "sum").value


@pytest.mark.parametrize("seed", range(20))
def test_matches_oracle_on_general_dags(seed):
    rng = random.Random(900 + seed)
    inst = randgen.random_instance(rng, "dag", rng.randint(2, 6), rng.randint(1, 2))
    res = minsum_few_junctions(inst)
    assert res.value == exact.minimize(inst, "sum").value


@pytest.mark.parametrize("seed", range(20))
def test_matches_ilp_at_benchmark_size(reference, seed):
    # 12 items and 6 agents, as in the benchmark's junction workload, is
    # past the oracle's reach; the ILP checks the flow-based answer there.
    # Draws without a junction are redrawn, so every case guesses.
    rng = random.Random(seed)
    inst = randgen.junction_bounded_instance(rng, 12, 6, 3)
    while junction_count(inst) == 0:
        inst = randgen.junction_bounded_instance(rng, 12, 6, 3)
    res = minsum_few_junctions(inst)
    assert validate_allocation(inst, res.witness) == []
    assert profile(inst, res.witness).total == res.value
    assert res.value == reference["optimum"](serialize_instance(inst), "sum")


def _junction_draw(seed: int):
    """A bounded draw for even seeds, a general DAG for odd ones; 1 <= gamma <= 4."""
    rng = random.Random(seed)
    while True:
        if seed % 2 == 0:
            inst = randgen.junction_bounded_instance(
                rng, rng.randint(3, 10), rng.randint(1, 4), max_junctions=4
            )
        else:
            inst = randgen.random_instance(rng, "dag", rng.randint(2, 7), rng.randint(1, 3))
        if 1 <= junction_count(inst) <= 4:
            return inst


def _guesses(inst):
    """(guess, taken) for every guess of inst with no junction taken twice."""
    cases = [
        _agent_cases(inst.graphs[a], sorted(junctions(inst.graphs[a])))
        for a in inst.agents
    ]
    for combo in itertools.product(*cases):
        guess = dict(zip(inst.agents, combo))
        taken = _taken(guess)
        if taken is not None:
            yield guess, taken


@pytest.mark.parametrize("seed", range(100))
def test_bound_caps_every_flow_of_a_guess(seed):
    for guess, taken in _guesses(_junction_draw(seed)):
        bound = _bound(guess, taken)
        pair_slots = [(a, v1, v2) for a, c in guess.items() for v1, v2 in c.pairs]
        for k in range(len(pair_slots) + 1):
            for mandatory in itertools.combinations(pair_slots, k):
                got = _solve_flow(guess, taken, set(mandatory))
                assert got is None or got[0] <= bound


@pytest.mark.parametrize("seed", range(100))
def test_price_bound_lies_between_assignment_and_chain_item_sums(seed):
    # Below: the best assignment of items not taken to open chains, with no
    # promise enforced, which no dual bound can undercut.  Above: the
    # smaller of the per-chain and per-item sums, which the price term may
    # only tighten.
    for guess, taken in _guesses(_junction_draw(seed)):
        fixed = sum(c.sat for c in guess.values())
        chains = [(a, ch.items) for a, c in guess.items() for ch in c.chains]
        arcs, _ = _chain_network([(a, items, "t") for a, items in chains], taken)
        feasible, relaxed, _ = max_profit_flow(arcs, "s", "t")
        assert feasible
        by_chain = sum(
            next((len(items) - t for t, x in enumerate(items) if x not in taken), 0)
            for _, items in chains
        )
        by_item: dict[str, int] = {}
        for _, items in chains:
            for t, x in enumerate(items):
                if x not in taken:
                    by_item[x] = max(by_item.get(x, 0), len(items) - t)
        upper = fixed + min(by_chain, sum(by_item.values()))
        assert fixed + relaxed <= _bound(guess, taken) <= upper


def test_unkeepable_promises_are_dropped_with_their_case(monkeypatch):
    # Without pair slots no pick can keep a promise that has no chain of
    # its own, so a case holding one is dropped when it is built: every
    # pairless guess that remains gets as far as its flow.
    flows = 0

    def counting(*args):
        nonlocal flows
        flows += 1
        return max_profit_flow(*args)

    monkeypatch.setattr(junction, "max_profit_flow", counting)
    for seed in range(200):
        for guess, taken in _guesses(_junction_draw(seed)):
            if any(c.pairs for c in guess.values()):
                continue
            before = flows
            _solve_flow(guess, taken, set())
            assert flows == before + 1, (seed, guess)


# sha256 of the (value, witness) list over _junction_draw(0..199), taken
# from the solver that ran every guess's flows: skipping guesses and picks
# must keep the first optimum in guess order.
PINNED_DIGEST = "e09627939b7cf8194c43827c13f31ad09d8481c0c06e2b8592f609d280222e9d"


def test_first_optimum_is_pinned():
    got = []
    for seed in range(200):
        res = minsum_few_junctions(_junction_draw(seed))
        got.append([res.value, [[a, sorted(items)] for a, items in res.witness.pairs]])
    digest = hashlib.sha256(json.dumps(got).encode()).hexdigest()
    assert digest == PINNED_DIGEST


def test_flow_call_count_regression(monkeypatch):
    # A fixed gamma = 3 instance at the benchmark's size: running every
    # guess's flows takes 60 max_profit_flow calls, bounding each guess by
    # its chain and item sums first leaves 6, and the price bound 5.
    rng = random.Random(9)
    inst = randgen.junction_bounded_instance(rng, 12, 6, 3)
    while junction_count(inst) != 3:
        inst = randgen.junction_bounded_instance(rng, 12, 6, 3)
    calls = 0
    flow = junction.max_profit_flow

    def counting(*args):
        nonlocal calls
        calls += 1
        return flow(*args)

    monkeypatch.setattr(junction, "max_profit_flow", counting)
    assert minsum_few_junctions(inst).value == 6
    assert calls <= 5
