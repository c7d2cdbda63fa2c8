"""Junction-parameterized exact min-sum solver."""

import hashlib
import itertools
import json
import random

import pytest

from prefalloc import exact, junction, randgen
from prefalloc.classify import DEFAULT_GAMMA_LIMIT, junction_count
from prefalloc.core import SizeGuardError, profile, serialize_instance, validate_allocation
from prefalloc.junction import (
    _agent_cases,
    _bound,
    _evaluate_guess,
    _solve_flow,
    _taken,
    minsum_few_junctions,
)
from prefalloc.kernels import chain_flow
from prefalloc.polyalgos import minsum_directed_matchings, minsum_disjoint_paths, minsum_paths

from conftest import graph, instance, ladder_instance


def test_no_junctions_behaves_like_path_solver():
    # At gamma = 0 each agent has one case: every chain open, no group.  So
    # the route builds the path-forest routes' chain network and returns
    # their value and witness.
    g = graph("abcd", [("a", "b"), ("c", "d")])
    inst = instance({"x": g, "y": g})
    assert minsum_few_junctions(inst) == minsum_disjoint_paths(inst)
    rng = random.Random("gamma-0")
    for shape, solver in [
        ("matching", minsum_directed_matchings),
        ("path", minsum_paths),
        ("disjoint-paths", minsum_disjoint_paths),
    ]:
        for _ in range(60):
            inst = randgen.random_instance(rng, shape, rng.randint(2, 10), rng.randint(1, 4))
            assert junction_count(inst) == 0
            assert minsum_few_junctions(inst) == solver(inst)


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


def test_refuses_junctions_past_the_routing_limit(monkeypatch):
    # Every item of a ladder is a junction.  The guard fires before any
    # case is built; at the limit the search starts, and stops here.
    class SearchStarted(Exception):
        pass

    def no_search(g):
        raise SearchStarted

    monkeypatch.setattr(junction, "_agent_cases", no_search)
    with pytest.raises(SizeGuardError, match="^gamma = 7 exceeds the junction limit 6$"):
        minsum_few_junctions(ladder_instance(DEFAULT_GAMMA_LIMIT + 1))
    with pytest.raises(SearchStarted):
        minsum_few_junctions(ladder_instance(DEFAULT_GAMMA_LIMIT))


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


def _open_rows(guess, taken):
    """Every open chain's row in guess order, without the taken items."""
    return [
        [(x, gx) for x, gx in full if x not in taken] for c in guess.values() for full in c.rows
    ]


def _guesses(inst):
    """(guess, taken, rows) for every guess of inst with no junction taken twice."""
    cases = [_agent_cases(inst.graphs[a]) for a in inst.agents]
    for combo in itertools.product(*cases):
        guess = dict(zip(inst.agents, combo))
        taken = _taken(guess)
        if taken is not None:
            yield guess, taken, _open_rows(guess, taken)


# sha256 of every case _agent_cases builds for each agent of
# _junction_draw(0..199), taken from the solver that built them from sets of
# junction names: a reordered case, pick or row must show here.
PINNED_CASES_DIGEST = "e940c6925c219d9f009859900bb0c21086d89c6bffe04f61d44cc09b98d68fc8"


def test_agent_cases_are_pinned():
    digest = hashlib.sha256()
    for seed in range(200):
        inst = _junction_draw(seed)
        for a in inst.agents:
            for c in _agent_cases(inst.graphs[a]):
                digest.update(json.dumps([c.taken, c.sat, c.exits, c.rows]).encode() + b"\n")
    assert digest.hexdigest() == PINNED_CASES_DIGEST


@pytest.mark.parametrize("seed", range(100))
def test_bound_caps_every_flow_of_a_guess(seed):
    for guess, taken, rows in _guesses(_junction_draw(seed)):
        bound = _bound(guess, rows)
        for picks in itertools.product(*(c.exits for c in guess.values())):
            got = _solve_flow(guess, taken, rows, picks)
            assert got is None or got[0] <= bound


@pytest.mark.parametrize("seed", range(100))
def test_price_bound_lies_between_assignment_and_chain_item_sums(seed):
    # Below: the best assignment of items not taken to open chains, with no
    # promise enforced, which no dual bound can undercut.  Above: the
    # smaller of the per-chain and per-item sums, which the price term may
    # only tighten.
    for guess, taken, rows in _guesses(_junction_draw(seed)):
        fixed = sum(c.sat for c in guess.values())
        # Each case's rows hold its open chains' items by depth, an item at
        # depth t of an m-item chain gaining m - t.
        for c in guess.values():
            assert all([g for _, g in full] == list(range(len(full), 0, -1)) for full in c.rows)
        feasible, relaxed, _ = chain_flow(rows, [None] * len(rows), 0)
        assert feasible
        full_rows = [full for c in guess.values() for full in c.rows]
        by_chain = sum(next((gx for x, gx in full if x not in taken), 0) for full in full_rows)
        by_item: dict[str, int] = {}
        for full in full_rows:
            for x, gx in full:
                if x not in taken:
                    by_item[x] = max(by_item.get(x, 0), gx)
        upper = fixed + min(by_chain, sum(by_item.values()))
        assert fixed + relaxed <= _bound(guess, rows) <= upper


@pytest.mark.parametrize("seed", range(200))
def test_bound_is_chain_or_price_round_and_within_the_item_sum(seed):
    # _bound reads only each case's rows and sat, so the rows are built
    # directly: chains of m items from a small pool, depth t gaining m - t,
    # so an item sits on one chain or on many.
    rng = random.Random(seed)
    pool = [f"x{i}" for i in range(rng.randint(1, 8))]
    guess = {}
    for a in range(rng.randint(1, 4)):
        rows = []
        for _ in range(rng.randint(0, 3)):
            items = rng.sample(pool, rng.randint(1, len(pool)))
            rows.append([(x, len(items) - t) for t, x in enumerate(items)])
        guess[str(a)] = junction._Case([], rng.randint(0, 5), [], rows)
    taken = {x: "0" for x in pool if rng.random() < 0.25}
    # _bound takes every open row, emptied ones included; they add nothing.
    open_rows = _open_rows(guess, taken)
    rows = [row for row in open_rows if row]
    gains: dict[str, list[int]] = {}
    for row in rows:
        for x, gx in row:
            gains.setdefault(x, []).append(gx)
    second = {x: sorted(gs)[-2] if len(gs) > 1 else 0 for x, gs in gains.items()}
    q = [max([0] + [gx - second[x] for x, gx in row]) for row in rows]
    p = {
        x: max([0] + [gx - qc for row, qc in zip(rows, q) for y, gx in row if y == x])
        for x in gains
    }
    by_chain = sum(row[0][1] for row in rows)
    by_price = sum(q) + sum(p.values())
    by_item = sum(max(gs) for gs in gains.values())
    fixed = sum(c.sat for c in guess.values())
    assert _bound(guess, open_rows) == fixed + min(by_chain, by_price)
    assert by_price <= by_item


def test_unkeepable_promises_are_dropped_with_their_case(monkeypatch):
    # A pick whose unpaired promise has no chain of its own is not stored,
    # and a case with no pick left is dropped when it is built: every group
    # of a stored pick holds a chain, and every stored pick of every guess
    # gets as far as exactly one flow.
    flows = 0

    def counting(*args):
        nonlocal flows
        flows += 1
        return chain_flow(*args)

    monkeypatch.setattr(junction, "chain_flow", counting)
    for seed in range(200):
        inst = _junction_draw(seed)
        for a in inst.agents:
            for c in _agent_cases(inst.graphs[a]):
                assert c.exits
                for groups, count in c.exits:
                    assert set(groups) - {None} == set(range(count)), (seed, a, c)
        for guess, taken, rows in _guesses(inst):
            for picks in itertools.product(*(c.exits for c in guess.values())):
                before = flows
                _solve_flow(guess, taken, rows, picks)
                assert flows == before + 1, (seed, guess, picks)


def _pair_slot_gadget(roles):
    """Agent i has items p_i, c, q_i, d, e, for (c, d, e) its i-th roles.

    Arcs p_i -> c -> q_i, p_i -> d and e -> q_i make p_i and q_i junctions.
    In its case (p_i: 3, q_i: 2) the pair slot (p_i, q_i) is kept by chain
    [c]; without the pick, the groups are [d] and [e].
    """
    graphs = {}
    for i, (c, d, e) in enumerate(roles):
        p, q = f"p{i}", f"q{i}"
        graphs[str(i)] = graph([p, c, q, d, e], [(p, c), (c, q), (p, d), (e, q)])
    return instance(graphs)


# sha256 of every guess's _evaluate_guess result, under its bound and under
# one no flow reaches, over the gadgets below; taken from the solver that
# flattened every agent's pair slots into one product per guess.
PINNED_PICK_DIGEST = "8328ce02d2e2b40cd1a2ffa43f49e385c2c939b942bf0f02658d07f2f1f16b8c"


def test_pair_pick_order_is_pinned():
    # Rotated roles share c, d and e among two and three agents; the last
    # gadget shares only d, so two agents' picks tie and the first in
    # guess order must win.
    got = []
    for roles in (["cde", "dec"], ["cde", "dec", "ecd"], ["cde", "xdy"]):
        inst = _pair_slot_gadget(roles)
        picks = [len(c.exits) for c in _agent_cases(inst.graphs["0"])]
        assert picks.count(2) == 1 and set(picks) == {1, 2}
        for guess, taken, rows in _guesses(inst):
            bound = _bound(guess, rows)
            for b in (bound, bound + 1):
                r = _evaluate_guess(guess, taken, rows, b)
                got.append(r and [r[0], sorted([a, sorted(x)] for a, x in r[1].items())])
    digest = hashlib.sha256(json.dumps(got).encode()).hexdigest()
    assert digest == PINNED_PICK_DIGEST


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
    # guess's flows takes 60 chain_flow calls, bounding each guess by its
    # chain and item sums first leaves 6, and the price bound 5.
    rng = random.Random(9)
    inst = randgen.junction_bounded_instance(rng, 12, 6, 3)
    while junction_count(inst) != 3:
        inst = randgen.junction_bounded_instance(rng, 12, 6, 3)
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return chain_flow(*args)

    monkeypatch.setattr(junction, "chain_flow", counting)
    assert minsum_few_junctions(inst).value == 6
    assert calls == 5
