"""Acceptance gate: ten checks, one reported line each.

Every check prints a single PASS/FAIL line (visible under pytest -s or
in the captured output), then asserts, so a plain pytest run doubles as
the acceptance report.
"""

import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

from prefalloc import classify, exact, randgen
from prefalloc.core import (
    Allocation,
    GraphClass,
    profile,
    serialize_instance,
    validate_allocation,
)
from prefalloc.junction import minsum_few_junctions
from prefalloc.kernels import bipartite_mwis, lbap, lsap, max_profit_flow
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
from prefalloc.reductions import (
    Cnf3Formula,
    X3CInstance,
    gen_minmax_matchings,
    gen_minmax_outstars,
    gen_minmax_two_paths_sat,
    gen_minsum_outtrees,
    gen_two_agents_sat,
    satisfies,
    satisfying_assignment,
    witness_allocation,
    witness_extract,
)

from conftest import graph, instance, max_flow_arcs, residual_reach

SRC = Path(__file__).parents[1] / "src"  # the checkout's package, for the CLI runs


def report(num: int, description: str, ok: bool) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {num}: {description}")
    assert ok, f"criterion {num} failed: {description}"


def worked_example():
    return instance({"1": graph("abc"), "2": graph("b"), "3": graph("c")})


def random_cover_instance(rng: random.Random, q: int):
    """Planted yes-instance: three stacked partitions of the pool.

    Each element lands in exactly one triple per partition, so the
    occurrence counts work out, and the first partition is a cover.
    """
    elements = [f"e{i}" for i in range(1, 3 * q + 1)]

    def partition():
        pool = elements[:]
        rng.shuffle(pool)
        return [tuple(pool[i : i + 3]) for i in range(0, len(pool), 3)]

    triples = partition() + partition() + partition()
    src = X3CInstance(tuple(elements), tuple(triples))
    return src, tuple(range(1, q + 1))


def random_planted_sat(rng: random.Random, n: int, m: int, distinct: bool):
    """Random 3-CNF adjusted one literal at a time to satisfy a model."""
    model = tuple(rng.random() < 0.5 for _ in range(n))
    clauses = []
    for _ in range(m):
        if distinct:
            variables = rng.sample(range(1, n + 1), 3)
        else:
            variables = [rng.randint(1, n) for _ in range(3)]
        lits = [v if rng.random() < 0.5 else -v for v in variables]
        if not any(model[abs(l) - 1] == (l > 0) for l in lits):
            i = rng.randrange(3)
            v = abs(lits[i])
            lits[i] = v if model[v - 1] else -v
        clauses.append(tuple(lits))
    return Cnf3Formula(n, tuple(clauses)), model


def test_criterion_01_worked_example():
    inst = worked_example()
    got_max = exact.minimize(inst, "max").value
    got_sum = exact.minimize(inst, "sum").value
    report(
        1,
        f"worked example: min-max {got_max} (want 1), min-sum {got_sum} (want 2)",
        got_max == 1 and got_sum == 2,
    )


def test_criterion_02_matching_solver_oracle_equivalence():
    rng = random.Random(2)
    good = 0
    for _ in range(200):
        inst = randgen.random_instance(
            rng, "matching", rng.randint(2, 10), rng.randint(1, 4)
        )
        res = minsum_directed_matchings(inst)
        ok = (
            validate_allocation(inst, res.witness) == []
            and profile(inst, res.witness).total == res.value
            and res.value == exact.minimize(inst, "sum").value
        )
        good += ok
    report(2, f"min-sum matchings == oracle on {good}/200 random instances",
           good == 200)


def test_criterion_03_path_solvers_oracle_equivalence():
    rng = random.Random(3)
    good_single = 0
    for _ in range(200):
        inst = randgen.random_instance(
            rng, "path", rng.randint(2, 9), rng.randint(1, 4)
        )
        ok = (
            minsum_paths(inst).value == exact.minimize(inst, "sum").value
            and minmax_paths(inst).value == exact.minimize(inst, "max").value
        )
        good_single += ok
    good_forest = 0
    for _ in range(200):
        inst = randgen.random_instance(
            rng, "disjoint-paths", rng.randint(2, 9), rng.randint(1, 4)
        )
        good_forest += (
            minsum_disjoint_paths(inst).value == exact.minimize(inst, "sum").value
        )
    report(
        3,
        f"path solvers == oracle on {good_single}/200 single-path and "
        f"{good_forest}/200 path-forest instances",
        good_single == 200 and good_forest == 200,
    )


def test_criterion_04_two_matching_profile_sets():
    rng = random.Random(4)
    good = 0
    for _ in range(100):
        inst = randgen.random_instance(rng, "matching", rng.randint(2, 10), 2)
        profs = two_matchings_profiles(inst)
        ok = (
            profs == exact.all_profiles(inst)
            and len(profs) <= (inst.num_items + 1) ** 2
            and minmax_two_matchings(inst).value == exact.minimize(inst, "max").value
        )
        good += ok
    report(4, f"two-matching profile sets == oracle on {good}/100 instances",
           good == 100)


def test_criterion_05_two_star_forests():
    rng = random.Random(5)
    good = 0
    for _ in range(200):
        inst = randgen.random_instance(rng, "union-out-stars", rng.randint(2, 10), 2)
        res = minsum_two_star_forests(inst)
        pre = preassign_two_star_forests(inst)
        idempotent = pre == preassign_two_star_forests(inst) and all(
            items <= res.witness.get(agent) for agent, items in pre.pairs
        )
        good += idempotent and res.value == exact.minimize(inst, "sum").value
    report(
        5,
        f"two-agent star forests == oracle with stable preassignment on "
        f"{good}/200 pairs",
        good == 200,
    )


def test_criterion_06_junction_solver():
    rng = random.Random(6)
    good = 0
    zero_gamma_checked = 0
    for _ in range(100):
        inst = randgen.junction_bounded_instance(
            rng, rng.randint(3, 9), rng.randint(1, 3), max_junctions=4
        )
        gamma = classify.junction_count(inst)
        res = minsum_few_junctions(inst)
        ok = gamma <= 4 and res.value == exact.minimize(inst, "sum").value
        if ok and gamma == 0:
            ok = res.value == minsum_disjoint_paths(inst).value
            zero_gamma_checked += 1
        good += ok
    report(
        6,
        f"junction solver == oracle on {good}/100 instances "
        f"({zero_gamma_checked} junction-free ones also matched the path solver)",
        good == 100 and zero_gamma_checked > 0,
    )


def test_criterion_07_kernel_duality():
    rng = random.Random(7)
    good = 0
    for _ in range(100):
        # DAG flow network: max-flow equals the cut the residual certifies
        n = rng.randint(2, 7)
        edges = [
            (u, v, rng.randint(0, 5))
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.4
        ]
        arcs = max_flow_arcs(edges, n - 1)
        _, flow, flows = max_profit_flow(arcs, 0, n - 1)
        reach = residual_reach(arcs, flows, 0)
        cut = sum(c for u, v, c in edges if u in reach and v not in reach)
        ok = flow == cut and (n - 1) not in reach

        # independent set weight plus its complementary cover weight
        a = {f"a{i}": rng.randint(0, 6) for i in range(rng.randint(1, 5))}
        b = {f"b{i}": rng.randint(0, 6) for i in range(rng.randint(1, 5))}
        pairs = [(x, y) for x in a for y in b if rng.random() < 0.4]
        weight, chosen = bipartite_mwis(a, b, pairs)
        total = sum(a.values()) + sum(b.values())
        cover_weight = total - weight
        cover = (set(a) | set(b)) - chosen
        ok = ok and all(x in cover or y in cover for x, y in pairs)
        ok = ok and cover_weight == sum(a.get(v, 0) + b.get(v, 0) for v in cover)

        # assignment solvers against permutation brute force
        rows = rng.randint(1, 5)
        cols = rng.randint(rows, 7)
        cost = [[rng.randint(0, 9) for _ in range(cols)] for _ in range(rows)]
        best_sum = min(
            sum(cost[i][c] for i, c in enumerate(p))
            for p in itertools.permutations(range(cols), rows)
        )
        best_max = min(
            max(cost[i][c] for i, c in enumerate(p))
            for p in itertools.permutations(range(cols), rows)
        )
        ok = ok and lsap(cost)[0] == best_sum and lbap(cost)[0] == best_max
        good += ok
    report(7, f"kernel duality and brute-force equality on {good}/100 rounds",
           good == 100)


def _witness_cases(rng: random.Random):
    """50 planted sources: ten per gadget kind."""
    cases = []
    for _ in range(10):
        src, cover = random_cover_instance(rng, rng.randint(1, 2))
        cases.append(("minmax-outstars", src, cover))
    for _ in range(10):
        src, cover = random_cover_instance(rng, 1)
        cases.append(("minsum-outtrees", src, cover))
    for _ in range(10):
        src, cover = random_cover_instance(rng, 2)
        cases.append(("minmax-matchings", src, cover))
    for _ in range(10):
        src, model = random_planted_sat(
            rng, rng.randint(3, 5), rng.randint(1, 3), distinct=False
        )
        cases.append(("two-agents-sat", src, model))
    for _ in range(10):
        src, model = random_planted_sat(
            rng, rng.randint(3, 4), rng.randint(2, 3), distinct=True
        )
        cases.append(("minmax-two-paths", src, model))
    return cases


def _generated_and_bound(kind, src):
    if kind == "minmax-outstars":
        inst, bound = gen_minmax_outstars(src)
        return inst, ("max", bound)
    if kind == "minsum-outtrees":
        inst, bound = gen_minsum_outtrees(src)
        return inst, ("sum", bound)
    if kind == "minmax-matchings":
        inst, bound = gen_minmax_matchings(src)
        return inst, ("max", bound)
    if kind == "two-agents-sat":
        inst, sum_bound, _ = gen_two_agents_sat(src)
        return inst, ("sum", sum_bound)
    inst, bound = gen_minmax_two_paths_sat(src)
    return inst, ("max", bound)


def test_criterion_08a_forward_witnesses_meet_thresholds():
    rng = random.Random(81)
    good = 0
    for kind, src, cert in _witness_cases(rng):
        alloc = witness_allocation(kind, src, cert)
        inst, (objective, bound) = _generated_and_bound(kind, src)
        prof = profile(inst, alloc)
        value = prof.total if objective == "sum" else prof.maximum
        good += validate_allocation(inst, alloc) == [] and value <= bound
    report(8, f"(a) forward witnesses meet their thresholds in {good}/50 cases",
           good == 50)


def test_criterion_08b_reverse_extraction_round_trips():
    rng = random.Random(82)
    good = 0
    for kind, src, cert in _witness_cases(rng):
        alloc = witness_allocation(kind, src, cert)
        extracted = witness_extract(kind, src, alloc)
        if isinstance(src, X3CInstance):
            good += src.is_exact_cover(extracted)
        else:
            good += satisfies(src, extracted)
    report(8, f"(b) certificate extraction round-trips in {good}/50 cases",
           good == 50)


# Ten satisfiable and ten unsatisfiable formulas over exactly 3 declared
# variables and at most 3 clauses.  Unsatisfiable ones need repeated
# literals: with three clauses of three distinct literals each, at most
# three of the eight assignments can be excluded.
SAT_CORPUS = [
    Cnf3Formula(3, ((1, 2, 3),)),
    Cnf3Formula(3, ((1, 2, 3), (-1, -2, -3))),
    Cnf3Formula(3, ((1, 1, 1), (2, 2, 2), (3, 3, 3))),
    Cnf3Formula(3, ((1, -2, 3), (-1, 2, -3))),
    Cnf3Formula(3, ((1, 1, 2), (-2, -2, 3), (-3, 1, 1))),
    Cnf3Formula(3, ((-1, -1, -1), (2, 3, -1), (-2, -3, -1))),
    Cnf3Formula(3, ((1, 2, 2), (1, -2, -2), (3, 3, 3))),
    Cnf3Formula(3, ((-3, -3, -3), (1, 2, 3), (2, 2, 2))),
    Cnf3Formula(3, ((1, -1, 2), (3, -3, 1), (2, -2, 3))),
    Cnf3Formula(3, ((-1, 2, 2), (1, 1, 1), (2, -3, -3))),
]
UNSAT_CORPUS = [
    Cnf3Formula(3, ((1, 1, 1), (-1, -1, -1))),
    Cnf3Formula(3, ((2, 2, 2), (-2, -2, -2), (1, 2, 3))),
    Cnf3Formula(3, ((3, 3, 3), (-3, -3, -3))),
    Cnf3Formula(3, ((1, 1, 1), (-1, -1, 2), (-2, -2, -1))),
    Cnf3Formula(3, ((-1, -1, -1), (1, 1, 2), (-2, -2, 1))),
    Cnf3Formula(3, ((2, 2, 2), (-2, -2, 3), (-3, -3, -2))),
    Cnf3Formula(3, ((1, 1, 1), (-1, 2, 2), (-2, -2, -1))),
    Cnf3Formula(3, ((3, 3, 3), (-3, 1, 1), (-1, -1, -3))),
    Cnf3Formula(3, ((-2, -2, -2), (2, 2, 1), (-1, -1, 2))),
    Cnf3Formula(3, ((1, 1, 1), (-1, -1, 3), (-3, -3, -1))),
]


def test_criterion_08c_two_agent_gadget_decides_the_corpus():
    assert len(SAT_CORPUS) == 10 and len(UNSAT_CORPUS) == 10
    assert all(satisfying_assignment(f) is not None for f in SAT_CORPUS)
    assert all(satisfying_assignment(f) is None for f in UNSAT_CORPUS)
    good = 0
    for formula in SAT_CORPUS + UNSAT_CORPUS:
        expected = satisfying_assignment(formula) is not None
        inst, sum_bound, _ = gen_two_agents_sat(formula)
        res = exact.minimize(inst, "sum")
        if res.value > sum_bound:
            good += not expected
        else:
            model = witness_extract("two-agents-sat", formula, res.witness)
            good += expected and satisfies(formula, model)
    report(
        8,
        f"(c) gadget + oracle match satisfiability on {good}/20 corpus formulas",
        good == 20,
    )


def test_max_decision_witnesses_extract_on_the_corpus():
    # A "yes" at the max bound n also meets the sum bound 2n that
    # extraction checks, so its witness yields a model too.
    for formula in SAT_CORPUS:
        inst, _, max_bound = gen_two_agents_sat(formula)
        res = exact.minimize(inst, "max")
        assert res.value <= max_bound
        assert satisfies(formula, witness_extract("two-agents-sat", formula, res.witness))


def test_criterion_09_generated_instances_pass_class_checks():
    rng = random.Random(9)
    good = total = 0
    for kind, src, _ in _witness_cases(rng):
        inst, _ = _generated_and_bound(kind, src)
        total += 1
        if kind == "minmax-outstars":
            good += all(GraphClass.OUT_STAR in inst.graphs[a].classes for a in inst.agents)
        elif kind == "minsum-outtrees":
            good += all(
                GraphClass.OUT_TREE in inst.graphs[a].classes
                and inst.graphs[a].items == frozenset(inst.items)
                for a in inst.agents
            )
        elif kind == "minmax-matchings":
            good += all(
                GraphClass.DIRECTED_MATCHING in inst.graphs[a].classes for a in inst.agents
            )
        elif kind == "two-agents-sat":
            good += inst.num_agents == 2 and all(
                inst.graphs[a].items == frozenset(inst.items) for a in inst.agents
            )
        else:  # at most two paths and five items per agent
            good += all(
                GraphClass.DISJOINT_PATHS in inst.graphs[a].classes
                and len(inst.graphs[a].items) <= 5
                and len(inst.graphs[a].items - {h for _, h in inst.graphs[a].arcs}) <= 2
                and inst.graphs[a].indeg.count(0) <= 2
                for a in inst.agents
            )
    report(9, f"generated instances pass their advertised class checks "
              f"({good}/{total})", good == total and total == 50)


def _cli_bytes(args: list[str], stdin_text: str | None = None) -> tuple:
    # Run this checkout's package, whatever PYTHONPATH the caller has.
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    proc = subprocess.run(
        [sys.executable, "-m", "prefalloc.cli", *args],
        input=stdin_text,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_criterion_10_cli_byte_determinism(tmp_path):
    inst_path = tmp_path / "worked.json"
    inst_path.write_text(serialize_instance(worked_example()))
    alloc_path = tmp_path / "alloc.json"
    alloc_path.write_text('{"allocation": {"1": ["a"], "2": ["b"], "3": ["c"]}}')
    cover_path = tmp_path / "cover.json"
    cover_path.write_text(
        json.dumps({"X": ["e1", "e2", "e3"], "C": [["e1", "e2", "e3"]] * 3})
    )
    # Each command with its documented exit code: the worked example's
    # min-max value is 1, so the threshold-1 decision is "yes".
    commands = [
        (["solve", str(inst_path), "--objective", "sum"], 0),
        (["solve", str(inst_path), "--objective", "max", "--threshold", "1"], 0),
        (["solve", str(inst_path), "--objective", "max", "--threshold", "0"], 1),
        (["solve", str(inst_path), "--objective", "max", "--table"], 0),
        (["eval", str(inst_path), str(alloc_path)], 0),
        (["classify", str(inst_path)], 0),
        (["generate", "--random", "dag", "--items", "7", "--agents", "3",
          "--seed", "11"], 0),
        (["generate", "--reduction", "x3c-stars", str(cover_path)], 0),
    ]
    good = 0
    for args, code in commands:
        first = _cli_bytes(args)
        second = _cli_bytes(args)
        good += first == second and first[0] == code and first[1] != ""
    report(
        10,
        f"repeated CLI runs are byte-identical, with the documented exit code "
        f"and a report, for {good}/{len(commands)} commands",
        good == len(commands),
    )
