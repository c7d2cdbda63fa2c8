"""The benchmark's checker counts planted failures, and its counts repeat.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import itertools
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import reference  # noqa: E402
import run  # noqa: E402
import service  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def lib():
    return service.load_library()


def small_request(lib, objective="sum"):
    """Three agents fighting over a short chain; the optimum is not the empty allocation."""
    PG = lib.core.PreferenceGraph
    graphs = {
        "a1": PG(frozenset({"x", "y", "z"}), frozenset({("x", "y"), ("y", "z")})),
        "a2": PG(frozenset({"y"}), frozenset()),
        "a3": PG(frozenset({"x", "z"}), frozenset()),
    }
    inst = lib.core.Instance.build({"x", "y", "z"}, graphs)
    return service.Request(lib.core.serialize_instance(inst), objective, "oracle")


def oversize_request(lib):
    """A general DAG instance whose search space is over the oracle's size guard."""
    rng = random.Random(0)
    inst = lib.randgen.random_instance(rng, "dag", 40, 6)
    assert lib.classify.dispatch(inst, "max").name == "oracle-too-large"
    return service.Request(lib.core.serialize_instance(inst), "max", "oracle-too-large")


def planted(lib, corpus, edit):
    """Serve the corpus once with responses passed through `edit`, then check."""

    def handle(lib, req):
        return json.dumps(edit(json.loads(service.handle(lib, req))))

    outcomes = run.serve(lib, corpus, lambda n, now: n >= len(corpus), handle=handle)
    verdicts = run.check(lib, corpus, outcomes)
    return run.summarize(outcomes, verdicts), verdicts


def test_correct_answers_pass(lib):
    summary, verdicts = planted(lib, [small_request(lib), small_request(lib, "max")], lambda r: r)
    assert verdicts == [None, None]
    assert summary["failed"] == 0 and summary["latency_samples"] == 2


def test_planted_wrong_value_fails(lib):
    def give_nothing(resp):
        # a valid, self-consistent answer that is not optimal
        resp["allocation"] = {}
        resp["value"] = 6  # 3 + 1 + 2 items, none covered
        return resp

    summary, verdicts = planted(lib, [small_request(lib)], give_nothing)
    assert "ILP optimum" in verdicts[0]
    assert summary["failed"] == 1 and summary["latency_samples"] == 0
    assert summary["solves_per_s"] == 0


def test_witness_breaking_validation_fails(lib):
    def give_twice(resp):
        resp["allocation"] = {"a1": ["y"], "a2": ["y"]}
        return resp

    summary, verdicts = planted(lib, [small_request(lib)], give_twice)
    assert verdicts[0].startswith("invalid allocation")
    assert summary["failed"] == 1 and summary["latency_samples"] == 0


def test_witness_disagreeing_with_value_fails(lib):
    def misreport(resp):
        resp["value"] -= 1
        return resp

    summary, verdicts = planted(lib, [small_request(lib)], misreport)
    assert "witness evaluates" in verdicts[0]
    assert summary["failed"] == 1


def test_refused_oversize_instance_fails(lib):
    corpus = [small_request(lib), oversize_request(lib)]
    outcomes = run.serve(lib, corpus, lambda n, now: n >= 2)
    verdicts = run.check(lib, corpus, outcomes)
    assert verdicts[0] is None
    assert verdicts[1].startswith("Refused: oracle-too-large")
    summary = run.summarize(outcomes, verdicts)
    assert summary["failed"] == 1 and summary["latency_samples"] == 1


def test_wrong_certificate_fails(lib):

    corpus, _ = workloads.build(lib, "oracle-gadgets", 1)
    for req in corpus:
        if req.formula is None or '"yes"' not in service.handle(lib, req):
            continue
        wrong = next(
            (list(m) for m in itertools.product((False, True), repeat=3)
             if not reference.formula_holds(req.formula, list(m))),
            None,
        )
        if wrong is not None:
            break
    else:
        pytest.fail("no satisfiable gadget with a falsifying assignment in the corpus")

    def plant(resp):
        resp["certificate"] = wrong
        return resp

    summary, verdicts = planted(lib, [req], plant)
    assert verdicts[0] == "certificate does not satisfy the formula"
    assert summary["failed"] == 1


def test_corpus_and_counts_repeat(lib):
    for name in workloads.WORKLOADS:
        first, _ = workloads.build(lib, name, 7)
        again, _ = workloads.build(lib, name, 7)
        assert first == again
        sample = first[:: max(1, len(first) // 12)]
        counts = []
        for _ in range(2):
            tracer = tracing.Tracer(lib)
            tracer.install()
            try:
                run.serve(lib, sample, lambda n, now: n >= len(sample), tracer=tracer)
            finally:
                tracer.uninstall()
            counts.append(tracer.exact_counts())
        assert counts[0] == counts[1]
        assert sum(v for k, v in counts[0].items() if k.startswith("classify.route.")) == len(sample)
