"""prefalloc benchmark: closed-loop solve requests, checked against an ILP reference.

Usage, from the repository root:

    python3 perfbench/run.py --workload tractable-large --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One client sends one request at a time from this process and sends the
next as soon as the answer is back.  The requests are a seeded corpus
(workloads.py) served in a cycle.  With --trace 0 the loop runs for
--seconds and prints the end-to-end metrics.  With --trace 1 it serves
a fixed prefix of the corpus untraced and traced, twice each, prints the
per-layer metrics of the first traced pass and the tracing overhead,
checks that the exact counts agree between the two traced passes, and
writes the spans to .bench_out/.  Every
answer is checked after the timed part, outside it (see check()).
The last stdout line is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5
TRACE_REQUESTS = 120  # a fixed prefix of the corpus, so the counts depend on the seed only
MIN_LATENCY_SAMPLES = 200

sys.path.insert(0, str(HERE))
import service  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@dataclass(frozen=True)
class Outcome:
    index: int  # position in the corpus
    seconds: float
    response: str | None
    error: str | None


def serve(lib, corpus, stop: Callable[[int, float], bool], tracer=None, handle=service.handle):
    """Closed loop over the corpus until stop(requests served, now) holds."""
    outcomes: list[Outcome] = []
    distinct: dict[str, str] = {}  # repeated answers share one string
    n = 0
    while True:
        req = corpus[n % len(corpus)]
        start = time.perf_counter()
        try:
            if tracer is None:
                response = handle(lib, req)
            else:
                with tracer.request_span(n):
                    response = handle(lib, req)
            error = None
        except Exception as exc:  # a failed request is counted, never fatal
            response, error = None, f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        if response is not None:
            response = distinct.setdefault(response, response)
        outcomes.append(Outcome(n % len(corpus), end - start, response, error))
        n += 1
        if stop(n, end):
            return outcomes


def check(lib, corpus, outcomes) -> list[str | None]:
    """Per outcome, None when the answer is right, else what is wrong with it."""
    import reference  # loads scipy, so only after peak RSS has been read

    optimum: dict[int, int] = {}
    satisfiable: dict[int, bool] = {}

    def judge(o: Outcome) -> str | None:
        if o.error is not None:
            return o.error
        req = corpus[o.index]
        resp = json.loads(o.response)
        problems, prof = reference.witness_problems(req.instance, resp)
        if problems:
            return "invalid allocation: " + "; ".join(problems[:3])
        got = sum(prof.values()) if req.objective == "sum" else max(prof.values())
        if got != resp["value"]:
            return f"witness evaluates to {got}, reported value is {resp['value']}"
        if o.index not in optimum:
            optimum[o.index] = reference.optimum(req.instance, req.objective)
        if resp["value"] != optimum[o.index]:
            return f"value {resp['value']} differs from the ILP optimum {optimum[o.index]}"
        if req.threshold is None:
            return None
        yes = optimum[o.index] <= req.threshold
        if resp.get("decision", {}).get("answer") != ("yes" if yes else "no"):
            return f"wrong decision at threshold {req.threshold}"
        if req.formula is None:
            return None
        if o.index not in satisfiable:
            formula = lib.reductions.parse_dimacs(req.formula)
            satisfiable[o.index] = lib.reductions.satisfying_assignment(formula) is not None
        if yes != satisfiable[o.index]:
            return "gadget decision disagrees with the truth table"
        cert = resp.get("certificate")
        if yes and (cert is None or not reference.formula_holds(req.formula, cert)):
            return "certificate does not satisfy the formula"
        if not yes and cert is not None:
            return "certificate given for a no answer"
        return None

    return [judge(o) for o in outcomes]


def summarize(outcomes, verdicts) -> dict:
    """Throughput and latency over the good answers; failures only cost time."""
    good = sorted(o.seconds for o, v in zip(outcomes, verdicts) if v is None)
    busy = sum(o.seconds for o in outcomes)
    return {
        "attempted": len(outcomes),
        "failed": len(outcomes) - len(good),
        "solves_per_s": len(good) / busy if busy else 0.0,
        "latency_p50_ms": 1000 * statistics.median(good) if good else 0.0,
        "latency_p95_ms": (
            1000 * statistics.quantiles(good, n=20, method="inclusive")[18]
            if len(good) >= 2
            else 0.0
        ),
        "latency_samples": len(good),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def setup(workload: str, seed: int):
    """Import the library and build the corpus SETUP_REPEATS times; keep the last."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        lib = service.load_library()
        if not Path(lib.core.__file__).resolve().is_relative_to(SRC):
            raise RuntimeError(f"prefalloc was imported from {lib.core.__file__}, not {SRC}")
        corpus, clock = workloads.build(lib, workload, seed)
        times.append(time.perf_counter() - start)
        gc.collect()  # drop the previous copy, so peak RSS holds one library and corpus
    return lib, corpus, clock, statistics.median(times)


def warm_up(lib, corpus, workload: str) -> None:
    """Serve one request per stratum, then move set-up garbage out of the collector's way."""
    serve(lib, corpus, lambda n, now: n >= len(workloads.WORKLOADS[workload]))
    gc.collect()
    gc.freeze()


def first_failures(corpus, outcomes, verdicts, limit=5) -> list[str]:
    return [
        f"request {o.index} ({corpus[o.index].route}): {v}"
        for o, v in zip(outcomes, verdicts)
        if v is not None
    ][:limit]


def run_timed(workload: str, seed: int, seconds: float) -> dict:
    lib, corpus, _, setup_s = setup(workload, seed)
    warm_up(lib, corpus, workload)
    deadline = time.perf_counter() + seconds
    outcomes = serve(lib, corpus, lambda n, now: now >= deadline)
    rss = peak_rss_mb()
    gc.unfreeze()
    verdicts = check(lib, corpus, outcomes)
    s = summarize(outcomes, verdicts)
    print(f"{workload}: {s['attempted']} requests over a corpus of {len(corpus)}, "
          f"{s['failed']} failed (failed_frac {s['failed'] / s['attempted']:.4f}), "
          f"{s['latency_samples']} latency samples")
    for line in first_failures(corpus, outcomes, verdicts):
        print("  FAIL", line)
    if s["latency_samples"] < MIN_LATENCY_SAMPLES:
        print(f"  warning: fewer than {MIN_LATENCY_SAMPLES} latency samples; p95 is weak")
    metrics = {
        "solves_per_s": (s["solves_per_s"], "1/s"),
        "latency_p50_ms": (s["latency_p50_ms"], "ms"),
        "latency_p95_ms": (s["latency_p95_ms"], "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    return result(s["failed"] == 0, s["attempted"], s["failed"], metrics)


def run_traced(workload: str, seed: int) -> dict:
    lib, corpus, clock, _ = setup(workload, seed)
    corpus = corpus[:TRACE_REQUESTS]
    one_pass = lambda n, now: n >= len(corpus)  # noqa: E731
    warm_up(lib, corpus, workload)
    plain, traced, tracers = [], [], []
    for _ in range(2):  # alternate, so a drift in machine speed hits both sides
        plain += serve(lib, corpus, one_pass)
        tracer = tracing.Tracer(lib)
        tracer.install()
        try:
            traced += serve(lib, corpus, one_pass, tracer=tracer)
        finally:
            tracer.uninstall()
        tracers.append(tracer)
    gc.unfreeze()
    outcomes = plain + traced
    verdicts = check(lib, corpus, outcomes)
    for line in first_failures(corpus, outcomes, verdicts):
        print("  FAIL", line)
    counts = [t.exact_counts() for t in tracers]
    repeat = counts[0] == counts[1]
    if not repeat:
        diff = {k: (counts[0][k], counts[1][k]) for k in counts[0] if counts[0][k] != counts[1][k]}
        print(f"  FAIL exact counts differ between the traced passes: {diff}")
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"spans-{workload}-{seed}.jsonl"
    tracers[0].write(spans)
    untraced_rate = summarize(plain, verdicts[: len(plain)])["solves_per_s"]
    traced_rate = summarize(traced, verdicts[len(plain) :])["solves_per_s"]
    layer = tracers[0].layer_metrics()
    layer["randgen.gen_s"] = clock.seconds["randgen"]
    layer["reductions.gen_s"] = clock.seconds["reductions"]
    layer["trace.untraced_solves_per_s"] = untraced_rate
    layer["trace.traced_solves_per_s"] = traced_rate
    layer["trace.overhead"] = untraced_rate / traced_rate if traced_rate else 0.0
    print(f"{workload}: traced {len(corpus)} requests, {len(tracers[0].spans)} spans -> "
          f"{spans.relative_to(ROOT)}; tracing overhead x{layer['trace.overhead']:.3f}")
    failed = sum(v is not None for v in verdicts)
    metrics = {name: (value, unit_of(name)) for name, value in layer.items()}
    return result(failed == 0 and repeat, len(outcomes), failed, metrics)


def unit_of(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", ".share", ".overhead")):
        return "ratio"
    return "count"


def result(correct: bool, attempted: int, failed: int, metrics: dict) -> dict:
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "prefalloc" / "__init__.py").is_file():
        print(f"error: no prefalloc sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        results = {}
        for name in workloads.WORKLOADS:  # one process each, so peak RSS is per workload
            flags = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds)]
            child = subprocess.run(
                [sys.executable, __file__, *flags, "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True, check=True,
            )
            *table, last = child.stdout.splitlines()
            print("\n".join(table))
            results[name] = json.loads(last)
        print(json.dumps(results))
        return 0
    sys.path.insert(0, str(SRC))
    if args.trace:
        res = run_traced(args.workload, args.seed)
    else:
        res = run_timed(args.workload, args.seed, args.seconds)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
