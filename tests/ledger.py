"""Print the pinned work-count tables of this checkout as JSON.

    python tests/ledger.py [TABLE ...]

TABLE is any of corpora, constructions, junction_work, chain_flows, flows,
oracle, oracle_digests and cli (all eight by default).  Each table comes
from the helper behind its tier-1 pin: corpora digests the benchmark's full
seed-1 corpora and flows every chain-network flow their requests run,
oracle_digests digests the oracle's value and witness on every seed-1
oracle-gadgets request under both objectives, cli digests the 2,100
in-process `prefalloc solve` runs of `test_cli.solve_runs(5)`, the others
count work over their first 120 requests, so the output of two checkouts
can be compared line by line.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

import test_cli  # noqa: E402
import test_exact  # noqa: E402

TABLES = {
    "corpora": lambda: {
        w: test_cli.corpus_digest(w) for w in sorted(test_cli.BENCHMARK_CORPUS_DIGESTS)
    },
    "constructions": lambda: {
        w: test_cli.constructions(w) for w in sorted(test_cli.BENCHMARK_CONSTRUCTIONS)
    },
    "junction_work": test_cli.junction_work,
    "chain_flows": test_cli.chain_flows,
    "flows": lambda: {
        w: test_cli.chain_flow_digest(w) for w in sorted(test_cli.CHAIN_FLOW_DIGESTS)
    },
    "oracle": lambda: {
        o: test_exact.oracle_prefix_counts(o) for o in sorted(test_exact.ORACLE_PREFIX_COUNTS)
    },
    "oracle_digests": lambda: {
        o: test_exact.oracle_digest(o) for o in sorted(test_exact.ORACLE_DIGESTS)
    },
    "cli": lambda: test_cli.solve_runs(5),
}


def main(names: list[str]) -> int:
    unknown = [n for n in names if n not in TABLES]
    if unknown:
        print(f"unknown table(s) {unknown}; expected some of {list(TABLES)}", file=sys.stderr)
        return 2
    print(json.dumps({n: TABLES[n]() for n in names or TABLES}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
