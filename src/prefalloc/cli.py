"""Command line front end: solve, eval, classify, generate.

Output on stdout is JSON by default and is byte-stable for a fixed
input and seed; anything informational (thresholds, seeds, warnings)
goes to stderr.  Exit codes: 0 solved or decision "yes", 1 decision
"no", 2 bad input, 3 unsupported request, 4 size refusal.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
import warnings

from . import classify, randgen, reductions
from .core import (
    OBJECTIVES,
    Instance,
    ParseError,
    PreconditionError,
    SizeGuardError,
    ValidationError,
    parse_allocation,
    parse_instance,
    profile,
    serialize_instance,
    serialize_profile,
)

EXIT_OK = 0
EXIT_NO = 1
EXIT_INPUT = 2
EXIT_UNSUPPORTED = 3
EXIT_TOO_LARGE = 4

_EXIT_CODES = {
    ParseError: EXIT_INPUT,  # e.g. a malformed or negative PREFALLOC_ORACLE_LIMIT
    PreconditionError: EXIT_UNSUPPORTED,
    SizeGuardError: EXIT_TOO_LARGE,
}

# generate --reduction name -> reduction
_REDUCTIONS = {red.cli_name: red for red in reductions.REDUCTIONS.values()}


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _CliError(EXIT_INPUT, f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        reason = f"not UTF-8 ({exc.reason} at byte {exc.start})"
        raise _CliError(EXIT_INPUT, f"cannot read {path}: {reason}") from None


def _load_instance(path: str) -> Instance:
    """Parse the instance at `path`, printing each warning as one stderr line."""
    text = _read_text(path)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            inst = parse_instance(text)
    except ParseError as exc:
        raise _CliError(EXIT_INPUT, f"bad instance: {exc}") from None
    except SizeGuardError as exc:
        raise _CliError(EXIT_TOO_LARGE, f"instance too large: {exc}") from None
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    return inst


def _emit(text: str) -> None:
    sys.stdout.write(text)


def cmd_solve(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    started = time.perf_counter()
    sol = classify.solve(inst, args.objective, args.algorithm)
    elapsed = time.perf_counter() - started

    report = {
        "objective": args.objective,
        "algorithm": sol.name,
        "reason": sol.reason,
        "value": sol.value,
        "profile": sol.profile.as_dict(),
        "sum": sol.profile.total,
        "max": sol.profile.maximum,
        "allocation": {agent: sorted(items) for agent, items in sol.witness.pairs},
    }
    code = EXIT_OK
    if args.threshold is not None:
        answer = sol.value <= args.threshold
        report["decision"] = {
            "threshold": args.threshold,
            "answer": "yes" if answer else "no",
        }
        if not answer:
            code = EXIT_NO
    if args.timing:
        report["wall_ms"] = round(elapsed * 1000.0, 3)

    if args.table:
        lines = [
            f"objective  {report['objective']}",
            f"algorithm  {report['algorithm']}",
            f"value      {report['value']}",
            f"sum        {report['sum']}",
            f"max        {report['max']}",
        ]
        if "decision" in report:
            dec = report["decision"]
            lines.append(f"decision   {dec['answer']} (threshold {dec['threshold']})")
        if "wall_ms" in report:
            lines.append(f"wall_ms    {report['wall_ms']}")
        for agent in sol.profile.agents:
            bundle = ", ".join(sorted(sol.witness.get(agent))) or "-"
            lines.append(f"agent {agent}: delta {sol.profile[agent]}, holds {bundle}")
        _emit("\n".join(lines) + "\n")
    else:
        _emit(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return code


def cmd_eval(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    try:
        alloc = parse_allocation(_read_text(args.allocation))
    except ParseError as exc:
        raise _CliError(EXIT_INPUT, f"bad allocation: {exc}") from None
    try:
        _emit(serialize_profile(profile(inst, alloc)))
    except ValidationError as exc:
        for line in exc.violations:
            print(f"invalid: {line}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


def cmd_classify(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    report = {
        "agents": {
            a: sorted(label.value for label in inst.graphs[a].classes) for a in inst.agents
        },
        "instance_class": classify.instance_class(inst).value,
        "junctions": {a: sorted(inst.graphs[a].junctions) for a in inst.agents},
        "gamma": classify.junction_count(inst),
        "recommended": {o: classify.dispatch(inst, o).name for o in OBJECTIVES},
    }
    _emit(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def _generate_reduction(args: argparse.Namespace) -> int:
    red = _REDUCTIONS[args.reduction]
    try:
        inst, *bounds = red.generate(red.parse(_read_text(args.source)))
    except (ParseError, PreconditionError) as exc:
        raise _CliError(EXIT_INPUT, str(exc)) from None
    _emit(serialize_instance(inst))
    pairs = " ".join(f"{o}<={b}" for o, b in zip(red.objectives, bounds))
    print(f"reduction {args.reduction}: decide {pairs}", file=sys.stderr)
    return EXIT_OK


def _generate_random(args: argparse.Namespace) -> int:
    if args.items is None or args.agents is None:
        raise _CliError(EXIT_INPUT, "--random requires --items and --agents")
    rng = random.Random(args.seed)
    try:
        inst = randgen.random_instance(rng, args.random, args.items, args.agents)
    except PreconditionError as exc:
        raise _CliError(EXIT_INPUT, str(exc)) from None
    except SizeGuardError as exc:
        raise _CliError(EXIT_TOO_LARGE, f"instance too large: {exc}") from None
    _emit(serialize_instance(inst))
    print(
        f"random {args.random}: items={args.items} agents={args.agents}"
        f" seed={args.seed}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_generate(args: argparse.Namespace) -> int:
    if args.reduction is not None:
        return _generate_reduction(args)
    return _generate_random(args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prefalloc",
        description="Dissatisfaction-minimizing allocation toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="minimize an objective over an instance")
    solve.add_argument("instance", help="instance JSON path, or - for stdin")
    solve.add_argument("--objective", choices=tuple(OBJECTIVES), required=True)
    solve.add_argument(
        "--algorithm",
        default="auto",
        help="auto, oracle, or a specific solver name (default: auto)",
    )
    solve.add_argument(
        "--threshold",
        type=int,
        default=None,
        help="decide value <= threshold: exit 0 on yes, 1 on no",
    )
    solve.add_argument("--table", action="store_true", help="plain text report, not JSON")
    solve.add_argument(
        "--timing",
        action="store_true",
        help="include wall time in the report (breaks byte determinism)",
    )
    solve.set_defaults(func=cmd_solve)

    ev = sub.add_parser("eval", help="evaluate an allocation against an instance")
    ev.add_argument("instance", help="instance JSON path, or - for stdin")
    ev.add_argument("allocation", help="allocation JSON path")
    ev.set_defaults(func=cmd_eval)

    cls = sub.add_parser("classify", help="report graph classes and routing")
    cls.add_argument("instance", help="instance JSON path, or - for stdin")
    cls.set_defaults(func=cmd_classify)

    gen = sub.add_parser("generate", help="emit an instance on stdout")
    mode = gen.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--reduction",
        choices=sorted(_REDUCTIONS),
        help="build a hardness instance from a source problem file",
    )
    mode.add_argument(
        "--random",
        choices=randgen.SHAPES,
        metavar="SHAPE",
        help=f"random instance shape: one of {', '.join(randgen.SHAPES)}",
    )
    gen.add_argument(
        "source",
        nargs="?",
        help="source problem path for --reduction (X3C JSON or DIMACS CNF)",
    )
    gen.add_argument("--items", type=int, default=None)
    gen.add_argument("--agents", type=int, default=None)
    gen.add_argument("--seed", type=int, default=0)
    gen.set_defaults(func=cmd_generate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "generate" and args.reduction is not None and not args.source:
        parser.error("--reduction requires a source path (or -)")
    try:
        return args.func(args)
    except (_CliError, *_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code if isinstance(exc, _CliError) else _EXIT_CODES[type(exc)]


if __name__ == "__main__":
    sys.exit(main())
