"""The request path under test: one solve request served as `prefalloc solve` serves it.

A request is canonical instance JSON plus an objective, optionally with a
decision threshold and the DIMACS formula the instance was built from.
Serving it runs parse -> dispatch -> routed solver -> profile -> JSON, and
for a "yes" decision on a formula gadget also extracts the certificate.

Every library function is looked up on its module at call time, so the
tracer can wrap it in place.
"""

from __future__ import annotations

import importlib
import json
import sys
from dataclasses import dataclass
from types import SimpleNamespace

MODULES = (
    "core",
    "classify",
    "kernels",
    "polyalgos",
    "junction",
    "exact",
    "randgen",
    "reductions",
)

# dispatch route -> (module, function); the oracle also takes the objective
SOLVERS = {
    "minsum-matchings": ("polyalgos", "minsum_directed_matchings"),
    "minsum-paths": ("polyalgos", "minsum_paths"),
    "minsum-disjoint-paths": ("polyalgos", "minsum_disjoint_paths"),
    "minsum-two-star-forests": ("polyalgos", "minsum_two_star_forests"),
    "minsum-junctions": ("junction", "minsum_few_junctions"),
    "minmax-paths": ("polyalgos", "minmax_paths"),
    "minmax-two-matchings": ("polyalgos", "minmax_two_matchings"),
    "oracle": ("exact", "minimize"),
}

GADGET_KIND = "two-agents-sat"


class Refused(Exception):
    """The dispatcher found no route that fits the size guard."""


@dataclass(frozen=True)
class Request:
    instance: str  # canonical instance JSON
    objective: str  # "sum" or "max"
    route: str  # the route the generator aimed for (the benchmark's label)
    threshold: int | None = None  # decision requests only
    formula: str | None = None  # DIMACS source of a formula gadget


def load_library() -> SimpleNamespace:
    """Import prefalloc from scratch and return its modules by short name."""
    for name in [m for m in sys.modules if m == "prefalloc" or m.startswith("prefalloc.")]:
        del sys.modules[name]
    return SimpleNamespace(
        **{m: importlib.import_module(f"prefalloc.{m}") for m in MODULES}
    )


def serialize_report(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def handle(lib: SimpleNamespace, req: Request) -> str:
    """Serve one request and return the JSON response text."""
    inst = lib.core.parse_instance(req.instance)
    choice = lib.classify.dispatch(inst, req.objective)
    if choice.name not in SOLVERS:
        raise Refused(f"{choice.name}: {choice.reason}")
    module, func = SOLVERS[choice.name]
    solver = getattr(getattr(lib, module), func)
    if choice.name == "oracle":
        result = solver(inst, req.objective)
    else:
        result = solver(inst)
    prof = lib.core.profile(inst, result.witness)
    report = {
        "objective": req.objective,
        "algorithm": choice.name,
        "value": result.value,
        "profile": dict(zip(prof.agents, prof.values)),
        "sum": prof.total,
        "max": prof.maximum,
        "allocation": {a: sorted(items) for a, items in result.witness.pairs},
    }
    if req.threshold is not None:
        yes = result.value <= req.threshold
        report["decision"] = {"threshold": req.threshold, "answer": "yes" if yes else "no"}
        if yes and req.formula is not None:
            formula = lib.reductions.parse_dimacs(req.formula)
            model = lib.reductions.witness_extract(GADGET_KIND, formula, result.witness)
            report["certificate"] = list(model)
    return serialize_report(report)
