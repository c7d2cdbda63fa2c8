"""Solver routing by graph shape and junction count.

Solvers specialize on graph shape.  The shape labels and the junction
set are facts about one graph, so `core` derives them once per graph:
`PreferenceGraph.classes` (each `GraphClass` member's docstring defines
its label; the enum is re-exported here) and `PreferenceGraph.junctions`.
Callers read those directly.  This module keeps what is about a whole
instance: `instance_class`, the most specific label every agent's graph
shares; `misfit_agent`, the first agent whose graph lacks a label;
`junction_count`, the junctions of all agents with multiplicity; and the
routing itself: `dispatch` picks a solver and `solve` serves a request.

`ROUTES` is the route table: per exact polynomial solver, the objective
it minimizes, the class every agent's graph must have, the agent count
it needs, the reason `dispatch` reports, and the solver's (module,
function).  It is the one statement of each route's domain: `dispatch`
takes the first entry with no `misfit`, and each solver refuses through
its entry's `misfit` text.  `ROUTE` indexes the table by name.  The
general-DAG entry, `minsum-junctions`, also needs few junction vertices.
What no entry fits goes to the exhaustive oracle, within its size guard.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass

from . import exact
from .core import OBJECTIVES, Allocation, DissatisfactionProfile, GraphClass, Instance
from .core import PreconditionError, SizeGuardError, profile


def instance_class(inst: Instance) -> GraphClass:
    """Most specific label shared by every agent's graph: the first in
    `GraphClass` declaration order.

    An instance with no agents reports GENERAL_DAG, though every route's
    shape holds of its agents vacuously and `dispatch` picks accordingly.
    """
    if not inst.agents:
        return GraphClass.GENERAL_DAG
    shared = frozenset.intersection(*(inst.graphs[a].classes for a in inst.agents))
    return next(label for label in GraphClass if label in shared)


def misfit_agent(inst: Instance, label: GraphClass) -> str | None:
    """First agent, in sorted order, whose graph is not of the class."""
    return next((a for a in inst.agents if label not in inst.graphs[a].classes), None)


def junction_count(inst: Instance) -> int:
    """Total junction vertices across all agents' graphs."""
    return sum(len(inst.graphs[a].junctions) for a in inst.agents)


# -- solver routing --------------------------------------------------------

#: Routing the FPT solver through more than this many junction vertices
#: costs over 4^6 outer guesses, which stops being interactive.
DEFAULT_GAMMA_LIMIT = 6


@dataclass(frozen=True)
class SolverChoice:
    """Routing decision: the solver registry name plus the reason."""

    name: str
    reason: str


@dataclass(frozen=True)
class Route:
    """One exact polynomial route: when it applies and which solver runs."""

    name: str
    objective: str
    shape: GraphClass  # every agent's graph must have this class
    agents: int | None  # required agent count, None for any
    reason: str
    solver: tuple[str, str]  # (module, function) within the package

    def misfit(self, inst: Instance) -> str | None:
        """Why the instance is outside this route's domain, or None when it fits."""
        if self.agents is not None and inst.num_agents != self.agents:
            return f"exactly {self.agents} agents required"
        bad = misfit_agent(inst, self.shape)
        if bad is not None:
            return f"graph of agent {bad!r} is not of class {self.shape.value!r}"
        return None


#: Routes in dispatch order.  The general-DAG entry is the junction FPT
#: solver, bounded by the junction count rather than by shape; its reason
#: is filled in with that count and the limit.
ROUTES = (
    Route("minsum-matchings", "sum", GraphClass.DIRECTED_MATCHING, None,
          "every graph is a directed matching", ("polyalgos", "minsum_directed_matchings")),
    Route("minsum-paths", "sum", GraphClass.PATH, None,
          "every graph is a single path", ("polyalgos", "minsum_paths")),
    Route("minsum-disjoint-paths", "sum", GraphClass.DISJOINT_PATHS, None,
          "every graph is a union of disjoint paths", ("polyalgos", "minsum_disjoint_paths")),
    Route("minsum-two-star-forests", "sum", GraphClass.UNION_OUT_STARS, 2,
          "two agents, every graph a union of out-stars", ("polyalgos", "minsum_two_star_forests")),
    Route("minsum-junctions", "sum", GraphClass.GENERAL_DAG, None,
          "gamma = {gamma} <= {gamma_limit}", ("junction", "minsum_few_junctions")),
    Route("minmax-paths", "max", GraphClass.PATH, None,
          "every graph is a single path", ("polyalgos", "minmax_paths")),
    Route("minmax-two-matchings", "max", GraphClass.DIRECTED_MATCHING, 2,
          "two agents, every graph a directed matching", ("polyalgos", "minmax_two_matchings")),
)

#: Routes by name: what `--algorithm` forces and each solver checks its domain against.
ROUTE = {route.name: route for route in ROUTES}


def dispatch(inst: Instance, objective: str) -> SolverChoice:
    """Pick the best solver for the instance shape and objective.

    Takes the first entry of `ROUTES` for the objective with no `misfit`;
    in particular the max objective never routes path forests to the
    bottleneck-assignment solver (only single paths per agent are safe).
    Falls back to the exhaustive oracle when `exact.fits` takes the
    instance under the PREFALLOC_ORACLE_LIMIT setting, else reports
    "oracle-too-large" with that check's reason.
    """
    if objective not in OBJECTIVES:
        raise PreconditionError(f"unknown objective {objective!r}")
    for route in ROUTES:
        if route.objective != objective or route.misfit(inst) is not None:
            continue
        if route.shape is not GraphClass.GENERAL_DAG:
            return SolverChoice(route.name, route.reason)
        gamma = junction_count(inst)
        if gamma <= DEFAULT_GAMMA_LIMIT:
            return SolverChoice(
                route.name, route.reason.format(gamma=gamma, gamma_limit=DEFAULT_GAMMA_LIMIT)
            )
    ok, reason = exact.fits(inst)
    return SolverChoice("oracle" if ok else "oracle-too-large", reason)


@dataclass(frozen=True)
class Solution(SolverChoice):
    """The chosen solver's answer, with the witness's profile it was checked on."""

    value: int
    witness: Allocation
    profile: DissatisfactionProfile


def solve(inst: Instance, objective: str, algorithm: str = "auto") -> Solution:
    """Minimize the objective by `dispatch`'s choice, or a route or "oracle" by
    name.  Refusals: SizeGuardError, and PreconditionError for an unknown or
    other-objective algorithm or, behind the solver's name, the solver's own."""
    if algorithm == "auto":
        choice = dispatch(inst, objective)
        if choice.name == "oracle-too-large":
            raise SizeGuardError(choice.reason)
    elif algorithm != "oracle" and algorithm not in ROUTE:
        raise PreconditionError(f"unknown algorithm {algorithm!r}")
    elif algorithm != "oracle" and ROUTE[algorithm].objective != objective:
        raise PreconditionError(
            f"algorithm {algorithm!r} does not minimize objective {objective!r}"
        )
    else:
        choice = SolverChoice(algorithm, "forced by --algorithm")
    try:
        if choice.name == "oracle":
            res = exact.minimize(inst, objective)
        else:
            # Looked up at call time: solver modules import this one; tracers wrap in place.
            module, function = ROUTE[choice.name].solver
            res = getattr(importlib.import_module(f"{__package__}.{module}"), function)(inst)
    except PreconditionError as exc:
        raise PreconditionError(f"{choice.name}: {exc}") from None
    prof = profile(inst, res.witness)
    checked = OBJECTIVES[objective](prof.values)
    if checked != res.value:
        raise AssertionError(
            f"solver {choice.name} reported {res.value} but its witness evaluates to {checked}"
        )
    return Solution(choice.name, choice.reason, checked, res.witness, prof)
