"""Structural classification of preference graphs, and solver routing.

Solvers specialize on graph shape.  The shape labels are a fact about a
graph, so `core` derives them once per graph, on first read of
`PreferenceGraph.classes` (the `GraphClass` enum lives there too and is
re-exported here).  Labels are not a partition: a single vertex is
simultaneously an out-star, a path, and more.  `graph_class` returns
the most specific label under a fixed priority, and the `is_*`
predicates answer individual membership; each predicate's docstring is
the definition of its label.  This module owns routing.

`ROUTES` is the route table: per exact polynomial solver, the objective
it minimizes, the class every agent's graph must have, the agent count
it needs, the reason `dispatch` reports, and the solver's (module,
function).  `dispatch` takes the first entry that fits; the general-DAG
entry, `minsum-junctions`, also needs few junction vertices.  What no
entry fits goes to the exhaustive oracle, within its size guard.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass

from .core import GraphClass, Instance, PreconditionError, PreferenceGraph


def is_out_star(g: PreferenceGraph) -> bool:
    """One root with arcs to every other vertex, and no other arcs.

    A single vertex with no arcs qualifies (root with zero leaves).
    """
    return GraphClass.OUT_STAR in g.classes


def is_out_tree(g: PreferenceGraph) -> bool:
    """One in-degree-0 root, every other vertex in-degree 1, all reachable."""
    return GraphClass.OUT_TREE in g.classes


def is_path(g: PreferenceGraph) -> bool:
    """A single directed path covering every vertex.

    Single vertices count (a path of length zero).
    """
    return GraphClass.PATH in g.classes


def is_disjoint_paths(g: PreferenceGraph) -> bool:
    """A nonempty union of disjoint paths: in- and out-degrees at most one."""
    return GraphClass.DISJOINT_PATHS in g.classes


def is_directed_matching(g: PreferenceGraph) -> bool:
    """Disjoint arcs covering all vertices: every vertex has total degree one.

    The empty graph qualifies vacuously; an isolated vertex disqualifies.
    """
    return GraphClass.DIRECTED_MATCHING in g.classes


def is_union_out_stars(g: PreferenceGraph) -> bool:
    """Nonempty disjoint union of out-stars (isolated vertices allowed).

    Characterized vertex-locally: in-degrees at most one, and no vertex
    has both in-arcs and out-arcs.
    """
    return GraphClass.UNION_OUT_STARS in g.classes


#: Labels from most to least specific.
_PRIORITY = (
    GraphClass.OUT_STAR,
    GraphClass.PATH,
    GraphClass.OUT_TREE,
    GraphClass.DIRECTED_MATCHING,
    GraphClass.DISJOINT_PATHS,
    GraphClass.UNION_OUT_STARS,
    GraphClass.GENERAL_DAG,
)


def _most_specific(labels: frozenset[GraphClass]) -> GraphClass:
    return next(label for label in _PRIORITY if label in labels)


def graph_class(g: PreferenceGraph) -> GraphClass:
    """Most specific class label for a single graph."""
    return _most_specific(g.classes)


def graph_classes(g: PreferenceGraph) -> frozenset[GraphClass]:
    """All class labels the graph satisfies (always includes GENERAL_DAG)."""
    return g.classes


def instance_class(inst: Instance) -> GraphClass:
    """Most specific label shared by every agent's graph."""
    if not inst.agents:
        return GraphClass.GENERAL_DAG
    shared = frozenset.intersection(*(inst.graphs[a].classes for a in inst.agents))
    return _most_specific(shared)


def all_graphs_are(inst: Instance, label: GraphClass) -> bool:
    return misfit_agent(inst, label) is None


def misfit_agent(inst: Instance, label: GraphClass) -> str | None:
    """First agent, in sorted order, whose graph is not of the class."""
    return next((a for a in inst.agents if label not in inst.graphs[a].classes), None)


# -- junction vertices ---------------------------------------------------


def junctions(g: PreferenceGraph) -> frozenset[str]:
    """Vertices with in-degree above one or out-degree above one."""
    return frozenset(
        v for v in g.sorted_items if g.in_degree(v) > 1 or g.out_degree(v) > 1
    )


def junction_count(inst: Instance) -> int:
    """Total junction vertices across all agents' graphs."""
    return sum(len(junctions(inst.graphs[a])) for a in inst.agents)


@dataclass(frozen=True)
class JunctionSummary:
    """Junction vertices per agent plus their total with multiplicity."""

    per_agent: dict[str, frozenset[str]]
    gamma: int


def junction_summary(inst: Instance) -> JunctionSummary:
    per = {a: junctions(inst.graphs[a]) for a in inst.agents}
    return JunctionSummary(per, sum(len(s) for s in per.values()))


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

    def fits(self, inst: Instance) -> bool:
        if self.agents is not None and inst.num_agents != self.agents:
            return False
        return all_graphs_are(inst, self.shape)

    def solve(self, inst: Instance):
        # Looked up on the module at call time: the solver modules import
        # this one, and tracers replace solvers in place on their modules.
        module, function = self.solver
        return getattr(importlib.import_module(f"{__package__}.{module}"), function)(inst)


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


def dispatch(
    inst: Instance,
    objective: str,
    *,
    gamma_limit: int = DEFAULT_GAMMA_LIMIT,
    oracle_limit: int | None = None,
) -> SolverChoice:
    """Pick the best solver for the instance shape and objective.

    Takes the first entry of `ROUTES` for the objective whose shape and
    agent count fit; in particular the max objective never routes path
    forests to the bottleneck-assignment solver (only single paths per
    agent are safe).  Falls back to the exhaustive oracle when it fits
    the size guard, else reports "oracle-too-large".
    """
    from . import exact

    if objective not in ("sum", "max"):
        raise PreconditionError(f"unknown objective {objective!r}")
    for route in ROUTES:
        if route.objective != objective or not route.fits(inst):
            continue
        if route.shape is not GraphClass.GENERAL_DAG:
            return SolverChoice(route.name, route.reason)
        gamma = junction_count(inst)
        if gamma <= gamma_limit:
            return SolverChoice(
                route.name, route.reason.format(gamma=gamma, gamma_limit=gamma_limit)
            )
    space = exact.search_space(inst)
    limit = exact._effective_limit(oracle_limit)
    if space <= limit:
        return SolverChoice("oracle", f"search space {space} within limit {limit}")
    return SolverChoice(
        "oracle-too-large", f"search space {space} exceeds limit {limit}"
    )
