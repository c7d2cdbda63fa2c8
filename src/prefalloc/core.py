"""Domain model for allocating indivisible items over preference DAGs.

Each agent ranks items through a directed acyclic graph: an arc (a, b)
states that the agent likes a at least as much as b, so receiving a also
"covers" b.  An item counts toward an agent's dissatisfaction when none of
the items handed to that agent dominates it.  Everything downstream of this
module (classifiers, solvers, CLI) works in terms of these types.
"""

from __future__ import annotations

import enum
import json
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping

ItemId = str
AgentId = str
Arc = tuple[ItemId, ItemId]


class Error(Exception):
    """Base class for package errors."""


class ParseError(Error):
    """Malformed input document or setting.  Carries a location like 'agents[2].arcs[0]'."""

    def __init__(self, message: str, location: str | None = None):
        self.location = location
        if location:
            message = f"{message} (at {location})"
        super().__init__(message)


class ValidationError(Error):
    """An allocation failed validation against an instance."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(violations))


class PreconditionError(Error):
    """An operation was called outside its declared domain."""


class SizeGuardError(Error):
    """Exhaustive search refused: the instance exceeds the configured bound."""


class NormalizationWarning(UserWarning):
    """Emitted when inputs are normalized (e.g. items nobody desires dropped)."""


def _popcount(x: int) -> int:
    return x.bit_count()


class GraphClass(enum.Enum):
    """Shape labels of a preference graph; `classify` documents each one."""

    OUT_STAR = "out-star"
    OUT_TREE = "out-tree"
    PATH = "path"
    DISJOINT_PATHS = "disjoint-paths"
    DIRECTED_MATCHING = "directed-matching"
    UNION_OUT_STARS = "union-of-out-stars"
    GENERAL_DAG = "general-dag"


@dataclass(frozen=True)
class PreferenceGraph:
    """Immutable DAG of one agent's preferences.

    Construction builds the sorted item order, the in- and out-adjacency
    and each item's reachability mask (the graphs in this problem are
    small and queried heavily), so domination queries are cheap bitmask
    lookups afterwards; `predecessors` reads the same masks.  The shape
    labels, `classes`, are derived from the degrees on first read, so
    graphs that are never classified never pay for them.
    """

    items: frozenset[ItemId]
    arcs: frozenset[Arc]
    _order: tuple[ItemId, ...] = field(
        init=False, repr=False, compare=False, default=()
    )
    _index: dict = field(init=False, repr=False, compare=False, default=None)
    _reach: dict = field(init=False, repr=False, compare=False, default=None)
    _out: dict = field(init=False, repr=False, compare=False, default=None)
    _in: dict = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        items = frozenset(self.items)
        arcs = frozenset(tuple(a) for a in self.arcs)
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "arcs", arcs)
        order = tuple(sorted(items))
        index = {v: i for i, v in enumerate(order)}
        out = {v: [] for v in order}
        inn = {v: [] for v in order}
        for tail, head in sorted(arcs):
            if tail == head:
                raise ParseError(f"self-loop on item {tail!r}")
            if tail not in items or head not in items:
                raise ParseError(f"arc ({tail!r}, {head!r}) uses an unknown item")
            out[tail].append(head)
            inn[head].append(tail)
        # Kahn's algorithm; leftovers mean a cycle.  Any topological order
        # gives the same closures, so a plain stack will do.
        indeg = {v: len(inn[v]) for v in order}
        stack = [v for v in order if indeg[v] == 0]
        topo = []
        while stack:
            v = stack.pop()
            topo.append(v)
            for w in out[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    stack.append(w)
        if len(topo) != len(order):
            stuck = sorted(v for v in order if indeg[v] > 0)
            raise ParseError(f"graph is not acyclic (cycle through {stuck[:4]})")
        reach = {}
        for v in reversed(topo):
            mask = 1 << index[v]
            for w in out[v]:
                mask |= reach[w]
            reach[v] = mask
        object.__setattr__(self, "_order", order)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_reach", reach)
        object.__setattr__(self, "_out", {v: tuple(ws) for v, ws in out.items()})
        object.__setattr__(self, "_in", {v: tuple(ws) for v, ws in inn.items()})

    # -- basic structure -------------------------------------------------

    @property
    def sorted_items(self) -> tuple[ItemId, ...]:
        return self._order

    def out_neighbors(self, v: ItemId) -> tuple[ItemId, ...]:
        self._check(v)
        return self._out[v]

    def in_neighbors(self, v: ItemId) -> tuple[ItemId, ...]:
        self._check(v)
        return self._in[v]

    def out_degree(self, v: ItemId) -> int:
        return len(self.out_neighbors(v))

    def in_degree(self, v: ItemId) -> int:
        return len(self.in_neighbors(v))

    @cached_property
    def classes(self) -> frozenset[GraphClass]:
        """Every shape label the graph has, always including GENERAL_DAG.

        Read off the degree lists.  The empty graph is a directed matching
        (vacuously) and nothing else; every other shape needs a vertex.
        """
        n, m = len(self._order), len(self.arcs)
        ins = [len(ws) for ws in self._in.values()]  # both in sorted item order
        outs = [len(ws) for ws in self._out.values()]
        max_in, max_out = max(ins, default=0), max(outs, default=0)
        labels = {GraphClass.GENERAL_DAG}
        if all(i + o == 1 for i, o in zip(ins, outs)):
            labels.add(GraphClass.DIRECTED_MATCHING)
        if n and max_in <= 1:
            if not any(i and o for i, o in zip(ins, outs)):
                labels.add(GraphClass.UNION_OUT_STARS)
            if max_out <= 1:
                labels.add(GraphClass.DISJOINT_PATHS)
            if m == n - 1:
                # The in-degrees sum to n - 1, so exactly one vertex is a
                # root, and following in-arcs back from any vertex (the
                # graph is acyclic) ends at it: the root reaches them all.
                labels.add(GraphClass.OUT_TREE)
                if max_out <= 1:
                    labels.add(GraphClass.PATH)
                if max_out == m:
                    labels.add(GraphClass.OUT_STAR)
        return frozenset(labels)

    def _check(self, v: ItemId):
        if v not in self.items:
            raise PreconditionError(f"item {v!r} is not in this graph")

    def _mask_to_set(self, mask: int) -> frozenset[ItemId]:
        out = []
        order = self._order
        while mask:
            low = mask & -mask
            out.append(order[low.bit_length() - 1])
            mask ^= low
        return frozenset(out)

    # -- reachability ----------------------------------------------------

    def successors(self, v: ItemId) -> frozenset[ItemId]:
        """All items reachable from v, excluding v itself."""
        self._check(v)
        return self._mask_to_set(self._reach[v] & ~(1 << self._index[v]))

    def predecessors(self, v: ItemId) -> frozenset[ItemId]:
        """All items from which v is reachable, excluding v itself."""
        self._check(v)
        bit = 1 << self._index[v]
        return frozenset(u for u in self._order if u != v and self._reach[u] & bit)

    def dominated_set(self, assigned: Iterable[ItemId]) -> frozenset[ItemId]:
        """Items covered by `assigned`: the set itself plus everything reachable."""
        return self._mask_to_set(self.dominated_mask(assigned))

    def dominated_mask(self, assigned: Iterable[ItemId]) -> int:
        mask = 0
        for v in assigned:
            self._check(v)
            mask |= self._reach[v]
        return mask

    def reach_mask(self, v: ItemId) -> int:
        """Bitmask of {v} plus successors, indexed by sorted_items order."""
        self._check(v)
        return self._reach[v]


@dataclass(frozen=True)
class Instance:
    """A pool of items plus one preference graph per agent.

    `items` and `agents` are kept in sorted order; that order is the
    canonical one used for serialization, witness tie-breaking and profile
    coordinates.
    """

    items: tuple[ItemId, ...]
    agents: tuple[AgentId, ...]
    graphs: Mapping[AgentId, PreferenceGraph]

    def __post_init__(self):
        items = tuple(sorted(self.items))
        agents = tuple(sorted(self.agents))
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "agents", agents)
        pool = set(items)
        if len(pool) != len(items):
            raise ParseError("duplicate item ids")
        if len(set(agents)) != len(agents):
            raise ParseError("duplicate agent ids")
        if set(self.graphs) != set(agents):
            raise ParseError("agent list and graph map disagree")
        desired = set()
        for a in agents:
            g = self.graphs[a]
            extra = g.items - pool
            if extra:
                raise ParseError(
                    f"agent {a!r} desires unknown items {sorted(extra)[:4]}"
                )
            desired |= g.items
        undesired = pool - desired
        if undesired:
            raise ParseError(
                f"items desired by no agent: {sorted(undesired)[:4]}; "
                "normalize with Instance.build"
            )

    @classmethod
    def build(
        cls,
        items: Iterable[ItemId],
        graphs: Mapping[AgentId, PreferenceGraph],
        *,
        warn_dropped: bool = True,
    ) -> "Instance":
        """Normalizing constructor: drops items no agent desires (with a warning)."""
        items = set(items)
        desired = set()
        for g in graphs.values():
            desired |= g.items
        inst = cls(tuple(sorted(items & desired)), tuple(sorted(graphs)), dict(graphs))
        dropped = items - desired
        if dropped and warn_dropped:  # only once the instance is valid
            warnings.warn(
                f"dropping {len(dropped)} item(s) desired by no agent: "
                f"{sorted(dropped)[:6]}",
                NormalizationWarning,
                stacklevel=2,
            )
        return inst

    def graph(self, agent: AgentId) -> PreferenceGraph:
        try:
            return self.graphs[agent]
        except KeyError:
            raise PreconditionError(f"unknown agent {agent!r}") from None

    @property
    def num_items(self) -> int:
        return len(self.items)

    @property
    def num_agents(self) -> int:
        return len(self.agents)


_EMPTY: frozenset = frozenset()


@dataclass(frozen=True)
class Allocation:
    """Disjoint bundles of items keyed by agent.  Missing agents hold nothing."""

    pairs: tuple[tuple[AgentId, frozenset[ItemId]], ...]

    def __post_init__(self):
        canon = tuple(
            (a, frozenset(items))
            for a, items in sorted(self.pairs)
            if items
        )
        object.__setattr__(self, "pairs", canon)

    @classmethod
    def of(cls, mapping: Mapping[AgentId, Iterable[ItemId]]) -> "Allocation":
        return cls(tuple((a, frozenset(v)) for a, v in mapping.items()))

    @classmethod
    def empty(cls) -> "Allocation":
        return cls(())

    def get(self, agent: AgentId) -> frozenset[ItemId]:
        for a, items in self.pairs:
            if a == agent:
                return items
        return _EMPTY

    def as_dict(self) -> dict[AgentId, frozenset[ItemId]]:
        return {a: items for a, items in self.pairs}

    def assigned_items(self) -> frozenset[ItemId]:
        out = set()
        for _, items in self.pairs:
            out |= items
        return frozenset(out)


@dataclass(frozen=True)
class DissatisfactionProfile:
    """Per-agent dissatisfaction counts, in the instance's agent order."""

    agents: tuple[AgentId, ...]
    values: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.values)

    @property
    def maximum(self) -> int:
        return max(self.values) if self.values else 0

    def __getitem__(self, agent: AgentId) -> int:
        try:
            return self.values[self.agents.index(agent)]
        except ValueError:
            raise PreconditionError(f"unknown agent {agent!r}") from None

    def as_dict(self) -> dict[AgentId, int]:
        return dict(zip(self.agents, self.values))

    def as_tuple(self) -> tuple[int, ...]:
        return self.values


# -- allocation semantics ------------------------------------------------


def validate_allocation(inst: Instance, alloc: Allocation) -> list[str]:
    """Return a list of violations (empty when the allocation is valid).

    Valid means: every referenced agent exists, bundles are pairwise
    disjoint, and each agent only holds items appearing in its own graph.
    """
    violations = []
    pool = set(inst.items)
    seen: dict[ItemId, AgentId] = {}
    for agent, items in alloc.pairs:
        if agent not in inst.graphs:
            violations.append(f"unknown agent {agent!r}")
            continue
        g = inst.graphs[agent]
        for v in sorted(items):
            if v not in pool:
                violations.append(f"unknown item {v!r} (agent {agent!r})")
            elif v not in g.items:
                violations.append(
                    f"item {v!r} assigned to agent {agent!r} who does not desire it"
                )
            if v in seen:
                violations.append(
                    f"item {v!r} assigned to both {seen[v]!r} and {agent!r}"
                )
            else:
                seen[v] = agent
    return violations


def _require_valid(inst: Instance, alloc: Allocation):
    violations = validate_allocation(inst, alloc)
    if violations:
        raise ValidationError(violations)


def dissatisfaction(inst: Instance, alloc: Allocation, agent: AgentId) -> int:
    """Number of items in the agent's graph left uncovered by its bundle."""
    _require_valid(inst, alloc)
    g = inst.graph(agent)
    return len(g.items) - _popcount(g.dominated_mask(alloc.get(agent)))


def satisfaction(inst: Instance, alloc: Allocation, agent: AgentId) -> int:
    g = inst.graph(agent)
    return _popcount(g.dominated_mask(alloc.get(agent)))


def profile(inst: Instance, alloc: Allocation) -> DissatisfactionProfile:
    """Dissatisfaction of every agent, as a profile in canonical agent order."""
    _require_valid(inst, alloc)
    values = []
    for a in inst.agents:
        g = inst.graphs[a]
        values.append(len(g.items) - _popcount(g.dominated_mask(alloc.get(a))))
    return DissatisfactionProfile(inst.agents, tuple(values))


# -- JSON interchange ----------------------------------------------------


def load_json(text: str | bytes):
    """`json.loads`, raising ParseError on malformed, over-deep or non-UTF-8 input."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg}", f"line {e.lineno}") from None
    except RecursionError:
        raise ParseError("invalid JSON: nesting too deep") from None
    except UnicodeDecodeError as e:
        raise ParseError(f"invalid UTF-8: {e.reason} at byte {e.start}") from None


def _expect(cond: bool, message: str, location: str):
    if not cond:
        raise ParseError(message, location)


def _expect_unique(values: list, what: str, location: str):
    if len(set(values)) != len(values):
        seen = set()
        for v in values:
            if v in seen:
                raise ParseError(f"duplicate {what} {v!r}", location)
            seen.add(v)


def parse_instance(text: str | bytes) -> Instance:
    """Parse the instance interchange format.

    Shape: {"items": [...], "agents": [{"id": ..., "items": [...],
    "arcs": [[tail, head], ...]}, ...]}.  Items desired by no agent are
    dropped with a NormalizationWarning.  Only the document's shape and
    the duplicates that sets would silently merge are checked here;
    unknown items, arc endpoints, self-loops and cycles are rejected by
    `PreferenceGraph` and `Instance`.
    """
    data = load_json(text)
    _expect(isinstance(data, dict), "top level must be an object", "$")
    _expect("items" in data, 'missing "items"', "$")
    _expect("agents" in data, 'missing "agents"', "$")
    items = data["items"]
    _expect(isinstance(items, list), '"items" must be an array', "items")
    for i, v in enumerate(items):
        if not (isinstance(v, str) and v):
            raise ParseError("item ids must be non-empty strings", f"items[{i}]")
    _expect_unique(items, "item id", "items")
    raw_agents = data["agents"]
    _expect(isinstance(raw_agents, list), '"agents" must be an array', "agents")
    graphs: dict[str, PreferenceGraph] = {}
    for i, entry in enumerate(raw_agents):
        loc = f"agents[{i}]"
        _expect(isinstance(entry, dict), "agent entries must be objects", loc)
        _expect("id" in entry, 'missing "id"', loc)
        aid = entry["id"]
        _expect(isinstance(aid, str) and aid, "agent ids must be non-empty strings", f"{loc}.id")
        _expect(aid not in graphs, f"duplicate agent id {aid!r}", f"{loc}.id")
        aitems = entry.get("items", [])
        _expect(isinstance(aitems, list), '"items" must be an array', f"{loc}.items")
        for j, v in enumerate(aitems):
            if not isinstance(v, str):
                raise ParseError("item ids must be strings", f"{loc}.items[{j}]")
        _expect_unique(aitems, "item", f"{loc}.items")
        raw_arcs = entry.get("arcs", [])
        _expect(isinstance(raw_arcs, list), '"arcs" must be an array', f"{loc}.arcs")
        arcs = []
        for j, arc in enumerate(raw_arcs):
            if not (isinstance(arc, list) and len(arc) == 2):
                raise ParseError("arcs must be [tail, head] pairs", f"{loc}.arcs[{j}]")
            tail, head = arc
            if not (isinstance(tail, str) and isinstance(head, str)):
                raise ParseError("arc ends must be strings", f"{loc}.arcs[{j}]")
            arcs.append((tail, head))
        _expect_unique(arcs, "arc", f"{loc}.arcs")
        try:
            graphs[aid] = PreferenceGraph(frozenset(aitems), frozenset(arcs))
        except ParseError as e:
            raise ParseError(str(e), loc) from None
    return Instance.build(items, graphs)


def serialize_instance(inst: Instance) -> str:
    """Canonical JSON for an instance: sorted ids, sorted arc lists."""
    payload = {
        "items": list(inst.items),
        "agents": [
            {
                "id": a,
                "items": list(inst.graphs[a].sorted_items),
                "arcs": [list(arc) for arc in sorted(inst.graphs[a].arcs)],
            }
            for a in inst.agents
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def parse_allocation(
    text: str | bytes, inst: Instance | None = None, *, lenient: bool = False
) -> Allocation:
    """Parse {"allocation": {agent: [items]}}.

    With `lenient=True` (requires `inst`), items assigned to an agent that
    does not desire them are dropped with a warning instead of being kept
    for validation to reject.
    """
    data = load_json(text)
    _expect(isinstance(data, dict), "top level must be an object", "$")
    _expect("allocation" in data, 'missing "allocation"', "$")
    body = data["allocation"]
    _expect(isinstance(body, dict), '"allocation" must be an object', "allocation")
    out: dict[str, set[str]] = {}
    for agent, raw in body.items():
        loc = f"allocation.{agent}"
        _expect(isinstance(raw, list), "bundles must be arrays", loc)
        bundle = set()
        for j, v in enumerate(raw):
            _expect(isinstance(v, str), "item ids must be strings", f"{loc}[{j}]")
            bundle.add(v)
        if lenient:
            if inst is None:
                raise PreconditionError("lenient parsing requires an instance")
            if agent in inst.graphs:
                drop = bundle - inst.graphs[agent].items
                if drop:
                    warnings.warn(
                        f"dropping {sorted(drop)} from agent {agent!r}: not desired",
                        NormalizationWarning,
                        stacklevel=2,
                    )
                    bundle -= drop
        out[agent] = bundle
    return Allocation.of(out)


def serialize_allocation(alloc: Allocation) -> str:
    payload = {"allocation": {a: sorted(items) for a, items in alloc.pairs}}
    return json.dumps(payload, indent=2) + "\n"


def serialize_profile(prof: DissatisfactionProfile) -> str:
    payload = {
        "profile": {a: v for a, v in zip(prof.agents, prof.values)},
        "sum": prof.total,
        "max": prof.maximum,
    }
    return json.dumps(payload, indent=2) + "\n"
