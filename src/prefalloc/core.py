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
    """Size refusal: the input exceeds a fixed or configured bound on its work."""


class NormalizationWarning(UserWarning):
    """Emitted when inputs are normalized (e.g. items nobody desires dropped)."""


class GraphClass(enum.Enum):
    """Shape labels of a preference graph; `PreferenceGraph.classes` decides them.

    Labels are not a partition: a single vertex is an out-star, a path
    and more at once.  Each member's docstring defines its label.  Members
    are declared from most to least specific, the order in which
    `classify.instance_class` picks a shared label.
    """

    OUT_STAR = "out-star"
    """One root with arcs to every other vertex, and no other arcs.

    A single vertex with no arcs qualifies (root with zero leaves)."""
    PATH = "path"
    """A single directed path covering every vertex.

    Single vertices count (a path of length zero)."""
    OUT_TREE = "out-tree"
    """One in-degree-0 root, every other vertex in-degree 1, all reachable."""
    DIRECTED_MATCHING = "directed-matching"
    """Disjoint arcs covering all vertices: every vertex has total degree one.

    The empty graph qualifies vacuously; an isolated vertex disqualifies."""
    DISJOINT_PATHS = "disjoint-paths"
    """A nonempty union of disjoint paths: in- and out-degrees at most one."""
    UNION_OUT_STARS = "union-of-out-stars"
    """Nonempty disjoint union of out-stars (isolated vertices allowed).

    Characterized vertex-locally: in-degrees at most one, and no vertex
    has both in-arcs and out-arcs."""
    GENERAL_DAG = "general-dag"
    """Any acyclic graph: every graph has this label."""


@dataclass(frozen=True)
class PreferenceGraph:
    """Immutable DAG of one agent's preferences.

    Construction stores the graph once, by sorted position: item i is
    `sorted_items[i]` and `position[v]` is v's i; `outs[i]` holds the
    positions of i's out-neighbours in increasing order, `indeg[i]` counts
    i's in-neighbours, and `reach[i]` has bit j set when i reaches
    `sorted_items[j]`, i itself included.  They are shared, so callers
    only read them: `exact` reads the reach masks, `polyalgos` and
    `junction` the degrees, neighbour tuples and masks, and `profile` goes
    through `dominated_mask`, which refuses an unknown item.  The shape
    labels, `classes`, and the junction set, `junctions`, are derived from
    the degrees on first read, so graphs that are never classified never
    pay for them.
    """

    items: frozenset[ItemId]
    arcs: frozenset[Arc]
    sorted_items: tuple[ItemId, ...] = field(init=False, repr=False, compare=False)
    position: dict[ItemId, int] = field(init=False, repr=False, compare=False)
    # The per-position tables are lists: as tuples they raised the
    # benchmark's peak RSS by 0.2-1.8 MB per workload.
    outs: list[tuple[int, ...]] = field(init=False, repr=False, compare=False)
    indeg: list[int] = field(init=False, repr=False, compare=False)
    reach: list[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        items = frozenset(self.items)
        arcs = frozenset(self.arcs)
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "arcs", arcs)
        order = tuple(sorted(items))
        position = {v: i for i, v in enumerate(order)}
        outs = [[] for _ in order]
        indeg = [0] * len(order)
        for tail, head in sorted(arcs):
            if tail == head:
                raise ParseError(f"self-loop on item {tail!r}")
            if tail not in position or head not in position:
                raise ParseError(f"arc ({tail!r}, {head!r}) uses an unknown item")
            h = position[head]
            outs[position[tail]].append(h)
            indeg[h] += 1
        # Kahn's algorithm; leftovers mean a cycle.  Any topological order
        # gives the same closures, so a plain stack will do.
        left = indeg[:]
        stack = [i for i, d in enumerate(left) if d == 0]
        topo = []
        while stack:
            i = stack.pop()
            topo.append(i)
            for j in outs[i]:
                left[j] -= 1
                if left[j] == 0:
                    stack.append(j)
        if len(topo) != len(order):
            stuck = [v for v, d in zip(order, left) if d > 0]
            raise ParseError(f"graph is not acyclic (cycle through {stuck[:4]})")
        reach = [0] * len(order)
        for i in reversed(topo):
            mask = 1 << i
            for j in outs[i]:
                mask |= reach[j]
            reach[i] = mask
        object.__setattr__(self, "sorted_items", order)
        object.__setattr__(self, "position", position)
        object.__setattr__(self, "outs", list(map(tuple, outs)))
        object.__setattr__(self, "indeg", indeg)
        object.__setattr__(self, "reach", reach)

    @cached_property
    def classes(self) -> frozenset[GraphClass]:
        """Every shape label the graph has, always including GENERAL_DAG.

        Read off the degree lists.  The empty graph is a directed matching
        (vacuously) and nothing else; every other shape needs a vertex.
        """
        n, m = len(self.sorted_items), len(self.arcs)
        ins, outs = self.indeg, [len(hs) for hs in self.outs]
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

    @cached_property
    def junctions(self) -> frozenset[ItemId]:
        """Vertices with in-degree above one or out-degree above one."""
        return frozenset(
            v
            for v, d, hs in zip(self.sorted_items, self.indeg, self.outs)
            if d > 1 or len(hs) > 1
        )

    def _at(self, v: ItemId) -> int:
        try:
            return self.position[v]
        except KeyError:
            raise PreconditionError(f"item {v!r} is not in this graph") from None

    def dominated_mask(self, assigned: Iterable[ItemId]) -> int:
        """Items covered by `assigned`, as a mask over `sorted_items`: the
        items themselves plus everything they reach."""
        mask = 0
        for v in assigned:
            mask |= self.reach[self._at(v)]
        return mask


@dataclass(frozen=True)
class Instance:
    """One preference graph per agent; the item pool is their vertices.

    The agents are the keys of `graphs` and the items the union of the
    graphs' items, both in sorted order: the canonical order used for
    serialization, witness tie-breaking and profile coordinates.
    `position[v]` is item v's index in `items`.
    """

    items: tuple[ItemId, ...] = field(init=False)
    agents: tuple[AgentId, ...] = field(init=False)
    graphs: Mapping[AgentId, PreferenceGraph]
    position: dict[ItemId, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        items = tuple(sorted(set().union(*(g.items for g in self.graphs.values()))))
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "agents", tuple(sorted(self.graphs)))
        object.__setattr__(self, "position", {v: i for i, v in enumerate(items)})

    @classmethod
    def build(
        cls, items: Iterable[ItemId], graphs: Mapping[AgentId, PreferenceGraph]
    ) -> "Instance":
        """Instance of `graphs` checked against a declared pool: refuses a graph
        item outside `items` and drops, with a warning, the items no graph holds."""
        inst = cls(dict(graphs))
        items = frozenset(items)
        for a in inst.agents:
            extra = inst.graphs[a].items - items
            if extra:
                raise ParseError(f"agent {a!r} desires unknown items {sorted(extra)[:4]}")
        dropped = items - inst.position.keys()
        if dropped:  # only once the instance is valid
            warnings.warn(
                f"dropping {len(dropped)} item(s) desired by no agent: "
                f"{sorted(dropped)[:6]}",
                NormalizationWarning,
                stacklevel=2,
            )
        return inst

    @property
    def num_items(self) -> int:
        return len(self.items)

    @property
    def num_agents(self) -> int:
        return len(self.agents)


_EMPTY: frozenset = frozenset()


@dataclass(frozen=True)
class Allocation:
    """Disjoint bundles of items keyed by agent, at most one bundle per
    agent.  Missing agents hold nothing."""

    pairs: tuple[tuple[AgentId, frozenset[ItemId]], ...]

    def __post_init__(self):
        seen = set()
        for a, _ in self.pairs:
            if a in seen:
                raise PreconditionError(f"agent {a!r} holds two bundles")
            seen.add(a)
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


#: Objective name -> its score of the per-agent dissatisfaction values:
#: the total, or the worst agent's (0 when there are no agents).
OBJECTIVES = {"sum": sum, "max": lambda values: max(values) if values else 0}


@dataclass(frozen=True)
class DissatisfactionProfile:
    """Per-agent dissatisfaction counts, in the instance's agent order."""

    agents: tuple[AgentId, ...]
    values: tuple[int, ...]

    @property
    def total(self) -> int:
        return OBJECTIVES["sum"](self.values)

    @property
    def maximum(self) -> int:
        return OBJECTIVES["max"](self.values)

    def __getitem__(self, agent: AgentId) -> int:
        try:
            return self.values[self.agents.index(agent)]
        except ValueError:
            raise PreconditionError(f"unknown agent {agent!r}") from None

    def as_dict(self) -> dict[AgentId, int]:
        return dict(zip(self.agents, self.values))


# -- allocation semantics ------------------------------------------------


def validate_allocation(inst: Instance, alloc: Allocation) -> list[str]:
    """Return a list of violations (empty when the allocation is valid).

    Valid means: every referenced agent exists, bundles are pairwise
    disjoint, and each agent only holds items appearing in its own graph.
    """
    violations = []
    seen: dict[ItemId, AgentId] = {}
    for agent, items in alloc.pairs:
        if agent not in inst.graphs:
            violations.append(f"unknown agent {agent!r}")
            continue
        g = inst.graphs[agent]
        for v in sorted(items):
            if v not in inst.position:
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


def dissatisfaction(inst: Instance, alloc: Allocation, agent: AgentId) -> int:
    """Number of items in the agent's graph left uncovered by its bundle."""
    return profile(inst, alloc)[agent]


def satisfaction(inst: Instance, alloc: Allocation, agent: AgentId) -> int:
    """Number of items in the agent's graph covered by its bundle."""
    uncovered = dissatisfaction(inst, alloc, agent)  # checks the allocation and the agent
    return len(inst.graphs[agent].items) - uncovered


def profile(inst: Instance, alloc: Allocation) -> DissatisfactionProfile:
    """Dissatisfaction of every agent, as a profile in canonical agent order."""
    violations = validate_allocation(inst, alloc)
    if violations:
        raise ValidationError(violations)
    values = []
    for a in inst.agents:
        g = inst.graphs[a]
        values.append(len(g.items) - g.dominated_mask(alloc.get(a)).bit_count())
    return DissatisfactionProfile(inst.agents, tuple(values))


# -- JSON interchange ----------------------------------------------------


def _object(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict, refusing a key the dict would overwrite."""
    out = dict(pairs)
    if len(out) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ParseError(f"invalid JSON: duplicate key {key!r}")
            seen.add(key)
    return out


def load_json(text: str | bytes):
    """`json.loads`, raising ParseError on malformed, over-deep or non-UTF-8
    input, on a key repeated in one object and on integers too long to
    convert."""
    try:
        return json.loads(text, object_pairs_hook=_object)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg}", f"line {e.lineno}") from None
    except RecursionError:
        raise ParseError("invalid JSON: nesting too deep") from None
    except UnicodeDecodeError as e:
        raise ParseError(f"invalid UTF-8: {e.reason} at byte {e.start}") from None
    except ValueError:  # an integer literal past the interpreter's digit limit
        raise ParseError("invalid JSON: integer literal has too many digits") from None


def _expect(cond: bool, message: str, location: str):
    if not cond:
        raise ParseError(message, location)


def _unique(values: list, what: str, location: str) -> frozenset:
    """values as a frozenset, refusing any duplicate the set would merge."""
    out = frozenset(values)
    if len(out) != len(values):
        seen = set()
        for v in values:
            if v in seen:
                raise ParseError(f"duplicate {what} {v!r}", location)
            seen.add(v)
    return out


#: Bits the parsed graphs' reach masks may take in all, counting n**2 for an
#: n-item graph (its masks take about half that): 1 GiB of masks at most.
_REACH_BUDGET = 2**33


def parse_instance(text: str | bytes) -> Instance:
    """Parse the instance interchange format.

    Shape: {"items": [...], "agents": [{"id": ..., "items": [...],
    "arcs": [[tail, head], ...]}, ...]}.  Items desired by no agent are
    dropped with a NormalizationWarning.  Only the document's shape and
    the duplicates that sets would silently merge are checked here; arc
    endpoints, self-loops and cycles are rejected by `PreferenceGraph`,
    agent items outside the pool by `Instance.build`.  A document whose
    graphs would pass `_REACH_BUDGET` is refused with SizeGuardError
    before that graph is built.
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
    items = _unique(items, "item id", "items")
    raw_agents = data["agents"]
    _expect(isinstance(raw_agents, list), '"agents" must be an array', "agents")
    graphs: dict[str, PreferenceGraph] = {}
    budget = _REACH_BUDGET
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
        aitems = _unique(aitems, "item", f"{loc}.items")
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
        arcs = _unique(arcs, "arc", f"{loc}.arcs")
        budget -= len(aitems) ** 2
        if budget < 0:
            raise SizeGuardError(f"graphs' reach masks would pass {_REACH_BUDGET} bits (at {loc})")
        try:
            graphs[aid] = PreferenceGraph(aitems, arcs)
        except ParseError as e:
            raise ParseError(str(e), loc) from None
    return Instance.build(items, graphs)


def _array(rows: list[str], pad: str) -> str:
    """JSON array of encoded rows, laid out as `json.dumps(indent=2)` lays
    out an array whose key or opening bracket is indented by `pad`."""
    if not rows:
        return "[]"
    return f"[\n{pad}  " + f",\n{pad}  ".join(rows) + f"\n{pad}]"


def serialize_instance(inst: Instance) -> str:
    """Canonical JSON for an instance: sorted ids, sorted arc lists.

    The text is byte for byte `json.dumps(payload, indent=2) + "\n"` of
    {"items": [...], "agents": [{"id", "items", "arcs"}, ...]}, but written
    here: with any indent, `json.dumps` leaves its C encoder for a
    pure-Python one, and only the id strings need json's (C) escaping.
    """
    quote = json.encoder.encode_basestring_ascii
    agents = []
    for a in inst.agents:
        g = inst.graphs[a]
        ids = [quote(v) for v in g.sorted_items]
        # outs lists heads in position order, and positions follow the ids'
        # sort order, so the arcs come out sorted
        arcs = [
            f"[\n          {ids[i]},\n          {ids[j]}\n        ]"
            for i, heads in enumerate(g.outs)
            for j in heads
        ]
        agents.append(
            f'{{\n      "id": {quote(a)},\n      "items": {_array(ids, "      ")},'
            f'\n      "arcs": {_array(arcs, "      ")}\n    }}'
        )
    items = _array([quote(v) for v in inst.items], "  ")
    return f'{{\n  "items": {items},\n  "agents": {_array(agents, "  ")}\n}}\n'


def parse_allocation(text: str | bytes) -> Allocation:
    """Parse {"allocation": {agent: [items]}}, refusing an item repeated in
    one bundle; `validate_allocation` checks the rest."""
    data = load_json(text)
    _expect(isinstance(data, dict), "top level must be an object", "$")
    _expect("allocation" in data, 'missing "allocation"', "$")
    body = data["allocation"]
    _expect(isinstance(body, dict), '"allocation" must be an object', "allocation")
    out: dict[str, frozenset[str]] = {}
    for agent, raw in body.items():
        loc = f"allocation.{agent}"
        _expect(isinstance(raw, list), "bundles must be arrays", loc)
        for j, v in enumerate(raw):
            _expect(isinstance(v, str), "item ids must be strings", f"{loc}[{j}]")
        out[agent] = _unique(raw, "item", loc)
    return Allocation.of(out)


def serialize_allocation(alloc: Allocation) -> str:
    payload = {"allocation": {a: sorted(items) for a, items in alloc.pairs}}
    return json.dumps(payload, indent=2) + "\n"


def serialize_profile(prof: DissatisfactionProfile) -> str:
    payload = {
        "profile": prof.as_dict(),
        "sum": prof.total,
        "max": prof.maximum,
    }
    return json.dumps(payload, indent=2) + "\n"
