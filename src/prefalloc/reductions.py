"""Hardness gadget generators.

Turn exact-cover and 3-CNF sources into allocation instances with a known
decision threshold.  Forward builders translate a source certificate (an
exact cover, a satisfying assignment) into an allocation meeting the
threshold; extractors recover a certificate from any threshold-meeting
allocation.  `REDUCTIONS` is the one list of reductions: it wires each
to its CLI name, source parser, generator, bound objectives, forward
witness and extractor.

Item and agent naming is fixed so generated instances are byte-stable:
hub items "h:<i>", per-set index items "c:<j>", ground elements
"x:<elem>", plus gadget-specific extras documented on each generator.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

from .core import (
    OBJECTIVES,
    Allocation,
    GraphClass,
    Instance,
    ParseError,
    PreconditionError,
    PreferenceGraph,
    ValidationError,
    load_json,
    profile,
)

# -- source problems -------------------------------------------------------


@dataclass(frozen=True)
class X3CInstance:
    """Exact cover by 3-sets: a ground set of size 3q and p = 3q triples,
    with every element in exactly 3 of them.

    The collection may repeat a triple; the smallest solvable sources
    (q = 1) consist of the same triple three times.
    """

    elements: tuple[str, ...]
    triples: tuple[tuple[str, str, str], ...]

    def __post_init__(self):
        elements = tuple(str(e) for e in self.elements)
        triples = tuple(tuple(str(x) for x in t) for t in self.triples)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "triples", triples)
        if not elements or len(elements) % 3:
            raise PreconditionError("ground set size must be a positive multiple of 3")
        dup = sorted(e for e, n in Counter(elements).items() if n > 1)
        if dup:
            raise PreconditionError(f"ground set has duplicate element {dup[0]!r}")
        pool = set(elements)
        seen: Counter = Counter()
        for t in triples:
            if len(t) != 3 or len(set(t)) != 3:
                raise PreconditionError(f"set {t!r} is not a 3-element subset")
            stray = sorted(set(t) - pool)
            if stray:
                raise PreconditionError(f"set {t!r} uses unknown element {stray[0]!r}")
            seen.update(t)
        off = sorted(e for e in elements if seen[e] != 3)
        if off:
            raise PreconditionError(
                f"element {off[0]!r} appears in {seen[off[0]]} sets, expected exactly 3"
            )

    @property
    def q(self) -> int:
        return len(self.elements) // 3

    @property
    def p(self) -> int:
        return len(self.triples)

    def is_exact_cover(self, indices: Iterable[int]) -> bool:
        """Whether the 1-based triple indices cover every element exactly once."""
        picked = list(indices)
        if len(set(picked)) != len(picked):
            return False
        if any(j < 1 or j > self.p for j in picked):
            return False
        covered = [x for j in picked for x in self.triples[j - 1]]
        return len(covered) == len(self.elements) and set(covered) == set(self.elements)


@dataclass(frozen=True)
class Cnf3Formula:
    """A CNF formula whose clauses hold exactly 3 literals.

    Literals follow the usual sign convention: +i is variable i, -i its
    negation; variables are 1-based.
    """

    num_vars: int
    clauses: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        clauses = tuple(tuple(int(lit) for lit in c) for c in self.clauses)
        object.__setattr__(self, "clauses", clauses)
        if self.num_vars < 1:
            raise PreconditionError("formula needs at least one variable")
        if not clauses:
            raise PreconditionError("formula needs at least one clause")
        for c in clauses:
            if len(c) != 3:
                raise PreconditionError(f"clause {c!r} must have exactly 3 literals")
            for lit in c:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise PreconditionError(
                        f"literal {lit} out of range in clause {c!r}"
                    )

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    def has_distinct_variables(self) -> bool:
        """True when no clause mentions the same variable twice."""
        return all(len({abs(lit) for lit in c}) == 3 for c in self.clauses)


def satisfies(formula: Cnf3Formula, assignment: Sequence[bool]) -> bool:
    if len(assignment) != formula.num_vars:
        raise PreconditionError("assignment length does not match variable count")
    return all(
        any(bool(assignment[abs(lit) - 1]) == (lit > 0) for lit in c)
        for c in formula.clauses
    )


def satisfying_assignment(formula: Cnf3Formula) -> tuple[bool, ...] | None:
    """Exhaustive truth-table search, capped at 20 variables."""
    if formula.num_vars > 20:
        raise PreconditionError("truth-table search is capped at 20 variables")
    n = formula.num_vars
    for bits in range(1 << n):
        cand = tuple(bool(bits >> i & 1) for i in range(n))
        if satisfies(formula, cand):
            return cand
    return None


# -- source parsers ---------------------------------------------------------


def parse_x3c(text: str | bytes) -> X3CInstance:
    """Parse the JSON shape {"X": [...], "C": [[a, b, c], ...]}."""
    doc = load_json(text)
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object", location="$")
    ground = doc.get("X")
    sets_ = doc.get("C")
    if not isinstance(ground, list):
        raise ParseError("expected a list of elements", location="X")
    if not isinstance(sets_, list):
        raise ParseError("expected a list of 3-element lists", location="C")
    for pos, t in enumerate(sets_):
        if not isinstance(t, list) or len(t) != 3:
            raise ParseError("each set needs exactly 3 elements", location=f"C[{pos}]")
    elements: dict[str, None] = {}
    for i, e in enumerate(ground):
        x = _element(e, f"X[{i}]")
        if x in elements:
            raise ParseError(f"duplicate element {x!r}", f"X[{i}]")
        elements[x] = None
    return X3CInstance(
        tuple(elements),
        tuple(
            tuple(_element(x, f"C[{pos}][{j}]") for j, x in enumerate(t))
            for pos, t in enumerate(sets_)
        ),
    )


def _element(value, location: str) -> str:
    """An X3C element: a string, or an integer read as its decimal string."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise ParseError("elements must be strings or integers", location)
    return str(value)


def parse_dimacs(text: str | bytes) -> Cnf3Formula:
    """Parse a DIMACS CNF document whose clauses all have 3 literals.

    Accepts comment lines ("c ..."), one "p cnf <vars> <clauses>" header,
    and 0-terminated clauses that may span lines.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as e:
            raise ParseError(f"invalid UTF-8: {e.reason} at byte {e.start}") from None
    header: tuple[int, int] | None = None
    tokens: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if header is not None:
                raise ParseError("duplicate header", location=f"line {lineno}")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError(
                    "header must read 'p cnf <vars> <clauses>'",
                    location=f"line {lineno}",
                )
            try:
                header = (int(parts[2]), int(parts[3]))
            except ValueError:
                raise ParseError(
                    "header counts must be integers", location=f"line {lineno}"
                ) from None
            continue
        if header is None:
            raise ParseError("clause before 'p cnf' header", location=f"line {lineno}")
        try:
            tokens.extend(int(tok) for tok in line.split())
        except ValueError:
            raise ParseError(
                "clause lines must hold integers", location=f"line {lineno}"
            ) from None
    if header is None:
        raise ParseError("missing 'p cnf' header", location="line 1")
    clauses: list[tuple[int, ...]] = []
    cur: list[int] = []
    for tok in tokens:
        if tok == 0:
            clauses.append(tuple(cur))
            cur = []
        else:
            cur.append(tok)
    if cur:
        raise ParseError("last clause is not 0-terminated", location="clauses")
    if len(clauses) != header[1]:
        raise ParseError(
            f"header promises {header[1]} clauses, found {len(clauses)}",
            location="clauses",
        )
    for c in clauses:
        if len(c) != 3:
            raise ParseError(
                f"clause {c!r} must have exactly 3 literals", location="clauses"
            )
    return Cnf3Formula(header[0], tuple(clauses))  # type: ignore[arg-type]


# -- generators -------------------------------------------------------------


def _chain(seq: Sequence[str]) -> list[tuple[str, str]]:
    return [(seq[i], seq[i + 1]) for i in range(len(seq) - 1)]


def gen_minmax_outstars(source: X3CInstance) -> tuple[Instance, int]:
    """Max-objective gadget where every preference graph is one out-star.

    With l = 2p/3 + 1: agents "D:1".."D:<l+1>" all share the star rooted
    at hub "h:1" over the other hubs; agent "A" roots "h:1" over every
    set-index item "c:<j>"; agent "C:<j>" roots its index item over the
    triple's elements and hubs "h:1".."h:<l-1>".  A max dissatisfaction
    of at most l is achievable exactly when the source has an exact cover.
    """
    p = source.p
    ell = 2 * p // 3 + 1
    hubs = [f"h:{i}" for i in range(1, ell + 2)]
    sets_ = [f"c:{j}" for j in range(1, p + 1)]
    elems = {e: f"x:{e}" for e in source.elements}

    graphs: dict[str, PreferenceGraph] = {}
    star = PreferenceGraph(
        frozenset(hubs), frozenset((hubs[0], h) for h in hubs[1:])
    )
    for i in range(1, ell + 2):
        graphs[f"D:{i}"] = star
    graphs["A"] = PreferenceGraph(
        frozenset([hubs[0], *sets_]), frozenset((hubs[0], s) for s in sets_)
    )
    for j, triple in enumerate(source.triples, start=1):
        leaves = [elems[x] for x in triple] + hubs[: ell - 1]
        graphs[f"C:{j}"] = PreferenceGraph(
            frozenset([sets_[j - 1], *leaves]),
            frozenset((sets_[j - 1], leaf) for leaf in leaves),
        )

    inst = Instance(graphs)
    assert all(GraphClass.OUT_STAR in g.classes for g in inst.graphs.values())
    return inst, ell


def gen_minsum_outtrees(source: X3CInstance) -> tuple[Instance, int]:
    """Sum-objective gadget where every graph is an out-tree spanning the
    whole pool.

    With D = 2p^2 + p/3 + 1 and 3D - 2 hubs: agent "A:<i>" roots its tree
    at hub i with every other hub as a direct child and the run
    (last hub, all elements, all indices, "e") hanging below; agent "B"
    roots at the last hub with one run of 3p - 1 hubs under each index
    item and the leftover hubs plus all elements under "e"; agent "C:<j>"
    roots at its index item with the triple's elements fanning out to
    three hub runs, the third continuing through the remaining elements
    and indices to "e".  A total dissatisfaction of at most D is
    achievable exactly when the source has an exact cover.
    """
    p = source.p
    depth = 2 * p * p + p // 3 + 1
    top = 3 * depth - 2
    hubs = [f"h:{i}" for i in range(1, top + 1)]
    sets_ = [f"c:{j}" for j in range(1, p + 1)]
    elems = {e: f"x:{e}" for e in source.elements}
    sink = "e"
    full = frozenset([*hubs, *sets_, *elems.values(), sink])

    path_a = list(elems.values()) + sets_
    path_b = list(elems.values())

    graphs: dict[str, PreferenceGraph] = {}
    tail_a = _chain([hubs[-1], *path_a, sink])
    for i in range(1, top):
        root = hubs[i - 1]
        arcs = [(root, h) for h in hubs if h != root] + tail_a
        graphs[f"A:{i}"] = PreferenceGraph(full, frozenset(arcs))
    arcs_last = [(hubs[-1], h) for h in hubs[:-1]] + _chain([hubs[-2], *path_a, sink])
    graphs[f"A:{top}"] = PreferenceGraph(full, frozenset(arcs_last))

    run = 3 * p - 1
    arcs_b = [(hubs[-1], s) for s in sets_] + [(hubs[-1], sink)]
    for j in range(1, p + 1):
        arcs_b += _chain([sets_[j - 1], *hubs[(j - 1) * run : j * run]])
    arcs_b += _chain([sink, *hubs[p * run : top - 1], *path_b])
    graphs["B"] = PreferenceGraph(full, frozenset(arcs_b))

    for j, triple in enumerate(source.triples, start=1):
        first, second, third = (elems[t] for t in triple)
        path_j = [elems[e] for e in source.elements if e not in set(triple)] + [
            s for idx, s in enumerate(sets_, start=1) if idx != j
        ]
        arcs = [(sets_[j - 1], first), (sets_[j - 1], second), (sets_[j - 1], third)]
        arcs += _chain([first, *hubs[: depth - 1]])
        arcs += _chain([second, *hubs[depth - 1 : 2 * depth - 2]])
        arcs += _chain([third, *hubs[2 * depth - 2 : top], *path_j, sink])
        graphs[f"C:{j}"] = PreferenceGraph(full, frozenset(arcs))

    inst = Instance(graphs)
    assert all(
        g.items == full and GraphClass.OUT_TREE in g.classes for g in inst.graphs.values()
    )
    return inst, depth


def gen_two_agents_sat(formula: Cnf3Formula) -> tuple[Instance, int, int]:
    """Two-agent gadget over one shared item pool.

    Items "v:<i>" and "nv:<i>" stand for the two polarities of variable i,
    "u:<i>" is that variable's dummy, "c:<j>" stands for clause j.  Agent
    "1" hangs each clause item below the literal items occurring in that
    clause; agent "2" hangs each dummy below both polarity items.  The
    source is satisfiable exactly when total dissatisfaction 2n is
    achievable, equally exactly when max dissatisfaction n is.

    Returns (instance, sum threshold 2n, max threshold n).
    """
    n, m = formula.num_vars, formula.num_clauses
    pos = [f"v:{i}" for i in range(1, n + 1)]
    neg = [f"nv:{i}" for i in range(1, n + 1)]
    dum = [f"u:{i}" for i in range(1, n + 1)]
    cls = [f"c:{j}" for j in range(1, m + 1)]
    full = frozenset(pos + neg + dum + cls)

    arcs1 = []
    for j, clause in enumerate(formula.clauses, start=1):
        for lit in clause:
            tail = pos[abs(lit) - 1] if lit > 0 else neg[abs(lit) - 1]
            arcs1.append((tail, cls[j - 1]))
    arcs2 = [(pos[i], dum[i]) for i in range(n)] + [(neg[i], dum[i]) for i in range(n)]
    graphs = {
        "1": PreferenceGraph(full, frozenset(arcs1)),
        "2": PreferenceGraph(full, frozenset(arcs2)),
    }
    inst = Instance(graphs)
    assert all(g.items == full for g in inst.graphs.values())
    return inst, 2 * n, n


def gen_minmax_matchings(source: X3CInstance) -> tuple[Instance, int]:
    """Max-objective gadget where every graph is a directed matching.

    Needs p >= 6.  With l = 4p/3: agents "D:1".."D:<l+1>" pair the hubs
    "h:1".."h:<l>" off and feed the spare hub into their own token
    "a:<i>"; agent "F" pairs each index item "c:<j>" with hub "h:<j>";
    agent "B:<j>" pairs its index item with blocker "b0:<j>", "h:1" with
    blocker "b1:<j>", and the even hubs "h:2".."h:<l-1>" off; agent
    "C:<j>" pairs the blockers with two triple elements, "h:1" with the
    third, the hubs "h:2".."h:<l-3>" off, and "h:<l-2>" with its sink
    "e:<j>".  A max dissatisfaction of at most l is achievable exactly
    when the source has an exact cover.
    """
    p = source.p
    if p < 6:
        raise PreconditionError("construction needs at least 6 sets (p >= 6)")
    ell = 4 * p // 3
    hubs = [f"h:{i}" for i in range(1, ell + 2)]
    toks = [f"a:{i}" for i in range(1, ell + 2)]
    sets_ = [f"c:{j}" for j in range(1, p + 1)]
    blk0 = [f"b0:{j}" for j in range(1, p + 1)]
    blk1 = [f"b1:{j}" for j in range(1, p + 1)]
    snk = [f"e:{j}" for j in range(1, p + 1)]
    elems = {e: f"x:{e}" for e in source.elements}

    def matching(arcs: list[tuple[str, str]]) -> PreferenceGraph:
        return PreferenceGraph(
            frozenset(v for arc in arcs for v in arc), frozenset(arcs)
        )

    graphs: dict[str, PreferenceGraph] = {}
    pair_all = [(hubs[i], hubs[i + 1]) for i in range(0, ell, 2)]
    for i in range(1, ell + 2):
        graphs[f"D:{i}"] = matching(pair_all + [(hubs[ell], toks[i - 1])])
    graphs["F"] = matching([(sets_[j], hubs[j]) for j in range(p)])
    pair_mid = [(hubs[i], hubs[i + 1]) for i in range(1, ell - 2, 2)]
    for j in range(1, p + 1):
        graphs[f"B:{j}"] = matching(
            [(sets_[j - 1], blk0[j - 1]), (hubs[0], blk1[j - 1])] + pair_mid
        )
    pair_low = [(hubs[i], hubs[i + 1]) for i in range(1, ell - 4, 2)]
    for j, triple in enumerate(source.triples, start=1):
        first, second, third = (elems[t] for t in triple)
        graphs[f"C:{j}"] = matching(
            [
                (blk0[j - 1], first),
                (blk1[j - 1], second),
                (hubs[0], third),
                *pair_low,
                (hubs[ell - 3], snk[j - 1]),
            ]
        )

    inst = Instance(graphs)
    assert ell % 2 == 0
    assert all(GraphClass.DIRECTED_MATCHING in g.classes for g in inst.graphs.values())
    return inst, ell


def gen_minmax_two_paths_sat(formula: Cnf3Formula) -> tuple[Instance, int]:
    """Max-objective gadget where every graph is at most two short paths.

    Needs at least two clauses (the clause index wraps around) and three
    distinct variables per clause.  Items: "z1", "z2", "z3" plus, for each
    variable i and clause position j, a position marker "v:<i>:<j>" and
    the literal items "lit:<i>:<j>" / "nlit:<i>:<j>".  Agents "b:1".."b:3"
    share the path over the z items; variable agent "a:<i>:<j>" has the
    paths (z1, marker j+1, lit j) and (marker j, nlit j); clause agent
    "c:<j>" has the path over its three literal items in clause order.
    A max dissatisfaction of at most 2 is achievable exactly when the
    source is satisfiable.
    """
    if not formula.has_distinct_variables():
        raise PreconditionError("every clause needs three distinct variables")
    n, m = formula.num_vars, formula.num_clauses
    if m < 2:
        raise PreconditionError("construction needs at least 2 clauses")
    zs = ["z1", "z2", "z3"]
    mark = {(i, j): f"v:{i}:{j}" for i in range(1, n + 1) for j in range(1, m + 1)}
    lit = {(i, j): f"lit:{i}:{j}" for i in range(1, n + 1) for j in range(1, m + 1)}
    nlit = {(i, j): f"nlit:{i}:{j}" for i in range(1, n + 1) for j in range(1, m + 1)}

    graphs: dict[str, PreferenceGraph] = {}
    zpath = PreferenceGraph(frozenset(zs), frozenset(_chain(zs)))
    for b in (1, 2, 3):
        graphs[f"b:{b}"] = zpath
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            nxt = j + 1 if j < m else 1
            verts = [zs[0], mark[i, nxt], lit[i, j], mark[i, j], nlit[i, j]]
            arcs = _chain(verts[:3]) + [(mark[i, j], nlit[i, j])]
            graphs[f"a:{i}:{j}"] = PreferenceGraph(frozenset(verts), frozenset(arcs))
    for j, clause in enumerate(formula.clauses, start=1):
        seq = [
            lit[abs(x), j] if x > 0 else nlit[abs(x), j] for x in clause
        ]
        graphs[f"c:{j}"] = PreferenceGraph(frozenset(seq), frozenset(_chain(seq)))

    inst = Instance(graphs)
    for g in inst.graphs.values():
        assert GraphClass.DISJOINT_PATHS in g.classes and len(g.items) <= 5
        assert g.indeg.count(0) <= 2
    return inst, 2


# -- forward witnesses -------------------------------------------------------


def _require_cover(source: X3CInstance, witness: Iterable[int]) -> tuple[int, ...]:
    picked = tuple(int(j) for j in witness)
    if not source.is_exact_cover(picked):
        raise PreconditionError("witness is not an exact cover of the ground set")
    return picked


def _require_model(formula: Cnf3Formula, witness: Iterable[bool]) -> tuple[bool, ...]:
    model = tuple(bool(b) for b in witness)
    if not satisfies(formula, model):  # refuses a model of the wrong length
        raise PreconditionError("assignment does not satisfy the formula")
    return model


# source type -> the check that turns a claimed certificate into a verified one
_REQUIRE = {X3CInstance: _require_cover, Cnf3Formula: _require_model}


def _outstars_witness(
    source: X3CInstance, cover: tuple[int, ...], ell: int
) -> Allocation:
    bundles: dict[str, set[str]] = {f"D:{i}": {f"h:{i}"} for i in range(1, ell + 2)}
    bundles["A"] = {f"c:{j}" for j in cover}
    chosen = set(cover)
    for j, triple in enumerate(source.triples, start=1):
        if j in chosen:
            bundles[f"C:{j}"] = {f"x:{x}" for x in triple}
        else:
            bundles[f"C:{j}"] = {f"c:{j}"}
    return Allocation.of(bundles)


def _outtrees_witness(
    source: X3CInstance, cover: tuple[int, ...], depth: int
) -> Allocation:
    top = 3 * depth - 2
    bundles: dict[str, set[str]] = {f"A:{i}": {f"h:{i}"} for i in range(1, top + 1)}
    bundles["B"] = {"e", *(f"c:{j}" for j in cover)}
    chosen = set(cover)
    for j, triple in enumerate(source.triples, start=1):
        if j in chosen:
            bundles[f"C:{j}"] = {f"x:{x}" for x in triple}
        else:
            bundles[f"C:{j}"] = {f"c:{j}"}
    return Allocation.of(bundles)


def _two_agents_witness(
    formula: Cnf3Formula, model: tuple[bool, ...], _sum_bound: int
) -> Allocation:
    one: set[str] = set()
    two: set[str] = set()
    for i in range(1, formula.num_vars + 1):
        if model[i - 1]:
            one.add(f"v:{i}")
            two.add(f"nv:{i}")
        else:
            one.add(f"nv:{i}")
            two.add(f"v:{i}")
        one.add(f"u:{i}")
    two.update(f"c:{j}" for j in range(1, formula.num_clauses + 1))
    return Allocation.of({"1": one, "2": two})


def _matchings_witness(
    source: X3CInstance, cover: tuple[int, ...], ell: int
) -> Allocation:
    bundles: dict[str, set[str]] = {
        f"D:{i}": {f"h:{i}", f"a:{i}"} for i in range(1, ell + 2)
    }
    bundles["F"] = {f"c:{j}" for j in cover}
    chosen = set(cover)
    for j, triple in enumerate(source.triples, start=1):
        if j in chosen:
            bundles[f"B:{j}"] = {f"b0:{j}", f"b1:{j}"}
            bundles[f"C:{j}"] = {f"e:{j}", *(f"x:{x}" for x in triple)}
        else:
            bundles[f"B:{j}"] = {f"c:{j}"}
            bundles[f"C:{j}"] = {f"b0:{j}", f"b1:{j}", f"e:{j}"}
    return Allocation.of(bundles)


def _two_paths_witness(
    formula: Cnf3Formula, model: tuple[bool, ...], _bound: int
) -> Allocation:
    n, m = formula.num_vars, formula.num_clauses
    bundles: dict[str, set[str]] = {"b:1": {"z1"}, "b:2": {"z2"}, "b:3": {"z3"}}
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            nxt = j + 1 if j < m else 1
            if model[i - 1]:
                bundles[f"a:{i}:{j}"] = {f"v:{i}:{nxt}", f"nlit:{i}:{j}"}
            else:
                bundles[f"a:{i}:{j}"] = {f"v:{i}:{j}", f"lit:{i}:{j}"}
    for j, clause in enumerate(formula.clauses, start=1):
        sat = next(x for x in clause if bool(model[abs(x) - 1]) == (x > 0))
        i = abs(sat)
        bundles[f"c:{j}"] = {f"lit:{i}:{j}" if sat > 0 else f"nlit:{i}:{j}"}
    return Allocation.of(bundles)


# -- certificate extraction ---------------------------------------------------


def _fully_received_sets(source: X3CInstance, alloc: Allocation) -> tuple[int, ...]:
    out = []
    for j, triple in enumerate(source.triples, start=1):
        if {f"x:{x}" for x in triple} <= alloc.get(f"C:{j}"):
            out.append(j)
    return tuple(out)


def _outtrees_cover(source: X3CInstance, alloc: Allocation) -> tuple[int, ...]:
    return tuple(
        j for j in range(1, source.p + 1) if f"c:{j}" not in alloc.get(f"C:{j}")
    )


def _two_agents_model(formula: Cnf3Formula, alloc: Allocation) -> tuple[bool, ...]:
    one = alloc.get("1")
    return tuple(f"v:{i}" in one for i in range(1, formula.num_vars + 1))


def _two_paths_model(formula: Cnf3Formula, alloc: Allocation) -> tuple[bool, ...]:
    """Variable i is true when some agent a:<i>:<j> holds its true-side pair."""
    m = formula.num_clauses
    return tuple(
        any(
            {f"v:{i}:{j % m + 1}", f"nlit:{i}:{j}"} <= alloc.get(f"a:{i}:{j}")
            for j in range(1, m + 1)
        )
        for i in range(1, formula.num_vars + 1)
    )


# -- the reduction table -------------------------------------------------------


@dataclass(frozen=True)
class Reduction:
    """One gadget reduction: how its source is read, built and certified."""

    cli_name: str  # the `prefalloc generate --reduction` name
    source: type  # X3CInstance or Cnf3Formula
    parse: Callable[[str | bytes], object]  # source document -> source
    generate: Callable[..., tuple]  # source -> (instance, bound, ...)
    objectives: tuple[str, ...]  # the objective of each bound, in order
    witness: Callable[..., Allocation]  # (source, certificate, first bound) -> allocation
    extract: Callable[..., tuple]  # (source, bound-meeting allocation) -> certificate


# library kind -> reduction; the CLI's `generate --reduction` names come from here
REDUCTIONS: dict[str, Reduction] = {
    "minmax-outstars": Reduction("x3c-stars", X3CInstance, parse_x3c, gen_minmax_outstars,
                                 ("max",), _outstars_witness, _fully_received_sets),
    "minsum-outtrees": Reduction("x3c-trees", X3CInstance, parse_x3c, gen_minsum_outtrees,
                                 ("sum",), _outtrees_witness, _outtrees_cover),
    "two-agents-sat": Reduction("sat-2agents", Cnf3Formula, parse_dimacs, gen_two_agents_sat,
                                tuple(OBJECTIVES), _two_agents_witness, _two_agents_model),
    "minmax-matchings": Reduction("x3c-matchings", X3CInstance, parse_x3c, gen_minmax_matchings,
                                  ("max",), _matchings_witness, _fully_received_sets),
    "minmax-two-paths": Reduction("sat-paths", Cnf3Formula, parse_dimacs, gen_minmax_two_paths_sat,
                                  ("max",), _two_paths_witness, _two_paths_model),
}


def _reduction(kind: str, source) -> Reduction:
    red = REDUCTIONS.get(kind)
    if red is None:
        raise PreconditionError(f"unknown reduction kind {kind!r}")
    if not isinstance(source, red.source):
        raise PreconditionError(
            f"reduction {kind!r} takes a source of type {red.source.__name__},"
            f" not {type(source).__name__}"
        )
    return red


def witness_allocation(kind: str, source, witness) -> Allocation:
    """Translate a source certificate into a threshold-meeting allocation.

    `witness` is a sequence of 1-based triple indices (cover gadgets) or
    of booleans per variable (formula gadgets).
    """
    red = _reduction(kind, source)
    cert = _REQUIRE[red.source](source, witness)
    inst, *bounds = red.generate(source)
    alloc = red.witness(source, cert, bounds[0])
    prof = profile(inst, alloc)
    assert all(OBJECTIVES[o](prof.values) <= b for o, b in zip(red.objectives, bounds))
    return alloc


def witness_extract(kind: str, source, alloc: Allocation):
    """Recover a source certificate from a threshold-meeting allocation.

    Returns 1-based triple indices (cover gadgets) or a boolean per
    variable (formula gadgets).  Raises PreconditionError when the
    allocation is invalid for the generated instance or misses the
    threshold.
    """
    red = _reduction(kind, source)
    inst, bound = red.generate(source)[:2]
    try:
        prof = profile(inst, alloc)
    except ValidationError as exc:
        raise PreconditionError(
            "allocation invalid: " + "; ".join(exc.violations[:3])
        ) from None
    # Only the first bound is checked: the two-agent gadget's max bound n
    # implies its sum bound 2n, so the sum check accepts both decisions.
    objective = red.objectives[0]
    value = OBJECTIVES[objective](prof.values)
    if value > bound:
        word = "total" if objective == "sum" else "max"
        raise PreconditionError(f"{word} dissatisfaction {value} exceeds bound {bound}")
    cert = red.extract(source, alloc)
    assert _REQUIRE[red.source](source, cert) == cert
    return cert
