"""Independent answer checking: a 0/1 ILP optimum and a from-scratch witness evaluator.

Nothing here calls the solvers under test.  The optimum comes from
`scipy.optimize.milp` (HiGHS) on this model, per agent a and item u of
a's graph:

    x[a,u] = 1   a receives u           sum_a x[a,u] <= 1 per item
    c[a,u] = 1   u is covered for a     c[a,u] <= sum of x[a,p], p in {u} + ancestors(u)

with objective min sum_a (|G_a| - sum_u c[a,u]) for "sum", or min z with
|G_a| - sum_u c[a,u] <= z for "max".  Witnesses are re-evaluated with a
plain graph search over the request's own JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import coo_array


@dataclass(frozen=True)
class Graphs:
    """An instance read straight from its JSON: agent -> (items, out-arcs)."""

    items: dict[str, list[str]]
    out: dict[str, dict[str, list[str]]]

    @classmethod
    def parse(cls, text: str) -> "Graphs":
        data = json.loads(text)
        items, out = {}, {}
        for entry in data["agents"]:
            a = entry["id"]
            items[a] = list(entry["items"])
            out[a] = {v: [] for v in entry["items"]}
            for tail, head in entry["arcs"]:
                out[a][tail].append(head)
        return cls(items, out)

    def covered(self, agent: str, bundle) -> set[str]:
        """Items of the agent's graph reachable from its bundle (bundle included)."""
        seen, stack = set(), list(bundle)
        while stack:
            v = stack.pop()
            if v not in seen:
                seen.add(v)
                stack.extend(self.out[agent][v])
        return seen

    def ancestors(self, agent: str) -> dict[str, set[str]]:
        """u -> {u} plus every item with a path to u."""
        up = {v: {v} for v in self.items[agent]}
        for p in self.items[agent]:
            for u in self.covered(agent, [p]):
                up[u].add(p)
        return up


def optimum(text: str, objective: str) -> int:
    """Optimal objective value of the instance, by 0/1 ILP."""
    g = Graphs.parse(text)
    agents = sorted(g.items)
    var: dict[tuple[str, str, str], int] = {}
    for a in agents:
        for u in g.items[a]:
            var[("x", a, u)] = len(var)
            var[("c", a, u)] = len(var)
    z = len(var)
    nvars = z + (objective == "max")
    rows, cols, vals, ub = [], [], [], []

    def row(entries, bound):
        r = len(ub)
        for col, coef in entries:
            rows.append(r)
            cols.append(col)
            vals.append(coef)
        ub.append(bound)

    holders: dict[str, list[int]] = {}
    for a in agents:
        for u in g.items[a]:
            holders.setdefault(u, []).append(var[("x", a, u)])
    for cols_u in holders.values():
        row([(c, 1.0) for c in cols_u], 1.0)
    for a in agents:
        for u, up in g.ancestors(a).items():
            row([(var[("c", a, u)], 1.0)] + [(var[("x", a, p)], -1.0) for p in up], 0.0)
    cost = np.zeros(nvars)
    if objective == "sum":
        for a in agents:
            for u in g.items[a]:
                cost[var[("c", a, u)]] = -1.0
        offset = sum(len(g.items[a]) for a in agents)
    else:
        cost[z] = 1.0
        for a in agents:
            row([(var[("c", a, u)], -1.0) for u in g.items[a]] + [(z, -1.0)], -len(g.items[a]))
        offset = 0
    matrix = coo_array((vals, (rows, cols)), shape=(len(ub), nvars)).tocsr()
    integrality = np.ones(nvars)
    upper = np.ones(nvars)
    if objective == "max":
        integrality[z] = 0
        upper[z] = np.inf
    res = milp(
        cost,
        constraints=LinearConstraint(matrix, -np.inf, np.array(ub)),
        integrality=integrality,
        bounds=Bounds(np.zeros(nvars), upper),
    )
    if not res.success:
        raise RuntimeError(f"reference ILP failed: {res.message}")
    value = offset + res.fun
    if abs(value - round(value)) > 1e-6:
        raise RuntimeError(f"reference ILP returned a fractional optimum {value}")
    return int(round(value))


def formula_holds(dimacs: str, model: list) -> bool:
    """Whether the 0/1 assignment satisfies the DIMACS formula."""
    lits = [int(t) for line in dimacs.splitlines()[1:] for t in line.split()]
    clauses, cur = [], []
    for lit in lits:
        if lit == 0:
            clauses.append(cur)
            cur = []
        else:
            cur.append(lit)
    return all(any(bool(model[abs(lit) - 1]) == (lit > 0) for lit in c) for c in clauses)


def witness_problems(text: str, response: dict) -> tuple[list[str], dict[str, int]]:
    """Validation problems of the response's allocation, and its profile."""
    g = Graphs.parse(text)
    problems = []
    owner: dict[str, str] = {}
    alloc = response["allocation"]
    for a, bundle in alloc.items():
        if a not in g.items:
            problems.append(f"unknown agent {a!r}")
            continue
        for v in bundle:
            if v not in g.out[a]:
                problems.append(f"agent {a!r} holds undesired item {v!r}")
            if v in owner:
                problems.append(f"item {v!r} given to {owner[v]!r} and {a!r}")
            owner[v] = a
    if problems:
        return problems, {}
    prof = {
        a: len(g.items[a]) - len(g.covered(a, alloc.get(a, []))) for a in g.items
    }
    return problems, prof
