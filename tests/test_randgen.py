"""Seeded random instance builders."""

import hashlib
import random

import pytest

from prefalloc import classify, randgen
from prefalloc.core import GraphClass, PreconditionError, SizeGuardError, serialize_instance

from conftest import reparsed

CHECKS = {
    "matching": GraphClass.DIRECTED_MATCHING,
    "path": GraphClass.PATH,
    "disjoint-paths": GraphClass.DISJOINT_PATHS,
    "out-star": GraphClass.OUT_STAR,
    "out-tree": GraphClass.OUT_TREE,
    "union-out-stars": GraphClass.UNION_OUT_STARS,
}


@pytest.mark.parametrize("shape", randgen.SHAPES)
@pytest.mark.parametrize("seed", range(15))
def test_shapes_pass_their_class_check(shape, seed):
    rng = random.Random(seed)
    inst = randgen.random_instance(rng, shape, rng.randint(2, 10), rng.randint(1, 4))
    assert 1 <= inst.num_agents <= 4
    assert inst.num_items >= 1
    for a in inst.agents:
        g = inst.graphs[a]
        assert g.items
        if shape in CHECKS:
            assert CHECKS[shape] in g.classes, f"{shape} builder broke its own class"


@pytest.mark.parametrize("shape", randgen.SHAPES)
@pytest.mark.parametrize("seed", range(4))
def test_random_instances_round_trip(shape, seed):
    rng = random.Random(seed)
    inst = randgen.random_instance(rng, shape, rng.randint(2, 10), rng.randint(1, 4))
    assert reparsed(inst) == inst


@pytest.mark.parametrize("seed", range(4))
def test_junction_bounded_instances_round_trip(seed):
    rng = random.Random(seed)
    inst = randgen.junction_bounded_instance(rng, rng.randint(3, 9), rng.randint(1, 3), 3)
    assert reparsed(inst) == inst


def test_same_seed_same_instance():
    one = randgen.random_instance(random.Random(42), "dag", 8, 3)
    two = randgen.random_instance(random.Random(42), "dag", 8, 3)
    assert one == two


def test_different_seeds_usually_differ():
    draws = {
        serialize_instance(randgen.random_instance(random.Random(s), "dag", 8, 3))
        for s in range(10)
    }
    assert len(draws) > 1


def test_unknown_shape_rejected():
    with pytest.raises(PreconditionError):
        randgen.random_instance(random.Random(0), "torus", 5, 2)


def test_tiny_sizes_rejected():
    with pytest.raises(PreconditionError):
        randgen.random_instance(random.Random(0), "path", 1, 2)
    with pytest.raises(PreconditionError):
        randgen.random_instance(random.Random(0), "path", 5, 0)


@pytest.mark.parametrize("items, agents", [(92682, 1), (65537, 2)])
def test_sizes_past_the_reach_budget_rejected_before_drawing(items, agents):
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(SizeGuardError):
        randgen.random_instance(rng, "path", items, agents)
    with pytest.raises(SizeGuardError):
        randgen.junction_bounded_instance(rng, items, agents, 3)
    assert rng.getstate() == state


@pytest.mark.parametrize("seed", range(30))
def test_junction_bounded_respects_budget(seed):
    rng = random.Random(seed)
    cap = rng.randint(0, 4)
    inst = randgen.junction_bounded_instance(
        rng, rng.randint(3, 9), rng.randint(1, 3), max_junctions=cap
    )
    assert classify.junction_count(inst) <= cap


def test_junction_bounded_reaches_positive_gamma():
    hits = 0
    for seed in range(40):
        rng = random.Random(seed)
        inst = randgen.junction_bounded_instance(rng, 8, 2, max_junctions=3)
        if classify.junction_count(inst) > 0:
            hits += 1
    assert hits > 5


# sha256 over `serialize_instance` of 200 `junction_bounded_instance` draws
# that share one generator, so a change in how many numbers a draw takes
# shows too.  337 of their extra arcs find no target.  Taken while the
# generator still built a graph per agent to read each draw back.
JUNCTION_DRAWS_DIGEST = "9b5a8404819370a7b567eca90bda15b150fc299646fcf00c374675f4519b4361"


def test_junction_bounded_draws_are_pinned():
    rng = random.Random(29)
    digest = hashlib.sha256()
    for _ in range(200):
        items, agents, budget = rng.randint(2, 12), rng.randint(1, 6), rng.randint(0, 12)
        inst = randgen.junction_bounded_instance(rng, items, agents, budget)
        digest.update(serialize_instance(inst).encode())
    assert digest.hexdigest() == JUNCTION_DRAWS_DIGEST
