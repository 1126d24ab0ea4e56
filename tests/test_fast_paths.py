"""The fast paths against their references.

`fintop.set_key` ranks the points once per sort; `oracles.ckey_set_key`
recomputes the recursive `ckey` of every point of every set.
`grpd.subgroupoid_closure` indexes the closed arrows by source and
target; `oracles.subgroupoid_closure_oracle` is the naive fixpoint.
"""

import random

import pytest

import oracles
from corpus import groupoid_corpus
from test_acceptance import SEED
from topogrpd import fintop, grpd, sheaf
from topogrpd.fintop import FinSpace


def random_id(rng, depth=2):
    """A point id of the kinds the package builds: ints, strings, tuples
    and frozensets, nested like sheaf total-space points."""
    kind = rng.randrange(5 if depth else 2)
    if kind == 0:
        return rng.randrange(-3, 12)
    if kind == 1:
        return rng.choice(["a", "b", "c0o0_0", "c2o2_1", "M1", ""])
    if kind == 2:
        return tuple(random_id(rng, depth - 1) for _ in range(rng.randrange(4)))
    if kind == 3:
        return frozenset(random_id(rng, depth - 1) for _ in range(rng.randrange(4)))
    # (object, orbit class), the shape of a pulled-back generator's points
    x = random_id(rng, 0)
    return (x, frozenset((x, random_id(rng, 0), i) for i in range(rng.randrange(1, 3))))


@pytest.fixture(scope="module")
def corpus():
    return groupoid_corpus(random.Random(SEED), 500)


def test_set_key_orders_as_the_recursive_key():
    rng = random.Random(41)
    spaces = 0
    for _ in range(300):
        points = list({random_id(rng) for _ in range(rng.randrange(1, 7))})
        subsets = [frozenset(x for x in points if rng.random() < 0.5) for _ in range(30)]
        assert sorted(subsets, key=fintop.set_key(points)) == sorted(
            subsets, key=oracles.ckey_set_key
        )
        space = fintop.generate_topology(points, subsets[:3])
        opens = space.opens()
        assert list(opens) == sorted(opens, key=oracles.ckey_set_key)
        spaces += len(opens) > 2
    assert spaces > 100


def test_opens_ranks_points_once(monkeypatch):
    calls = 0
    ckey = fintop.ckey

    def counting(x):
        nonlocal calls
        calls += 1
        return ckey(x)

    monkeypatch.setattr(fintop, "ckey", counting)
    assert len(FinSpace.discrete(range(10)).opens()) == 1024
    assert calls <= 3 * 10


def test_corpus_orders_match_the_recursive_key(corpus):
    lattices = 0
    for g in corpus:
        for space in (g.objects, g.arrows):
            opens = space.opens()
            assert list(opens) == sorted(opens, key=oracles.ckey_set_key)
        for enumerate_family in (grpd.enumerate_open_subgroupoids, grpd.enumerate_subgroupoids):
            family = [u.arrow_set for u in enumerate_family(g)]
            assert family == sorted(family, key=oracles.ckey_set_key)
        for u in grpd.enumerate_open_subgroupoids(g):
            elements = sheaf.subobject_lattice(sheaf.moerdijk_generator(g, u)).elements
            assert list(elements) == sorted(elements, key=oracles.ckey_set_key)
            lattices += len(elements) > 2
    assert lattices > 1000


def test_closure_matches_naive_fixpoint(corpus):
    rng = random.Random(43)
    grown = 0
    for g in corpus:
        arrows = fintop.sorted_points(g.arrows.points)
        seeds = [{a} for a in arrows] + [g.arrows.min_open(a) for a in arrows]
        seeds += [{a for a in arrows if rng.random() < 0.3} for _ in range(5)]
        for s in seeds:
            closed = grpd.subgroupoid_closure(g, s)
            assert closed == oracles.subgroupoid_closure_oracle(g, s)
            grown += closed != frozenset(s)
    assert grown > 1000
