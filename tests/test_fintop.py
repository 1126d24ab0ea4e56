import random

import pytest

import oracles
from corpus import random_space
from topogrpd import fintop
from topogrpd.errors import CapExceeded, InputError
from topogrpd.fintop import ContinuousMap, FinSpace

SIER = FinSpace.sierpinski()


def test_generate_topology_sierpinski():
    sp = fintop.generate_topology({0, 1}, [{1}])
    assert sp.opens() == (frozenset(), frozenset({1}), frozenset({0, 1}))


def test_generate_topology_single_point():
    sp = fintop.generate_topology({"a"}, [])
    assert sp.opens() == (frozenset(), frozenset({"a"}))


def test_generate_topology_saturates_intersections():
    sp = fintop.generate_topology({0, 1, 2}, [{0, 1}, {1, 2}])
    assert frozenset({1}) in sp.opens()
    # saturated by hand: {}, {1}, {0,1}, {1,2}, {0,1,2}
    assert len(sp.opens()) == 5


def test_generate_topology_rejects_bad_subbasis():
    with pytest.raises(InputError):
        fintop.generate_topology({0}, [{0, 1}])


def test_generate_topology_idempotent_and_monotone():
    rng = random.Random(7)
    for _ in range(40):
        points = set(range(rng.randint(0, 5)))
        fam1 = [
            {p for p in points if rng.random() < 0.5}
            for _ in range(rng.randint(0, 3))
        ]
        fam2 = fam1 + [{p for p in points if rng.random() < 0.5}]
        sp1 = fintop.generate_topology(points, fam1)
        sp2 = fintop.generate_topology(points, fam2)
        assert fintop.generate_topology(points, sp1.opens()) == sp1
        assert set(sp1.opens()) <= set(sp2.opens())


def test_generate_topology_matches_saturation_oracle():
    rng = random.Random(11)
    for _ in range(30):
        points = set(range(rng.randint(0, 4)))
        fam = [
            {p for p in points if rng.random() < 0.5}
            for _ in range(rng.randint(0, 3))
        ]
        assert fintop.generate_topology(points, fam) == oracles.generated_topology_oracle(
            points, fam
        )


def test_from_opens_validates():
    FinSpace.from_opens({0, 1}, [set(), {1}, {0, 1}])
    with pytest.raises(InputError):
        FinSpace.from_opens({0, 1}, [{1}, {0, 1}])  # missing empty set
    with pytest.raises(InputError):
        FinSpace.from_opens({0, 1, 2}, [set(), {0}, {1}, {0, 1, 2}])  # no union


def test_open_cap():
    big = FinSpace.discrete(range(24))
    with pytest.raises(CapExceeded):
        big.opens(cap=4096)
    assert big.open_count(limit=10) == 10


def test_is_t0():
    assert fintop.is_t0(SIER)
    assert not fintop.is_t0(FinSpace.indiscrete({0, 1}))
    assert fintop.is_t0(FinSpace.discrete(range(5)))
    assert fintop.is_t0(FinSpace.discrete(set()))


def test_is_sober_examples():
    assert fintop.is_sober(SIER)
    assert not fintop.is_sober(FinSpace.indiscrete({0, 1}))
    assert fintop.is_sober(FinSpace.discrete(set()))


def test_sober_iff_t0_on_random_spaces_vs_oracle():
    rng = random.Random(3)
    for _ in range(60):
        sp = random_space(rng)
        assert fintop.is_sober(sp) == oracles.sober_oracle(sp)
        if fintop.is_t0(sp):
            assert fintop.is_sober(sp)


def test_skula_space_examples():
    assert fintop.skula_space(SIER) == FinSpace.discrete({0, 1})
    d = FinSpace.discrete(range(3))
    assert fintop.skula_space(d) == d


def test_skula_space_discrete_for_t0_and_matches_oracle():
    rng = random.Random(5)
    for _ in range(50):
        sp = random_space(rng)
        sk = fintop.skula_space(sp)
        assert sk == oracles.skula_space_oracle(sp)
        if fintop.is_t0(sp):
            assert sk == FinSpace.discrete(sp.points)


def test_is_skula_dense_examples():
    assert fintop.is_skula_dense({0, 1}, SIER)
    assert not fintop.is_skula_dense({1}, SIER)
    assert not fintop.is_skula_dense(set(), FinSpace.discrete({0}))


def test_quasi_homeomorphism_examples():
    assert fintop.is_quasi_homeomorphism(fintop.identity_map(SIER))
    assert not fintop.is_quasi_homeomorphism(fintop.inclusion_map({1}, SIER))
    f = ContinuousMap(FinSpace.discrete({0, 1}), SIER, {0: 0, 1: 1})
    assert not fintop.is_quasi_homeomorphism(f)


def test_skula_dense_iff_inclusion_quasi_homeo():
    rng = random.Random(9)
    for _ in range(60):
        sp = random_space(rng)
        for _ in range(3):
            sub = frozenset(p for p in sp.points if rng.random() < 0.5)
            lhs = fintop.is_skula_dense(sub, sp)
            assert lhs == fintop.is_quasi_homeomorphism(fintop.inclusion_map(sub, sp))
            assert lhs == oracles.skula_dense_oracle(sub, sp)


def test_quasi_homeo_matches_open_family_oracle():
    rng = random.Random(13)
    for _ in range(60):
        dom, cod = random_space(rng), random_space(rng)
        if not cod.points and dom.points:
            continue
        for _ in range(3):
            mapping = {
                x: rng.choice(sorted(cod.points)) if cod.points else None
                for x in dom.points
            }
            if None in mapping.values():
                continue
            f = ContinuousMap(dom, cod, mapping, check=False)
            if not f.is_continuous():
                continue
            assert fintop.is_quasi_homeomorphism(f) == oracles.quasi_homeo_oracle(f)


def test_local_homeomorphism_examples():
    one = FinSpace.discrete({"*"})
    assert fintop.is_local_homeomorphism(fintop.identity_map(SIER))
    cov = ContinuousMap(FinSpace.discrete({0, 1}), one, {0: "*", 1: "*"})
    assert fintop.is_local_homeomorphism(cov)
    const = ContinuousMap(SIER, one, {0: "*", 1: "*"})
    assert not fintop.is_local_homeomorphism(const)


def test_local_homeo_matches_exhaustive_oracle():
    rng = random.Random(17)
    for _ in range(60):
        dom, cod = random_space(rng), random_space(rng)
        if not cod.points and dom.points:
            continue
        for _ in range(3):
            if dom.points and not cod.points:
                continue
            mapping = {x: rng.choice(sorted(cod.points)) for x in dom.points}
            f = ContinuousMap(dom, cod, mapping, check=False)
            if not f.is_continuous():
                continue
            assert fintop.is_local_homeomorphism(f) == oracles.local_homeo_oracle(f)


def test_continuity_validation():
    with pytest.raises(InputError):
        ContinuousMap(SIER, FinSpace.discrete({0, 1}), {0: 0, 1: 1})
    with pytest.raises(InputError):
        ContinuousMap(SIER, SIER, {0: 0})  # not total


def test_quotient_space_topology():
    # collapsing sierpinski to a point: indiscrete singleton
    q, qm = fintop.quotient_by_relation(SIER, [(0, 1)])
    assert len(q) == 1 and qm.is_continuous()
    # identity partition returns a homeomorphic copy
    q2, qm2 = fintop.quotient_space(SIER, [{0}, {1}])
    assert len(q2.opens()) == 3
    # saturated-open law: preimages of opens are exactly the saturated opens
    rng = random.Random(21)
    for _ in range(30):
        sp = random_space(rng)
        if not sp.points:
            continue
        pts = sorted(sp.points)
        blocks = {}
        for p in pts:
            blocks.setdefault(rng.randint(0, 2), set()).add(p)
        q3, qm3 = fintop.quotient_space(sp, blocks.values())
        assert qm3.is_continuous()
        for o in q3.opens():
            assert sp.is_open(qm3.preimage(o))


def test_partition():
    blocks = fintop.partition(range(6), [(0, 1), (2, 1), (3, 2), (4, 5)])
    assert sorted(map(sorted, blocks)) == [[0, 1, 2, 3], [4, 5]]
    # points no pair touches stay singletons
    assert sorted(map(sorted, fintop.partition(range(4), [(1, 2)]))) == [[0], [1, 2], [3]]
    assert sorted(map(sorted, fintop.partition(range(3), []))) == [[0], [1], [2]]


def test_fiber_product_and_subspace_are_continuous():
    rng = random.Random(23)
    for _ in range(20):
        sp = random_space(rng)
        if not sp.points:
            continue
        f = fintop.identity_map(sp)
        p, pr1, pr2 = fintop.fiber_product(f, f)
        assert pr1.is_continuous() and pr2.is_continuous()
        assert len(p) == len(sp)
        sub = frozenset(x for x in sp.points if rng.random() < 0.5)
        incl = fintop.inclusion_map(sub, sp)
        assert incl.is_continuous()


def test_validator_on_operation_outputs():
    rng = random.Random(27)
    for _ in range(25):
        sp = random_space(rng)
        assert fintop.validate_space(sp) == []
        assert fintop.validate_space(fintop.skula_space(sp)) == []
        sub = frozenset(x for x in sp.points if rng.random() < 0.5)
        assert fintop.validate_space(sp.subspace(sub)) == []


def test_is_open_map():
    assert fintop.is_open_map(fintop.identity_map(SIER))
    # inclusion of the closed point is not open
    assert not fintop.is_open_map(fintop.inclusion_map({0}, SIER))
    assert fintop.is_open_map(fintop.inclusion_map({1}, SIER))
