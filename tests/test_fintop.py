import random
import time
from collections import Counter, deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from corpus import identity_map, random_space
from topogrpd import fintop
from topogrpd.errors import CapExceeded, InputError
from topogrpd.fintop import ContinuousMap, FinSpace

SIER = FinSpace.sierpinski()
INDISCRETE = FinSpace({0, 1}, {0: {0, 1}, 1: {0, 1}})


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


def test_a_given_order_lists_each_point_once():
    sp = fintop.generate_topology({0, 1, 2}, [{1}], order=(2, 0, 1))
    assert sp.order() == (2, 0, 1)
    assert sp.rank() == {2: 0, 0: 1, 1: 2}
    for order in ((0, 1), (0, 1, 1), (0, 1, 3), (0, 1, 2, 2)):
        with pytest.raises(InputError, match="order does not list each point once"):
            fintop.generate_topology({0, 1, 2}, [{1}], order=order)


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


def _from_opens_outcome(build, points, fam):
    try:
        return build(points, fam)
    except InputError as e:
        return str(e).split(" under ")[0]  # which pair fails first is set order


def test_from_opens_accepts_and_rejects_as_the_pairwise_reference():
    """On topologies, on topologies less one open or plus one set, and on
    random families, the linear check answers as the pairwise reference
    does, with an equal space when both accept."""
    rng = random.Random(17)
    outcomes = Counter()
    for _ in range(600):
        space = random_space(rng, max_points=5)
        pts = sorted(space.points)
        fam = list(space.opens())
        extra = {p for p in pts if rng.random() < 0.5}
        fam = rng.choice([fam, fam[:1] + fam[2:] if len(fam) > 2 else fam, fam + [extra],
                          fam[:1] + fam[-1:] + [{p for p in pts if rng.random() < 0.5}
                                                for _ in range(rng.randint(0, 6))]])
        got = _from_opens_outcome(FinSpace.from_opens, pts, fam)
        assert got == _from_opens_outcome(oracles.from_opens_oracle, pts, fam)
        outcomes[got if isinstance(got, str) else "accepted"] += 1
    assert set(outcomes) == {"accepted", "opens not closed"}, outcomes
    assert min(outcomes.values()) >= 90, outcomes


def test_from_opens_reads_a_12_point_discrete_space_in_well_under_a_second():
    space = FinSpace.discrete(range(12))
    opens = space.opens()
    start = time.perf_counter()
    assert FinSpace.from_opens(space.points, opens) == space
    assert time.perf_counter() - start < 0.5


def test_open_cap():
    big = FinSpace.discrete(range(24))
    with pytest.raises(CapExceeded):
        big.opens(cap=4096)
    assert big.open_count(limit=10) == 10


def test_is_t0():
    assert fintop.is_t0(SIER)
    assert not fintop.is_t0(INDISCRETE)
    assert fintop.is_t0(FinSpace.discrete(range(5)))
    assert fintop.is_t0(FinSpace.discrete(set()))


def test_is_sober_examples():
    assert fintop.is_sober(SIER)
    assert not fintop.is_sober(INDISCRETE)
    assert fintop.is_sober(FinSpace.discrete(set()))


def test_sober_iff_t0_on_random_spaces_vs_oracle():
    rng = random.Random(3)
    for _ in range(60):
        sp = random_space(rng)
        assert fintop.is_sober(sp) == oracles.sober_oracle(sp)
        if fintop.is_t0(sp):
            assert fintop.is_sober(sp)


def test_skula_space_examples():
    assert oracles.skula_space(SIER) == FinSpace.discrete({0, 1})
    d = FinSpace.discrete(range(3))
    assert oracles.skula_space(d) == d


def test_skula_space_discrete_for_t0_and_matches_oracle():
    rng = random.Random(5)
    for _ in range(50):
        sp = random_space(rng)
        sk = oracles.skula_space(sp)
        assert sk == oracles.skula_space_oracle(sp)
        if fintop.is_t0(sp):
            assert sk == FinSpace.discrete(sp.points)


def test_is_skula_dense_examples():
    assert oracles.is_skula_dense({0, 1}, SIER)
    assert not oracles.is_skula_dense({1}, SIER)
    assert not oracles.is_skula_dense(set(), FinSpace.discrete({0}))


def is_quasi_homeomorphism(f: ContinuousMap) -> bool:
    """The mask test on a ContinuousMap, checked against the FinSpace reference."""
    got = fintop.is_quasi_homeomorphism(*oracles.as_masks(f))
    assert got == oracles.is_quasi_homeomorphism(f)
    return got


def test_quasi_homeomorphism_examples():
    assert is_quasi_homeomorphism(identity_map(SIER))
    assert not is_quasi_homeomorphism(ContinuousMap(SIER.subspace({1}), SIER, {1: 1}))
    f = ContinuousMap(FinSpace.discrete({0, 1}), SIER, {0: 0, 1: 1})
    assert not is_quasi_homeomorphism(f)
    # two indistinguishable points: hitting one of them is Skula dense
    assert is_quasi_homeomorphism(ContinuousMap(INDISCRETE.subspace({0}), INDISCRETE, {0: 0}))
    assert fintop.is_quasi_homeomorphism([], [], [])
    assert not fintop.is_quasi_homeomorphism([], [], [1])


def test_skula_dense_iff_inclusion_quasi_homeo():
    rng = random.Random(9)
    for _ in range(60):
        sp = random_space(rng)
        for _ in range(3):
            sub = frozenset(p for p in sp.points if rng.random() < 0.5)
            lhs = oracles.is_skula_dense(sub, sp)
            assert lhs == is_quasi_homeomorphism(ContinuousMap(sp.subspace(sub), sp, {x: x for x in sub}))
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
            f = ContinuousMap(dom, cod, mapping)
            if not f.is_continuous():
                continue
            assert is_quasi_homeomorphism(f) == oracles.quasi_homeo_oracle(f)


def test_local_homeomorphism_examples():
    one = FinSpace.discrete({"*"})
    assert fintop.is_local_homeomorphism(identity_map(SIER))
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
            f = ContinuousMap(dom, cod, mapping)
            if not f.is_continuous():
                continue
            assert fintop.is_local_homeomorphism(f) == oracles.local_homeo_oracle(f)


def test_continuity_validation():
    # the constructor checks totality and the codomain; is_continuous checks continuity
    assert not ContinuousMap(SIER, FinSpace.discrete({0, 1}), {0: 0, 1: 1}).is_continuous()
    assert ContinuousMap(FinSpace.discrete({0, 1}), SIER, {0: 0, 1: 1}).is_continuous()
    with pytest.raises(InputError):
        ContinuousMap(SIER, SIER, {0: 0})  # not total
    with pytest.raises(InputError):
        ContinuousMap(SIER, SIER, {0: 0, 1: 2})  # outside the codomain


def test_quotient_space_topology():
    # collapsing sierpinski to a point: indiscrete singleton
    assert fintop.quotient_space(SIER, {0: 0, 1: 0}, 1) == [0b1]
    # identity partition returns a homeomorphic copy: 1 is the open point
    assert fintop.quotient_space(SIER, {0: 0, 1: 1}, 2) == [0b11, 0b10]
    # the subspace on the closed point alone
    assert fintop.quotient_space(SIER, {0: 0}, 1) == [0b1]
    # the FinSpace quotient of the subspace, and its saturated-open law:
    # preimages of opens are opens of the subspace
    rng = random.Random(21)
    for _ in range(60):
        sp = random_space(rng, max_points=6)
        pts = [p for p in sorted(sp.points) if rng.random() < 0.8]
        cls = {p: rng.randint(0, 2) for p in pts}
        index = {i: k for k, i in enumerate(sorted(set(cls.values())))}
        cls = {p: index[i] for p, i in cls.items()}
        blocks = [frozenset(p for p in pts if cls[p] == k) for k in range(len(index))]
        mins = fintop.quotient_space(sp, cls, len(blocks))
        sub = sp.subspace(pts)
        q, qm = oracles.quotient_space(sub, blocks)
        assert qm.is_continuous()
        assert [q.min_open(b) for b in blocks] == [
            frozenset(blocks[j] for j in fintop.bits(m)) for m in mins]
        for o in q.opens():
            assert sub.is_open(frozenset(x for x, b in qm.mapping.items() if b in o))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_reach_is_a_breadth_first_search(data):
    """Each start's mask is what a breadth-first search reaches through
    the step table, also where the steps lead to indices that are not
    starts, or to starts whose masks are found earlier or later."""
    n = data.draw(st.integers(1, 12))
    step = data.draw(st.lists(st.integers(0, 2 ** n - 1), min_size=n, max_size=n))
    points = data.draw(st.lists(st.integers(0, n - 1), unique=True))

    def bfs(i):
        seen, todo = {i}, deque([i])
        while todo:
            for j in fintop.bits(step[todo.popleft()]):
                if j not in seen:
                    seen.add(j)
                    todo.append(j)
        return sum(1 << j for j in seen)

    assert fintop.reach(step, points) == [bfs(i) for i in points]


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
        f = identity_map(sp)
        p, pr1, pr2 = fintop.fiber_product(f, f)
        assert pr1.is_continuous() and pr2.is_continuous()
        assert len(p) == len(sp)
        sub = frozenset(x for x in sp.points if rng.random() < 0.5)
        incl = ContinuousMap(sp.subspace(sub), sp, {x: x for x in sub})
        assert incl.is_continuous()


def test_validator_on_operation_outputs():
    """Spaces built unchecked by the operations pass the checked constructor."""
    rng = random.Random(27)
    for _ in range(25):
        sp = random_space(rng)
        sub = frozenset(x for x in sp.points if rng.random() < 0.5)
        for out in (sp, oracles.skula_space(sp), sp.subspace(sub)):
            assert FinSpace(out.points, {x: out.min_open(x) for x in out.points}, _check=True) == out


def test_min_open_domain_must_be_the_point_set():
    with pytest.raises(InputError, match="domain differs"):
        FinSpace({0, 1}, {0: {0}})
    with pytest.raises(InputError, match="domain differs"):
        FinSpace({0}, {0: {0}, 5: {5}})


def test_is_open_map():
    assert fintop.is_open_map(identity_map(SIER))
    # inclusion of the closed point is not open
    assert not fintop.is_open_map(ContinuousMap(SIER.subspace({0}), SIER, {0: 0}))
    assert fintop.is_open_map(ContinuousMap(SIER.subspace({1}), SIER, {1: 1}))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), coarse=st.booleans())
def test_is_open_map_once_per_minimal_open_matches_the_per_point_check(seed, coarse):
    """Points that share a minimal open are checked once; the answer is
    the per-point check's, on random maps of random spaces, coarse ones
    (few subbasis sets, so many shared minimal opens) included."""
    rng = random.Random(seed)
    dom = random_space(rng, 6)
    if coarse:
        dom = fintop.generate_topology(dom.points, [{x for x in dom.points if rng.random() < 0.7}])
    cod = random_space(rng, 4)
    if not cod.points:
        cod = FinSpace.discrete([0])
    f = ContinuousMap(dom, cod, {x: rng.choice(sorted(cod.points)) for x in dom.points})
    assert fintop.is_open_map(f) == oracles.is_open_map_oracle(f)
