import random

import pytest

import oracles
from corpus import (
    SMALL_GROUPS, enumerate_subgroupoids, group_groupoid, identity_subgroupoid,
    random_discrete_groupoid, terminal_sheaf,
)
from test_grpd import S3, Z2, iso_pair
from topogrpd import fintop, grpd, sheaf, weq
from topogrpd.errors import CapExceeded, InputError
from topogrpd.fintop import FinSpace
from topogrpd.grpd import Subgroupoid


def s3_subgroup():
    return Subgroupoid(S3, grpd.subgroupoid_closure(S3, {(1, 0, 2)}))


def test_validate_terminal_sheaf():
    assert sheaf.validate_sheaf(terminal_sheaf(S3)) == []
    assert sheaf.validate_sheaf(terminal_sheaf(iso_pair())) == []


def test_validate_detects_unit_violation():
    tot = FinSpace.discrete({"u", "v"})
    act = {(0, "u"): "u", (0, "v"): "v", (1, "u"): "v", (1, "v"): "u"}
    good = sheaf.EquivariantSheaf(Z2, tot, {p: "*" for p in ("u", "v")}, act)
    assert sheaf.validate_sheaf(good) == []
    act_bad = dict(act)
    act_bad[(0, "u")] = "v"
    bad = sheaf.EquivariantSheaf(Z2, tot, {p: "*" for p in ("u", "v")}, act_bad)
    assert any("unit law fails" in d for d in sheaf.validate_sheaf(bad))


def test_validate_names_the_least_failing_composition():
    # Z3 acting on {u, v, w} with 1 swapping u and v, and 0 and 2 fixing
    # every point: six triples fail, the ckey-least being 1 . (2 . u)
    z3 = group_groupoid(range(3), SMALL_GROUPS["Z3"])
    tot = FinSpace.discrete({"u", "v", "w"})
    act = {(g, y): y for g in (0, 2) for y in ("u", "v", "w")}
    act.update({(1, "u"): "v", (1, "v"): "u", (1, "w"): "w"})
    s = sheaf.EquivariantSheaf(z3, tot, {p: "*" for p in ("u", "v", "w")}, act)
    assert sheaf.validate_sheaf(s) == ["composition law fails at (1,2,u)"]


def test_validate_stops_at_a_failing_projection_law():
    # f : a -> b and g : b -> a both send p, over a, to p: the action leaves
    # the fibre over the target, and no composite of it is looked up
    tot = FinSpace.discrete({"p", "q"})
    act = {("ia", "p"): "p", ("ib", "q"): "q", ("f", "p"): "p", ("g", "q"): "p"}
    s = sheaf.EquivariantSheaf(iso_pair(), tot, {"p": "a", "q": "b"}, act)
    assert sheaf.validate_sheaf(s) == ["projection law fails at (f,p)"]


class CountingMap(dict):
    """A point map that counts its reads."""

    reads = 0

    def __getitem__(self, x):
        self.reads += 1
        return super().__getitem__(x)

    def get(self, x, default=None):
        self.reads += 1
        return super().get(x, default)


def test_sheaf_constructions_read_each_source_a_bounded_number_of_times():
    # 40 objects, 40 arrows: a scan of every arrow for every point reads
    # the source map about 40 * 40 times per construction
    g = grpd.space_groupoid(FinSpace.discrete(range(40)))
    g.src.mapping = src = CountingMap(g.src.mapping)
    gen = sheaf.moerdijk_generator(g, grpd.whole_subgroupoid(g))
    pulled = sheaf.inverse_image(grpd.identity_functor(g), gen)
    for s in (gen, pulled):
        assert sheaf.validate_sheaf(s) == []
        # the action keeps the total space
        assert {s.action[(a, y)] for y in s.total.points
                for a in s.base.out_of[s.proj.mapping[y]]} <= s.total.points
    assert len(gen.total) == len(pulled.total) == 40
    assert src.reads <= 3 * (len(g.arrows) + len(gen.total) + len(pulled.total))


def test_moerdijk_coset_sheaf():
    h = s3_subgroup()
    gen = sheaf.moerdijk_generator(S3, h)
    assert sheaf.validate_sheaf(gen) == []
    assert len(gen.total) == 3  # [S3 : <(12)>]
    mult = SMALL_GROUPS["S3"]
    cosets = {
        frozenset(mult[(g, x)] for x in h.arrow_set) for g in S3.arrows.points
    }
    assert {frozenset(c) for c in gen.total.points} == cosets
    # transitive left action: a single orbit
    assert len(sheaf.subobject_lattice(gen)) == 2


def test_moerdijk_trivial_subgroupoid():
    gen = sheaf.moerdijk_generator(S3, identity_subgroupoid(S3))
    assert len(gen.total) == len(S3.arrows.points)
    assert sheaf.validate_sheaf(gen) == []
    # projection is the target map through singleton classes
    for c in gen.total.points:
        (a,) = tuple(c)
        assert gen.proj.mapping[c] == S3.tgt.mapping[a]


def test_moerdijk_whole_groupoid():
    gen = sheaf.moerdijk_generator(S3, grpd.whole_subgroupoid(S3))
    assert len(gen.total) == 1
    assert sheaf.validate_sheaf(gen) == []
    g = iso_pair()
    gen2 = sheaf.moerdijk_generator(g, grpd.whole_subgroupoid(g))
    # classes are the target fibers: one per object, projection bijective
    assert len(gen2.total) == len(g.objects.points)
    assert set(gen2.proj.mapping.values()) == g.objects.points
    assert sheaf.validate_sheaf(gen2) == []


def test_moerdijk_rejects_non_open():
    g = grpd.space_groupoid(FinSpace.sierpinski())
    closed_point = Subgroupoid(g, frozenset({0}))
    with pytest.raises(InputError):
        sheaf.moerdijk_generator(g, closed_point)


def test_inverse_image_identity():
    h = s3_subgroup()
    gen = sheaf.moerdijk_generator(S3, h)
    pb = sheaf.inverse_image(grpd.identity_functor(S3), gen)
    assert sheaf.validate_sheaf(pb) == []
    assert len(pb.total) == len(gen.total)
    # canonical bijection (x, w) -> w respects projection and action
    for (x, w) in pb.total.points:
        assert pb.proj.mapping[(x, w)] == gen.proj.mapping[w] == x


def test_inverse_image_of_generator_is_restricted_biorbit_space():
    g = iso_pair()
    y = grpd.full_subgroupoid_on(g, {"a"})
    u = identity_subgroupoid(g)
    gen = sheaf.moerdijk_generator(g, u)
    pb = sheaf.inverse_image(y.inclusion_functor(), gen)
    assert sheaf.validate_sheaf(pb) == []
    # underlying space: classes of arrows sourced anywhere, targeted in {a}
    targets_in_y = {
        c for c in gen.total.points if g.tgt.mapping[next(iter(c))] == "a"
    }
    assert {w for (_, w) in pb.total.points} == targets_in_y


def test_inverse_image_constant_functor_cardinality():
    h = s3_subgroup()
    gen = sheaf.moerdijk_generator(S3, h)  # 3 cosets
    g = iso_pair()
    const = grpd.ContinuousFunctor(
        g, S3,
        {"a": "*", "b": "*"},
        {x: (0, 1, 2) for x in g.arrows.points},
    )
    pb = sheaf.inverse_image(const, gen)
    assert len(pb.total) == len(g.objects.points) * 3
    assert sheaf.validate_sheaf(pb) == []


def test_inverse_image_functoriality():
    h = s3_subgroup()
    gen = sheaf.moerdijk_generator(S3, h)
    idf = grpd.identity_functor(S3)
    once = sheaf.inverse_image(idf, gen)
    twice = sheaf.inverse_image(idf, once)
    composite = sheaf.inverse_image(grpd.compose_functors(idf, idf), gen)
    # canonical bijection (x, (x, w)) <-> (x, w)
    flat = {(x, w) for (x, (_, w)) in twice.total.points}
    assert flat == set(composite.total.points)


def test_subobject_lattice_examples():
    # terminal sheaf on a categorically discrete groupoid: lattice = opens
    s = FinSpace.sierpinski()
    g = grpd.space_groupoid(s)
    lat = sheaf.subobject_lattice(terminal_sheaf(g))
    assert set(lat.elements) == set(s.opens())
    # disjoint union of two orbits: boolean algebra on 2 orbits
    tot = FinSpace.discrete({"u", "v", "w", "x"})
    act = {(0, p): p for p in tot.points}
    act.update({(1, "u"): "v", (1, "v"): "u", (1, "w"): "x", (1, "x"): "w"})
    two_orbits = sheaf.EquivariantSheaf(Z2, tot, {p: "*" for p in tot.points}, act)
    lat = sheaf.subobject_lattice(two_orbits)
    assert len(lat) == 4
    # listed in canonical order, and equal on every call
    assert list(lat.elements) == sorted(lat.elements, key=oracles.ckey_set_key)
    assert sheaf.subobject_lattice(two_orbits) == lat


def restriction_and_reference(y, u):
    """The lattice-listing reference restriction, checked to answer as
    `sheaf.subobject_restriction` does."""
    ref = oracles.subobject_restriction_oracle(y, u)
    r = sheaf.subobject_restriction(y, u)
    assert (r.injective, r.surjective) == (ref.is_injective(), ref.is_surjective())
    return ref


def test_subobject_restriction_examples():
    g = iso_pair()
    u = identity_subgroupoid(g)
    # ambient into itself: identity map of lattices
    r0 = restriction_and_reference(grpd.whole_subgroupoid(g), u)
    assert r0.is_bijective()
    def decode(mask, points):
        return {p for i, p in enumerate(points) if mask >> i & 1}

    for w, v in r0.mapping:
        assert {p[1] for p in decode(v, r0.small.points)} == decode(w, r0.big.points)
    # one endpoint of the iso pair: bijection (4-element lattices: two
    # action orbits upstairs and downstairs)
    y = grpd.full_subgroupoid_on(g, {"a"})
    r = restriction_and_reference(y, u)
    assert len(r.big) == 4 and len(r.small) == 4
    assert r.is_bijective()
    # two non-isomorphic discrete objects: surjective but not injective
    two = grpd.space_groupoid(FinSpace.discrete({"p", "q"}))
    r2 = restriction_and_reference(
        grpd.full_subgroupoid_on(two, {"p"}), identity_subgroupoid(two)
    )
    assert not r2.is_injective() and r2.is_surjective()
    with pytest.raises(InputError, match="subgroupoids of different groupoids"):
        sheaf.subobject_restriction(grpd.whole_subgroupoid(two), u)


def _discrete3():
    return grpd.space_groupoid(FinSpace.discrete({0, 1, 2}))


def _generator():
    g = _discrete3()
    return sheaf.moerdijk_generator(g, grpd.whole_subgroupoid(g))


def _on_point_0(condition):
    """condition(inclusion of point 0, whole groupoid) on a discrete groupoid."""
    return lambda g: condition(Subgroupoid(g, {0}), grpd.whole_subgroupoid(g))


# name -> (fresh object, call taking the limit as a keyword, that keyword);
# each object exceeds a limit of 4 and fits the default one, except the
# per-pair conditions, which list no lattice and take no limit
WARM_COLD_CASES = {
    "opens": (lambda: FinSpace.discrete({0, 1, 2}), FinSpace.opens, "cap"),
    "open_subgroupoids": (_discrete3, grpd.enumerate_open_subgroupoids, "cap"),
    "subobject_lattice": (_generator, sheaf.subobject_lattice, "cap"),
    "subobject_restriction": (_discrete3, _on_point_0(sheaf.subobject_restriction), None),
    "skula_witness": (_discrete3, _on_point_0(weq.skula_witness), None),
    "source_determined_witness": (_discrete3, _on_point_0(weq.source_determined_witness), None),
}
# the cold value of each case without a limit: one of three discrete points
# is reached from no other, so the restriction is not injective
COLD_VALUES = {
    "subobject_restriction": (False, True),
    "skula_witness": {"kind": "skula-dense-orbits", "object": "1", "W": ["0", "2"],
                      "W_prime": ["1"]},
    "source_determined_witness": None,
}


def _limit_error(call):
    try:
        call()
    except CapExceeded as e:
        return type(e), str(e)
    return None


@pytest.mark.parametrize("case", list(WARM_COLD_CASES))
def test_warm_read_under_smaller_limit_behaves_like_cold_call(case):
    """A memo filled under the default limit answers a call with a
    smaller limit exactly as a cold call does: with the same error.  A
    memo with no limit answers as a cold call on a fresh object does."""
    make, call, keyword = WARM_COLD_CASES[case]
    if keyword is None:
        warm = make()
        first = call(warm)
        again = call(warm)
        # a witness is read as the caller's own copy of the memo
        assert again is first or (isinstance(first, dict) and again == first)
        assert first == call(make()) == COLD_VALUES[case]
        return
    cold = _limit_error(lambda: call(make(), **{keyword: 4}))
    assert cold is not None
    warm = make()
    call(warm)
    assert _limit_error(lambda: call(warm, **{keyword: 4})) == cold
    call(warm)


def test_master_cross_check_restriction_vs_iota():
    """Bijectivity of the subobject restriction coincides with the
    comparison map being a quasi-homeomorphism, on a random corpus."""
    rng = random.Random(53)
    for _ in range(10):
        g = random_discrete_groupoid(rng, max_arrows=10)
        subs = enumerate_subgroupoids(g, cap=512)
        opens = grpd.enumerate_open_subgroupoids(g, cap=512)
        for y in subs[: 8]:
            for u in opens[: 8]:
                lhs = sheaf.subobject_restriction(y, u).is_bijective()
                rhs = fintop.is_quasi_homeomorphism(*grpd.iota_map(y, u))
                assert lhs == rhs


def test_all_constructed_sheaves_validate():
    rng = random.Random(59)
    for _ in range(8):
        g = random_discrete_groupoid(rng, max_arrows=10)
        for u in grpd.enumerate_open_subgroupoids(g, cap=512)[:6]:
            gen = sheaf.moerdijk_generator(g, u)
            assert sheaf.validate_sheaf(gen) == []
            subs = enumerate_subgroupoids(g, cap=512)
            y = rng.choice(subs)
            pb = sheaf.inverse_image(y.inclusion_functor(), gen)
            assert sheaf.validate_sheaf(pb) == []
