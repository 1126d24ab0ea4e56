import random

import pytest

import oracles
from corpus import (
    SMALL_GROUPS, graph_copies_doc, pair_groupoid, random_discrete_groupoid, rigid_graphs,
)
from topogrpd import fintop, grpd, jsonio
from topogrpd.errors import BistabilityError, BudgetExceeded, InputError
from topogrpd.fintop import FinSpace
from topogrpd.grpd import Subgroupoid


def iso_pair():
    """Two discrete objects joined by a single isomorphism pair."""
    objs = FinSpace.discrete({"a", "b"})
    arrows = FinSpace.discrete({"ia", "ib", "f", "g"})
    comp = {
        ("ia", "ia"): "ia", ("ib", "ib"): "ib",
        ("f", "ia"): "f", ("ib", "f"): "f",
        ("g", "ib"): "g", ("ia", "g"): "g",
        ("g", "f"): "ia", ("f", "g"): "ib",
    }
    return grpd.TopGroupoid(
        objs, arrows,
        {"ia": "a", "ib": "b", "f": "a", "g": "b"},
        {"ia": "a", "ib": "b", "f": "b", "g": "a"},
        {"a": "ia", "b": "ib"},
        {"ia": "ia", "ib": "ib", "f": "g", "g": "f"},
        comp,
    )


S3 = grpd.group_groupoid({a for (a, _) in SMALL_GROUPS["S3"]}, SMALL_GROUPS["S3"])
Z2 = grpd.group_groupoid({0, 1}, SMALL_GROUPS["Z2"])


def test_validate_groupoid_examples():
    assert grpd.validate_groupoid(Z2) == []
    assert grpd.validate_groupoid(grpd.space_groupoid(FinSpace.sierpinski())) == []
    assert grpd.validate_groupoid(iso_pair()) == []


def test_validate_detects_noncontinuous_inv():
    mult = SMALL_GROUPS["Z3"]
    arr = fintop.generate_topology({0, 1, 2}, [{1}])
    bad = grpd.group_groupoid(range(3), mult, arrow_space=arr)
    assert "inv not continuous" in grpd.validate_groupoid(bad)


def test_validate_detects_broken_axioms():
    g = iso_pair()
    comp = dict(g.comp)
    comp[("g", "f")] = "ib"  # wrong endpoints: g o f should be id_a
    broken = grpd.TopGroupoid(
        g.objects, g.arrows, g.src, g.tgt, g.unit, g.inv, comp
    )
    assert grpd.validate_groupoid(broken) != []


def test_open_subgroupoids_of_discrete_group_are_subgroups():
    subs = grpd.enumerate_open_subgroupoids(S3)
    got = {s.arrow_set for s in subs if s.arrow_set}
    want = oracles.subgroups_oracle(S3.arrows.points, SMALL_GROUPS["S3"])
    assert got == want
    assert frozenset() in {s.arrow_set for s in subs}


def test_open_subgroupoids_of_space_groupoid_are_open_subsets():
    g = grpd.space_groupoid(FinSpace.sierpinski())
    subs = grpd.enumerate_open_subgroupoids(g)
    assert {s.arrow_set for s in subs} == set(FinSpace.sierpinski().opens())


def test_open_subgroupoids_empty_groupoid():
    g = grpd.space_groupoid(FinSpace.discrete(set()))
    subs = grpd.enumerate_open_subgroupoids(g)
    assert len(subs) == 1 and subs[0].arrow_set == frozenset()


def test_each_distinct_minimal_neighbourhood_is_closed_once(monkeypatch):
    """The derived groupoid of 3 rigid copies with all isomorphisms is not
    T0: its 9 arrows share one minimal open, so one closure finds every atom."""
    doc = graph_copies_doc(rigid_graphs(3)[0], 3, ["M1", "M2", "M3"], "all")
    g = jsonio.model_groupoid_from_json(doc).derive(1, 2).groupoid
    assert len(g.arrows.points) == 9
    assert len({g.arrows.min_open(a) for a in g.arrows.points}) == 1
    calls = []
    closure = grpd.subgroupoid_closure

    def counted(g, arrows):
        calls.append(arrows)
        return closure(g, arrows)

    monkeypatch.setattr(grpd, "subgroupoid_closure", counted)
    subs = grpd.enumerate_open_subgroupoids(g)
    assert [s.arrow_set for s in subs] == [frozenset(), g.arrows.points]
    assert len(calls) == 1


def test_subgroupoid_budget():
    g = grpd.space_groupoid(FinSpace.discrete(range(5)))
    with pytest.raises(BudgetExceeded):
        grpd.enumerate_open_subgroupoids(g, budget=5)


def test_orbit_space_examples():
    sp, _ = grpd.orbit_space(grpd.whole_subgroupoid(Z2))
    assert len(sp) == 1
    s = FinSpace.sierpinski()
    sp2, _ = grpd.orbit_space(grpd.whole_subgroupoid(grpd.space_groupoid(s)))
    assert len(sp2) == 2 and len(sp2.opens()) == 3
    sp3, _ = grpd.orbit_space(grpd.whole_subgroupoid(iso_pair()))
    assert len(sp3) == 1


def test_bi_orbit_trivial_actors_is_subspace():
    g = iso_pair()
    triv = grpd.identity_subgroupoid(g)
    sp, q, incl = grpd.bi_orbit_space(g, triv, triv, g.arrows.points)
    assert incl.is_continuous() and q.is_continuous()
    assert len(sp) == len(g.arrows.points)
    # singleton classes, discrete like the ambient arrows
    assert all(len(c) == 1 for c in sp.points)


def test_bi_orbit_group_whole_by_subgroup():
    g = S3
    whole = grpd.whole_subgroupoid(g)
    h = Subgroupoid(g, grpd.subgroupoid_closure(g, {(1, 0, 2)}))
    sp, _, _ = grpd.bi_orbit_space(g, whole, h, g.arrows.points)
    assert len(sp) == 1


def test_bi_orbit_double_cosets_match_oracle():
    mult = SMALL_GROUPS["S3"]
    g = S3
    rng = random.Random(2)
    subs = [s for s in grpd.enumerate_subgroupoids(g) if s.arrow_set]
    for _ in range(10):
        h, k = rng.choice(subs), rng.choice(subs)
        sp, _, _ = grpd.bi_orbit_space(g, h, k, g.arrows.points)
        want = oracles.double_cosets_oracle(
            g.arrows.points, mult, h.arrow_set, k.arrow_set
        )
        assert {frozenset(c) for c in sp.points} == want
        # discrete, per the double-coset example
        assert fintop.skula_space(sp) == FinSpace.discrete(sp.points)


def test_bi_orbit_bistability_error():
    g = S3
    h = Subgroupoid(g, grpd.subgroupoid_closure(g, {(1, 0, 2)}))
    with pytest.raises(BistabilityError):
        grpd.bi_orbit_space(g, h, h, frozenset({(1, 0, 2)}))


def test_iota_map_examples():
    g = iso_pair()
    # Y = X: bijective quasi-homeomorphism
    m = grpd.iota_map(grpd.whole_subgroupoid(g), grpd.identity_subgroupoid(g))
    assert fintop.is_quasi_homeomorphism(m)
    # one endpoint of the iso pair
    y = grpd.full_subgroupoid_on(g, {"a"})
    m2 = grpd.iota_map(y, grpd.identity_subgroupoid(g))
    assert fintop.is_quasi_homeomorphism(m2)
    assert oracles.quasi_homeo_oracle(m2)
    # two non-isomorphic objects
    two = grpd.space_groupoid(FinSpace.discrete({"p", "q"}))
    m3 = grpd.iota_map(
        grpd.full_subgroupoid_on(two, {"p"}), grpd.identity_subgroupoid(two)
    )
    assert not fintop.is_quasi_homeomorphism(m3)
    assert len(m3.codomain.points) == 2


def test_iota_always_continuous():
    rng = random.Random(31)
    for _ in range(12):
        g = random_discrete_groupoid(rng, max_arrows=8)
        subs = grpd.enumerate_subgroupoids(g, budget=512)
        opens = grpd.enumerate_open_subgroupoids(g, budget=512)
        for y in subs[:6]:
            for u in opens[:6]:
                assert grpd.iota_map(y, u).is_continuous()


def test_image_and_full_essential_image():
    g = iso_pair()
    idf = grpd.identity_functor(g)
    assert grpd.image(idf).arrow_set == g.arrows.points
    assert grpd.full_essential_image(idf).arrow_set == g.arrows.points
    const = grpd.ContinuousFunctor(
        g, g, {"a": "a", "b": "a"}, {x: "ia" for x in g.arrows.points}
    )
    assert grpd.image(const).arrow_set == frozenset({"ia"})
    fei = grpd.full_essential_image(const)
    assert fei.arrow_set == g.arrows.points
    assert grpd.is_full(fei) and grpd.is_replete(fei)
    # inclusion of a full replete subgroupoid: image = full essential image
    two = grpd.space_groupoid(FinSpace.discrete({"p", "q"}))
    sub = grpd.full_subgroupoid_on(two, {"p"})
    incl = sub.inclusion_functor()
    # built and validated once per subgroupoid
    assert sub.inclusion_functor() is incl and sub.as_groupoid() is incl.dom
    assert grpd.image(incl).arrow_set == sub.arrow_set
    assert grpd.full_essential_image(incl).arrow_set == sub.arrow_set


def test_full_replete_predicates():
    g = iso_pair()
    assert grpd.is_full(grpd.whole_subgroupoid(g))
    assert grpd.is_replete(grpd.whole_subgroupoid(g))
    endpoint = grpd.full_subgroupoid_on(g, {"a"})
    assert grpd.is_full(endpoint) and not grpd.is_replete(endpoint)
    wide = grpd.identity_subgroupoid(g)
    assert grpd.is_replete(wide) and not grpd.is_full(wide)


def test_full_essential_image_always_full_replete():
    rng = random.Random(37)
    for _ in range(15):
        g = random_discrete_groupoid(rng, max_arrows=10)
        subs = [s for s in grpd.enumerate_subgroupoids(g, budget=512) if s.arrow_set]
        if not subs:
            continue
        f = rng.choice(subs).inclusion_functor()
        fei = grpd.full_essential_image(f)
        assert grpd.is_full(fei) and grpd.is_replete(fei)
        assert fei.validate() == []


def test_subgroupoids_always_valid():
    rng = random.Random(41)
    for _ in range(10):
        g = random_discrete_groupoid(rng, max_arrows=10)
        for s in grpd.enumerate_subgroupoids(g, budget=512):
            assert s.validate() == []
            assert grpd.validate_groupoid(s.as_groupoid()) == []


def test_functor_validation():
    g = iso_pair()
    with pytest.raises(InputError):
        grpd.ContinuousFunctor(
            g, g, {"a": "a", "b": "b"}, {x: "ia" for x in g.arrows.points}
        )  # breaks src/tgt preservation


def test_functor_composition_and_identity():
    g = iso_pair()
    idf = grpd.identity_functor(g)
    const = grpd.ContinuousFunctor(
        g, g, {"a": "a", "b": "a"}, {x: "ia" for x in g.arrows.points}
    )
    assert grpd.compose_functors(idf, const) == const
    assert grpd.compose_functors(const, idf) == const


def test_transformations_enumeration():
    # center of the group = transformations id => id
    assert len(grpd.transformations(grpd.identity_functor(Z2), grpd.identity_functor(Z2))) == 2
    assert len(grpd.transformations(grpd.identity_functor(S3), grpd.identity_functor(S3))) == 1
    # iso pair: id => id has one choice per component, 2 objects 1 component
    g = iso_pair()
    ts = grpd.transformations(grpd.identity_functor(g), grpd.identity_functor(g))
    assert len(ts) == 1
    for t in ts:
        assert t.validate() == []


def test_transformations_on_a_multi_object_component():
    # id => id on a connected 2-object groupoid is the centre of its vertex
    # group, however the component is propagated from the representative
    for mult, count in ((SMALL_GROUPS["S3"], 1), (SMALL_GROUPS["Z2"], 2)):
        idf = grpd.identity_functor(pair_groupoid(["x", "y"], mult))
        ts = grpd.transformations(idf, idf)
        assert len(ts) == count
        assert all(t.validate() == [] for t in ts)


def test_transformation_vertical_and_whisker():
    ts = grpd.transformations(grpd.identity_functor(Z2), grpd.identity_functor(Z2))
    a, b = ts
    v = grpd.vertical_compose(b, a)
    assert v.validate() == []
    idf = grpd.identity_functor(Z2)
    w = grpd.whisker_functor(idf, a)
    assert w.validate() == []
    w2 = grpd.whisker_along(a, idf)
    assert w2.validate() == []
    inv = a.inverse()
    assert grpd.vertical_compose(inv, a).component == grpd.identity_transformation(idf).component


def test_naturality_validation_catches_errors():
    g = iso_pair()
    idf = grpd.identity_functor(g)
    bad = grpd.ContinuousTransformation(
        idf, idf, {"a": "ia", "b": "f"}, check=False
    )
    assert bad.validate() != []


# a loop of order 5 with unit 0, every element its own inverse, and
# (1*2)*2 = 4 != 1 = 1*(2*2); 36 of its 125 triples are not associative
LOOP5_ROWS = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]


def test_validate_groupoid_reports_non_associative_comp():
    mult = {(x, y): LOOP5_ROWS[x][y] for x in range(5) for y in range(5)}
    bad = grpd.validate_groupoid(grpd.group_groupoid(range(5), mult))
    # the ckey-least failing triple (h, g, f): (1 o 1) o 2 = 2 != 4 = 1 o (1 o 2)
    assert bad == ["comp not associative at (1,1,2)"]
