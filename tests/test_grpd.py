import random

import pytest

import oracles
from corpus import (
    SMALL_GROUPS, enumerate_subgroupoids, graph_copies_doc, group_groupoid,
    identity_subgroupoid, is_full, is_replete, pair_groupoid, random_discrete_groupoid,
    rigid_graphs,
)
from topogrpd import fintop, grpd, jsonio
from topogrpd.errors import CapExceeded, InputError
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


S3 = group_groupoid({a for (a, _) in SMALL_GROUPS["S3"]}, SMALL_GROUPS["S3"])
Z2 = group_groupoid({0, 1}, SMALL_GROUPS["Z2"])


def test_validate_groupoid_examples():
    assert grpd.validate_groupoid(Z2) == []
    assert grpd.validate_groupoid(grpd.space_groupoid(FinSpace.sierpinski())) == []
    assert grpd.validate_groupoid(iso_pair()) == []


def test_validate_detects_noncontinuous_inv():
    mult = SMALL_GROUPS["Z3"]
    arr = fintop.generate_topology({0, 1, 2}, [{1}])
    bad = group_groupoid(range(3), mult, arrow_space=arr)
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
    with pytest.raises(CapExceeded):
        grpd.enumerate_open_subgroupoids(g, cap=5)


def test_bi_orbit_trivial_actors_is_subspace():
    g = iso_pair()
    triv = identity_subgroupoid(g)
    cls, mins = grpd.bi_orbit_space(g, triv, triv)
    assert set(cls) == g.arrows.points
    # singleton classes, discrete like the ambient arrows
    assert sorted(cls.values()) == list(range(len(g.arrows.points)))
    assert mins == [1 << i for i in range(len(mins))]
    # X(R0, L0): the one arrow g from b to a, whatever acts on it
    a, b = grpd.full_subgroupoid_on(g, {"a"}), grpd.full_subgroupoid_on(g, {"b"})
    assert grpd.bi_orbit_space(g, a, b) == ({"g": 0}, [0b1])


def test_bi_orbit_group_whole_by_subgroup():
    g = S3
    whole = grpd.whole_subgroupoid(g)
    h = Subgroupoid(g, grpd.subgroupoid_closure(g, {(1, 0, 2)}))
    cls, mins = grpd.bi_orbit_space(g, whole, h)
    assert set(cls.values()) == {0} and mins == [0b1]


def test_bi_orbit_double_cosets_match_oracle():
    mult = SMALL_GROUPS["S3"]
    g = S3
    rng = random.Random(2)
    subs = [s for s in enumerate_subgroupoids(g) if s.arrow_set]
    for _ in range(10):
        h, k = rng.choice(subs), rng.choice(subs)
        cls, mins = grpd.bi_orbit_space(g, h, k)
        want = oracles.double_cosets_oracle(
            g.arrows.points, mult, h.arrow_set, k.arrow_set
        )
        assert {frozenset(a for a in cls if cls[a] == i) for i in range(len(mins))} == want
        # discrete, per the double-coset example
        assert mins == [1 << i for i in range(len(mins))]


def test_iota_map_examples():
    g = iso_pair()
    # Y = X: bijective quasi-homeomorphism
    m = grpd.iota_map(grpd.whole_subgroupoid(g), identity_subgroupoid(g))
    assert fintop.is_quasi_homeomorphism(*m)
    # one endpoint of the iso pair
    y = grpd.full_subgroupoid_on(g, {"a"})
    m2 = grpd.iota_map(y, identity_subgroupoid(g))
    assert fintop.is_quasi_homeomorphism(*m2)
    assert oracles.quasi_homeo_oracle(oracles.iota_map_oracle(y, identity_subgroupoid(g)))
    # two non-isomorphic objects
    two = grpd.space_groupoid(FinSpace.discrete({"p", "q"}))
    m3 = grpd.iota_map(
        grpd.full_subgroupoid_on(two, {"p"}), identity_subgroupoid(two)
    )
    assert not fintop.is_quasi_homeomorphism(*m3)
    assert len(m3[2]) == 2


def test_iota_always_continuous():
    rng = random.Random(31)
    for _ in range(12):
        g = random_discrete_groupoid(rng, max_arrows=8)
        subs = enumerate_subgroupoids(g, cap=512)
        opens = grpd.enumerate_open_subgroupoids(g, cap=512)
        for y in subs[:6]:
            for u in opens[:6]:
                f, dom_mins, cod_mins = grpd.iota_map(y, u)
                assert all(cod_mins[f[i]] >> f[j] & 1
                           for i, m in enumerate(dom_mins) for j in fintop.bits(m))


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
    assert is_full(fei) and is_replete(fei)
    # inclusion of a full replete subgroupoid: image = full essential image
    two = grpd.space_groupoid(FinSpace.discrete({"p", "q"}))
    sub = grpd.full_subgroupoid_on(two, {"p"})
    incl = sub.inclusion_functor()
    # built and validated per call, equal every time
    assert sub.inclusion_functor() == incl and sub.as_groupoid() == incl.dom
    assert grpd.image(incl).arrow_set == sub.arrow_set
    assert grpd.full_essential_image(incl).arrow_set == sub.arrow_set


def test_full_replete_predicates():
    g = iso_pair()
    assert is_full(grpd.whole_subgroupoid(g))
    assert is_replete(grpd.whole_subgroupoid(g))
    endpoint = grpd.full_subgroupoid_on(g, {"a"})
    assert is_full(endpoint) and not is_replete(endpoint)
    wide = identity_subgroupoid(g)
    assert is_replete(wide) and not is_full(wide)


def test_full_essential_image_always_full_replete():
    rng = random.Random(37)
    for _ in range(15):
        g = random_discrete_groupoid(rng, max_arrows=10)
        subs = [s for s in enumerate_subgroupoids(g, cap=512) if s.arrow_set]
        if not subs:
            continue
        f = rng.choice(subs).inclusion_functor()
        fei = grpd.full_essential_image(f)
        assert is_full(fei) and is_replete(fei)
        assert fei.validate() == []


def test_subgroupoids_always_valid():
    rng = random.Random(41)
    for _ in range(10):
        g = random_discrete_groupoid(rng, max_arrows=10)
        for s in enumerate_subgroupoids(g, cap=512):
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
        assert oracles.transformation_faults(t) == []


def test_transformations_on_a_multi_object_component():
    # id => id on a connected 2-object groupoid is the centre of its vertex
    # group, however the component is propagated from the representative
    for mult, count in ((SMALL_GROUPS["S3"], 1), (SMALL_GROUPS["Z2"], 2)):
        idf = grpd.identity_functor(pair_groupoid(["x", "y"], mult))
        ts = grpd.transformations(idf, idf)
        assert len(ts) == count
        assert all(oracles.transformation_faults(t) == [] for t in ts)


def test_naturality_validation_catches_errors():
    g = iso_pair()
    idf = grpd.identity_functor(g)
    bad = grpd.ContinuousTransformation(idf, idf, {"a": "ia", "b": "f"})
    assert oracles.transformation_faults(bad) != []


# a loop of order 5 with unit 0, every element its own inverse, and
# (1*2)*2 = 4 != 1 = 1*(2*2); 36 of its 125 triples are not associative
LOOP5_ROWS = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]


def test_validate_groupoid_reports_non_associative_comp():
    mult = {(x, y): LOOP5_ROWS[x][y] for x in range(5) for y in range(5)}
    bad = grpd.validate_groupoid(group_groupoid(range(5), mult))
    # the ckey-least failing triple (h, g, f): (1 o 1) o 2 = 2 != 4 = 1 o (1 o 2)
    assert bad == ["comp not associative at (1,1,2)"]
