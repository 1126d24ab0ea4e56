import random

import pytest

import oracles
from corpus import groupoid_corpus, random_discrete_groupoid, random_functor
from test_grpd import S3, iso_pair
from topogrpd import fintop, grpd, weq
from topogrpd.errors import InputError, OracleDisagreement
from topogrpd.fintop import FinSpace
from topogrpd.grpd import Subgroupoid
from topogrpd.weq import Verdict


def test_verdict_invariants():
    with pytest.raises(InputError):
        Verdict("no")
    with pytest.raises(InputError):
        Verdict("maybe")
    v = Verdict("yes")
    assert bool(v) and v.to_json()["family"] == "exhaustive"


def test_skula_dense_orbits_examples():
    g = iso_pair()
    for u in grpd.enumerate_open_subgroupoids(g):
        assert weq.has_skula_dense_orbits(grpd.whole_subgroupoid(g), u)
    # one-object groupoids: always true
    h = Subgroupoid(S3, grpd.subgroupoid_closure(S3, {(1, 0, 2)}))
    for u in grpd.enumerate_open_subgroupoids(S3):
        assert weq.has_skula_dense_orbits(h, u)
    # two non-isomorphic discrete objects, one excluded
    two = grpd.space_groupoid(FinSpace.discrete({"p", "q"}))
    y = grpd.full_subgroupoid_on(two, {"p"})
    assert not weq.has_skula_dense_orbits(y, grpd.identity_subgroupoid(two))


def test_source_determined_examples():
    # subspace inclusions of categorically discrete groupoids: always true
    g = grpd.space_groupoid(FinSpace.sierpinski())
    for sub in grpd.enumerate_subgroupoids(g):
        for u in grpd.enumerate_open_subgroupoids(g):
            assert weq.has_source_determined_orbits(sub, u)
    # full replete subgroupoid of any valid groupoid: always true
    rng = random.Random(61)
    for _ in range(8):
        gg = random_discrete_groupoid(rng, max_arrows=10)
        orbits = {
            frozenset(grpd.object_orbit_closure(gg, {x}))
            for x in gg.objects.points
        }
        for orbit in orbits:
            fr = grpd.full_subgroupoid_on(gg, orbit)
            for u in grpd.enumerate_open_subgroupoids(gg, budget=512)[:8]:
                assert weq.has_source_determined_orbits(fr, u)
    # a non-replete inclusion failing the condition
    h = Subgroupoid(S3, grpd.subgroupoid_closure(S3, {(1, 0, 2)}))
    assert not all(
        weq.has_source_determined_orbits(h, u)
        for u in grpd.enumerate_open_subgroupoids(S3)
    )


def test_pointwise_criteria_match_literal_oracles():
    """The minimal-neighbourhood reductions equal the literal quantifier
    loops on a random corpus."""
    rng = random.Random(67)
    for _ in range(10):
        g = random_discrete_groupoid(rng, max_arrows=8)
        subs = grpd.enumerate_subgroupoids(g, budget=256)
        opens = grpd.enumerate_open_subgroupoids(g, budget=256)
        for y in subs[: 5]:
            for u in opens[: 5]:
                assert weq.has_skula_dense_orbits(y, u) == oracles.skula_dense_orbits_oracle(y, u)
                assert weq.has_source_determined_orbits(y, u) == oracles.source_determined_oracle(y, u)


def test_source_determined_witness_sorts_only_the_span_and_neighbourhoods(monkeypatch):
    """Work guard: one sort of the span per call plus one per minimal
    neighbourhood visited; the ambient arrows and u's arrows are never
    sorted."""
    sorted_args = []

    def counting(points):
        sorted_args.append(points)
        return fintop.sorted_points(points)

    monkeypatch.setattr(weq, "sorted_points", counting)
    rng = random.Random(67)
    checked = 0
    for g in groupoid_corpus(rng, 20):
        for y in grpd.enumerate_subgroupoids(g, budget=256)[:6]:
            for u in grpd.enumerate_open_subgroupoids(g, budget=256)[:6]:
                sorted_args.clear()
                weq.source_determined_witness(y, u)
                span = [a for a in g.arrows.points
                        if g.src.mapping[a] in u.object_set and g.tgt.mapping[a] in y.object_set]
                assert len(sorted_args) <= 1 + len(span)
                assert not any(p is g.arrows.points or p is u.arrow_set for p in sorted_args)
                checked += len(span) > 1
    assert checked > 100


def test_source_determined_witness_matches_the_nested_search():
    """Membership in the realised set of each minimal open gives the
    nested search's witness dict on every subgroupoid x open-member pair
    of a seeded corpus."""
    non_null = 0
    for g in groupoid_corpus(random.Random(0), 500):
        opens = grpd.enumerate_open_subgroupoids(g)
        for y in grpd.enumerate_subgroupoids(g):
            for u in opens:
                w = weq.source_determined_witness(y, u)
                assert w == oracles.source_determined_witness_oracle(y, u)
                non_null += w is not None
    assert non_null > 10_000


def test_two_condition_route_reads_no_bi_orbit_space(monkeypatch):
    """The two-condition route stays independent of the quasi-homeo route."""

    def forbidden(*args):
        raise AssertionError("the two-condition route reached the quasi-homeo route")

    monkeypatch.setattr(grpd, "bi_orbit_space", forbidden)
    monkeypatch.setattr(grpd, "iota_map", forbidden)
    monkeypatch.setattr(fintop, "is_quasi_homeomorphism", forbidden)
    h = Subgroupoid(S3, grpd.subgroupoid_closure(S3, {(1, 0, 2)}))
    for u in grpd.enumerate_open_subgroupoids(S3):
        weq.skula_witness(h, u)
        weq.source_determined_witness(h, u)

def test_localic_surjection_examples():
    h = Subgroupoid(S3, grpd.subgroupoid_closure(S3, {(1, 0, 2)}))
    assert weq.is_localic_surjection(h).answer == "yes"
    assert weq.is_localic_surjection(grpd.whole_subgroupoid(S3)).answer == "yes"
    two = grpd.space_groupoid(FinSpace.discrete({"p", "q"}))
    v = weq.is_localic_surjection(grpd.full_subgroupoid_on(two, {"p"}))
    assert v.answer == "no"
    # witness is the trivial (identity) subgroupoid
    assert v.witnesses


def test_subtopos_inclusion_examples():
    # subspace of a space
    g = grpd.space_groupoid(FinSpace.sierpinski())
    for sub in grpd.enumerate_subgroupoids(g):
        assert weq.is_subtopos_inclusion(sub).answer == "yes"
    # full replete subgroupoid
    two = grpd.space_groupoid(FinSpace.discrete({"p", "q"}))
    assert weq.is_subtopos_inclusion(grpd.full_subgroupoid_on(two, {"p"})).answer == "yes"
    # proper subgroup: no
    h = Subgroupoid(S3, grpd.subgroupoid_closure(S3, {(1, 0, 2)}))
    assert weq.is_subtopos_inclusion(h).answer == "no"


def test_weak_equivalence_examples():
    g = iso_pair()
    assert weq.is_weak_equivalence(grpd.whole_subgroupoid(g), mode="all").answer == "yes"
    y = grpd.full_subgroupoid_on(g, {"a"})
    assert weq.is_weak_equivalence(y, mode="all").answer == "yes"
    h = Subgroupoid(S3, grpd.subgroupoid_closure(S3, {(1, 0, 2)}))
    assert weq.is_weak_equivalence(h, mode="all").answer == "no"
    for mode in weq.MODES:
        assert weq.is_weak_equivalence(h, mode=mode).answer == "no"


def test_weak_equivalence_user_family_unknown():
    g = iso_pair()
    y = grpd.full_subgroupoid_on(g, {"a"})
    fam = grpd.enumerate_open_subgroupoids(g)[:2]
    assert weq.is_weak_equivalence(y, family=fam).answer == "unknown"
    # a failing member still gives a definitive no
    two = grpd.space_groupoid(FinSpace.discrete({"p", "q"}))
    y2 = grpd.full_subgroupoid_on(two, {"p"})
    fam2 = grpd.enumerate_open_subgroupoids(two)
    assert weq.is_weak_equivalence(y2, family=fam2[:1]).answer in ("unknown", "no")
    assert weq.is_weak_equivalence(y2, family=fam2).answer == "no"


def test_user_family_validation():
    g = iso_pair()
    other = grpd.space_groupoid(FinSpace.sierpinski())
    with pytest.raises(InputError):
        weq.is_weak_equivalence(
            grpd.whole_subgroupoid(g),
            family=[grpd.identity_subgroupoid(other)],
        )


def test_mode_agreement_on_random_corpus():
    rng = random.Random(71)
    for g in groupoid_corpus(rng, 20):
        subs = grpd.enumerate_subgroupoids(g, budget=512)
        fam = grpd.enumerate_open_subgroupoids(g, budget=512)
        for y in subs:
            # mode="all" raises OracleDisagreement on any mismatch
            v = weq.is_weak_equivalence(y, family=fam, mode="all")
            assert v.answer in ("no", "unknown", "yes")


def test_conjunction_decomposition():
    rng = random.Random(73)
    for g in groupoid_corpus(rng, 12):
        fam = grpd.enumerate_open_subgroupoids(g, budget=512)
        for y in grpd.enumerate_subgroupoids(g, budget=512)[:10]:
            w = weq.is_weak_equivalence(y, mode="quasi-homeo").answer == "yes"
            s = weq.is_localic_surjection(y).answer == "yes"
            i = weq.is_subtopos_inclusion(y).answer == "yes"
            assert w == (s and i)


def test_discrete_groupoid_reduction():
    # all T0 spaces up to 4 points (up to homeomorphism), all subspaces
    from corpus import t0_spaces_up_to

    for sp in t0_spaces_up_to(4):
        g = grpd.space_groupoid(sp)
        pts = sorted(sp.points, key=fintop.ckey)
        for mask in range(2 ** len(pts)):
            sub = frozenset(p for i, p in enumerate(pts) if mask >> i & 1)
            v = weq.is_weak_equivalence(grpd.full_subgroupoid_on(g, sub), mode="all")
            dense = fintop.is_skula_dense(sub, sp)
            assert (v.answer == "yes") == dense == (sub == sp.points)


def test_wideness_of_weak_equivalences():
    """Composites of passing inclusions pass, on generated instances."""
    rng = random.Random(83)
    checked = 0
    for g in groupoid_corpus(rng, 25):
        subs = grpd.enumerate_subgroupoids(g, budget=512)
        passing = [
            y for y in subs
            if weq.is_weak_equivalence(y, mode="quasi-homeo").answer == "yes"
        ]
        for y in passing:
            inner = y.as_groupoid()
            if not inner.is_open():
                # the inner leg cannot be certified without an open ambient
                continue
            for z_arrows in {
                s.arrow_set for s in grpd.enumerate_subgroupoids(inner, budget=256)
            }:
                z_in_y = Subgroupoid(inner, z_arrows)
                if weq.is_weak_equivalence(z_in_y, mode="quasi-homeo").answer != "yes":
                    continue
                composite = Subgroupoid(g, z_arrows)
                assert weq.is_weak_equivalence(composite, mode="quasi-homeo").answer == "yes"
                checked += 1
    assert checked >= 10


def test_factorize_identity():
    g = iso_pair()
    fz = weq.factorize(grpd.identity_functor(g))
    assert fz.certificates_pass()
    assert fz.second.arrow_set == g.arrows.points
    assert fz.first.obj_map.mapping == {x: x for x in g.objects.points}


def test_factorize_constant_functor():
    g = iso_pair()
    const = grpd.ContinuousFunctor(
        g, g, {"a": "a", "b": "a"}, {x: "ia" for x in g.arrows.points}
    )
    fz = weq.factorize(const)
    assert fz.certificates_pass()
    assert fz.surjective_on_objects
    assert fz.second.arrow_set == g.arrows.points


def test_factorize_subgroup_inclusion():
    h = Subgroupoid(S3, grpd.subgroupoid_closure(S3, {(1, 0, 2)}))
    fz = weq.factorize(h.inclusion_functor())
    assert fz.certificates_pass()
    # full essential image of a subgroup of a one-object groupoid is everything
    assert fz.second.arrow_set == S3.arrows.points
    # while the inclusion itself is not a weak equivalence
    assert weq.is_weak_equivalence(h, mode="quasi-homeo").answer == "no"


def test_factorize_certificates_on_random_functors():
    rng = random.Random(89)
    corpus = groupoid_corpus(rng, 10)
    for _ in range(20):
        f = random_functor(rng, corpus)
        fz = weq.factorize(f)
        assert fz.certificates_pass(), (f, fz)


def test_oracle_disagreement_is_raised_on_forced_mismatch(monkeypatch):
    h = Subgroupoid(S3, grpd.subgroupoid_closure(S3, {(1, 0, 2)}))
    monkeypatch.setattr(weq, "skula_witness", lambda incl, u: {"kind": "fake"})
    with pytest.raises(OracleDisagreement):
        weq.is_localic_surjection(h)
    # the image certificate of factorize is the same cross-checked verdict
    with pytest.raises(OracleDisagreement):
        weq.factorize(h.inclusion_functor())
