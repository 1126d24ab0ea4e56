import random

import pytest

import oracles
from corpus import (
    enumerate_subgroupoids, groupoid_corpus, identity_subgroupoid, random_discrete_groupoid,
    random_functor,
)
from test_grpd import S3, iso_pair
from topogrpd import fintop, grpd, sheaf, weq
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
    assert bool(v) and v.to_json()["family"] == "atoms"


def test_skula_dense_orbits_examples():
    g = iso_pair()
    for u in grpd.enumerate_open_subgroupoids(g):
        assert weq.skula_witness(grpd.whole_subgroupoid(g), u) is None
    # one-object groupoids: always true
    h = Subgroupoid(S3, grpd.subgroupoid_closure(S3, {(1, 0, 2)}))
    for u in grpd.enumerate_open_subgroupoids(S3):
        assert weq.skula_witness(h, u) is None
    # two non-isomorphic discrete objects, one excluded
    two = grpd.space_groupoid(FinSpace.discrete({"p", "q"}))
    y = grpd.full_subgroupoid_on(two, {"p"})
    assert weq.skula_witness(y, identity_subgroupoid(two)) is not None


def test_source_determined_examples():
    # subspace inclusions of categorically discrete groupoids: always true
    g = grpd.space_groupoid(FinSpace.sierpinski())
    for sub in enumerate_subgroupoids(g):
        for u in grpd.enumerate_open_subgroupoids(g):
            assert weq.source_determined_witness(sub, u) is None
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
            for u in grpd.enumerate_open_subgroupoids(gg, cap=512)[:8]:
                assert weq.source_determined_witness(fr, u) is None
    # a non-replete inclusion failing the condition
    h = Subgroupoid(S3, grpd.subgroupoid_closure(S3, {(1, 0, 2)}))
    assert not all(
        weq.source_determined_witness(h, u) is None
        for u in grpd.enumerate_open_subgroupoids(S3)
    )


def test_pointwise_criteria_match_literal_oracles():
    """The minimal-neighbourhood reductions equal the literal quantifier
    loops on a random corpus."""
    rng = random.Random(67)
    for _ in range(10):
        g = random_discrete_groupoid(rng, max_arrows=8)
        subs = enumerate_subgroupoids(g, cap=256)
        opens = grpd.enumerate_open_subgroupoids(g, cap=256)
        for y in subs[: 5]:
            for u in opens[: 5]:
                assert (weq.skula_witness(y, u) is None) == oracles.skula_dense_orbits_oracle(y, u)
                assert ((weq.source_determined_witness(y, u) is None)
                        == oracles.source_determined_oracle(y, u))


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
        for y in enumerate_subgroupoids(g, cap=256)[:6]:
            for u in grpd.enumerate_open_subgroupoids(g, cap=256)[:6]:
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
        for y in enumerate_subgroupoids(g):
            for u in opens:
                w = weq.source_determined_witness(y, u)
                assert w == oracles.source_determined_witness_oracle(y, u)
                non_null += w is not None
    assert non_null > 10_000


def test_skula_witness_matches_the_canonical_scan():
    """The set-order scan names the same least object, with the same W
    and W', as a scan in canonical order, on every subgroupoid x
    open-member pair of a seeded corpus."""
    non_null = 0
    for g in groupoid_corpus(random.Random(0), 500):
        opens = grpd.enumerate_open_subgroupoids(g)
        for y in enumerate_subgroupoids(g):
            for u in opens:
                w = weq.skula_witness(y, u)
                assert w == oracles.skula_witness_oracle(y, u)
                non_null += w is not None
    assert non_null > 12_000, non_null  # 12,499 of 44,787


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

def test_quasi_homeo_route_reads_no_subobject_or_orbit_condition(monkeypatch):
    """The quasi-homeo route stays independent of the other two routes."""

    def forbidden(*args):
        raise AssertionError("the quasi-homeo route reached another route")

    for owner, name in ((sheaf, "_generator"), (sheaf, "subobject_restriction"),
                        (weq, "skula_witness"), (weq, "source_determined_witness"),
                        (weq, "_skula_witness"), (weq, "_source_determined_witness")):
        monkeypatch.setattr(owner, name, forbidden)
    answers = set()
    for y in enumerate_subgroupoids(S3):
        for u in grpd.enumerate_open_subgroupoids(S3):
            answers.add(fintop.is_quasi_homeomorphism(*grpd.iota_map(y, u)))
    assert answers == {True, False}
    assert weq.is_weak_equivalence(grpd.whole_subgroupoid(S3), mode="quasi-homeo")


def test_subobject_route_reads_no_bi_orbit_space(monkeypatch):
    """The subobject route stays independent of the other two routes: its
    generator lists its own classes, with no bi-orbit space."""

    def forbidden(*args):
        raise AssertionError("the subobject route reached another route")

    for owner, name in ((grpd, "bi_orbit_space"), (grpd, "iota_map"),
                        (fintop, "is_quasi_homeomorphism"),
                        (weq, "_skula_witness"), (weq, "_source_determined_witness")):
        monkeypatch.setattr(owner, name, forbidden)
    injective = set()
    for y in enumerate_subgroupoids(S3):
        for u in grpd.enumerate_open_subgroupoids(S3):
            injective.add(sheaf.subobject_restriction(y, u).injective)
    assert injective == {True, False}
    # on a "no" the verdict's witness reads the orbit conditions by design
    assert weq.is_weak_equivalence(grpd.whole_subgroupoid(S3), mode="subobject-oracle")


THREE_VERDICTS = (lambda y: weq.is_weak_equivalence(y, mode="all"), weq.is_localic_surjection,
                  weq.is_subtopos_inclusion)


def test_the_three_verdicts_build_no_sheaf(monkeypatch):
    """Work guard: the subobject route reads each generator on class
    indices, so on the 500-groupoid corpus the three verdicts build no
    `EquivariantSheaf` and call no `moerdijk_generator`."""

    def forbidden(*args):
        raise AssertionError("a verdict built a sheaf")

    built = []
    build = sheaf._build_generator
    monkeypatch.setattr(sheaf, "_build_generator", lambda *a: built.append(a) or build(*a))
    monkeypatch.setattr(sheaf.EquivariantSheaf, "__init__", forbidden)
    monkeypatch.setattr(sheaf, "moerdijk_generator", forbidden)
    answers = []
    for g in groupoid_corpus(random.Random(0), 500):
        for y in enumerate_subgroupoids(g):
            answers += [decide(y).answer for decide in THREE_VERDICTS]
    yes, no = answers.count("yes"), answers.count("no")
    assert yes >= 3900 and no >= 4500 and len(built) >= 1200, (yes, no, len(built))  # 3,926, 4,567, 1,203


def test_three_verdicts_in_sequence_answer_as_each_alone():
    """The verdicts share their per-pair conditions on the ambient: asked
    in sequence, each gives the answer, witnesses and details it gives
    alone on a freshly built ambient."""
    noes = decided = 0
    for g in groupoid_corpus(random.Random(0), 200):
        for y in enumerate_subgroupoids(g):
            together = [decide(y).to_json() for decide in THREE_VERDICTS]
            for decide, got in zip(THREE_VERDICTS, together):
                fresh = grpd.TopGroupoid(g.objects, g.arrows, g.src, g.tgt, g.unit, g.inv, g.comp)
                assert got == decide(Subgroupoid(fresh, y.arrow_set)).to_json()
                decided += 1
                noes += got["answer"] == "no"
    assert noes >= 1500 and decided - noes >= 1400  # 1,682 and 1,495


def test_a_second_round_of_the_three_verdicts_computes_no_condition(monkeypatch):
    """Work guard: once the three verdicts of an inclusion have run, asking
    them again computes no witness, scope check or orbit components."""
    calls = []

    def counting(owner, name):
        fn = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a: calls.append(name) or fn(*a))

    for owner, name in ((weq, "_skula_witness"), (weq, "_source_determined_witness"),
                        (fintop, "partition"), (Subgroupoid, "validate")):
        counting(owner, name)
    for y in (identity_subgroupoid(iso_pair()), grpd.whole_subgroupoid(iso_pair())):
        rounds = []
        for _ in range(2):
            calls.clear()
            rounds.append([decide(y).answer for decide in THREE_VERDICTS])
            rounds.append(sorted(set(calls)))
        assert rounds[1] == ["_skula_witness", "_source_determined_witness", "partition", "validate"]
        assert rounds[2:] == [rounds[0], []]


def test_a_returned_witness_is_the_callers_own_copy():
    two = grpd.space_groupoid(FinSpace.discrete({"p", "q"}))
    g = iso_pair()
    for condition, y, u in (
        (weq.skula_witness, grpd.full_subgroupoid_on(two, {"p"}), identity_subgroupoid(two)),
        (weq.source_determined_witness, identity_subgroupoid(g), grpd.whole_subgroupoid(g)),
    ):
        w = condition(y, u)
        expected = {k: list(v) if isinstance(v, list) else v for k, v in w.items()}
        for v in w.values():
            if isinstance(v, list):
                v.append("changed")
        w["kind"] = "changed"
        assert condition(y, u) == expected


def test_a_condition_on_an_atom_of_another_groupoid_is_an_input_error():
    two = grpd.space_groupoid(FinSpace.discrete({"p", "q"}))
    for condition in (weq.skula_witness, weq.source_determined_witness):
        with pytest.raises(InputError, match="subgroupoids of different groupoids"):
            condition(grpd.whole_subgroupoid(two), grpd.whole_subgroupoid(iso_pair()))


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
    for sub in enumerate_subgroupoids(g):
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


def test_mode_agreement_on_random_corpus():
    rng = random.Random(71)
    for g in groupoid_corpus(rng, 20):
        for y in enumerate_subgroupoids(g, cap=512):
            # mode="all" of both raises OracleDisagreement on any mismatch
            v = weq.is_weak_equivalence(y, mode="all")
            assert v.answer == oracles.exhaustive_answer(weq.is_weak_equivalence, y)


def test_conjunction_decomposition():
    rng = random.Random(73)
    for g in groupoid_corpus(rng, 12):
        for y in enumerate_subgroupoids(g, cap=512)[:10]:
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
            dense = oracles.is_skula_dense(sub, sp)
            assert (v.answer == "yes") == dense == (sub == sp.points)


def test_wideness_of_weak_equivalences():
    """Composites of passing inclusions pass, on generated instances."""
    rng = random.Random(83)
    checked = 0
    for g in groupoid_corpus(rng, 25):
        subs = enumerate_subgroupoids(g, cap=512)
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
                s.arrow_set for s in enumerate_subgroupoids(inner, cap=256)
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
