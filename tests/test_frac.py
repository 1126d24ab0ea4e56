import random

import pytest

from corpus import sober_eliminating_model_groupoids
from topogrpd import frac, grpd, logic, weq
from topogrpd.errors import CertificateError, InputError, NotModelPresented
from topogrpd.frac import ModelFunctor, ModelInclusion, identity_cospan, make_cospan
from topogrpd.logic import FinModel, IndexedModel, ModelGroupoid

PQ = logic.make_signature(["S"], {"P": ("S",), "Q": ("S",)})
PRM = {"p": "S", "q": "S"}


def pq_model(name):
    return FinModel(name, PQ, {"S": {"a", "b"}}, {"P": {("a",)}, "Q": {("b",)}})


def ident_groupoid(name):
    m = pq_model(name)
    return ModelGroupoid(
        PQ, PRM, [IndexedModel(m, {"p": "a", "q": "b"}, PRM)],
        [logic.identity_iso(m)],
    )


def copies_groupoid(*names):
    """Identities-only on rigid isomorphic copies; the completion adds
    the cross isomorphisms."""
    members = [
        IndexedModel(pq_model(n), {"p": "a", "q": "b"}, PRM) for n in names
    ]
    return ModelGroupoid(
        PQ, PRM, members, [logic.identity_iso(im.model) for im in members]
    )


def completion_cospan(g, depth=1, cap=2):
    comp = logic.etale_completion(g)
    mi = ModelInclusion(g, comp)
    return make_cospan(mi.as_model_functor(), mi, depth, cap)


def test_make_cospan_identity():
    g = ident_groupoid("M1")
    c = identity_cospan(g, 1, 2)
    assert c.source == c.target == c.apex == g


def test_make_cospan_completion_leg():
    c = completion_cospan(copies_groupoid("M1", "M2"))
    assert c.certificate.answer == "yes"
    assert len(c.apex.arrows) > len(c.target.arrows)


def test_make_cospan_rejects_non_weq_leg():
    # a one-model groupoid with full automorphisms, target = identities-only
    pure = logic.make_signature(["S"])
    m = FinModel("M", pure, {"S": {"a", "b"}})
    prm = {"p": "S", "q": "S"}
    big = ModelGroupoid(pure, prm, [IndexedModel(m, {"p": "a", "q": "b"}, prm)],
                        logic.automorphisms(m))
    small = ModelGroupoid(pure, prm, big.members, [logic.identity_iso(m)])
    mi = ModelInclusion(small, big)
    with pytest.raises(CertificateError):
        make_cospan(mi.as_model_functor(), mi, 1, 2)


def test_ore_identity_span():
    g = ident_groupoid("M1")
    c = identity_cospan(g, 1, 2)
    sq = frac.ore_complete(c.weq_leg, c.fwd, 1, 2)
    assert sq.apex == g
    assert sq.iso.validate() == []


def test_ore_completion_span():
    """Span: identities-only included in its completion, against the same
    inclusion; the completed square has an identity-shaped 2-cell."""
    g = ident_groupoid("M1")
    comp = logic.etale_completion(g)
    psi = ModelInclusion(g, comp)
    sq = frac.ore_complete(psi, psi.as_model_functor(), 1, 2)
    assert sq.apex.members == comp.members
    assert sq.certificate.answer == "yes"
    assert sq.iso.validate() == []


def test_ore_second_copy():
    """The weq leg is a genuine completion inclusion and the forward leg
    lands in a renamed copy; the merged completion connects everything
    and the square closes up to a found isomorphism."""
    g_both = copies_groupoid("M1", "M2")
    comp = logic.etale_completion(g_both)
    psi = ModelInclusion(g_both, comp)
    assert not psi.is_identity()
    g_copy = copies_groupoid("M3", "M4")
    phi = ModelFunctor(
        g_both, g_copy, {"M1": "M3", "M2": "M4"},
        {
            logic.identity_iso(pq_model("M1")): logic.identity_iso(pq_model("M3")),
            logic.identity_iso(pq_model("M2")): logic.identity_iso(pq_model("M4")),
        },
    )
    sq = frac.ore_complete(psi, phi, 1, 2)
    names = {im.name for im in sq.apex.members}
    assert names == {"M1", "M2", "M3", "M4"}
    assert sq.certificate.answer == "yes"
    assert sq.iso.validate() == []


def test_compose_unit_laws():
    g = ident_groupoid("M1")
    f = completion_cospan(g)
    lhs = frac.compose(identity_cospan(g, 1, 2), f)
    # right unit composes on the nose
    assert lhs.fwd == f.fwd and lhs.apex == f.apex
    cert = frac.cospans_isomorphic(lhs, f)
    assert cert is not None and cert.mediator == "identity"
    rhs = frac.compose(f, identity_cospan(f.apex, 1, 2))
    cert2 = frac.cospans_isomorphic(rhs, f)
    assert cert2 is not None


def test_compose_completion_cospans():
    g = ident_groupoid("M1")
    f = completion_cospan(g)
    h = identity_cospan(f.apex, 1, 2)
    c = frac.compose(f, h)
    assert c.certificate.answer == "yes"
    assert c.source == g and c.target == f.apex


def test_compose_requires_matching_feet():
    g1, g2 = ident_groupoid("M1"), ident_groupoid("M2")
    with pytest.raises(InputError):
        frac.compose(identity_cospan(g1, 1, 2), identity_cospan(g2, 1, 2))


def test_compose_associativity_spot_check():
    g = ident_groupoid("M1")
    f = completion_cospan(g)
    comp = f.apex
    idc = identity_cospan(comp, 1, 2)
    left = frac.compose(frac.compose(f, idc), idc)
    right = frac.compose(f, frac.compose(idc, idc))
    cert = frac.cospans_isomorphic(left, right)
    assert cert is not None


def test_two_cells_vertical_composition():
    g = ident_groupoid("M1")
    c = completion_cospan(g)
    ident = grpd.identity_transformation(c.fwd.derived(1, 2))
    cell = frac.make_two_cell(c, c, ident)
    again = frac.vertical_compose_cells(cell, cell)
    assert again.data.component == ident.component


def test_two_cells_shared_apex_required():
    g = copies_groupoid("M1", "M2")
    c1 = completion_cospan(g)
    c2 = identity_cospan(g, 1, 2)
    assert c1.apex != c2.apex
    with pytest.raises(InputError):
        frac.make_two_cell(c1, c2, grpd.identity_transformation(c1.fwd.derived(1, 2)))


def test_two_cell_full_faithfulness_at_finite_scale():
    """On etale-complete model groupoids, parallel functors that present
    the same localized morphism are linked by a continuous isomorphism
    found by exhaustive transformation enumeration (left cancellability
    at finite scale): the identity and the copy-swapping conjugate of the
    completed two-copy groupoid are isomorphic, and the isomorphism count
    is exactly the transformation search's output."""
    g = copies_groupoid("M1", "M2")
    comp = logic.etale_completion(g)
    derived = comp.derive(1, 2).groupoid
    idf = grpd.identity_functor(derived)
    cross = {a for a in comp.arrows if a.src == "M1" and a.tgt == "M2"}
    (sigma,) = cross
    swap_obj = {"M1": "M2", "M2": "M1"}
    swap_arr = {}
    inv_sigma = logic.invert_iso(sigma)
    for a in comp.arrows:
        left = sigma if a.tgt == "M1" else inv_sigma
        right = inv_sigma if a.src == "M1" else sigma
        swap_arr[a] = logic.compose_isos(left, logic.compose_isos(a, right))
    swap = grpd.ContinuousFunctor(derived, derived, swap_obj, swap_arr)
    found = grpd.transformations(idf, swap)
    assert len(found) >= 1
    for t in found:
        assert t.validate() == []


def test_morita_equal_inputs():
    g = ident_groupoid("M1")
    res = frac.morita_search(g, g, 1, 2)
    assert res.verdict.answer == "yes"
    assert res.apex is not None
    # witness: the completion of the input
    comp = logic.etale_completion(g)
    assert res.apex.arrows == comp.arrows


def test_morita_isomorphic_copies():
    res = frac.morita_search(ident_groupoid("M1"), ident_groupoid("M2"), 1, 2)
    assert res.verdict.answer == "yes"
    names = {im.name for im in res.apex.members}
    assert names == {"M1", "M2"}


def test_morita_not_found_with_separating_sentence():
    g1 = ident_groupoid("M1")
    empty_p = FinModel("N1", PQ, {"S": {"a"}}, {"Q": {("a",)}})
    g2 = ModelGroupoid(
        PQ, {"p": "S"}, [IndexedModel(empty_p, {"p": "a"}, {"p": "S"})],
        [logic.identity_iso(empty_p)],
    )
    res = frac.morita_search(g1, g2, 1, 2)
    assert res.verdict.answer == "unknown"
    details = dict(res.verdict.details)
    assert "separating_sentence" in details
    assert "P" in details["separating_sentence"]


def test_morita_signature_mismatch():
    g1 = ident_groupoid("M1")
    pure = logic.make_signature(["S"])
    m = FinModel("M", pure, {"S": {"a"}})
    g2 = ModelGroupoid(pure, {"p": "S"}, [IndexedModel(m, {"p": "a"}, {"p": "S"})],
                       [logic.identity_iso(m)])
    with pytest.raises(NotModelPresented):
        frac.morita_search(g1, g2, 1, 2)


def test_ore_square_certified_on_generated_corpus():
    rng = random.Random(107)
    gs = sober_eliminating_model_groupoids(rng, 4, depth=1, tuple_cap=2, max_models=2, max_size=2)
    for g in gs:
        try:
            c = completion_cospan(g)
        except CertificateError:
            continue
        sq = frac.ore_complete(c.weq_leg, c.fwd, 1, 2)
        assert sq.certificate.answer == "yes"
        assert sq.iso.validate() == []
        for mode in weq.MODES:
            v = weq.is_weak_equivalence(
                sq.psi2.derived_subgroupoid(1, 2), mode=mode
            )
            assert v.answer == "yes"
