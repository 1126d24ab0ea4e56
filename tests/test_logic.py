import itertools
import random

import pytest

from corpus import random_formula_ast, sober_eliminating_model_groupoids
from topogrpd import grpd, logic, sheaf, weq
from topogrpd.errors import FormulaError, InputError
from topogrpd.fintop import FinSpace
from topogrpd.logic import (
    FinModel,
    GeometricFormula,
    IndexedModel,
    ModelGroupoid,
    parse_formula,
    print_formula,
)

PURE = logic.make_signature(["S"])
GRAPH = logic.make_signature(["V"], {"E": ("V", "V")})
PQ = logic.make_signature(["S"], {"P": ("S",), "Q": ("S",)})


def two_elt():
    return FinModel("M", PURE, {"S": {"a", "b"}})


def aut_groupoid():
    m = two_elt()
    im = IndexedModel(m, {"p": "a", "q": "b"}, {"p": "S", "q": "S"})
    return ModelGroupoid(PURE, {"p": "S", "q": "S"}, [im], logic.automorphisms(m))


# -- parser -------------------------------------------------------------------


def test_parse_examples():
    f = parse_formula("exists y. E(x,y)", GRAPH)
    assert isinstance(f.ast, logic.Exists)
    assert f.context == (("x", "V"),)
    f2 = parse_formula("x = y /\\ T", GRAPH)
    assert isinstance(f2.ast, logic.And)
    assert isinstance(f2.ast.left, logic.Eq)
    with pytest.raises(FormulaError):
        parse_formula("R(x)", GRAPH)


def test_parse_errors_carry_positions():
    with pytest.raises(FormulaError) as e:
        parse_formula("E(x,)", GRAPH)
    assert "position" in str(e.value)
    with pytest.raises(FormulaError):
        parse_formula("exists x:W. T", GRAPH)
    with pytest.raises(FormulaError):
        parse_formula("T /\\", GRAPH)
    with pytest.raises(FormulaError):
        parse_formula("T T", GRAPH)


def test_parse_precedence():
    f = parse_formula("T /\\ F \\/ T", GRAPH, context=())
    assert isinstance(f.ast, logic.Or)
    f2 = parse_formula("exists x:V. T \\/ F", GRAPH)
    assert isinstance(f2.ast, logic.Exists)
    f3 = parse_formula("(exists x:V. T) \\/ F", GRAPH, context=())
    assert isinstance(f3.ast, logic.Or)


def test_roundtrip_spec_scale():
    rng = random.Random(97)
    sigs = [PURE, GRAPH, PQ, logic.make_signature(["A", "B"], {"R": ("A", "B")}, {"c": "A"})]
    for _ in range(300):
        sig = rng.choice(sigs)
        ctx = tuple(
            (f"x{i}", rng.choice(sig.sorts)) for i in range(rng.randint(0, 2))
        )
        ast = random_formula_ast(rng, sig, ctx, rng.randint(0, 3))
        text = print_formula(ast)
        again = parse_formula(text, sig, context=ctx)
        assert again.ast == ast, text


def test_well_sortedness():
    sig = logic.make_signature(["A", "B"], {"R": ("A", "B")})
    with pytest.raises(FormulaError):
        GeometricFormula(
            logic.Rel("R", (logic.Var("x"), logic.Var("x"))),
            (("x", "A"),),
            sig,
        )
    with pytest.raises(InputError):
        GeometricFormula(logic.Rel("R", (logic.Var("x"), logic.Var("y"))), (("x", "A"),), sig)


def test_depth():
    f = parse_formula("exists y. E(x,y)", GRAPH)
    assert logic.depth(f.ast) == 1
    assert logic.depth(parse_formula("T", GRAPH, ()).ast) == 0
    assert logic.depth(parse_formula("T /\\ (T \\/ F)", GRAPH, ()).ast) == 2


# -- evaluation ---------------------------------------------------------------


def test_eval_examples():
    c2 = FinModel("C2", GRAPH, {"V": {0, 1}}, {"E": {(0, 1), (1, 0)}})
    f = parse_formula("exists y. E(x,y)", GRAPH)
    assert logic.eval_formula(c2, f, {"x": 0})
    assert logic.eval_formula(c2, f, {"x": 1})
    top = parse_formula("T", GRAPH, context=())
    assert logic.eval_formula(c2, top, {})
    empty = FinModel("E0", GRAPH, {"V": {0, 1}})
    fe = parse_formula("E(x,y)", GRAPH)
    assert not logic.eval_formula(empty, fe, {"x": 0, "y": 1})
    with pytest.raises(InputError):
        logic.eval_formula(c2, fe, {"x": 0})


# -- isomorphisms -------------------------------------------------------------


def test_model_isomorphisms_examples():
    m, n = two_elt(), FinModel("N", PURE, {"S": {"a", "b"}})
    assert len(logic.model_isomorphisms(m, n)) == 2
    c2 = FinModel("C2", GRAPH, {"V": {0, 1}}, {"E": {(0, 1), (1, 0)}})
    a2 = FinModel("A2", GRAPH, {"V": {0, 1}}, {"E": {(0, 0), (1, 1)}})
    assert logic.model_isomorphisms(c2, a2) == []
    assert logic.identity_iso(m) in logic.automorphisms(m)
    # composition and inversion sanity
    autos = logic.automorphisms(m)
    for a in autos:
        assert logic.compose_isos(logic.invert_iso(a), a) == logic.identity_iso(m)


# -- logical topologies --------------------------------------------------------


def test_topology_single_model_identity():
    one = FinModel("One", PURE, {"S": {"e"}})
    g = ModelGroupoid(
        PURE, {"p": "S"},
        [IndexedModel(one, {"p": "e"}, {"p": "S"})],
        [logic.identity_iso(one)],
    )
    d = g.derive(1)
    assert len(d.objects) == 1 and len(d.arrows) == 1
    assert d.objects == FinSpace.discrete({"One"})


def test_topology_aut_of_two_element_set_discrete_arrows():
    g = aut_groupoid()
    d = g.derive(1)
    assert len(d.arrows) == 2
    for a in d.arrows.points:
        assert d.arrows.min_open(a) == frozenset({a})
    assert grpd.validate_groupoid(d.groupoid) == []


def test_topology_nonisomorphic_graphs_discrete_objects():
    c2 = FinModel("C", GRAPH, {"V": {0, 1}}, {"E": {(0, 1), (1, 0)}})
    a2 = FinModel("A", GRAPH, {"V": {0, 1}}, {"E": {(0, 0), (1, 1)}})
    prm = {"p": "V", "q": "V"}
    g = ModelGroupoid(
        GRAPH, prm,
        [IndexedModel(c2, {"p": 0, "q": 1}, prm), IndexedModel(a2, {"p": 0, "q": 1}, prm)],
        [logic.identity_iso(c2), logic.identity_iso(a2)],
    )
    d = g.derive(1)
    assert d.objects == FinSpace.discrete({"C", "A"})


def test_topology_stabilization_recorded():
    g = aut_groupoid()
    d = g.derive(3)
    assert d.stabilized
    assert d.depth <= 2


def test_derived_groupoids_always_valid_and_open():
    rng = random.Random(101)
    for g in sober_eliminating_model_groupoids(rng, 8, depth=1, tuple_cap=2):
        derived = g.derive(1, 2)
        assert grpd.validate_groupoid(derived.groupoid) == []


def test_subgroupoid_topology_matches_own_logical_topology():
    """The derived topology of a model subgroupoid equals the subspace
    topology induced from the ambient derived groupoid."""
    g = aut_groupoid()
    sub = ModelGroupoid(
        PURE, g.params, g.members, [logic.identity_iso(two_elt())]
    )
    amb = g.derive(1).groupoid
    own = sub.derive(1).groupoid
    incl = grpd.Subgroupoid(amb, sub.arrows)
    assert own.arrows == amb.arrows.subspace(sub.arrows)
    assert own.objects == amb.objects.subspace(incl.object_set)


# -- definable sheaves ----------------------------------------------------------


def test_definable_sheaf_examples():
    g = aut_groupoid()
    fT = logic.top_formula(PURE, ("S",))
    s = logic.definable_sheaf(g, fT, 1)
    assert len(s.total) == 2
    assert sheaf.validate_sheaf(s) == []
    assert len(sheaf.subobject_lattice(s)) == 2  # transitive action
    fB = GeometricFormula(logic.Bot(), (("x1", "S"),), PURE)
    assert len(logic.definable_sheaf(g, fB, 1).total) == 0
    fxx = GeometricFormula(logic.Eq(logic.Var("x1"), logic.Var("x1")), (("x1", "S"),), PURE)
    assert logic.definable_sheaf(g, fxx, 1).total.points == s.total.points


def test_definable_sheaf_empty_context_is_terminal():
    g = aut_groupoid()
    fT = logic.top_formula(PURE, ())
    s = logic.definable_sheaf(g, fT, 1)
    term = sheaf.terminal_sheaf(g.derive(1).groupoid)
    assert {n for (n, _) in s.total.points} == set(term.total.points)
    assert len(s.total) == len(term.total)
    assert sheaf.validate_sheaf(s) == []


def test_definable_sheaf_respects_conjunction():
    sig = PQ
    m = FinModel("M", sig, {"S": {"a", "b"}}, {"P": {("a",)}, "Q": {("b",)}})
    prm = {"p": "S", "q": "S"}
    g = ModelGroupoid(sig, prm, [IndexedModel(m, {"p": "a", "q": "b"}, prm)],
                      logic.automorphisms(m))
    fp = parse_formula("P(x1)", sig, (("x1", "S"),))
    fq = parse_formula("Q(x1)", sig, (("x1", "S"),))
    fboth = parse_formula("P(x1) /\\ Q(x1)", sig, (("x1", "S"),))
    sp = logic.definable_sheaf(g, fp, 1)
    sq = logic.definable_sheaf(g, fq, 1)
    sboth = logic.definable_sheaf(g, fboth, 1)
    assert set(sboth.total.points) == set(sp.total.points) & set(sq.total.points)


def test_definable_pullback_identity():
    g = aut_groupoid()
    sub = ModelGroupoid(PURE, g.params, g.members, [logic.identity_iso(two_elt())])
    amb = g.derive(1).groupoid
    incl = grpd.Subgroupoid(amb, sub.arrows)
    fT = logic.top_formula(PURE, ("S",))
    pulled = sheaf.inverse_image(incl.inclusion_functor(), logic.definable_sheaf(g, fT, 1))
    own = logic.definable_sheaf(sub, fT, 1)
    pairing = {(x, w[1]) for (x, w) in pulled.total.points}
    assert pairing == set(own.total.points)
    for (x, w) in pulled.total.points:
        mo1 = {(xx, ww[1]) for (xx, ww) in pulled.total.min_open((x, w))}
        assert mo1 == set(own.total.min_open((x, w[1])))


# -- parameter orbits and elimination -------------------------------------------


def test_parameter_orbit_examples():
    g = aut_groupoid()
    orb = logic.parameter_orbit(g, ("p",))
    assert orb == frozenset({("M", ("a",)), ("M", ("b",))})
    # identities-only: orbit = the interpretations themselves
    gid = ModelGroupoid(PURE, g.params, g.members, [logic.identity_iso(two_elt())])
    assert logic.parameter_orbit(gid, ("p",)) == frozenset({("M", ("a",))})
    # idempotent and monotone via the sheaf-side closure operator
    fT = logic.top_formula(PURE, ("S",))
    s = logic.definable_sheaf(g, fT, 1)
    assert sheaf.orbit_of_subset(s, orb) == orb


def all_indexed_models():
    """The groupoid of all indexed models of pure equality on one or two
    elements, with parameters p, q, r, and all isomorphisms."""
    params = {"p": "S", "q": "S", "r": "S"}
    members = []
    k = 0
    for carrier in (("e",), ("e", "f")):
        for dom_mask in itertools.product([0, 1], repeat=3):
            dom = [pp for pp, mm in zip("pqr", dom_mask) if mm]
            for assign in itertools.product(carrier, repeat=len(dom)):
                if set(assign) == set(carrier):
                    k += 1
                    m = FinModel(f"m{k}", PURE, {"S": set(carrier)})
                    members.append(IndexedModel(m, dict(zip(dom, assign)), params))
    return ModelGroupoid(PURE, params, members, logic.all_isos_between_members(members))


def test_eliminates_parameters_all_indexed_models():
    """The groupoid of all indexed models of pure equality eliminates
    parameters with equality-pattern witnesses."""
    v = logic.eliminates_parameters(all_indexed_models(), 1, 2)
    assert v.answer == "yes"
    by_tuple = {w[0][1]: w[1][1] for w in v.witnesses}
    assert by_tuple[("p", "q")] == "T"
    assert by_tuple[("p", "p")] == "x1 = x2"


def test_eliminates_parameters_identities_only_unknown():
    gid = ModelGroupoid(
        PURE, {"p": "S", "q": "S"},
        [IndexedModel(two_elt(), {"p": "a", "q": "b"}, {"p": "S", "q": "S"})],
        [logic.identity_iso(two_elt())],
    )
    assert logic.eliminates_parameters(gid, 2, 2).answer == "unknown"


def test_eliminates_parameters_full_aut_top_witness():
    v = logic.eliminates_parameters(aut_groupoid(), 1, 1)
    assert v.answer == "yes"
    assert all(w[1][1] == "T" for w in v.witnesses)


# -- ultrahomogeneity ------------------------------------------------------------


def test_ultrahomogeneous_examples():
    assert logic.is_ultrahomogeneous(two_elt(), 1, 2).answer == "yes"
    # edge plus isolated vertex: verdict by exhaustive check
    ei = FinModel("EI", GRAPH, {"V": {0, 1, 2}}, {"E": {(0, 1), (1, 0)}})
    v = logic.is_ultrahomogeneous(ei, 2, 2)
    brute = _ultra_brute(ei, 2, 2)
    assert (v.answer == "yes") == brute
    # two disjoint 3-cycles: automorphisms swap the cycles
    c33 = FinModel(
        "C33", GRAPH, {"V": set(range(6))},
        {"E": {(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)}},
    )
    v2 = logic.is_ultrahomogeneous(c33, 1, 2)
    assert (v2.answer == "yes") == _ultra_brute(c33, 1, 2)
    assert dict(v2.details)["approximate"]


def _ultra_brute(m, depth, cap):
    """Brute force: same-bounded-type tuples are automorphism-linked."""
    eng = logic.DefinableSets(m.signature, [m])
    autos = logic.automorphisms(m)
    for k in range(1, cap + 1):
        for sorts in itertools.combinations_with_replacement(sorted(m.signature.sorts), k):
            exts = list(eng.level(sorts, depth))
            bit = eng.index(sorts)  # extensions are int masks over these pairs
            pools = [sorted(m.carriers[s]) for s in sorts]
            tuples = list(itertools.product(*pools))
            for t1 in tuples:
                for t2 in tuples:
                    tp1 = [i for i, e in enumerate(exts) if e >> bit[(m.name, t1)] & 1]
                    tp2 = [i for i, e in enumerate(exts) if e >> bit[(m.name, t2)] & 1]
                    if tp1 == tp2:
                        if not any(
                            tuple(a.apply(s, e) for s, e in zip(sorts, t1)) == t2
                            for a in autos
                        ):
                            return False
    return True


# -- etale completion -------------------------------------------------------------


def test_completion_already_complete():
    g = aut_groupoid()
    comp = logic.etale_completion(g)
    incl = grpd.Subgroupoid(comp.derive(1).groupoid, g.arrows)
    assert comp.arrows == g.arrows
    assert incl.arrow_set == g.arrows


def test_completion_adds_isos():
    mm = FinModel("M1", PQ, {"S": {"a", "b"}}, {"P": {("a",)}, "Q": {("b",)}})
    nn = FinModel("M2", PQ, {"S": {"a", "b"}}, {"P": {("a",)}, "Q": {("b",)}})
    prm = {"p": "S", "q": "S"}
    gi = ModelGroupoid(
        PQ, prm,
        [IndexedModel(mm, {"p": "a", "q": "b"}, prm),
         IndexedModel(nn, {"p": "a", "q": "b"}, prm)],
        [logic.identity_iso(mm), logic.identity_iso(nn)],
    )
    comp = logic.etale_completion(gi)
    incl = grpd.Subgroupoid(comp.derive(1).groupoid, gi.arrows)
    assert len(comp.arrows) == 4  # the two cross isomorphisms were added
    comp2 = logic.etale_completion(comp)
    assert comp2.arrows == comp.arrows  # idempotent
    v = weq.is_weak_equivalence(incl, mode="all")
    assert v.answer == "yes"


def test_completion_inclusion_weq_on_generated_corpus():
    rng = random.Random(103)
    gs = sober_eliminating_model_groupoids(rng, 6, depth=1, tuple_cap=2)
    assert len(gs) >= 4
    for g in gs:
        comp = logic.etale_completion(g)
        incl = grpd.Subgroupoid(comp.derive(1, 2).groupoid, g.arrows)
        assert weq.is_weak_equivalence(incl, mode="all").answer == "yes"


def test_is_etale_complete_examples():
    g = aut_groupoid()
    # all isos present + sober, but elimination at cap 2 is open-ended
    v = logic.is_etale_complete(g, 1, 1)
    assert v.answer == "yes"
    v2 = logic.is_etale_complete(g, 1, 2)
    assert v2.answer == "unknown"
    assert dict(v2.details)["one_object_groupoid"]
    # missing a cross isomorphism: definite no
    mm = FinModel("M1", PQ, {"S": {"a", "b"}}, {"P": {("a",)}, "Q": {("b",)}})
    nn = FinModel("M2", PQ, {"S": {"a", "b"}}, {"P": {("a",)}, "Q": {("b",)}})
    prm = {"p": "S", "q": "S"}
    gi = ModelGroupoid(
        PQ, prm,
        [IndexedModel(mm, {"p": "a", "q": "b"}, prm),
         IndexedModel(nn, {"p": "a", "q": "b"}, prm)],
        [logic.identity_iso(mm), logic.identity_iso(nn)],
    )
    v3 = logic.is_etale_complete(gi, 1)
    assert v3.answer == "no"
    assert any(dict(w).get("kind") == "missing-isomorphism" for w in v3.witnesses)


def test_model_groupoid_validation():
    m = two_elt()
    # the empty model groupoid is legal (degenerate inputs are fine)
    empty = ModelGroupoid(PURE, {"p": "S"}, [], [])
    assert len(empty.derive(1).objects) == 0
    # missing identity
    with pytest.raises(InputError):
        ModelGroupoid(
            PURE, {"p": "S", "q": "S"},
            [IndexedModel(m, {"p": "a", "q": "b"}, {"p": "S", "q": "S"})],
            [],
        )
    # non-surjective indexing
    with pytest.raises(InputError):
        IndexedModel(m, {"p": "a"}, {"p": "S"})


def test_an_arrow_that_moves_a_constant_is_not_an_isomorphism():
    sig = logic.make_signature(["S"], {}, {"c": "S"})
    m = FinModel("M", sig, {"S": {"a", "b"}}, {}, {"c": "a"})
    params = {"p": "S", "q": "S"}
    im = IndexedModel(m, {"p": "a", "q": "b"}, params)
    swap = logic.Iso("M", "M", (("S", "a", "b"), ("S", "b", "a")))
    assert logic.automorphisms(m) == [logic.identity_iso(m)]
    with pytest.raises(InputError, match="arrow M->M not an isomorphism"):
        ModelGroupoid(sig, params, [im], [logic.identity_iso(m), swap])
