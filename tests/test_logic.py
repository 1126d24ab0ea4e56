import itertools
import random

import pytest

import oracles
from corpus import (
    formula_depth, graph_copies_doc, random_formula_ast, random_model_groupoid,
    sober_eliminating_model_groupoids, terminal_sheaf, top_formula,
)
from topogrpd import grpd, jsonio, logic, sheaf, weq
from topogrpd.errors import FormulaError, InputError
from topogrpd.fintop import FinSpace, ckey
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


def test_sort_errors_found_after_parsing_name_no_position():
    sig = logic.make_signature(["S", "T"], {"P": ("S",), "Q": ("T",)}, {"c": "T"})
    for text, context, message in (
            ("x = c", [("x", "S")], "equality between sorts S and T"),
            ("P(x) /\\ Q(x)", None, "variable x used at two sorts"),
            ("exists y:S. x = x", None, "cannot infer sort of x")):
        with pytest.raises(FormulaError) as e:
            parse_formula(text, sig, context)
        assert (str(e.value), e.value.position) == (message, None)


def test_a_variable_equated_with_a_constant_takes_its_sort():
    """On a two-sorted signature, x's sort is read off the constant that
    x is equated with, on either side of the equality."""
    sig = logic.make_signature(["S", "T"], {"P": ("S",)}, {"c": "T"})
    assert parse_formula("x = c", sig).context == (("x", "T"),)
    assert parse_formula("(exists y:S. P(y)) /\\ c = x", sig).context == (("x", "T"),)


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
    assert formula_depth(f.ast) == 1
    assert formula_depth(parse_formula("T", GRAPH, ()).ast) == 0
    assert formula_depth(parse_formula("T /\\ (T \\/ F)", GRAPH, ()).ast) == 2


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
    autos, models = logic.automorphisms(m), {"M": m}
    for a in autos:
        assert oracles.compose_isos(oracles.invert_iso(a, models), a, models) == logic.identity_iso(m)


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


def test_a_stabilized_derivation_is_shared_by_every_deeper_depth():
    """The chain holds each depth's groupoid once: derive(d) for d above a
    stabilized chain's achieved depth reads that depth's groupoid, and
    equals a cold derivation at d; derive(0), which cannot see
    stabilization, reads the same groupoid, not stabilized.  Each
    DerivedGroupoid is built per call, so identity is asserted on its
    groupoid."""
    g = aut_groupoid()
    d1 = g.derive(1)
    assert d1.stabilized and d1.depth == 0
    assert g.derive(2).groupoid is d1.groupoid and g.derive(5).groupoid is d1.groupoid
    assert g.derive(5) == d1
    cold = logic.logical_topologies(aut_groupoid(), 2)
    assert (cold.objects, cold.arrows, cold.depth, cold.stabilized) == (
        d1.objects, d1.arrows, d1.depth, d1.stabilized)
    d0 = g.derive(0)
    assert d0.groupoid is d1.groupoid and (d0.depth, d0.stabilized) == (0, False)
    assert g.derive(1).groupoid is g.derive(0).groupoid
    assert g.derive(2, tuple_cap=1).groupoid is not d1.groupoid


def test_a_negative_depth_is_an_input_error():
    g = aut_groupoid()
    with pytest.raises(InputError, match="depth -1 is negative"):
        logic.logical_topologies(g, -1)
    with pytest.raises(InputError, match="depth -1 is negative"):
        g.engine().level((), -1)


def test_a_negative_tuple_cap_is_an_input_error():
    g = aut_groupoid()
    with pytest.raises(InputError, match="tuple cap -1 is negative"):
        logic.eliminates_parameters(g, 1, -1)
    with pytest.raises(InputError, match="tuple cap -1 is negative"):
        logic.logical_topologies(g, 1, -1)


def test_two_different_models_under_one_name_are_an_input_error():
    """Their rows would be ORed into one extension: E(x1, x2) would hold
    of both (a, b) and (b, a) on "K", which neither model satisfies."""
    forward = FinModel("K", GRAPH, {"V": {"a", "b"}}, {"E": {("a", "b")}})
    backward = FinModel("K", GRAPH, {"V": {"a", "b"}}, {"E": {("b", "a")}})
    with pytest.raises(InputError, match="two different models named K"):
        logic.DefinableSets(GRAPH, [forward, backward])
    # the same model twice is one member
    twice = logic.DefinableSets(GRAPH, [forward, forward])
    edge = logic.Rel("E", (logic.Var("x1"), logic.Var("x2")))
    exts = {print_formula(ast): twice.decode(("V", "V"), ext)
            for ext, ast in twice.level(("V", "V"), 0).items()}
    assert exts[print_formula(edge)] == {("K", ("a", "b"))}


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
    fT = top_formula(PURE, ("S",))
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
    fT = top_formula(PURE, ())
    s = logic.definable_sheaf(g, fT, 1)
    term = terminal_sheaf(g.derive(1).groupoid)
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
    fT = top_formula(PURE, ("S",))
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
    # closed under the action of the truth sheaf on the same context
    fT = top_formula(PURE, ("S",))
    s = logic.definable_sheaf(g, fT, 1)
    assert {s.action[(a, y)] for y in orb for a in s.base.out_of[s.proj.mapping[y]]} <= orb


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


def test_missing_isomorphisms_are_named_once_per_pair():
    """Two identities-only copies of the symmetric graph {v0->v1, v1->v0}
    miss 6 isomorphisms on 4 (src, tgt) pairs: one witness each."""
    doc = graph_copies_doc([["v0", "v1"], ["v1", "v0"]], 2, ["M0", "M1"], "identities")
    g = jsonio.model_groupoid_from_json(doc)
    assert len(logic.etale_completion(g).arrows - g.arrows) == 6
    v = logic.is_etale_complete(g, 1)
    named = [(w["src"], w["tgt"]) for w in map(dict, v.witnesses)
             if w["kind"] == "missing-isomorphism"]
    assert (v.answer, named) == ("no", [("M0", "M0"), ("M0", "M1"), ("M1", "M0"), ("M1", "M1")])


def test_model_groupoid_validation():
    m = two_elt()
    # the empty model groupoid is legal (degenerate inputs are fine)
    empty = ModelGroupoid(PURE, {"p": "S"}, [], [])
    assert len(empty.derive(1).objects) == 0
    # missing identity
    with pytest.raises(InputError, match="^missing identity on M$"):
        ModelGroupoid(
            PURE, {"p": "S", "q": "S"},
            [IndexedModel(m, {"p": "a", "q": "b"}, {"p": "S", "q": "S"})],
            [],
        )
    # three copies of a one-element model, with some of the isomorphisms
    copies = [IndexedModel(FinModel(n, PURE, {"S": {"a"}}), {"p": "a"}, {"p": "S"})
              for n in ("M1", "M2", "M3")]
    idents = [logic.identity_iso(im.model) for im in copies]

    def iso(src, tgt):
        return logic.Iso(src, tgt, (0,))

    with pytest.raises(InputError, match="^arrows not closed under inverse at M1->M2$"):
        ModelGroupoid(PURE, {"p": "S"}, copies, idents + [iso("M1", "M2")])
    pairs = [iso("M1", "M2"), iso("M2", "M1"), iso("M2", "M3"), iso("M3", "M2")]
    with pytest.raises(InputError, match="^arrows not closed under composition$"):
        ModelGroupoid(PURE, {"p": "S"}, copies, idents + pairs)
    # non-surjective indexing
    with pytest.raises(InputError):
        IndexedModel(m, {"p": "a"}, {"p": "S"})


def test_model_tables_hold_the_arrow_objects():
    """Every value of `unit`, `inv` and `comp` is the very object in
    `arrows`."""
    rng = random.Random(20240812)
    groupoids = [random_model_groupoid(rng) for _ in range(100)]
    groupoids += [logic.etale_completion(g) for g in groupoids]
    moved = 0
    for g in groupoids:
        own = {a: a for a in g.arrows}
        for table in (g.unit, g.inv, g.comp):
            assert all(own[v] is v for v in table.values())
        models = oracles.models_of(g)
        for ba in g.comp.values():
            moved += any(x != y for _, x, y in oracles.triple_map(ba, models))
    assert moved > 600, moved


def test_an_arrow_that_moves_a_constant_is_not_an_isomorphism():
    sig = logic.make_signature(["S"], {}, {"c": "S"})
    m = FinModel("M", sig, {"S": {"a", "b"}}, {}, {"c": "a"})
    params = {"p": "S", "q": "S"}
    im = IndexedModel(m, {"p": "a", "q": "b"}, params)
    swap = logic.Iso("M", "M", (1, 0))
    assert logic.automorphisms(m) == [logic.identity_iso(m)]
    with pytest.raises(InputError, match="arrow M->M not an isomorphism"):
        ModelGroupoid(sig, params, [im], [logic.identity_iso(m), swap])


@pytest.mark.parametrize("sig,carriers,pos", [
    (PURE, {"S": ["a", "b"]}, (0,)),
    (PURE, {"S": ["a", "b"]}, (0, 1, 0)),
    (PURE, {"S": ["a", "b"]}, (1, 1)),
    (PURE, {"S": ["a", "b"]}, (0, 2)),
    (PURE, {"S": ["a", "b"]}, (-1, 0)),
    (logic.make_signature(["A", "B"]), {"A": ["a"], "B": ["b"]}, (1, 0)),
], ids=["too-short", "too-long", "repeated-position", "past-the-end", "negative", "swaps-two-sorts"])
def test_a_hand_built_arrow_that_is_no_bijection_of_the_carriers_is_named(sig, carriers, pos):
    """An arrow's positions must be a bijection of the carriers that keeps
    each sort: too few or too many images, one image twice, an image
    outside the target's positions, or one in another sort's block, which
    no map of a sort's carrier could say, is named.  The last swaps the
    one-element sorts A and B, and with no relations or constants nothing
    else would catch it."""
    m = FinModel("M", sig, carriers)
    params = {f"p{i}": s for i, (s, _) in enumerate(m.layout().pairs)}
    im = IndexedModel(m, {p: e for p, (_, e) in zip(params, m.layout().pairs)}, params)
    with pytest.raises(InputError) as err:
        ModelGroupoid(sig, params, [im], [logic.identity_iso(m), logic.Iso("M", "M", pos)])
    assert str(err.value) == "arrow M->M map not a bijection of the carriers"


@pytest.mark.parametrize("carrier", [
    [3, 10, 2, 0],
    ["b", "a10", "a9", ""],
    [(1, "b"), (1, "a"), (0,), (2, (1, 0)), ()],
    [2, "a", 10, "10"],
    [True, 1, 0, False, 2],
], ids=["ints", "strings", "tuples", "ints-and-strings", "bools-and-ints"])
def test_make_iso_orders_by_sort_and_ckey(carrier):
    """The (sort, ckey) order that triple maps were sorted in is the order
    of `FinModel.layout().pairs`: the sorts by name, not in their declared
    order, and each carrier by `ckey`, whatever order it is given in;
    `index` is each pair's position.  A carrier of tuples is refused
    before any layout is made."""
    sig = logic.make_signature(["V", "A"])
    rng = random.Random(5)
    for _ in range(5):
        listed = {s: rng.sample(carrier, len(carrier)) for s in sig.sorts}
        if any(isinstance(e, tuple) for e in carrier):
            with pytest.raises(InputError, match="^carrier elements must be strings or ints$"):
                FinModel("m", sig, listed)
            continue
        m = FinModel("m", sig, listed)
        layout = m.layout()
        assert layout.pairs == tuple(sorted(((s, e) for s in sig.sorts for e in m.carriers[s]),
                                            key=lambda t: (t[0], ckey(t[1]))))
        assert layout.index == {pair: i for i, pair in enumerate(layout.pairs)}
