"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s`.  All tolerances are
exact (0 disagreements / 0 failures) as stated; corpora are seeded and
regenerate identically.
"""

import random
import time

import pytest

import groupcat
import oracles
from corpus import (
    groupoid_corpus,
    random_formula_ast,
    random_functor,
    sober_eliminating_model_groupoids,
    t0_spaces_up_to,
)
from topogrpd import fintop, frac, grpd, logic, sheaf, weq

SEED = 20240811


@pytest.fixture(scope="module")
def weq_corpus():
    rng = random.Random(SEED)
    corp = groupoid_corpus(rng, 500)
    pairs = []
    for g in corp:
        for y in grpd.enumerate_subgroupoids(g, budget=4096):
            pairs.append((g, y))
    return corp, pairs


def test_criterion_1_mode_agreement(weq_corpus):
    """Three modes of is_weak_equivalence agree exactly on >= 500 random
    groupoids and all their subgroupoid inclusions, within 5 minutes."""
    corp, pairs = weq_corpus
    t0 = time.time()
    assert len(corp) >= 500
    assert all(len(g.arrows.points) <= 12 for g in corp)
    disagreements = 0
    for _, y in pairs:
        # mode="all" raises OracleDisagreement on any mismatch
        weq.is_weak_equivalence(y, mode="all")
    elapsed = time.time() - t0
    assert elapsed < 300, f"runtime target missed: {elapsed:.1f}s"
    print(
        f"\n[criterion 1] PASS mode triple-agreement: {len(corp)} groupoids, "
        f"{len(pairs)} inclusions, {disagreements} disagreements, {elapsed:.1f}s"
    )


def test_criterion_2_conjunction_decomposition(weq_corpus):
    """weak-equivalence = surjection-criterion AND inclusion-criterion,
    exactly, on the same corpus."""
    _, pairs = weq_corpus
    mismatches = 0
    for _, y in pairs:
        w = weq.is_weak_equivalence(y, mode="quasi-homeo").answer == "yes"
        s = weq.is_localic_surjection(y).answer == "yes"
        i = weq.is_subtopos_inclusion(y).answer == "yes"
        if w != (s and i):
            mismatches += 1
    assert mismatches == 0
    print(
        f"\n[criterion 2] PASS decomposition: {len(pairs)} inclusions, "
        f"{mismatches} mismatches"
    )


def test_criterion_3_moerdijk_generators_for_groups():
    """For all groups of order <= 24 and all subgroups H, the generator
    sheaf is the coset space G/H with the transitive left action."""
    catalog = groupcat.groups_up_to(24)
    groups = sum(len(v) for v in catalog.values())
    checked = 0
    for n in sorted(catalog):
        for table in catalog[n]:
            mult = groupcat.table_to_mult(table)
            g = grpd.group_groupoid(range(n), mult)
            for h_set in oracles.subgroups_oracle(frozenset(range(n)), mult):
                h = grpd.Subgroupoid(g, h_set)
                gen = sheaf.moerdijk_generator(g, h)
                index = n // len(h_set)
                assert len(gen.total) == index
                cosets = {
                    frozenset(mult[(x, y)] for y in h_set) for x in range(n)
                }
                assert {frozenset(c) for c in gen.total.points} == cosets
                # transitive left action: one orbit
                reached = {next(iter(gen.total.points))}
                frontier = list(reached)
                while frontier:
                    c = frontier.pop()
                    for a in range(n):
                        if g.src.mapping[a] == gen.proj.mapping[c]:
                            z = gen.action[(a, c)]
                            if z not in reached:
                                reached.add(z)
                                frontier.append(z)
                assert reached == set(gen.total.points)
                checked += 1
    assert groups == 74
    print(
        f"\n[criterion 3] PASS Moerdijk generators: {groups} groups, "
        f"{checked} (G,H) pairs, exact coset match"
    )


def test_criterion_4_full_replete_subtopos(weq_corpus):
    """Every full replete inclusion in the corpus passes the subtopos
    criterion."""
    corp, _ = weq_corpus
    failures = 0
    checked = 0
    for g in corp:
        orbits = {
            frozenset(grpd.object_orbit_closure(g, {x})) for x in g.objects.points
        }
        orbit_list = sorted(orbits, key=lambda s: sorted(map(fintop.ckey, s)))
        for mask in range(1, 2 ** min(len(orbit_list), 5)):
            objs = frozenset().union(
                *(o for i, o in enumerate(orbit_list) if mask >> i & 1)
            )
            fr = grpd.full_subgroupoid_on(g, objs)
            assert grpd.is_full(fr) and grpd.is_replete(fr)
            if weq.is_subtopos_inclusion(fr).answer != "yes":
                failures += 1
            checked += 1
    assert failures == 0
    print(
        f"\n[criterion 4] PASS full replete => subtopos: {checked} inclusions, "
        f"{failures} failures"
    )


def test_criterion_5_discrete_groupoid_reduction():
    """For all finite T0 spaces with <= 5 points (up to homeomorphism)
    and all subspaces: weak equivalence of the discrete-groupoid
    inclusion = Skula density = being the whole set."""
    spaces = t0_spaces_up_to(5)
    checked = 0
    for sp in spaces:
        # Skula oracle: the Skula space of a finite T0 space is discrete
        assert fintop.skula_space(sp) == fintop.FinSpace.discrete(sp.points)
        g = grpd.space_groupoid(sp)
        pts = sorted(sp.points, key=fintop.ckey)
        for mask in range(2 ** len(pts)):
            sub = frozenset(p for i, p in enumerate(pts) if mask >> i & 1)
            v = weq.is_weak_equivalence(
                grpd.full_subgroupoid_on(g, sub), mode="all"
            )
            dense = fintop.is_skula_dense(sub, sp)
            assert (v.answer == "yes") == dense == (sub == sp.points)
            checked += 1
    print(
        f"\n[criterion 5] PASS discrete reduction: {len(spaces)} spaces, "
        f"{checked} subspaces, exact"
    )


@pytest.fixture(scope="module")
def model_corpus():
    rng = random.Random(SEED + 1)
    return sober_eliminating_model_groupoids(
        rng, 50, depth=1, tuple_cap=2, max_models=3, max_size=3
    )


def test_criterion_6_etale_completion(model_corpus):
    """On >= 50 sober parameter-eliminating model groupoids, the
    inclusion into the etale completion is a weak equivalence in all
    modes, and completion is idempotent."""
    assert len(model_corpus) >= 50
    failures = 0
    for g in model_corpus:
        comp = logic.etale_completion(g)
        incl = grpd.Subgroupoid(comp.derive(1, 2).groupoid, g.arrows)
        for mode in weq.MODES:
            if weq.is_weak_equivalence(incl, mode=mode).answer != "yes":
                failures += 1
        again = logic.etale_completion(comp)
        assert again.arrows == comp.arrows
    assert failures == 0
    print(
        f"\n[criterion 6] PASS etale completion: {len(model_corpus)} groupoids, "
        f"3 modes each, {failures} failures, idempotent"
    )


def test_criterion_7_factorization_certificates():
    """>= 100 generated functors factor with passing certificates on
    both legs."""
    rng = random.Random(SEED + 2)
    corp = groupoid_corpus(rng, 40)
    failures = 0
    count = 0
    while count < 100:
        f = random_functor(rng, corp)
        fz = weq.factorize(f)
        if not fz.certificates_pass():
            failures += 1
        count += 1
    assert failures == 0
    print(
        f"\n[criterion 7] PASS factorization: {count} functors, "
        f"{failures} certificate failures"
    )


def test_criterion_8_definable_sheaf_pullback(model_corpus):
    """Pulling back a definable sheaf along a model-subgroupoid inclusion
    equals the subgroupoid's own definable sheaf, exactly (points,
    topologies and actions compared through the canonical pairing)."""
    rng = random.Random(SEED + 3)
    checked = 0
    for g in model_corpus[:20]:
        derived = g.derive(1, 2).groupoid
        # subgroupoid: a sub-closed set of arrows, viewed as model data
        arrows = sorted(g.arrows, key=fintop.ckey)
        keep = {a for a in arrows if rng.random() < 0.6}
        keep |= {logic.identity_iso(im.model) for im in g.members}
        closed = set(keep)
        changed = True
        while changed:
            changed = False
            for a in list(closed):
                if logic.invert_iso(a) not in closed:
                    closed.add(logic.invert_iso(a))
                    changed = True
                for b in list(closed):
                    if b.src == a.tgt:
                        c = logic.compose_isos(b, a)
                        if c not in closed:
                            closed.add(c)
                            changed = True
        sub_names = {a.src for a in closed} | {a.tgt for a in closed}
        sub_members = [im for im in g.members if im.name in sub_names]
        sub = logic.ModelGroupoid(g.signature, g.params, sub_members, closed)
        incl = grpd.Subgroupoid(derived, frozenset(closed))
        for ctx_sorts in ((), (g.signature.sorts[0],)):
            formula = logic.top_formula(g.signature, ctx_sorts)
            pulled = sheaf.inverse_image(
                incl.inclusion_functor(), logic.definable_sheaf(g, formula, 1, 2)
            )
            own = logic.definable_sheaf(sub, formula, 1, 2)
            pair = {(x, w[1]): (x, w) for (x, w) in pulled.total.points}
            assert set(pair) == set(own.total.points)
            for p, q in pair.items():
                got = {(x, w[1]) for (x, w) in pulled.total.min_open(q)}
                assert got == set(own.total.min_open(p))
            for (a, (x, w)), z in pulled.action.items():
                assert own.action[(a, (x, w[1]))] == (z[0], z[1][1])
            checked += 1
    assert checked >= 20
    print(
        f"\n[criterion 8] PASS definable pullback identity: {checked} "
        f"(groupoid, formula) cases, exact"
    )


def test_criterion_9_fraction_laws():
    """Unit laws up to certified cospan isomorphism and certified
    composite legs on a 30-case corpus."""
    rng = random.Random(SEED + 4)
    gs = sober_eliminating_model_groupoids(
        rng, 12, depth=1, tuple_cap=2, max_models=2, max_size=2
    )
    cases = 0
    failures = 0
    for g in gs:
        comp = logic.etale_completion(g)
        mi = frac.ModelInclusion(g, comp)
        f = frac.make_cospan(mi.as_model_functor(), mi, 1, 2)
        idl = frac.identity_cospan(g, 1, 2)
        idr = frac.identity_cospan(comp, 1, 2)
        left = frac.compose(idl, f)
        if frac.cospans_isomorphic(left, f) is None:
            failures += 1
        cases += 1
        right = frac.compose(f, idr)
        if frac.cospans_isomorphic(right, f) is None:
            failures += 1
        cases += 1
        if right.certificate.answer != "yes" or left.certificate.answer != "yes":
            failures += 1
        composite = frac.compose(f, idr)
        if composite.certificate.answer != "yes":
            failures += 1
        cases += 1
        if cases >= 30:
            break
    assert cases >= 30, f"only {cases} corpus cases"
    assert failures == 0
    print(
        f"\n[criterion 9] PASS fraction laws: {cases} cases, {failures} failures"
    )


def test_criterion_10_parser_roundtrip():
    """Print/parse round-trip on 1000 generated formulas, exact."""
    rng = random.Random(SEED + 5)
    sigs = [
        logic.make_signature(["S"]),
        logic.make_signature(["V"], {"E": ("V", "V")}),
        logic.make_signature(["S"], {"P": ("S",), "Q": ("S",)}, {"c": "S"}),
        logic.make_signature(["A", "B"], {"R": ("A", "B")}, {"a0": "A"}),
    ]
    count = 0
    for _ in range(1000):
        sig = rng.choice(sigs)
        ctx = tuple(
            (f"x{i}", rng.choice(sig.sorts)) for i in range(rng.randint(0, 3))
        )
        ast = random_formula_ast(rng, sig, ctx, rng.randint(0, 4))
        text = logic.print_formula(ast)
        back = logic.parse_formula(text, sig, context=ctx)
        assert back.ast == ast, text
        count += 1
    assert count == 1000
    print(f"\n[criterion 10] PASS parser round-trip: {count} formulas, exact")
