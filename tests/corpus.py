"""Deterministic random corpora shared by the tests.

Everything is seeded; regenerating with the same seed gives the same
objects.  Groupoid generators mix categorically discrete groupoids on
random finite spaces, topologically discrete algebraic groupoids built
from pair-groupoid components, and logical-topology groupoids derived
from small model groupoids."""

import random
from itertools import product

from topogrpd import fintop, grpd, logic
from topogrpd.fintop import FinSpace
from topogrpd.grpd import TopGroupoid
from topogrpd.logic import FinModel, IndexedModel, ModelGroupoid


# -- spaces -------------------------------------------------------------------


def random_space(rng: random.Random, max_points=4) -> FinSpace:
    n = rng.randint(0, max_points)
    points = list(range(n))
    subbasis = []
    for _ in range(rng.randint(0, n + 1)):
        subbasis.append({p for p in points if rng.random() < 0.5})
    return fintop.generate_topology(points, subbasis)


def all_posets(n: int):
    """All partial orders on range(n), as frozensets of (lesser, greater)
    pairs (irreflexive part).  Built by adding elements one at a time."""
    posets = [frozenset()]
    for k in range(1, n):
        nxt = []
        for rel in posets:
            for downs in _downsets(range(k), rel):
                for ups in _upsets(range(k), rel):
                    if downs & ups:
                        continue
                    if all((d, u) in rel for d in downs for u in ups):
                        new = set(rel)
                        new.update((d, k) for d in downs)
                        new.update((k, u) for u in ups)
                        nxt.append(frozenset(new))
        posets = nxt
    return posets


def _downsets(points, rel):
    points = list(points)
    out = []
    for mask in product([0, 1], repeat=len(points)):
        s = {p for p, m in zip(points, mask) if m}
        if all(j in s for i in s for (j, i2) in rel if i2 == i):
            out.append(frozenset(s))
    return out


def _upsets(points, rel):
    points = list(points)
    out = []
    for mask in product([0, 1], repeat=len(points)):
        s = {p for p, m in zip(points, mask) if m}
        if all(j in s for i in s for (i2, j) in rel if i2 == i):
            out.append(frozenset(s))
    return out


def poset_space(n, rel) -> FinSpace:
    """The T0 space whose minimal open of x is its up-set."""
    ups = {i: frozenset({i} | {j for (i2, j) in rel if i2 == i}) for i in range(n)}
    return FinSpace(range(n), ups)


def t0_spaces_up_to(n: int):
    """Representatives of all T0 spaces with <= n points up to
    homeomorphism (poset isomorphism classes)."""
    out = []
    seen = []
    for k in range(0, n + 1):
        for rel in set(all_posets(k)) if k else [frozenset()]:
            canon = _poset_canon(k, rel)
            if canon not in seen:
                seen.append(canon)
                out.append(poset_space(k, rel))
    return out


def _poset_canon(n, rel):
    from itertools import permutations

    best = None
    for perm in permutations(range(n)):
        img = frozenset((perm[a], perm[b]) for (a, b) in rel)
        key = tuple(sorted(img))
        if best is None or key < best:
            best = key
    return (n, best)


# -- small groups as multiplication maps --------------------------------------


def cyclic_mult(n):
    return {(a, b): (a + b) % n for a in range(n) for b in range(n)}


def klein_mult():
    els = [(0, 0), (0, 1), (1, 0), (1, 1)]
    return {
        (a, b): ((a[0] + b[0]) % 2, (a[1] + b[1]) % 2) for a in els for b in els
    }


def s3_mult():
    from itertools import permutations

    els = list(permutations(range(3)))
    return {(p, q): tuple(p[q[i]] for i in range(3)) for p in els for q in els}


SMALL_GROUPS = {
    "1": cyclic_mult(1),
    "Z2": cyclic_mult(2),
    "Z3": cyclic_mult(3),
    "Z4": cyclic_mult(4),
    "V4": klein_mult(),
    "S3": s3_mult(),
}


# -- groupoids ----------------------------------------------------------------


def pair_groupoid(objects, mult, tag="") -> TopGroupoid:
    """Discrete groupoid with the given objects all isomorphic, vertex
    group the group of `mult`: arrows (x, y, h) from x to y."""
    els = sorted({a for (a, _) in mult}, key=fintop.ckey)
    objs = [f"{tag}{o}" for o in objects]
    arrows = [(x, y, h) for x in objs for y in objs for h in els]
    ident = next(e for e in els if all(mult[(e, x)] == x for x in els))
    inv = {}
    for h in els:
        inv[h] = next(k for k in els if mult[(h, k)] == ident)
    comp = {}
    for (x, y, h1) in arrows:
        for (y2, z, h2) in arrows:
            if y2 == y:
                comp[((y, z, h2), (x, y, h1))] = (x, z, mult[(h2, h1)])
    return TopGroupoid(
        FinSpace.discrete(objs),
        FinSpace.discrete(arrows),
        {a: a[0] for a in arrows},
        {a: a[1] for a in arrows},
        {x: (x, x, ident) for x in objs},
        {a: (a[1], a[0], inv[a[2]]) for a in arrows},
        comp,
    )


def disjoint_union_groupoids(parts) -> TopGroupoid:
    """Coproduct of discrete groupoids (points assumed disjoint)."""
    objs, arrs, src, tgt, unit, inv, comp = set(), set(), {}, {}, {}, {}, {}
    for g in parts:
        objs |= g.objects.points
        arrs |= g.arrows.points
        src.update(g.src.mapping)
        tgt.update(g.tgt.mapping)
        unit.update(g.unit.mapping)
        inv.update(g.inv.mapping)
        comp.update(g.comp)
    return TopGroupoid(
        FinSpace.discrete(objs), FinSpace.discrete(arrs), src, tgt, unit, inv, comp
    )


def random_discrete_groupoid(rng: random.Random, max_arrows=12) -> TopGroupoid:
    parts = []
    total = 0
    tag = 0
    while True:
        name = rng.choice(sorted(SMALL_GROUPS))
        mult = SMALL_GROUPS[name]
        order = len({a for (a, _) in mult})
        k = rng.randint(1, 2)
        size = k * k * order
        if total + size > max_arrows or (parts and rng.random() < 0.4):
            break
        parts.append(pair_groupoid([f"o{tag}_{i}" for i in range(k)], mult, tag=f"c{tag}"))
        tag += 1
        total += size
        if rng.random() < 0.5:
            break
    if not parts:
        parts = [pair_groupoid(["o0"], SMALL_GROUPS["1"], tag="c0")]
    return disjoint_union_groupoids(parts)


# -- model groupoids -----------------------------------------------------------


GRAPH = logic.make_signature(["V"], {"E": ("V", "V")})
POINTED = logic.make_signature(["V"], {"E": ("V", "V"), "P": ("V",)})


def _random_structure(rng: random.Random, name, size, sig) -> FinModel:
    carrier = [f"v{i}" for i in range(size)]
    rels = {}
    for rname, arity in sig.relation_arities.items():
        rows = set()
        for row in product(carrier, repeat=len(arity)):
            if rng.random() < 0.4:
                rows.add(row)
        rels[rname] = rows
    return FinModel(name, sig, {"V": carrier}, rels)


def _indexed(model: FinModel, params) -> IndexedModel:
    els = fintop.sorted_points(model.carriers["V"])
    assign = {}
    names = sorted(params)
    for i, e in enumerate(els):
        assign[names[i]] = e
    return IndexedModel(model, assign, params)


def random_model_groupoid(rng: random.Random, max_models=3, max_size=3) -> ModelGroupoid:
    """A small groupoid of indexed models; arrows are either per-member
    automorphism groups or all isomorphisms."""
    sig = rng.choice([GRAPH, POINTED])
    size = rng.randint(1, max_size)
    params = {f"p{i}": "V" for i in range(size)}
    base = _random_structure(rng, "M1", size, sig)
    members = [_indexed(base, params)]
    style = rng.choice(["single", "copies", "mixed"])
    if style in ("copies", "mixed") and max_models >= 2:
        copies = rng.randint(2, max_models)
        members = []
        for i in range(copies):
            m = FinModel(f"M{i + 1}", sig, base.carriers, base.relations, base.constants)
            members.append(_indexed(m, params))
        if style == "mixed":
            other = _random_structure(rng, f"M{copies + 1}", size, sig)
            if not logic.model_isomorphisms(base, other):
                members.append(_indexed(other, params))
    arrow_style = rng.choice(["autos", "all", "identities"])
    if arrow_style == "all":
        probe = ModelGroupoid(
            sig, params, members, [logic.identity_iso(im.model) for im in members]
        )
        arrows = logic.all_isos_between_members(probe)
    elif arrow_style == "autos":
        arrows = set()
        for im in members:
            arrows.update(logic.automorphisms(im.model))
    else:
        arrows = {logic.identity_iso(im.model) for im in members}
    return ModelGroupoid(sig, params, members, frozenset(arrows))


def sober_eliminating_model_groupoids(rng: random.Random, count, depth=1,
                                      tuple_cap=2, max_models=3, max_size=3,
                                      max_tries=4000):
    """Model groupoids satisfying the completion theorem's hypotheses:
    T0 (sober) object space at the working depth and a definite
    parameter-elimination certificate."""
    out = []
    tries = 0
    while len(out) < count and tries < max_tries:
        tries += 1
        g = random_model_groupoid(rng, max_models, max_size)
        derived = g.derive(depth, tuple_cap)
        if not fintop.is_t0(derived.objects):
            continue
        if logic.eliminates_parameters(g, depth, tuple_cap).answer != "yes":
            continue
        if grpd.validate_groupoid(derived.groupoid):
            continue
        out.append(g)
    return out


def groupoid_corpus(rng: random.Random, count):
    """Mixed corpus for the criteria: categorically discrete groupoids on
    random spaces, discrete algebraic groupoids, and logical-topology
    groupoids of model groupoids.

    Only valid open T0 groupoids are kept, the scope the criteria cover:
    a model groupoid failing parameter elimination can have a non-open
    source map, and on non-T0 arrow spaces the literal source-determined
    quantifier is strictly stronger than subobject surjectivity (the
    saturation of an open arrow set need not be open there)."""
    out = []
    while len(out) < count:
        kind = rng.random()
        if kind < 0.4:
            g = grpd.space_groupoid(random_space(rng, max_points=4))
            if not fintop.is_t0(g.objects):
                continue
        elif kind < 0.8:
            g = random_discrete_groupoid(rng, max_arrows=12)
        else:
            g = random_model_groupoid(rng, max_models=2, max_size=2).derive(1, 2).groupoid
            if len(g.arrows.points) > 12:
                continue
            if not (fintop.is_t0(g.objects) and fintop.is_t0(g.arrows)):
                continue
            if grpd.validate_groupoid(g):
                continue
        out.append(g)
    return out


# -- functors -----------------------------------------------------------------


def random_functor(rng: random.Random, corpus):
    """A continuous functor drawn from a few families over the corpus."""
    kind = rng.choice(["identity", "inclusion", "constant", "space-map"])
    g = rng.choice(corpus)
    if kind == "identity":
        return grpd.identity_functor(g)
    if kind == "inclusion":
        subs = grpd.enumerate_subgroupoids(g, budget=512)
        subs = [s for s in subs if s.arrow_set]
        if not subs:
            return grpd.identity_functor(g)
        return rng.choice(subs).inclusion_functor()
    if kind == "constant" and g.objects.points:
        x0 = rng.choice(fintop.sorted_points(g.objects.points))
        e0 = g.unit.mapping[x0]
        return grpd.ContinuousFunctor(
            g, g,
            {x: x0 for x in g.objects.points},
            {a: e0 for a in g.arrows.points},
        )
    if kind == "space-map":
        dom = grpd.space_groupoid(random_space(rng, max_points=4))
        if not dom.objects.points or not g.objects.points:
            return grpd.identity_functor(g)
        for _ in range(20):
            assign = {
                x: rng.choice(fintop.sorted_points(g.objects.points))
                for x in dom.objects.points
            }
            obj_map = fintop.ContinuousMap(
                dom.objects, g.objects, assign, check=False
            )
            if obj_map.is_continuous():
                return grpd.ContinuousFunctor(
                    dom, g, assign,
                    {a: g.unit.mapping[assign[a]] for a in dom.arrows.points},
                )
        return grpd.identity_functor(g)
    return grpd.identity_functor(g)


# -- formulas -----------------------------------------------------------------


def random_formula_ast(rng: random.Random, sig, ctx, depth):
    """A random well-sorted geometric formula AST over the context."""
    terms = {}
    for v, s in ctx:
        terms.setdefault(s, []).append(logic.Var(v))
    for c, s in sig.constants:
        terms.setdefault(s, []).append(logic.Const(c))

    def atom():
        kinds = ["top", "bot"]
        if any(len(ts) >= 1 for ts in terms.values()):
            kinds.append("eq")
        if sig.relations and all(
            all(terms.get(s) for s in arity) for _, arity in sig.relations
        ):
            kinds.append("rel")
        k = rng.choice(kinds)
        if k == "top":
            return logic.Top()
        if k == "bot":
            return logic.Bot()
        if k == "eq":
            s = rng.choice([s for s, ts in terms.items() if ts])
            return logic.Eq(rng.choice(terms[s]), rng.choice(terms[s]))
        rname, arity = rng.choice(sig.relations)
        return logic.Rel(rname, tuple(rng.choice(terms[s]) for s in arity))

    def build(d):
        if d == 0 or rng.random() < 0.3:
            return atom()
        k = rng.choice(["and", "or", "exists"])
        if k == "and":
            return logic.And(build(d - 1), build(d - 1))
        if k == "or":
            return logic.Or(tuple(build(d - 1) for _ in range(rng.randint(2, 3))))
        s = rng.choice(sig.sorts)
        v = f"b{rng.randint(0, 999)}"
        terms.setdefault(s, []).append(logic.Var(v))
        body = build(d - 1)
        terms[s] = [t for t in terms[s] if not (isinstance(t, logic.Var) and t.name == v)]
        return logic.Exists(v, s, body)

    return build(depth)
