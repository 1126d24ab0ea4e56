"""Seeded generators of benchmark inputs.

These are the benchmark's own copies, deliberately not imported from
tests/: an edit to the test corpora must not silently change what the
benchmark measures.  Every function takes a random.Random and touches
no other source of randomness, so one seed gives one input set.
"""

import random
from itertools import permutations, product

from topogrpd import fintop, grpd, logic
from topogrpd.fintop import FinSpace
from topogrpd.grpd import TopGroupoid
from topogrpd.logic import FinModel, IndexedModel, ModelGroupoid

# -- spaces -------------------------------------------------------------------


def random_space(rng: random.Random, n: int) -> FinSpace:
    """A space on range(n) generated by a random subbasis."""
    points = list(range(n))
    subbasis = [
        {p for p in points if rng.random() < 0.5} for _ in range(rng.randint(0, n + 1))
    ]
    return fintop.generate_topology(points, subbasis)


def random_t0_space(rng: random.Random, n: int, density: float) -> FinSpace:
    """A T0 space on range(n): the up-set topology of a random order
    (the transitive closure of random pairs i < j of a shuffled labelling)."""
    label = list(range(n))
    rng.shuffle(label)
    up = {i: {i} for i in range(n)}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                up[i].add(j)
    for i in reversed(range(n)):
        for j in list(up[i]):
            up[i] |= up[j]
    return FinSpace(range(n), {label[i]: {label[j] for j in up[i]} for i in range(n)})


# -- groups and groupoids -----------------------------------------------------


def cyclic_mult(n):
    return {(a, b): (a + b) % n for a in range(n) for b in range(n)}


def klein_mult():
    els = [(0, 0), (0, 1), (1, 0), (1, 1)]
    return {(a, b): ((a[0] + b[0]) % 2, (a[1] + b[1]) % 2) for a in els for b in els}


def s3_mult():
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


def pair_groupoid(objects, mult, tag="") -> TopGroupoid:
    """Discrete groupoid on `objects`, all isomorphic, with the vertex
    group of `mult`: arrows (x, y, h) from x to y."""
    els = fintop.sorted_points({a for (a, _) in mult})
    objs = [f"{tag}{o}" for o in objects]
    arrows = [(x, y, h) for x in objs for y in objs for h in els]
    ident = next(e for e in els if all(mult[(e, x)] == x for x in els))
    inv = {h: next(k for k in els if mult[(h, k)] == ident) for h in els}
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


def disjoint_union(parts) -> TopGroupoid:
    """Coproduct of discrete groupoids with disjoint point sets."""
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


def random_discrete_groupoid(rng: random.Random) -> TopGroupoid:
    """A union of pair groupoids of small groups, at most 12 arrows."""
    parts = []
    total = 0
    while True:
        mult = SMALL_GROUPS[rng.choice(sorted(SMALL_GROUPS))]
        order = len({a for (a, _) in mult})
        k = rng.randint(1, 2)
        if total + k * k * order > 12 or (parts and rng.random() < 0.4):
            break
        tag = f"c{len(parts)}"
        parts.append(pair_groupoid([f"o{i}" for i in range(k)], mult, tag=tag))
        total += k * k * order
        if rng.random() < 0.5:
            break
    if not parts:
        parts = [pair_groupoid(["o0"], SMALL_GROUPS["1"], tag="c0")]
    return disjoint_union(parts)


# -- model groupoids ----------------------------------------------------------

GRAPH = logic.make_signature(["V"], {"E": ("V", "V")})
POINTED = logic.make_signature(["V"], {"E": ("V", "V"), "P": ("V",)})


def random_structure(rng: random.Random, name, size, sig) -> FinModel:
    carrier = [f"v{i}" for i in range(size)]
    rels = {}
    for rname, arity in sig.relation_arities.items():
        rels[rname] = {
            row for row in product(carrier, repeat=len(arity)) if rng.random() < 0.4
        }
    return FinModel(name, sig, {"V": carrier}, rels)


def indexed(model: FinModel, params) -> IndexedModel:
    els = fintop.sorted_points(model.carriers["V"])
    names = sorted(params)
    return IndexedModel(model, {names[i]: e for i, e in enumerate(els)}, params)


def random_model_groupoid(rng: random.Random, max_models=2, max_size=2) -> ModelGroupoid:
    """Indexed copies of one random structure (plus possibly a second,
    non-isomorphic one), with automorphisms, all isomorphisms or only
    identities as arrows."""
    sig = rng.choice([GRAPH, POINTED])
    size = rng.randint(1, max_size)
    params = {f"p{i}": "V" for i in range(size)}
    base = random_structure(rng, "M1", size, sig)
    members = [indexed(base, params)]
    style = rng.choice(["single", "copies", "mixed"])
    if style in ("copies", "mixed"):
        copies = rng.randint(2, max_models)
        members = [
            indexed(FinModel(f"M{i + 1}", sig, base.carriers, base.relations), params)
            for i in range(copies)
        ]
        if style == "mixed":
            other = random_structure(rng, f"M{copies + 1}", size, sig)
            if not logic.model_isomorphisms(base, other):
                members.append(indexed(other, params))
    arrow_style = rng.choice(["autos", "all", "identities"])
    if arrow_style == "all":
        probe = ModelGroupoid(
            sig, params, members, [logic.identity_iso(im.model) for im in members]
        )
        arrows = logic.all_isos_between_members(probe)
    elif arrow_style == "autos":
        arrows = {a for im in members for a in logic.automorphisms(im.model)}
    else:
        arrows = {logic.identity_iso(im.model) for im in members}
    return ModelGroupoid(sig, params, members, frozenset(arrows))


# -- the mixed corpus ---------------------------------------------------------


def t0_space_groupoid(rng: random.Random, n: int) -> TopGroupoid | None:
    """Space groupoid of a random n-point space, or None when it is not T0."""
    g = grpd.space_groupoid(random_space(rng, n))
    return g if fintop.is_t0(g.objects) else None


def derived_model_groupoid(rng: random.Random) -> TopGroupoid | None:
    """Logical-topology groupoid of a random model groupoid, or None when it
    falls outside the scope the criteria cover (open T0 groupoids with at
    most 12 arrows)."""
    g = random_model_groupoid(rng).derive(1, 2).groupoid
    if len(g.arrows.points) > 12:
        return None
    if not (fintop.is_t0(g.objects) and fintop.is_t0(g.arrows)):
        return None
    if grpd.validate_groupoid(g):
        return None
    return g


def subgroupoid_arrow_sets(g: TopGroupoid):
    """Every subgroupoid of g (open or not, the empty one included) as an
    arrow set, in an order fixed by the benchmark rather than by the
    package: the join-closure of the closures of single arrows."""
    s, t, inv, comp = g.src.mapping, g.tgt.mapping, g.inv.mapping, g.comp

    def close(arrows):
        closed = set(arrows)
        frontier = list(closed)
        while frontier:
            a = frontier.pop()
            new = [inv[a]]
            new += [comp[(a, b)] for b in closed if s[a] == t[b]]
            new += [comp[(b, a)] for b in closed if s[b] == t[a]]
            for c in new:
                if c not in closed:
                    closed.add(c)
                    frontier.append(c)
        return frozenset(closed)

    atoms = {close({a}) for a in g.arrows.points}
    seen = {frozenset()} | atoms
    frontier = list(atoms)
    while frontier:
        nxt = []
        for x in frontier:
            for a in atoms:
                if not a <= x:
                    j = close(x | a)
                    if j not in seen:
                        seen.add(j)
                        nxt.append(j)
        frontier = nxt
    return sorted(seen, key=lambda x: (len(x), sorted(map(repr, x))))
