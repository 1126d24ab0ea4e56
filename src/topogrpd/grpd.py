"""Finite topological groupoids, functors, transformations and (bi-)orbits.

Composition convention: comp[(g, f)] = g o f, defined when src(g) = tgt(f)
(f first).  The JSON triple [f, g, h] means h = g o f.

All structures are immutable after construction; structural shape is
enforced at construction time, while the semantic laws (continuity,
groupoid axioms, openness of the source map) are reported by
validate_groupoid as a list of named diagnostics.
"""

from __future__ import annotations

from itertools import product

from . import fintop
from .errors import BistabilityError, BudgetExceeded, InputError
from .fintop import ContinuousMap, FinSpace, ckey, fmt_point, sorted_points


def _as_map(m, domain, codomain):
    if isinstance(m, ContinuousMap):
        if m.domain != domain or m.codomain != codomain:
            raise InputError("structure map has wrong domain or codomain")
        return m
    return ContinuousMap(domain, codomain, m, check=False)


class TopGroupoid:
    """A groupoid internal to finite spaces: arrows over objects.

    `_cache` holds four memos of complete results derived from it:
    "open_subgroupoids" (the open family, budget checked on every read),
    "moerdijk" (generator sheaves by u.arrow_set), "iota_cod" ((ambient,
    u)-bi-orbit spaces by u.arrow_set) and "restriction" (subobject
    restrictions by (incl.arrow_set, u.arrow_set), cap checked on every
    read).
    """

    __slots__ = ("objects", "arrows", "src", "tgt", "unit", "inv", "comp", "_cache")

    def __init__(self, objects: FinSpace, arrows: FinSpace, src, tgt, unit, inv, comp):
        self.objects = objects
        self.arrows = arrows
        self.src = _as_map(src, arrows, objects)
        self.tgt = _as_map(tgt, arrows, objects)
        self.unit = _as_map(unit, objects, arrows)
        self.inv = _as_map(inv, arrows, arrows)
        self.comp = dict(comp)
        for (g, f), h in self.comp.items():
            if g not in arrows.points or f not in arrows.points or h not in arrows.points:
                raise InputError("comp entry outside arrow set")
        self._cache = {}

    # -- structure ------------------------------------------------------

    def compose(self, g, f):
        """g o f (f first)."""
        return self.comp[(g, f)]

    def inverse(self, a):
        return self.inv.mapping[a]

    def composable_pairs(self):
        by_tgt = {}
        for f in self.arrows.points:
            by_tgt.setdefault(self.tgt.mapping[f], []).append(f)
        for g in self.arrows.points:
            for f in by_tgt.get(self.src.mapping[g], ()):
                yield g, f

    def arrows_between(self, x, y):
        return [
            a
            for a in self.arrows.points
            if self.src.mapping[a] == x and self.tgt.mapping[a] == y
        ]

    def is_open(self) -> bool:
        return fintop.is_open_map(self.src)

    def __eq__(self, other):
        if not isinstance(other, TopGroupoid):
            return NotImplemented
        return self is other or (
            self.objects == other.objects
            and self.arrows == other.arrows
            and self.src == other.src
            and self.tgt == other.tgt
            and self.unit == other.unit
            and self.inv == other.inv
            and self.comp == other.comp
        )

    def __hash__(self):
        return hash((self.objects, self.arrows, self.src, self.tgt))

    def __repr__(self):
        return f"TopGroupoid({len(self.objects)} objects, {len(self.arrows)} arrows)"


def validate_groupoid(g: TopGroupoid) -> list:
    """Named violations of the open-topological-groupoid contract.

    Empty list iff g is a valid open topological groupoid.
    """
    out = []
    arrows, objects = g.arrows, g.objects
    s, t, e, i = g.src.mapping, g.tgt.mapping, g.unit.mapping, g.inv.mapping
    for name, m in (("src", g.src), ("tgt", g.tgt), ("unit", g.unit), ("inv", g.inv)):
        if not m.is_continuous():
            out.append(f"{name} not continuous")
    for x in sorted_points(objects.points):
        ex = e[x]
        if s[ex] != x or t[ex] != x:
            out.append(f"unit endpoints wrong at {fmt_point(x)}")
    for a in sorted_points(arrows.points):
        if s[i[a]] != t[a] or t[i[a]] != s[a]:
            out.append(f"inv endpoints wrong at {fmt_point(a)}")
    pairs = set(g.composable_pairs())
    extra = sorted(set(g.comp) - pairs, key=ckey)
    missing = sorted(pairs - set(g.comp), key=ckey)
    if extra:
        out.append(f"comp defined on non-composable pair {fmt_point(extra[0])}")
    if missing:
        out.append(f"comp not total, missing pair {fmt_point(missing[0])}")
    if out:
        # later laws presuppose well-typed structure maps and a total comp
        return out
    for (gg, ff), h in g.comp.items():
        if s[h] != s[ff] or t[h] != t[gg]:
            out.append(f"comp endpoints wrong at {fmt_point((gg, ff))}")
            return out
    for a in sorted_points(arrows.points):
        if g.comp[(a, e[s[a]])] != a or g.comp[(e[t[a]], a)] != a:
            out.append(f"unit law fails at {fmt_point(a)}")
        if g.comp[(i[a], a)] != e[s[a]] or g.comp[(a, i[a])] != e[t[a]]:
            out.append(f"inverse law fails at {fmt_point(a)}")
    # associativity: (h o g) o f = h o (g o f) over composable triples,
    # the h of each (g, f) read from the pairs (h, g) indexed by g
    after = {}
    for hh, gg in pairs:
        after.setdefault(gg, []).append(hh)
    bad = [(hh, gg, ff) for gg, ff in pairs for hh in after[gg]
           if g.comp[(g.comp[(hh, gg)], ff)] != g.comp[(hh, g.comp[(gg, ff)])]]
    if bad:
        out.append(f"comp not associative at {fmt_point(min(bad, key=ckey))}")
    fp, _, _ = fintop.fiber_product(g.src, g.tgt)
    comp_map = ContinuousMap(
        fp, arrows, {(gg, ff): g.comp[(gg, ff)] for (gg, ff) in fp.points}, check=False
    )
    if not comp_map.is_continuous():
        out.append("comp not continuous")
    if not fintop.is_open_map(g.src):
        out.append("src not open")
    return out


# -- standard constructions ----------------------------------------------


def space_groupoid(space: FinSpace) -> TopGroupoid:
    """A space as a categorically discrete groupoid (identity arrows only)."""
    ident = {x: x for x in space.points}
    comp = {(x, x): x for x in space.points}
    return TopGroupoid(space, space, ident, ident, ident, ident, comp)


def group_groupoid(elements, mult, arrow_space: FinSpace | None = None) -> TopGroupoid:
    """A group as a one-object groupoid.

    `mult` maps (g, h) to g*h; arrows get the discrete topology unless an
    arrow space on the same point set is supplied.
    """
    elements = frozenset(elements)
    obj = FinSpace.discrete({"*"})
    arr = arrow_space if arrow_space is not None else FinSpace.discrete(elements)
    if arr.points != elements:
        raise InputError("arrow space must be on the group elements")
    ident = None
    for e in elements:
        if all(mult[(e, x)] == x == mult[(x, e)] for x in elements):
            ident = e
            break
    if ident is None:
        raise InputError("no identity element")
    invs = {}
    for x in elements:
        for y in elements:
            if mult[(x, y)] == ident == mult[(y, x)]:
                invs[x] = y
                break
    if set(invs) != set(elements):
        raise InputError("missing inverses")
    return TopGroupoid(
        obj,
        arr,
        {x: "*" for x in elements},
        {x: "*" for x in elements},
        {"*": ident},
        invs,
        {(x, y): mult[(x, y)] for x in elements for y in elements},
    )


# -- subgroupoids ----------------------------------------------------------


class Subgroupoid:
    """A subgroupoid of an ambient groupoid: an arrow subset closed under
    composition and inverses, with subspace topologies.  The object set is
    recovered as the source (equivalently target) image."""

    __slots__ = ("ambient", "arrow_set", "_incl")

    def __init__(self, ambient: TopGroupoid, arrow_set):
        self.ambient = ambient
        self.arrow_set = frozenset(arrow_set)
        if not self.arrow_set <= ambient.arrows.points:
            raise InputError("arrow subset outside ambient arrows")
        self._incl = None

    @property
    def object_set(self) -> frozenset:
        return frozenset(self.ambient.src.mapping[a] for a in self.arrow_set)

    def validate(self) -> list:
        out = []
        amb, arr = self.ambient, self.arrow_set
        for a in sorted_points(arr):
            if amb.inv.mapping[a] not in arr:
                out.append(f"not closed under inv at {fmt_point(a)}")
        bad = [p for p, h in amb.comp.items() if p[0] in arr and p[1] in arr and h not in arr]
        out += [f"not closed under comp at {fmt_point(p)}" for p in sorted(bad, key=ckey)]
        objs = self.object_set
        tgt_objs = frozenset(amb.tgt.mapping[a] for a in arr)
        if objs != tgt_objs:
            out.append("object set differs between src and tgt images")
        return out

    def is_open(self) -> bool:
        return self.ambient.arrows.is_open(self.arrow_set) and self.ambient.objects.is_open(
            self.object_set
        )

    def as_groupoid(self) -> TopGroupoid:
        return self.inclusion_functor().dom

    def inclusion_functor(self) -> "ContinuousFunctor":
        """The inclusion into the ambient groupoid, built and validated
        once per subgroupoid."""
        if self._incl is None:
            amb, arr = self.ambient, self.arrow_set
            objs = self.object_set
            sub = TopGroupoid(
                amb.objects.subspace(objs),
                amb.arrows.subspace(arr),
                {a: amb.src.mapping[a] for a in arr},
                {a: amb.tgt.mapping[a] for a in arr},
                {x: amb.unit.mapping[x] for x in objs},
                {a: amb.inv.mapping[a] for a in arr},
                {p: h for p, h in amb.comp.items() if p[0] in arr and p[1] in arr},
            )
            self._incl = ContinuousFunctor(sub, amb, {x: x for x in objs}, {a: a for a in arr})
        return self._incl

    def __eq__(self, other):
        if not isinstance(other, Subgroupoid):
            return NotImplemented
        return self.ambient == other.ambient and self.arrow_set == other.arrow_set

    def __hash__(self):
        return hash(self.arrow_set)

    def __repr__(self):
        return f"Subgroupoid({len(self.arrow_set)} arrows)"


def whole_subgroupoid(g: TopGroupoid) -> Subgroupoid:
    return Subgroupoid(g, g.arrows.points)


def identity_subgroupoid(g: TopGroupoid) -> Subgroupoid:
    """Identities only, on all objects."""
    return Subgroupoid(g, frozenset(g.unit.mapping.values()))


def subgroupoid_closure(g: TopGroupoid, arrows) -> frozenset:
    """Closure of an arrow subset under composition and inverses; closed
    arrows are indexed by source and target to find composable partners."""
    s, t, inv, comp = g.src.mapping, g.tgt.mapping, g.inv.mapping, g.comp
    closed, by_src, by_tgt, frontier = set(), {}, {}, list(arrows)
    while frontier:
        a = frontier.pop()
        if a in closed:
            continue
        closed.add(a)
        by_src.setdefault(s[a], []).append(a)
        by_tgt.setdefault(t[a], []).append(a)
        frontier.append(inv[a])
        frontier += [comp[(a, b)] for b in by_tgt.get(s[a], ())]
        frontier += [comp[(b, a)] for b in by_src.get(t[a], ())]
    return frozenset(closed)


def full_subgroupoid_on(g: TopGroupoid, objs) -> Subgroupoid:
    objs = frozenset(objs)
    return Subgroupoid(
        g,
        frozenset(
            a
            for a in g.arrows.points
            if g.src.mapping[a] in objs and g.tgt.mapping[a] in objs
        ),
    )


def object_orbit_closure(g: TopGroupoid, objs) -> frozenset:
    """All objects reachable from objs by arrows of g: the connected
    components that meet objs."""
    s, t = g.src.mapping, g.tgt.mapping
    blocks = fintop.partition(g.objects.points, ((s[a], t[a]) for a in g.arrows.points))
    return frozenset().union(*(b for b in blocks if not b.isdisjoint(objs)))


def _enumerate_join_closure(g: TopGroupoid, atoms, budget: int):
    seen = {frozenset(), *atoms}
    if len(seen) > budget:
        raise BudgetExceeded(f"subgroupoid family exceeds budget {budget}")
    frontier = list(seen)
    while frontier:
        nxt = []
        for s in frontier:
            for a in atoms:
                # members are closed, so a known join needs no closure
                if s | a in seen:
                    continue
                j = subgroupoid_closure(g, s | a)
                if j not in seen:
                    seen.add(j)
                    nxt.append(j)
                    if len(seen) > budget:
                        raise BudgetExceeded(f"subgroupoid family exceeds budget {budget}")
        frontier = nxt
    return [Subgroupoid(g, s) for s in sorted(seen, key=fintop.set_key(g.arrows.points))]


def enumerate_open_subgroupoids(g: TopGroupoid, budget: int = 4096):
    """All subgroupoids whose arrow set is open, in canonical order.

    Every open subgroupoid is a join of the comp/inv-closures of arrow
    minimal neighbourhoods (the closure of an open set stays open because
    an open groupoid has an open composition map), so the join-closure
    of those atoms is the whole family.  Raises BudgetExceeded past
    `budget`; callers must then raise the cap or supply an explicit
    family.  Includes the empty subgroupoid.
    """
    subs = g._cache.get("open_subgroupoids")
    if subs is not None:
        if len(subs) > budget:
            raise BudgetExceeded(f"subgroupoid family exceeds budget {budget}")
        return subs
    if not g.is_open():
        raise InputError("groupoid is not open")
    # arrows of a non-T0 arrow space share minimal opens: close each once
    atoms = {subgroupoid_closure(g, u) for u in {g.arrows.min_open(a) for a in g.arrows.points}}
    subs = _enumerate_join_closure(g, atoms, budget)
    for s in subs:
        if not s.is_open():  # pragma: no cover - guarded by openness precondition
            raise InputError("internal: non-open subgroupoid generated")
    g._cache["open_subgroupoids"] = subs
    return subs


def enumerate_subgroupoids(g: TopGroupoid, budget: int = 4096):
    """All subgroupoids (open or not), in canonical order."""
    atoms = {subgroupoid_closure(g, {a}) for a in g.arrows.points}
    return _enumerate_join_closure(g, atoms, budget)


# -- orbits and bi-orbits --------------------------------------------------


def orbit_space(u: Subgroupoid):
    """Quotient of the subgroupoid's object space by arrow reachability.

    Returns (space of orbits, quotient map from the object subspace).
    """
    amb = u.ambient
    objs = u.object_set
    blocks = fintop.partition(
        objs, ((amb.src.mapping[a], amb.tgt.mapping[a]) for a in u.arrow_set)
    )
    return fintop.quotient_space(amb.objects.subspace(objs), blocks)


def bi_orbit_space(x: TopGroupoid, left: Subgroupoid, right: Subgroupoid, v):
    """Space of bi-orbits of the arrow set v, left acting by
    post-composition and right by pre-composition, with the
    subspace-then-quotient topology.

    Returns (space of bi-orbits, quotient map from the subspace on v,
    inclusion of that subspace into the arrow space), realizing the
    subquotient diagram arrows <- v ->> bi-orbits.  The actions are
    indexed once (right arrows by target, left arrows by source), and
    the pass that feeds their pairs to the partition raises
    BistabilityError at the first composite that leaves v.
    """
    v = frozenset(v)
    if not v <= x.arrows.points:
        raise InputError("v not contained in the arrow set")
    s, t = x.src.mapping, x.tgt.mapping
    sub = x.arrows.subspace(v)
    by_tgt = {}
    for b in right.arrow_set:
        by_tgt.setdefault(t[b], []).append(b)
    by_src = {}
    for c in left.arrow_set:
        by_src.setdefault(s[c], []).append(c)

    def actions():
        for a in v:
            for b in by_tgt.get(s[a], ()):
                h = x.comp[(a, b)]
                if h not in v:
                    raise BistabilityError(
                        f"v not stable under pre-composition at {fmt_point((a, b))}")
                yield a, h
            for c in by_src.get(t[a], ()):
                h = x.comp[(c, a)]
                if h not in v:
                    raise BistabilityError(
                        f"v not stable under post-composition at {fmt_point((c, a))}")
                yield a, h

    space, quot = fintop.quotient_space(sub, fintop.partition(v, actions()))
    incl = ContinuousMap(sub, x.arrows, {a: a for a in v}, check=False)
    return space, quot, incl


def iota_map(incl: Subgroupoid, u: Subgroupoid) -> ContinuousMap:
    """The canonical comparison of bi-orbit spaces induced by a
    subgroupoid inclusion, sending each (sub, u)-bi-orbit of an arrow to
    its (ambient, u)-bi-orbit.

    Domain: bi-orbits of arrows sourced in u's objects and targeted in
    the subgroupoid's objects, under (incl, u); codomain: bi-orbits of
    all arrows sourced in u's objects, under (ambient, u)."""
    amb = incl.ambient
    s, t = amb.src.mapping, amb.tgt.mapping
    u0 = u.object_set
    y0 = incl.object_set
    v_dom = frozenset(a for a in amb.arrows.points if s[a] in u0 and t[a] in y0)
    dom, _, _ = bi_orbit_space(amb, incl, u, v_dom)
    cod_cache = amb._cache.setdefault("iota_cod", {})
    if u.arrow_set not in cod_cache:
        v_cod = frozenset(a for a in amb.arrows.points if s[a] in u0)
        cod_cache[u.arrow_set] = bi_orbit_space(amb, whole_subgroupoid(amb), u, v_cod)[:2]
    cod, q_cod = cod_cache[u.arrow_set]
    mapping = {c: q_cod.mapping[next(iter(c))] for c in dom.points}
    return ContinuousMap(dom, cod, mapping)


# -- images, fullness, repleteness -----------------------------------------


def is_full(sg: Subgroupoid) -> bool:
    return sg.arrow_set == full_subgroupoid_on(sg.ambient, sg.object_set).arrow_set


def is_replete(sg: Subgroupoid) -> bool:
    objs = sg.object_set
    amb = sg.ambient
    return all(
        amb.tgt.mapping[a] in objs
        for a in amb.arrows.points
        if amb.src.mapping[a] in objs
    )


class ContinuousFunctor:
    """A functor of topological groupoids with continuous object and
    arrow parts.  Functor laws are checked on construction."""

    __slots__ = ("dom", "cod", "obj_map", "arr_map")

    def __init__(self, dom: TopGroupoid, cod: TopGroupoid, obj_map, arr_map, check=True):
        self.dom = dom
        self.cod = cod
        self.obj_map = _as_map(obj_map, dom.objects, cod.objects)
        self.arr_map = _as_map(arr_map, dom.arrows, cod.arrows)
        if check:
            bad = self.validate()
            if bad:
                raise InputError("; ".join(bad))

    def validate(self) -> list:
        out = []
        f0, f1 = self.obj_map.mapping, self.arr_map.mapping
        dom, cod = self.dom, self.cod
        if not self.obj_map.is_continuous():
            out.append("object map not continuous")
        if not self.arr_map.is_continuous():
            out.append("arrow map not continuous")
        for a in sorted_points(dom.arrows.points):
            if cod.src.mapping[f1[a]] != f0[dom.src.mapping[a]]:
                out.append(f"src not preserved at {fmt_point(a)}")
            if cod.tgt.mapping[f1[a]] != f0[dom.tgt.mapping[a]]:
                out.append(f"tgt not preserved at {fmt_point(a)}")
            if f1[dom.inv.mapping[a]] != cod.inv.mapping[f1[a]]:
                out.append(f"inv not preserved at {fmt_point(a)}")
        for x in sorted_points(dom.objects.points):
            if f1[dom.unit.mapping[x]] != cod.unit.mapping[f0[x]]:
                out.append(f"unit not preserved at {fmt_point(x)}")
        # a comp that is not total is reported here, not raised; the
        # failing pairs are sorted, as set order depends on the hash seed
        broken = [(g, f) for (g, f) in dom.composable_pairs()
                  if (h := dom.comp.get((g, f))) is None
                  or f1[h] != cod.comp.get((f1[g], f1[f]))]
        out += [f"comp not preserved at {fmt_point(p)}" for p in sorted(broken, key=ckey)]
        return out

    def __eq__(self, other):
        if not isinstance(other, ContinuousFunctor):
            return NotImplemented
        return (
            self.dom == other.dom
            and self.cod == other.cod
            and self.obj_map == other.obj_map
            and self.arr_map == other.arr_map
        )

    def __hash__(self):
        return hash((self.obj_map, self.arr_map))

    def __repr__(self):
        return f"ContinuousFunctor({self.dom!r} -> {self.cod!r})"


def identity_functor(g: TopGroupoid) -> ContinuousFunctor:
    return ContinuousFunctor(
        g, g, {x: x for x in g.objects.points}, {a: a for a in g.arrows.points},
        check=False,
    )


def compose_functors(g: ContinuousFunctor, f: ContinuousFunctor) -> ContinuousFunctor:
    if f.cod != g.dom:
        raise InputError("functors not composable")
    return ContinuousFunctor(
        f.dom,
        g.cod,
        {x: g.obj_map.mapping[f.obj_map.mapping[x]] for x in f.dom.objects.points},
        {a: g.arr_map.mapping[f.arr_map.mapping[a]] for a in f.dom.arrows.points},
        check=False,
    )


def image(f: ContinuousFunctor) -> Subgroupoid:
    """The subgroupoid of the codomain generated by the arrow image.

    Raw functor images need not be closed under composition (two image
    arrows can be composable in the codomain without their preimages
    being composable), so the composition/inverse closure is taken; the
    object set is unchanged by this closure.
    """
    return Subgroupoid(
        f.cod, subgroupoid_closure(f.cod, set(f.arr_map.mapping.values()))
    )


def full_essential_image(f: ContinuousFunctor) -> Subgroupoid:
    """Full subgroupoid on the arrow-orbit closure of the object image."""
    objs = object_orbit_closure(f.cod, set(f.obj_map.mapping.values()))
    return full_subgroupoid_on(f.cod, objs)


class ContinuousTransformation:
    """A natural transformation with a continuous component map X0 -> Y1.

    Between groupoid functors every transformation is pointwise
    invertible, so these are always isomorphisms."""

    __slots__ = ("source", "target", "component")

    def __init__(self, source: ContinuousFunctor, target: ContinuousFunctor, component, check=True):
        if source.dom != target.dom or source.cod != target.cod:
            raise InputError("transformation needs parallel functors")
        self.source = source
        self.target = target
        self.component = _as_map(component, source.dom.objects, source.cod.arrows)
        if check:
            bad = self.validate()
            if bad:
                raise InputError("; ".join(bad))

    def validate(self) -> list:
        out = []
        if not self.component.is_continuous():
            out.append("component map not continuous")
        dom, cod = self.source.dom, self.source.cod
        a = self.component.mapping
        for x in sorted_points(dom.objects.points):
            if cod.src.mapping[a[x]] != self.source.obj_map.mapping[x]:
                out.append(f"component source wrong at {fmt_point(x)}")
            if cod.tgt.mapping[a[x]] != self.target.obj_map.mapping[x]:
                out.append(f"component target wrong at {fmt_point(x)}")
        f1 = self.source.arr_map.mapping
        g1 = self.target.arr_map.mapping
        for al in sorted_points(dom.arrows.points):
            x, y = dom.src.mapping[al], dom.tgt.mapping[al]
            if (a[y], f1[al]) not in cod.comp or (g1[al], a[x]) not in cod.comp:
                out.append(f"naturality square malformed at {fmt_point(al)}")
                continue
            if cod.comp[(a[y], f1[al])] != cod.comp[(g1[al], a[x])]:
                out.append(f"naturality fails at {fmt_point(al)}")
        return out

    def inverse(self) -> "ContinuousTransformation":
        cod = self.source.cod
        return ContinuousTransformation(
            self.target,
            self.source,
            {x: cod.inv.mapping[a] for x, a in self.component.mapping.items()},
            check=False,
        )

    def __eq__(self, other):
        if not isinstance(other, ContinuousTransformation):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.component == other.component
        )

    def __hash__(self):
        return hash(self.component)


def identity_transformation(f: ContinuousFunctor) -> ContinuousTransformation:
    return ContinuousTransformation(
        f,
        f,
        {x: f.cod.unit.mapping[f.obj_map.mapping[x]] for x in f.dom.objects.points},
        check=False,
    )


def vertical_compose(b: ContinuousTransformation, a: ContinuousTransformation) -> ContinuousTransformation:
    if a.target != b.source:
        raise InputError("transformations not vertically composable")
    cod = a.source.cod
    return ContinuousTransformation(
        a.source,
        b.target,
        {
            x: cod.comp[(b.component.mapping[x], a.component.mapping[x])]
            for x in a.source.dom.objects.points
        },
        check=False,
    )


def whisker_functor(k: ContinuousFunctor, a: ContinuousTransformation) -> ContinuousTransformation:
    """k * a : k o F => k o G for a : F => G."""
    if a.source.cod != k.dom:
        raise InputError("whiskering mismatch")
    return ContinuousTransformation(
        compose_functors(k, a.source),
        compose_functors(k, a.target),
        {x: k.arr_map.mapping[a.component.mapping[x]] for x in a.component.mapping},
        check=False,
    )


def whisker_along(a: ContinuousTransformation, h: ContinuousFunctor) -> ContinuousTransformation:
    """a * h : F o h => G o h for a : F => G."""
    if h.cod != a.source.dom:
        raise InputError("whiskering mismatch")
    return ContinuousTransformation(
        compose_functors(a.source, h),
        compose_functors(a.target, h),
        {x: a.component.mapping[h.obj_map.mapping[x]] for x in h.dom.objects.points},
        check=False,
    )


def _components_of(g: TopGroupoid):
    """Connected components of the underlying groupoid, blocks of
    fintop.partition: list of (representative, {object: arrow from the
    representative}) in ckey order of the representatives, each the
    ckey-least object of its block and mapped to its identity."""
    s, t = g.src.mapping, g.tgt.mapping
    blocks = fintop.partition(g.objects.points, ((s[a], t[a]) for a in g.arrows.points))
    trees = {min(b, key=ckey): {} for b in blocks}
    for a in g.arrows.points:
        if s[a] in trees:
            trees[s[a]][t[a]] = a
    for r, tree in trees.items():
        tree[r] = g.unit.mapping[r]
    return sorted(trees.items(), key=lambda rt: ckey(rt[0]))


def transformations(f: ContinuousFunctor, g: ContinuousFunctor, limit: int | None = None):
    """All continuous transformations f => g, in canonical order.

    Components are fixed on a representative of each connected component
    of the domain and propagated along one arrow from it to each object;
    every candidate is then checked for naturality and continuity.
    """
    if f.dom != g.dom or f.cod != g.cod:
        raise InputError("functors not parallel")
    dom, cod = f.dom, f.cod
    comps = _components_of(dom)
    per_comp = []
    for r, tree in comps:
        choices = []
        for c in sorted_points(
            cod.arrows_between(f.obj_map.mapping[r], g.obj_map.mapping[r])
        ):
            assignment = {}
            ok = True
            for x, path in tree.items():
                # naturality along the tree arrow forces the component
                a = cod.comp[
                    (
                        cod.comp[(g.arr_map.mapping[path], c)],
                        cod.inv.mapping[f.arr_map.mapping[path]],
                    )
                ]
                assignment[x] = a
            for al in dom.arrows.points:
                x, y = dom.src.mapping[al], dom.tgt.mapping[al]
                if x in assignment and y in assignment:
                    lhs = cod.comp[(assignment[y], f.arr_map.mapping[al])]
                    rhs = cod.comp[(g.arr_map.mapping[al], assignment[x])]
                    if lhs != rhs:
                        ok = False
                        break
            if ok:
                choices.append(assignment)
        per_comp.append(choices)
    out = []
    for combo in product(*per_comp):
        component = {}
        for assignment in combo:
            component.update(assignment)
        cm = ContinuousMap(dom.objects, cod.arrows, component, check=False)
        if not cm.is_continuous():
            continue
        out.append(ContinuousTransformation(f, g, cm, check=False))
        if limit is not None and len(out) >= limit:
            break
    return out
