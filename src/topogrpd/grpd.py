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
from .errors import CapExceeded, InputError
from .fintop import ContinuousMap, FinSpace, ckey, fmt_point, sorted_points


def _as_map(m, domain, codomain):
    if isinstance(m, ContinuousMap):
        if m.domain != domain or m.codomain != codomain:
            raise InputError("structure map has wrong domain or codomain")
        return m
    return ContinuousMap(domain, codomain, m)


class TopGroupoid:
    """A groupoid internal to finite spaces: arrows over objects.

    `_cache` holds the results kept by `memo`, listed in README "Caches".

    `out_of[x]` and `into[y]`, built with the structure maps, list the
    arrows with source x and with target y in `arrows.points` order.
    """

    __slots__ = ("objects", "arrows", "src", "tgt", "unit", "inv", "comp", "out_of", "into",
                 "_cache")

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
        self.out_of = {x: [] for x in objects.points}
        self.into = {x: [] for x in objects.points}
        for a in arrows.points:
            self.out_of[self.src.mapping[a]].append(a)
            self.into[self.tgt.mapping[a]].append(a)
        self._cache = {}

    def memo(self, name: str, key, compute, *args):
        """compute(*args) on the first call for (name, key), kept; a raise keeps nothing."""
        table = self._cache.setdefault(name, {})
        if key not in table:
            table[key] = compute(*args)
        return table[key]

    # -- structure ------------------------------------------------------

    def composable_pairs(self):
        for g in self.arrows.points:
            for f in self.into[self.src.mapping[g]]:
                yield g, f

    def arrows_between(self, x, y):
        return [a for a in self.out_of[x] if self.tgt.mapping[a] == y]

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
    # each check scans in set order and sorts only its failures
    out += [f"unit endpoints wrong at {fmt_point(x)}" for x in sorted_points(
        x for x in objects.points if s[e[x]] != x or t[e[x]] != x)]
    out += [f"inv endpoints wrong at {fmt_point(a)}" for a in sorted_points(
        a for a in arrows.points if s[i[a]] != t[a] or t[i[a]] != s[a])]
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
    unit_bad = {a for a in arrows.points
                if g.comp[(a, e[s[a]])] != a or g.comp[(e[t[a]], a)] != a}
    inv_bad = {a for a in arrows.points
               if g.comp[(i[a], a)] != e[s[a]] or g.comp[(a, i[a])] != e[t[a]]}
    for a in sorted_points(unit_bad | inv_bad):
        if a in unit_bad:
            out.append(f"unit law fails at {fmt_point(a)}")
        if a in inv_bad:
            out.append(f"inverse law fails at {fmt_point(a)}")
    # associativity: (h o g) o f = h o (g o f) over composable triples
    bad = [(hh, gg, ff) for gg, ff in pairs for hh in g.out_of[t[gg]]
           if g.comp[(g.comp[(hh, gg)], ff)] != g.comp[(hh, g.comp[(gg, ff)])]]
    if bad:
        out.append(f"comp not associative at {fmt_point(min(bad, key=ckey))}")
    fp, _, _ = fintop.fiber_product(g.src, g.tgt)
    comp_map = ContinuousMap(fp, arrows, {(gg, ff): g.comp[(gg, ff)] for (gg, ff) in fp.points})
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


# -- subgroupoids ----------------------------------------------------------


class Subgroupoid:
    """A subgroupoid of an ambient groupoid: an arrow subset closed under
    composition and inverses, with subspace topologies.  The object set is
    recovered as the source (equivalently target) image."""

    __slots__ = ("ambient", "arrow_set", "object_set")

    def __init__(self, ambient: TopGroupoid, arrow_set):
        self.ambient = ambient
        self.arrow_set = frozenset(arrow_set)
        if not self.arrow_set <= ambient.arrows.points:
            raise InputError("arrow subset outside ambient arrows")
        self.object_set = frozenset(ambient.src.mapping[a] for a in self.arrow_set)

    def validate(self) -> list:
        amb, arr = self.ambient, self.arrow_set
        inv = amb.inv.mapping
        out = [f"not closed under inv at {fmt_point(a)}"
               for a in sorted_points(a for a in arr if inv[a] not in arr)]
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
        per call."""
        amb, arr, objs = self.ambient, self.arrow_set, self.object_set
        sub = TopGroupoid(
            amb.objects.subspace(objs),
            amb.arrows.subspace(arr),
            {a: amb.src.mapping[a] for a in arr},
            {a: amb.tgt.mapping[a] for a in arr},
            {x: amb.unit.mapping[x] for x in objs},
            {a: amb.inv.mapping[a] for a in arr},
            {p: h for p, h in amb.comp.items() if p[0] in arr and p[1] in arr},
        )
        return ContinuousFunctor(sub, amb, {x: x for x in objs}, {a: a for a in arr})

    def __eq__(self, other):
        if not isinstance(other, Subgroupoid):
            return NotImplemented
        return self.ambient == other.ambient and self.arrow_set == other.arrow_set

    def __repr__(self):
        return f"Subgroupoid({len(self.arrow_set)} arrows)"


def checked_subgroupoid(sub: Subgroupoid) -> Subgroupoid:
    """sub, or an InputError naming its faults; the ambient keeps the
    faults of each arrow set, so each is validated once."""
    bad = sub.ambient.memo("subgroupoid", sub.arrow_set, sub.validate)
    if bad:
        raise InputError("not a subgroupoid: " + "; ".join(bad))
    return sub


def whole_subgroupoid(g: TopGroupoid) -> Subgroupoid:
    return Subgroupoid(g, g.arrows.points)


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
        g, frozenset(a for x in objs for a in g.out_of[x] if g.tgt.mapping[a] in objs)
    )


def _components(g: TopGroupoid) -> tuple:
    """The connected components of g's objects, fintop.partition blocks."""
    s, t = g.src.mapping, g.tgt.mapping
    return g.memo("components", None, lambda: tuple(map(frozenset, fintop.partition(
        g.objects.points, ((s[a], t[a]) for a in g.arrows.points)))))


def object_orbit_closure(g: TopGroupoid, objs) -> frozenset:
    """All objects reachable from objs by arrows of g: the connected
    components that meet objs."""
    return frozenset().union(*(b for b in _components(g) if not b.isdisjoint(objs)))


def open_atoms(g: TopGroupoid):
    """The atoms of the open family, in canonical order: the comp/inv
    closures of the arrows' minimal neighbourhoods (the closure of an
    open set stays open because an open groupoid has an open composition
    map).  Every open subgroupoid is the union of the atoms of its
    arrows.  There are at most as many atoms as arrows, and the empty
    subgroupoid is not one."""
    def build():
        if not g.is_open():
            raise InputError("groupoid is not open")
        # arrows of a non-T0 arrow space share minimal opens: close each once
        mins = {g.arrows.min_open(a) for a in g.arrows.points}
        closed = {subgroupoid_closure(g, u) for u in mins}
        return [Subgroupoid(g, s) for s in sorted(closed, key=fintop.set_key(g.arrows))]

    return g.memo("atoms", None, build)


def enumerate_open_subgroupoids(g: TopGroupoid, cap: int = fintop.DEFAULT_OPEN_CAP):
    """All subgroupoids whose arrow set is open, in canonical order: the
    join closure of the open atoms and the empty subgroupoid, listed per
    call by joining each atom to every member found before it.  Raises
    CapExceeded as soon as the family has more than `cap` members.
    """
    family = {frozenset()}
    for a in (u.arrow_set for u in open_atoms(g)):
        # members are closed, so a known join, or the atom itself, needs no closure
        family |= {j if j in family or j == a else subgroupoid_closure(g, j)
                   for j in (s | a for s in family)}
        if len(family) > cap:
            raise CapExceeded(f"subgroupoid family exceeds cap {cap}")
    return [Subgroupoid(g, s) for s in sorted(family, key=fintop.set_key(g.arrows))]


# -- bi-orbits ------------------------------------------------------------


def bi_orbit_space(x: TopGroupoid, left: Subgroupoid, right: Subgroupoid):
    """The bi-orbit space L\\X(R0, L0)/R: the arrows from right's objects
    to left's objects, left acting by post-composition and right by
    pre-composition, with the subspace-then-quotient topology.  Both
    actions keep an arrow in X(R0, L0).

    Returns (cls, mins): cls sends each arrow of X(R0, L0) to the index
    of its bi-orbit, and mins[i] is bi-orbit i's minimal open as an int
    mask of indices.  Each bi-orbit is enumerated from one
    representative a as {c o a o b : c in left, b in right}, which needs
    `left` and `right` to be subgroupoids, closed under composition and
    inverses; `iota_map` passes a subgroupoid inclusion and an open
    subgroupoid.
    """
    s, t, comp = x.src.mapping, x.tgt.mapping, x.comp
    into, out = {}, {}  # right's arrows by target, left's by source
    for b in right.arrow_set:
        into.setdefault(t[b], []).append(b)
    for c in left.arrow_set:
        out.setdefault(s[c], []).append(c)
    cls, k = {}, 0
    for y, bs in into.items():
        for a in x.out_of[y]:
            if a not in cls and t[a] in out:
                orbit = [comp[(a, b)] for b in bs]
                cls.update(dict.fromkeys((comp[(c, h)] for c in out[t[a]] for h in orbit), k))
                k += 1
    return cls, fintop.quotient_space(x.arrows, cls, k)


def iota_map(incl: Subgroupoid, u: Subgroupoid):
    """The canonical comparison Y\\X(U0, Y0)/U -> X\\X(U0, X0)/U of
    bi-orbit spaces induced by a subgroupoid inclusion Y of X, for a
    subgroupoid U.

    The domain is `bi_orbit_space(x, incl, u)`.  The codomain is the
    orbit space U0/U, the quotient of u's object subspace by u's
    connected components (README "Scope notes"), and the bi-orbit of an
    arrow goes to the component of its source.  Returns (f, dom_mins,
    cod_mins): f[i] is the component of domain bi-orbit i, and the
    minimal opens are int masks of indices, as in `bi_orbit_space`.
    `incl` and `u` must be subgroupoids."""
    amb = incl.ambient
    s, t = amb.src.mapping, amb.tgt.mapping

    def orbit_space():
        blocks = fintop.partition(u.object_set, ((s[a], t[a]) for a in u.arrow_set))
        comp = {y: i for i, b in enumerate(blocks) for y in b}
        return comp, fintop.quotient_space(amb.objects, comp, len(blocks))

    dom_cls, dom_mins = bi_orbit_space(amb, incl, u)
    comp, cod_mins = amb.memo("iota_cod", u.arrow_set, orbit_space)
    f = [0] * len(dom_mins)
    for a, i in dom_cls.items():
        f[i] = comp[s[a]]
    return f, dom_mins, cod_mins


# -- functors and transformations -------------------------------------------


class ContinuousFunctor:
    """A functor of topological groupoids with continuous object and
    arrow parts.  Continuity and the functor laws are checked on
    construction, an InputError naming every violation."""

    __slots__ = ("dom", "cod", "obj_map", "arr_map")

    def __init__(self, dom: TopGroupoid, cod: TopGroupoid, obj_map, arr_map):
        self.dom = dom
        self.cod = cod
        self.obj_map = _as_map(obj_map, dom.objects, cod.objects)
        self.arr_map = _as_map(arr_map, dom.arrows, cod.arrows)
        if bad := self.validate():
            raise InputError("not a continuous functor: " + "; ".join(bad))

    def validate(self) -> list:
        out = []
        f0, f1 = self.obj_map.mapping, self.arr_map.mapping
        dom, cod = self.dom, self.cod
        if not self.obj_map.is_continuous():
            out.append("object map not continuous")
        if not self.arr_map.is_continuous():
            out.append("arrow map not continuous")
        # each check scans in set order and sorts only its failures, as
        # set order depends on the hash seed
        broken_laws = {}
        for a in dom.arrows.points:
            if cod.src.mapping[f1[a]] != f0[dom.src.mapping[a]]:
                broken_laws.setdefault(a, []).append("src")
            if cod.tgt.mapping[f1[a]] != f0[dom.tgt.mapping[a]]:
                broken_laws.setdefault(a, []).append("tgt")
            if f1[dom.inv.mapping[a]] != cod.inv.mapping[f1[a]]:
                broken_laws.setdefault(a, []).append("inv")
        out += [f"{law} not preserved at {fmt_point(a)}"
                for a in sorted_points(broken_laws) for law in broken_laws[a]]
        out += [f"unit not preserved at {fmt_point(x)}" for x in sorted_points(
            x for x in dom.objects.points if f1[dom.unit.mapping[x]] != cod.unit.mapping[f0[x]])]
        # a comp that is not total is reported here, not raised
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

    def __repr__(self):
        return f"ContinuousFunctor({self.dom!r} -> {self.cod!r})"


def identity_functor(g: TopGroupoid) -> ContinuousFunctor:
    return ContinuousFunctor(
        g, g, {x: x for x in g.objects.points}, {a: a for a in g.arrows.points})


def compose_functors(g: ContinuousFunctor, f: ContinuousFunctor) -> ContinuousFunctor:
    if f.cod != g.dom:
        raise InputError("functors not composable")
    return ContinuousFunctor(
        f.dom,
        g.cod,
        {x: g.obj_map.mapping[f.obj_map.mapping[x]] for x in f.dom.objects.points},
        {a: g.arr_map.mapping[f.arr_map.mapping[a]] for a in f.dom.arrows.points},
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
    invertible, so these are always isomorphisms.  Naturality and
    continuity are not checked on construction: the package builds
    transformations only in `identity_transformation` and in
    `transformations`, which keeps the natural continuous ones."""

    __slots__ = ("source", "target", "component")

    def __init__(self, source: ContinuousFunctor, target: ContinuousFunctor, component):
        if source.dom != target.dom or source.cod != target.cod:
            raise InputError("transformation needs parallel functors")
        self.source = source
        self.target = target
        self.component = _as_map(component, source.dom.objects, source.cod.arrows)

    def __eq__(self, other):
        if not isinstance(other, ContinuousTransformation):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.component == other.component
        )


def identity_transformation(f: ContinuousFunctor) -> ContinuousTransformation:
    return ContinuousTransformation(
        f, f, {x: f.cod.unit.mapping[f.obj_map.mapping[x]] for x in f.dom.objects.points}
    )


def _components_of(g: TopGroupoid):
    """Connected components of the underlying groupoid, the blocks of
    `_components`: list of (representative, {object: arrow from the
    representative}) in ckey order of the representatives, each the
    ckey-least object of its block and mapped to its identity."""
    t = g.tgt.mapping
    trees = {}
    for b in _components(g):
        r = min(b, key=ckey)
        trees[r] = {t[a]: a for a in g.out_of[r]}
        trees[r][r] = g.unit.mapping[r]
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
        for c in fintop.in_order(
            cod.arrows, cod.arrows_between(f.obj_map.mapping[r], g.obj_map.mapping[r])
        ):
            assignment = {}
            for x, path in tree.items():
                # naturality along the tree arrow forces the component
                a = cod.comp[
                    (
                        cod.comp[(g.arr_map.mapping[path], c)],
                        cod.inv.mapping[f.arr_map.mapping[path]],
                    )
                ]
                assignment[x] = a
            if all(
                cod.comp[(assignment[y], f.arr_map.mapping[al])]
                == cod.comp[(g.arr_map.mapping[al], assignment[x])]
                for x in assignment for al in dom.out_of[x]
                if (y := dom.tgt.mapping[al]) in assignment
            ):
                choices.append(assignment)
        per_comp.append(choices)
    out = []
    for combo in product(*per_comp):
        component = {}
        for assignment in combo:
            component.update(assignment)
        cm = ContinuousMap(dom.objects, cod.arrows, component)
        if not cm.is_continuous():
            continue
        out.append(ContinuousTransformation(f, g, cm))
        if limit is not None and len(out) >= limit:
            break
    return out
