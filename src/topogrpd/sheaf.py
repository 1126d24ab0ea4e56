"""Equivariant sheaves on finite topological groupoids.

A sheaf is a local homeomorphism onto the object space together with a
continuous arrow action on its fibers.  Everything is stored
extensionally: total spaces are finite, actions are tables.  The
subobject lattices computed here are the independent oracle against
which the weak-equivalence criteria are cross-checked.  They work on int
bitmasks; only `SubobjectLattice.elements` sorts them into frozensets.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import fintop, grpd
from .errors import CapExceeded, InputError
from .fintop import ContinuousMap, FinSpace, fmt_point, sorted_points
from .grpd import ContinuousFunctor, ContinuousTransformation, Subgroupoid, TopGroupoid


class EquivariantSheaf:
    """A local homeomorphism proj: total -> base objects with an arrow
    action, stored as a table on pairs (arrow g, point y) with
    proj(y) = src(g)."""

    __slots__ = ("base", "total", "proj", "action", "_lattice")

    def __init__(self, base: TopGroupoid, total: FinSpace, proj, action):
        self.base = base
        self.total = total
        self.proj = proj if isinstance(proj, ContinuousMap) else ContinuousMap(
            total, base.objects, proj, check=False
        )
        if self.proj.domain != total or self.proj.codomain != base.objects:
            raise InputError("projection has wrong domain or codomain")
        self.action = dict(action)
        for (g, y), z in self.action.items():
            if g not in base.arrows.points or y not in total.points or z not in total.points:
                raise InputError("action entry outside sheaf data")
        self._lattice = None

    def act(self, g, y):
        return self.action[(g, y)]

    def __eq__(self, other):
        if not isinstance(other, EquivariantSheaf):
            return NotImplemented
        return (
            self.base == other.base
            and self.total == other.total
            and self.proj == other.proj
            and self.action == other.action
        )

    def __hash__(self):
        return hash((self.total, self.proj))

    def __repr__(self):
        return f"EquivariantSheaf({len(self.total)} points over {len(self.base.objects)} objects)"


def validate_sheaf(s: EquivariantSheaf) -> list:
    """Named violations of the equivariant-sheaf contract (empty iff valid)."""
    out = []
    base, total = s.base, s.total
    q = s.proj.mapping
    sm, tm = base.src.mapping, base.tgt.mapping
    if not s.proj.is_continuous():
        out.append("projection not continuous")
    elif not fintop.is_local_homeomorphism(s.proj):
        out.append("projection not a local homeomorphism")
    pairs = {
        (g, y)
        for g in base.arrows.points
        for y in total.points
        if q[y] == sm[g]
    }
    extra = sorted(set(s.action) - pairs, key=fintop.ckey)
    missing = sorted(pairs - set(s.action), key=fintop.ckey)
    if extra:
        out.append(f"action defined on non-composable pair {fmt_point(extra[0])}")
    if missing:
        out.append(f"action not total, missing pair {fmt_point(missing[0])}")
    if extra or missing:
        return out
    for y in sorted_points(total.points):
        if s.action[(base.unit.mapping[q[y]], y)] != y:
            out.append(f"unit law fails at {fmt_point(y)}")
    moved = [p for p, z in s.action.items() if q[z] != tm[p[0]]]
    if moved:
        # the composition law presupposes the projection law
        return out + [f"projection law fails at {fmt_point(min(moved, key=fintop.ckey))}"]
    by_src = {}
    for h in base.arrows.points:
        by_src.setdefault(sm[h], []).append(h)
    bad = [(h, g, y) for (g, y), z in s.action.items() for h in by_src.get(tm[g], ())
           if s.action[(h, z)] != s.action[(base.comp[(h, g)], y)]]
    if bad:
        out.append(f"composition law fails at {fmt_point(min(bad, key=fintop.ckey))}")
    fp, _, _ = fintop.fiber_product(base.src, s.proj)
    act_map = ContinuousMap(
        fp, total, {(g, y): s.action[(g, y)] for (g, y) in fp.points}, check=False
    )
    if not act_map.is_continuous():
        out.append("action not continuous")
    return out


def terminal_sheaf(base: TopGroupoid) -> EquivariantSheaf:
    """Total space = objects, projection = identity, action via targets."""
    action = {
        (g, base.src.mapping[g]): base.tgt.mapping[g] for g in base.arrows.points
    }
    return EquivariantSheaf(
        base, base.objects, fintop.identity_map(base.objects), action
    )


def moerdijk_generator(x: TopGroupoid, u: Subgroupoid) -> EquivariantSheaf:
    """The generating sheaf of an open subgroupoid: pre-composition orbits
    of arrows sourced in the subgroupoid's objects, projected by target,
    acted on by post-composition."""
    if u.ambient != x:
        raise InputError("subgroupoid belongs to a different groupoid")
    cache = x._cache.setdefault("moerdijk", {})
    if u.arrow_set in cache:
        return cache[u.arrow_set]
    if not u.is_open():
        raise InputError("subgroupoid is not open")
    s, t = x.src.mapping, x.tgt.mapping
    u0 = u.object_set
    v = frozenset(a for a in x.arrows.points if s[a] in u0)
    total, q, _ = grpd.bi_orbit_space(x, grpd.identity_subgroupoid(x), u, v)
    cls = q.mapping
    proj = {c: t[next(iter(c))] for c in total.points}
    action = {}
    for c in total.points:
        rep = next(iter(c))
        for g in x.arrows.points:
            if s[g] == t[rep]:
                action[(g, c)] = cls[x.comp[(g, rep)]]
    out = EquivariantSheaf(
        x, total, ContinuousMap(total, x.objects, proj, check=False), action
    )
    cache[u.arrow_set] = out
    return out


def inverse_image(f: ContinuousFunctor, w: EquivariantSheaf) -> EquivariantSheaf:
    """Pullback of a sheaf along a continuous functor.

    Total space is the fiber product of the object map with the
    projection; the action transports the second coordinate through the
    functor's arrow map."""
    if w.base != f.cod:
        raise InputError("sheaf lives on a different groupoid")
    total, pr1, _ = fintop.fiber_product(f.obj_map, w.proj)
    dom = f.dom
    s, t = dom.src.mapping, dom.tgt.mapping
    f1 = f.arr_map.mapping
    action = {}
    for (x, wp) in total.points:
        for g in dom.arrows.points:
            if s[g] == x:
                action[(g, (x, wp))] = (t[g], w.action[(f1[g], wp)])
    return EquivariantSheaf(dom, total, pr1, action)


@dataclass(frozen=True)
class SheafMorphism:
    dom: EquivariantSheaf
    cod: EquivariantSheaf
    mapping: tuple  # sorted ((y, z) ...) pairs, a total map dom.total -> cod.total

    def as_map(self) -> ContinuousMap:
        return ContinuousMap(
            self.dom.total, self.cod.total, dict(self.mapping), check=False
        )

    def validate(self) -> list:
        out = []
        m = dict(self.mapping)
        if set(m) != set(self.dom.total.points):
            return ["morphism not total"]
        cm = self.as_map()
        if not cm.is_continuous():
            out.append("morphism not continuous")
        for y, z in m.items():
            if self.cod.proj.mapping[z] != self.dom.proj.mapping[y]:
                out.append(f"projection not preserved at {fmt_point(y)}")
        for (g, y), y2 in self.dom.action.items():
            if self.cod.action[(g, m[y])] != m[y2]:
                out.append(f"equivariance fails at {fmt_point((g, y))}")
        return out


def transformation_morphism(a: ContinuousTransformation, w: EquivariantSheaf) -> SheafMorphism:
    """The sheaf morphism between the two pullbacks of w induced by a
    continuous transformation: (x, w) |-> (x, a_x . w)."""
    dom = inverse_image(a.source, w)
    cod = inverse_image(a.target, w)
    comp = a.component.mapping
    mapping = tuple(
        sorted(
            (
                ((x, wp), (x, w.action[(comp[x], wp)]))
                for (x, wp) in dom.total.points
            ),
            key=lambda p: fintop.ckey(p[0]),
        )
    )
    return SheafMorphism(dom, cod, mapping)


def orbit_of_subset(s: EquivariantSheaf, subset) -> frozenset:
    """Closure of a subset of the total space under the arrow action."""
    v = frozenset(subset)
    if not v <= s.total.points:
        raise InputError("subset not contained in the total space")
    return frozenset(
        s.action[(g, y)]
        for y in v
        for g in s.base.arrows.points
        if s.base.src.mapping[g] == s.proj.mapping[y]
    ) | v


@dataclass(frozen=True)
class SubobjectLattice:
    """Action-stable open subsets of a sheaf's total space, ordered by
    inclusion: `masks` over `points` (bit i is points[i])."""

    sheaf: EquivariantSheaf
    points: tuple
    masks: frozenset

    @property
    def elements(self) -> tuple:
        """The subsets as frozensets, smallest-first in `fintop.set_key` order."""
        return fintop.sets_in_order(self.masks, self.points)

    def __contains__(self, subset):
        return frozenset(subset) in self.elements

    def __len__(self):
        return len(self.masks)


def subobject_lattice(s: EquivariantSheaf, cap: int = fintop.DEFAULT_OPEN_CAP) -> SubobjectLattice:
    """All action-stable open subsets of the total space.

    These are the unions of the stable neighbourhoods of the orbits: the
    union of the orbits in the quotient's minimal neighbourhood of an
    orbit, one generator mask per orbit.  The result is kept on the
    sheaf, and `cap` is checked on every read.
    """
    if s._lattice is None:
        points = tuple(s.total.points)
        blocks = fintop.partition(points, ((y, z) for (_, y), z in s.action.items()))
        q, _ = fintop.quotient_space(s.total, blocks)
        stable = (frozenset().union(*q.min_open(c)) for c in q.points)
        masks = fintop.union_closure(map(fintop.masker(points), stable), cap)
        s._lattice = SubobjectLattice(s, points, frozenset(masks))
    elif len(s._lattice) > cap:
        raise CapExceeded(f"open family exceeds cap {cap}")
    return s._lattice


@dataclass(frozen=True)
class SubobjectRestriction:
    """The induced map on subobject lattices of a generator sheaf along a
    subgroupoid inclusion: a subobject W of the generator is sent to its
    trace on the pullback, computed by intersection on the underlying
    orbit classes."""

    big: SubobjectLattice
    small: SubobjectLattice
    mapping: tuple  # pairs (mask in big, mask in small)

    def is_injective(self) -> bool:
        return len({v for _, v in self.mapping}) == len(self.mapping)

    def is_surjective(self) -> bool:
        return {v for _, v in self.mapping} == self.small.masks

    def is_bijective(self) -> bool:
        return self.is_injective() and self.is_surjective()


def subobject_restriction(incl: Subgroupoid, u: Subgroupoid,
                          cap: int = fintop.DEFAULT_OPEN_CAP) -> SubobjectRestriction:
    """Restriction of generator subobjects along a subgroupoid inclusion.

    The pullback of the generator of u along the inclusion has as points
    the pairs (object of the subgroupoid, orbit class); a subobject W of
    the generator maps to the pairs whose class lies in W, the OR of the
    lift masks of W's classes.  The result is kept on the ambient
    groupoid by both arrow sets, and `cap` is checked on every read.
    """
    amb = incl.ambient
    if u.ambient != amb:
        raise InputError("subgroupoids of different groupoids")
    cache = amb._cache.setdefault("restriction", {})
    key = (incl.arrow_set, u.arrow_set)
    out = cache.get(key)
    if out is not None:
        if max(len(out.big), len(out.small)) > cap:
            raise CapExceeded(f"open family exceeds cap {cap}")
        return out
    gen = moerdijk_generator(amb, u)
    pulled = inverse_image(incl.inclusion_functor(), gen)
    big = subobject_lattice(gen, cap=cap)
    small = subobject_lattice(pulled, cap=cap)
    lift = dict.fromkeys(big.points, 0)  # disjoint masks of the points over each class
    for j, (_, c) in enumerate(small.points):
        lift[c] |= 1 << j
    mapping = []
    for w in big.masks:
        image = sum(m for i, m in enumerate(lift.values()) if w >> i & 1)
        if image not in small.masks:  # pragma: no cover - mathematically impossible
            raise InputError("internal: restricted subobject not stable open")
        mapping.append((w, image))
    cache[key] = SubobjectRestriction(big, small, tuple(mapping))
    return cache[key]
