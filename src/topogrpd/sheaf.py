"""Equivariant sheaves on finite topological groupoids.

A sheaf is a local homeomorphism onto the object space together with a
continuous arrow action on its fibers.  Everything is stored
extensionally: total spaces are finite, actions are tables.  The
restriction of generator subobjects is the independent oracle against
which the weak-equivalence criteria are cross-checked.  It reads the
generator of an open subgroupoid on class indices, with each class's
smallest stable open as an int mask, and builds no sheaf;
`moerdijk_generator` is the sheaf of frozensets built from those
indices.  The generator lists its pre-composition classes itself, from
one representative each, and cuts them with `fintop.quotient_space`:
it reads no bi-orbit code of `grpd`, so this route shares nothing with
the quasi-homeo route.  The subobject lattices work on the same masks over a sheaf's
points; only `SubobjectLattice.elements` sorts masks into frozensets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from . import fintop
from .errors import InputError
from .fintop import ContinuousMap, FinSpace, fmt_point, sorted_points
from .grpd import ContinuousFunctor, Subgroupoid, TopGroupoid


class EquivariantSheaf:
    """A local homeomorphism proj: total -> base objects with an arrow
    action, stored as a table on pairs (arrow g, point y) with
    proj(y) = src(g)."""

    __slots__ = ("base", "total", "proj", "action")

    def __init__(self, base: TopGroupoid, total: FinSpace, proj, action):
        self.base = base
        self.total = total
        self.proj = proj if isinstance(proj, ContinuousMap) else ContinuousMap(
            total, base.objects, proj)
        if self.proj.domain != total or self.proj.codomain != base.objects:
            raise InputError("projection has wrong domain or codomain")
        self.action = dict(action)
        for (g, y), z in self.action.items():
            if g not in base.arrows.points or y not in total.points or z not in total.points:
                raise InputError("action entry outside sheaf data")

    def __eq__(self, other):
        if not isinstance(other, EquivariantSheaf):
            return NotImplemented
        return (
            self.base == other.base
            and self.total == other.total
            and self.proj == other.proj
            and self.action == other.action
        )

    def __repr__(self):
        return f"EquivariantSheaf({len(self.total)} points over {len(self.base.objects)} objects)"


def validate_sheaf(s: EquivariantSheaf) -> list:
    """Named violations of the equivariant-sheaf contract (empty iff valid)."""
    out = []
    base, total = s.base, s.total
    q = s.proj.mapping
    tm = base.tgt.mapping
    if not s.proj.is_continuous():
        out.append("projection not continuous")
    elif not fintop.is_local_homeomorphism(s.proj):
        out.append("projection not a local homeomorphism")
    pairs = {(g, y) for y in total.points for g in base.out_of[q[y]]}
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
    bad = [(h, g, y) for (g, y), z in s.action.items() for h in base.out_of[tm[g]]
           if s.action[(h, z)] != s.action[(base.comp[(h, g)], y)]]
    if bad:
        out.append(f"composition law fails at {fmt_point(min(bad, key=fintop.ckey))}")
    fp, _, _ = fintop.fiber_product(base.src, s.proj)
    act_map = ContinuousMap(fp, total, {(g, y): s.action[(g, y)] for (g, y) in fp.points})
    if not act_map.is_continuous():
        out.append("action not continuous")
    return out


class _Generator(NamedTuple):
    """The generating sheaf of an open subgroupoid on class indices:
    `cls` sends each arrow sourced in its objects to its pre-composition
    class, class i has the representative arrow reps[i] and projects to
    q[i], and mins[i] and nb[i] are its minimal open and its smallest
    stable open, as int masks of class indices."""

    cls: dict
    reps: list
    q: list
    mins: list
    nb: list


def _generator(x: TopGroupoid, u: Subgroupoid) -> _Generator:
    return x.memo("generator", u.arrow_set, _build_generator, x, u)


def _build_generator(x: TopGroupoid, u: Subgroupoid) -> _Generator:
    if not u.is_open():
        raise InputError("subgroupoid is not open")
    t, comp = x.tgt.mapping, x.comp
    into = {}  # u's arrows by target
    for b in u.arrow_set:
        into.setdefault(t[b], []).append(b)
    cls, reps = {}, []  # the class {a o b : b in u} of each arrow a out of u's objects
    for y, bs in into.items():
        for a in x.out_of[y]:
            if a not in cls:
                cls.update(dict.fromkeys((comp[(a, b)] for b in bs), len(reps)))
                reps.append(a)
    mins = fintop.quotient_space(x.arrows, cls, len(reps))
    q = [t[a] for a in reps]
    step = []  # class i steps into its minimal open and along its orbit
    for m, a, y in zip(mins, reps, q):
        for g in x.out_of[y]:
            m |= 1 << cls[comp[(g, a)]]
        step.append(m)
    return _Generator(cls, reps, q, mins, fintop.reach(step, range(len(step))))


def moerdijk_generator(x: TopGroupoid, u: Subgroupoid) -> EquivariantSheaf:
    """The generating sheaf of an open subgroupoid: pre-composition orbits
    of arrows sourced in the subgroupoid's objects, projected by target,
    acted on by post-composition."""
    if u.ambient != x:
        raise InputError("subgroupoid belongs to a different groupoid")
    gen = _generator(x, u)
    blocks = [[] for _ in gen.reps]
    for a, i in gen.cls.items():
        blocks[i].append(a)
    points = [frozenset(b) for b in blocks]
    total = FinSpace(points, {c: frozenset(points[j] for j in fintop.bits(m))
                              for c, m in zip(points, gen.mins)}, _check=False)
    action = {(g, c): points[gen.cls[x.comp[(g, a)]]]
              for c, a, y in zip(points, gen.reps, gen.q) for g in x.out_of[y]}
    return EquivariantSheaf(x, total, dict(zip(points, gen.q)), action)


def inverse_image(f: ContinuousFunctor, w: EquivariantSheaf) -> EquivariantSheaf:
    """Pullback of a sheaf along a continuous functor.

    Total space is the fiber product of the object map with the
    projection; the action transports the second coordinate through the
    functor's arrow map."""
    if w.base != f.cod:
        raise InputError("sheaf lives on a different groupoid")
    total, pr1, _ = fintop.fiber_product(f.obj_map, w.proj)
    dom = f.dom
    t = dom.tgt.mapping
    f1 = f.arr_map.mapping
    action = {}
    for (x, wp) in total.points:
        for g in dom.out_of[x]:
            action[(g, (x, wp))] = (t[g], w.action[(f1[g], wp)])
    return EquivariantSheaf(dom, total, pr1, action)


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
        return fintop.sets_in_order(self.masks, self.points, self.sheaf.total)

    def __contains__(self, subset):
        s = frozenset(subset)
        return s <= self.sheaf.total.points and fintop.masker(self.points)(s) in self.masks

    def __len__(self):
        return len(self.masks)


def subobject_lattice(s: EquivariantSheaf, cap: int = fintop.DEFAULT_OPEN_CAP) -> SubobjectLattice:
    """All action-stable open subsets of the total space, listed per call:
    the unions of the stable neighbourhoods of its points.  A point's
    stable neighbourhood is every point reached from it through minimal
    opens and the action, as a mask over the total space's points.
    """
    q, out_of, action = s.proj.mapping, s.base.out_of, s.action
    bit = {y: 1 << i for i, y in enumerate(s.total.points)}
    step = []
    for y in bit:
        m = sum(bit[z] for z in s.total.min_open(y))
        for g in out_of[q[y]]:
            m |= bit[action[(g, y)]]
        step.append(m)
    nb = fintop.reach(step, range(len(step)))
    return SubobjectLattice(s, tuple(bit), frozenset(fintop.union_closure(nb, cap)))


class Restriction(NamedTuple):
    """Is the restriction of generator subobjects injective, surjective?"""

    injective: bool
    surjective: bool

    def is_bijective(self) -> bool:
        return self.injective and self.surjective


def subobject_restriction(incl: Subgroupoid, u: Subgroupoid) -> Restriction:
    """Restriction r(W) = W ∩ P of the subobjects W of u's generator along
    a subgroupoid inclusion, decided through its left adjoint.

    The pullback of the generator along the inclusion is the subspace P
    of generator points over the subgroupoid's objects, acted on by its
    arrows.  r has the left adjoint g(V), the join of the generator's
    stable neighbourhoods N(c) of the points c of V.  r is injective iff
    g(r(N)) = N, and surjective iff r(g(N')) = N', for every stable
    neighbourhood N of the generator and N' of P, as both composites
    preserve joins.  g(r(N)) = N iff N is N(c) for some c in P, and
    g(N'(c)) = N(c), so these read off the neighbourhood masks (README
    "Scope notes").  The result is kept on the ambient groupoid by both
    arrow sets.
    """
    amb = incl.ambient
    if u.ambient != amb:
        raise InputError("subgroupoids of different groupoids")
    return amb.memo("restriction", (incl.arrow_set, u.arrow_set), _restriction, amb, incl, u)


def _restriction(amb: TopGroupoid, incl: Subgroupoid, u: Subgroupoid) -> Restriction:
    gen = _generator(amb, u)
    y0, y1, nb = incl.object_set, incl.arrow_set, gen.nb
    p = [i for i, y in enumerate(gen.q) if y in y0]
    pmask = sum(1 << i for i in p)
    step = {}  # P's minimal opens, and its orbits under the subgroupoid's arrows
    for i in p:
        m, a = gen.mins[i], gen.reps[i]
        for g in amb.out_of[gen.q[i]]:
            if g in y1:
                m |= 1 << gen.cls[amb.comp[(g, a)]]
        step[i] = m & pmask
    return Restriction({nb[i] for i in p} == set(nb),
                       all(m == nb[i] & pmask for i, m in zip(p, fintop.reach(step, p))))
