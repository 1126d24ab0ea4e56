"""Cospan morphisms and composition in the localized bi-category.

A morphism is a cospan: a continuous functor into an apex together with
a certified weak-equivalence inclusion of the target into the same
apex.  Composition completes the middle span by the left Ore property.
The purely topological Ore completion is out of reach at this level, so
all composition-side operations demand model-groupoid presentation: the
completed apex is the merged model groupoid (union of member models,
merged parameters, all isomorphisms), the new inclusion is certified
from scratch, and the comparison 2-cell of the Ore square is found by
exhaustive natural-transformation search.  Identity-shaped spans
short-circuit, which makes the unit laws hold on the nose.

2-cells are restricted to cospans sharing an apex, with vertical
composition only.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import grpd, logic, weq
from .errors import (
    BudgetExceeded,
    CertificateError,
    InputError,
    NotModelPresented,
)
from .grpd import ContinuousFunctor, ContinuousTransformation, Subgroupoid
from .logic import ModelGroupoid
from .weq import Verdict


class ModelFunctor:
    """A functor of model groupoids: models to models, isomorphisms to
    isomorphisms.  derived() realises it between the derived topological
    groupoids and validates continuity there."""

    def __init__(self, dom: ModelGroupoid, cod: ModelGroupoid, obj_map, arr_map):
        self.dom = dom
        self.cod = cod
        self.obj_map = dict(obj_map)
        self.arr_map = dict(arr_map)
        for n, v in self.obj_map.items():
            if n not in dom.by_name or v not in cod.by_name:
                raise InputError("object map outside member names")
        if set(self.obj_map) != set(dom.by_name):
            raise InputError("object map not total")
        if set(self.arr_map) != set(dom.arrows):
            raise InputError("arrow map not total")
        for a, b in self.arr_map.items():
            if b not in cod.arrows:
                raise InputError("arrow map value outside codomain arrows")
            if b.src != self.obj_map[a.src] or b.tgt != self.obj_map[a.tgt]:
                raise InputError("arrow map incompatible with object map")
        for a in dom.arrows:
            for b in dom.arrows:
                if b.src == a.tgt:
                    lhs = self.arr_map[logic.compose_isos(b, a)]
                    rhs = logic.compose_isos(self.arr_map[b], self.arr_map[a])
                    if lhs != rhs:
                        raise InputError("arrow map not functorial")

    def derived(self, depth: int, tuple_cap: int = logic.DEFAULT_TUPLE_CAP) -> ContinuousFunctor:
        d, c = self.dom.derive(depth, tuple_cap), self.cod.derive(depth, tuple_cap)
        return ContinuousFunctor(d.groupoid, c.groupoid, self.obj_map, self.arr_map)

    def __eq__(self, other):
        if not isinstance(other, ModelFunctor):
            return NotImplemented
        return (
            self.dom == other.dom
            and self.cod == other.cod
            and self.obj_map == other.obj_map
            and self.arr_map == other.arr_map
        )


def identity_model_functor(g: ModelGroupoid) -> ModelFunctor:
    return ModelFunctor(g, g, {n: n for n in g.by_name}, {a: a for a in g.arrows})


def compose_model_functors(g: ModelFunctor, f: ModelFunctor) -> ModelFunctor:
    if f.cod != g.dom:
        raise InputError("model functors not composable")
    return ModelFunctor(
        f.dom,
        g.cod,
        {n: g.obj_map[f.obj_map[n]] for n in f.obj_map},
        {a: g.arr_map[f.arr_map[a]] for a in f.arr_map},
    )


class ModelInclusion:
    """An inclusion of model groupoids: the sub's members, parameters and
    arrows are all contained in the ambient's."""

    def __init__(self, sub: ModelGroupoid, ambient: ModelGroupoid):
        self.sub = sub
        self.ambient = ambient
        if sub.signature != ambient.signature:
            raise InputError("inclusion across signatures")
        for p, s in sub.params.items():
            if ambient.params.get(p) != s:
                raise InputError(f"parameter {p} not in the ambient groupoid")
        for im in sub.members:
            if ambient.by_name.get(im.name) != im:
                raise InputError(f"member {im.name} not in the ambient groupoid")
        if not sub.arrows <= ambient.arrows:
            raise InputError("arrows not contained in the ambient groupoid")

    def derived_subgroupoid(self, depth: int, tuple_cap: int = logic.DEFAULT_TUPLE_CAP) -> Subgroupoid:
        amb = self.ambient.derive(depth, tuple_cap)
        return Subgroupoid(amb.groupoid, self.sub.arrows)

    def as_model_functor(self) -> ModelFunctor:
        return ModelFunctor(
            self.sub,
            self.ambient,
            {n: n for n in self.sub.by_name},
            {a: a for a in self.sub.arrows},
        )

    def is_identity(self) -> bool:
        return self.sub == self.ambient

    def __eq__(self, other):
        if not isinstance(other, ModelInclusion):
            return NotImplemented
        return self.sub == other.sub and self.ambient == other.ambient


def merge_and_complete(parts, budget: int = 4096) -> ModelGroupoid:
    """Union of member models under the merged parameter set, with all
    isomorphisms between them (etale-completion style apex)."""
    parts = list(parts)
    if not parts:
        raise InputError("nothing to merge")
    sig = parts[0].signature
    params = {}
    members = {}
    for g in parts:
        if g.signature != sig:
            raise NotModelPresented("merge across different signatures")
        for p, s in g.params.items():
            if params.setdefault(p, s) != s:
                raise InputError(f"parameter {p} declared at two sorts")
        for im in g.members:
            old = members.setdefault(im.name, im)
            if old != im:
                raise InputError(f"member name clash at {im.name}")
    member_list = tuple(members[n] for n in sorted(members))
    probe = ModelGroupoid(
        sig, params, member_list,
        [logic.identity_iso(im.model) for im in member_list],
    )
    arrows = logic.all_isos_between_members(probe)
    if len(arrows) > budget:
        raise BudgetExceeded(
            f"merged groupoid has {len(arrows)} arrows, budget {budget}"
        )
    return ModelGroupoid(sig, params, member_list, arrows)


@dataclass(frozen=True)
class CospanMorphism:
    """A localized-bi-category morphism source -> target: a forward leg
    into the apex plus a certified weak-equivalence inclusion of the
    target into the apex."""

    fwd: ModelFunctor
    weq_leg: ModelInclusion
    certificate: Verdict
    depth: int
    tuple_cap: int

    @property
    def source(self) -> ModelGroupoid:
        return self.fwd.dom

    @property
    def target(self) -> ModelGroupoid:
        return self.weq_leg.sub

    @property
    def apex(self) -> ModelGroupoid:
        return self.fwd.cod


def make_cospan(fwd: ModelFunctor, weq_leg: ModelInclusion, depth: int,
                tuple_cap: int = logic.DEFAULT_TUPLE_CAP,
                budget: int = 4096) -> CospanMorphism:
    """Certify and assemble a cospan; rejects legs that fail the
    weak-equivalence certificate."""
    if fwd.cod != weq_leg.ambient:
        raise InputError("forward leg and inclusion leg have different apexes")
    fwd.derived(depth, tuple_cap)
    cert = weq.is_weak_equivalence(
        weq_leg.derived_subgroupoid(depth, tuple_cap), mode="all", budget=budget
    )
    if cert.answer != "yes":
        raise CertificateError(
            f"weq certificate failed: {cert.answer} {cert.witnesses[:1]}"
        )
    return CospanMorphism(fwd, weq_leg, cert, depth, tuple_cap)


def identity_cospan(g: ModelGroupoid, depth: int,
                    tuple_cap: int = logic.DEFAULT_TUPLE_CAP) -> CospanMorphism:
    cert = Verdict("yes", (), "exhaustive", (("identity", True),))
    return CospanMorphism(
        identity_model_functor(g), ModelInclusion(g, g), cert, depth, tuple_cap
    )


@dataclass(frozen=True)
class OreSquare:
    """Completion of a span (weq inclusion, functor) to a square
    commuting up to a continuous isomorphism of the derived legs."""

    apex: ModelGroupoid
    psi2: ModelInclusion       # certified weak equivalence into the apex
    phi2: ModelFunctor
    iso: ContinuousTransformation
    certificate: Verdict


def ore_complete(psi: ModelInclusion, phi: ModelFunctor, depth: int,
                 tuple_cap: int = logic.DEFAULT_TUPLE_CAP,
                 budget: int = 4096) -> OreSquare:
    """Complete the span (psi: Y -> W weak equivalence, phi: Y -> X) to
    psi2: X -> V, phi2: W -> V with phi2 o psi isomorphic to psi2 o phi.

    Identity-shaped psi short-circuits to V = X with an identity 2-cell.
    Otherwise V is the merged completion of X and W, both new legs are
    canonical inclusions, psi2 is certified, and the 2-cell is found by
    transformation search; certification or search failure raises
    CertificateError rather than emitting an uncertified square.
    """
    if psi.sub != phi.dom:
        raise InputError("span legs have different feet")
    if psi.is_identity():
        cert = Verdict("yes", (), "exhaustive", (("identity", True),))
        ident = ModelInclusion(phi.cod, phi.cod)
        return OreSquare(
            phi.cod, ident, phi,
            grpd.identity_transformation(phi.derived(depth, tuple_cap)), cert,
        )
    apex = merge_and_complete([phi.cod, psi.ambient], budget)
    psi2 = ModelInclusion(phi.cod, apex)
    cert = weq.is_weak_equivalence(
        psi2.derived_subgroupoid(depth, tuple_cap), mode="all", budget=budget
    )
    if cert.answer != "yes":
        raise CertificateError(
            f"completed leg fails weak-equivalence certificate: {cert.answer}"
        )
    phi2 = ModelInclusion(psi.ambient, apex).as_model_functor()
    left = compose_model_functors(phi2, psi.as_model_functor())
    right = compose_model_functors(psi2.as_model_functor(), phi)
    candidates = grpd.transformations(
        left.derived(depth, tuple_cap), right.derived(depth, tuple_cap), limit=1
    )
    if not candidates:
        raise CertificateError("no comparison isomorphism for the Ore square")
    return OreSquare(apex, psi2, phi2, candidates[0], cert)


def compose(f: CospanMorphism, g: CospanMorphism, budget: int = 4096) -> CospanMorphism:
    """Composite cospan source(f) -> target(g), with the middle span
    completed by ore_complete and the composite inclusion re-certified."""
    if f.target != g.source:
        raise InputError("cospans not composable")
    depth, tuple_cap = max(f.depth, g.depth), max(f.tuple_cap, g.tuple_cap)
    square = ore_complete(f.weq_leg, g.fwd, depth, tuple_cap, budget)
    fwd = compose_model_functors(square.phi2, f.fwd)
    leg = ModelInclusion(g.target, square.apex)
    cert = weq.is_weak_equivalence(
        leg.derived_subgroupoid(depth, tuple_cap), mode="all", budget=budget
    )
    if cert.answer != "yes":
        raise CertificateError(
            f"composite weq leg fails certification: {cert.answer}"
        )
    return CospanMorphism(fwd, leg, cert, depth, tuple_cap)


@dataclass(frozen=True)
class TwoCell:
    """A 2-cell between cospans sharing an apex: a continuous
    transformation between the derived forward legs."""

    left: CospanMorphism
    right: CospanMorphism
    data: ContinuousTransformation


def make_two_cell(left: CospanMorphism, right: CospanMorphism,
                  data: ContinuousTransformation) -> TwoCell:
    if left.apex != right.apex or left.source != right.source or left.target != right.target:
        raise InputError("2-cells need cospans with a shared apex and feet")
    depth, cap = left.depth, left.tuple_cap
    if data.source != left.fwd.derived(depth, cap) or data.target != right.fwd.derived(depth, cap):
        raise InputError("2-cell data does not match the forward legs")
    bad = data.validate()
    if bad:
        raise InputError("; ".join(bad))
    return TwoCell(left, right, data)


def vertical_compose_cells(b: TwoCell, a: TwoCell) -> TwoCell:
    if a.right != b.left:
        raise InputError("2-cells not vertically composable")
    return TwoCell(a.left, b.right, grpd.vertical_compose(b.data, a.data))


@dataclass(frozen=True)
class CospanIsoCertificate:
    """Evidence that two cospans are isomorphic: a mediating functor
    between the apexes (the identity, or a certified weak-equivalence
    inclusion) plus continuous isomorphisms on both legs."""

    direction: str  # "1->2" or "2->1"
    mediator: str   # "identity" or "inclusion"
    mediator_certificate: Verdict
    fwd_iso: ContinuousTransformation
    leg_iso: ContinuousTransformation


def _try_mediated(c_from: CospanMorphism, c_to: CospanMorphism, direction,
                  budget: int):
    depth = max(c_from.depth, c_to.depth)
    cap = max(c_from.tuple_cap, c_to.tuple_cap)
    if c_from.apex == c_to.apex:
        mediator = identity_model_functor(c_from.apex)
        kind, cert = "identity", Verdict("yes", (), "exhaustive", (("identity", True),))
    else:
        try:
            incl = ModelInclusion(c_from.apex, c_to.apex)
        except InputError:
            return None
        cert = weq.is_weak_equivalence(
            incl.derived_subgroupoid(depth, cap), mode="all", budget=budget
        )
        if cert.answer != "yes":
            return None
        mediator, kind = incl.as_model_functor(), "inclusion"
    fwd_from = compose_model_functors(mediator, c_from.fwd).derived(depth, cap)
    fwd_to = c_to.fwd.derived(depth, cap)
    fwd_isos = grpd.transformations(fwd_from, fwd_to, limit=1)
    if not fwd_isos:
        return None
    leg_from = compose_model_functors(
        mediator, c_from.weq_leg.as_model_functor()
    ).derived(depth, cap)
    leg_to = c_to.weq_leg.as_model_functor().derived(depth, cap)
    leg_isos = grpd.transformations(leg_from, leg_to, limit=1)
    if not leg_isos:
        return None
    return CospanIsoCertificate(direction, kind, cert, fwd_isos[0], leg_isos[0])


def cospans_isomorphic(c1: CospanMorphism, c2: CospanMorphism,
                       budget: int = 4096):
    """A certificate that the cospans present the same localized
    morphism, or None if the (sufficient, not complete) search fails."""
    if c1.source != c2.source or c1.target != c2.target:
        return None
    return _try_mediated(c1, c2, "1->2", budget) or _try_mediated(
        c2, c1, "2->1", budget
    )


@dataclass(frozen=True)
class MoritaResult:
    verdict: Verdict
    apex: ModelGroupoid | None = None
    left_leg: ModelInclusion | None = None
    right_leg: ModelInclusion | None = None


def _separating_sentence(x: ModelGroupoid, y: ModelGroupoid, depth, budget):
    """A sentence holding on exactly one side's members, if one exists at
    this depth (heuristic evidence for a failed search)."""
    eng = logic.DefinableSets(
        x.signature, [im.model for im in x.members + y.members], budget
    )
    xs = {im.name for im in x.members}
    ys = {im.name for im in y.members}
    for ext, ast in eng.level((), depth).items():
        holds = {n for (n, _) in ext}
        if holds & (xs | ys) == xs or holds & (xs | ys) == ys:
            if holds & (xs | ys) not in (set(), xs | ys):
                return logic.print_formula(ast)
    return None


def morita_search(x: ModelGroupoid, y: ModelGroupoid, depth: int,
                  tuple_cap: int = logic.DEFAULT_TUPLE_CAP,
                  budget: int = 4096) -> MoritaResult:
    """Search for a common groupoid receiving both inputs by certified
    weak-equivalence inclusions: the merged completion is tried at
    `depth` and at `depth + 1`.  Success is a definitive yes; exhaustion
    is "unknown" with heuristic evidence, never a no."""
    if x.signature != y.signature:
        raise NotModelPresented("morita search across different signatures")
    evidence = []
    try:
        apex = merge_and_complete([x, y], budget)
    except InputError as e:
        raise InputError(f"cannot merge inputs: {e}")
    for d in (depth, depth + 1):
        incl_x = ModelInclusion(x, apex)
        incl_y = ModelInclusion(y, apex)
        vx = weq.is_weak_equivalence(
            incl_x.derived_subgroupoid(d, tuple_cap), mode="all", budget=budget
        )
        vy = weq.is_weak_equivalence(
            incl_y.derived_subgroupoid(d, tuple_cap), mode="all", budget=budget
        )
        if vx.answer == "yes" and vy.answer == "yes":
            return MoritaResult(
                Verdict("yes", (), f"merged-completion,depth={d}"),
                apex, incl_x, incl_y,
            )
        evidence.append(
            (("depth", d), ("left", vx.answer), ("right", vy.answer))
        )
    sentence = _separating_sentence(x, y, depth, budget)
    details = [("candidates_tried", 2)]
    if sentence is not None:
        details.append(("separating_sentence", sentence))
    return MoritaResult(
        Verdict("unknown", tuple(evidence), "merged-completion", tuple(details))
    )
