"""Decision procedures for subgroupoid inclusions.

Three independent routes decide whether an inclusion induces an
equivalence of sheaf topoi at finite scale:

  * quasi-homeo      -- the comparison map of bi-orbit spaces is a
                        quasi-homeomorphism for every open subgroupoid;
  * two-condition    -- Skula-dense orbits (surjection side) and source
                        determined orbits (inclusion side) both hold;
  * subobject-oracle -- the restriction of generator subobject lattices
                        is a bijection.

The routes provably coincide on finite open T0 groupoids, so any
disagreement raises OracleDisagreement rather than returning a verdict.
The universal quantifier ranges over all open subgroupoids by default; a
user-supplied family downgrades positive answers to "unknown".
"""

from __future__ import annotations

from dataclasses import dataclass

from . import fintop, grpd, sheaf
from .errors import InputError, OracleDisagreement
from .fintop import fmt_point, sorted_points
from .grpd import ContinuousFunctor, Subgroupoid, TopGroupoid

MODES = ("quasi-homeo", "two-condition", "subobject-oracle")


@dataclass(frozen=True)
class Verdict:
    """Outcome of a criterion: yes / no / unknown, with counterexample
    witnesses (minimal in canonical order) and the provenance of the
    subgroupoid family or search bound that was used."""

    answer: str
    witnesses: tuple = ()
    provenance: str = "exhaustive"
    details: tuple = ()

    def __post_init__(self):
        if self.answer not in ("yes", "no", "unknown"):
            raise InputError(f"bad verdict answer {self.answer!r}")
        if self.answer == "no" and not self.witnesses:
            raise InputError("a 'no' verdict needs witnesses")

    def to_json(self):
        return {
            "answer": self.answer,
            "witnesses": [dict(w) for w in self.witnesses],
            "family": self.provenance,
            "details": dict(self.details),
        }

    def __bool__(self):
        return self.answer == "yes"


def _sub_label(u: Subgroupoid):
    return tuple(fmt_point(a) for a in sorted_points(u.arrow_set))


def resolve_family(g: TopGroupoid, family=None, budget: int = 4096):
    """(list of open subgroupoids, provenance string)."""
    if family is None:
        return grpd.enumerate_open_subgroupoids(g, budget=budget), "exhaustive"
    fam = list(family)
    for u in fam:
        if u.ambient != g:
            raise InputError("family member belongs to a different groupoid")
        if not u.is_open():
            raise InputError("family member is not an open subgroupoid")
        if u.validate():
            raise InputError("family member is not a subgroupoid")
    return fam, "user"


# -- the two orbit conditions, reduced to minimal neighbourhoods -----------


def skula_witness(incl: Subgroupoid, u: Subgroupoid):
    """None when the inclusion has Skula dense u-orbits; otherwise the
    minimal counterexample (object x with opens W, W').

    The quantifier over open pairs W, W' of u's object subspace reduces
    to one check per object x: the minimal open of x, intersected with
    the arrow-orbit closure of the included objects, must meet the
    closure of the u-targets of x (else W' = min open of x and
    W = complement of that closure give a counterexample pair).
    """
    amb = incl.ambient
    u0 = u.object_set
    u0space = amb.objects.subspace(u0)
    ybar = grpd.object_orbit_closure(amb, incl.object_set)
    s, t = amb.src.mapping, amb.tgt.mapping
    targets = {x: set() for x in u0}
    for a in u.arrow_set:
        targets[s[a]].add(t[a])
    for x in sorted_points(u0):
        tx = frozenset(targets[x])
        cl = u0space.closure(tx)
        if not (u0space.min_open(x) & ybar & cl):
            return {
                "kind": "skula-dense-orbits",
                "object": fmt_point(x),
                "W": sorted(fmt_point(z) for z in u0 - cl),
                "W_prime": sorted(fmt_point(z) for z in u0space.min_open(x)),
            }
    return None


def has_skula_dense_orbits(incl: Subgroupoid, u: Subgroupoid) -> bool:
    return skula_witness(incl, u) is None


def source_determined_witness(incl: Subgroupoid, u: Subgroupoid):
    """None when every open set of arrows from u-objects to included
    objects has a source determined orbit; otherwise the minimal
    counterexample (arrow whose minimal open fails, with the offending
    arrow gamma).

    Checking all opens V reduces to the minimal open V of each arrow;
    the open neighbourhood W demanded for an arrow can be taken minimal
    as well.  The arrows realised from V, theta o eta o zeta with theta
    included, eta in V and zeta in u, form one set, built once per
    distinct V; every gamma sourced in W must lie in it.
    """
    amb = incl.ambient
    s, t, comp = amb.src.mapping, amb.tgt.mapping, amb.comp
    u0 = u.object_set
    y0 = incl.object_set
    span = frozenset(a for a in amb.arrows.points if s[a] in u0 and t[a] in y0)
    span_space = amb.arrows.subspace(span)
    u0space = amb.objects.subspace(u0)
    u1_to, y1_from, span_from, realised = {}, {}, {}, {}
    for zeta in u.arrow_set:
        u1_to.setdefault(t[zeta], []).append(zeta)
    for theta in incl.arrow_set:
        y1_from.setdefault(s[theta], []).append(theta)
    # every admissible gamma (source in w, a subset of u0; target in y0) is in span
    span_sorted = sorted_points(span)
    for a in span_sorted:
        span_from.setdefault(s[a], []).append(a)
    for alpha in span_sorted:
        v = span_space.min_open(alpha)
        if v not in realised:
            realised[v] = {comp[(theta, comp[(eta, zeta)])] for eta in v
                           for zeta in u1_to.get(s[eta], ()) for theta in y1_from.get(t[eta], ())}
        for x2 in sorted_points(u0space.min_open(s[alpha])):
            for gamma in span_from.get(x2, ()):
                if gamma not in realised[v]:
                    return {
                        "kind": "source-determined-orbit",
                        "arrow": fmt_point(alpha),
                        "V": sorted(fmt_point(a) for a in v),
                        "gamma": fmt_point(gamma),
                    }
    return None


def has_source_determined_orbits(incl: Subgroupoid, u: Subgroupoid) -> bool:
    return source_determined_witness(incl, u) is None


# -- verdicts ----------------------------------------------------------------


def _for_all_members(incl: Subgroupoid, family, budget: int, check) -> Verdict:
    """The universal quantifier over the subgroupoid family.

    `check(u)` returns a witness dict when member u fails, None when it
    passes, or raises OracleDisagreement.  The first failing member gives
    a "no" whose witness names it; otherwise the answer is "yes" for the
    exhaustive family and "unknown" for a user-supplied one.
    """
    bad = incl.validate()
    if bad:
        raise InputError("not a subgroupoid: " + "; ".join(bad))
    fam, provenance = resolve_family(incl.ambient, family, budget)
    for u in fam:
        w = check(u)
        if w is not None:
            w = dict(w, open_subgroupoid=list(_sub_label(u)))
            return Verdict("no", (tuple(sorted(w.items())),), provenance)
    return Verdict("yes" if provenance == "exhaustive" else "unknown", (), provenance)


def is_localic_surjection(incl: Subgroupoid, family=None, budget: int = 4096,
                          cap: int = fintop.DEFAULT_OPEN_CAP) -> Verdict:
    """Surjection criterion: Skula dense u-orbits for every open
    subgroupoid u, cross-checked against injectivity of the subobject
    restriction (OracleDisagreement on mismatch), whose lattices may hold
    at most `cap` elements."""

    def check(u):
        w = skula_witness(incl, u)
        if (w is None) != sheaf.subobject_restriction(incl, u, cap).is_injective():
            raise OracleDisagreement(
                "skula-dense-orbits and subobject injectivity disagree on "
                f"subgroupoid {_sub_label(u)}"
            )
        return w

    return _for_all_members(incl, family, budget, check)


def is_subtopos_inclusion(incl: Subgroupoid, family=None, budget: int = 4096,
                          cap: int = fintop.DEFAULT_OPEN_CAP) -> Verdict:
    """Inclusion criterion: source determined orbits for every open
    subgroupoid, cross-checked against surjectivity of the subobject
    restriction, whose lattices may hold at most `cap` elements."""

    def check(u):
        w = source_determined_witness(incl, u)
        if (w is None) != sheaf.subobject_restriction(incl, u, cap).is_surjective():
            raise OracleDisagreement(
                "source-determined-orbits and subobject surjectivity disagree on "
                f"subgroupoid {_sub_label(u)}; the criteria are only proven to "
                "coincide on T0 groupoids, check the input before suspecting a bug"
            )
        return w

    return _for_all_members(incl, family, budget, check)


def _weq_one_mode(incl: Subgroupoid, u: Subgroupoid, mode: str, cap: int) -> bool:
    if mode == "quasi-homeo":
        return fintop.is_quasi_homeomorphism(grpd.iota_map(incl, u))
    if mode == "two-condition":
        return skula_witness(incl, u) is None and source_determined_witness(incl, u) is None
    if mode == "subobject-oracle":
        return sheaf.subobject_restriction(incl, u, cap).is_bijective()
    raise InputError(f"unknown mode {mode!r}")


def is_weak_equivalence(incl: Subgroupoid, family=None, mode: str = "all",
                        budget: int = 4096, cap: int = fintop.DEFAULT_OPEN_CAP) -> Verdict:
    """Does the inclusion induce an equivalence of sheaf topoi?

    mode is one of "quasi-homeo", "two-condition", "subobject-oracle" or
    "all"; with "all" every route is run on every family member and any
    disagreement raises OracleDisagreement.  The subobject lattices may
    hold at most `cap` elements."""
    if mode != "all" and mode not in MODES:
        raise InputError(f"unknown mode {mode!r}")
    modes = MODES if mode == "all" else (mode,)

    def check(u):
        answers = {m: _weq_one_mode(incl, u, m, cap) for m in modes}
        if len(set(answers.values())) > 1:
            raise OracleDisagreement(
                f"weak-equivalence modes disagree on subgroupoid {_sub_label(u)}: "
                + ", ".join(f"{m}={v}" for m, v in sorted(answers.items()))
                + "; the modes are only proven to coincide on T0 groupoids"
            )
        if next(iter(answers.values())):
            return None
        detail = skula_witness(incl, u) or source_determined_witness(incl, u) or {}
        return dict(detail, mode=",".join(modes))

    return _for_all_members(incl, family, budget, check)


# -- surjection-inclusion factorization -------------------------------------


@dataclass(frozen=True)
class Factorization:
    """Both legs of the essential-image factorization with their
    certificates: the first leg is certified surjective on objects with
    Skula dense orbits of its image, the second leg is certified a
    subtopos inclusion."""

    first: ContinuousFunctor
    second: Subgroupoid
    surjective_on_objects: bool
    image_skula_dense: Verdict
    inclusion_certificate: Verdict

    def certificates_pass(self) -> bool:
        return (
            self.surjective_on_objects
            and self.image_skula_dense.answer == "yes"
            and self.inclusion_certificate.answer == "yes"
        )


def factorize(f: ContinuousFunctor, budget: int = 4096,
              cap: int = fintop.DEFAULT_OPEN_CAP) -> Factorization:
    """Factor a continuous functor through its full essential image.

    Returns the corestriction onto the full essential image and the full
    replete inclusion.  The image certificate is the surjection verdict
    of the image inside the full essential image, and the inclusion
    certificate the subtopos verdict of the full essential image, so
    both are cross-checked against the subobject restriction.
    """
    fei = grpd.full_essential_image(f)
    fei_grpd = fei.as_groupoid()
    first = ContinuousFunctor(
        f.dom,
        fei_grpd,
        {x: f.obj_map.mapping[x] for x in f.dom.objects.points},
        {a: f.arr_map.mapping[a] for a in f.dom.arrows.points},
    )
    img = grpd.image(f)
    img_in_fei = Subgroupoid(fei_grpd, img.arrow_set)
    surj = frozenset(f.obj_map.mapping.values()) == img.object_set
    image_cert = is_localic_surjection(img_in_fei, budget=budget, cap=cap)
    incl_cert = is_subtopos_inclusion(fei, budget=budget, cap=cap)
    return Factorization(first, fei, surj, image_cert, incl_cert)
