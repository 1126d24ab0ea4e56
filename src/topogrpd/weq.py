"""Decision procedures for subgroupoid inclusions.

Three independent routes decide whether an inclusion induces an
equivalence of sheaf topoi at finite scale:

  * quasi-homeo      -- the comparison map of bi-orbit spaces is a
                        quasi-homeomorphism for every open subgroupoid;
  * two-condition    -- Skula-dense orbits (surjection side) and source
                        determined orbits (inclusion side) both hold;
  * subobject-oracle -- the restriction of generator subobjects is a
                        bijection, decided through its left adjoint.

The routes provably coincide on finite open T0 groupoids, so any
disagreement raises OracleDisagreement rather than returning a verdict.
The universal quantifier ranges over the open atoms (the comp/inv
closures of the arrows' minimal neighbourhoods; README "Scope notes"
shows why every open subgroupoid then passes too), so every verdict is
a definitive yes or no.

The verdicts share their per-(inclusion, atom) conditions, which are kept
on the ambient: the three verdicts of an inclusion compute each once.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import fintop, grpd, sheaf
from .errors import InputError, OracleDisagreement
from .fintop import ckey, fmt_point, sorted_points
from .grpd import ContinuousFunctor, Subgroupoid

MODES = ("quasi-homeo", "two-condition", "subobject-oracle")


@dataclass(frozen=True)
class Verdict:
    """Outcome of a criterion: yes / no / unknown, with counterexample
    witnesses (minimal in canonical order) and the provenance of the
    quantified family ("atoms" for the weq criteria) or search bound."""

    answer: str
    witnesses: tuple = ()
    provenance: str = "atoms"
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
    return tuple(fmt_point(a) for a in fintop.in_order(u.ambient.arrows, u.arrow_set))


# -- the two orbit conditions, reduced to minimal neighbourhoods -----------


def _per_pair(name, body, incl: Subgroupoid, u: Subgroupoid):
    """body(incl, u), kept on the ambient; a failing witness is the caller's own copy."""
    amb = incl.ambient
    if u.ambient != amb:
        raise InputError("subgroupoids of different groupoids")
    w = amb.memo(name, (incl.arrow_set, u.arrow_set), body, incl, u)
    return w and {k: v.copy() if isinstance(v, list) else v for k, v in w.items()}


def skula_witness(incl: Subgroupoid, u: Subgroupoid):
    """None when the inclusion has Skula dense u-orbits; otherwise the
    minimal counterexample (object x with opens W, W').

    The quantifier over open pairs W, W' of u's object subspace reduces
    to one check per object x: the minimal open of x, intersected with
    the arrow-orbit closure of the included objects, must meet the
    closure of the u-targets of x (else W' = min open of x and
    W = complement of that closure give a counterexample pair).
    """
    return _per_pair("skula", _skula_witness, incl, u)


def _skula_witness(incl: Subgroupoid, u: Subgroupoid):
    amb = incl.ambient
    u0 = u.object_set
    ybar = grpd.object_orbit_closure(amb, incl.object_set)
    s, t, min_open = amb.src.mapping, amb.tgt.mapping, amb.objects.min_open
    targets = {x: set() for x in u0}
    for a in u.arrow_set:
        targets[s[a]].add(t[a])
    # the closure of each object's u-targets in the subspace u0
    cl = {x: frozenset(z for z in u0 if not min_open(z).isdisjoint(targets[x])) for x in u0}
    # scanned in set order; only the failures are sorted, to name the least
    bad = [x for x in u0 if not (min_open(x) & ybar & cl[x])]
    if not bad:
        return None
    x = min(bad, key=ckey)
    return {
        "kind": "skula-dense-orbits",
        "object": fmt_point(x),
        "W": sorted(fmt_point(z) for z in u0 - cl[x]),
        "W_prime": sorted(fmt_point(z) for z in min_open(x) & u0),
    }


def source_determined_witness(incl: Subgroupoid, u: Subgroupoid):
    """None when every open set of arrows from u-objects to included
    objects has a source determined orbit; otherwise the minimal
    counterexample (arrow whose minimal open fails, with the offending
    arrow gamma).

    Checking all opens V reduces to the minimal open V of each arrow;
    the open neighbourhood W demanded for an arrow can be taken minimal
    as well.  The arrows realised from V, theta o eta o zeta with theta
    included, eta in V and zeta in u, form one set, built once per
    distinct V; every gamma sourced in W must lie in it.  An arrow's test
    runs once per pair (its minimal open, its source's).  Whether some
    gamma fails does not depend on the order of the search, so it runs in
    set order, and only a failing call repeats it in canonical order to
    name the minimal (alpha, V, gamma).
    """
    return _per_pair("source_determined", _source_determined_witness, incl, u)


def _source_determined_witness(incl: Subgroupoid, u: Subgroupoid):
    amb = incl.ambient
    s, t, comp = amb.src.mapping, amb.tgt.mapping, amb.comp
    arrow_min, object_min = amb.arrows.min_opens(), amb.objects.min_opens()
    u0 = u.object_set
    y0 = incl.object_set
    span_from, keyed = {}, {}  # the span's arrows by source; the first with each key
    for x in u0:
        for a in amb.out_of[x]:
            if t[a] in y0:
                span_from.setdefault(x, []).append(a)
                keyed.setdefault((arrow_min[a], object_min[x]), a)
    if not keyed:
        return None
    span = frozenset().union(*span_from.values())
    u1_to, y1_from, realised = {}, {}, {}
    for zeta in u.arrow_set:
        u1_to.setdefault(t[zeta], []).append(zeta)
    for theta in incl.arrow_set:
        y1_from.setdefault(s[theta], []).append(theta)

    def first_failure(keyed, order):
        # every admissible gamma (source in w, a subset of u0; target in y0) is in span
        for (ua, ux), alpha in keyed.items():
            v = ua & span
            r = realised.get(v)
            if r is None:
                r = realised[v] = {comp[(theta, comp[(eta, zeta)])] for eta in v
                                   for zeta in u1_to.get(s[eta], ())
                                   for theta in y1_from.get(t[eta], ())}
            for x2 in order(ux & u0):
                for gamma in span_from.get(x2, ()):
                    if gamma not in r:
                        return alpha, v, gamma
        return None

    if first_failure(keyed, iter) is None:
        return None
    first, rank = {}, amb.arrows.rank()
    for a in fintop.in_order(amb.arrows, span):
        first.setdefault((arrow_min[a], object_min[s[a]]), a)
    for arrows in span_from.values():
        arrows.sort(key=rank.__getitem__)
    alpha, v, gamma = first_failure(first, sorted_points)
    return {
        "kind": "source-determined-orbit",
        "arrow": fmt_point(alpha),
        "V": sorted(fmt_point(a) for a in v),
        "gamma": fmt_point(gamma),
    }


# -- verdicts ----------------------------------------------------------------


def _for_all_members(incl: Subgroupoid, check) -> Verdict:
    """The universal quantifier over the open atoms of the ambient.

    `check(u)` returns a witness dict when atom u fails, None when it
    passes, or raises OracleDisagreement.  The first failing atom gives
    a "no" whose witness names it; otherwise the answer is "yes".
    `details` records how many atoms were walked.  A subgroupoid that is
    not an open groupoid itself is outside the proven scope and an input
    error; the ambient keeps the inclusions that passed that check.
    """
    amb = incl.ambient
    amb.memo("scope", incl.arrow_set, _check_scope, incl)
    atoms = grpd.open_atoms(amb)
    for walked, u in enumerate(atoms, 1):
        w = check(u)
        if w is not None:
            w = dict(w, open_subgroupoid=list(_sub_label(u)))
            return Verdict("no", (tuple(sorted(w.items())),), details=(("members", walked),))
    return Verdict("yes", details=(("members", len(atoms)),))


def _check_scope(incl: Subgroupoid):
    """InputError unless the inclusion is a subgroupoid and an open groupoid."""
    grpd.checked_subgroupoid(incl)
    amb, y0, y1 = incl.ambient, incl.object_set, incl.arrow_set
    s, arrow_min, object_min = amb.src.mapping, amb.arrows.min_opens(), amb.objects.min_opens()
    # s is open at a iff s(U(a)) holds U(s(a)), within Y; tested once per (U(a), U(s(a)))
    is_open_at, bad = {}, []
    for a in y1:
        key = ua, ux = arrow_min[a], object_min[s[a]]
        ok = is_open_at.get(key)
        if ok is None:
            ok = is_open_at[key] = ux & y0 <= {s[b] for b in ua & y1}
        if not ok:
            bad.append(a)
    if bad:
        raise InputError(
            f"subgroupoid is not an open groupoid: its source map is not open at arrow "
            f"{fmt_point(sorted_points(bad)[0])}; the routes are only proven to coincide "
            "on open T0 groupoids"
        )


def _cross_checked(incl: Subgroupoid, witness, side: str, names: str, note: str = "") -> Verdict:
    """`witness` over the atoms, each answer cross-checked against the
    `side` ("injective" or "surjective") of the subobject restriction."""

    def check(u):
        w = witness(incl, u)
        if (w is None) != getattr(sheaf.subobject_restriction(incl, u), side):
            raise OracleDisagreement(f"{names} disagree on subgroupoid {_sub_label(u)}{note}")
        return w

    return _for_all_members(incl, check)


def is_localic_surjection(incl: Subgroupoid) -> Verdict:
    """Surjection criterion: Skula dense u-orbits for every open
    subgroupoid u, cross-checked against injectivity of the subobject
    restriction (OracleDisagreement on mismatch)."""
    return _cross_checked(incl, skula_witness, "injective",
                          "skula-dense-orbits and subobject injectivity")


def is_subtopos_inclusion(incl: Subgroupoid) -> Verdict:
    """Inclusion criterion: source determined orbits for every open
    subgroupoid, cross-checked against surjectivity of the subobject
    restriction."""
    return _cross_checked(incl, source_determined_witness, "surjective",
                          "source-determined-orbits and subobject surjectivity",
                          "; the criteria are only proven to coincide on T0 groupoids, "
                          "check the input before suspecting a bug")


def _weq_one_mode(incl: Subgroupoid, u: Subgroupoid, mode: str) -> bool:
    """One route's answer on u; `mode` is one of MODES, checked by the caller."""
    if mode == "quasi-homeo":
        return fintop.is_quasi_homeomorphism(*grpd.iota_map(incl, u))
    if mode == "two-condition":
        return skula_witness(incl, u) is None and source_determined_witness(incl, u) is None
    return sheaf.subobject_restriction(incl, u).is_bijective()


def is_weak_equivalence(incl: Subgroupoid, mode: str = "all") -> Verdict:
    """Does the inclusion induce an equivalence of sheaf topoi?

    mode is one of "quasi-homeo", "two-condition", "subobject-oracle" or
    "all"; with "all" every route is run on every atom and any
    disagreement raises OracleDisagreement."""
    if mode != "all" and mode not in MODES:
        raise InputError(f"unknown mode {mode!r}")
    modes = MODES if mode == "all" else (mode,)

    def check(u):
        answers = {m: _weq_one_mode(incl, u, m) for m in modes}
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

    return _for_all_members(incl, check)


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


def factorize(f: ContinuousFunctor) -> Factorization:
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
    image_cert = is_localic_surjection(img_in_fei)
    incl_cert = is_subtopos_inclusion(fei)
    return Factorization(first, fei, surj, image_cert, incl_cert)
