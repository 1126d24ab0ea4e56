"""Brute-force oracles, kept deliberately independent of the library's
computation paths: quantifiers are run literally over materialised open
families.  `exhaustive_answer` calls the library's public per-member
routes, but quantifies them itself over the whole open-subgroupoid
family, outside the verdicts' loop over the atoms.  Only usable on
small inputs."""

from dataclasses import dataclass
from itertools import combinations, product

from topogrpd import fintop, grpd, logic, sheaf, weq
from topogrpd.errors import BistabilityError, CapExceeded, InputError, OracleDisagreement
from topogrpd.fintop import ContinuousMap, FinSpace


def opens_of(space, cap=4096):
    return list(space.opens(cap=cap))


def quasi_homeo_oracle(f) -> bool:
    """Literal check: the preimage map on explicit open families bijects."""
    dom_opens = set(opens_of(f.domain))
    preimages = [f.preimage(o) for o in opens_of(f.codomain)]
    return (
        len(set(map(frozenset, preimages))) == len(preimages)
        and set(map(frozenset, preimages)) == dom_opens
    )


def skula_space_oracle(space) -> FinSpace:
    """Skula topology by saturating opens and closeds."""
    opens = opens_of(space)
    closeds = [space.points - o for o in opens]
    return fintop.generate_topology(space.points, opens + closeds)


def skula_dense_oracle(subset, space) -> bool:
    sk = skula_space_oracle(space)
    subset = frozenset(subset)
    return all(o & subset for o in opens_of(sk) if o)


def sober_oracle(space) -> bool:
    """Cover-based irreducibility over all closed sets."""
    closeds = [space.points - o for o in opens_of(space)]
    irreducible = []
    for c in closeds:
        if not c:
            continue
        reducible = False
        for a in closeds:
            for b in closeds:
                if c <= (a | b) and not c <= a and not c <= b:
                    reducible = True
                    break
            if reducible:
                break
        if not reducible:
            irreducible.append(c)
    for c in irreducible:
        generic = [x for x in c if space.closure({x}) == c]
        if len(generic) != 1:
            return False
    return True


def local_homeo_oracle(f) -> bool:
    """Exhaustive search for a good open V around every point."""
    cod_opens = opens_of(f.codomain)
    for y in f.domain.points:
        found = False
        for v in opens_of(f.domain):
            if y not in v:
                continue
            img = frozenset(f.mapping[z] for z in v)
            if img not in set(map(frozenset, cod_opens)):
                continue
            if len(img) != len(v):
                continue
            # restriction V -> img is a continuous bijection; the inverse
            # is continuous iff images of subspace opens are open
            sub_v = f.domain.subspace(v)
            sub_i = f.codomain.subspace(img)
            ok = all(
                sub_i.is_open(frozenset(f.mapping[z] for z in o))
                for o in opens_of(sub_v)
            )
            if ok:
                found = True
                break
        if not found:
            return False
    return True


def skula_dense_orbits_oracle(incl, u) -> bool:
    """The literal quantifier over pairs of opens of u's object subspace."""
    amb = incl.ambient
    u0 = u.object_set
    u0space = amb.objects.subspace(u0)
    ybar = grpd.object_orbit_closure(amb, incl.object_set)
    s, t = amb.src.mapping, amb.tgt.mapping
    opens = opens_of(u0space)
    for w in opens:
        for w2 in opens:
            if not (w2 & ybar) <= (w & ybar):
                continue
            for x in w2:
                if not any(
                    s[a] == x and t[a] in w for a in u.arrow_set
                ):
                    return False
    return True


def fiber_product_oracle(f, g) -> FinSpace:
    """The fibre product space, each minimal open cut from all pairs."""
    pts = frozenset((x, y) for x in f.domain.points for y in g.domain.points
                    if f.mapping[x] == g.mapping[y])
    return FinSpace(pts, {(x, y): frozenset((a, b) for (a, b) in pts
                                            if a in f.domain.min_open(x)
                                            and b in g.domain.min_open(y))
                          for (x, y) in pts})


def exhaustive_answer(decide, incl, mode="all") -> str:
    """The answer of a weq criterion `decide` (is_weak_equivalence,
    is_localic_surjection or is_subtopos_inclusion) with its quantifier
    run over every open subgroupoid, the join-closed family, instead of
    the atoms.  Each member's routes come from the public per-member
    functions, not from the library's loop; a split raises
    OracleDisagreement.  "no" at the first failing member, else "yes"."""
    if decide is weq.is_localic_surjection:
        routes = {"skula-dense-orbits": lambda u: weq.skula_witness(incl, u) is None,
                  "subobject injectivity":
                      lambda u: sheaf.subobject_restriction(incl, u).injective}
    elif decide is weq.is_subtopos_inclusion:
        routes = {"source-determined-orbits":
                      lambda u: weq.source_determined_witness(incl, u) is None,
                  "subobject surjectivity":
                      lambda u: sheaf.subobject_restriction(incl, u).surjective}
    else:
        assert decide is weq.is_weak_equivalence, decide
        routes = {
            "quasi-homeo": lambda u: fintop.is_quasi_homeomorphism(grpd.iota_map(incl, u)),
            "two-condition": lambda u: (weq.skula_witness(incl, u) is None
                                        and weq.source_determined_witness(incl, u) is None),
            "subobject-oracle": lambda u: sheaf.subobject_restriction(incl, u).is_bijective(),
        }
        routes = routes if mode == "all" else {mode: routes[mode]}
    for u in grpd.enumerate_open_subgroupoids(incl.ambient):
        answers = {name: route(u) for name, route in routes.items()}
        if len(set(answers.values())) > 1:
            raise OracleDisagreement(f"routes split on {sorted(u.arrow_set, key=fintop.ckey)}: "
                                     f"{answers}")
        if not next(iter(answers.values())):
            return "no"
    return "yes"


def bi_orbit_space_oracle(x, left, right, v):
    """The bi-orbit space by union-find: every action pair (a, a o b) for
    b in `right` into s(a), and (a, c o a) for c in `left` out of t(a),
    for every a in v, is fed to `fintop.partition`; BistabilityError at
    the first composite that leaves v.  Same (space, quotient map,
    inclusion) as `grpd.bi_orbit_space`."""
    v = frozenset(v)
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
                        f"v not stable under pre-composition at {fintop.fmt_point((a, b))}")
                yield a, h
            for c in by_src.get(t[a], ()):
                h = x.comp[(c, a)]
                if h not in v:
                    raise BistabilityError(
                        f"v not stable under post-composition at {fintop.fmt_point((c, a))}")
                yield a, h

    space, quot = fintop.quotient_space(sub, fintop.partition(v, actions()))
    return space, quot, ContinuousMap(sub, x.arrows, {a: a for a in v}, check=False)


def all_isos_between_members_oracle(members) -> frozenset:
    """Every isomorphism between the indexed models `members` by a
    permutation search for each ordered pair of members."""
    models = [im.model for im in getattr(members, "members", members)]
    return frozenset(a for m in models for n in models for a in logic.model_isomorphisms(m, n))


def source_determined_oracle(incl, u) -> bool:
    """The literal quantifier: every open V of the span subspace equals
    s^-1(W) & t^-1(Y0) on bi-orbits for some open W of u's objects."""
    amb = incl.ambient
    s, t = amb.src.mapping, amb.tgt.mapping
    u0, y0, y1 = u.object_set, incl.object_set, incl.arrow_set
    span = frozenset(a for a in amb.arrows.points if s[a] in u0 and t[a] in y0)
    span_space = amb.arrows.subspace(span)
    u0space = amb.objects.subspace(u0)
    u0_opens = opens_of(u0space)
    for v in opens_of(span_space):
        realized = set()
        for eta in v:
            for zeta in u.arrow_set:
                if t[zeta] != s[eta]:
                    continue
                ez = amb.comp[(eta, zeta)]
                for theta in y1:
                    if s[theta] == t[ez]:
                        realized.add(amb.comp[(theta, ez)])
        ok = False
        for w in u0_opens:
            cut = frozenset(a for a in span if s[a] in w)
            if cut == frozenset(realized):
                ok = True
                break
        if not ok:
            return False
    return True


def source_determined_witness_oracle(incl, u):
    """The nested search for the source-determined witness: for each arrow
    alpha of the span, each gamma sourced in the minimal open of alpha's
    source is tested by solving gamma = theta o eta o zeta for theta over
    every zeta of u and eta of V, then testing theta against the included
    arrows.  Same witness dict (or None) as weq.source_determined_witness."""
    amb = incl.ambient
    s, t = amb.src.mapping, amb.tgt.mapping
    u0 = u.object_set
    y0 = incl.object_set
    y1 = incl.arrow_set
    span = frozenset(a for a in amb.arrows.points if s[a] in u0 and t[a] in y0)
    span_space = amb.arrows.subspace(span)
    u0space = amb.objects.subspace(u0)
    u1_from = {}
    for z in u.arrow_set:
        u1_from.setdefault(s[z], []).append(z)
    # every admissible gamma (source in w, a subset of u0; target in y0) is in span
    span_sorted = fintop.sorted_points(span)
    span_from = {}
    for a in span_sorted:
        span_from.setdefault(s[a], []).append(a)
    for alpha in span_sorted:
        v = span_space.min_open(alpha)
        w = u0space.min_open(s[alpha])
        v_srcs = {s[eta] for eta in v}
        for x2 in fintop.sorted_points(w):
            for gamma in span_from.get(x2, ()):
                ok = False
                for zeta in u1_from.get(x2, ()):
                    if t[zeta] not in v_srcs:
                        continue
                    for eta in v:
                        if s[eta] != t[zeta]:
                            continue
                        theta = amb.comp[
                            (amb.comp[(gamma, amb.inv.mapping[zeta])], amb.inv.mapping[eta])
                        ]
                        if theta in y1:
                            ok = True
                            break
                    if ok:
                        break
                if not ok:
                    return {
                        "kind": "source-determined-orbit",
                        "arrow": fintop.fmt_point(alpha),
                        "V": sorted(fintop.fmt_point(a) for a in v),
                        "gamma": fintop.fmt_point(gamma),
                    }
    return None


def subgroups_oracle(elements, mult):
    """All subgroups of a finite group, by closure-join search."""
    elements = frozenset(elements)
    ident = next(
        e for e in elements if all(mult[(e, x)] == x for x in elements)
    )

    def close(gens):
        out = {ident} | set(gens)
        frontier = list(out)
        while frontier:
            a = frontier.pop()
            for b in list(out):
                for c in (mult[(a, b)], mult[(b, a)]):
                    if c not in out:
                        out.add(c)
                        frontier.append(c)
        return frozenset(out)

    subs = {frozenset([ident])}
    frontier = [frozenset([ident])]
    while frontier:
        h = frontier.pop()
        for g in elements:
            if g not in h:
                j = close(h | {g})
                if j not in subs:
                    subs.add(j)
                    frontier.append(j)
    return subs


def double_cosets_oracle(elements, mult, h, k):
    """The set of double cosets HgK."""
    out = set()
    for g in elements:
        out.add(
            frozenset(mult[(mult[(a, g)], b)] for a in h for b in k)
        )
    return out


def generated_topology_oracle(points, subbasis) -> FinSpace:
    """Saturate a subbasis by literal finite intersections then unions."""
    points = frozenset(points)
    basis = {points}
    for r in range(1, len(subbasis) + 1):
        for combo in combinations(list(subbasis), r):
            basis.add(frozenset.intersection(*map(frozenset, combo)))
    opens = {frozenset()}
    frontier = [frozenset()]
    while frontier:
        o = frontier.pop()
        for b in basis:
            u = o | b
            if u not in opens:
                opens.add(u)
                frontier.append(u)
    return FinSpace.from_opens(points, opens)


def from_opens_oracle(points, opens) -> FinSpace:
    """`FinSpace.from_opens` by the literal axioms: every pair of opens
    has its union and its intersection in the family."""
    pts = frozenset(points)
    fam = {frozenset(o) for o in opens}
    if not all(o <= pts for o in fam):
        raise InputError("open set not contained in points")
    if frozenset() not in fam or pts not in fam:
        raise InputError("opens must contain the empty set and the full set")
    for a, b in combinations(fam, 2):
        if a | b not in fam:
            raise InputError("opens not closed under union")
        if a & b not in fam:
            raise InputError("opens not closed under intersection")
    return FinSpace(pts, {x: frozenset.intersection(*[o for o in fam if x in o]) for x in pts})


def ckey_set_key(s):
    """Reference canonical set key: size, then the sorted `ckey`s of the
    points, recomputed for every set."""
    return (len(s), sorted(fintop.ckey(x) for x in s))


def subgroupoid_closure_oracle(g, arrows) -> frozenset:
    """Naive fixpoint: add inverses and all composites of closed arrows
    until a full pass adds nothing."""
    closed = set(arrows)
    while True:
        new = {g.inv.mapping[a] for a in closed}
        new |= {
            g.comp[(a, b)]
            for a in closed
            for b in closed
            if g.src.mapping[a] == g.tgt.mapping[b]
        }
        if new <= closed:
            return frozenset(closed)
        closed |= new


def unions_oracle(sets):
    """All unions of `sets`, the empty union included, by a search over
    frozensets."""
    sets = [frozenset(b) for b in sets]
    fam = {frozenset()}
    frontier = [frozenset()]
    while frontier:
        o = frontier.pop()
        for b in sets:
            u = o | b
            if u not in fam:
                fam.add(u)
                frontier.append(u)
    return fam


def reference_sorted(sets, points):
    """`sets` of `points` sorted as `ckey_set_key` sorts them, with each
    point's `ckey` computed once."""
    key = {x: fintop.ckey(x) for x in points}
    return sorted(sets, key=lambda s: (len(s), sorted(key[x] for x in s)))


def opens_oracle(space):
    """The open family in reference order: all unions of minimal
    neighbourhoods."""
    return reference_sorted(unions_oracle(space.min_open(x) for x in space.points), space.points)


def subobject_lattice_oracle(s):
    """Action-stable opens of a sheaf's total space in reference order:
    the unions of minimal neighbourhoods that contain every action image
    of their points."""
    opens = unions_oracle(s.total.min_open(x) for x in s.total.points)
    stable = [o for o in opens if all(z in o for (_, y), z in s.action.items() if y in o)]
    return reference_sorted(stable, s.total.points)


@dataclass(frozen=True)
class SubobjectRestriction:
    """The induced map on listed subobject lattices of a generator sheaf
    along a subgroupoid inclusion: a subobject W of the generator is sent
    to its trace on the pullback."""

    big: sheaf.SubobjectLattice
    small: sheaf.SubobjectLattice
    mapping: tuple  # pairs (mask in big, mask in small)

    def is_injective(self) -> bool:
        return len({v for _, v in self.mapping}) == len(self.mapping)

    def is_surjective(self) -> bool:
        return {v for _, v in self.mapping} == self.small.masks

    def is_bijective(self) -> bool:
        return self.is_injective() and self.is_surjective()


def subobject_restriction_oracle(incl, u, cap=4096) -> SubobjectRestriction:
    """The restriction by listing both lattices: the generator of u is
    pulled back along the inclusion functor (points (object, class)), and
    each subobject W of the generator maps to the OR of the lift masks of
    W's classes, which must be a subobject of the pullback."""
    gen = sheaf.moerdijk_generator(incl.ambient, u)
    pulled = sheaf.inverse_image(incl.inclusion_functor(), gen)
    big = sheaf.subobject_lattice(gen, cap=cap)
    small = sheaf.subobject_lattice(pulled, cap=cap)
    lift = dict.fromkeys(big.points, 0)  # disjoint masks of the points over each class
    for j, (_, c) in enumerate(small.points):
        lift[c] |= 1 << j
    mapping = []
    for w in big.masks:
        image = sum(m for i, m in enumerate(lift.values()) if w >> i & 1)
        assert image in small.masks, "restricted subobject not stable open"
        mapping.append((w, image))
    return SubobjectRestriction(big, small, tuple(mapping))


def restriction_oracle(big, small, pulled):
    """(injective, surjective) of the restriction from the frozenset
    lattice `big` of a generator to the lattice `small` of its pullback
    `pulled`, whose points are pairs (object, generator point): W goes to
    the pairs whose generator point lies in W."""
    images = [frozenset(p for p in pulled.total.points if p[1] in w) for w in big]
    return len(set(images)) == len(images), set(images) == set(small)


class DefinableSetsOracle:
    """The definable-set levels with frozenset extensions of (model name,
    tuple) pairs, each atom evaluated by `logic._eval` on every tuple.
    Tables are built in the engine's order, with its budget check."""

    def __init__(self, signature, models, budget=logic.DEFAULT_FORMULA_BUDGET):
        self.signature = signature
        self.models = list(models)
        self.budget = budget
        self._levels = {}

    def _atoms(self, ctx_sorts):
        sig = self.signature
        terms_by_sort = {}
        for i, s in enumerate(ctx_sorts):
            terms_by_sort.setdefault(s, []).append(logic.Var(f"x{i + 1}"))
        for c, s in sig.constants:
            terms_by_sort.setdefault(s, []).append(logic.Const(c))
        atoms = [logic.Top(), logic.Bot()]
        for s in sig.sorts:
            ts = terms_by_sort.get(s, [])
            atoms += [logic.Eq(a, b) for i, a in enumerate(ts) for b in ts[i + 1:]]
        for rname, arity in sorted(sig.relation_arities.items()):
            for args in product(*(terms_by_sort.get(s, []) for s in arity)):
                atoms.append(logic.Rel(rname, tuple(args)))
        return atoms

    def _extension(self, ast, ctx_sorts):
        names = [f"x{i + 1}" for i in range(len(ctx_sorts))]
        return frozenset(
            (m.name, tup)
            for m in self.models
            for tup in product(*(fintop.sorted_points(m.carriers[s]) for s in ctx_sorts))
            if logic._eval(m, ast, dict(zip(names, tup)))
        )

    def level(self, ctx_sorts, depth):
        ctx_sorts = tuple(ctx_sorts)
        key = (ctx_sorts, depth)
        if key in self._levels:
            return self._levels[key]
        if depth == 0:
            table = {}
            for atom in self._atoms(ctx_sorts):
                table.setdefault(self._extension(atom, ctx_sorts), atom)
            self._levels[key] = table
            return table
        prev = self.level(ctx_sorts, depth - 1)
        table = dict(prev)

        def add(ext, ast):
            if ext not in table:
                table[ext] = ast
                if len(table) > self.budget:
                    raise CapExceeded(f"definable-set family exceeds budget {self.budget}")

        items = list(prev.items())
        for i, (e1, f1) in enumerate(items):
            for e2, f2 in items[i:]:
                add(e1 & e2, logic.And(f1, f2))
                add(e1 | e2, logic.Or((f1, f2)))
        for s in self.signature.sorts:
            inner = self.level(ctx_sorts + (s,), depth - 1)
            for ext, ast in inner.items():
                proj = frozenset((n, tup[:-1]) for n, tup in ext)
                add(proj, logic.Exists(f"x{len(ctx_sorts) + 1}", s, ast))
        self._levels[key] = table
        return table


def members_oracle(g):
    """A `DefinableSetsOracle` over every member of the model groupoid g."""
    return DefinableSetsOracle(g.signature, [im.model for im in g.members])


def definable_subbasis_oracle(ref, g, ctx_sorts, points, depth, tuple_cap):
    """The sets of `points` (each mapped to its (member name, tuple)
    pair) that the frozenset extensions of `ref` cut out at `depth` in the
    context ctx_sorts, with parameter tuples up to tuple_cap."""
    subbasis = set()
    for ptuple in g.param_tuples(tuple_cap):
        pairs = [(pt, (n, tup + vals)) for pt, (n, tup) in points.items()
                 if (vals := g.interp_tuple(n, ptuple)) is not None]
        for ext in ref.level(ctx_sorts + tuple(g.params[p] for p in ptuple), depth):
            subbasis.add(frozenset(pt for pt, pair in pairs if pair in ext))
    return subbasis


def logical_topologies_oracle(g, depth, tuple_cap):
    """The logical topologies from the frozenset extensions of
    `DefinableSetsOracle` over every member, and with each parameter
    transport found by an `Iso.apply` scan of all arrows for its (p, q)
    pair, redone at every depth.  (object space, arrow space, achieved
    depth, stabilized, transports), as in `logic.logical_topologies`."""
    ref = members_oracle(g)
    names = {n: (n, ()) for n in g.member_names()}
    params = sorted(g.params)
    spaces, achieved, stabilized = None, 0, False
    for d in range(depth + 1):
        obj_sub = definable_subbasis_oracle(ref, g, (), names, d, tuple_cap)
        transports = {
            frozenset(a for a in g.arrows
                      if (x := g.by_name[a.src].interp(p)) is not None
                      and (y := g.by_name[a.tgt].interp(q)) is not None
                      and a.apply(g.params[p], x) == y)
            for p in params for q in params if g.params[p] == g.params[q]
        }
        arr_sub = set(transports)
        for b in obj_sub:
            arr_sub.add(frozenset(a for a in g.arrows if a.src in b))
            arr_sub.add(frozenset(a for a in g.arrows if a.tgt in b))
        found = (fintop.generate_topology(names, obj_sub),
                 fintop.generate_topology(g.arrows, arr_sub))
        if found == spaces:
            stabilized = True
            break
        spaces, achieved = found, d
    return (*spaces, achieved, stabilized, transports)


def definable_sheaf_total_oracle(g, formula, depth, tuple_cap):
    """The total space of `logic.definable_sheaf`: every member's tuples
    that satisfy the formula under `logic._eval`, with the topology of
    `definable_subbasis_oracle`."""
    ctx_sorts = tuple(s for _, s in formula.context)
    names = [v for v, _ in formula.context]
    points = {(im.name, tup) for im in g.members
              for tup in product(*(im.model.carriers[s] for s in ctx_sorts))
              if logic._eval(im.model, formula.ast, dict(zip(names, tup)))}
    subbasis = definable_subbasis_oracle(members_oracle(g), g, ctx_sorts,
                                         {pt: pt for pt in points}, depth, tuple_cap)
    return fintop.generate_topology(points, subbasis)


def parameter_witnesses_oracle(g, depth, tuple_cap):
    """{parameter tuple: the printed formula of `DefinableSetsOracle`
    whose extension is the tuple's orbit, or None}, for the non-empty
    tuples `logic.eliminates_parameters` tries."""
    ref = members_oracle(g)
    out = {}
    for ptuple in g.param_tuples(tuple_cap, with_replacement=True):
        if ptuple:
            level = ref.level(tuple(g.params[p] for p in ptuple), depth)
            ast = level.get(logic.parameter_orbit(g, ptuple))
            out[ptuple] = None if ast is None else logic.print_formula(ast)
    return out


def separating_sentence_oracle(apex, x, y, depth):
    """`frac._separating_sentence` over the frozenset extensions of
    `DefinableSetsOracle`: the first sentence, in level order, holding on
    exactly one side's members."""
    xs, ys = {im.name for im in x.members}, {im.name for im in y.members}
    for ext, ast in members_oracle(apex).level((), depth).items():
        holds = {n for n, _ in ext} & (xs | ys)
        if holds in (xs, ys) and holds not in (set(), xs | ys):
            return logic.print_formula(ast)
    return None


def space_to_json_oracle(space):
    """`jsonio.space_to_json` with every point labelled where it occurs."""
    order = fintop.sorted_points(space.points)
    return {
        "points": [fintop.fmt_point(p) for p in order],
        "min_open": {fintop.fmt_point(p): sorted(fintop.fmt_point(q) for q in space.min_open(p))
                     for p in order},
    }


def groupoid_to_json_oracle(g):
    """`jsonio.groupoid_to_json` with every point labelled where it
    occurs and each map sorted by the `ckey` of its keys."""
    def plain(m):
        return {fintop.fmt_point(k): fintop.fmt_point(v)
                for k, v in sorted(m.mapping.items(), key=lambda kv: fintop.ckey(kv[0]))}

    return {
        "objects": space_to_json_oracle(g.objects),
        "arrows": space_to_json_oracle(g.arrows),
        "src": {"map": plain(g.src)},
        "tgt": {"map": plain(g.tgt)},
        "unit": {"map": plain(g.unit)},
        "inv": {"map": plain(g.inv)},
        "comp": sorted([fintop.fmt_point(f), fintop.fmt_point(gg), fintop.fmt_point(h)]
                       for (gg, f), h in g.comp.items()),
    }


def sheaf_to_json_oracle(s):
    """`jsonio.sheaf_to_json` with every point labelled where it occurs."""
    return {
        "total": space_to_json_oracle(s.total),
        "proj": {fintop.fmt_point(y): fintop.fmt_point(v)
                 for y, v in sorted(s.proj.mapping.items(), key=lambda kv: fintop.ckey(kv[0]))},
        "action": sorted([fintop.fmt_point(g), fintop.fmt_point(y), fintop.fmt_point(z)]
                         for (g, y), z in s.action.items()),
    }
