"""Finite topological spaces and continuous maps.

A finite topology is determined by its minimal-open-neighbourhood map
x |-> min_open(x) (the intersection of all opens containing x):
a set is open iff it contains the minimal neighbourhood of each of its
points.  Spaces are stored that way, which keeps every predicate here a
direct set computation while still allowing, say, a 24-point discrete
space (2^24 opens) that could never be materialised extensionally.
FinSpace.opens() lists the open family, capped at DEFAULT_OPEN_CAP sets,
built on int bitmasks by `union_closure` and ordered by `sets_in_order`.

Work is done per distinct minimal open (or pair of them), not per point:
the copies in a coarse space that no formula tells apart share one, and a
space whose points all differ pays one lookup per point for the grouping.

Points are opaque hashable ids; constructed spaces (generator total
spaces, fiber products) use frozensets and tuples of ids as points.
Quotients and the quasi-homeomorphism test work on int masks of point
indices instead.  Each space sorts its points by the canonical key
`ckey` at most once (`FinSpace.order`), and sets of its points are
ordered by `set_key`: by size, then by the sorted ranks of their points
in that order, for reproducible output.
"""

from __future__ import annotations

from .errors import CapExceeded, InputError

DEFAULT_OPEN_CAP = 4096


def ckey(x):
    """Canonical sort key giving a total deterministic order on mixed ids."""
    if isinstance(x, bool):
        return ("bool", x)
    if isinstance(x, int):
        return ("int", x)
    if isinstance(x, str):
        return ("str", x)
    if isinstance(x, tuple):
        return ("tuple", tuple(ckey(e) for e in x))
    if isinstance(x, frozenset):
        return ("frozenset", tuple(sorted(ckey(e) for e in x)))
    raise TypeError(f"unsupported point id type: {type(x).__name__}")


def sorted_points(items):
    return sorted(items, key=ckey)


def set_key(space):
    """Key for sets of a space's points: size, then the sorted ranks of
    their points in the space's `order`."""
    rank = space.rank()
    return lambda s: (len(s), sorted([rank[x] for x in s]))


def in_order(space, items) -> list:
    """`items`, points of `space`, sorted in the space's `order`."""
    return sorted(items, key=space.rank().__getitem__)


def masker(points):
    """Map from subsets of `points` to int masks: bit i is points[i]."""
    bit = {x: 1 << i for i, x in enumerate(points)}
    return lambda s: sum(bit[x] for x in s)


def union_closure(gens, cap: int) -> set:
    """All unions of the int masks `gens`, 0 included; CapExceeded past `cap` members."""
    fam = {0}
    for g in set(gens):
        fam |= {o | g for o in fam}
        if len(fam) > cap:
            raise CapExceeded(f"open family exceeds cap {cap}")
    return fam


def sets_in_order(masks, points, space) -> tuple:
    """Masks over `points` (bit i is points[i]) as frozensets, in the
    `set_key` order of `space`, whose points they are."""
    sets = [frozenset(p for i, p in enumerate(points) if m >> i & 1) for m in masks]
    return tuple(sorted(sets, key=set_key(space)))


def fmt_point(x) -> str:
    """Compact canonical label, used for witnesses and JSON output."""
    if isinstance(x, frozenset):
        return "{" + ",".join(fmt_point(e) for e in sorted_points(x)) + "}"
    if isinstance(x, tuple):
        return "(" + ",".join(fmt_point(e) for e in x) + ")"
    return str(x)


def _min_open_fault(m, points) -> str:
    """The first law of minimal neighbourhoods `m` breaks, named at the least
    point, in `ckey` order, that breaks it."""
    bad = [x for x, u in m.items() if x not in u or not u <= points]
    if bad:
        return f"bad minimal neighbourhood at {fmt_point(min(bad, key=ckey))}"
    nested = {u for u in set(m.values()) if all(m[y] <= u for y in u)}
    bad = [x for x, u in m.items() if u not in nested]
    return f"minimal neighbourhoods not nested at {fmt_point(min(bad, key=ckey))}"


class FinSpace:
    """A finite point set with a topology, held as minimal neighbourhoods.

    `min_open` must satisfy x in min_open(x), and y in min_open(x) implies
    min_open(y) <= min_open(x); these two laws make the family of all
    unions of minimal neighbourhoods a topology, and every finite topology
    arises this way.
    """

    __slots__ = ("points", "_min", "_order", "_rank")

    def __init__(self, points, min_open, _check=True, order=None):
        self.points = frozenset(points)
        if _check and set(min_open) != self.points:
            raise InputError("min_open domain differs from point set")
        self._min = {x: frozenset(min_open[x]) for x in self.points}
        if order is not None:
            order = tuple(order)
            if len(order) != len(self.points) or frozenset(order) != self.points:
                raise InputError("order does not list each point once")
        self._order = order
        self._rank = None
        if _check:
            # U(x) <= points and the nesting law read U(x) alone, so each is
            # tested once per distinct minimal open
            m, tested = self._min, set()
            for x, u in m.items():
                if x not in u or u not in tested and not u <= self.points:
                    raise InputError(_min_open_fault(m, self.points))
                if u not in tested:
                    tested.add(u)
                    for y in u:
                        if not m[y] <= u:
                            raise InputError(_min_open_fault(m, self.points))

    # -- constructors ---------------------------------------------------

    @classmethod
    def discrete(cls, points) -> "FinSpace":
        return cls(points, {x: frozenset([x]) for x in points}, _check=False)

    @classmethod
    def sierpinski(cls) -> "FinSpace":
        # 1 is the open point, 0 the closed one
        return cls({0, 1}, {0: frozenset({0, 1}), 1: frozenset({1})}, _check=False)

    @classmethod
    def from_opens(cls, points, opens) -> "FinSpace":
        """Build from an explicit open family, validating the topology axioms
        in linear time: a family is a topology iff it holds each m(x), the
        meet of its members around x, and every union of the m(x)."""
        pts = frozenset(points)
        fam = {frozenset(o) for o in opens}
        for o in fam:
            if not o <= pts:
                raise InputError("open set not contained in points")
        if frozenset() not in fam or pts not in fam:
            raise InputError("opens must contain the empty set and the full set")
        min_open = {x: frozenset.intersection(*[o for o in fam if x in o]) for x in pts}
        if not fam.issuperset(min_open.values()):
            raise InputError("opens not closed under intersection")
        mask = masker(tuple(pts))
        try:
            union_closure(map(mask, min_open.values()), len(fam))
        except CapExceeded:
            raise InputError("opens not closed under union") from None
        return cls(pts, min_open)

    # -- basic structure ------------------------------------------------

    def order(self) -> tuple:
        """The points in `ckey` order: the `order` given on construction
        (`logic.logical_topologies` gives a derived arrow space its model
        groupoid's, read off carrier positions), else sorted on the first
        call only."""
        if self._order is None:
            self._order = tuple(sorted_points(self.points))
        return self._order

    def rank(self) -> dict:
        """Each point's index in `order`, on the first call only."""
        if self._rank is None:
            self._rank = {x: i for i, x in enumerate(self.order())}
        return self._rank

    def min_open(self, x) -> frozenset:
        return self._min[x]

    def min_opens(self) -> dict:
        """Each point's minimal open, in one dict to read, not to change."""
        return self._min

    def is_open(self, subset) -> bool:
        s = frozenset(subset)
        if not s <= self.points:
            raise InputError("subset not contained in points")
        return all(self._min[x] <= s for x in s)

    def closure(self, subset) -> frozenset:
        s = frozenset(subset)
        if not s <= self.points:
            raise InputError("subset not contained in points")
        return frozenset(x for x in self.points if self._min[x] & s)

    def opens(self, cap: int = DEFAULT_OPEN_CAP):
        """The explicit open family, canonically ordered, listed per call.

        Raises CapExceeded when the family has more than `cap` members.
        """
        points = tuple(self.points)
        gens = map(masker(points), self._min.values())
        return sets_in_order(union_closure(gens, cap), points, self)

    def open_count(self, limit: int = DEFAULT_OPEN_CAP) -> int:
        """Number of opens, counting no further than `limit`."""
        try:
            return len(self.opens(cap=limit))
        except CapExceeded:
            return limit

    def subspace(self, subset) -> "FinSpace":
        s = frozenset(subset)
        if not s <= self.points:
            raise InputError("subset not contained in points")
        return FinSpace(s, {x: self._min[x] & s for x in s}, _check=False)

    # -- value semantics -------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, FinSpace):
            return NotImplemented
        return self is other or (self.points == other.points and self._min == other._min)

    def __len__(self):
        return len(self.points)

    def __repr__(self):
        return f"FinSpace({len(self.points)} points)"


def generate_topology(points, subbasis, order=None) -> FinSpace:
    """Smallest topology on `points` containing every subbasis member.

    Idempotent on an existing topology and monotone in the subbasis.
    `order`, if given, is the points in `ckey` order, kept as the space's
    `order`; it must list each point once.
    """
    pts = frozenset(points)
    # blocks of the points in the same members so far, with their meet, so each
    # minimal open is intersected once; a repeated member splits no block
    blocks = [(pts, pts)]
    for s in map(frozenset, subbasis):
        if not s <= pts:
            raise InputError("subset not contained in points")
        split = []
        for b, u in blocks:
            if b <= s:
                split.append((b, u & s))
            elif b.isdisjoint(s):
                split.append((b, u))
            else:
                split += [(b & s, u & s), (b - s, u)]
        blocks = split
    return FinSpace(pts, {x: u for b, u in blocks for x in b}, _check=False, order=order)


class ContinuousMap:
    """A total point function between finite spaces.

    The constructor checks totality and the codomain, not continuity:
    is_continuous() tests that, which lets validators diagnose
    deliberately broken maps.
    """

    __slots__ = ("domain", "codomain", "mapping")

    def __init__(self, domain: FinSpace, codomain: FinSpace, mapping):
        self.domain = domain
        self.codomain = codomain
        self.mapping = dict(mapping)
        if set(self.mapping) != set(domain.points):
            raise InputError("map not total on domain")
        for v in self.mapping.values():
            if v not in codomain.points:
                raise InputError("map value outside codomain")

    def __call__(self, x):
        return self.mapping[x]

    def is_continuous(self) -> bool:
        # monotone on minimal neighbourhoods <=> all preimages of opens open;
        # the test at x reads only U(x) and U(f(x)), so it runs once per pair
        m, cod = self.mapping, self.codomain._min
        pairs = {(u, cod[m[x]]) for x, u in self.domain._min.items()}
        return all(m[y] in v for u, v in pairs for y in u)

    def __eq__(self, other):
        if not isinstance(other, ContinuousMap):
            return NotImplemented
        return self is other or (
            self.domain == other.domain
            and self.codomain == other.codomain
            and self.mapping == other.mapping
        )

    def __repr__(self):
        return f"ContinuousMap({len(self.domain)} -> {len(self.codomain)} points)"


def bits(mask: int):
    """The indices of the set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def quotient_space(space: FinSpace, cls: dict, k: int) -> list:
    """Minimal opens of the quotient of the subspace on `cls`'s keys by
    the partition `cls`, each of those points to its block index in
    range(k), with the subspace-then-quotient topology.

    An open of the quotient is (the image of) a saturated open of the
    subspace, so block i's minimal open, an int mask of block indices,
    holds every block reached from i through minimal opens of `space`
    cut to the subspace.
    """
    step = [0] * k  # block i sees every block meeting a member's minimal open
    meets = {}  # the blocks each distinct minimal open meets: points often share one
    for x, i in cls.items():
        u = space.min_open(x)
        m = meets.get(u)
        if m is None:
            m = 0
            for z in u:
                j = cls.get(z)
                if j is not None:
                    m |= 1 << j
            meets[u] = m
        step[i] |= m
    return reach(step, range(k))


def reach(step, points) -> list:
    """For each index i of `points`, the int mask of every index reached
    from i through `step`, i included: step[j] is the mask of j's
    successors, for each j reached.  A point reached whose mask is
    already known adds that mask whole."""
    done = {}
    for i in points:
        mask, todo = 1 << i, step[i]
        while todo := todo & ~mask:
            j = (todo & -todo).bit_length() - 1
            known = done.get(j)
            if known is None:
                mask |= 1 << j
                todo |= step[j]
            else:
                mask |= known
        done[i] = mask
    return [done[i] for i in points]


def partition(points, pairs):
    """Blocks of the equivalence relation on `points` generated by `pairs`.

    Union-find with path halving.  Every pair must lie in `points`, which
    is iterated twice; blocks are sets, listed in order of first point.
    """
    parent = {x: x for x in points}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    blocks = {}
    for x in points:
        blocks.setdefault(find(x), set()).add(x)
    return list(blocks.values())


def fiber_product(f: ContinuousMap, g: ContinuousMap):
    """Fiber product of f: X -> Z and g: Y -> Z with the subspace-of-product
    topology.  Points are pairs (x, y) with f(x) = g(y).
    Returns (space, projection to X, projection to Y)."""
    if f.codomain != g.codomain:
        raise InputError("fiber product needs a common codomain")
    over = {}  # the points of g's domain by their image
    for y in g.domain.points:
        over.setdefault(g.mapping[y], []).append(y)
    min_open, built = {}, {}  # that of (x, y) is built once per (U(x), U(y))
    for x, ux in f.domain._min.items():
        for y in over.get(f.mapping[x], ()):
            uy = g.domain._min[y]
            w = built.get((ux, uy))
            if w is None:
                w = built[(ux, uy)] = frozenset(
                    (a, b) for a in ux for b in over.get(f.mapping[a], ()) if b in uy)
            min_open[(x, y)] = w
    p = FinSpace(min_open, min_open, _check=False)
    pr1 = ContinuousMap(p, f.domain, {xy: xy[0] for xy in min_open})
    pr2 = ContinuousMap(p, g.domain, {xy: xy[1] for xy in min_open})
    return p, pr1, pr2


# -- point-set predicates ------------------------------------------------


def is_t0(space: FinSpace) -> bool:
    """Distinct points have distinct open-neighbourhood families."""
    seen = {}
    for x in space.points:
        u = space.min_open(x)
        if u in seen:
            return False
        seen[u] = x
    return True


def is_sober(space: FinSpace) -> bool:
    """Every irreducible closed subset is the closure of exactly one point."""
    gens = {}
    for x in space.points:
        c = space.closure({x})
        if c in gens and gens[c] != x:
            return False
        gens[c] = x
    return True


def is_quasi_homeomorphism(f, dom_mins, cod_mins) -> bool:
    """Does the open-preimage map of the point map `f` biject the opens
    of the codomain onto those of the domain?

    Points are indices: f[i] is the image of domain point i, and
    dom_mins[i] and cod_mins[j] are minimal opens as int masks of
    indices.  Injectivity is Skula density of the image; the Skula
    neighbourhood of a point is the set of points with its minimal open,
    so the image must meet each distinct minimal open.  Surjectivity
    and continuity together say each domain minimal open is the
    preimage of its image's minimal open.
    """
    if {cod_mins[j] for j in f} != set(cod_mins):
        return False
    fibre = [0] * len(cod_mins)
    for i, j in enumerate(f):
        fibre[j] |= 1 << i
    pre = {}
    for i, j in enumerate(f):
        m = cod_mins[j]
        if m not in pre:
            pre[m] = sum(fibre[b] for b in bits(m))
        if pre[m] != dom_mins[i]:
            return False
    return True


def is_open_map(f: ContinuousMap) -> bool:
    """Image of every open is open; enough to check each distinct minimal
    neighbourhood once (points of a coarse space share one)."""
    for u in set(f.domain._min.values()):
        if not f.codomain.is_open(frozenset(f.mapping[y] for y in u)):
            return False
    return True


def is_local_homeomorphism(f: ContinuousMap) -> bool:
    """Every point has an open V mapping homeomorphically onto an open image.

    If any such V exists around y then the minimal neighbourhood of y
    works, so only those candidates are tested: f must be injective on
    min_open(y), carry it to an open set, and reflect the order inside it.
    """
    for y in f.domain.points:
        u = f.domain.min_open(y)
        img = {}
        for z in u:
            v = f.mapping[z]
            if v in img:
                return False
            img[v] = z
        if not f.codomain.is_open(frozenset(img)):
            return False
        for z in u:
            for w in u:
                if f.mapping[w] in f.codomain.min_open(f.mapping[z]):
                    if w not in f.domain.min_open(z):
                        return False
    return True

