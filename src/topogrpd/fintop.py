"""Finite topological spaces and continuous maps.

A finite topology is determined by its minimal-open-neighbourhood map
x |-> min_open(x) (the intersection of all opens containing x):
a set is open iff it contains the minimal neighbourhood of each of its
points.  Spaces are stored that way, which keeps every predicate here a
direct set computation while still allowing, say, a 24-point discrete
space (2^24 opens) that could never be materialised extensionally.
FinSpace.opens() lists the open family, capped at DEFAULT_OPEN_CAP sets,
built on int bitmasks by `union_closure` and ordered by `sets_in_order`.

Points are opaque hashable ids; constructed spaces (quotients, fiber
products) use frozensets and tuples of ids as points.  Sets of points
are ordered by `set_key`: by size, then by sorted canonical point keys
`ckey`, ranking the points once per sort, for reproducible output.
"""

from __future__ import annotations

from itertools import combinations

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


def set_key(points):
    """Key for subsets of `points`: size, then the sorted `ckey` ranks of their points."""
    rank = {x: i for i, x in enumerate(sorted_points(points))}
    return lambda s: (len(s), sorted([rank[x] for x in s]))


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


def sets_in_order(masks, points) -> tuple:
    """Masks over `points` (bit i is points[i]) as frozensets, in `set_key` order."""
    sets = [frozenset(p for i, p in enumerate(points) if m >> i & 1) for m in masks]
    return tuple(sorted(sets, key=set_key(points)))


def fmt_point(x) -> str:
    """Compact canonical label, used for witnesses and JSON output."""
    if isinstance(x, frozenset):
        return "{" + ",".join(fmt_point(e) for e in sorted_points(x)) + "}"
    if isinstance(x, tuple):
        return "(" + ",".join(fmt_point(e) for e in x) + ")"
    return str(x)


class FinSpace:
    """A finite point set with a topology, held as minimal neighbourhoods.

    `min_open` must satisfy x in min_open(x), and y in min_open(x) implies
    min_open(y) <= min_open(x); these two laws make the family of all
    unions of minimal neighbourhoods a topology, and every finite topology
    arises this way.
    """

    __slots__ = ("points", "_min", "_opens", "_hash")

    def __init__(self, points, min_open, _check=True):
        self.points = frozenset(points)
        self._min = {x: frozenset(min_open[x]) for x in self.points}
        self._opens = None
        self._hash = None
        if _check:
            if set(self._min) != self.points:
                raise InputError("min_open domain differs from point set")
            for x, u in self._min.items():
                if x not in u or not u <= self.points:
                    raise InputError(f"bad minimal neighbourhood at {fmt_point(x)}")
                for y in u:
                    if not self._min[y] <= u:
                        raise InputError(
                            f"minimal neighbourhoods not nested at {fmt_point(x)}"
                        )

    # -- constructors ---------------------------------------------------

    @classmethod
    def discrete(cls, points) -> "FinSpace":
        return cls(points, {x: frozenset([x]) for x in points}, _check=False)

    @classmethod
    def indiscrete(cls, points) -> "FinSpace":
        pts = frozenset(points)
        return cls(pts, {x: pts for x in pts}, _check=False)

    @classmethod
    def sierpinski(cls) -> "FinSpace":
        # 1 is the open point, 0 the closed one
        return cls({0, 1}, {0: frozenset({0, 1}), 1: frozenset({1})}, _check=False)

    @classmethod
    def from_opens(cls, points, opens) -> "FinSpace":
        """Build from an explicit open family, validating the topology axioms."""
        pts = frozenset(points)
        fam = {frozenset(o) for o in opens}
        for o in fam:
            if not o <= pts:
                raise InputError("open set not contained in points")
        if frozenset() not in fam or pts not in fam:
            raise InputError("opens must contain the empty set and the full set")
        for a, b in combinations(fam, 2):
            if a | b not in fam:
                raise InputError("opens not closed under union")
            if a & b not in fam:
                raise InputError("opens not closed under intersection")
        min_open = {
            x: frozenset.intersection(*[o for o in fam if x in o]) for x in pts
        }
        space = cls(pts, min_open)
        # defensive: the family must consist of unions of minimal neighbourhoods
        for o in fam:
            if not space.is_open(o):
                raise InputError("open family inconsistent")  # pragma: no cover
        return space

    # -- basic structure ------------------------------------------------

    def min_open(self, x) -> frozenset:
        return self._min[x]

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
        """The explicit open family, canonically ordered.

        Raises CapExceeded when the family has more than `cap` members.
        """
        if self._opens is not None:
            if len(self._opens) > cap:
                raise CapExceeded(f"open family exceeds cap {cap}")
            return self._opens
        points = tuple(self.points)
        gens = map(masker(points), self._min.values())
        self._opens = sets_in_order(union_closure(gens, cap), points)
        return self._opens

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

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(
                frozenset((x, u) for x, u in self._min.items())
            )
        return self._hash

    def __len__(self):
        return len(self.points)

    def __repr__(self):
        return f"FinSpace({len(self.points)} points)"


def generate_topology(points, subbasis) -> FinSpace:
    """Smallest topology on `points` containing every subbasis member.

    Idempotent on an existing topology and monotone in the subbasis.
    """
    pts = frozenset(points)
    fam = [frozenset(s) for s in subbasis]
    for s in fam:
        if not s <= pts:
            raise InputError("subset not contained in points")
    min_open = {}
    for x in pts:
        u = pts
        for s in fam:
            if x in s:
                u = u & s
        min_open[x] = u
    return FinSpace(pts, min_open, _check=False)


class ContinuousMap:
    """A total point function between finite spaces.

    Continuity (preimage of every open is open) is validated on
    construction unless check=False; is_continuous() re-tests it, which
    lets validators diagnose deliberately broken maps.
    """

    __slots__ = ("domain", "codomain", "mapping")

    def __init__(self, domain: FinSpace, codomain: FinSpace, mapping, check=True):
        self.domain = domain
        self.codomain = codomain
        self.mapping = dict(mapping)
        if set(self.mapping) != set(domain.points):
            raise InputError("map not total on domain")
        for v in self.mapping.values():
            if v not in codomain.points:
                raise InputError("map value outside codomain")
        if check and not self.is_continuous():
            raise InputError("map is not continuous")

    def __call__(self, x):
        return self.mapping[x]

    def is_continuous(self) -> bool:
        # monotone on minimal neighbourhoods <=> all preimages of opens open
        m = self.mapping
        return all(
            m[y] in self.codomain.min_open(m[x])
            for x in self.domain.points
            for y in self.domain.min_open(x)
        )

    def image(self) -> frozenset:
        return frozenset(self.mapping.values())

    def preimage(self, subset) -> frozenset:
        s = frozenset(subset)
        return frozenset(x for x, v in self.mapping.items() if v in s)

    def __eq__(self, other):
        if not isinstance(other, ContinuousMap):
            return NotImplemented
        return self is other or (
            self.domain == other.domain
            and self.codomain == other.codomain
            and self.mapping == other.mapping
        )

    def __hash__(self):
        return hash((self.domain, self.codomain, frozenset(self.mapping.items())))

    def __repr__(self):
        return f"ContinuousMap({len(self.domain)} -> {len(self.codomain)} points)"


def identity_map(space: FinSpace) -> ContinuousMap:
    return ContinuousMap(space, space, {x: x for x in space.points}, check=False)


def inclusion_map(subset, space: FinSpace) -> ContinuousMap:
    """Inclusion of the subspace on `subset` into `space`."""
    return ContinuousMap(
        space.subspace(subset), space, {x: x for x in frozenset(subset)}, check=False
    )


def quotient_space(space: FinSpace, blocks):
    """Quotient of `space` by a partition, with the quotient topology.

    An open of the quotient is (the image of) a saturated open of the
    domain.  Points of the quotient are the partition blocks as
    frozensets.  Returns (quotient space, quotient map).
    """
    blocks = [frozenset(b) for b in blocks]
    seen = set()
    for b in blocks:
        if not b or not b <= space.points or b & seen:
            raise InputError("blocks must partition the point set")
        seen |= b
    if seen != space.points:
        raise InputError("blocks must partition the point set")
    cls = {x: b for b in blocks for x in b}
    # one-step reachability: block of x sees every block meeting min_open(x)
    step = {
        b: frozenset(cls[z] for x in b for z in space.min_open(x)) for b in blocks
    }
    min_open = {}
    for b in blocks:
        reach = {b}
        frontier = [b]
        while frontier:
            c = frontier.pop()
            for d in step[c]:
                if d not in reach:
                    reach.add(d)
                    frontier.append(d)
        min_open[b] = frozenset(reach)
    q = FinSpace(blocks, min_open, _check=False)
    return q, ContinuousMap(space, q, cls, check=False)


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


def quotient_by_relation(space: FinSpace, pairs):
    """Quotient by the equivalence relation generated by `pairs`."""
    pairs = list(pairs)
    for a, b in pairs:
        if a not in space.points or b not in space.points:
            raise InputError("relation pair outside point set")
    return quotient_space(space, partition(space.points, pairs))


def fiber_product(f: ContinuousMap, g: ContinuousMap):
    """Fiber product of f: X -> Z and g: Y -> Z with the subspace-of-product
    topology.  Points are pairs (x, y) with f(x) = g(y).
    Returns (space, projection to X, projection to Y)."""
    if f.codomain != g.codomain:
        raise InputError("fiber product needs a common codomain")
    pts = frozenset(
        (x, y)
        for x in f.domain.points
        for y in g.domain.points
        if f.mapping[x] == g.mapping[y]
    )
    min_open = {}
    for (x, y) in pts:
        ux, uy = f.domain.min_open(x), g.domain.min_open(y)
        min_open[(x, y)] = frozenset(
            (a, b) for (a, b) in pts if a in ux and b in uy
        )
    p = FinSpace(pts, min_open, _check=False)
    pr1 = ContinuousMap(p, f.domain, {xy: xy[0] for xy in pts}, check=False)
    pr2 = ContinuousMap(p, g.domain, {xy: xy[1] for xy in pts}, check=False)
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


def skula_space(space: FinSpace) -> FinSpace:
    """Topology generated by the opens together with the closeds.

    The minimal Skula neighbourhood of x is min_open(x) & closure{x}.
    """
    return FinSpace(
        space.points,
        {
            x: space.min_open(x) & space.closure({x})
            for x in space.points
        },
        _check=False,
    )


def is_skula_dense(subset, space: FinSpace) -> bool:
    """Is `subset` dense in the Skula topology of `space`?

    Coincides with is_quasi_homeomorphism of the subspace inclusion.
    """
    s = frozenset(subset)
    if not s <= space.points:
        raise InputError("subset not contained in points")
    sk = skula_space(space)
    return all(sk.min_open(x) & s for x in space.points)


def is_quasi_homeomorphism(f: ContinuousMap) -> bool:
    """Does the open-preimage map opens(cod) -> opens(dom) biject?

    Injectivity of the preimage map is Skula density of the image;
    surjectivity says the domain topology is exactly the preimage
    topology, i.e. f reflects minimal neighbourhoods.
    """
    if not is_skula_dense(f.image(), f.codomain):
        return False
    m = f.mapping
    for x in f.domain.points:
        ufx = f.codomain.min_open(m[x])
        for y in f.domain.points:
            if m[y] in ufx and y not in f.domain.min_open(x):
                return False
    return True


def is_open_map(f: ContinuousMap) -> bool:
    """Image of every open is open; enough to check minimal neighbourhoods."""
    for x in f.domain.points:
        img = frozenset(f.mapping[y] for y in f.domain.min_open(x))
        if not f.codomain.is_open(img):
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


def validate_space(space: FinSpace, cap: int = DEFAULT_OPEN_CAP):
    """Re-check the topology axioms on the materialised open family.

    Returns a list of named violations (empty when valid).  Only usable
    when the family fits under `cap`.
    """
    out = []
    fam = set(space.opens(cap=cap))
    if frozenset() not in fam:
        out.append("missing empty set")
    if space.points not in fam:
        out.append("missing full set")
    for a, b in combinations(fam, 2):
        if a | b not in fam:
            out.append("not closed under union")
            break
    for a, b in combinations(fam, 2):
        if a & b not in fam:
            out.append("not closed under intersection")
            break
    return out
