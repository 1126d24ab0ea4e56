"""The per-minimal-open fast paths against their pointwise references on
spaces that are not T0.

`fintop` and the routes of `weq` group points by their minimal open (or
by the pair of minimal opens a test reads) and do each piece of work once
per group.  On a T0 space every group has one point, so the corpora of
the other tests cannot tell a grouped computation from a per-point one.
Here every point of a T0 space is blown up into 1-4 copies sharing its
minimal open, and the derived groupoids of copies of one graph, whose
objects cannot be told apart, are walked pair by pair.
"""

import random

import oracles
from corpus import (
    enumerate_subgroupoids,
    graph_copies_doc,
    rigid_graphs,
    space_pair_groupoid,
    t0_spaces_up_to,
)
from topogrpd import fintop, grpd, jsonio, weq
from topogrpd.errors import InputError
from topogrpd.fintop import ContinuousMap, FinSpace
from topogrpd.grpd import TopGroupoid

CASES = 300
T0_SPACES = t0_spaces_up_to(4)


def blown_up(rng):
    """(minimal opens, blocks) of a T0 space with at most 4 points whose
    point x is replaced by 1-4 copies (x, i), each with the minimal open
    made of the copies of x's minimal open."""
    base = rng.choice(T0_SPACES)
    blocks = {x: [(x, i) for i in range(rng.randint(1, 4))] for x in base.points}
    mins = {c: frozenset(d for y in base.min_open(x) for d in blocks[y])
            for x, copies in blocks.items() for c in copies}
    return mins, list(blocks.values())


def random_map(rng, dom, cod_blocks):
    """A point map into the points of `cod_blocks`: blockwise (the copies
    of a point go to copies of one point) or point by point."""
    cod = [c for block in cod_blocks for c in block]
    if rng.random() < 0.5:
        return {x: rng.choice(cod) for x in dom}
    block_of = {}
    return {x: rng.choice(block_of.setdefault(x[0], rng.choice(cod_blocks))) for x in dom}


def mutated(rng, mins, blocks):
    """`mins` with one minimal open changed, for one copy or a whole
    block: a point dropped, a point added or a point from outside added."""
    mins = dict(mins)
    points = sorted(mins, key=fintop.ckey)
    if not points:
        return mins
    block = rng.choice(blocks)
    targets = block if rng.random() < 0.5 else [rng.choice(block)]
    u = mins[targets[0]]
    kind = rng.randrange(4)
    if kind == 0 and u:
        u = u - {rng.choice(sorted(u, key=fintop.ckey))}
    elif kind == 1:
        u = u | {rng.choice(points)}
    elif kind == 2:
        u = u | {("outside", 0)}
    for x in targets:
        mins[x] = u
    return mins


def checked(points, mins):
    try:
        FinSpace(points, mins)
    except InputError as e:
        return str(e)
    return None


def test_fintop_fast_paths_match_the_pointwise_references_on_blown_up_spaces():
    rng = random.Random(20240811)
    coarse = generated = continuous = rejected = 0
    for _ in range(CASES):
        mins, blocks = blown_up(rng)
        coarse += any(len(b) > 1 for b in blocks)
        space = FinSpace(mins, mins)
        points = sorted(space.points, key=fintop.ckey)

        # a subbasis of unions of blocks and single points, one member repeated
        subbasis = [{c for b in blocks if rng.random() < 0.5 for c in b}
                    for _ in range(rng.randint(0, 4))]
        subbasis += [{x} for x in rng.sample(points, min(len(points), rng.randint(0, 1)))]
        subbasis += subbasis[:1]
        generated_space = fintop.generate_topology(points, subbasis)
        assert generated_space == oracles.generated_topology_oracle(points, subbasis)
        generated += not fintop.is_t0(generated_space)

        cod_mins, cod_blocks = blown_up(rng)
        cod = FinSpace(cod_mins, cod_mins)
        if cod.points:
            f = ContinuousMap(space, cod, random_map(rng, points, cod_blocks))
            assert f.is_continuous() == oracles.is_continuous_oracle(f)
            continuous += f.is_continuous()
            other_mins, other_blocks = blown_up(rng)
            other = FinSpace(other_mins, other_mins)
            g = ContinuousMap(other, cod, random_map(rng, other.points, cod_blocks))
            for left, right in ((f, g), (g, f), (f, f)):
                product_space, pr1, pr2 = fintop.fiber_product(left, right)
                assert product_space == oracles.fiber_product_oracle(left, right)
                assert all(pr1(p) == p[0] and pr2(p) == p[1] for p in product_space.points)

        bad = mutated(rng, mins, blocks)
        message = oracles.min_open_fault_oracle(bad, bad)
        assert checked(bad, bad) == message
        rejected += message is not None
    print(f"{CASES} blown-up spaces, {coarse} with a block larger than one; "
          f"{generated} generated topologies not T0, {continuous} continuous maps, "
          f"{rejected} mutated spaces rejected")
    assert coarse > CASES // 2 and generated > 0 and rejected > 0
    assert 0 < continuous < CASES


SYMMETRIC_GRAPHS = ([["v0", "v1"], ["v1", "v0"]], [], [["v0", "v0"], ["v1", "v1"]])


def coarse_derived_groupoids():
    """The complete model groupoids of the benchmark's shapes, derived at
    depths 1 and 2: k = 2-4 copies of a rigid graph on 3 vertices (one
    arrow minimal open) and k = 1-3 copies of a graph on 2 vertices with
    the swap as automorphism (two arrow minimal opens)."""
    shapes = [(rigid_graphs(3)[0], 3, k) for k in (2, 3, 4)]
    shapes += [(edges, 2, k) for edges in SYMMETRIC_GRAPHS for k in (1, 2, 3)]
    for edges, size, k in shapes:
        g = jsonio.model_groupoid_from_json(
            graph_copies_doc(edges, size, [f"M{i}" for i in range(k)], "all"))
        for depth in (1, 2):
            yield g.derive(depth, 2).groupoid


def with_joined_block(block):
    """The pair groupoid of the space on 0, 1, 2 where 0 is the closed
    point, with the arrows (y, x, 0) from x to y in `block` joined into
    one open: the arrows whose minimal opens meet the block grow by it.
    Its source map is not continuous, so arrows sharing a minimal open
    have sources whose minimal opens differ."""
    g = space_pair_groupoid(FinSpace(range(3), {0: {0, 1, 2}, 1: {1}, 2: {2}}), {(0, 0): 0})
    block = frozenset(block)
    subbasis = [u | block if u & block else u for u in map(g.arrows.min_open, g.arrows.points)]
    arrows = fintop.generate_topology(g.arrows.points, subbasis + [block])
    return TopGroupoid(g.objects, arrows, g.src.mapping, g.tgt.mapping, g.unit.mapping,
                       g.inv.mapping, g.comp)


def test_routes_match_the_pointwise_references_on_coarse_derived_groupoids():
    pairs = no = not_open = 0
    arrow_opens = set()
    for g in coarse_derived_groupoids():
        assert len(set(map(g.objects.min_open, g.objects.points))) == 1
        arrow_opens.add(len(set(map(g.arrows.min_open, g.arrows.points))))
    for g in [*coarse_derived_groupoids(),
              with_joined_block([(1, 1, 0), (2, 0, 0), (2, 2, 0)]),
              with_joined_block([(0, 0, 0), (0, 1, 0), (1, 0, 0), (2, 2, 0)]),
              with_joined_block([(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 2, 0)]),
              with_joined_block([(0, 1, 0), (1, 0, 0), (2, 2, 0)]),
              with_joined_block([(0, 2, 0), (1, 1, 0), (2, 0, 0)])]:
        atoms = grpd.open_atoms(g)
        for y in enumerate_subgroupoids(g):
            fault = oracles.source_not_open_oracle(y)
            try:
                weq._check_scope(y)
                assert fault is None
            except InputError as e:
                assert f"not open at arrow {fintop.fmt_point(fault)};" in str(e)
                not_open += 1
            for u in atoms:
                w = weq.source_determined_witness(y, u)
                assert w == oracles.source_determined_witness_oracle(y, u)
                pairs += 1
                no += w is not None
    print(f"{pairs} subgroupoid x atom pairs, {no} 'no' witnesses; "
          f"{not_open} subgroupoids not open groupoids")
    assert arrow_opens == {1, 2}
    assert no > 0 and not_open > 0
