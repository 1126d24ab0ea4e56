"""The benchmark's workloads: seeded inputs, operations and their checks.

A workload turns a seed into one pass of operations.  Building a pass is
the set-up; it is timed on its own and never inside an operation.  Every
pass is built afresh from the same seed, so it holds the same inputs as
new objects and the per-object caches of the package (TopGroupoid._cache,
FinSpace opens, Subgroupoid and ModelGroupoid caches) start cold, as they
do for a user's new input.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import gen
from topogrpd import cli, grpd, jsonio, logic, weq
from topogrpd.fintop import FinSpace

YES_NO = ("yes", "no")


@dataclass
class Op:
    """One timed call.  `call` is the timed part; `answer` turns its
    return value into (answer string, digest of the report or None)
    outside the timed part, raising when the output is malformed.
    `allowed` holds the answers that are correct for any seed."""

    group: str
    arrows: int
    call: Callable[[], object]
    answer: Callable[[object], tuple]
    allowed: frozenset
    ambient: object = None  # the TopGroupoid whose family the op walks


class Workload:
    name = ""
    min_passes = 3  # passes a run always completes, whatever --seconds says

    def __init__(self):
        self._accepted = {}

    def draw(self, key, rng, make):
        """make(rng) until it returns an input, not None.  The random state
        of the accepted draw is kept under `key`, so later passes rebuild
        the same input in one draw and their set-up time holds no
        rejected draws."""
        if key in self._accepted:
            replay = random.Random()
            replay.setstate(self._accepted[key])
            return make(replay)
        while True:
            state = rng.getstate()
            out = make(rng)
            if out is not None:
                self._accepted[key] = state
                return out

    def build(self, seed: int, workdir: str) -> list[Op]:
        raise NotImplementedError


def _verdict_answer(v):
    return v.answer, None


# -- corpus-inclusions --------------------------------------------------------

# A stratified sample of the mixed acceptance corpus.  An op's cost is set
# by the shape of its groupoid: (points, opens) of a space, (objects,
# arrows, subgroupoids) of a discrete or logical-topology groupoid, and for
# a discrete one it grows with the square of the subgroupoid count.  So the shapes are fixed and the seed
# draws the groupoid of each shape; a seed that drew the shapes too would
# move the median op by 20%.  The shapes follow the generator's own
# frequencies, except that discrete shapes with more than 21 subgroupoids
# (about 3% of draws, but up to 7 s and gigabytes of lattice caches each)
# are left out.
SPACE_SHAPES = (
    (1, 2), (2, 3), (2, 3), (3, 4), (3, 5), (3, 6),
    (4, 6), (4, 7), (4, 7), (4, 9), (4, 10), (4, 12),
)
DISCRETE_SHAPES = (
    (1, 1, 2), (1, 1, 2), (1, 1, 2), (1, 1, 2), (1, 2, 3), (1, 3, 3),
    (1, 4, 4), (2, 4, 5), (1, 4, 6), (1, 6, 7), (2, 8, 12), (2, 12, 13),
    (3, 8, 20), (2, 9, 21),
)
MODEL_SHAPES = ((1, 1, 2),) * 7 + ((1, 2, 3),)


def _groupoid_of_shape(make_groupoid, shape):
    """Draws of make_groupoid(rng) with (objects, arrows, subgroupoids) ==
    shape, with their subgroupoids' arrow sets; None for other draws."""
    def make(rng):
        g = make_groupoid(rng)
        if g is None or (len(g.objects.points), len(g.arrows.points)) != shape[:2]:
            return None
        arrow_sets = gen.subgroupoid_arrow_sets(g)
        return (g, arrow_sets) if len(arrow_sets) == shape[2] else None

    return make


def _space_of_shape(shape):
    """Draws of a T0 space groupoid with (points, opens) == shape, with its
    subgroupoids' arrow sets; None for other draws."""
    def make(rng):
        g = gen.t0_space_groupoid(rng, shape[0])
        if g is None:
            return None
        # count on a copy: FinSpace caches its opens, and the ops must find
        # that cache cold
        space = g.objects
        copy = FinSpace(space.points, {x: space.min_open(x) for x in space.points})
        if copy.open_count() != shape[1]:
            return None
        return g, gen.subgroupoid_arrow_sets(g)

    return make


def _decide_three_ways(y):
    def call():
        return (
            weq.is_weak_equivalence(y, mode="all").answer,
            weq.is_localic_surjection(y).answer,
            weq.is_subtopos_inclusion(y).answer,
        )

    return call


def _three_way_answer(ret):
    return "/".join(ret), None


# weak equivalence = surjection AND inclusion; the family is exhaustive, so
# no verdict may be "unknown"
DECOMPOSITION = frozenset(
    f"{'yes' if s == i == 'yes' else 'no'}/{s}/{i}" for s in YES_NO for i in YES_NO
)


class CorpusInclusions(Workload):
    name = "corpus-inclusions"

    def build(self, seed, workdir):
        rng = random.Random(seed)
        drawn = []
        for i, shape in enumerate(SPACE_SHAPES):
            drawn.append(("space", *self.draw((seed, "space", i), rng, _space_of_shape(shape))))
        for i, shape in enumerate(DISCRETE_SHAPES):
            drawn.append(("discrete", *self.draw((seed, "discrete", i), rng,
                                                    _groupoid_of_shape(gen.random_discrete_groupoid, shape))))
        for i, shape in enumerate(MODEL_SHAPES):
            drawn.append(("model", *self.draw((seed, "model", i), rng,
                                                 _groupoid_of_shape(gen.derived_model_groupoid, shape))))
        ops = []
        # grouped by ambient groupoid, in a fixed order of shapes: the peak
        # memory of a pass depends on where its largest groupoid comes
        for kind, g, arrow_sets in drawn:
            for arrows in arrow_sets:
                y = grpd.Subgroupoid(g, arrows)
                ops.append(Op(kind, len(g.arrows.points), _decide_three_ways(y),
                              _three_way_answer, DECOMPOSITION, ambient=g))
        return ops


# -- wide-family --------------------------------------------------------------

# Groupoids whose open-subgroupoid family has 192-256 members.  Every op is
# a yes-instance, so it walks the whole family, and gets a groupoid of its
# own, so it pays for its own family and lattices.  Discrete spaces stop at
# 8 points: 9 points already costs 2 s per subobject-oracle call.  The
# seeded T0 spaces are held to one shape class (10 points, minimal opens
# of total size 19, 192-207 opens), within which their cost varies by
# about 5%; across the whole 150-260 range it varies by 50%.
T0_POINTS, T0_MIN_OPEN_TOTAL, T0_OPENS = 10, 19, (192, 207)
GROUP_UNION = ("Z2", "Z2", "Z2", "Z3", "Z3")  # 3^5 = 243 members
WIDE_GROUPOIDS = ("discrete-8", "t0", "t0", "groups-5")
WIDE_COPIES = 2  # of the list above: 40 ops, so the tail is p75


def _t0_min_opens(rng):
    """Minimal-open map of a seeded T0 space of the T0_* shape class, or None."""
    space = gen.random_t0_space(rng, T0_POINTS, 0.15)
    if sum(len(space.min_open(x)) for x in space.points) != T0_MIN_OPEN_TOTAL:
        return None
    if not T0_OPENS[0] <= space.open_count(limit=T0_OPENS[1] + 1) <= T0_OPENS[1]:
        return None
    return {x: space.min_open(x) for x in space.points}


def _group_union(names):
    return gen.disjoint_union(
        [gen.pair_groupoid(["o"], gen.SMALL_GROUPS[n], tag=f"c{i}") for i, n in enumerate(names)]
    )


class WideFamily(Workload):
    name = "wide-family"

    def build(self, seed, workdir):
        rng = random.Random(seed)
        choose = random.Random(seed)  # orders and object subsets
        makers = []
        for i, kind in enumerate(WIDE_GROUPOIDS * WIDE_COPIES):
            if kind == "discrete-8":
                makers.append((kind, lambda: grpd.space_groupoid(FinSpace.discrete(range(8)))))
            elif kind == "t0":
                mins = self.draw((seed, "t0", i), rng, _t0_min_opens)
                makers.append((kind, lambda mins=mins: grpd.space_groupoid(FinSpace(mins, mins))))
            else:
                names = choose.sample(GROUP_UNION, len(GROUP_UNION))
                makers.append((kind, lambda names=names: _group_union(names)))
        ops = []
        for label, make in makers:
            for mode in weq.MODES:
                g = make()
                y = grpd.whole_subgroupoid(g)
                ops.append(Op(f"{label} weq:{mode}", len(g.arrows.points),
                              lambda y=y, mode=mode: weq.is_weak_equivalence(y, mode=mode),
                              _verdict_answer, frozenset({"yes"}), ambient=g))
            g = make()
            y = grpd.whole_subgroupoid(g)
            ops.append(Op(f"{label} surjection", len(g.arrows.points),
                          lambda y=y: weq.is_localic_surjection(y),
                          _verdict_answer, frozenset({"yes"}), ambient=g))
            g = make()
            # every object is its own orbit in these groupoids, so any
            # object set spans a full replete subgroupoid: an inclusion
            objs = sorted(g.objects.points, key=repr)
            objs.remove(choose.choice(objs))
            y = grpd.full_subgroupoid_on(g, objs)
            ops.append(Op(f"{label} inclusion", len(g.arrows.points),
                          lambda y=y: weq.is_subtopos_inclusion(y),
                          _verdict_answer, frozenset({"yes"}), ambient=g))
        return ops


# -- model-cli ----------------------------------------------------------------

GRAPH_SIG = {"sorts": ["V"], "relations": {"E": ["V", "V"]}}
# Each rigid graph gets the command plan below, 20 ops: 100 ops in all, so
# the tail is p90.  Morita search stops at 4 copies (apexes of 16, 36 and
# 64 arrows): 5 copies (100 arrows) take 1.2 s each, which would double
# the pass and halve the passes a run holds.
RIGID_GRAPHS = 5
MORITA_COPIES = (2, 3, 4)
SYMMETRIC_COPIES = (1, 2)


def _graph(size, rigid):
    """Edge set of a random graph on `size` vertices whose automorphism
    group is trivial (rigid) or not; None when the draw is the other kind."""
    def make(rng):
        m = gen.random_structure(rng, "X", size, gen.GRAPH)
        if (len(logic.automorphisms(m)) == 1) != rigid:
            return None
        return sorted(map(list, m.relations["E"]))

    return make


def _models_doc(edges, size, names, arrows):
    """Model-groupoid document: copies of one graph, indexed by p0..p{size-1},
    with identity arrows only or with "all" isomorphisms."""
    carrier = [f"v{i}" for i in range(size)]
    ident = {"V": {c: c for c in carrier}}
    return {
        "signature": GRAPH_SIG,
        "params": {f"p{i}": "V" for i in range(size)},
        "models": [
            {"name": n, "carriers": {"V": carrier}, "relations": {"E": edges},
             "indexing": {f"p{i}": c for i, c in enumerate(carrier)}}
            for n in names
        ],
        "arrows": "all" if arrows == "all" else [{"src": n, "tgt": n, "map": ident} for n in names],
    }


def _copies(prefix, k):
    return [f"{prefix}{i}" for i in range(k)]


def _cospans(edges, size, k):
    """A composable pair of cospans whose composite needs a non-identity
    Ore square: the weak-equivalence leg of the first adds the cross
    isomorphisms of k rigid copies, and the second renames the copies."""
    a, b = _copies("M", k), _copies("N", k)
    carrier = {"V": {f"v{i}": f"v{i}" for i in range(size)}}

    def ident(n):
        return {"src": n, "tgt": n, "map": carrier}

    plain = _models_doc(edges, size, a, "identities")
    copies = _models_doc(edges, size, b, "identities")
    first = {"source": plain, "target": plain, "apex": _models_doc(edges, size, a, "all"),
             "fwd": {"obj_map": {n: n for n in a}, "arr_map": [[ident(n), ident(n)] for n in a]}}
    second = {"source": plain, "target": copies, "apex": copies,
              "fwd": {"obj_map": dict(zip(a, b)),
                      "arr_map": [[ident(m), ident(n)] for m, n in zip(a, b)]}}
    return first, second


def _cli_answer(report):
    def answer(code):
        with open(report, "rb") as fh:
            raw = fh.read()
        doc = json.loads(raw)
        return f"exit={code} answer={doc['result'].get('answer')}", hashlib.sha256(raw).hexdigest()

    return answer


_EXIT_OF = {"yes": 0, "no": 1, "unknown": 2, None: 0}


def _exits(*answers):
    return frozenset(f"exit={_EXIT_OF[a]} answer={a}" for a in answers)


class ModelCli(Workload):
    name = "model-cli"

    def build(self, seed, workdir):
        rng = random.Random(seed)
        inputs = os.path.join(workdir, "inputs")
        reports = os.path.join(workdir, "reports")
        os.makedirs(inputs, exist_ok=True)
        os.makedirs(reports, exist_ok=True)

        def write(name, doc):
            path = os.path.join(inputs, name + ".json")
            with open(path, "w") as fh:
                json.dump(doc, fh, sort_keys=True)
            return path

        plan = []  # (group, arrows, argv, allowed answers)
        for r in range(RIGID_GRAPHS):
            rigid = self.draw((seed, "rigid", r), rng, _graph(3, rigid=True))
            symmetric = self.draw((seed, "symmetric", r), rng, _graph(2, rigid=False))

            def models(name, edges, size, names, arrows):
                return write(f"g{r}-{name}", _models_doc(edges, size, names, arrows))

            for k in MORITA_COPIES:
                plan.append((f"morita-search rigid k={k}", 4 * k * k, [
                    "morita-search",
                    "--left", models(f"rigid-{k}-left", rigid, 3, _copies("M", k), "identities"),
                    "--right", models(f"rigid-{k}-right", rigid, 3, _copies("N", k), "identities"),
                ], _exits("yes")))
            for k in SYMMETRIC_COPIES:
                plan.append((f"morita-search symmetric k={k}", 8 * k * k, [
                    "morita-search",
                    "--left", models(f"sym-{k}-left", symmetric, 2, _copies("M", k), "identities"),
                    "--right", models(f"sym-{k}-right", symmetric, 2, _copies("N", k), "all"),
                ], _exits("unknown")))
            for k in (2, 3):
                first, second = _cospans(rigid, 3, k)
                plan.append((f"compose k={k}", 4 * k * k, [
                    "compose", "--first", write(f"g{r}-cospan-{k}-first", first),
                    "--second", write(f"g{r}-cospan-{k}-second", second),
                ], _exits(None)))
            for k in (2, 3, 4):
                plain = models(f"plain-{k}", rigid, 3, _copies("M", k), "identities")
                full = models(f"full-{k}", rigid, 3, _copies("M", k), "all")
                plan.append((f"etale-complete k={k}", k * k, ["etale-complete", "--models", plain],
                             _exits(None)))
                plan.append((f"elim-params k={k}", k, ["elim-params", "--models", plain],
                             _exits("yes", "unknown")))
                plan.append((f"logical-topology k={k}", k * k, ["logical-topology", "--models", full],
                             _exits(None)))
            # commands on a derived groupoid: the completion of 3 rigid
            # copies, with the identities-only subgroupoid (a weak
            # equivalence) and the whole groupoid (open) as subgroupoids
            full = jsonio.model_groupoid_from_json(_models_doc(rigid, 3, _copies("M", 3), "all"))
            derived = full.derive(1, 2).groupoid
            groupoid = write(f"g{r}-derived", jsonio.groupoid_to_json(derived))
            idents = write(f"g{r}-derived-identities", {"arrows": sorted(
                jsonio.fmt_point(a) for a in derived.unit.mapping.values())})
            whole = write(f"g{r}-derived-whole", {"arrows": sorted(
                jsonio.fmt_point(a) for a in derived.arrows.points)})
            n = len(derived.arrows.points)
            plan += [
                ("weq-check derived", n, ["weq-check", "--groupoid", groupoid, "--sub", idents],
                 _exits("yes")),
                ("inclusion-check derived", n,
                 ["inclusion-check", "--groupoid", groupoid, "--sub", idents], _exits("yes")),
                ("generators derived", n, ["generators", "--groupoid", groupoid], _exits(None)),
                ("subobjects derived", n, ["subobjects", "--groupoid", groupoid, "--sub", whole],
                 _exits(None)),
            ]
        ops = []
        for i, (group, arrows, argv, allowed) in enumerate(plan):
            report = os.path.join(reports, f"op{i:02d}.json")
            argv = argv + ["--output", report]
            ops.append(Op(group, arrows, lambda argv=argv: cli.run(argv),
                          _cli_answer(report), allowed))
        return ops


WORKLOADS = {w.name: w for w in (CorpusInclusions(), WideFamily(), ModelCli())}
