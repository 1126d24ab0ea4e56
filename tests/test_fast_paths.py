"""The fast paths against their references.

`fintop.set_key` ranks the points once per sort; `oracles.ckey_set_key`
recomputes the recursive `ckey` of every point of every set.
`grpd.subgroupoid_closure` indexes the closed arrows by source and
target; `oracles.subgroupoid_closure_oracle` is the naive fixpoint.
Open families and subobject lattices are int bitmasks sorted into
frozensets on output; the oracles search and compare frozensets.
Definable-set extensions are int masks over `DefinableSets.index`;
`oracles.DefinableSetsOracle` builds the same tables from frozensets
and `logic._eval`.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
import topogrpd
from corpus import graph_copies_doc, groupoid_corpus, random_model_groupoid, rigid_graphs
from test_acceptance import SEED
from test_cli import MG_DOC, discrete_space_groupoid_doc
from topogrpd import cli, fintop, grpd, jsonio, logic, sheaf
from topogrpd.errors import CapExceeded
from topogrpd.fintop import FinSpace


def random_id(rng, depth=2):
    """A point id of the kinds the package builds: ints, strings, tuples
    and frozensets, nested like sheaf total-space points."""
    kind = rng.randrange(5 if depth else 2)
    if kind == 0:
        return rng.randrange(-3, 12)
    if kind == 1:
        return rng.choice(["a", "b", "c0o0_0", "c2o2_1", "M1", ""])
    if kind == 2:
        return tuple(random_id(rng, depth - 1) for _ in range(rng.randrange(4)))
    if kind == 3:
        return frozenset(random_id(rng, depth - 1) for _ in range(rng.randrange(4)))
    # (object, orbit class), the shape of a pulled-back generator's points
    x = random_id(rng, 0)
    return (x, frozenset((x, random_id(rng, 0), i) for i in range(rng.randrange(1, 3))))


@pytest.fixture(scope="module")
def corpus():
    return groupoid_corpus(random.Random(SEED), 500)


def test_set_key_orders_as_the_recursive_key():
    rng = random.Random(41)
    spaces = 0
    for _ in range(300):
        points = list({random_id(rng) for _ in range(rng.randrange(1, 7))})
        subsets = [frozenset(x for x in points if rng.random() < 0.5) for _ in range(30)]
        assert sorted(subsets, key=fintop.set_key(points)) == sorted(
            subsets, key=oracles.ckey_set_key
        )
        space = fintop.generate_topology(points, subsets[:3])
        opens = space.opens()
        assert list(opens) == sorted(opens, key=oracles.ckey_set_key)
        spaces += len(opens) > 2
    assert spaces > 100


def test_opens_ranks_points_once(monkeypatch):
    calls = 0
    ckey = fintop.ckey

    def counting(x):
        nonlocal calls
        calls += 1
        return ckey(x)

    monkeypatch.setattr(fintop, "ckey", counting)
    assert len(FinSpace.discrete(range(10)).opens()) == 1024
    assert calls <= 3 * 10


def test_corpus_orders_match_the_recursive_key(corpus):
    spaces = 0
    for g in corpus:
        for space in (g.objects, g.arrows):
            opens = space.opens()
            assert list(opens) == oracles.opens_oracle(space)
            spaces += len(opens) > 2
        for enumerate_family in (grpd.enumerate_open_subgroupoids, grpd.enumerate_subgroupoids):
            family = [u.arrow_set for u in enumerate_family(g)]
            assert family == sorted(family, key=oracles.ckey_set_key)
    assert spaces > 300


def test_mask_lattices_and_restrictions_match_frozenset_references(corpus):
    """Every generator lattice of the corpus, and on every tenth groupoid
    (for run time) every pulled-back lattice and restriction along every
    subgroupoid inclusion, against the frozenset references."""
    generators = pulled = restrictions = 0
    for i, g in enumerate(corpus):
        subs = grpd.enumerate_subgroupoids(g) if i % 10 == 0 else []
        for u in grpd.enumerate_open_subgroupoids(g):
            gen = sheaf.moerdijk_generator(g, u)
            big = oracles.subobject_lattice_oracle(gen)
            lat = sheaf.subobject_lattice(gen)
            assert lat.elements == tuple(big) and len(lat) == len(big)
            assert big[-1] in lat and big[-1] | {"not a point"} not in lat
            generators += len(big) > 2
            for y in subs:
                r = sheaf.subobject_restriction(y, u)
                small = oracles.subobject_lattice_oracle(r.small.sheaf)
                assert r.small.elements == tuple(small)
                expected = oracles.restriction_oracle(big, small, r.small.sheaf)
                assert (r.is_injective(), r.is_surjective()) == expected
                pulled += len(small) > 2
                restrictions += expected != (True, True)
    assert generators > 1000 and pulled > 1000 and restrictions > 500


def test_join_closure_closes_each_new_join_once(monkeypatch):
    calls = 0
    closure = grpd.subgroupoid_closure

    def counting(g, arrows):
        nonlocal calls
        calls += 1
        return closure(g, arrows)

    monkeypatch.setattr(grpd, "subgroupoid_closure", counting)
    g = grpd.space_groupoid(FinSpace.discrete(range(8)))
    assert len(grpd.enumerate_open_subgroupoids(g)) == 256
    # 8 atoms and one closure per other non-empty member; skipping only
    # the joins a <= s costs 8 + 1024
    assert calls == 8 + 247


def fresh_report(argv, hash_seed="0"):
    """Exit code and report bytes of a CLI run in a new interpreter."""
    src = str(Path(topogrpd.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "topogrpd.cli", *argv], env=env,
                          capture_output=True)
    return done.returncode, done.stdout


def test_subobjects_report_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    g = tmp_path / "g.json"
    g.write_text(json.dumps(discrete_space_groupoid_doc(5)))
    sub = tmp_path / "sub.json"
    sub.write_text(json.dumps({"arrows": [str(i) for i in range(5)]}))
    argv = ["subobjects", "--groupoid", str(g), "--sub", str(sub)]
    reports = [fresh_report(argv, seed) for seed in ("1", "2")]
    assert len(json.loads(reports[0][1])["result"]["lattice"]) == 32
    assert reports[0] == reports[1]


@pytest.mark.parametrize("command,arrows", [("logical-topology", "all"),
                                            ("elim-params", "identities")])
def test_model_reports_do_not_depend_on_the_hash_seed(tmp_path, command, arrows):
    models = tmp_path / "models.json"
    doc = graph_copies_doc(rigid_graphs(3)[0], 3, ["M0", "M1", "M2"], arrows)
    models.write_text(json.dumps(doc))
    argv = [command, "--models", str(models), "--depth", "2"]
    reports = [fresh_report(argv, seed) for seed in ("1", "2")]
    assert "error" not in json.loads(reports[0][1])["result"]
    assert reports[0] == reports[1]


def test_consecutive_runs_in_one_process_match_fresh_runs(tmp_path, capsys):
    """The parser is built once per process; a call leaves no option or
    default behind for the next one."""
    models = tmp_path / "models.json"
    models.write_text(json.dumps(MG_DOC))
    g = tmp_path / "g.json"
    g.write_text(json.dumps(discrete_space_groupoid_doc(3)))
    sub = tmp_path / "sub.json"
    sub.write_text(json.dumps({"arrows": ["0"]}))
    runs = [
        ["elim-params", "--models", str(models), "--depth", "2", "--tuple-cap", "1"],
        ["weq-check", "--groupoid", str(g), "--sub", str(sub), "--mode", "quasi-homeo"],
        ["logical-topology", "--models", str(models)],
        ["subobjects", "--groupoid", str(g), "--sub", str(sub)],
    ]
    for argv in runs:
        code = cli.run(argv)
        assert (code, capsys.readouterr().out.encode()) == fresh_report(argv)


def decoded_level(eng, ctx_sorts, depth):
    """level() as a list of (frozenset extension, formula), or where a
    budget stopped it: the error and the levels completed by then."""
    try:
        if isinstance(eng, oracles.DefinableSetsOracle):
            return list(eng.level(ctx_sorts, depth).items())
        pairs = list(eng.index(ctx_sorts))
        return [
            (frozenset(p for bit, p in enumerate(pairs) if ext >> bit & 1), ast)
            for ext, ast in eng.level(ctx_sorts, depth).items()
        ]
    except CapExceeded as e:
        return str(e), sorted(eng._levels)


def model_families():
    """(signature, member models, tuple-cap-2 contexts): corpus model
    groupoids, rigid-graph copies as the CLI reads them (alone, merged
    with renamed copies as a Morita search does, and merged with
    themselves, so that same-named members share bits), and a two-sorted
    family with a constant."""
    rng = random.Random(SEED)
    groupoids = [random_model_groupoid(rng) for _ in range(60)]
    for edges in random.Random(SEED).sample(rigid_graphs(3), 3):
        for k in (2, 3, 4):
            for arrows in ("identities", "all"):
                groupoids.append(jsonio.model_groupoid_from_json(
                    graph_copies_doc(edges, 3, [f"M{i}" for i in range(k)], arrows)))
    out = []
    for g in groupoids:
        models = [im.model for im in g.members]
        contexts = sorted({tuple(g.params[p] for p in pt) for pt in g.param_tuples(2)})
        out.append((g.signature, models, contexts))
        if g.arrows == frozenset(logic.identity_iso(m) for m in models):
            renamed = [logic.FinModel(f"N{m.name}", m.signature, m.carriers, m.relations)
                       for m in models]
            out += [(g.signature, models + renamed, [()]), (g.signature, models + models, [()])]
    sig = logic.make_signature(["A", "B"], {"R": ("A", "B")}, {"c": "A"})
    two_sorted = [
        logic.FinModel("K", sig, {"A": [0, 1], "B": ["b"]}, {"R": [(0, "b")]}, {"c": 1}),
        logic.FinModel("L", sig, {"A": [0], "B": ["b", "d"]}, {"R": [(0, "d")]}, {"c": 0}),
    ]
    out.append((sig, two_sorted, [(), ("A",), ("B",), ("A", "B"), ("B", "A")]))
    return out


def test_definable_levels_match_the_frozenset_reference():
    """Every level of every family at depths 0-2: the decoded keys, the
    formulas and their order, and with a small budget the point where
    CapExceeded is raised."""
    levels = capped = 0
    for sig, models, contexts in model_families():
        for budget in (logic.DEFAULT_FORMULA_BUDGET, 24, 8):
            eng = logic.DefinableSets(sig, models, budget)
            ref = oracles.DefinableSetsOracle(sig, models, budget)
            for ctx_sorts in contexts:
                for depth in range(3):
                    got = decoded_level(eng, ctx_sorts, depth)
                    assert got == decoded_level(ref, ctx_sorts, depth)
                    levels += isinstance(got, list) and len(got) > 4
                    capped += isinstance(got, tuple)
    assert levels > 300 and capped > 150


def test_closure_matches_naive_fixpoint(corpus):
    rng = random.Random(43)
    grown = 0
    for g in corpus:
        arrows = fintop.sorted_points(g.arrows.points)
        seeds = [{a} for a in arrows] + [g.arrows.min_open(a) for a in arrows]
        seeds += [{a for a in arrows if rng.random() < 0.3} for _ in range(5)]
        for s in seeds:
            closed = grpd.subgroupoid_closure(g, s)
            assert closed == oracles.subgroupoid_closure_oracle(g, s)
            grown += closed != frozenset(s)
    assert grown > 1000
