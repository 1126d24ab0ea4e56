"""One command reads each model-groupoid document once, and the model
groupoids on one member family share its definable-set work.

The counting guards wrap the constructors, the derived groupoids that
`logical_topologies` builds and the isomorphism searches for one CLI
command of the benchmark's shapes; the property checks that a
derivation through a shared family, extended depth by depth, equals a
cold one on a fresh copy.
"""

import copy
import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import graph_copies_doc, ore_cospans, random_model_groupoid, rigid_graphs
from topogrpd import cli, jsonio, logic
from topogrpd.errors import CapExceeded, InputError
from topogrpd.logic import ModelGroupoid

# the rigid graph {v0->v0, v0->v1, v1->v2}
RIGID = [["v0", "v0"], ["v0", "v1"], ["v1", "v2"]]


def counting(monkeypatch):
    """Counts of model groupoids (checked or built complete from their
    isomorphism classes), definable-set engines, derived groupoids (the
    `TopGroupoid`s that `logical_topologies` builds, one per distinct
    depth of a chain) and isomorphism searches (`all_isos_between_members`
    alone, and every class enumeration), from wrappers that monkeypatch
    removes."""
    counts = Counter()

    def count(owner, name, key):
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(logic.ModelGroupoid, "__init__", "groupoids")
    count(logic.ModelGroupoid, "complete", "groupoids")
    count(logic.DefinableSets, "__init__", "engines")
    count(logic, "TopGroupoid", "derived groupoids")
    count(logic, "all_isos_between_members", "isos")
    count(logic, "_iso_classes", "classes")
    return counts


def write(tmp_path, name, doc):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_one_compose_builds_each_groupoid_and_member_family_once(tmp_path, monkeypatch):
    """The two cospans name 4 groupoids (the plain copies M0, M1 three
    times, their completion, and the renamed copies N0, N1 twice) on 2
    member families, and the Ore square adds the merged apex: 4
    groupoids, 3 engines and 4 derived groupoids.  A second command counts
    the same again, so nothing outlived the first."""
    assert RIGID in rigid_graphs(3)
    first, second = ore_cospans(RIGID, 3, 2)
    argv = ["compose", "--first", write(tmp_path, "first", first),
            "--second", write(tmp_path, "second", second), "--output", str(tmp_path / "out.json")]
    counts = counting(monkeypatch)
    for _ in range(2):
        counts.clear()
        assert cli.run(argv) == 0
        assert (counts["groupoids"], counts["engines"], counts["derived groupoids"]) == (4, 3, 4)
    apex = json.loads((tmp_path / "out.json").read_text())["result"]["cospan"]["apex"]
    assert (len(apex["models"]), len(apex["arrows"])) == (4, 16)


def test_one_etale_complete_builds_two_groupoids(tmp_path, monkeypatch):
    """The input and its completion, which is built from the isomorphism
    classes, enumerated once."""
    doc = graph_copies_doc(RIGID, 3, ["M0", "M1", "M2"], "identities")
    argv = ["etale-complete", "--models", write(tmp_path, "plain", doc),
            "--output", str(tmp_path / "out.json")]
    counts = counting(monkeypatch)
    assert cli.run(argv) == 0
    assert (counts["groupoids"], counts["isos"], counts["classes"]) == (2, 0, 1)
    result = json.loads((tmp_path / "out.json").read_text())["result"]
    assert result["added_arrows"] == 6


def test_the_read_memo_shares_equal_documents_and_member_families():
    doc = graph_copies_doc(RIGID, 3, ["M0", "M1"], "identities")
    full = dict(doc, arrows="all")
    memo = []
    g = jsonio.model_groupoid_from_json(doc, memo)
    assert jsonio.model_groupoid_from_json(copy.deepcopy(doc), memo) is g
    h = jsonio.model_groupoid_from_json(full, memo)
    assert h is not g and h.family is g.family and len(h.arrows) == 4
    other = graph_copies_doc(RIGID, 3, ["N0", "N1"], "identities")
    assert jsonio.model_groupoid_from_json(other, memo).family is not g.family
    # without a memo every read is a new groupoid on a new family
    assert jsonio.model_groupoid_from_json(doc).family is not jsonio.model_groupoid_from_json(doc).family
    # the etale completion shares the family, and is built once
    assert logic.etale_completion(g).family is g.family
    assert logic.etale_completion(g) is logic.etale_completion(g)


@pytest.mark.parametrize("raw", [True, 1.0])
def test_the_read_memo_tells_1_from_true_and_1_0(raw):
    """`==` equates them, but the second document is an input error."""
    doc = {"signature": {"sorts": ["S"]}, "params": {"p": "S"},
           "models": [{"name": "M", "carriers": {"S": [1]}, "indexing": {"p": 1}}], "arrows": "all"}
    memo = []
    jsonio.model_groupoid_from_json(doc, memo)
    odd = copy.deepcopy(doc)
    odd["models"][0]["carriers"]["S"] = [raw]
    assert odd == doc
    with pytest.raises(InputError, match="is not a string or an integer"):
        jsonio.model_groupoid_from_json(odd, memo)


def spaces(call, *args):
    """(objects, arrows, achieved depth, stabilized) of a derivation, or
    the text of the CapExceeded it raises."""
    try:
        d = call(*args)
    except CapExceeded as e:
        return str(e)
    return d.objects, d.arrows, d.depth, d.stabilized


def test_derivations_through_a_shared_family_equal_cold_ones():
    """On random model groupoids and their etale completions (the same
    family, other arrows), each derivation of a random sequence of
    (depth 0-3, tuple cap 0-2) pairs equals `logical_topologies` on a
    fresh copy, with its own family."""
    held = Counter()

    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1),
           steps=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2)), min_size=2, max_size=6))
    def prop(seed, steps):
        g = random_model_groupoid(random.Random(seed))
        groupoids = (g, logic.etale_completion(g))
        deepest = {}
        for depth, cap in steps:
            for i, h in enumerate(groupoids):
                cold = spaces(logic.logical_topologies,
                              ModelGroupoid(h.signature, h.params, h.members, h.arrows), depth, cap)
                assert spaces(h.derive, depth, cap) == cold
                if isinstance(cold, str):
                    held["cap exceeded"] += 1
                    continue
                if cold[2] > 0:
                    held["past depth 0"] += 1
                    held["after a smaller depth"] += deepest.get((i, cap), -1) in range(depth)
                    held["other arrows"] += h.arrows != g.arrows
                deepest[(i, cap)] = max(deepest.get((i, cap), -1), depth)

    prop()
    print(dict(held))
    assert held["past depth 0"] > 200 and held["after a smaller depth"] > 20
    assert held["other arrows"] > 100
