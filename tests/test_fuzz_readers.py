"""Fuzz the JSON readers: a valid document with one subtree replaced by
arbitrary JSON must end in a report and an exit code, never a traceback.
Isomorphism maps are mutated on their own too, as arbitrary JSON almost
never yields a well-formed map that is not a bijection."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_cli import (
    IDENTITY_MAP, ISO_MG_DOC, ISO_PAIR_DOC, discrete_space_groupoid_doc, iso_doc, members_on_ab,
)
from topogrpd import cli

GROUPOID = discrete_space_groupoid_doc(2)
IDENT = {p: p for p in GROUPOID["objects"]["points"]}

# name -> (document, command line reading it from the path {doc}, other files)
DOCUMENTS = {
    "groupoid": (ISO_PAIR_DOC, ["weq-check", "--groupoid", "{doc}", "--sub", "{sub}"]),
    "model-groupoid": (ISO_MG_DOC, ["elim-params", "--models", "{doc}"]),
    "functor": ({"dom": GROUPOID, "cod": GROUPOID, "obj_map": IDENT, "arr_map": IDENT},
                ["factorize", "--functor", "{doc}"]),
    "topology": ({"points": [0, 1, 2], "subbasis": [[0, 1], [1, 2]]},
                 ["topology", "--input", "{doc}"]),
}

# leaves lean towards names the documents use, so that mutants get past the first check
LEAVES = (st.none() | st.booleans() | st.integers(-2, 3) | st.floats(allow_nan=False)
          | st.sampled_from(["a", "b", "f", "ia", "0", "1", "S", "M1", "p", "all", "map"])
          | st.text(max_size=2))
JSON = st.recursive(LEAVES, lambda inner: st.lists(inner, max_size=3)
                    | st.dictionaries(st.text(max_size=2) | st.sampled_from(["a", "S", "map"]),
                                      inner, max_size=3),
                    max_leaves=8)


def paths(doc, at=()):
    """Every subtree position of a JSON document, the root included."""
    yield at
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from paths(value, at + (key,))


def replaced(doc, at, value):
    if not at:
        return value
    copy = dict(doc) if isinstance(doc, dict) else list(doc)
    copy[at[0]] = replaced(doc[at[0]], at[1:], value)
    return copy


@pytest.mark.parametrize("kind", list(DOCUMENTS))
def test_a_mutated_document_ends_in_a_report(tmp_path_factory, kind):
    base, argv = DOCUMENTS[kind]
    folder = tmp_path_factory.mktemp(kind)
    sub = folder / "sub.json"
    sub.write_text(json.dumps({"arrows": ["ia"]}))
    doc = folder / "doc.json"

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(at=st.sampled_from(list(paths(base))), value=JSON)
    def mutant_is_reported(at, value):
        doc.write_text(json.dumps(replaced(base, at, value)))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.run([a.format(doc=doc, sub=sub) for a in argv])
        assert code in range(6)
        report = json.loads(out.getvalue())
        assert report["command"] == argv[0]

    mutant_is_reported()


# two members on {a, b}, joined both ways by the identity map
TWO_MEMBERS = dict(members_on_ab("M1", "M2"), arrows=[
    iso_doc(s, t, IDENTITY_MAP) for s in ("M1", "M2") for t in ("M1", "M2")
])


def iso_map_mutants(doc):
    """Each arrow's map with one entry dropped, or with one element sent
    to the image of another: never a bijection."""
    for i, arrow in enumerate(doc["arrows"]):
        for sort, assign in arrow["map"].items():
            for x in assign:
                changes = [{k: v for k, v in assign.items() if k != x}]
                changes += [dict(assign, **{x: assign[y]}) for y in assign if y != x]
                for new in changes:
                    arrows = list(doc["arrows"])
                    arrows[i] = dict(arrow, map=dict(arrow["map"], **{sort: new}))
                    yield dict(doc, arrows=arrows)


def test_an_iso_map_that_is_not_a_bijection_is_reported(tmp_path):
    doc = tmp_path / "doc.json"
    mutants = list(iso_map_mutants(TWO_MEMBERS))
    assert len(mutants) == 4 * 2 * 2
    for mutant in mutants:
        doc.write_text(json.dumps(mutant))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.run(["elim-params", "--models", str(doc)])
        assert code == 3
        assert "map not a bijection of the carriers" in json.loads(out.getvalue())["result"]["error"]
