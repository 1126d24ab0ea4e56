import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_grpd import LOOP5_ROWS
from topogrpd import cli, grpd, jsonio

ISO_PAIR_DOC = {
    "objects": {"points": ["a", "b"], "opens": [[], ["a"], ["b"], ["a", "b"]]},
    "arrows": {
        "points": ["ia", "ib", "f", "g"],
        "opens": [
            [], ["ia"], ["ib"], ["f"], ["g"], ["ia", "ib"], ["ia", "f"],
            ["ia", "g"], ["ib", "f"], ["ib", "g"], ["f", "g"],
            ["ia", "ib", "f"], ["ia", "ib", "g"], ["ia", "f", "g"],
            ["ib", "f", "g"], ["ia", "ib", "f", "g"],
        ],
    },
    "src": {"map": {"ia": "a", "ib": "b", "f": "a", "g": "b"}},
    "tgt": {"map": {"ia": "a", "ib": "b", "f": "b", "g": "a"}},
    "unit": {"map": {"a": "ia", "b": "ib"}},
    "inv": {"map": {"ia": "ia", "ib": "ib", "f": "g", "g": "f"}},
    "comp": [
        ["ia", "ia", "ia"], ["ib", "ib", "ib"], ["ia", "f", "f"],
        ["f", "ib", "f"], ["ib", "g", "g"], ["g", "ia", "g"],
        ["f", "g", "ia"], ["g", "f", "ib"],
    ],
}

MG_DOC = {
    "signature": {"sorts": ["S"], "relations": {"P": ["S"], "Q": ["S"]}},
    "params": {"p": "S", "q": "S"},
    "models": [
        {
            "name": "M1",
            "carriers": {"S": ["a", "b"]},
            "relations": {"P": [["a"]], "Q": [["b"]]},
            "indexing": {"p": "a", "q": "b"},
        }
    ],
    "arrows": "all",
}


@pytest.fixture
def docs(tmp_path):
    paths = {}
    for name, doc in (
        ("groupoid", ISO_PAIR_DOC),
        ("sub", {"arrows": ["ia"]}),
        ("whole", {"arrows": ["ia", "ib", "f", "g"]}),
        ("models", MG_DOC),
        ("topology", {"points": [0, 1, 2], "subbasis": [[0, 1], [1, 2]]}),
        ("family", {"subgroupoids": [["ia", "ib"]]}),
    ):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(doc))
        paths[name] = str(p)
    return paths


def run(capsys, *argv):
    code = cli.run(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_validate_groupoid(capsys, docs):
    code, rep = run(capsys, "validate", "--groupoid", docs["groupoid"])
    assert code == 0
    assert rep["result"]["answer"] == "yes"
    assert rep["tool_version"]
    assert rep["inputs"][docs["groupoid"]]["sha256"]


def test_weq_check_yes(capsys, docs):
    code, rep = run(capsys, "weq-check", "--groupoid", docs["groupoid"], "--sub", docs["sub"])
    assert code == 0
    assert rep["result"]["verdict"]["family"] == "exhaustive"


def test_weq_check_user_family_unknown(capsys, docs):
    code, rep = run(
        capsys, "weq-check", "--groupoid", docs["groupoid"], "--sub", docs["sub"],
        "--family", docs["family"],
    )
    assert code == 2
    assert rep["result"]["verdict"]["family"] == "user"


def test_surjection_and_inclusion_checks(capsys, docs):
    code, _ = run(capsys, "surjection-check", "--groupoid", docs["groupoid"], "--sub", docs["sub"])
    assert code == 0
    code, _ = run(capsys, "inclusion-check", "--groupoid", docs["groupoid"], "--sub", docs["sub"])
    assert code == 0


def test_malformed_json_exit_3(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{nope")
    code, rep = run(capsys, "validate", "--groupoid", str(p))
    assert code == 3
    assert "line" in rep["result"]["error"]


def test_missing_file_exit_3(capsys):
    code, rep = run(capsys, "validate", "--groupoid", "/nonexistent.json")
    assert code == 3


def test_budget_exit_4(capsys, docs):
    code, rep = run(
        capsys, "weq-check", "--groupoid", docs["groupoid"], "--sub", docs["sub"],
        "--subgroupoid-budget", "2",
    )
    assert code == 4


def test_topology_command(capsys, docs):
    code, rep = run(capsys, "topology", "--input", docs["topology"])
    assert code == 0
    assert ["1"] in rep["result"]["space"]["opens"]


def test_generators_and_subobjects(capsys, docs):
    code, rep = run(capsys, "generators", "--groupoid", docs["groupoid"], "--sub", docs["sub"])
    assert code == 0
    assert rep["result"]["sheaf"]["total"]["points"]
    code, rep = run(capsys, "subobjects", "--groupoid", docs["groupoid"], "--sub", docs["sub"])
    assert code == 0
    assert rep["result"]["lattice"][0] == []


def test_elim_params_and_completion(capsys, docs):
    code, rep = run(capsys, "elim-params", "--models", docs["models"], "--depth", "1")
    assert code == 0
    assert rep["result"]["answer"] == "yes"
    code, rep = run(capsys, "etale-complete", "--models", docs["models"], "--depth", "1")
    assert code == 0
    assert rep["result"]["idempotent"] is True


def test_logical_topology(capsys, docs):
    code, rep = run(capsys, "logical-topology", "--models", docs["models"], "--depth", "1")
    assert code == 0
    assert rep["result"]["groupoid"]["objects"]["points"] == ["M1"]
    assert "achieved_depth" in rep["result"]


def test_morita_search_cli(capsys, docs):
    code, rep = run(
        capsys, "morita-search", "--left", docs["models"], "--right", docs["models"],
        "--depth", "1",
    )
    assert code == 0
    assert rep["result"]["answer"] == "yes"
    assert "witness" in rep["result"]


def test_compose_cli(capsys, tmp_path, docs):
    cospan = {
        "source": MG_DOC,
        "target": MG_DOC,
        "apex": MG_DOC,
        "fwd": {
            "obj_map": {"M1": "M1"},
            "arr_map": [[
                {"src": "M1", "tgt": "M1", "map": {"S": {"a": "a", "b": "b"}}},
                {"src": "M1", "tgt": "M1", "map": {"S": {"a": "a", "b": "b"}}},
            ]],
        },
    }
    p = tmp_path / "cospan.json"
    p.write_text(json.dumps(cospan))
    code, rep = run(capsys, "compose", "--first", str(p), "--second", str(p), "--depth", "1")
    assert code == 0
    assert rep["result"]["cospan"]["certificate"]["answer"] == "yes"


def test_reports_are_byte_identical(docs, tmp_path, capsys):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    for out in (out1, out2):
        cli.run([
            "weq-check", "--groupoid", docs["groupoid"], "--sub", docs["sub"],
            "--output", str(out),
        ])
    assert out1.read_bytes() == out2.read_bytes()


def test_determinism_across_commands(capsys, docs):
    code1, rep1 = run(capsys, "generators", "--groupoid", docs["groupoid"])
    code2, rep2 = run(capsys, "generators", "--groupoid", docs["groupoid"])
    assert rep1 == rep2


def discrete_space_groupoid_doc(n):
    """The n-point discrete space as a groupoid with identity arrows only."""
    points = [str(i) for i in range(n)]
    space = {
        "points": points,
        "opens": [[p for i, p in enumerate(points) if m >> i & 1] for m in range(2 ** n)],
    }
    ident = {"map": {p: p for p in points}}
    return {
        "objects": space, "arrows": space, "src": ident, "tgt": ident, "unit": ident,
        "inv": ident, "comp": [[p, p, p] for p in points],
    }


@pytest.mark.parametrize(
    "command,uncapped",
    [("weq-check", 1), ("surjection-check", 1), ("inclusion-check", 0)],
)
def test_open_cap_reaches_check_commands(capsys, tmp_path, command, uncapped):
    g = tmp_path / "g.json"
    g.write_text(json.dumps(discrete_space_groupoid_doc(3)))
    sub = tmp_path / "sub.json"
    sub.write_text(json.dumps({"arrows": ["0"]}))
    code, rep = run(capsys, command, "--groupoid", str(g), "--sub", str(sub))
    assert code == uncapped
    code, rep = run(capsys, command, "--groupoid", str(g), "--sub", str(sub), "--open-cap", "1")
    assert code == 4
    assert "exceeds cap 1" in rep["result"]["error"]
    code, rep = run(capsys, "subobjects", "--groupoid", str(g), "--sub", str(sub), "--open-cap", "1")
    assert code == 4


def test_open_cap_reaches_factorize(capsys, tmp_path):
    g = discrete_space_groupoid_doc(3)
    ident = {p: p for p in g["objects"]["points"]}
    p = tmp_path / "functor.json"
    p.write_text(json.dumps({"dom": g, "cod": g, "obj_map": ident, "arr_map": ident}))
    code, rep = run(capsys, "factorize", "--functor", str(p))
    assert code == 0
    code, rep = run(capsys, "factorize", "--functor", str(p), "--open-cap", "1")
    assert code == 4
    assert "exceeds cap 1" in rep["result"]["error"]


@pytest.mark.parametrize("bad", [0.5, True, None, [1], {"x": 1}])
def test_point_ids_other_than_strings_and_integers_exit_3(capsys, tmp_path, bad):
    p = tmp_path / "space.json"
    p.write_text(json.dumps({"points": [bad, 1], "opens": [[], [bad, 1]]}))
    code, rep = run(capsys, "validate", "--space", str(p))
    assert code == 3
    assert "not a string or an integer" in rep["result"]["error"]


@pytest.mark.parametrize(
    "command", ["weq-check", "surjection-check", "inclusion-check", "generators", "subobjects"]
)
def test_check_on_groupoid_with_missing_comp_exits_3(capsys, tmp_path, command):
    doc = discrete_space_groupoid_doc(3)
    doc["comp"] = doc["comp"][:2]
    g = tmp_path / "g.json"
    g.write_text(json.dumps(doc))
    sub = tmp_path / "sub.json"
    sub.write_text(json.dumps({"arrows": ["2"]}))
    sub_args = [] if command == "generators" else ["--sub", str(sub)]
    code, rep = run(capsys, command, "--groupoid", str(g), *sub_args)
    assert code == 3
    assert rep["result"]["error"] == (
        "not an open topological groupoid: comp not total, missing pair (2,2)"
    )


MALFORMED_GROUPOIDS = {
    "src-list": lambda d: dict(d, src=d["objects"]["points"]),
    "inv-map-list": lambda d: dict(d, inv={"map": d["arrows"]["points"]}),
    "comp-entry-int": lambda d: dict(d, comp=[5] + d["comp"]),
    "comp-entry-string": lambda d: dict(d, comp=["012"] + d["comp"]),
    "comp-object": lambda d: dict(d, comp={"0": ["0", "0", "0"]}),
    "document-list": lambda d: [d],
}


@pytest.mark.parametrize("command", ["generators", "subobjects", "weq-check", "validate"])
@pytest.mark.parametrize("shape", list(MALFORMED_GROUPOIDS))
def test_malformed_groupoid_shape_exits_3(capsys, tmp_path, command, shape):
    g = tmp_path / "g.json"
    g.write_text(json.dumps(MALFORMED_GROUPOIDS[shape](discrete_space_groupoid_doc(3))))
    sub = tmp_path / "sub.json"
    sub.write_text(json.dumps({"arrows": ["0"]}))
    sub_args = ["--sub", str(sub)] if command in ("subobjects", "weq-check") else []
    code, rep = run(capsys, command, "--groupoid", str(g), *sub_args)
    assert code == 3
    assert rep["result"]["error"]


@pytest.mark.parametrize("argv,message", [
    ([], "the following arguments are required: command"),
    (["weq-check"], "the following arguments are required: --groupoid, --sub"),
    (["logical-topology", "--models", "m.json", "--depth", "x"], "invalid int value: 'x'"),
    (["nosuch"], "invalid choice: 'nosuch'"),
    (["weq-check", "--groupoid", "g.json", "--sub", "s.json", "--mode", "fast"],
     "invalid choice: 'fast'"),
], ids=["no-command", "missing-required", "bad-int", "unknown-command", "bad-choice"])
def test_bad_command_line_is_an_error_report_with_exit_3(capsys, argv, message):
    code, rep = run(capsys, *argv)
    assert code == 3
    assert message in rep["result"]["error"]
    assert rep["command"] is None and rep["inputs"] == {}


@pytest.mark.parametrize("argv", [["--help"], ["weq-check", "--help"]])
def test_help_still_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as done:
        cli.run(argv)
    assert done.value.code == 0
    assert "usage: topogrpd" in capsys.readouterr().out


@pytest.mark.parametrize("shape", ["obj_map-list", "arr_map-list", "document-list"])
def test_functor_maps_that_are_not_objects_exit_3(capsys, tmp_path, shape):
    g = discrete_space_groupoid_doc(2)
    ident = {p: p for p in g["objects"]["points"]}
    doc = {"dom": g, "cod": g, "obj_map": ident, "arr_map": ident}
    if shape == "document-list":
        doc = [doc]
    else:
        doc[shape[:-5]] = list(ident)
    p = tmp_path / "functor.json"
    p.write_text(json.dumps(doc))
    code, rep = run(capsys, "factorize", "--functor", str(p))
    assert code == 3
    assert "must be an object" in rep["result"]["error"]


@pytest.mark.parametrize("side", ["dom", "cod"])
def test_functor_between_groupoids_with_missing_comp_exits_3(capsys, tmp_path, side):
    g = discrete_space_groupoid_doc(2)
    ident = {p: p for p in g["objects"]["points"]}
    doc = {"dom": g, "cod": g, "obj_map": ident, "arr_map": ident}
    doc[side] = dict(g, comp=[])
    p = tmp_path / "functor.json"
    p.write_text(json.dumps(doc))
    code, rep = run(capsys, "factorize", "--functor", str(p))
    assert (code, rep["result"]["error"]) == (
        3, "not a continuous functor: comp not preserved at (0,0); comp not preserved at (1,1)"
    )


def test_point_sets_must_be_lists(capsys, tmp_path):
    """A string of point ids is not read as a set of one-character ids."""
    g = tmp_path / "g.json"
    g.write_text(json.dumps(discrete_space_groupoid_doc(2)))
    sub = tmp_path / "sub.json"
    sub.write_text(json.dumps({"arrows": "01"}))
    code, rep = run(capsys, "subobjects", "--groupoid", str(g), "--sub", str(sub))
    assert (code, rep["result"]["error"]) == (3, "arrows must be a list of point ids")
    for subbasis in ([["0"], "01"], "01", 5):
        t = tmp_path / "topology.json"
        t.write_text(json.dumps({"points": ["0", "1"], "subbasis": subbasis}))
        code, rep = run(capsys, "topology", "--input", str(t))
        assert code == 3 and "subbasis must be a list of" in rep["result"]["error"]
    s = tmp_path / "space.json"
    s.write_text(json.dumps({"points": ["0", "1"], "opens": [[], "01", ["0", "1"]]}))
    code, rep = run(capsys, "validate", "--space", str(s))
    assert (code, rep["result"]["error"]) == (3, "each of opens must be a list of point ids")


ISO_MG_DOC = dict(MG_DOC, arrows=[{"src": "M1", "tgt": "M1", "map": {"S": {"a": "a", "b": "b"}}}])


def _model(doc, **changes):
    return dict(doc, models=[dict(doc["models"][0], **changes)])


MALFORMED_MODEL_GROUPOIDS = {
    "params-list-of-non-pairs": lambda d: dict(d, params=["p", "q"]),
    "param-of-undeclared-sort": lambda d: dict(d, params={"p": "S", "q": "T"}),
    "indexing-undeclared-param": lambda d: _model(d, indexing={"p": "a", "q": "b", "r": "a"}),
    "indexing-list": lambda d: _model(d, indexing=["a", "b"]),
    "carriers-list": lambda d: _model(d, carriers=["a", "b"]),
    "arity-not-a-list": lambda d: dict(d, signature={"sorts": ["S"], "relations": {"P": 5, "Q": ["S"]}}),
    "relation-row-int": lambda d: _model(d, relations={"P": [5], "Q": [["b"]]}),
    "constants-list": lambda d: _model(d, constants=["c"]),
    "name-list": lambda d: _model(d, name=["M1"]),
    "arrows-int": lambda d: dict(d, arrows=5),
    "iso-map-list": lambda d: dict(d, arrows=[dict(d["arrows"][0], map=["a", "b"])]),
    "iso-sort-map-list": lambda d: dict(d, arrows=[dict(d["arrows"][0], map={"S": ["a", "b"]})]),
}


@pytest.mark.parametrize("shape", list(MALFORMED_MODEL_GROUPOIDS))
def test_malformed_model_groupoid_shape_exits_3(capsys, tmp_path, shape):
    p = tmp_path / "models.json"
    p.write_text(json.dumps(MALFORMED_MODEL_GROUPOIDS[shape](ISO_MG_DOC)))
    code, rep = run(capsys, "elim-params", "--models", str(p))
    assert code == 3
    assert rep["result"]["error"]


def test_topology_input_that_is_not_an_object_exits_3(capsys, tmp_path):
    p = tmp_path / "topology.json"
    p.write_text("5")
    code, rep = run(capsys, "topology", "--input", str(p))
    assert (code, rep["result"]["error"]) == (3, "topology input must be an object")


SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_under_hash_seed(seed, *argv):
    """(exit code, report bytes) of a CLI run in a fresh interpreter."""
    env = dict(os.environ, PYTHONHASHSEED=str(seed),
               PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-m", "topogrpd.cli", *argv],
                          env=env, capture_output=True, timeout=120)
    return done.returncode, done.stdout


def members_on_ab(*names):
    """Model-groupoid document without arrows: members on the carrier {a, b}."""
    return {
        "signature": {"sorts": ["V"], "relations": {}},
        "params": {"p": "V", "q": "V"},
        "models": [{"name": n, "carriers": {"V": ["a", "b"]}, "relations": {},
                    "indexing": {"p": "a", "q": "b"}} for n in names],
    }


def iso_doc(src, tgt, assign):
    return {"src": src, "tgt": tgt, "map": {"V": assign}}


IDENTITY_MAP = {"a": "a", "b": "b"}


@pytest.mark.parametrize("assign", [{"a": "a"}, {"a": "a", "b": "a"}],
                         ids=["partial", "two-elements-one-image"])
def test_an_iso_map_that_is_not_a_bijection_exits_3_under_every_hash_seed(tmp_path, assign):
    """Arrows are checked before any is composed, so a map that is not a
    bijection never reaches composition, whatever the set order."""
    doc = dict(members_on_ab("M1", "M2"), arrows=[
        iso_doc("M1", "M1", IDENTITY_MAP), iso_doc("M2", "M2", IDENTITY_MAP),
        iso_doc("M1", "M2", assign), iso_doc("M2", "M1", assign),
    ])
    p = tmp_path / "models.json"
    p.write_text(json.dumps(doc))
    runs = [run_under_hash_seed(seed, "elim-params", "--models", str(p)) for seed in (0, 1)]
    assert runs[0] == runs[1]
    code, out = runs[0]
    assert code == 3
    assert json.loads(out)["result"]["error"] == (
        "arrow M1->M2 map not a bijection of the carriers; "
        "arrow M2->M1 map not a bijection of the carriers"
    )


def test_model_groupoid_violations_are_reported_in_canonical_order(tmp_path):
    doc = dict(members_on_ab("M1", "M2", "M3"), arrows=[
        *(iso_doc(n, n, IDENTITY_MAP) for n in ("M1", "M2", "M3")),
        iso_doc("M1", "M2", IDENTITY_MAP), iso_doc("M1", "M3", IDENTITY_MAP),
    ])
    p = tmp_path / "models.json"
    p.write_text(json.dumps(doc))
    runs = [run_under_hash_seed(seed, "elim-params", "--models", str(p)) for seed in (1, 3)]
    assert runs[0] == runs[1]
    code, out = runs[0]
    assert code == 3
    assert json.loads(out)["result"]["error"] == (
        "arrows not closed under inverse at M1->M2; "
        "arrows not closed under inverse at M1->M3"
    )


def one_object_groupoid_file(tmp_path, rows):
    """A one-object groupoid on the arrows "0".."n-1" with g o f = rows[g][f]
    and the discrete arrow space, written as a JSON file."""
    els = [str(i) for i in range(len(rows))]
    mult = {(g, f): str(rows[int(g)][int(f)]) for g in els for f in els}
    p = tmp_path / "groupoid.json"
    p.write_text(json.dumps(jsonio.groupoid_to_json(grpd.group_groupoid(els, mult))))
    return str(p)


def test_a_sub_not_closed_under_comp_is_reported_in_canonical_order(tmp_path):
    groupoid = one_object_groupoid_file(tmp_path, [[(g + f) % 5 for f in range(5)] for g in range(5)])
    sub = tmp_path / "sub.json"
    sub.write_text(json.dumps({"arrows": ["1", "2"]}))
    runs = [run_under_hash_seed(seed, "weq-check", "--groupoid", groupoid, "--sub", str(sub))
            for seed in (1, 2)]
    assert runs[0] == runs[1]
    code, out = runs[0]
    assert code == 3
    assert json.loads(out)["result"]["error"] == (
        "not a subgroupoid: not closed under inv at 1; not closed under inv at 2; "
        "not closed under comp at (1,2); not closed under comp at (2,1); "
        "not closed under comp at (2,2)"
    )


def test_validate_names_the_least_non_associative_triple(tmp_path):
    groupoid = one_object_groupoid_file(tmp_path, LOOP5_ROWS)
    runs = [run_under_hash_seed(seed, "validate", "--groupoid", groupoid) for seed in (1, 2)]
    assert runs[0] == runs[1]
    code, out = runs[0]
    assert code == 1
    assert json.loads(out)["result"]["diagnostics"] == ["comp not associative at (1,1,2)"]
