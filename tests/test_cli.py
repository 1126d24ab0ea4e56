import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from corpus import (
    SMALL_GROUPS, group_groupoid, random_model_groupoid, space_pair_groupoid, t0_spaces_up_to,
)
from test_grpd import LOOP5_ROWS
from topogrpd import cli, grpd, jsonio
from topogrpd.errors import InputError
from topogrpd.fintop import FinSpace, fmt_point

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


def cospan_doc():
    ident = {"src": "M1", "tgt": "M1", "map": {"S": {"a": "a", "b": "b"}}}
    return {"source": MG_DOC, "target": MG_DOC, "apex": MG_DOC,
            "fwd": {"obj_map": {"M1": "M1"}, "arr_map": [[ident, ident]]}}


def functor_doc(n=2):
    """The identity functor of the n-point discrete space groupoid."""
    g = discrete_space_groupoid_doc(n)
    ident = {p: p for p in g["objects"]["points"]}
    return {"dom": g, "cod": g, "obj_map": ident, "arr_map": ident}


# the fixture document each input flag of a command reads
INPUT_DOCS = {"space": "space", "groupoid": "groupoid", "sub": "sub",
              "models": "models", "input": "topology", "functor": "functor",
              "first": "cospan", "second": "cospan", "left": "models", "right": "models"}


@pytest.fixture
def docs(tmp_path):
    paths = {}
    for name, doc in (
        ("space", {"points": ["a"], "opens": [[], ["a"]]}),
        ("groupoid", ISO_PAIR_DOC),
        ("sub", {"arrows": ["ia"]}),
        ("whole", {"arrows": ["ia", "ib", "f", "g"]}),
        ("models", MG_DOC),
        ("topology", {"points": [0, 1, 2], "subbasis": [[0, 1], [1, 2]]}),
        ("family", {"subgroupoids": [["ia", "ib"]]}),
        ("functor", functor_doc()),
        ("cospan", cospan_doc()),
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
    assert rep["result"]["verdict"]["family"] == "atoms"
    # the atoms {ia}, {ib} and the whole groupoid, not the 5 open subgroupoids
    assert rep["result"]["verdict"]["details"] == {"members": 3}


@pytest.mark.parametrize("command", ["weq-check", "surjection-check", "inclusion-check"])
def test_a_family_file_is_a_bad_command_line(capsys, docs, command):
    """The verdicts quantify over the atoms only; a family flag is not read."""
    code, rep = run(capsys, command, "--groupoid", docs["groupoid"], "--sub", docs["sub"],
                    "--family", docs["family"])
    assert code == 3
    assert "unrecognized arguments: --family" in rep["result"]["error"]


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
    """The open-family cap bounds the open subgroupoids `generators` lists:
    the input has 5, so a cap of 4 is exceeded and 5 is not."""
    listing = ("generators", "--groupoid", docs["groupoid"])
    code, rep = run(capsys, *listing, "--open-cap", "4")
    assert code == 4
    assert "subgroupoid family exceeds cap 4" in rep["result"]["error"]
    code, rep = run(capsys, *listing, "--open-cap", "5")
    assert code == 0
    assert len(rep["result"]["generators"]) == 5


@pytest.mark.parametrize("command", ["generators", "compose", "morita-search"])
def test_the_subgroupoid_budget_flag_is_a_bad_command_line(capsys, docs, command):
    """No command takes a subgroupoid budget: the only limit on a listed
    family is --open-cap, and the merged apex of compose and
    morita-search is polynomial in its arrows once they are listed."""
    argv = [command]
    for flag in cli._TABLE[command][1].replace("?", "").split():
        argv += [f"--{flag}", docs[INPUT_DOCS[flag]]]
    code, rep = run(capsys, *argv, "--subgroupoid-budget", "4096")
    assert code == 3
    assert "unrecognized arguments: --subgroupoid-budget 4096" in rep["result"]["error"]


@pytest.mark.parametrize("command", ["weq-check", "surjection-check", "inclusion-check"])
def test_a_subgroupoid_that_is_not_an_open_groupoid_exits_3(capsys, tmp_path, command):
    """The pair groupoid of the 2-point space with minimal opens {0, 1}
    and {1}, vertex group Z2: this subgroupoid's own source map is not
    open, which is outside the scope where the routes provably agree."""
    space = FinSpace([0, 1], {0: frozenset({0, 1}), 1: frozenset({1})})
    g, sub = tmp_path / "g.json", tmp_path / "sub.json"
    g.write_text(json.dumps(jsonio.groupoid_to_json(space_pair_groupoid(space, SMALL_GROUPS["Z2"]))))
    sub.write_text(json.dumps({"arrows": ["(0,0,0)", "(0,1,1)", "(1,0,1)", "(1,1,0)"]}))
    code, rep = run(capsys, command, "--groupoid", str(g), "--sub", str(sub))
    assert code == 3
    assert rep["result"]["error"].startswith("subgroupoid is not an open groupoid")
    assert "proven to coincide on open T0 groupoids" in rep["result"]["error"]


def test_topology_command(capsys, docs):
    code, rep = run(capsys, "topology", "--input", docs["topology"])
    assert code == 0
    assert ["1"] in rep["result"]["opens"]


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
    assert set(rep["result"]) == {"completion", "added_arrows", "input_complete"}


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


def test_compose_cli(capsys, docs):
    code, rep = run(capsys, "compose", "--first", docs["cospan"], "--second", docs["cospan"],
                    "--depth", "1")
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
    # the file holds what stdout would, and stdout gets nothing
    code, rep = run(capsys, "weq-check", "--groupoid", docs["groupoid"], "--sub", docs["sub"])
    assert json.loads(out1.read_text()) == rep
    cli.run(["weq-check", "--groupoid", docs["groupoid"], "--sub", docs["sub"], "--output", str(out1)])
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_an_unwritable_output_is_an_input_error(capsys, docs, tmp_path, where):
    """An --output that cannot be written exits 3 with the report on
    stdout, not a traceback with exit 1, which means "no"."""
    out = tmp_path / "missing" / "r.json" if where == "missing-directory" else tmp_path
    code, rep = run(capsys, "weq-check", "--groupoid", docs["groupoid"], "--sub", docs["sub"],
                    "--output", str(out))
    assert (code, rep["command"]) == (3, "weq-check")
    assert rep["result"]["error"].startswith(f"cannot write --output {out}: ")


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
    """The check commands list no lattice, so they read no cap: --open-cap
    reaches them as a bad command line, and still caps `subobjects`."""
    g = tmp_path / "g.json"
    g.write_text(json.dumps(discrete_space_groupoid_doc(3)))
    sub = tmp_path / "sub.json"
    sub.write_text(json.dumps({"arrows": ["0"]}))
    code, rep = run(capsys, command, "--groupoid", str(g), "--sub", str(sub))
    assert code == uncapped
    code, rep = run(capsys, command, "--groupoid", str(g), "--sub", str(sub), "--open-cap", "1")
    assert code == 3
    assert "unrecognized arguments: --open-cap 1" in rep["result"]["error"]
    code, rep = run(capsys, "subobjects", "--groupoid", str(g), "--sub", str(sub), "--open-cap", "1")
    assert code == 4
    assert "exceeds cap 1" in rep["result"]["error"]


def test_open_cap_reaches_factorize(capsys, tmp_path):
    """factorize lists no lattice: --open-cap is a bad command line there."""
    p = tmp_path / "functor.json"
    p.write_text(json.dumps(functor_doc(3)))
    code, rep = run(capsys, "factorize", "--functor", str(p))
    assert code == 0
    code, rep = run(capsys, "factorize", "--functor", str(p), "--open-cap", "1")
    assert code == 3
    assert "unrecognized arguments: --open-cap 1" in rep["result"]["error"]


def labelled_opens(space):
    return sorted(sorted(fmt_point(p) for p in o) for o in space.opens())


def test_spaces_round_trip_from_opens_through_min_open():
    """opens -> min_open -> opens, on every T0 space of up to 5 points and
    on the spaces of groupoids derived from the corpus's model groupoids
    (whose arrows are isomorphisms), also inside their groupoid documents."""
    rng = random.Random(0)
    derived = [random_model_groupoid(rng).derive(1, 2).groupoid for _ in range(40)]
    spaces = t0_spaces_up_to(5) + [s for g in derived for s in (g.objects, g.arrows)]
    for space in spaces:
        listed = jsonio.space_from_json({"points": [fmt_point(p) for p in space.order()],
                                         "opens": labelled_opens(space)})
        doc = json.loads(json.dumps(jsonio.space_to_json(listed)))
        assert set(doc) == {"points", "min_open"}
        back = jsonio.space_from_json(doc)
        assert back == listed and labelled_opens(back) == labelled_opens(space)
    for g in derived:
        back = jsonio.groupoid_from_json(json.loads(json.dumps(jsonio.groupoid_to_json(g))))
        assert [labelled_opens(s) for s in (back.objects, back.arrows)] == \
            [labelled_opens(s) for s in (g.objects, g.arrows)]
    assert sum(len(s.opens()) > 2 for s in spaces) > 100


def test_a_space_is_written_by_its_labels_and_reads_back_as_them():
    """The int points [10, 9] are written ["9", "10"] and read back as
    strings, which are written ["10", "9"] from then on; the points 1 and
    "1" share a label, so the writer refuses them, naming it."""
    first = jsonio.space_to_json(FinSpace.discrete({10, 9}))
    second = jsonio.space_to_json(jsonio.space_from_json(first))
    third = jsonio.space_to_json(jsonio.space_from_json(second))
    assert (first["points"], second["points"]) == (["9", "10"], ["10", "9"])
    assert second == third
    with pytest.raises(InputError, match="^points: two points share the label '1'$"):
        jsonio.space_to_json(FinSpace.discrete({1, "1"}))
    with pytest.raises(InputError, match="^points: two points share the label '1'$"):
        jsonio.groupoid_to_json(grpd.space_groupoid(FinSpace.discrete({1, "1", 2})))


@pytest.mark.parametrize("doc,message", [
    ({"points": ["a", "b"], "min_open": {"a": ["a"]}}, "min_open domain differs"),
    ({"points": ["a"], "min_open": {"a": ["a"], "b": ["b"]}}, "unknown point 'b'"),
    ({"points": ["a", "b"], "min_open": {"a": ["a", "b"], "b": ["b", "a"]}, "opens": []},
     "exactly one of 'min_open' and 'opens'"),
    ({"points": ["a"]}, "exactly one of 'min_open' and 'opens'"),
    ({"points": [1, 2], "min_open": {"1": [1], "01": [1, 2], "2": [2]}}, "unknown point '01'"),
    ({"points": ["a", "b"], "min_open": {"a": ["a", "b"], "b": ["b"]}}, None),
    ({"points": [1, 2], "min_open": {"1": [1, 2], "2": [2]}}, None),
], ids=["missing-key", "extra-key", "both-forms", "neither-form", "aliased-key", "valid",
        "valid-int-points"])
def test_validate_reads_a_min_open_space(capsys, tmp_path, doc, message):
    p = tmp_path / "space.json"
    p.write_text(json.dumps(doc))
    code, rep = run(capsys, "validate", "--space", str(p))
    if message is None:
        assert (code, rep["result"]["answer"]) == (0, "yes")
    else:
        assert code == 3 and message in rep["result"]["error"], rep["result"]


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


@pytest.mark.parametrize("command,knob", [
    (name, knob) for name, (_, _, knobs) in cli._TABLE.items() for knob in knobs.split()
    if knob != "mode"
])
def test_a_negative_limit_is_an_error_report_with_exit_3(capsys, docs, command, knob):
    # every input is given and readable, so only the flag can be at fault
    argv = [command]
    for flag in cli._TABLE[command][1].replace("?", "").split():
        argv += [f"--{flag}", docs[INPUT_DOCS[flag]]]
    code, rep = run(capsys, *argv, f"--{knob}", "-1")
    assert code == 3
    assert f"argument --{knob}: invalid int value: '-1'" in rep["result"]["error"]


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


@pytest.mark.parametrize("side", ["dom", "cod"])
def test_functor_between_invalid_groupoids_exits_3(capsys, tmp_path, side):
    """A discrete object space under an indiscrete arrow space: src and
    tgt are not continuous.  dom: both sides are invalid, and the domain
    is named first; cod: only the codomain is invalid."""
    valid = discrete_space_groupoid_doc(2)
    invalid = dict(valid, arrows={"points": ["0", "1"], "opens": [[], ["0", "1"]]})
    ident = {p: p for p in valid["objects"]["points"]}
    doc = {"dom": invalid if side == "dom" else valid, "cod": invalid,
           "obj_map": ident, "arr_map": ident}
    p = tmp_path / "functor.json"
    p.write_text(json.dumps(doc))
    code, rep = run(capsys, "factorize", "--functor", str(p))
    assert (code, rep["result"]["error"]) == (
        3, f"functor {side}: not an open topological groupoid: src not continuous; tgt not continuous"
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


INT_POINTS = {"points": [1, 2], "min_open": {"1": [1], "2": [2]}}
INT_IDENT = {"map": {"1": 1, "2": 2}}
INT_DISCRETE_DOC = {"objects": INT_POINTS, "arrows": INT_POINTS, "src": INT_IDENT,
                    "tgt": INT_IDENT, "unit": INT_IDENT, "inv": INT_IDENT,
                    "comp": [[1, 1, 1], [2, 2, 2]]}
SIER_DOC = jsonio.groupoid_to_json(grpd.space_groupoid(FinSpace.sierpinski()))
POINT_NAMED_TWICE = {
    "space points": (("validate", "--space"), {"points": [1, 1, 2], "opens": [[], [1], [2], [1, 2]]},
                     "points: point '1' is named twice"),
    "model carrier": (("validate", "--models"), None, "carrier 'S': point 'a' is named twice"),
    # 1 is read as its label "1", the element the writer would write for it
    "model carrier of 1 and '1'": (
        ("validate", "--models"),
        dict(MG_DOC, models=[dict(MG_DOC["models"][0], carriers={"S": [1, "1"]})]),
        "carrier 'S': point '1' is named twice"),
    # "1" and 1 both read as the arrow labelled "1"
    "subgroupoid arrows": (("subobjects", "--sub"), {"arrows": ["1", 1]},
                           "arrows: point '1' is named twice"),
    # read last-wins, the first triple's composite 0 o 0 = 1 would go unseen
    "groupoid comp pair": (("validate", "--groupoid"),
                           dict(SIER_DOC, comp=[["0", "0", "1"], *SIER_DOC["comp"]]),
                           "comp: the pair [0, 0] is named twice"),
}


@pytest.mark.parametrize("reader", list(POINT_NAMED_TWICE))
def test_a_point_named_twice_is_an_input_error(capsys, tmp_path, reader):
    """A document that names one point, or one composable pair, twice
    exits 3; it is not read as the smaller set it would collapse to."""
    argv, doc, error = POINT_NAMED_TWICE[reader]
    if doc is None:
        doc = dict(MG_DOC, models=[dict(MG_DOC["models"][0], carriers={"S": ["a", "b", "a"]})])
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    g = tmp_path / "g.json"
    g.write_text(json.dumps(INT_DISCRETE_DOC))
    extra = ("--groupoid", str(g)) if argv[0] == "subobjects" else ()
    code, rep = run(capsys, *argv, str(p), *extra)
    assert (code, rep["result"]["error"]) == (3, error)


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


UNDECLARED = {
    "sort": (_model(MG_DOC, carriers={"S": ["a", "b"], "W": ["w"]}), "undeclared sort W"),
    "constant": (_model(MG_DOC, constants={"c": "a"}), "undeclared constant c"),
    "relation": (_model(MG_DOC, relations={"P": [["a"]], "Q": [["b"]], "R": [["a"]]}),
                 "undeclared relation R"),
}


@pytest.mark.parametrize("what", list(UNDECLARED))
@pytest.mark.parametrize("argv", [
    ("logical-topology", "--models", "{doc}"),
    ("morita-search", "--left", "{doc}", "--right", "{doc}"),
    ("etale-complete", "--models", "{doc}"),
], ids=lambda argv: argv[0])
def test_a_model_with_an_undeclared_sort_constant_or_relation_exits_3(capsys, tmp_path, argv, what):
    """A carrier of a sort, or an interpretation of a constant or
    relation, that the signature does not declare is an input error; it
    is neither dropped nor echoed into the report."""
    doc, error = UNDECLARED[what]
    p = tmp_path / "models.json"
    p.write_text(json.dumps(doc))
    code, rep = run(capsys, *(a.format(doc=p) for a in argv))
    assert (code, rep["result"]["error"]) == (3, error)


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


@pytest.mark.parametrize("assign", [{"a": "a"}, {"a": "a", "b": "a"}, {}],
                         ids=["partial", "two-elements-one-image", "empty"])
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
    p.write_text(json.dumps(jsonio.groupoid_to_json(group_groupoid(els, mult))))
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


@pytest.mark.parametrize("neighbours, message", [
    ((0, 1), "minimal neighbourhoods not nested at a"),
    ((1,), "bad minimal neighbourhood at a"),
], ids=["not-nested", "point-outside-its-neighbourhood"])
def test_a_bad_min_open_space_names_its_least_point_under_every_hash_seed(
        tmp_path, neighbours, message):
    """Every point of the cycle a..f fails, and the report names the
    least in `ckey` order, not the first in set order."""
    cycle = "abcdef"
    p = tmp_path / "space.json"
    p.write_text(json.dumps({"points": list(cycle), "min_open": {
        x: [cycle[(i + k) % 6] for k in neighbours] for i, x in enumerate(cycle)}}))
    runs = {run_under_hash_seed(seed, "validate", "--space", str(p)) for seed in range(1, 7)}
    assert len(runs) == 1
    code, out = runs.pop()
    assert code == 3
    assert json.loads(out)["result"]["error"] == message


def edge_model_doc(one, arrows):
    """One model on the carrier {one, "a"} with the edge one -> "a", its
    arrows "all" or the identity written out."""
    return {
        "signature": {"sorts": ["V"], "relations": {"E": ["V", "V"]}},
        "params": {"p0": "V", "p1": "V"},
        "models": [{"name": "A", "carriers": {"V": [one, "a"]}, "relations": {"E": [[one, "a"]]},
                    "indexing": {"p0": one, "p1": "a"}}],
        "arrows": arrows if arrows == "all"
        else [{"src": "A", "tgt": "A", "map": {"V": {"1": one, "a": "a"}}}],
    }


@pytest.mark.parametrize("arrows", ["all", "identity"])
@pytest.mark.parametrize("command,expected", [
    ("validate", 0), ("etale-complete", 0), ("logical-topology", 0), ("elim-params", 2),
])
def test_a_carrier_of_integers_and_strings_reads_like_one_of_strings(
        capsys, tmp_path, command, expected, arrows):
    """Point 1 sorts before "a" as "1" does, so the report of the carrier
    [1, "a"] is that of ["1", "a"], not a crash on 1 < "a"."""
    outcomes = []
    for one in (1, "1"):
        p = tmp_path / f"models-{type(one).__name__}.json"
        p.write_text(json.dumps(edge_model_doc(one, arrows)))
        code, rep = run(capsys, command, "--models", str(p))
        outcomes.append((code, rep["result"]))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == expected


def test_a_bare_map_exits_3(capsys, tmp_path):
    """A groupoid map is {"map": {point: point}}; the bare object is not read."""
    p = tmp_path / "groupoid.json"
    p.write_text(json.dumps(dict(ISO_PAIR_DOC, src=ISO_PAIR_DOC["src"]["map"])))
    code, rep = run(capsys, "validate", "--groupoid", str(p))
    assert code == 3
    assert rep["result"]["error"] == 'groupoid maps must be {"map": {point: point, ...}}'


def test_a_point_named_map_reads(capsys, tmp_path):
    doc = jsonio.groupoid_to_json(grpd.space_groupoid(FinSpace.discrete({"map", "x"})))
    assert jsonio.groupoid_to_json(jsonio.groupoid_from_json(doc)) == doc
    p = tmp_path / "groupoid.json"
    p.write_text(json.dumps(doc))
    code, rep = run(capsys, "validate", "--groupoid", str(p))
    assert (code, rep["result"]["answer"]) == (0, "yes")


@pytest.mark.parametrize("command", [
    "weq-check", "surjection-check", "inclusion-check", "generators", "subobjects",
])
def test_a_sub_is_validated_once_and_a_non_subgroupoid_exits_3(
        capsys, docs, tmp_path, monkeypatch, command):
    """The reader and the verdicts' scope check share the ambient's memo."""
    calls = []
    validate = grpd.Subgroupoid.validate
    monkeypatch.setattr(grpd.Subgroupoid, "validate",
                        lambda self: calls.append(self.arrow_set) or validate(self))
    code, _ = run(capsys, command, "--groupoid", docs["groupoid"], "--sub", docs["sub"])
    assert (code, calls) == (0, [frozenset({"ia"})])
    bad = tmp_path / "bad-sub.json"
    bad.write_text(json.dumps({"arrows": ["f"]}))
    code, rep = run(capsys, command, "--groupoid", docs["groupoid"], "--sub", str(bad))
    assert (code, rep["result"]["error"]) == (3, "not a subgroupoid: not closed under inv at f; "
                                              "object set differs between src and tgt images")


def test_a_topology_of_integer_ids_reads_like_its_string_twin(capsys, tmp_path):
    """Each id is read as its label, so [9, 10] is ["9", "10"] and both
    are written in label order."""
    results = []
    for ids in ([9, 10], ["9", "10"]):
        p = tmp_path / "topology.json"
        p.write_text(json.dumps({"points": ids, "subbasis": [ids[:1]]}))
        code, rep = run(capsys, "topology", "--input", str(p))
        results.append((code, rep["result"]))
    assert results[0] == results[1]
    assert results[0][1]["space"]["points"] == ["10", "9"]


def cyclic_groupoid_doc(n, **changes):
    """The cyclic group of order n on the arrows "0".."n-1", one object
    "*", as a groupoid document with `changes` made to its keys."""
    els = [str(i) for i in range(n)]
    mult = {(g, f): str((int(g) + int(f)) % n) for g in els for f in els}
    return dict(jsonio.groupoid_to_json(group_groupoid(els, mult)), **changes)


# two models on {a, b}: M with its swap, N with the edge b -> a and its
# identity alone; no positive formula holds in M and fails in N, so {M}
# is not open, but the parameter transport {the swap} is, and its source is {M}
NON_OPEN_MODELS = {
    "signature": {"sorts": ["V"], "relations": {"E": ["V", "V"]}},
    "params": {"p": "V", "q": "V"},
    "models": [{"name": "M", "carriers": {"V": ["a", "b"]}, "indexing": {"p": "a", "q": "b"}},
               {"name": "N", "carriers": {"V": ["a", "b"]}, "relations": {"E": [["b", "a"]]},
                "indexing": {"p": "a", "q": "b"}}],
    "arrows": [{"src": "M", "tgt": "M", "map": {"V": {"a": "a", "b": "b"}}},
               {"src": "M", "tgt": "M", "map": {"V": {"a": "b", "b": "a"}}},
               {"src": "N", "tgt": "N", "map": {"V": {"a": "a", "b": "b"}}}],
}


def non_open_groupoid_doc():
    derived = jsonio.model_groupoid_from_json(NON_OPEN_MODELS).derive(1).groupoid
    return jsonio.groupoid_to_json(derived)


BROKEN_LAWS = {
    "non-composable pair": lambda: (
        dict(discrete_space_groupoid_doc(3),
             comp=discrete_space_groupoid_doc(3)["comp"] + [["0", "1", "0"]]),
        ["comp defined on non-composable pair (1,0)"]),
    # 1 is inverse to each arrow's inverse, but no identity
    "unit law": lambda: (
        cyclic_groupoid_doc(2, unit={"map": {"*": "1"}}, inv={"map": {"0": "1", "1": "0"}}),
        ["unit law fails at 0", "unit law fails at 1"]),
    "inverse law": lambda: (
        cyclic_groupoid_doc(3, inv={"map": {"0": "0", "1": "1", "2": "2"}}),
        ["inverse law fails at 1", "inverse law fails at 2"]),
    # (0, 1) is in the closure of (1, 1), but 1 = 0 o 1 is not in that of 0 = 1 o 1
    "comp continuity": lambda: (
        cyclic_groupoid_doc(2, arrows={"points": ["0", "1"], "min_open": {"0": ["0", "1"], "1": ["1"]}}),
        ["comp not continuous"]),
    "src openness": lambda: (non_open_groupoid_doc(), ["src not open"]),
}


@pytest.mark.parametrize("law", list(BROKEN_LAWS))
def test_validate_names_each_broken_groupoid_law(capsys, tmp_path, law):
    doc, diagnostics = BROKEN_LAWS[law]()
    p = tmp_path / "groupoid.json"
    p.write_text(json.dumps(doc))
    code, rep = run(capsys, "validate", "--groupoid", str(p))
    assert (code, rep["result"]["diagnostics"]) == (1, diagnostics)


def test_weq_check_on_a_non_open_derived_groupoid_exits_3(capsys, tmp_path):
    doc = non_open_groupoid_doc()
    g = tmp_path / "groupoid.json"
    g.write_text(json.dumps(doc))
    sub = tmp_path / "sub.json"
    sub.write_text(json.dumps({"arrows": list(doc["unit"]["map"].values())}))
    code, rep = run(capsys, "weq-check", "--groupoid", str(g), "--sub", str(sub))
    assert (code, rep["result"]["error"]) == (3, "not an open topological groupoid: src not open")


# M1 on {a, b} with no relations: its automorphisms are the identity and the swap
AUT_DOC = {"signature": {"sorts": ["S"]}, "params": {"p": "S", "q": "S"},
           "models": [{"name": "M1", "carriers": {"S": ["a", "b"]}, "indexing": {"p": "a", "q": "b"}}],
           "arrows": "all"}
ID_M1 = {"src": "M1", "tgt": "M1", "map": {"S": {"a": "a", "b": "b"}}}
SWAP_M1 = {"src": "M1", "tgt": "M1", "map": {"S": {"a": "b", "b": "a"}}}
MG_TWO = dict(MG_DOC, models=[*MG_DOC["models"], dict(MG_DOC["models"][0], name="M2")])


def cospan_fault(source=MG_DOC, apex=MG_DOC, target=MG_DOC, obj_map=None, arr_map=None):
    return {"source": source, "target": target, "apex": apex,
            "fwd": {"obj_map": {"M1": "M1"} if obj_map is None else obj_map,
                    "arr_map": [[ID_M1, ID_M1]] if arr_map is None else arr_map}}


COSPAN_FAULTS = {
    "object map outside member names": cospan_fault(obj_map={"M1": "X"}),
    "object map not total": cospan_fault(obj_map={}),
    "arrow map not total": cospan_fault(arr_map=[]),
    "arrow map value outside codomain arrows": cospan_fault(arr_map=[[ID_M1, SWAP_M1]]),
    "arrow map incompatible with object map": cospan_fault(apex=MG_TWO, obj_map={"M1": "M2"}),
    "arrow map not functorial": cospan_fault(AUT_DOC, AUT_DOC, AUT_DOC,
                                             arr_map=[[ID_M1, SWAP_M1], [SWAP_M1, ID_M1]]),
    "inclusion across signatures": cospan_fault(target=AUT_DOC),
    "parameter r not in the ambient groupoid": cospan_fault(
        target=dict(MG_DOC, params={**MG_DOC["params"], "r": "S"})),
    "member M2 not in the ambient groupoid": cospan_fault(
        target=dict(MG_DOC, models=[dict(MG_DOC["models"][0], name="M2")])),
    "arrows not contained in the ambient groupoid": cospan_fault(
        dict(AUT_DOC, arrows=[ID_M1]), dict(AUT_DOC, arrows=[ID_M1]), AUT_DOC),
}


@pytest.mark.parametrize("fault", list(COSPAN_FAULTS))
def test_each_cospan_leg_fault_exits_3_through_compose(capsys, tmp_path, fault):
    """The six faults of a forward leg and the four of an inclusion leg."""
    p = tmp_path / "cospan.json"
    p.write_text(json.dumps(COSPAN_FAULTS[fault]))
    code, rep = run(capsys, "compose", "--first", str(p), "--second", str(p))
    assert (code, rep["result"]["error"]) == (3, fault)
