"""Every flag a command registers is one its function reads.

An ast scan: the flags read by a command are the attributes of `args`
read by its function in cli._TABLE, by the cli helpers it passes `args`
to, and by cli.run (which reads --output for every command).
"""

import argparse
import ast
import inspect
import json

from test_cli import MG_DOC, discrete_space_groupoid_doc, docs, run  # noqa: F401
from topogrpd import cli


def args_read(fn):
    """Names of the `args` attributes read by fn and the cli helpers it passes args to."""
    read = set()
    for node in ast.walk(ast.parse(inspect.getsource(fn))):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "args":
            read.add(node.attr)
        if isinstance(node, ast.Call) and any(getattr(a, "id", None) == "args" for a in node.args):
            helper = getattr(cli, getattr(node.func, "id", ""), None)
            if helper is not None and helper is not fn:
                read |= args_read(helper)
    return read


def subparsers():
    (action,) = [a for a in cli.build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def registered(parser):
    """{dest: option string} of a subcommand's flags, --help excepted."""
    return {a.dest: a.option_strings[0] for a in parser._actions
            if a.option_strings and a.dest != "help"}


def test_every_registered_flag_is_read_by_its_command():
    unread = []
    for name, parser in subparsers().items():
        reads = args_read(cli._TABLE[name][0]) | args_read(cli.run)
        unread += [f"{name} {flag}" for dest, flag in registered(parser).items()
                   if dest not in reads]
    assert unread == []


def required_argv(name, parser):
    argv = [name]
    for a in parser._actions:
        if a.required:
            argv += [a.option_strings[0], "x.json"]
    return argv


def test_weq_check_rejects_depth(capsys, docs):  # noqa: F811
    code, rep = run(capsys, "weq-check", "--groupoid", docs["groupoid"], "--sub", docs["sub"],
                    "--depth", "2")
    assert code == 3
    assert "unrecognized arguments: --depth 2" in rep["result"]["error"]


def test_a_knob_a_command_does_not_read_exits_3(capsys):
    rejected = 0
    for name, parser in subparsers().items():
        for knob in cli._KNOBS:
            if f"--{knob}" in registered(parser).values():
                continue
            value = "all" if knob == "mode" else "1"
            code, rep = run(capsys, *required_argv(name, parser), f"--{knob}", value)
            assert code == 3
            assert f"unrecognized arguments: --{knob} {value}" in rep["result"]["error"]
            rejected += 1
    assert rejected == 24 + 12  # the 24 limit flags, and --mode off weq-check


def cospan_doc():
    ident = {"src": "M1", "tgt": "M1", "map": {"S": {"a": "a", "b": "b"}}}
    return {"source": MG_DOC, "target": MG_DOC, "apex": MG_DOC,
            "fwd": {"obj_map": {"M1": "M1"}, "arr_map": [[ident, ident]]}}


def test_options_hold_only_the_flags_a_command_reads(capsys, tmp_path, docs):  # noqa: F811
    g = discrete_space_groupoid_doc(2)
    ident = {p: p for p in g["objects"]["points"]}
    for name, doc in (("functor", {"dom": g, "cod": g, "obj_map": ident, "arr_map": ident}),
                      ("cospan", cospan_doc())):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(doc))
        docs[name] = str(p)
    inputs = {"space": None, "groupoid": "groupoid", "sub": "sub", "family": "family",
              "models": "models", "input": "topology", "functor": "functor",
              "first": "cospan", "second": "cospan", "left": "models", "right": "models"}
    for name, parser in subparsers().items():
        argv = [name]
        for dest, flag in registered(parser).items():
            if inputs.get(dest):
                argv += [flag, docs[inputs[dest]]]
        code, rep = run(capsys, *argv)
        assert code in (0, 2), (name, rep["result"])
        assert set(rep["options"]) == set(registered(parser)) - {"output", "space"}
        assert set(rep["options"]) <= args_read(cli._TABLE[name][0])
