"""Every flag a command registers is one its function reads.

An ast scan: the flags read by a command are the attributes of `args`
read by its function in cli._TABLE, by the cli helpers it passes `args`
to, and by cli.run (which reads --output for every command).
"""

import argparse
import ast
import inspect

from test_cli import INPUT_DOCS, docs, run  # noqa: F401
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


def test_options_hold_only_the_flags_a_command_reads(capsys, docs):  # noqa: F811
    inputs = dict(INPUT_DOCS, space=None)
    for name, parser in subparsers().items():
        argv = [name]
        for dest, flag in registered(parser).items():
            if inputs.get(dest):
                argv += [flag, docs[inputs[dest]]]
        code, rep = run(capsys, *argv)
        assert code in (0, 2), (name, rep["result"])
        assert set(rep["options"]) == set(registered(parser)) - {"output", "space"}
        assert set(rep["options"]) <= args_read(cli._TABLE[name][0])


def test_generators_reads_open_cap_only_without_sub(capsys, docs):  # noqa: F811
    """One generator is built with --sub, and no family is listed or capped."""
    code, rep = run(capsys, "generators", "--groupoid", docs["groupoid"], "--sub", docs["sub"],
                    "--open-cap", "0")
    assert (code, rep["result"]) == (3, {"error": "generators reads --open-cap only without --sub"})
    code, rep = run(capsys, "generators", "--groupoid", docs["groupoid"], "--open-cap", "0")
    assert code == 4


def test_validate_reads_depth_and_tuple_cap_only_with_models(capsys, docs):  # noqa: F811
    """Only the model groupoid is derived at a depth and tuple cap; given
    without --models, the two knobs are a bad command line."""
    for inputs in (["--space", docs["space"]], ["--groupoid", docs["groupoid"]]):
        code, rep = run(capsys, "validate", *inputs, "--depth", "7", "--tuple-cap", "9")
        assert (code, rep["result"]) == (
            3, {"error": "validate reads --depth and --tuple-cap only with --models"})
        code, rep = run(capsys, "validate", *inputs, "--tuple-cap", "2")
        assert (code, rep["result"]) == (3, {"error": "validate reads --tuple-cap only with --models"})
        code, rep = run(capsys, "validate", *inputs)
        assert code == 0
    code, rep = run(capsys, "validate", "--models", docs["models"], "--depth", "0", "--tuple-cap", "1")
    assert code == 0 and (rep["options"]["depth"], rep["options"]["tuple_cap"]) == (0, 1)
