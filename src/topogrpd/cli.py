"""Batch front end: JSON in, deterministic JSON report out.

Exit codes: 0 ok / verdict-yes, 1 verdict-no, 2 verdict-unknown,
3 input error, 4 cap exceeded, 5 internal
criterion-oracle disagreement.  Reports echo the sha256 of every input
document and the tool version; identical inputs produce byte-identical
reports (no timestamps, sorted keys, flag-only configuration).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__, fintop, frac, grpd, jsonio, logic, sheaf, weq
from .errors import (
    CapExceeded,
    CertificateError,
    InputError,
    NotModelPresented,
    OracleDisagreement,
)

_ANSWER_CODES = {"yes": 0, "no": 1, "unknown": 2}


class _Reader:
    """One command's reads: the path and digest of each input file, and
    the memo its model-groupoid and cospan documents are read through,
    which lives as long as the command."""

    def __init__(self):
        self.inputs = {}
        self.memo = []

    def load(self, path):
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except OSError as e:
            raise InputError(f"cannot read {path}: {e}")
        self.inputs[path] = {"path": path, "sha256": jsonio.digest(raw)}
        try:
            return json.loads(raw)
        except json.JSONDecodeError as e:
            raise InputError(f"{path}: invalid JSON at line {e.lineno} column {e.colno}")

    def models(self, path):
        return jsonio.model_groupoid_from_json(self.load(path), self.memo)

    def cospan(self, path):
        return jsonio.cospan_from_json(self.load(path), self.memo)


def _cmd_validate(args, read):
    if args.given and not args.models:
        raise InputError(f"validate reads {' and '.join(args.given)} only with --models")
    diagnostics = []
    if args.space:  # the reader checks the min_open laws or the axioms of opens
        jsonio.space_from_json(read.load(args.space))
    if args.groupoid:
        g = jsonio.groupoid_from_json(read.load(args.groupoid))
        diagnostics += grpd.validate_groupoid(g)
    if args.models:
        mg = read.models(args.models)
        diagnostics += grpd.validate_groupoid(
            mg.derive(args.depth, args.tuple_cap).groupoid
        )
    if not (args.space or args.groupoid or args.models):
        raise InputError("validate needs --space, --groupoid or --models")
    answer = "yes" if not diagnostics else "no"
    return {"diagnostics": diagnostics, "answer": answer}, answer


def _cmd_topology(args, read):
    space = jsonio.topology_from_json(read.load(args.input))
    opens = [sorted(fintop.fmt_point(p) for p in o) for o in space.opens(cap=args.open_cap)]
    return {"space": jsonio.space_to_json(space), "opens": opens}, None


def _open_groupoid(g, where=""):
    """g, rejected unless it is an open topological groupoid."""
    bad = grpd.validate_groupoid(g)
    if bad:
        raise InputError(where + "not an open topological groupoid: " + "; ".join(bad))
    return g


def _valid_groupoid(args, read):
    """The --groupoid document, rejected unless it is an open topological groupoid."""
    return _open_groupoid(jsonio.groupoid_from_json(read.load(args.groupoid)))


def _cmd_check(args, read):
    """weq-check, surjection-check and inclusion-check, on a valid groupoid."""
    g = _valid_groupoid(args, read)
    sub = jsonio.subgroupoid_from_json(read.load(args.sub), g)
    if args.command == "weq-check":
        verdict = weq.is_weak_equivalence(sub, mode=args.mode)
    elif args.command == "surjection-check":
        verdict = weq.is_localic_surjection(sub)
    else:
        verdict = weq.is_subtopos_inclusion(sub)
    return {"verdict": verdict.to_json(), "answer": verdict.answer}, verdict.answer


def _cmd_factorize(args, read):
    f = jsonio.functor_from_json(read.load(args.functor))
    _open_groupoid(f.dom, "functor dom: ")
    _open_groupoid(f.cod, "functor cod: ")
    fz = weq.factorize(f)
    answer = "yes" if fz.certificates_pass() else "no"
    result = {
        "answer": answer,
        "surjective_on_objects": fz.surjective_on_objects,
        "image_skula_dense": fz.image_skula_dense.to_json(),
        "inclusion_certificate": fz.inclusion_certificate.to_json(),
        "full_essential_image_arrows": sorted(
            fintop.fmt_point(a) for a in fz.second.arrow_set
        ),
    }
    return result, answer


def _cmd_generators(args, read):
    if args.given and args.sub:
        raise InputError("generators reads --open-cap only without --sub")
    g = _valid_groupoid(args, read)
    if args.sub:
        u = jsonio.subgroupoid_from_json(read.load(args.sub), g)
        gen = sheaf.moerdijk_generator(g, u)
        return {"sheaf": jsonio.sheaf_to_json(gen)}, None
    out = []
    for u in grpd.enumerate_open_subgroupoids(g, cap=args.open_cap):
        gen = sheaf.moerdijk_generator(g, u)
        out.append(
            {
                "subgroupoid": sorted(fintop.fmt_point(a) for a in u.arrow_set),
                "sheaf": jsonio.sheaf_to_json(gen),
            }
        )
    return {"generators": out, "family": "exhaustive"}, None


def _cmd_subobjects(args, read):
    g = _valid_groupoid(args, read)
    u = jsonio.subgroupoid_from_json(read.load(args.sub), g)
    gen = sheaf.moerdijk_generator(g, u)
    lat = sheaf.subobject_lattice(gen, cap=args.open_cap)
    return {"lattice": jsonio.lattice_to_json(lat)}, None


def _cmd_logical_topology(args, read):
    mg = read.models(args.models)
    derived = mg.derive(args.depth, args.tuple_cap)
    return {
        "groupoid": jsonio.groupoid_to_json(derived.groupoid),
        "achieved_depth": derived.depth,
        "stabilized": derived.stabilized,
    }, None


def _cmd_elim_params(args, read):
    mg = read.models(args.models)
    verdict = logic.eliminates_parameters(mg, args.depth, args.tuple_cap)
    return {"verdict": verdict.to_json(), "answer": verdict.answer}, verdict.answer


def _cmd_etale_complete(args, read):
    mg = read.models(args.models)
    completed = logic.etale_completion(mg)
    input_check = logic.is_etale_complete(mg, args.depth, args.tuple_cap)
    return {
        "completion": jsonio.model_groupoid_to_json(completed),
        "added_arrows": len(completed.arrows) - len(mg.arrows),
        "input_complete": input_check.to_json(),
    }, None


def _cmd_compose(args, read):
    fwd1, leg1 = read.cospan(args.first)
    fwd2, leg2 = read.cospan(args.second)
    c1 = frac.make_cospan(fwd1, leg1, args.depth, args.tuple_cap)
    c2 = frac.make_cospan(fwd2, leg2, args.depth, args.tuple_cap)
    out = frac.compose(c1, c2)
    return {"cospan": jsonio.cospan_to_json(out)}, None


def _cmd_morita_search(args, read):
    left = read.models(args.left)
    right = read.models(args.right)
    res = frac.morita_search(left, right, args.depth, args.tuple_cap)
    result = {"verdict": res.verdict.to_json(), "answer": res.verdict.answer}
    if res.apex is not None:
        result["witness"] = {
            "apex": jsonio.model_groupoid_to_json(res.apex),
            "left_arrows": [jsonio.iso_to_json(a, left) for a in res.left_leg.sub.order],
            "right_arrows": [jsonio.iso_to_json(a, right) for a in res.right_leg.sub.order],
        }
    return result, res.verdict.answer


class _Parser(argparse.ArgumentParser):
    """Ends a bad command line in an InputError report (exit 3), not in
    argparse's exit 2, which here means an unknown verdict."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


class _Knob(argparse.Action):
    """Stores a knob's value and adds its flag to `args.given`, so that a
    command can reject a knob it reads only with some input."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given += (option_string,)


def _limit(text):
    """The value of a limit flag: an int of at least 0, else a usage error."""
    if text.strip().isdecimal():
        return int(text)
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}, limits are integers >= 0")


# the limit and mode flags, each registered only on the commands that read it
_KNOBS = {
    "depth": {"type": _limit, "default": 1},
    "tuple-cap": {"type": _limit, "default": 2},
    "open-cap": {"type": _limit, "default": fintop.DEFAULT_OPEN_CAP},
    "mode": {"choices": (*weq.MODES, "all"), "default": "all"},
}

# command: (function, input flags with "?" marking an optional one, knobs it reads)
_TABLE = {
    "validate": (_cmd_validate, "space? groupoid? models?", "depth tuple-cap"),
    "topology": (_cmd_topology, "input", "open-cap"),
    "weq-check": (_cmd_check, "groupoid sub", "mode"),
    "surjection-check": (_cmd_check, "groupoid sub", ""),
    "inclusion-check": (_cmd_check, "groupoid sub", ""),
    "factorize": (_cmd_factorize, "functor", ""),
    "generators": (_cmd_generators, "groupoid sub?", "open-cap"),
    "subobjects": (_cmd_subobjects, "groupoid sub", "open-cap"),
    "logical-topology": (_cmd_logical_topology, "models", "depth tuple-cap"),
    "elim-params": (_cmd_elim_params, "models", "depth tuple-cap"),
    "etale-complete": (_cmd_etale_complete, "models", "depth tuple-cap"),
    "compose": (_cmd_compose, "first second", "depth tuple-cap"),
    "morita-search": (_cmd_morita_search, "left right", "depth tuple-cap"),
}


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="topogrpd", description="finite topological groupoid calculator")
    sub = top.add_subparsers(dest="command", required=True)
    for name, (_, flags, knobs) in _TABLE.items():
        # no abbreviations: --mode would otherwise be read as --models
        p = sub.add_parser(name, allow_abbrev=False)
        for flag in flags.split():
            p.add_argument("--" + flag.rstrip("?"), required=not flag.endswith("?"))
        for knob in knobs.split():
            p.add_argument("--" + knob, action=_Knob, **_KNOBS[knob])
        p.add_argument("--output", help="report path (default stdout)")
        p.set_defaults(given=())
    return top


# built once per process: parse_args returns a fresh Namespace every call
_PARSER = build_parser()


def run(argv=None) -> int:
    args, read = None, _Reader()
    report = {"command": None, "tool_version": __version__, "options": {}}
    try:
        args = _PARSER.parse_args(argv)
        report["command"] = args.command
        report["options"] = {
            k: v for k, v in sorted(vars(args).items())
            if k not in ("command", "output", "given") and v is not None
        }
        result, answer = _TABLE[args.command][0](args, read)
        code = 0 if answer is None else _ANSWER_CODES[answer]
    except (InputError, NotModelPresented) as e:
        result, answer, code = {"error": str(e)}, None, 3
    except CapExceeded as e:
        result, answer, code = {"error": str(e)}, None, 4
    except OracleDisagreement as e:
        result, answer, code = {"error": str(e)}, None, 5
    except CertificateError as e:
        result, answer, code = {"error": str(e)}, None, 1
    report["inputs"] = read.inputs
    report["result"] = result
    text = jsonio.dumps(report)
    if args is not None and args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
            return code
        except OSError as e:
            # an unwritable path is a bad input: the report goes to stdout
            report["result"] = {"error": f"cannot write --output {args.output}: {e.strerror}"}
            code, text = 3, jsonio.dumps(report)
    sys.stdout.write(text)
    return code


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
