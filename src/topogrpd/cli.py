"""Batch front end: JSON in, deterministic JSON report out.

Exit codes: 0 ok / verdict-yes, 1 verdict-no, 2 verdict-unknown,
3 input error, 4 budget or cap exceeded, 5 internal
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
    BudgetExceeded,
    CapExceeded,
    CertificateError,
    InputError,
    NotModelPresented,
    OracleDisagreement,
)

_ANSWER_CODES = {"yes": 0, "no": 1, "unknown": 2}


def _load(path, inputs):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}")
    inputs[path] = {"path": path, "sha256": jsonio.digest(raw)}
    try:
        return json.loads(raw)
    except json.JSONDecodeError as e:
        raise InputError(f"{path}: invalid JSON at line {e.lineno} column {e.colno}")


def _cmd_validate(args, inputs):
    diagnostics = []
    if args.space:
        space = jsonio.space_from_json(_load(args.space, inputs))
        diagnostics += fintop.validate_space(space, cap=args.open_cap)
    if args.groupoid:
        g = jsonio.groupoid_from_json(_load(args.groupoid, inputs))
        diagnostics += grpd.validate_groupoid(g)
    if args.models:
        mg = jsonio.model_groupoid_from_json(_load(args.models, inputs))
        diagnostics += grpd.validate_groupoid(
            mg.derive(args.depth, args.tuple_cap).groupoid
        )
    if not (args.space or args.groupoid or args.models):
        raise InputError("validate needs --space, --groupoid or --models")
    answer = "yes" if not diagnostics else "no"
    return {"diagnostics": diagnostics, "answer": answer}, answer


def _cmd_topology(args, inputs):
    space = jsonio.topology_from_json(_load(args.input, inputs))
    return {"space": jsonio.space_to_json(space, cap=args.open_cap)}, None


def _valid_groupoid(args, inputs):
    """The --groupoid document, rejected unless it is an open topological groupoid."""
    g = jsonio.groupoid_from_json(_load(args.groupoid, inputs))
    bad = grpd.validate_groupoid(g)
    if bad:
        raise InputError("not an open topological groupoid: " + "; ".join(bad))
    return g


def _cmd_check(args, inputs):
    """weq-check, surjection-check and inclusion-check, on a valid groupoid."""
    g = _valid_groupoid(args, inputs)
    sub = jsonio.subgroupoid_from_json(_load(args.sub, inputs), g)
    fam = jsonio.family_from_json(_load(args.family, inputs), g) if args.family else None
    limits = {"budget": args.subgroupoid_budget, "cap": args.open_cap}
    if args.command == "weq-check":
        verdict = weq.is_weak_equivalence(sub, family=fam, mode=args.mode, **limits)
    elif args.command == "surjection-check":
        verdict = weq.is_localic_surjection(sub, family=fam, **limits)
    else:
        verdict = weq.is_subtopos_inclusion(sub, family=fam, **limits)
    return {"verdict": verdict.to_json(), "answer": verdict.answer}, verdict.answer


def _cmd_factorize(args, inputs):
    f = jsonio.functor_from_json(_load(args.functor, inputs))
    fz = weq.factorize(f, budget=args.subgroupoid_budget, cap=args.open_cap)
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


def _cmd_generators(args, inputs):
    g = _valid_groupoid(args, inputs)
    if args.sub:
        u = jsonio.subgroupoid_from_json(_load(args.sub, inputs), g)
        gen = sheaf.moerdijk_generator(g, u)
        return {"sheaf": jsonio.sheaf_to_json(gen, cap=args.open_cap)}, None
    out = []
    for u in grpd.enumerate_open_subgroupoids(g, budget=args.subgroupoid_budget):
        gen = sheaf.moerdijk_generator(g, u)
        out.append(
            {
                "subgroupoid": sorted(fintop.fmt_point(a) for a in u.arrow_set),
                "sheaf": jsonio.sheaf_to_json(gen, cap=args.open_cap),
            }
        )
    return {"generators": out, "family": "exhaustive"}, None


def _cmd_subobjects(args, inputs):
    g = _valid_groupoid(args, inputs)
    u = jsonio.subgroupoid_from_json(_load(args.sub, inputs), g)
    gen = sheaf.moerdijk_generator(g, u)
    lat = sheaf.subobject_lattice(gen, cap=args.open_cap)
    return {"lattice": jsonio.lattice_to_json(lat)}, None


def _cmd_logical_topology(args, inputs):
    mg = jsonio.model_groupoid_from_json(_load(args.models, inputs))
    derived = mg.derive(args.depth, args.tuple_cap)
    return {
        "groupoid": jsonio.groupoid_to_json(derived.groupoid, cap=args.open_cap),
        "achieved_depth": derived.depth,
        "stabilized": derived.stabilized,
    }, None


def _cmd_elim_params(args, inputs):
    mg = jsonio.model_groupoid_from_json(_load(args.models, inputs))
    verdict = logic.eliminates_parameters(mg, args.depth, args.tuple_cap)
    return {"verdict": verdict.to_json(), "answer": verdict.answer}, verdict.answer


def _cmd_etale_complete(args, inputs):
    mg = jsonio.model_groupoid_from_json(_load(args.models, inputs))
    completed = logic.etale_completion(mg)
    again = logic.etale_completion(completed)
    input_check = logic.is_etale_complete(mg, args.depth, args.tuple_cap)
    return {
        "completion": jsonio.model_groupoid_to_json(completed),
        "added_arrows": len(completed.arrows) - len(mg.arrows),
        "input_complete": input_check.to_json(),
        "idempotent": again.arrows == completed.arrows,
    }, None


def _cmd_compose(args, inputs):
    fwd1, leg1 = jsonio.cospan_from_json(_load(args.first, inputs))
    fwd2, leg2 = jsonio.cospan_from_json(_load(args.second, inputs))
    c1 = frac.make_cospan(fwd1, leg1, args.depth, args.tuple_cap, args.subgroupoid_budget)
    c2 = frac.make_cospan(fwd2, leg2, args.depth, args.tuple_cap, args.subgroupoid_budget)
    out = frac.compose(c1, c2, budget=args.subgroupoid_budget)
    return {"cospan": jsonio.cospan_to_json(out)}, None


def _cmd_morita_search(args, inputs):
    left = jsonio.model_groupoid_from_json(_load(args.left, inputs))
    right = jsonio.model_groupoid_from_json(_load(args.right, inputs))
    res = frac.morita_search(
        left, right, args.depth, args.tuple_cap, budget=args.subgroupoid_budget
    )
    result = {"verdict": res.verdict.to_json(), "answer": res.verdict.answer}
    if res.apex is not None:
        result["witness"] = {
            "apex": jsonio.model_groupoid_to_json(res.apex),
            "left_arrows": [jsonio.iso_to_json(a) for a in sorted(res.left_leg.sub.arrows, key=fintop.ckey)],
            "right_arrows": [jsonio.iso_to_json(a) for a in sorted(res.right_leg.sub.arrows, key=fintop.ckey)],
        }
    return result, res.verdict.answer


class _Parser(argparse.ArgumentParser):
    """Ends a bad command line in an InputError report (exit 3), not in
    argparse's exit 2, which here means an unknown verdict."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


# the limit and mode flags, each registered only on the commands that read it
_KNOBS = {
    "depth": {"type": int, "default": 1},
    "tuple-cap": {"type": int, "default": 2},
    "open-cap": {"type": int, "default": fintop.DEFAULT_OPEN_CAP},
    "subgroupoid-budget": {"type": int, "default": 4096},
    "mode": {"choices": (*weq.MODES, "all"), "default": "all"},
}

# command: (function, input flags with "?" marking an optional one, knobs it reads)
_TABLE = {
    "validate": (_cmd_validate, "space? groupoid? models?", "depth tuple-cap open-cap"),
    "topology": (_cmd_topology, "input", "open-cap"),
    "weq-check": (_cmd_check, "groupoid sub family?", "mode subgroupoid-budget open-cap"),
    "surjection-check": (_cmd_check, "groupoid sub family?", "subgroupoid-budget open-cap"),
    "inclusion-check": (_cmd_check, "groupoid sub family?", "subgroupoid-budget open-cap"),
    "factorize": (_cmd_factorize, "functor", "subgroupoid-budget open-cap"),
    "generators": (_cmd_generators, "groupoid sub?", "subgroupoid-budget open-cap"),
    "subobjects": (_cmd_subobjects, "groupoid sub", "open-cap"),
    "logical-topology": (_cmd_logical_topology, "models", "depth tuple-cap open-cap"),
    "elim-params": (_cmd_elim_params, "models", "depth tuple-cap"),
    "etale-complete": (_cmd_etale_complete, "models", "depth tuple-cap"),
    "compose": (_cmd_compose, "first second", "depth tuple-cap subgroupoid-budget"),
    "morita-search": (_cmd_morita_search, "left right", "depth tuple-cap subgroupoid-budget"),
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
            p.add_argument("--" + knob, **_KNOBS[knob])
        p.add_argument("--output", help="report path (default stdout)")
    return top


# built once per process: parse_args returns a fresh Namespace every call
_PARSER = build_parser()


def run(argv=None) -> int:
    args, inputs = None, {}
    report = {"command": None, "tool_version": __version__, "options": {}}
    try:
        args = _PARSER.parse_args(argv)
        report["command"] = args.command
        report["options"] = {
            k: v for k, v in sorted(vars(args).items())
            if k not in ("command", "output") and v is not None
        }
        result, answer = _TABLE[args.command][0](args, inputs)
        code = 0 if answer is None else _ANSWER_CODES[answer]
    except (InputError, NotModelPresented) as e:
        result, answer, code = {"error": str(e)}, None, 3
    except (BudgetExceeded, CapExceeded) as e:
        result, answer, code = {"error": str(e)}, None, 4
    except OracleDisagreement as e:
        result, answer, code = {"error": str(e)}, None, 5
    except CertificateError as e:
        result, answer, code = {"error": str(e)}, None, 1
    report["inputs"] = inputs
    report["result"] = result
    text = jsonio.dumps(report)
    if args is not None and args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
