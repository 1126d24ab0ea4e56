"""Outside-in tracing of the package's layers, and its check against cProfile.

The package is not edited: `install` replaces each traced public function
by a wrapper in every topogrpd module namespace that binds it (weq binds
fintop.sorted_points and grpd binds fintop.ckey directly, for instance)
and on the class that owns a traced method.  A wrapper records a span
(id, parent span, op id, name, start, end) in memory and adds its
duration to the parent's child time, so a span's self time is its
duration minus the time of its child spans.  Work counters are taken
from return values, so a cache hit counts like a miss.
"""

from __future__ import annotations

import itertools
import json
import pstats
import sys
import time
from collections import Counter, defaultdict

from topogrpd import cli, fintop, frac, grpd, jsonio, logic, sheaf, weq

# layer -> (module, [(span label, attribute path in the module)])
TRACED = {
    "fintop": (fintop, [("opens", "FinSpace.opens"), ("quotient_space", "quotient_space"),
                        ("generate_topology", "generate_topology"),
                        ("is_quasi_homeomorphism", "is_quasi_homeomorphism"),
                        ("fiber_product", "fiber_product")]),
    "grpd": (grpd, [(n, n) for n in (
        "enumerate_open_subgroupoids", "subgroupoid_closure", "bi_orbit_space", "iota_map",
        "object_orbit_closure", "transformations", "validate_groupoid",
        "Subgroupoid.inclusion_functor")]),
    "sheaf": (sheaf, [(n, n) for n in (
        "moerdijk_generator", "inverse_image", "subobject_lattice", "subobject_restriction")]),
    "weq": (weq, [(n, n) for n in (
        "is_weak_equivalence", "is_localic_surjection", "is_subtopos_inclusion",
        "skula_witness", "source_determined_witness")]),
    "logic": (logic, [(n, n) for n in (
        "logical_topologies", "DefinableSets.level", "eliminates_parameters",
        "etale_completion", "all_isos_between_members")]),
    "frac": (frac, [(n, n) for n in (
        "make_cospan", "merge_and_complete", "ore_complete", "compose",
        "cospans_isomorphic", "morita_search")]),
    # every reader is one span name and every writer another
    "jsonio": (jsonio, [("read", n) for n in sorted(vars(jsonio))
                        if n.endswith("_from_json") or n == "digest"]
               + [("write", n) for n in sorted(vars(jsonio))
                  if n.endswith("_to_json") or n == "dumps"]),
    "cli": (cli, [("run", "run")]),
}

SPAN_NAMES = sorted({f"{layer}.{label}" for layer, (_, entries) in TRACED.items()
                     for label, _ in entries})
VERDICTS = ("yes", "no", "unknown")
COUNTERS = ("grpd.family_members", "fintop.open_sets", "sheaf.lattice_elements",
            *(f"weq.verdicts.{a}" for a in VERDICTS), "logic.definable_sets",
            "frac.apex_arrows", "jsonio.bytes_in", "jsonio.bytes_out")


def _resolve(module, path):
    owner = module
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    fn = getattr(owner, attr)
    return owner, attr, getattr(fn, "__wrapped__", fn)


def traced_functions():
    """[(span name, owner, attribute, original function)] for every traced function."""
    return [(f"{layer}.{label}", *_resolve(module, path))
            for layer, (module, entries) in TRACED.items() for label, path in entries]


# -- counters ----------------------------------------------------------------

def _count_family(tracer, out, args, frame, parent):
    tracer.counts["grpd.family_members"] += len(out)
    if frame[3]:  # the family was built here, not read from a cache
        tracer.counts["closure_calls"] += frame[3]
        tracer.counts["closure_members"] += len(out)


def _count_closure(tracer, out, args, frame, parent):
    if parent is not None and parent[1] == "grpd.enumerate_open_subgroupoids":
        parent[3] += 1


def _count_verdict(tracer, out, args, frame, parent):
    tracer.counts[f"weq.verdicts.{out.answer}"] += 1


def _counter(key, size):
    def count(tracer, out, args, frame, parent):
        tracer.counts[key] += size(out, args)
    return count


COUNT = {
    "grpd.enumerate_open_subgroupoids": _count_family,
    "grpd.subgroupoid_closure": _count_closure,
    "weq.is_weak_equivalence": _count_verdict,
    "weq.is_localic_surjection": _count_verdict,
    "weq.is_subtopos_inclusion": _count_verdict,
    "fintop.opens": _counter("fintop.open_sets", lambda out, args: len(out)),
    "sheaf.subobject_lattice": _counter("sheaf.lattice_elements", lambda out, args: len(out)),
    "logic.DefinableSets.level": _counter("logic.definable_sets", lambda out, args: len(out)),
    "frac.merge_and_complete": _counter("frac.apex_arrows", lambda out, args: len(out.arrows)),
}


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans = []  # (span id, parent span id, op id, name, start ns, end ns)
        self.stack = []  # open spans: [span id, name, child ns, closure calls]
        self.op = None
        self.calls = Counter()
        self.self_ns = Counter()
        self.counts = Counter()
        self._ids = itertools.count()
        self._installed = []

    def _wrap(self, name, attr, fn):
        stack, spans, calls, self_ns = self.stack, self.spans, self.calls, self.self_ns
        ids, clock = self._ids, time.perf_counter_ns
        count = COUNT.get(name)
        if attr == "digest":  # hashes the raw bytes of every input document
            count = _counter("jsonio.bytes_in", lambda out, args: len(args[0]))
        elif attr == "dumps":  # serialises every report
            count = _counter("jsonio.bytes_out", lambda out, args: len(out.encode()))

        def traced(*args, **kwargs):
            frame = [next(ids), name, 0, 0]
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += end - start
                calls[name] += 1
                self_ns[name] += end - start - frame[2]
                spans.append((frame[0], parent and parent[0], self.op, name, start, end))
            if count is not None:
                count(self, out, args, frame, parent)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "topogrpd" or n.startswith("topogrpd.")]
        for name, owner, attr, fn in traced_functions():
            wrapper = self._wrap(name, attr, fn)
            if isinstance(owner, type):
                self._installed.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._installed.append((m, key, fn))
                        setattr(m, key, wrapper)

    def uninstall(self):
        for owner, attr, fn in reversed(self._installed):
            setattr(owner, attr, fn)
        self._installed.clear()

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def closure_yield(self):
        calls = self.counts["closure_calls"]
        return self.counts["closure_members"] / calls if calls else 0.0


# -- the check against cProfile -------------------------------------------------

OUTSIDE = "(outside any traced function)"


def profile_self_ms(profile):
    """Self time per span name from a cProfile run without the tracer.

    cProfile's self time of an untraced helper (ckey, sorted, a private
    function) is handed up its callers, split by the time each caller
    edge recorded, until it reaches a traced function; that is where the
    tracer counts it, as self time of the enclosing span.
    """
    stats = pstats.Stats(profile).stats  # func -> (cc, nc, tottime, cumtime, callers)
    names = {}
    for name, _, _, fn in traced_functions():
        code = fn.__code__
        names[(code.co_filename, code.co_firstlineno, code.co_name)] = name
    memo = {}

    def owners(f, visiting):
        """Share of f's time owned by each span name."""
        if f in names:
            return {names[f]: 1.0}
        if f in memo:
            return memo[f]
        callers = {c: e for c, e in stats.get(f, (0, 0, 0, 0, {}))[4].items()
                   if c != f and c not in visiting}
        weight = {c: e[3] for c, e in callers.items()}
        if not sum(weight.values()):
            weight = {c: e[1] for c, e in callers.items()}
        total = sum(weight.values())
        share = defaultdict(float)
        if not total:
            share[OUTSIDE] = 1.0
        visiting.add(f)
        for c, w in weight.items():
            for name, s in owners(c, visiting).items():
                share[name] += s * w / total
        visiting.discard(f)
        memo[f] = share
        return share

    self_s = defaultdict(float)
    for f, (_, _, tottime, _, callers) in stats.items():
        if f in names:
            self_s[names[f]] += tottime
            continue
        edges = sum(e[2] for e in callers.values())
        for c, e in callers.items():
            for name, s in owners(f if c == f else c, set()).items():
                self_s[name] += e[2] * s
        self_s[OUTSIDE] += max(tottime - edges, 0.0)
    return {name: 1000 * s for name, s in self_s.items()}


def top(self_ms):
    """Span name with the largest self time."""
    inside = {k: v for k, v in self_ms.items() if k != OUTSIDE}
    return max(sorted(inside), key=inside.get) if inside else None
