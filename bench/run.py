"""Benchmark of topogrpd: seeded workloads, checked outputs, end-to-end and
per-layer metrics.  Standard library only.

Run from the repository root:

    python3 bench/run.py --workload corpus-inclusions --seed 0 --seconds 30 --trace 0

The package is imported from src/ of the same checkout.  Load is a closed
loop with one caller, in this single process, with no threads: an op
starts when the previous one has returned.

--trace 0  runs untraced passes until --seconds of op time are measured
           (and at least the workload's minimum number of passes), and
           prints the end-to-end metrics:
             ops_per_s    ops of a pass / the sum of their latencies
             op_p50_ms    median op latency
             op_tail_ms   latency at the highest percentile with at least
                          10 ops beyond it (printed with it)
             setup_s      median time to build a pass's inputs
             peak_rss_mb  peak resident memory of this process
           An op's latency is its median over the passes, in milliseconds
           at a reference CPU speed (see REFERENCE_PROBE_MS); the raw
           figures are printed as `unscaled`.
           Failed ops are the `failed` count of the result line; the
           failure ratio is printed above it.
--trace 1  runs a traced pass between two untraced ones, then a pass
           under cProfile, and prints the per-layer metrics, the tracing
           overhead and whether the trace and the profile agree on the
           function with the largest self time.  Its times are scaled as
           above; the profile's are not.

Every pass is built afresh from the seed, and every op's answer is checked
(see Checker).  The last line of standard output is the JSON result; the
full result, with the environment and input shape, and the spans of a
traced pass are written under .bench_out/.

--record runs one pass and stores its answers in bench/expected.json as
the expected answers for this seed.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import string
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
EXPECTED = BENCH / "expected.json"
CODES = string.ascii_letters + string.digits


def environment():
    """What the numbers were measured on."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "commit": commit_hash(),
        "src_sha256": source_digest(),
        "load": "closed loop, 1 caller, 1 process, no threads",
    }


def commit_hash():
    """HEAD of the checkout's git directory, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    """sha256 over the package sources, which names the code measured where
    the checkout carries no git metadata."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "topogrpd").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# -- passes and checks -----------------------------------------------------------

# The CPU speed of a shared machine drifts by 30% and more over minutes,
# with other tenants' load, so raw times of runs a few minutes apart are
# not comparable.  A probe -- a fixed pure-Python kernel doing what the
# package spends its time on: hashing frozensets, set algebra, dict
# inserts, sorting by a Python key -- is timed between the ops of every
# measured pass, and the pass's op times are scaled by
# REFERENCE_PROBE_MS / (its median probe time).  The reported times are
# thus milliseconds at the speed at which the probe takes
# REFERENCE_PROBE_MS (about the speed of a 2-core Intel Xeon runner
# when unloaded); the raw times are printed beside them.
REFERENCE_PROBE_MS = 5.0
PROBE_EVERY_NS = 250_000_000
_PROBE_SETS = [frozenset(random.Random(i).sample(range(40), 8)) for i in range(100)]


def probe_ns():
    start = time.perf_counter_ns()
    acc = {}
    for s in _PROBE_SETS:
        for u in _PROBE_SETS[:20]:
            acc[s | u] = len(s & u)
    sorted(acc, key=sorted)
    return time.perf_counter_ns() - start


def run_pass(ops, tracer=None, probes=None):
    """Run every op once; return (latencies in ns, outcomes).  An outcome is
    (answer, report digest) or the exception the op raised.  With a
    `probes` list, probe times are appended to it every PROBE_EVERY_NS
    of the pass, between ops.

    As in timeit, the cyclic garbage collector is off during the pass and
    runs before it: a collection costs time in proportion to the live heap,
    so it would charge one op for the caches that earlier ops of the pass
    left behind, at points that move with the seed.
    """
    latencies, outcomes = [], []
    clock = time.perf_counter_ns
    gc.collect()
    gc.disable()
    next_probe = 0
    try:
        for i, op in enumerate(ops):
            if probes is not None and clock() >= next_probe:
                probes.append(probe_ns())
                next_probe = clock() + PROBE_EVERY_NS
            if tracer is not None:
                tracer.op = i
            start = clock()
            try:
                ret = op.call()
            except Exception as e:  # an op's failure is counted, not fatal
                ret = e
            latencies.append(clock() - start)
            if not isinstance(ret, Exception):
                try:
                    ret = op.answer(ret)
                except Exception as e:  # a malformed report is a failure too
                    ret = e
            outcomes.append(ret)
    finally:
        gc.enable()
    return latencies, outcomes


class Checker:
    """Counts failed ops over all passes of a run.  An op fails when it
    raises (OracleDisagreement included), when its answer is not one the
    workload allows, when it differs from the answer recorded for this
    seed, or when its answer or report bytes differ from the first pass."""

    def __init__(self, expected):
        self.expected = expected
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.reasons = Counter()
        self.answers = Counter()

    def check(self, ops, outcomes):
        if self.first is None:
            self.first = outcomes
            self.answers.update(o[0] if isinstance(o, tuple) else "raised" for o in outcomes)
        count_ok = len(outcomes) == len(self.first) and (
            self.expected is None or len(outcomes) == len(self.expected))
        for i, (op, out) in enumerate(zip(ops, outcomes)):
            self.attempted += 1
            if isinstance(out, Exception):
                reason = f"{type(out).__name__}: {out}"[:200]
            elif not count_ok:
                reason = "op count differs from the first pass or the record"
            elif out[0] not in op.allowed:
                reason = f"answer {out[0]!r} not allowed for {op.group}"
            elif self.expected is not None and out[0] != self.expected[i]:
                reason = f"answer {out[0]!r} differs from the record for {op.group}"
            elif out != self.first[i]:
                reason = f"answer or report of {op.group} differs from the first pass"
            else:
                continue
            self.failed += 1
            self.reasons[reason] += 1


def load_expected(workload, seed):
    if not EXPECTED.is_file():
        return None
    entry = json.loads(EXPECTED.read_text()).get(workload)
    if entry is None or str(seed) not in entry["seeds"]:
        return None
    return [entry["answers"][CODES.index(c)] for c in entry["seeds"][str(seed)]]


def record_expected(workload, seed, answers):
    table = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    entry = table.setdefault(workload, {"answers": [], "seeds": {}})
    for a in answers:
        if a not in entry["answers"]:
            entry["answers"].append(a)
    entry["seeds"][str(seed)] = "".join(CODES[entry["answers"].index(a)] for a in answers)
    entry["seeds"] = dict(sorted(entry["seeds"].items(), key=lambda kv: int(kv[0])))
    EXPECTED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


# -- shape and metrics -------------------------------------------------------------


def _bucket(n):
    if n < 2:
        return str(n)
    k = n.bit_length() - 1
    return f"{2 ** k}-{2 ** (k + 1) - 1}"


def shape(ops, answers):
    """Input coverage of one pass: op count and histograms of arrow counts,
    family sizes (read after the timed passes, from warm caches) and answers."""
    from topogrpd import grpd

    families = Counter(_bucket(len(grpd.enumerate_open_subgroupoids(op.ambient)))
                       for op in ops if op.ambient is not None)
    return {
        "ops_per_pass": len(ops),
        "groups": dict(sorted(Counter(op.group.split(" ")[0] for op in ops).items())),
        "arrows": dict(sorted(Counter(op.arrows for op in ops).items())),
        "family_sizes": dict(sorted(families.items(), key=lambda kv: int(kv[0].split("-")[0]))),
        "answers": dict(sorted(answers.items())),
    }


PERCENTILES = (50.0, 75.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9)


def tail_percentile(samples):
    """Highest of PERCENTILES with at least 10 of `samples` beyond it."""
    return max([50.0] + [p for p in PERCENTILES if samples * (1 - p / 100) >= 10])


def latency_metrics(op_ns):
    """End-to-end latency metrics over the ops of one pass, each op at its
    median latency over the passes of the run."""
    lat = sorted(x / 1e6 for x in op_ns)
    pct = tail_percentile(len(lat))
    rank = math.ceil(pct / 100 * len(lat))
    tail = {"percentile": pct, "samples": len(lat), "beyond": len(lat) - rank}
    return {
        "ops_per_s": (len(lat) / (sum(lat) / 1e3), "1/s"),
        "op_p50_ms": (statistics.median(lat), "ms"),
        "op_tail_ms": (lat[rank - 1], "ms"),
    }, tail


def run_untraced(workload, seed, seconds, workdir, checker):
    """Passes until --seconds of op time (and the minimum pass count).

    Every pass runs the same ops on fresh inputs.  An op's latency is its
    median over the passes, each pass's times scaled by its probes (see
    REFERENCE_PROBE_MS); the raw figures go into the details.
    """
    setups, scaled, raw, probes, measured = [], [], [], [], 0
    while len(raw) < workload.min_passes or measured < seconds * 1e9:
        ops = None  # the previous pass's inputs and caches go before the next set-up
        start = time.perf_counter()
        ops = workload.build(seed, workdir)
        setups.append(time.perf_counter() - start)
        pass_probes = []
        lat, outcomes = run_pass(ops, probes=pass_probes)
        checker.check(ops, outcomes)
        factor = REFERENCE_PROBE_MS * 1e6 / statistics.median(pass_probes)
        scaled.append([x * factor for x in lat])
        raw.append(lat)
        probes += pass_probes
        measured += sum(lat)
    metrics, tail = latency_metrics([statistics.median(op) for op in zip(*scaled)])
    run_factor = REFERENCE_PROBE_MS * 1e6 / statistics.median(probes)
    metrics["setup_s"] = (statistics.median(setups) * run_factor, "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    unscaled, _ = latency_metrics([statistics.median(op) for op in zip(*raw)])
    unscaled["setup_s"] = (statistics.median(setups), "s")
    return metrics, {
        "passes": len(raw),
        "op_tail": tail,
        "setup_runs": len(setups),
        "probe_ms": {"median": statistics.median(probes) / 1e6, "samples": len(probes)},
        "unscaled": {k: v for k, (v, _) in unscaled.items()},
    }, ops


def run_traced(workload, seed, workdir, checker, spans_path):
    import trace
    from topogrpd import weq

    def checked_pass(ops, tracer=None):
        """(latencies, scale factor) of a pass, latencies scaled by the
        pass's probes as in run_untraced."""
        probes = []
        lat, outcomes = run_pass(ops, tracer, probes)
        checker.check(ops, outcomes)
        factor = REFERENCE_PROBE_MS * 1e6 / statistics.median(probes)
        return [x * factor for x in lat], factor

    # untraced passes before and after the traced one; the faster is the
    # reference for the overhead, so a cold first pass does not hide it.
    # Inputs are built before the tracer goes in, so set-up is not traced.
    before, _ = checked_pass(workload.build(seed, workdir))
    ops = workload.build(seed, workdir)
    tracer = trace.Tracer()
    tracer.install()
    try:
        traced, traced_factor = checked_pass(ops, tracer)
    finally:
        tracer.uninstall()
    tracer.write_spans(spans_path)
    ops = workload.build(seed, workdir)
    untraced = min(before, checked_pass(ops)[0], key=sum)
    route_ms = {}
    for mode in weq.MODES:
        lat = [ns / 1e6 for op, ns in zip(ops, untraced) if op.group.endswith(f"weq:{mode}")]
        route_ms[mode] = statistics.median(lat) if lat else 0.0

    ops = workload.build(seed, workdir)
    profile = cProfile.Profile()
    profile.enable()
    try:
        _, outcomes = run_pass(ops)
    finally:
        profile.disable()
    checker.check(ops, outcomes)
    profiled = trace.profile_self_ms(profile)

    traced_self = {n: ns / 1e6 * traced_factor for n, ns in tracer.self_ns.items()}
    agreement = {
        "trace_top": trace.top(traced_self),
        "trace_top_self_ms": traced_self.get(trace.top(traced_self), 0.0),
        "profile_top": trace.top(profiled),
        "profile_top_self_ms": profiled.get(trace.top(profiled), 0.0),
    }
    agreement["agree"] = agreement["trace_top"] == agreement["profile_top"]

    metrics = {}
    for name in trace.SPAN_NAMES:
        metrics[f"{name}.calls"] = (tracer.calls[name], "count")
        metrics[f"{name}.self_ms"] = (traced_self.get(name, 0.0), "ms")
    for layer in trace.TRACED:
        metrics[f"{layer}.self_ms"] = (
            sum(v for n, v in traced_self.items() if n.startswith(layer + ".")), "ms")
    for mode, ms in route_ms.items():
        metrics[f"weq.route_ms.{mode}"] = (ms, "ms")
    for name in trace.COUNTERS:
        metrics[name] = (tracer.counts[name], "count")
    metrics["grpd.closure_yield"] = (tracer.closure_yield(), "ratio")
    metrics["trace.overhead_ratio"] = (sum(traced) / sum(untraced), "ratio")
    metrics["trace.cprofile_agree"] = (int(agreement["agree"]), "count")
    return metrics, {"spans": len(tracer.spans), "cprofile_check": agreement}, ops


# -- main --------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "topogrpd" / "__init__.py").is_file():
        print(f"bench: no package source at {src / 'topogrpd'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import topogrpd
    import workloads

    if Path(topogrpd.__file__).resolve().parent != (src / "topogrpd").resolve():
        print(f"bench: topogrpd imported from {topogrpd.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT)
    try:
        if args.record:
            ops = workload.build(args.seed, workdir)
            _, outcomes = run_pass(ops)
            bad = [(op.group, o) for op, o in zip(ops, outcomes)
                   if not isinstance(o, tuple) or o[0] not in op.allowed]
            if bad:
                print(f"bench: not recording, {len(bad)} ops failed: {bad[:3]}", file=sys.stderr)
                return 1
            record_expected(workload.name, args.seed, [o[0] for o in outcomes])
            print(f"recorded {len(ops)} answers of {workload.name} seed {args.seed}")
            return 0
        checker = Checker(load_expected(workload.name, args.seed))
        tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            metrics, info, ops = run_traced(workload, args.seed, workdir, checker,
                                            OUT / f"{tag}-spans.jsonl")
        else:
            metrics, info, ops = run_untraced(workload, args.seed, args.seconds, workdir, checker)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    details = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "shape": shape(ops, checker.answers),
        "answers_checked_against_record": checker.expected is not None,
        "op_fail_ratio": checker.failed / checker.attempted,
        "failures": dict(checker.reasons.most_common(10)),
        **info,
    }
    (OUT / f"{tag}.json").write_text(json.dumps({**details, "result": result}, indent=1) + "\n")
    for key in ("environment", "shape", "answers_checked_against_record", "op_fail_ratio",
                "failures", *info):
        print(f"{key}: {json.dumps(details[key])}")
    if args.trace:
        for layer in sorted({n.split(".")[0] for n in metrics if n.endswith(".calls")}):
            reached = [(n[:-len(".calls")], int(v)) for n, (v, _) in metrics.items()
                       if n.startswith(layer + ".") and n.endswith(".calls") and v]
            if reached:
                print(f"layer {layer}: self {metrics[layer + '.self_ms'][0]:.1f} ms; "
                      + ", ".join(f"{n} {c} calls {metrics[n + '.self_ms'][0]:.1f} ms"
                                  for n, c in reached))
    for name, (value, unit) in metrics.items():
        if not args.trace or not name.endswith((".calls", ".self_ms")):
            print(f"{name} = {value} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
