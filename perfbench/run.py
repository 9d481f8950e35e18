#!/usr/bin/env python3
"""Benchmark of henonlocus: three closed-loop workloads with a traced mode.

Run from the root of a checkout:

    python3 perfbench/run.py --workload field|certify|rigidity \
        --seed N --seconds S --trace 0|1

--trace 0 measures the end-to-end metrics, after timing the set-up in
fresh interpreters: one client issues operations back to back until S
seconds of operation time have passed, then finishes the input cycle in
flight (every cycle has the same mix of operations).  Last, untimed, it
tries once each input the package is known to refuse.
--trace 1 runs a fixed list of operations, sized from S, twice -- untraced,
then with spans around every layer entry point -- and reports the
per-layer metrics and the tracing overhead; its counts repeat exactly at
a fixed seed.  Every operation's result is checked against its
certificate either way.

Output: a provenance line, a details line (failure tally by exception
type, per-operation latencies, sample counts) and, last, the result line
{"correct", "attempted", "failed", "metrics"}.  The exit code is 1 when a
result violates its certificate (or a traced result differs from the
untraced one), 2 when the package is missing or an argument is bad.
See perfbench/README.md for why each workload and metric exists.
"""

import argparse
import collections
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

from pkgpath import ROOT, add_package_path

SETUP_PROBES = 5
SPAN_DIR = ".perfbench"

# The tail latency on the details line is taken at the highest percentile
# with at least ten completed operations beyond it at the configured run
# length.  Rigidity completes two or three operations: it has no such
# percentile, so it reports none.
TAIL_PERCENTILE = {"field": 70, "certify": 90}

# Traced-mode op list length per second of --seconds, sized so the two
# passes take about as long as a measured run (rigidity: always one op).
TRACE_OPS_PER_S = {"field": 0.5, "certify": 1.5, "rigidity": 0.0}

LAYER_UNITS = {
    "kernel.calls": "count",
    "kernel.busy_s": "s",
    "kernel.us_per_call": "us",
    "kernel.entry_steps": "count",
    "kernel.no_escape_frac": "frac",
    "escape.calls": "count",
    "escape.self_s": "s",
    "gridfield.px": "count",
    "gridfield.render_s": "s",
    "gridfield.export_s": "s",
    "gridfield.export_bytes": "bytes",
    "gridfield.thread_util": "frac",
    "locus.tangency_calls": "count",
    "locus.locate_calls": "count",
    "locus.tangency_per_locate": "ratio",
    "locus.trace_s": "s",
    "locus.cover_s": "s",
    "locus.contact_s": "s",
    "holonomy.orbit_s": "s",
    "holonomy.tangency_calls": "count",
    "manifolds.graph_s": "s",
    "manifolds.index_s": "s",
    "manifolds.uv_calls": "count",
    "manifolds.green_calls": "count",
    "series.mp_mul_calls": "count",
    "series.mp_mul_pairs": "count",
    "series.mp_mul_s": "s",
    "series.ts_mul_calls": "count",
    "series.trim_keep_ratio": "frac",
    "rigidity.phi_series_s": "s",
    "rigidity.locus_series_s": "s",
    "rigidity.chart_s": "s",
    "rigidity.sigma_s": "s",
    "rigidity.defect_s": "s",
    "rigidity.cases_s": "s",
    "trace_overhead": "frac",
}


class Tally:
    """Attempts, failures by type, latencies of completed ops, result digests."""

    def __init__(self):
        self.attempted = 0
        self.failures = collections.Counter()
        self.first_error = {}
        self.wrong = []
        self.latencies = []
        self.by_op = collections.defaultdict(list)
        self.busy = 0.0
        self.digests = []

    @property
    def failed(self):
        return sum(self.failures.values())

    def run(self, op, tracer=None):
        self.attempted += 1
        error = None
        if tracer is not None:
            tracer.op = self.attempted
        start = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # an op boundary: tally it and go on
            error = exc
        finally:
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.op = None
        self.busy += elapsed
        if error is not None:
            kind = type(error).__name__
            self.failures[kind] += 1
            self.first_error.setdefault(kind, f"{op.name}: {error}")
            self.digests.append((op.name, "raised", kind))
            return
        problem = op.check(result)
        if problem is not None:
            self.failures["WrongAnswer"] += 1
            self.wrong.append(f"op {self.attempted} ({op.name}): {problem}")
        else:
            self.latencies.append(elapsed)
            self.by_op[op.name].append(elapsed)
        self.digests.append((op.name, op.digest(result)))


def percentile(values, q):
    """Nearest-rank percentile (q in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def git_sha(root):
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
    except OSError:
        return None  # not a git checkout
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(git, ref), encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                sha, _, name = line.strip().partition(" ")
                if name == ref:
                    return sha
    except OSError:
        pass
    return None


def provenance(args, workers, workload):
    import numpy
    import henonlocus
    from henonlocus import _kernel

    return {
        "git_sha": git_sha(ROOT),
        "version": henonlocus.__version__,
        "backend": _kernel.BACKEND,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "workers": workers,
        "workload": args.workload,
        "maps": workload.provenance(),
    }


def setup_probe(args, workers):
    """Seconds from spawning a fresh interpreter to its "ready" line."""
    cmd = [
        sys.executable,
        os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py"),
        "setup",
        args.workload,
        str(args.seed),
        str(workers),
    ]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe exited {code}")
    return elapsed


def host_ms():
    """Milliseconds a fixed pure-Python loop takes: a yardstick for host speed,
    reported beside the metrics so host noise can be told from a change."""
    start = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    return 1e3 * (time.perf_counter() - start)


def peak_rss_mb():
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def refusal_outcomes(workload, tally):
    """Run each known refusal once: "refused: <type>", "passed" or a wrong answer."""
    outcomes = {}
    for label, op in workload.refusal_probes():
        try:
            result = op.run()
        except Exception as exc:  # the expected outcome: a typed refusal
            outcomes[label] = f"refused: {type(exc).__name__}"
            continue
        problem = op.check(result)
        if problem is not None:
            tally.wrong.append(f"known refusal {label}: {problem}")
        outcomes[label] = problem or "passed"
    return outcomes


def measure(args, workers):
    """--trace 0: the end-to-end metrics of one closed-loop run."""
    import workloads

    setups = [setup_probe(args, workers) for _ in range(SETUP_PROBES)]
    workload = workloads.setup(args.workload, args.seed, workers)
    tally = Tally()
    cycle, cycles = 0, 0
    for op in workload.ops():
        if op.cycle != cycle:
            cycle, cycles = op.cycle, cycles + 1
            if tally.busy >= args.seconds:
                break
        tally.run(op)
    setups += getattr(workload, "setup_samples", [])
    if not tally.latencies:
        raise RuntimeError("no operation completed")
    metrics = {
        "ops_per_s": (len(tally.latencies) / tally.busy, "1/s"),
        "op_ms_p50": (1e3 * statistics.median(tally.latencies), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    details = {
        "completed": len(tally.latencies),
        "cycles": cycles,
        "known_refusals": refusal_outcomes(workload, tally),
        "setup_samples": len(setups),
        "busy_s": tally.busy,
        "by_op": {
            name: {"n": len(v), "p50_ms": 1e3 * statistics.median(v)}
            for name, v in sorted(tally.by_op.items())
        },
    }
    q = TAIL_PERCENTILE.get(args.workload)
    if q is not None:
        details["op_ms_tail"] = {
            "percentile": q,
            "value": 1e3 * percentile(tally.latencies, q),
            "samples": len(tally.latencies),
        }
    return workload, tally, metrics, details, True


def traced(args, workers):
    """--trace 1: the per-layer metrics of a fixed list of operations."""
    import tracing
    import workloads

    os.makedirs(os.path.join(ROOT, SPAN_DIR), exist_ok=True)
    spans_path = os.path.join(ROOT, SPAN_DIR, f"spans-{args.workload}-{args.seed}.jsonl")
    count = max(1, round(args.seconds * TRACE_OPS_PER_S[args.workload]))

    plain = workloads.setup(args.workload, args.seed, workers)
    untraced = Tally()
    for op, _ in zip(plain.ops(), range(count)):
        untraced.run(op)

    workload = workloads.setup(args.workload, args.seed, workers)
    tally = Tally()
    if args.workload == "rigidity":
        workload.spans_path = spans_path
        for op, _ in zip(workload.ops(), range(count)):
            tally.run(op)
        spans = tracing.read_spans(spans_path)
        main_thread = workload.reports[-1]["main_thread"]
        overhead_base = sum(r["pipeline_s"] for r in plain.reports)
        overhead_traced = sum(r["pipeline_s"] for r in workload.reports)
    else:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            for op, _ in zip(workload.ops(), range(count)):
                tally.run(op, tracer)
        finally:
            tracer.uninstall()
        tracer.write(spans_path)
        spans = tracer.spans
        main_thread = tracer.main_thread
        overhead_base, overhead_traced = untraced.busy, tally.busy

    values = tracing.layer_metrics(spans, workers, main_thread)
    values["trace_overhead"] = overhead_traced / overhead_base - 1.0
    metrics = {name: (values[name], unit) for name, unit in LAYER_UNITS.items()}
    identical = untraced.digests == tally.digests
    details = {
        "trace_ops": count,
        "spans": len(spans),
        "spans_file": os.path.relpath(spans_path, ROOT),
        "untraced_busy_s": untraced.busy,
        "traced_busy_s": tally.busy,
        "traced_equals_untraced": identical,
    }
    tally.attempted += untraced.attempted
    tally.failures.update(untraced.failures)
    tally.wrong += untraced.wrong
    return workload, tally, metrics, details, identical


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("field", "certify", "rigidity"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not add_package_path():
        print("henonlocus package not found under src/ of the working directory", file=sys.stderr)
        return 2
    workers = os.cpu_count() or 1
    run = traced if args.trace else measure
    host_before = host_ms()
    workload, tally, metrics, details, identical = run(args, workers)
    details["host_ms"] = [host_before, host_ms()]

    details.update(
        workload=args.workload,
        attempted=tally.attempted,
        failed=tally.failed,
        fail_frac=tally.failed / tally.attempted,
        failures_by_type=dict(sorted(tally.failures.items())),
        first_error=tally.first_error,
        wrong_answers=tally.wrong,
    )
    correct = not tally.wrong and identical
    print(json.dumps({"provenance": provenance(args, workers, workload)}))
    print(json.dumps({"details": details}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
