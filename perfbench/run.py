"""Runs one workload of the cf3 benchmark and prints its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; cf3 is imported from its ``src``.  Lines
starting with ``#`` describe the run (machine, operations, verdict digest,
checks, trace split); the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Exits 2 without a
result when the checkout holds no cf3 sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

import numpy

import program
from spans import Tracer
from workloads import WORKLOADS

SETUP_SAMPLES = 3
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up, print 'ready' and exit (used to time set-up)")
    return ap.parse_args(argv)


def set_up(workload, seed, seconds):
    """Import cf3, make the inputs and warm the lazy grids: set-up proper."""
    mods = program.load()
    plan = workload.plan(seed, seconds)
    workload.warm_up(mods)
    return mods, plan


def time_set_up(args):
    """Wall time from spawning a fresh interpreter to the end of its set-up,
    once per sample."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        samples.append(time.perf_counter() - start)
        _, err = proc.communicate(timeout=170)
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError("set-up probe failed: %s" % err.strip()[-500:])
    return samples


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_timed(workload, mods, plan, recorder, tracer):
    records, times, failures = [], [], []
    c0, w0 = time.process_time(), time.perf_counter()
    ctx = workload.start(mods)
    for batch in plan:
        for item in batch:
            if tracer is not None:
                tracer.op = len(times)
            start = time.perf_counter()
            try:
                rec = workload.run(mods, recorder, ctx, item)
            except Exception as exc:  # an operation that raises is counted as failed
                rec = None
                failures.append("%s: %s" % (type(exc).__name__, exc))
            times.append(time.perf_counter() - start)
            records.append(rec)
    w1, c1 = time.perf_counter(), time.process_time()
    return ctx, records, times, failures, w1 - w0, c1 - c0, w0


def main(argv=None):
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        set_up(workload, args.seed, args.seconds)
        print("ready", flush=True)
        return 0
    try:
        program.load()
    except program.MissingProgram as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    load_before = os.getloadavg()
    setup_samples = [] if args.trace else time_set_up(args)
    mods, plan = set_up(workload, args.seed, args.seconds)
    recorder = program.FormRecorder(mods["frobenius"]) if workload.uses_forms else None
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(mods)
    ctx, records, times, failures, wall, cpu, origin = run_timed(
        workload, mods, plan, recorder, tracer)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    done = [r for r in records if r is not None]
    errors = [e for rec in done for e in workload.check_answer(rec)]
    errors += workload.check_run(done, ctx)
    digest = hashlib.sha256("\n".join(
        workload.digest_line(r) if r is not None else "failed" for r in records
    ).encode()).hexdigest()
    attempted, failed = len(records), len(failures)
    certified = sum(1 for r in done if workload.certified(r))

    print("# perfbench %s" % json.dumps({"workload": args.workload, "seed": args.seed,
                                         "seconds": args.seconds, "trace": args.trace}))
    print("# machine %s" % json.dumps({
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
        "python": sys.version.split()[0], "numpy": numpy.__version__}))
    if setup_samples:
        print("# setup_samples_s %s" % json.dumps(setup_samples))
    print("# ops %s" % json.dumps({
        "rounds": len(plan), "attempted": attempted, "failed": failed,
        "certified": certified, "timed_wall_s": wall, "timed_cpu_s": cpu,
        "outcomes": Counter(workload.outcome(r) for r in done)}))
    for msg in failures[:5]:
        print("# failed %s" % msg)
    print("# digest sha256:%s" % digest)
    print("# checks %s" % json.dumps({"errors": len(errors), "first": errors[:5]}))

    if tracer is not None:
        _, _, self_s = tracer.summary()
        roots = sum(end - start for _, start, end, parent, _ in tracer.spans if parent < 0)
        path = os.path.join(OUT_DIR, "trace-%s-seed%d.csv" % (args.workload, args.seed))
        tracer.write(path, origin)
        print("# trace %s" % json.dumps({
            "timed_wall_s": wall, "root_spans_s": roots, "spans": len(tracer.spans),
            "self_s": dict(sorted(self_s.items(), key=lambda kv: -kv[1])),
            "file": os.path.relpath(path, program.ROOT)}))
        metrics = tracer.layer_metrics()
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "matrices_per_s": {"value": (attempted - failed) / wall, "unit": "1/s"},
            "cpu_ms_per_matrix": {"value": cpu * 1e3 / attempted, "unit": "ms"},
            "op_ms_p50": {"value": statistics.median(times) * 1e3, "unit": "ms"},
            "op_ms_p90": {"value": percentile(times, 0.9) * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            "certified_answers": {"value": certified, "unit": "count"},
        }
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
