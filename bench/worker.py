"""One run of one workload, in a fresh process started by run.py.

Set-up (import, input generation, warm-up) ends with a monotonic clock
reading that run.py turns into ``setup_s``.  Then every operation of
every pass runs in order, timed alone; its output is checked after the
timer stops.  The last line of stdout is a JSON summary.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_OPS = 40  # so that the tail percentile has ten samples beyond it


def tail_percentile(n: int) -> float:
    """The highest of TAIL_PERCENTILES with at least ten samples beyond it;
    the median below forty samples, where no percentile is a tail."""
    return next((p for p in TAIL_PERCENTILES if n * (100 - p) / 100 >= 10), 50.0)


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(len(sorted_values) * p / 100) - 1)]


def run_ops(ops, failures):
    """Run ops in order; return (times, failed, wrong)."""
    times, failed, wrong = [], 0, 0
    for op in ops:
        if op.prepare is not None:
            op.prepare()
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception:
            times.append(time.perf_counter() - t0)
            failed += 1
            failures.append(f"{op.kind}: raised {traceback.format_exc(limit=-1).strip()}")
            continue
        times.append(time.perf_counter() - t0)
        try:
            op.check(out)
        except Exception as exc:  # a malformed output can break a check anywhere
            failed += 1
            wrong += 1
            failures.append(f"{op.kind}: wrong output: {exc!r}")
    return times, failed, wrong


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    build = workloads.WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    workdir = os.path.join(ROOT, ".bench_out", f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    failures: list[str] = []
    try:
        count = max(1, round(args.seconds / workloads.PASS_SECONDS[args.workload]))
        passes = build(random.Random(args.seed), count, workdir, tracer)
        if count * len(passes[0]) < MIN_OPS:
            count = -(-MIN_OPS // len(passes[0]))
            passes = build(random.Random(args.seed), count, workdir, tracer)
        warm = build(random.Random(f"{args.seed}-warm"), 1, workdir, tracer, warm=True)
        _, warm_failed, warm_wrong = run_ops(warm[0], failures)
        ready = time.monotonic()
        if args.setup_only:
            print(json.dumps({"ready": ready}))
            return 0
        if tracer is not None:
            tracer.reset()
        ops = [op for ops in passes for op in ops]
        times, failed, wrong = run_ops(ops, failures)
        by_kind: dict = {}
        for op, t in zip(ops, times):
            by_kind.setdefault(op.kind, []).append(t)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    times.sort()
    n = len(times)
    tail = tail_percentile(n)
    doc = {
        "ready": ready,
        "attempted": n,
        "failed": failed,
        "passes": count,
        "correct": wrong == 0 and warm_wrong == 0,
        "warmup_failed": warm_failed,
        "timed_s": sum(times),
        "ops_per_s": (n - failed) / sum(times),
        "latency_p50_ms": 1000 * percentile(times, 50),
        "latency_tail_ms": 1000 * percentile(times, tail),
        "tail_percentile": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failures": failures[:20],
        "median_ms_by_kind": {k: 1000 * statistics.median(v) for k, v in by_kind.items()},
    }
    if tracer is not None:
        doc["per_layer"] = tracer.metrics()
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
