"""Benchmark entry point: one run of one workload.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs the workload in a fresh single-threaded process (bench/worker.py)
for a fixed number of whole passes, derived from --seconds and the
workload's pass cost (see workloads.PASS_SECONDS), so every run with the
same --seconds does the same operations.  Set-up is measured
SETUP_SAMPLES times, in separate processes before and after the
measuring one, and reported as the median.
The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer ones
(--trace 1).  The full result also goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("cli_corpus", "large_graphs", "large_labels", "quotient_certs")
# the measuring process plus two set-up-only processes on either side of
# it, so the samples span the run rather than its first second
SETUP_SAMPLES = 5
TIMEOUT_S = 170

# one thread for numpy's BLAS and OpenMP pools; fixed hashing so that
# traced counts repeat exactly
WORKER_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def spawn(args, deadline: float) -> tuple[float, dict]:
    """Run the worker to completion; return (its set-up time, its summary)."""
    env = dict(os.environ, **WORKER_ENV)
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        stdout=subprocess.PIPE,
        env=env,
        cwd=ROOT,
        timeout=max(1.0, deadline - start),
        text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with code {proc.returncode}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    return doc["ready"] - start, doc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "gbsep", "__init__.py")):
        print("error: no gbsep sources under src/ next to the benchmark", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIMEOUT_S
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]

    def setup_only():
        return [spawn(common + ["--setup-only"], deadline)[0] for _ in range(SETUP_SAMPLES // 2)]

    before = setup_only()
    setup, doc = spawn(common + ["--trace", str(args.trace)], deadline)
    setups = before + [setup] + setup_only()
    doc["setup_samples_s"] = setups
    if args.trace:
        metrics = doc["per_layer"]
    else:
        metrics = {
            "ops_per_s": {"value": doc["ops_per_s"], "unit": "1/s"},
            "latency_p50_ms": {"value": doc["latency_p50_ms"], "unit": "ms"},
            "latency_tail_ms": {"value": doc["latency_tail_ms"], "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": doc["peak_rss_mb"], "unit": "MB"},
        }
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w") as fh:
        json.dump(doc, fh, indent=1)
    for line in doc["failures"]:
        print(line, file=sys.stderr)
    print(json.dumps({"correct": doc["correct"], "attempted": doc["attempted"], "failed": doc["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
