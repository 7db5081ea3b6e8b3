"""Steadiness check: run every workload of BENCHMARK.json several times,
alternating the workloads, and print each end-to-end metric's median,
quartiles and spread (interquartile range over median), as
``statistics.quantiles`` gives them.

    python3 bench/steady.py [--runs 10]

Run i of every workload uses seed FIRST_SEED + i; the run length is
BENCHMARK.json's run_seconds.  The bounds in BENCHMARK.json are set from
what this prints.  A summary also goes to .bench_out/steady.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FIRST_SEED = 301


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args(argv)
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = {w: [] for w in names}
    for i in range(args.runs):
        for w in names:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                   "--seed", str(FIRST_SEED + i), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, check=True, timeout=200)
            doc = json.loads(out.stdout.strip().splitlines()[-1])
            results[w].append(doc)
            print(f"{w} seed {FIRST_SEED + i}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in doc["metrics"].items()), flush=True)
    summary = {}
    for w, docs in results.items():
        shares = sorted({d["failed"] / d["attempted"] for d in docs})
        print(f"\n{w}: attempted {sorted({d['attempted'] for d in docs})}, failed share {shares}, "
              f"correct {all(d['correct'] for d in docs)}")
        summary[w] = {}
        for metric in docs[0]["metrics"]:
            values = [d["metrics"][metric]["value"] for d in docs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / statistics.median(values)
            summary[w][metric] = {"median": statistics.median(values), "q1": q1, "q3": q3, "spread": spread}
            bound = bounds.get(metric)
            flag = "" if bound is None or spread < bound / 3 else "  <-- at least a third of the bound"
            print(f"  {metric:16s} median {statistics.median(values):10.4g}  q1 {q1:10.4g}  q3 {q3:10.4g}"
                  f"  spread {spread:6.3f}  bound {bound}{flag}")
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_out", "steady.json"), "w") as fh:
        json.dump({"runs": {w: docs for w, docs in results.items()}, "summary": summary}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
