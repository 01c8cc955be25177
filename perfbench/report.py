"""Steadiness report: N runs per workload, each metric's median and spread.

    python3 perfbench/report.py --sets 10 [--seconds 15] [--workloads cli-cold]
                                [--first-seed 1] [--trace] [--json out.json]

Runs run.py once per seed for each workload (seeds first-seed ..
first-seed+sets-1), then prints for every end-to-end metric the median,
the quartiles (statistics.quantiles, n=4) and the interquartile spread as a
share of the median, next to the metric's bound from BENCHMARK.json.  A
spread above a third of its bound is marked.  With --trace it adds one
traced run per workload: per-layer self time as a share of the traced
total, and the trace overhead (traced over untraced ops_per_s).  Every run's
output checks are reported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import spec
from tracing import SPANNED

HERE = Path(__file__).resolve().parent


def run(workload, seed, seconds, trace):
    p = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True)
    if p.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{p.stderr}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--sets", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=spec.SPEC["run_seconds"])
    ap.add_argument("--workloads", nargs="*",
                    default=list(spec.WORKLOADS))
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--json", type=Path, help="also write the figures here")
    args = ap.parse_args()
    bounds = spec.BOUNDS

    saved = {}
    for workload in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.sets):
            r = run(workload, seed, args.seconds, 0)
            runs.append(r)
            print(f"{workload} seed {seed}: correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']}", flush=True)
        print(f"\n{workload}: {len(runs)} runs, all outputs correct: "
              f"{all(r['correct'] for r in runs)}, failed ops "
              f"{sum(r['failed'] for r in runs)}/{sum(r['attempted'] for r in runs)}")
        print(f"  {'metric':14s} {'unit':6s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'spread':>8s} {'bound':>6s}")
        saved[workload] = {}
        for name in bounds:
            vals = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            mark = "  <- above bound/3" if spread > bounds[name] / 3 else ""
            print(f"  {name:14s} {unit:6s} {med:12.5g} {q1:12.5g} {q3:12.5g} "
                  f"{spread:8.3f} {bounds[name]:6.2f}{mark}")
            saved[workload][name] = {"unit": unit, "median": med, "q1": q1,
                                     "q3": q3, "spread": spread,
                                     "values": vals}
        if args.trace:
            t = run(workload, args.first_seed, args.seconds, 1)["metrics"]
            total = sum(t[f"{layer}.self_s"]["value"] for layer in SPANNED)
            overhead = (saved[workload]["ops_per_s"]["median"]
                        / t["trace.ops_per_s"]["value"])
            print(f"  traced run: untraced/traced ops_per_s = {overhead:.3f}; "
                  "layer self time shares:")
            print("    " + ", ".join(
                f"{layer} {t[f'{layer}.self_s']['value'] / total:.1%}"
                for layer in SPANNED))
            saved[workload]["trace"] = {k: v["value"] for k, v in t.items()}
        print(flush=True)
    if args.json:
        import numpy
        saved["conditions"] = {
            "cores": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "seconds": args.seconds,
            "seeds": [args.first_seed, args.first_seed + args.sets - 1]}
        args.json.write_text(json.dumps(saved, indent=1))


if __name__ == "__main__":
    main()
