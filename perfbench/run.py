"""hvcalc benchmark runner.

    python3 perfbench/run.py --workload engine-sweep --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout (the package is read from src/, not
installed).  Each run starts the workload in a fresh interpreter, so caches
start cold the same way every time.  Human-readable lines go to stderr; the
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones;
with --trace 1 the workload runs with spans around every layer call and the
metrics are the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "hvcalc" / "__init__.py").is_file():
        print("run.py: no src/hvcalc here; run from the root of an hvcalc "
              "checkout", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH="src", PYTHONHASHSEED="0")
    workdir = root / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    out = workdir / "result.json"
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out)]
    try:
        p = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: workload did not finish in {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    if p.returncode != 0 or not out.exists():
        print(f"run.py: workload exited with {p.returncode}", file=sys.stderr)
        return 1
    res = json.loads(out.read_text())

    for what in res["wrong"]:
        print(f"WRONG  {what}", file=sys.stderr)
    for what in res["known_defects"]:
        print(f"known defect  {what}", file=sys.stderr)
    if args.trace:
        metrics = res["layers"]
        print(f"spans written to {workdir / 'spans.jsonl'}", file=sys.stderr)
    else:
        metrics = {name: {"value": res[name], "unit": unit}
                   for name, unit in spec.END_TO_END.items()}
        shutil.rmtree(workdir)
    print(f"{args.workload} seed {args.seed}: {res['attempted']} ops, "
          f"{res['failed']} failed ({len(res['wrong'])} wrong outputs, "
          f"{len(res['known_defects'])} malformed inputs not rejected "
          "cleanly)", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"correct": not res["wrong"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
