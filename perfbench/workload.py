"""One workload run, in a fresh interpreter started by run.py.

Closed loop: one client, one operation in flight.  Each op is timed on its
own; the clock is stopped while its output is checked, so the timed region
is the sum of the op times.  Checks that call into the program run after
the loop, once the metrics (and in a traced run the spans) are taken.  In
an untraced run, set-up is measured by spawns spread evenly between the ops,
so that it samples the whole run.  Results go to the JSON file named by
--out.

    PYTHONPATH=src python3 perfbench/workload.py --workload engine-sweep \
        --seed 1 --seconds 10 --trace 0 --out result.json
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import refs
import spec
import tracing

HERE = Path(__file__).resolve().parent
CLI_TIMEOUT_S = 60
SETUP_SPAWNS = 11


def setup_seconds() -> float:
    """Time from spawning an interpreter until ``import hvcalc`` returns."""
    code = "import hvcalc, time; print(time.monotonic())"
    t0 = time.monotonic()
    p = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, timeout=60)
    if p.returncode != 0:
        raise SystemExit(f"import hvcalc failed: {p.stderr.strip()}")
    return float(p.stdout) - t0


class Run:
    """Latencies, set-up times, failures and check results of one run."""

    def __init__(self, tracer, trace):
        self.tracer = tracer
        self.trace = trace
        self.latencies = []
        self.setups = []
        self.setup_at = []     # op indices to measure a set-up before
        self.failed = 0
        self.wrong = []        # well-formed ops whose output failed a check
        self.known = []        # malformed inputs not rejected cleanly

    def start(self, n_ops):
        if not self.trace:
            self.setup_at = [int((j + 0.5) * n_ops / SETUP_SPAWNS)
                             for j in range(SETUP_SPAWNS)]

    def timed(self, fn, *args):
        i = len(self.latencies)
        while self.setup_at and self.setup_at[0] == i:
            self.setup_at.pop(0)
            self.setups.append(setup_seconds())
        if self.tracer:
            self.tracer.op = i
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as e:  # an op that raises counts as failed
            self.latencies.append(time.perf_counter() - t0)
            self.failed += 1
            self.wrong.append(f"{args[0]}: raised {type(e).__name__}: {e}")
            return None
        self.latencies.append(time.perf_counter() - t0)
        return out

    def fail(self, what, known=False):
        self.failed += 1
        (self.known if known else self.wrong).append(what)


def run_engine(seed, seconds, run):
    from hvcalc import GeneratorWord, engine
    ref = refs.load("engine-sweep")
    words = inputs.engine_inputs(seed, seconds)
    run.start(len(words))

    def op(ops):
        return engine.extended_hvector(GeneratorWord(ops))

    for ops in words:
        h = run.timed(op, ops)
        if h is not None and refs.digest(refs.engine_text(h)) != ref[ops]:
            run.fail(f"{ops}: extended h-vector differs from the reference")

    def finish():
        # the aux fold again, by itself: outside the op, as it is a check
        for ops in words:
            if not engine.aux_hvector(GeneratorWord(ops)).is_palindromic():
                run.fail(f"{ops}: auxiliary vector is not palindromic")
    return finish


def run_oracle(seed, seconds, run):
    from hvcalc import FaceLattice, GeneratorWord, build, flaglin
    ref = refs.load("oracle-sweep")

    def op(ops):
        w = GeneratorWord(ops)
        lat = build(w)
        fv = lat.flag_vector()
        euler = lat.euler_ok()
        closed = lat.closed_under_intersection()
        agrees = fv == flaglin.word_flag_vector(w)
        back = FaceLattice.from_json(lat.to_json(), validate=True)
        return lat, fv, euler, closed, agrees, back

    words = inputs.oracle_inputs(seed, seconds)
    run.start(len(words))
    for ops in words:
        out = run.timed(op, ops)
        if out is None:
            continue
        lat, fv, euler, closed, agrees, back = out
        problems = [msg for bad, msg in (
            (refs.digest(refs.oracle_text(fv)) != ref[ops],
             "flag vector differs from the reference"),
            (not euler, "Euler relation fails"),
            (not closed, "not closed under intersection"),
            (not agrees, "lattice flag vector differs from the transforms"),
            (back.n != lat.n or back.faces != lat.faces,
             "JSON round trip changed the lattice"),
        ) if bad]
        if problems:
            run.fail(f"{ops}: " + "; ".join(problems))
    return lambda: None


def run_cli(seed, seconds, run, workdir, trace):
    ref = refs.load("cli-cold")
    commands = inputs.cli_inputs(seed, seconds, workdir)
    run.start(len(commands))
    env = dict(os.environ, PYTHONPATH="src")
    child = [sys.executable, str(HERE / "cli_child.py")]
    link_outputs = []
    for i, cmd in enumerate(commands):
        if trace:
            env["PERFBENCH_TRACE_OUT"] = str(workdir / f"trace-{i}.json")

        def op(argv):
            return subprocess.run(child + argv, env=env, capture_output=True,
                                  text=True, timeout=CLI_TIMEOUT_S)
        p = run.timed(op, cmd["argv"])
        if p is None:
            continue
        text = " ".join(cmd["argv"])
        if cmd["key"] is None:
            lines = [ln for ln in p.stderr.splitlines() if ln.strip()]
            if p.returncode != 2 or len(lines) != 1 or "Traceback" in p.stderr:
                run.fail(f"{text}: malformed input gave exit {p.returncode} "
                         f"and {len(lines)} stderr lines, not exit 2 and one "
                         "line", known=True)
        elif p.returncode != 0:
            run.fail(f"{text}: exit {p.returncode}: {p.stderr.strip()[-200:]}")
        elif refs.digest(p.stdout) != ref[cmd["key"]]:
            run.fail(f"{text}: output differs from the reference")
        elif cmd["kind"] == "links":
            link_outputs.append((cmd["word"], p.stdout.rstrip("\n"), text))

    def finish():
        # up to dimension 5 the link recursion must equal the linear extension
        from hvcalc import GeneratorWord, build, flaglin
        for word, out, text in link_outputs:
            lat = build(GeneratorWord(word))
            if flaglin.linear_h(lat.flag_vector()).render() != out:
                run.fail(f"{text}: link recursion differs from the linear "
                         "extension")
    return finish


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    workdir = args.out.parent

    tracer = None
    if args.trace and args.workload != "cli-cold":
        tracer = tracing.Tracer()
        tracer.install()
    run = Run(tracer, args.trace)
    if args.workload == "engine-sweep":
        finish = run_engine(args.seed, args.seconds, run)
    elif args.workload == "oracle-sweep":
        finish = run_oracle(args.seed, args.seconds, run)
    else:
        finish = run_cli(args.seed, args.seconds, run, workdir, args.trace)

    lat = run.latencies
    who = (resource.RUSAGE_CHILDREN if args.workload == "cli-cold"
           else resource.RUSAGE_SELF)
    result = {
        "setup_s": statistics.median(run.setups) if run.setups else None,
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p90_ms": percentile(lat, 90) * 1e3 if len(lat) > 1 else lat[0] * 1e3,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    if args.trace:
        if tracer:
            summary = tracer.summary()
            tracer.write_spans(workdir / "spans.jsonl")
        else:
            summary = merge_cli_traces(workdir, len(lat))
        result["layers"] = tracing.layer_metrics(summary, result["ops_per_s"])
    finish()
    result.update(attempted=len(lat), failed=run.failed, wrong=run.wrong,
                  known_defects=run.known)
    args.out.write_text(json.dumps(result))


def merge_cli_traces(workdir, n_commands) -> dict:
    """Merge the children's trace files into one summary and spans.jsonl."""
    parts = []
    with open(workdir / "spans.jsonl", "w") as spans:
        for i in range(n_commands):
            path = workdir / f"trace-{i}.json"
            if path.exists():
                data = json.loads(path.read_text())
                parts.append(data["summary"])
                for s in data["spans"]:
                    spans.write(json.dumps(s[:4] + [i]) + "\n")
                path.unlink()
    return tracing.merge(parts)


if __name__ == "__main__":
    main()
