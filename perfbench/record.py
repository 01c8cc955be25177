"""Record the reference output digests over every workload's input universe.

    PYTHONPATH=src python3 perfbench/record.py [engine-sweep|oracle-sweep|cli-cold ...]

The committed files under perfbench/reference/ were recorded from the seed
commit of the benchmark; rerun this only when an output format changes on
purpose, and say so.  CLI commands run in process here; their standard
output is the same as in a fresh interpreter.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

import inputs
import refs


def record_engine():
    from hvcalc import GeneratorWord, extended_hvector
    return {ops: refs.digest(refs.engine_text(extended_hvector(GeneratorWord(ops))))
            for ops in inputs.engine_universe()}


def record_oracle():
    from hvcalc import GeneratorWord, build
    return {ops: refs.digest(refs.oracle_text(build(GeneratorWord(ops)).flag_vector()))
            for ops in inputs.oracle_universe()}


def record_cli():
    from hvcalc.cli import main
    tmp = Path(".perfbench") / "record"
    tmp.mkdir(parents=True, exist_ok=True)
    out = {}
    for key in inputs.cli_universe():
        argv = []
        for tok in key.split(" "):
            if tok.startswith("file:"):
                path = tmp / "lattice.json"
                path.write_text(json.dumps(
                    inputs.lattice_json(tok[5:-1], random.Random(0))))
                tok = str(path)
            argv.append(tok)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = main(argv)
        if rc:
            raise SystemExit(f"{key}: exit {rc}")
        out[key] = refs.digest(buf.getvalue())
    return out


RECORDERS = {"engine-sweep": record_engine, "oracle-sweep": record_oracle,
             "cli-cold": record_cli}

if __name__ == "__main__":
    for name in sys.argv[1:] or RECORDERS:
        refs.save(name, RECORDERS[name]())
        print(f"recorded {name}", file=sys.stderr)
