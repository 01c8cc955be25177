"""Run one hvcalc command through hvcalc.cli.main in this fresh interpreter.

    PYTHONPATH=src python3 perfbench/cli_child.py hvec CIC.

When PERFBENCH_TRACE_OUT names a file, the tracer is installed before the
command runs and its summary and spans are written there on exit.
"""

import json
import os
import sys

trace_out = os.environ.get("PERFBENCH_TRACE_OUT")
if not trace_out:
    from hvcalc.cli import main
    sys.exit(main(sys.argv[1:]))

import tracing  # noqa: E402

tracer = tracing.Tracer()
tracer.install()
from hvcalc.cli import main  # noqa: E402

try:
    sys.exit(main(sys.argv[1:]))
finally:
    with open(trace_out, "w") as fh:
        json.dump({"summary": tracer.summary(),
                   "spans": [s for s in tracer.spans if s is not None]}, fh)
