"""The benchmark's workload and metric names, read from BENCHMARK.json.

BENCHMARK.json sits at the root of the checkout, one level above this
directory; every other file takes the names and units from here.
"""

from __future__ import annotations

import json
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent
                   / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
