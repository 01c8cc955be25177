"""Reference output digests, recorded from the seed commit by record.py."""

from __future__ import annotations

import hashlib
from pathlib import Path

REF_DIR = Path(__file__).resolve().parent / "reference"
FILES = {"engine-sweep": "engine.tsv", "oracle-sweep": "oracle.tsv",
         "cli-cold": "cli.tsv"}


def digest(text: str) -> str:
    return hashlib.sha1(text.encode()).hexdigest()[:12]


def load(workload: str) -> dict:
    out = {}
    with open(REF_DIR / FILES[workload]) as fh:
        for line in fh:
            key, value = line.rstrip("\n").split("\t")
            out[key] = value
    return out


def save(workload: str, mapping: dict):
    REF_DIR.mkdir(exist_ok=True)
    with open(REF_DIR / FILES[workload], "w") as fh:
        for key in sorted(mapping):
            fh.write(f"{key}\t{mapping[key]}\n")


# What is digested for each workload's outputs.

def engine_text(h) -> str:
    return h.render()


def oracle_text(fv) -> str:
    return repr(fv.as_vector())
