"""Spans around calls into hvcalc's layers, installed from outside the package.

Every public function of each layer module is wrapped at every module that
binds it (``engine.apply_cone`` and ``links.apply_cone`` are one function,
so both names lead to the wrapper), and so are the methods of FaceLattice
and LinkCalculator and ``GeneratorWord.parse``.  The symbols layer gets
counters only: its constructors are hot enough that spans would swamp the
timings, so its time shows in its callers' self time.

A span is (name, start, end, parent, op); spans stay in memory and are
written out when the run ends.  A span's self time is its duration less the
durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict

import spec

LAYERS = ("symbols", "words", "engine", "lattice", "flaglin", "links",
          "terms", "checks", "cli")
SPANNED = LAYERS[1:]
CLASSES = {"lattice": ("FaceLattice",), "links": ("LinkCalculator",),
           "words": ("GeneratorWord",)}

# Named groups of spans: metric prefix -> span names (or name prefixes
# ending in ".").
GROUPS = {
    # the aux fold: the operator applications are its children
    "engine.aux_hvector": ("engine.aux_hvector", "engine.apply_cone",
                           "engine.apply_cylinder"),
    "engine.to_extended": ("engine.to_extended",),
    "engine.operator_applications": ("engine.apply_cone", "engine.apply_cylinder"),
    "lattice.build": ("lattice.build", "lattice.point", "lattice.empty_polytope",
                      "lattice.pyramid", "lattice.prism", "lattice.bipyramid",
                      "lattice.join", "lattice.FaceLattice.pyramid",
                      "lattice.FaceLattice.prism", "lattice.FaceLattice.bipyramid",
                      "lattice.FaceLattice.join"),
    "lattice.flag_vector": ("lattice.flag_vector", "lattice.FaceLattice.flag_vector",
                            "lattice.link_flag_vector",
                            "lattice.FaceLattice.link_flag_vector"),
    "lattice.closure": ("lattice.FaceLattice.closed_under_intersection",),
    "lattice.validate": ("lattice.FaceLattice.validate",),
    "lattice.link": ("lattice.FaceLattice.link",),
    "flaglin.transforms": ("flaglin.cone_flag_vector", "flaglin.prism_flag_vector",
                           "flaglin.bipyramid_flag_vector",
                           "flaglin.word_flag_vector"),
    "flaglin.express_in_basis": ("flaglin.express_in_basis",),
    "flaglin.linear_extension": ("flaglin.extend_linear", "flaglin.linear_h",
                                 "flaglin.linear_pseudo_h"),
    "flaglin.span_rank": ("flaglin.span_rank",),
    "links.face_sum": ("links.LinkCalculator.h", "links.LinkCalculator.g"),
    "links.lift_to_aux": ("links.lift_to_aux",),
    "links.cone_rule_final": ("links.cone_rule_final",),
    "terms.enumerate_terms": ("terms.enumerate_terms",),
    "terms.implies": ("terms.implies",),
    "checks.run_suite": ("checks.run_suite",),
    "cli.main": ("cli.main",),
    "words.parse": ("words.GeneratorWord.parse",),
}

class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = 0
        self.counts = Counter()
        self._rewrite_pads = None

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (name, t0, t1, parent, self.op)
        return traced

    def count_init(self, cls, key, amount=None):
        orig, counts = cls.__init__, self.counts

        def __init__(obj, *args, **kwargs):
            orig(obj, *args, **kwargs)
            counts[key] += amount(obj) if amount else 1
        cls.__init__ = __init__

    def install(self):
        """Wrap the layers of the imported hvcalc package in place."""
        package = importlib.import_module("hvcalc")
        mods = {layer: importlib.import_module(f"hvcalc.{layer}")
                for layer in LAYERS}
        bindings = [package, *mods.values()]
        for layer in SPANNED:
            mod = mods[layer]
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or inspect.isclass(obj)
                        or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                wrapped = self.wrap(f"{layer}.{attr}", obj)
                for m in bindings:
                    for a2, o2 in list(vars(m).items()):
                        if o2 is obj:
                            setattr(m, a2, wrapped)
            for cname in CLASSES.get(layer, ()):
                cls = getattr(mod, cname)
                for attr, obj in list(vars(cls).items()):
                    if attr.startswith("_"):
                        continue
                    name = f"{layer}.{cname}.{attr}"
                    if isinstance(obj, classmethod):
                        setattr(cls, attr, classmethod(self.wrap(name, obj.__func__)))
                    elif inspect.isfunction(obj):
                        setattr(cls, attr, self.wrap(name, obj))
        sym = mods["symbols"]
        self.count_init(sym.BiGradedPoly, "symbols.polys_built")
        self.count_init(sym.HVector, "symbols.hvectors_built")
        self.count_init(mods["lattice"].FaceLattice, "lattice.faces_built",
                        lambda lat: len(lat.faces))
        self._rewrite_pads = sym.rewrite_pads

    def summary(self) -> dict:
        """Self time and call count per span name, plus the counters."""
        child = defaultdict(float)
        for s in self.spans:
            if s is not None and s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        self_s = defaultdict(float)
        calls = Counter()
        for sid, s in enumerate(self.spans):
            if s is None:
                continue
            self_s[s[0]] += (s[2] - s[1]) - child[sid]
            calls[s[0]] += 1
        counts = dict(self.counts)
        if self._rewrite_pads is not None:
            info = self._rewrite_pads.cache_info()
            counts["symbols.rewrite_pads.hits"] = info.hits
            counts["symbols.rewrite_pads.calls"] = info.hits + info.misses
        return {"self_s": dict(self_s), "calls": dict(calls), "counts": counts}

    def write_spans(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                if s is not None:
                    fh.write(json.dumps(s) + "\n")


def merge(summaries) -> dict:
    """Sum per-process summaries (one per CLI child)."""
    out = {"self_s": Counter(), "calls": Counter(), "counts": Counter()}
    for s in summaries:
        for part in out:
            out[part].update(s[part])
    return out


def layer_metrics(summary: dict, traced_ops_per_s: float) -> dict:
    """The per-layer metrics of BENCHMARK.json, from a (merged) summary."""
    self_s, calls, counts = summary["self_s"], summary["calls"], summary["counts"]

    def names(prefixes):
        return [n for n in set(self_s) | set(calls)
                if any(n == p or (p.endswith(".") and n.startswith(p))
                       for p in prefixes)]

    values = {}
    for layer in SPANNED:
        mine = names((layer + ".",))
        values[f"{layer}.self_s"] = sum(self_s.get(n, 0.0) for n in mine)
        values[f"{layer}.calls"] = sum(calls.get(n, 0) for n in mine)
    for group, prefixes in GROUPS.items():
        mine = names(prefixes)
        values[f"{group}.self_s"] = sum(self_s.get(n, 0.0) for n in mine)
        values[f"{group}.calls"] = sum(calls.get(n, 0) for n in mine)
    values["engine.operator_applications"] = values.pop(
        "engine.operator_applications.calls")
    rp_calls = counts.get("symbols.rewrite_pads.calls", 0)
    values["symbols.rewrite_pads.calls"] = rp_calls
    values["symbols.rewrite_pads.hit_ratio"] = (
        counts.get("symbols.rewrite_pads.hits", 0) / rp_calls if rp_calls else 0.0)
    for key in ("symbols.polys_built", "symbols.hvectors_built",
                "lattice.faces_built"):
        values[key] = counts.get(key, 0)
    values["trace.ops_per_s"] = traced_ops_per_s
    return {name: {"value": values[name], "unit": unit}
            for name, unit in spec.PER_LAYER.items()}
