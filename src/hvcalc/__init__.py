"""Exact h-vector calculus for polytopes built from the point by cones,
cylinders and bipyramids.

The public names load on first use: ``import hvcalc`` imports no layer, and
``hvcalc.build`` imports ``hvcalc.lattice`` when it is first read.
"""

from importlib import import_module as _import_module

# each layer module and the public names the package takes from it
_EXPORTS = {
    "engine": (
        "apply_cone", "apply_cylinder", "aux_hvector", "check_ic_equation",
        "classical_h_simple", "extended_hvector", "pseudo_h", "to_extended",
    ),
    "flaglin": (
        "NotInSpanError", "cone_flag_vector", "express_in_basis", "linear_h",
        "linear_pseudo_h", "span_rank", "word_flag_vector",
    ),
    "lattice": ("FaceLattice", "FlagVector", "build", "empty_polytope", "point"),
    "links": ("g_eval", "h_by_links"),
    "symbols": ("AUX", "FINAL", "BiGradedPoly", "HVector"),
    "terms": (
        "IndexTerm", "broadly_similar", "downset", "enumerate_terms", "fib",
        "implies", "strata_vector",
    ),
    "words": ("GeneratorWord", "WordParseError", "ic_basis"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:  # importing a submodule binds it on the package
        return _import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
