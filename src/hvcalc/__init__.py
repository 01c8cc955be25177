"""Exact h-vector calculus for polytopes built from the point by cones,
cylinders and bipyramids."""

from .engine import (
    apply_cone, apply_cylinder, aux_hvector, check_ic_equation,
    classical_h_simple, extended_hvector, pseudo_h, to_extended,
)
from .flaglin import (
    NotInSpanError, cone_flag_vector, express_in_basis, ic_basis, linear_h,
    linear_pseudo_h, span_rank, word_flag_vector,
)
from .lattice import FaceLattice, FlagVector, build, empty_polytope, point
from .links import g_eval, h_by_links
from .symbols import AUX, FINAL, BiGradedPoly, HVector
from .terms import (
    IndexTerm, broadly_similar, downset, enumerate_terms, fib, implies,
    strata_vector,
)
from .words import GeneratorWord, WordParseError

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
