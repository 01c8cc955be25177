"""h-vectors from links: the face-sum recursion.

The extended h-vector can be rebuilt without the symbolic engine: sum, over
the nonempty faces of the polytope, a level functional of the link along
each face, where the level is the face dimension.  The level functionals
obey

    g_0(B)   = cone(h(B)) - y h(B);      g_0(empty) = 1
    g_{i+1}(B) = y g_i(B) - g_i(cone B)

and h of a link is computed by the same face sum, all the way down.  The
sum ranges over nonempty faces including the whole polytope, whose link is
the empty polytope; that convention is pinned by the point, segment and
square hand values and then by exhaustive agreement with the engine.

The cone acting on final vectors admits two readings, kept behind a
switch.  The conjugation reading lifts the vector back through the change
of variables (an invertible linear map in each degree, inverted once per
degree by the exact elimination routine of ``flaglin``), applies the
auxiliary cone operator, and pushes forward again.  The direct reading
runs the engine's three-part rule verbatim in the final alphabet, with the
final pad.  Exactly one of them reproduces the engine; the test suite
records which.
"""

from __future__ import annotations

from functools import lru_cache

from .engine import _cone, apply_cone, to_extended
from .flaglin import _pivot_inverse, extend_linear
from .lattice import FaceLattice, FlagVector, build
from .symbols import AUX, FINAL, PAD, BiGradedPoly, HVector
from .terms import IndexTerm, enumerate_terms

CONJUGATION = "conjugation"
DIRECT = "direct"
RULES = (CONJUGATION, DIRECT)


class LiftError(ValueError):
    """The vector admits no preimage under the change of variables."""


def _vectorize(h: HVector, terms: list) -> list:
    index = {(t.xexp, t.yexp, t.word): i for i, t in enumerate(terms)}
    out = [0] * len(terms)
    for word, poly in h.terms.items():
        m = poly.degree
        for j, c in enumerate(poly.coeffs):
            if c == 0:
                continue
            i = index.get((m - j, j, word))
            if i is None:
                raise LiftError(f"unexpected term over word {word!r}")
            out[i] = c
    return out


def _devectorize(vec, terms, degree, flavor) -> HVector:
    polys = {}
    for c, t in zip(vec, terms):
        if c == 0:
            continue
        cs = polys.setdefault(t.word, [0] * (t.xexp + t.yexp + 1))
        cs[t.yexp] = c
    return HVector(degree, flavor,
                   {w: BiGradedPoly(cs) for w, cs in polys.items()})


@lru_cache(maxsize=None)
def _lift_solver(n: int):
    """Inverse of the change of variables in degree n, as a dense matrix
    over the index-term bases."""
    aux_terms = enumerate_terms(n, AUX)
    fin_terms = enumerate_terms(n, FINAL)
    cols = []
    for t in aux_terms:
        poly = [0] * (t.xexp + t.yexp + 1)
        poly[t.yexp] = 1
        h = HVector(n, AUX, {t.word: BiGradedPoly(poly)})
        cols.append(_vectorize(to_extended(h), fin_terms))
    assert len(fin_terms) == len(aux_terms)
    _, inv = _pivot_inverse(list(zip(*cols)))
    return aux_terms, fin_terms, inv


def lift_to_aux(h: HVector) -> HVector:
    """Preimage of a final vector under the change of variables."""
    if h.flavor != FINAL:
        raise ValueError("lift starts from a final vector")
    aux_terms, fin_terms, inv = _lift_solver(h.degree)
    f = _vectorize(h, fin_terms)
    a = [sum(row[j] * f[j] for j in range(len(f)) if f[j] != 0)
         for row in inv]
    return _devectorize(a, aux_terms, h.degree, AUX)


def cone_rule_final(h: HVector, rule: str = CONJUGATION) -> HVector:
    """The cone operator transported to final vectors."""
    if rule == CONJUGATION:
        return to_extended(apply_cone(lift_to_aux(h)))
    if rule == DIRECT:
        return _cone(h, PAD, FINAL)
    raise ValueError(f"unknown cone rule {rule!r}")


class LinkCalculator:
    """Memoized face-sum evaluator; values are cached by flag vector,
    which is what the functionals actually depend on."""

    def __init__(self, rule: str = CONJUGATION):
        if rule not in RULES:
            raise ValueError(f"unknown cone rule {rule!r}")
        self.rule = rule
        self._h = {}
        self._g = {}

    def h(self, L: FaceLattice) -> HVector:
        key = L.flag_vector().key()
        got = self._h.get(key)
        if got is not None:
            return got
        total = HVector.zero(L.n, FINAL)
        for face, d in L.faces.items():
            if d < 0:
                continue
            g = self.g(d, L.link(face))
            if g.degree != L.n:
                raise AssertionError("face summand breaks homogeneity")
            total = total + g
        self._h[key] = total
        return total

    def g(self, i: int, B: FaceLattice) -> HVector:
        key = (i, B.flag_vector().key())
        got = self._g.get(key)
        if got is not None:
            return got
        if i == 0:
            if B.n == -1:
                val = HVector.unit(FINAL)
            else:
                hB = self.h(B)
                val = cone_rule_final(hB, self.rule) - hB.times_second()
        else:
            val = self.g(i - 1, B).times_second() - self.g(i - 1, B.pyramid())
        self._g[key] = val
        return val


_CALCULATORS = {rule: LinkCalculator(rule) for rule in RULES}


def h_by_links(L: FaceLattice, rule: str = CONJUGATION) -> HVector:
    """Extended h-vector by the face-sum recursion alone."""
    return _CALCULATORS[rule].h(L)


def g_eval(i: int, B: FaceLattice, rule: str = CONJUGATION) -> HVector:
    """Level functional on a concrete lattice."""
    return _CALCULATORS[rule].g(i, B)


def g_linear(i: int, fv: FlagVector, rule: str = CONJUGATION) -> HVector:
    """Level functional extended linearly to any spanned flag vector."""
    if fv.n == -1:
        from .lattice import empty_polytope
        return g_eval(i, empty_polytope(), rule).scale(fv[frozenset()])
    return extend_linear(fv, lambda w: g_eval(i, build(w), rule))


def coefficient_of(h: HVector, term: IndexTerm):
    return h.coefficient(term.xexp, term.yexp, term.word)
