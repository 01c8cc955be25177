"""The symbolic h-vector engine.

Two operators act on auxiliary vectors.  The cylinder operator multiplies
every polynomial by the linear sum of the variables.  The cone operator acts
term by term in three parts: duplicate the coefficient just before or at the
middle, record each coprimitive count as a new local symbol padded up to
homogeneity, and subtract a full-pad correction term:

    [a_0 .. a_m] W  ->  dup_{m//2}[a] W
                        + sum_{k=1..m//2} [a_k - a_{k-1}] pad^(m-2k) {k} W
                        - [a_0] pad^(m+1) W

Folding these over a generator word from the seed [1] gives the auxiliary
vector; eliminating the sliding pads (first variable = frozen variable plus
pad, with pad * first variable = 0) gives the extended vector.

The operators are implemented once, as kernels on term maps (word -> exact
coefficients), the format of ``HVector.terms``.  A kernel reads a vector's
terms directly and keeps exactly the terms a checked HVector would keep.
Two invariants let the kernels write each term with little lookup: their
input is homogeneous, as a checked vector is, so the cone's record and
correction words lie one degree above every word it grows; and each head
the change of variables stores is a new tuple, never a caller's, so a
stored head is told from a merge by identity.
The fold and the change of variables run on these maps, and a checked
HVector is built only for a value a public function returns: one per
computed call, so ``extended_hvector`` checks its final vector and never
builds the auxiliary one.  Every kernel writes a dict of tuples, on the
very word tuples of its input or of the plans below, so once the
constructor has checked those words it accepts the map with one lookup per
term and drops its zero sums there; an auxiliary vector is handed a dict
copy of the memo's read-only map.  The words a term is sent to depend
only on its word and degree, so the kernels read them from per-word plans,
cached once per process: the cone's record and correction words
(``_cone_words``) and the change of variables' final words with their
head lengths (``_expansion``).

Over the point the cone and the cylinder give the same segment, so a word
and its twin (its innermost letter swapped between C and I) have one
vector.  Every word memo here is keyed by the canonical spelling, with
the innermost letter written C (``GeneratorWord.canonical_ops``).  Words
share the folds of their suffixes, so the fold of each canonical suffix of
at most 11 letters is kept (``_suffix_terms``, at most 2^11 read-only
maps); only a longer word's outer letters, and the change of variables,
sum their coefficients afresh.  ``aux_hvector`` and ``extended_hvector``
keep their last two checked (frozen) values, so a twin met next in a sweep
costs a lookup.

Also here: palindromy and operator-identity checks, the classical h of a
simple polytope from its face vector, and the naive pseudo h-vector.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from operator import add
from types import MappingProxyType

from .symbols import (
    _FLAVORS, AUX, FINAL, PAD_AUX, BiGradedPoly, HVector, rewrite_pads,
)
from .words import GeneratorWord


def _cylinder_terms(terms: dict) -> dict:
    """Every coefficient tuple times the linear sum of the two variables.

    A nonzero polynomial stays nonzero and no word changes, so clean terms
    stay clean.
    """
    return {w: (cs[0], *map(add, cs, cs[1:]), cs[-1])
            for w, cs in terms.items()}


@lru_cache(maxsize=None)
def _cone_words(word, m: int, pad) -> tuple:
    """The words the cone rule writes for a degree-m term on ``word``.

    The record words pad^(m-2k) {k} W for k = 1..m//2, and the full-pad
    correction word pad^(m+1) W, or None for the empty word, where the
    correction meets the terminator.  The pad is part of the key: the link
    route's direct rule cones final vectors with the final pad.
    """
    records = tuple((pad,) * (m - 2 * k) + (k,) + word
                    for k in range(1, m // 2 + 1))
    return records, ((pad,) * (m + 1) + word if word else None)


def _cone_terms(terms: dict, pad) -> dict:
    """The three-part cone rule on a term map, padding with ``pad``.

    The input must be homogeneous, as every term map of a checked vector
    is: of degree D, every record and correction word then has degree
    D + 1, above every term's own word, so no record meets a term's word.
    Each term's own word is written once, with its grown tuple, which is
    nonzero exactly when its input is.  The record and correction
    constants are summed in a map of their own, and only those that cancel
    to zero are dropped; the full-pad correction of the empty word meets
    the terminator.  So clean terms give clean terms: what the checked
    constructor would keep.
    """
    out: dict[tuple, tuple] = {}
    consts: dict[tuple, int] = {}
    get = consts.get
    for word, cs in terms.items():
        m = len(cs) - 1
        mid = m // 2
        out[word] = (*cs[:mid + 1], *cs[mid:])
        records, correction = _cone_words(word, m, pad)
        for k, w2 in enumerate(records, 1):
            consts[w2] = get(w2, 0) + cs[k] - cs[k - 1]
        if correction is not None:
            consts[correction] = get(correction, 0) - cs[0]
    for w2, c in consts.items():
        if c:
            out[w2] = (c,)
    return out


def apply_cylinder(h: HVector) -> HVector:
    """Product with a segment: every polynomial times the linear sum."""
    if h.flavor != AUX:
        raise ValueError("cylinder operator acts on auxiliary vectors")
    return HVector(h.degree + 1, AUX, _cylinder_terms(h.terms))


def _cone(h: HVector) -> HVector:
    """The cone rule on a vector of either flavor, with that flavor's pad."""
    pad = _FLAVORS[h.flavor][0]
    return HVector(h.degree + 1, h.flavor, _cone_terms(h.terms, pad))


def apply_cone(h: HVector) -> HVector:
    """Cone operator on an auxiliary vector, term by term."""
    if h.flavor != AUX:
        raise ValueError("cone operator acts on auxiliary vectors")
    return _cone(h)


def _fold(ops: str, terms):
    """The two operators folded over ``ops``, innermost (rightmost) first."""
    for op in reversed(ops):
        terms = (_cone_terms(terms, PAD_AUX) if op == "C"
                 else _cylinder_terms(terms))
    return terms


_SUFFIX = 11  # the letters of a word whose fold is kept for the process


@lru_cache(maxsize=2 ** _SUFFIX)  # every canonical I/C word of <= 11 letters
def _suffix_terms(ops: str) -> MappingProxyType:
    """The fold of a short canonical word, read-only."""
    return MappingProxyType(_fold(ops[0], _suffix_terms(ops[1:])) if ops
                            else {(): (1,)})


def _engine_ops(w: GeneratorWord) -> str:
    """The canonical letters of a bipyramid-free word; a word with the
    bipyramid operator is refused, named as given."""
    if not w.is_bipyramid_free():
        raise ValueError(
            f"word {w} contains the bipyramid operator; "
            "use the linear extension over flag vectors instead")
    return w.canonical_ops


def _aux_terms(ops: str):
    """The two operators folded over canonical letters from the seed: the
    last ``_SUFFIX`` letters from the memo, the outer ones afresh."""
    return _fold(ops[:-_SUFFIX], _suffix_terms(ops[-_SUFFIX:]))


def aux_hvector(w: GeneratorWord) -> HVector:
    """Fold the two operators over a bipyramid-free word from the seed."""
    return _aux_hvector(_engine_ops(w))


@lru_cache(maxsize=2)
def _aux_hvector(ops: str) -> HVector:
    return HVector(len(ops), AUX, dict(_aux_terms(ops)))


@lru_cache(maxsize=None)
def _expansion(word, m: int) -> tuple:
    """Where the change of variables sends a degree-m term on ``word``.

    Each monomial X^p Y^q expands as sum_j x^(p-j) y^q pad^j because a
    sliding pad kills x on its left; the pads, new and old, are then pushed
    through the word by the elimination rules.  The j pads come from the
    monomials with p >= j, that is q <= m - j, so their coefficients land
    on y^q of each rewrite: the plan is the pairs (m - j + 1, final words
    of pad^j W) over the j whose rewrite leaves a word.
    """
    plan = []
    for j in range(m + 1):
        finals = rewrite_pads((PAD_AUX,) * j + word)
        if finals:
            plan.append((m - j + 1, finals))
    return tuple(plan)


def _extended_terms(terms: dict) -> dict:
    """The change of variables on a term map: each term's head
    coefficients summed into the final words of its plan.

    Each head is a new tuple, never the caller's coefficient tuple (a
    full-length slice of a tuple is that same tuple), so a head that
    ``setdefault`` hands back is one already stored: the merge case.  A
    zero sum stays, and the checked constructor drops it.
    """
    acc: dict[tuple, tuple] = {}
    setdefault = acc.setdefault
    for word, cs in terms.items():
        for length, finals in _expansion(word, len(cs) - 1):
            head = (*cs[:length],)
            for w2 in finals:
                out = setdefault(w2, head)
                if out is not head:
                    acc[w2] = tuple(map(add, out, head))
    return acc


def to_extended(h: HVector) -> HVector:
    """Change of variables from the auxiliary to the final flavor."""
    if h.flavor != AUX:
        raise ValueError("change of variables starts from an auxiliary vector")
    return HVector(h.degree, FINAL, _extended_terms(h.terms))


def extended_hvector(w: GeneratorWord) -> HVector:
    """The extended h-vector of a bipyramid-free word: its aux fold put
    through the change of variables, checked once."""
    return _extended_hvector(_engine_ops(w))


@lru_cache(maxsize=2)
def _extended_hvector(ops: str) -> HVector:
    return HVector(len(ops), FINAL, _extended_terms(_aux_terms(ops)))


def check_ic_equation(h: HVector) -> bool:
    """Operator identity (I-C)CI = I(I-C)C evaluated on a vector."""
    a = apply_cone(apply_cylinder(h))
    lhs = apply_cylinder(a) - apply_cone(a)
    b = apply_cone(h)
    rhs = apply_cylinder(apply_cylinder(b) - apply_cone(b))
    return lhs == rhs


def classical_h_simple(face_vector) -> BiGradedPoly:
    """The h-polynomial of a simple n-polytope from [f_0 .. f_{n-1}].

    Solves h(x, x+y) = sum_i f_i x^(n-i) y^i with f_n = 1 by
    back-substitution over exact integers.
    """
    f = list(face_vector)
    n = len(f)
    f.append(1)
    h = [0] * (n + 1)
    for s in range(n, -1, -1):
        h[s] = f[s] - sum(comb(t, s) * h[t] for t in range(s + 1, n + 1))
    return BiGradedPoly(h)


def pseudo_h(w: GeneratorWord) -> BiGradedPoly:
    """Naive h under the simple-case rules: I multiplies by the linear sum,
    C prepends a leading 1 (top power of the first variable plus y times
    the old value)."""
    if not w.is_bipyramid_free():
        raise ValueError("pseudo h is defined by the I/C rules only")
    p = BiGradedPoly.one()
    for op in reversed(w.ops):
        if op == "I":
            p = p.mul_linear()
        else:
            p = BiGradedPoly((1,) + p.coeffs)
    return p
