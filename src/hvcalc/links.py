"""h-vectors from links: the face-sum recursion, on one chain pass.

The extended h-vector can be rebuilt without the symbolic engine: sum, over
the nonempty faces F of the polytope, g_(dim F) of the link along F, where

    g_0(B)   = cone(h(B)) - y h(B);      g_0(empty) = 1
    g_{i+1}(B) = y g_i(B) - g_i(cone B)

and h of a link is the same sum, down to the whole polytope's link, the
empty polytope (a convention pinned by hand values and by agreement with
the engine).  The sum runs over the link classes, and no lattice is built:
a link's classes are the lattice's classes above its face, the whole
polytope among them, with the counts of ``FaceLattice.interval_counts``,
read as given, and a face of pyr^j X is F + S, S a set of apexes, with link
pyr^(j - |S|) of the link of F in X (X if F is empty).

The cone on final vectors has two readings behind a switch, both the
engine's rule (``engine._cone``) with the pad of the flavor the sum runs in.
Conjugation runs the recursion on auxiliary vectors and changes variables
once, at the end (``engine.to_extended`` is linear, injective, commutes with
the second variable and keeps the unit); direct runs it on final vectors.
Exactly one reproduces the engine; the test suite records which.
"""

from __future__ import annotations

from math import comb

from .engine import _cone, to_extended
from .lattice import FaceLattice
from .symbols import AUX, FINAL, HVector

CONJUGATION = "conjugation"
DIRECT = "direct"
RULES = (CONJUGATION, DIRECT)


class LinkCalculator:
    """Memoized face-sum evaluator: ``_g`` maps a link flag vector to the
    values g_i(pyr^k link) by (i, k): auxiliary vectors under the conjugation
    rule, final ones under the direct rule, either made final by ``final``."""

    def __init__(self, rule: str = CONJUGATION):
        if rule not in RULES:
            raise ValueError(f"unknown cone rule {rule!r}")
        self.flavor = AUX if rule == CONJUGATION else FINAL
        self._g = {}

    def final(self, h: HVector) -> HVector:
        return to_extended(h) if self.flavor == AUX else h

    def h(self, L: FaceLattice) -> HVector:
        return self._on(L)[1](0, -1)

    def g(self, i: int, B: FaceLattice) -> HVector:
        if type(i) is not int:  # a bool is not a level
            raise TypeError(f"level must be an int, got {i!r}")
        if i < 0:
            raise ValueError(f"level must be an int >= 0, got {i!r}")
        return self._on(B)[0](i, 0, -1)

    def _on(self, L: FaceLattice):
        """g(i, k, c) = g_i(pyr^k X) and h(k, c) = h(pyr^k X), X the link
        along class c of L in ``link_classes`` order, or L itself at -1: the
        row of ``interval_counts`` at c lists the classes of X's faces."""
        classes, rows = L.link_classes(), L.interval_counts()
        dim = [L.n - 1 - d for d, *_ in classes] + [L.n]  # of each link
        memo = [self._g.setdefault(fv, {})
                for *_, fv in [*classes, (L.flag_vector(),)]]

        def h(k, c):  # over the faces F + S of pyr^k X, by the class of F
            total = HVector.zero(dim[c] + k, self.flavor)
            for c2, q in rows[c]:
                e = dim[c] - dim[c2] - 1
                for b in range(k + 1):
                    total += g(e + b, k - b, c2).scale(q * comb(k, b))
            for s in range(1, k + 1):
                total += g(s - 1, k - s, c).scale(comb(k, s))
            return total

        def g(i, k, c):
            got = memo[c].get((i, k))
            if got is None:
                if i:
                    got = g(i - 1, k, c).times_second() - g(i - 1, k + 1, c)
                elif k or dim[c] >= 0:  # not the empty polytope
                    hX = h(k, c)
                    got = _cone(hX) - hX.times_second()
                else:
                    got = HVector.unit(self.flavor)
                memo[c][i, k] = got
            return got
        return g, h


_CALCULATORS = {rule: LinkCalculator(rule) for rule in RULES}


def h_by_links(L: FaceLattice, rule: str = CONJUGATION) -> HVector:
    """Extended h-vector by the face-sum recursion alone."""
    # an unknown rule falls through to the constructor, which refuses it
    calc = _CALCULATORS.get(rule) or LinkCalculator(rule)
    return calc.final(calc.h(L))


def g_eval(i: int, B: FaceLattice, rule: str = CONJUGATION) -> HVector:
    """Level functional on a concrete lattice."""
    calc = _CALCULATORS.get(rule) or LinkCalculator(rule)
    return calc.final(calc.g(i, B))
