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
Faces of one dimension whose links have equal flag vectors add equal
terms, so the sum runs over the lattice's link classes
(``FaceLattice.link_classes``), which carry each link's flag vector: one
term per class, times the class size, and a link is built only when its
term is not yet cached.

The cone acting on final vectors admits two readings, kept behind a
switch.  They differ only in the flavor the face sum runs in: the cone is
the engine's one three-part rule (``engine._cone``), padding with that
flavor's pad.  The conjugation reading is the auxiliary cone operator
carried through the change of variables: lift the final vector to
auxiliary flavor, apply the cone, push forward again.  The change of
variables (``engine.to_extended``) is linear and injective, commutes with
multiplication by the second variable and sends the auxiliary unit to the
final unit, so each step of the recursion is its image under that map.
The recursion therefore runs on auxiliary vectors, and the change of
variables is applied once, to the value returned.  The direct reading runs
in the final flavor, with the final pad.  Exactly one of them reproduces
the engine; the test suite records which.
"""

from __future__ import annotations

from .engine import _cone, to_extended
from .lattice import FaceLattice
from .symbols import AUX, FINAL, HVector

CONJUGATION = "conjugation"
DIRECT = "direct"
RULES = (CONJUGATION, DIRECT)


class LinkCalculator:
    """Memoized face-sum evaluator; the level functionals are cached by
    level and flag vector, and each h of a link is met once, in its g_0.

    Under the conjugation rule the values are auxiliary vectors, under the
    direct rule final ones; ``final`` maps either to the final flavor.
    """

    def __init__(self, rule: str = CONJUGATION):
        if rule not in RULES:
            raise ValueError(f"unknown cone rule {rule!r}")
        self.flavor = AUX if rule == CONJUGATION else FINAL
        self._g = {}

    def final(self, h: HVector) -> HVector:
        return to_extended(h) if self.flavor == AUX else h

    def h(self, L: FaceLattice) -> HVector:
        total = HVector.zero(L.n, self.flavor)
        for d, face, count, fv in L.link_classes():
            got = self._g.get((d, fv))
            if got is None:
                got = self.g(d, L.link(face))
            total = total + got.scale(count)
        return total

    def g(self, i: int, B: FaceLattice) -> HVector:
        if type(i) is not int:  # a bool is not a level
            raise TypeError(f"level must be an int, got {i!r}")
        if i < 0:
            raise ValueError(f"level must be an int >= 0, got {i!r}")
        key = (i, B.flag_vector())
        got = self._g.get(key)
        if got is not None:
            return got
        if i == 0:
            if B.n == -1:
                val = HVector.unit(self.flavor)
            else:
                hB = self.h(B)
                val = _cone(hB) - hB.times_second()
        else:
            val = self.g(i - 1, B).times_second() - self.g(i - 1, B.pyramid())
        self._g[key] = val
        return val


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

