"""The face-sum recursion, the transported cone rule, and the lift."""

import hashlib
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest

from hvcalc import checks, engine, flaglin, links
from hvcalc.lattice import FaceLattice, build, empty_polytope, point
from hvcalc.links import (
    CONJUGATION, DIRECT, LinkCalculator, g_eval, h_by_links,
)
from hvcalc.symbols import AUX, FINAL, PAD, HVector
from hvcalc.terms import enumerate_terms
from hvcalc.words import GeneratorWord as W
from hvcalc.words import all_words, words_up_to
from test_lattice import link, mutants, outcome


def final_vec(degree, terms):
    return HVector(degree, FINAL, terms)


# -- reference: the cone transported to final vectors through a dense lift ---
#
# The recursion as it once ran on final vectors: before each cone step the
# vector is lifted back to aux flavor by a dense inverse of the change of
# variables over the index-term bases, coned, and pushed forward again.

def _vectorize(h, terms):
    index = {(t.xexp, t.yexp, t.word): i for i, t in enumerate(terms)}
    out = [0] * len(terms)
    for word, cs in h.terms.items():
        m = len(cs) - 1
        for j, c in enumerate(cs):
            if c != 0:
                out[index[(m - j, j, word)]] = c
    return out


def _devectorize(vec, terms, degree, flavor):
    polys = {}
    for c, t in zip(vec, terms):
        if c != 0:
            cs = polys.setdefault(t.word, [0] * (t.xexp + t.yexp + 1))
            cs[t.yexp] = c
    return HVector(degree, flavor, polys)


@lru_cache(maxsize=None)
def _lift_solver(n):
    aux_terms = enumerate_terms(n, AUX)
    fin_terms = enumerate_terms(n, FINAL)
    cols = []
    for t in aux_terms:
        poly = [0] * (t.xexp + t.yexp + 1)
        poly[t.yexp] = 1
        h = HVector(n, AUX, {t.word: poly})
        cols.append(_vectorize(engine.to_extended(h), fin_terms))
    size = len(fin_terms)
    assert size == len(aux_terms)
    # one reduction of [A | I] gives E A = D with D diagonal, so row i of
    # the inverse is the right half of reduced row i over its pivot
    pairs = flaglin._eliminate([[*row, *(int(i == j) for j in range(size))]
                                for i, row in enumerate(zip(*cols))])
    assert [p for p, _ in pairs] == list(range(size))
    inv = [[Fraction(x, row[p]) for x in row[size:]] for p, row in pairs]
    return aux_terms, fin_terms, inv


def lift_to_aux(h):
    """Preimage of a final vector under the change of variables."""
    if h.flavor != FINAL:
        raise ValueError("lift starts from a final vector")
    aux_terms, fin_terms, inv = _lift_solver(h.degree)
    f = _vectorize(h, fin_terms)
    a = [sum(row[j] * f[j] for j in range(len(f)) if f[j] != 0)
         for row in inv]
    return _devectorize(a, aux_terms, h.degree, AUX)


def cone_rule_final(h, rule=CONJUGATION):
    """The cone operator transported to final vectors."""
    if rule == CONJUGATION:
        return engine.to_extended(engine.apply_cone(lift_to_aux(h)))
    if rule == DIRECT:
        return engine._cone(h)
    raise ValueError(f"unknown cone rule {rule!r}")


class FinalLinkCalculator:
    """The face-sum recursion on final vectors, coning by cone_rule_final,
    on built lattices: one link per nonempty face, one pyramid per level."""

    flavor = FINAL

    def __init__(self, rule):
        self.rule = rule
        self._h = {}
        self._g = {}

    def cone(self, h):
        return cone_rule_final(h, self.rule)

    def h(self, L):
        key = L.flag_vector()
        if key not in self._h:
            total = HVector.zero(L.n, self.flavor)
            for face, d in L.faces.items():
                if d >= 0:
                    total = total + self.g(d, link(L, face))
            self._h[key] = total
        return self._h[key]

    def g(self, i, B):
        key = (i, B.flag_vector())
        if key not in self._g:
            if i == 0 and B.n == -1:
                val = HVector.unit(self.flavor)
            elif i == 0:
                hB = self.h(B)
                val = self.cone(hB) - hB.times_second()
            else:
                val = (self.g(i - 1, B).times_second()
                       - self.g(i - 1, B.pyramid()))
            self._g[key] = val
        return self._g[key]


REFERENCE = {rule: FinalLinkCalculator(rule) for rule in (CONJUGATION, DIRECT)}


def typed_terms(h):
    """An h-vector with the type of every coefficient made visible."""
    return (h.degree, h.flavor,
            {w: [(type(c), c) for c in cs] for w, cs in h.terms.items()})


class TestLift:
    def test_round_trip_on_engine_values(self):
        for w in words_up_to(5, "IC"):
            aux = engine.aux_hvector(w)
            assert lift_to_aux(engine.to_extended(aux)) == aux, w

    def test_round_trip_on_random_aux_vectors(self):
        rng = random.Random(20261018)
        for degree in range(9):
            for _ in range(6):
                h = checks._random_aux_vector(rng, degree)
                assert lift_to_aux(engine.to_extended(h)) == h, h.render()

    def test_forward_after_lift(self):
        h = final_vec(4, {(): [1, 2, 2, 2, 1], (1,): [1, 1],
                          (PAD, 1): [1]})
        assert engine.to_extended(lift_to_aux(h)) == h

    def test_integer_values_lift_to_integers(self):
        h = final_vec(4, {(PAD, 1): [3]})
        lifted = lift_to_aux(h)
        for cs in lifted.terms.values():
            assert all(isinstance(c, int) for c in cs)

    def test_rejects_aux_input(self):
        with pytest.raises(ValueError):
            lift_to_aux(HVector.unit(AUX))


class TestConeRuleFinal:
    def test_small_values(self):
        assert (cone_rule_final(final_vec(0, {(): [1]}))
                == final_vec(1, {(): [1, 1]}))
        assert (cone_rule_final(final_vec(1, {(): [1, 1]}))
                == final_vec(2, {(): [1, 1, 1]}))
        assert (cone_rule_final(final_vec(2, {(): [1, 2, 1]}))
                == final_vec(3, {(): [1, 2, 2, 1], (1,): [1]}))

    def test_conjugation_reproduces_cone_of_h(self):
        for w in words_up_to(4, "IC"):
            want = engine.extended_hvector(W("C" + w.ops))
            got = cone_rule_final(engine.extended_hvector(w), CONJUGATION)
            assert got == want, w

    def test_direct_disagrees_on_singular_input(self):
        h = engine.extended_hvector(W("CIC"))
        conj = cone_rule_final(h, CONJUGATION)
        direct = cone_rule_final(h, DIRECT)
        assert conj == engine.extended_hvector(W("CCIC"))
        assert direct != conj

    def test_unknown_rule(self):
        with pytest.raises(ValueError):
            cone_rule_final(final_vec(0, {(): [1]}), "solomonoff")


class TestLevelFunctionals:
    def test_g0_empty(self):
        assert g_eval(0, empty_polytope()) == HVector.unit(FINAL)

    def test_g0_point_is_x(self):
        assert g_eval(0, point()) == final_vec(1, {(): [1, 0]})

    def test_g1_empty(self):
        assert g_eval(1, empty_polytope()) == final_vec(1, {(): [-1, 1]})

    def test_g0_segment(self):
        assert g_eval(0, build(W("C"))) == final_vec(2, {(): [1, 0, 0]})

    def test_degree_law(self):
        for i in range(3):
            for ops in ["", "C", "IC"]:
                lat = build(W(ops))
                assert g_eval(i, lat).degree == lat.n + i + 1

    @pytest.mark.parametrize("rule", [CONJUGATION, DIRECT])
    @pytest.mark.parametrize("level, error", [
        (-1, ValueError), (1.5, TypeError), (True, TypeError),
        ("1", TypeError), (None, TypeError)])
    def test_bad_level_refused(self, rule, level, error):
        # unchecked, a level below 0 or a float recurses without end, and
        # True reads as the cached g_1
        with pytest.raises(error, match="level must be an int"):
            g_eval(level, point(), rule)
        with pytest.raises(error, match="level must be an int"):
            LinkCalculator(rule).g(level, empty_polytope())


def g_linear(i, fv, rule=CONJUGATION):
    """Level functional extended linearly to any spanned flag vector."""
    if fv.n == -1:
        return g_eval(i, empty_polytope(), rule).scale(fv[frozenset()])
    return flaglin.extend_linear(fv, lambda w: g_eval(i, build(w), rule))


class TestHByLinks:
    def test_hand_values(self):
        assert h_by_links(point()) == final_vec(0, {(): [1]})
        assert h_by_links(build(W("C"))) == final_vec(1, {(): [1, 1]})
        assert h_by_links(build(W("IC"))) == final_vec(2, {(): [1, 2, 1]})
        assert (h_by_links(build(W("CIC")))
                == final_vec(3, {(): [1, 2, 2, 1], (1,): [1]}))

    def test_engine_agreement_exhaustive(self):
        for w in words_up_to(4, "IC"):
            assert h_by_links(build(w)) == engine.extended_hvector(w), w

    def test_engine_agreement_basis_dim5(self):
        for w in flaglin.ic_basis(5):
            assert h_by_links(build(w)) == engine.extended_hvector(w), w

    def test_direct_rule_fails_somewhere(self):
        agrees = all(
            h_by_links(build(w), DIRECT) == engine.extended_hvector(w)
            for w in words_up_to(4, "IC"))
        assert not agrees

    def test_linear_extension_agreement_bipyramids(self):
        for w in words_up_to(5, "ICB"):
            lat = build(w)
            assert h_by_links(lat) == flaglin.linear_h(lat.flag_vector()), w

    def test_flag_linearity(self):
        # h depends on the lattice only through per-dimension sums of the
        # link flag vectors
        for ops in ["CIC", "BIC", "ICIC"]:
            lat = build(W(ops))
            by_dim = {}
            for face, d in lat.faces.items():
                if d < 0:
                    continue
                fv = link(lat, face).flag_vector()
                by_dim[d] = by_dim[d] + fv if d in by_dim else fv
            total = None
            for d, fv in sorted(by_dim.items()):
                part = g_linear(d, fv)
                total = part if total is None else total + part
            assert total == h_by_links(lat), ops


class TestAgainstReference:
    @pytest.mark.parametrize("rule", [CONJUGATION, DIRECT])
    def test_h_by_links_icb_dim5(self, rule):
        for w in words_up_to(5, "ICB"):
            lat = build(w)
            assert typed_terms(h_by_links(lat, rule)) == typed_terms(
                REFERENCE[rule].h(lat)), w

    @pytest.mark.parametrize("rule", [CONJUGATION, DIRECT])
    def test_g_eval_icb_dim3(self, rule):
        for w in words_up_to(3, "ICB"):
            lat = build(w)
            for i in range(3):
                assert typed_terms(g_eval(i, lat, rule)) == typed_terms(
                    REFERENCE[rule].g(i, lat)), (i, w)

    def test_pinned_values_icb_dim5(self):
        # one digest of h and of g at levels 0-2, under both rules, with the
        # type of every coefficient, so a change in how the route reads the
        # class table changes it
        digest = hashlib.sha256()
        for w in words_up_to(5, "ICB"):
            lat = build(w)
            for rule in (CONJUGATION, DIRECT):
                got = [h_by_links(lat, rule)] + [
                    g_eval(i, lat, rule) for i in range(3)]
                digest.update(repr((w.render(), rule,
                                    [typed_terms(h) for h in got])).encode())
        assert digest.hexdigest() == (
            "b53b632182b7618b3ee5ebd13237a41f8a6f2e68540d2121c250e12542224136")

    def test_aux_face_sum_is_the_aux_vector(self):
        calc = LinkCalculator(CONJUGATION)
        for w in words_up_to(5, "IC"):
            assert calc.h(build(w)) == engine.aux_hvector(w), w

    def test_unknown_rule(self):
        with pytest.raises(ValueError):
            LinkCalculator("solomonoff")

    def test_unknown_rule_in_the_module_functions(self):
        lat = build(W("IC"))
        for call in (lambda: h_by_links(lat, "bogus"),
                     lambda: g_eval(0, lat, "bogus")):
            with pytest.raises(ValueError, match="^unknown cone rule 'bogus'$"):
                call()


class TestBayer:
    def test_coefficient_both_routes(self):
        lat = build(W("BICCC"))
        assert flaglin.linear_h(lat.flag_vector()).coefficient(
            1, 0, (PAD, 1)) == -2
        assert h_by_links(lat).coefficient(1, 0, (PAD, 1)) == -2


class PerFaceLinkCalculator(FinalLinkCalculator):
    """The same face sum on built lattices, in the rule's flavor with the
    engine's cone, changing variables at the end under the conjugation
    rule: the reference for ``hvcalc.links``, which builds no lattice and
    shares no recursion with it."""

    def __init__(self, rule):
        super().__init__(rule)
        self.flavor = AUX if rule == CONJUGATION else FINAL

    def cone(self, h):
        return engine._cone(h)

    def final(self, h):
        return engine.to_extended(h) if self.flavor == AUX else h


PER_FACE = {rule: PerFaceLinkCalculator(rule) for rule in (CONJUGATION, DIRECT)}


class TestLinkClasses:
    def check(self, lat, rule, label):
        calc = PER_FACE[rule]
        assert typed_terms(h_by_links(lat, rule)) == typed_terms(
            calc.final(calc.h(lat))), label

    @pytest.mark.parametrize("rule", [CONJUGATION, DIRECT])
    def test_per_face_sum_icb_dim5(self, rule):
        for w in words_up_to(5, "ICB"):
            self.check(build(w), rule, w)

    @pytest.mark.parametrize("rule", [CONJUGATION, DIRECT])
    def test_per_face_sum_dim_6_sample(self, rule):
        for w in random.Random(6).sample(list(all_words(6, "ICB")), 40):
            self.check(build(w), rule, w)

    def test_the_route_builds_no_lattice(self, monkeypatch):
        # h, and g at levels 0-2 below dim 5 and level 0 at dim 5: the
        # reference's pyramids of dim 7 would take most of a minute
        cases = [(w, build(w), range(3 if w.dim < 5 else 1))
                 for w in words_up_to(5, "ICB")]
        want = {(rule, w): [typed_terms(calc.final(calc.h(lat)))] + [
                    typed_terms(calc.final(calc.g(i, lat))) for i in levels]
                for rule, calc in PER_FACE.items() for w, lat, levels in cases}

        def refuse(*args):
            raise AssertionError("the link route built a lattice")

        for name in ("pyramid", "prism", "bipyramid", "join"):
            monkeypatch.setattr(FaceLattice, name, refuse)
        for rule in PER_FACE:
            # a cold calculator, so that every value is computed here
            monkeypatch.setitem(links._CALCULATORS, rule, LinkCalculator(rule))
            for w, lat, levels in cases:
                got = [typed_terms(h_by_links(lat, rule))] + [
                    typed_terms(g_eval(i, lat, rule)) for i in levels]
                assert got == want[rule, w], (rule, w)


# graded families that validate, though not every interval of length 2 is
# a diamond: a quadrilateral whose edge {0, 1, 2} has three vertices, so
# vertex 1 lies in one edge only; Pasch's configuration, four edges of
# three vertices each, every vertex in two; and a tetrahedron with a vertex
# 1 put on its edge {0, 2} and on no other edge, so that every ridge lies in
# two facets yet vertex 1 in one edge of each facet that holds it
LOPSIDED = (((), -1), *(((v,), 0) for v in range(4)), ((0, 1, 2), 1),
            ((2, 3), 1), ((0, 3), 1), ((0, 1, 2, 3), 2))
PASCH = (((), -1), *(((v,), 0) for v in range(6)), ((0, 1, 2), 1),
         ((2, 3, 4), 1), ((4, 5, 0), 1), ((1, 3, 5), 1), (tuple(range(6)), 2))
TENT = (((), -1), *(((v,), 0) for v in range(5)), ((0, 1, 2), 1),
        *(((u, v), 1) for u, v in ((2, 3), (0, 3), (2, 4), (0, 4), (3, 4))),
        ((0, 1, 2, 3), 2), ((0, 1, 2, 4), 2), ((2, 3, 4), 2), ((0, 3, 4), 2),
        (tuple(range(5)), 3))


def coned(faces, cones):
    """The lattice of these faces, coned this many times."""
    lat = FaceLattice(max(d for _, d in faces),
                      {frozenset(f): d for f, d in faces})
    for _ in range(cones):
        lat = lat.pyramid()
    return lat


class TestNotThin:
    """A lattice with an interval of length 2 that is not a diamond is not
    a polytope's: the route refuses it, naming the interval."""

    def test_validating_mutants(self):
        rng = random.Random(7)
        tally = Counter()
        for w in words_up_to(4, "ICB"):
            for _, mut in mutants(build(w), rng, 16):
                if outcome(FaceLattice.validate, mut) != ("returned", None):
                    continue
                if any(outcome(link, mut, f)[0] == "raised"
                       for f, d in mut.faces.items() if d >= 0):
                    with pytest.raises(ValueError,
                                       match="not a polytope lattice$"):
                        h_by_links(mut)
                    tally["refused"] += 1
                else:
                    assert typed_terms(h_by_links(mut)) == typed_terms(
                        REFERENCE[CONJUGATION].h(mut)), w
                    tally["equal"] += 1
        assert tally == {"refused": 94, "equal": 53}

    @pytest.mark.parametrize("cones", range(4))
    @pytest.mark.parametrize("faces, lo, hi, atomic", [
        (LOPSIDED, [1], [0, 1, 2, 3], False), (PASCH, [], [1, 3, 5], True),
        (TENT, [1], [0, 1, 2, 4], False)])
    def test_graded_families(self, faces, lo, hi, atomic, cones):
        lat = coned(faces, cones)
        assert lat.validate() is None and not lat._graded
        assert lat.flag_vector().n == lat.n  # the chain pass counts it
        # every interval up from a nonempty face is atomic in PASCH, so a
        # link built per face would not see that its edges are not segments
        built = [outcome(link, lat, f) for f, d in lat.faces.items() if d >= 0]
        assert all(r == "returned" for r, _ in built) is atomic
        base = sum(d == 0 for _, d in faces)  # the apexes come next
        apexes = list(range(base, base + cones))
        # the first found: in TENT the vertex 1 below a facet, over one edge
        message = (f"the interval from face {lo + apexes} to face "
                   f"{hi + apexes} is not a diamond; not a polytope lattice")
        for call in (lambda: h_by_links(lat), lambda: g_eval(0, lat),
                     lat.interval_counts):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == message

    def test_no_full_face(self):
        # a path: vertices 0 and 2 lie in one edge each, with no polytope
        # face above the edges to end the interval
        lat = FaceLattice(2, {frozenset(f): d for f, d in (
            ((), -1), ((0,), 0), ((1,), 0), ((2,), 0), ((0, 1), 1),
            ((1, 2), 1))})
        for call in (lat.link_classes, lat.interval_counts,
                     lambda: h_by_links(lat)):
            with pytest.raises(ValueError, match="^no full face present$"):
                call()
