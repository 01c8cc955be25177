"""The face-sum recursion, the transported cone rule, and the lift."""

import random

import pytest

from hvcalc import checks, engine, flaglin
from hvcalc.lattice import build, empty_polytope, point
from hvcalc.links import (
    CONJUGATION, DIRECT, cone_rule_final, g_eval, g_linear, h_by_links,
    lift_to_aux,
)
from hvcalc.symbols import AUX, FINAL, PAD, BiGradedPoly, HVector
from hvcalc.words import GeneratorWord as W
from hvcalc.words import words_up_to


def final_vec(degree, terms):
    return HVector(degree, FINAL,
                   {w: BiGradedPoly(cs) for w, cs in terms.items()})


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
        for p in lifted.terms.values():
            assert all(isinstance(c, int) for c in p.coeffs)

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
                fv = lat.link_flag_vector(face)
                by_dim[d] = by_dim[d] + fv if d in by_dim else fv
            total = None
            for d, fv in sorted(by_dim.items()):
                part = g_linear(d, fv)
                total = part if total is None else total + part
            assert total == h_by_links(lat), ops


class TestBayer:
    def test_coefficient_both_routes(self):
        lat = build(W("BICCC"))
        from hvcalc.links import coefficient_of
        from hvcalc.terms import IndexTerm
        term = IndexTerm(1, 0, (PAD, 1), FINAL)
        assert coefficient_of(flaglin.linear_h(lat.flag_vector()), term) == -2
        assert coefficient_of(h_by_links(lat), term) == -2
