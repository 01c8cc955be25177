"""Polynomials, words, pad rewriting, and formal sums."""

import random
from enum import IntEnum
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import comb

import pytest
from hypothesis import given, strategies as st

from hvcalc import engine, symbols
from hvcalc.engine import aux_hvector, extended_hvector
from hvcalc.lattice import build
from hvcalc.links import CONJUGATION, DIRECT, h_by_links
from hvcalc.symbols import (
    AUX, FINAL, PAD, PAD_AUX, BiGradedPoly, HVector, render_coeffs,
    render_word, rewrite_pads, word_degree, word_sort_key, word_to_json,
)
from hvcalc.words import GeneratorWord, all_words, words_up_to


class TestPoly:
    def test_add(self):
        assert (BiGradedPoly([1, 2, 1]) + BiGradedPoly([0, 1, 0])
                == BiGradedPoly([1, 3, 1]))
        assert BiGradedPoly([1]) + BiGradedPoly([-1]) == BiGradedPoly([0])
        assert (BiGradedPoly([1, 2, 2, 1]) + BiGradedPoly([0, 1, 1, 0])
                == BiGradedPoly([1, 3, 3, 1]))

    def test_add_degree_mismatch(self):
        with pytest.raises(ValueError):
            BiGradedPoly([1, 2]) + BiGradedPoly([1])

    def test_mul_linear(self):
        assert BiGradedPoly([1, 2, 2, 1]).mul_linear() == BiGradedPoly([1, 3, 4, 3, 1])
        assert BiGradedPoly([1]).mul_linear() == BiGradedPoly([1, 1])
        # hand expansion of (X+Y)(X^4+2X^3Y+2X^2Y^2+2XY^3+Y^4)
        assert (BiGradedPoly([1, 2, 2, 2, 1]).mul_linear()
                == BiGradedPoly([1, 3, 4, 4, 3, 1]))

    def test_structural_zero_keeps_degree(self):
        z = HVector.zero(3, FINAL).mpih()
        assert z.degree == 3 and not any(z.coeffs)

    def test_fraction_collapse(self):
        p = BiGradedPoly([Fraction(4, 2), Fraction(1, 3)])
        assert p.coeffs[0] == 2 and isinstance(p.coeffs[0], int)
        assert p.coeffs[1] == Fraction(1, 3)

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            BiGradedPoly([1.5])

    @pytest.mark.parametrize("bad", [True, False, 1.0, "1", None])
    @pytest.mark.parametrize("at", [0, 2])
    def test_inexact_coefficient_rejected_anywhere(self, bad, at):
        cs = [1, 2, 3]
        cs[at] = bad
        with pytest.raises(TypeError):
            BiGradedPoly(cs)

    def test_integral_fractions_collapse_on_every_route(self):
        for p in (BiGradedPoly([Fraction(4, 2)]),
                  BiGradedPoly([1, Fraction(4, 2)]),
                  BiGradedPoly([Fraction(1, 2)]) + BiGradedPoly([Fraction(3, 2)]),
                  BiGradedPoly([4]).scale(Fraction(1, 2))):
            assert p.coeffs[-1] == 2 and type(p.coeffs[-1]) is int

    def test_render(self):
        assert BiGradedPoly([1, 3, 4, 3, 1]).render() == "(13431)"
        assert BiGradedPoly([1, 2, 2, 2, 1]).render(aux=True) == "[12221]"
        assert BiGradedPoly([1, -1, 5, 1]).render() == "(1,-1,5,1)"
        assert BiGradedPoly([12, 1]).render() == "(12,1)"

    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=8))
    def test_mul_linear_degree_and_sum(self, cs):
        p = BiGradedPoly(cs)
        q = p.mul_linear()
        assert q.degree == p.degree + 1
        # evaluating at first=second=1 doubles under multiplication by (1+1)
        assert sum(q.coeffs) == 2 * sum(p.coeffs)


class TestWords:
    def test_degrees(self):
        assert word_degree(()) == 0
        assert word_degree((PAD, 1)) == 4
        assert word_degree((PAD_AUX, PAD_AUX, 1)) == 5
        assert word_degree((2,)) == 5
        # an int subclass other than bool, such as an IntEnum member, is a local
        assert word_degree((PAD, IntEnum("K", {"TWO": 2}).TWO)) == 6

    @pytest.mark.parametrize("bad", [0, -1, 1.0, "B", None, True])
    def test_bad_symbol_rejected(self, bad):
        with pytest.raises(ValueError):
            word_degree((PAD, 1, bad))

    def test_render(self):
        assert render_word((PAD, 1)) == "A{1}"
        assert render_word((PAD_AUX, 2)) == "Ā{2}"

    def test_json_round_trip(self):
        assert word_to_json((PAD, 1, PAD_AUX, 3)) == [
            "A", {"local": 1}, "Abar", {"local": 3}]


class TestRewrite:
    def test_push_pads_examples(self):
        assert rewrite_pads((PAD_AUX, 1)) == ((PAD, 1),)
        assert rewrite_pads((PAD_AUX, PAD_AUX, 1)) == ((PAD, PAD, 1),)
        assert rewrite_pads((PAD_AUX,) * 3) == ()
        assert set(rewrite_pads((PAD_AUX, 1, 1))) == {(PAD, 1, 1), (1, PAD, 1)}

    def test_push_zero_pads(self):
        assert rewrite_pads((1,)) == ((1,),)

    def test_weak_composition_counts(self):
        # pads distribute into slots before each local symbol
        for m in range(5):
            for r in range(1, 4):
                for ks in combinations_with_replacement((1, 2), r):
                    out = rewrite_pads((PAD_AUX,) * m + ks)
                    assert len(set(out)) == len(out) == comb(m + r - 1, r - 1)

    def test_degree_conservation(self):
        for m in range(4):
            for w in [(1,), (1, 1), (PAD, 1), (2, 1)]:
                for out in rewrite_pads((PAD_AUX,) * m + w):
                    assert word_degree(out) == m + word_degree(w)

    def test_full_scale_termination_and_normal_form(self):
        # every pad power against every word through degree 12 terminates
        # in well-formed final words of the right degree
        from hvcalc.terms import words_up_to_degree
        for m in range(7):
            for w in words_up_to_degree(12):
                for out in rewrite_pads((PAD_AUX,) * m + w):
                    assert word_degree(out) == m + word_degree(w)
                    assert PAD_AUX not in out
                    assert not out or out[-1] != PAD

    def test_no_word_occurs_twice(self):
        # every word of length <= 6 over {Ā, A, {1}, {2}}: a normal form is
        # a set, so rewrites never need a multiplicity
        words = [w for n in range(1, 7)
                 for w in product((PAD_AUX, PAD, 1, 2), repeat=n)]
        assert len(words) == 5460
        for word in words:
            out = rewrite_pads(word)
            assert len(set(out)) == len(out), word

    def test_confluence_random_strategies(self):
        # applying the rules in any order gives the same normal form
        rng = random.Random(7)

        def rewrite_random(word):
            # a redex is a sliding pad not immediately followed by another
            # sliding pad (the inner one must go first)
            pads = [i for i, s in enumerate(word)
                    if s == PAD_AUX
                    and (i + 1 >= len(word) or word[i + 1] != PAD_AUX)]
            if not pads:
                if word and word[-1] == PAD:
                    return {}
                return {word: 1}
            i = rng.choice(pads)
            if i == len(word) - 1:
                return {}
            nxt = word[i + 1]
            from collections import Counter
            out = Counter()
            if nxt == PAD:
                for w, m in rewrite_random(word[:i] + (PAD,) + word[i + 1:]).items():
                    out[w] += m
            else:
                for w, m in rewrite_random(word[:i] + (PAD,) + word[i + 1:]).items():
                    out[w] += m
                for w, m in rewrite_random(word[:i] + (nxt, PAD_AUX) + word[i + 2:]).items():
                    out[w] += m
            return dict(out)

        cases = [
            (PAD_AUX, PAD_AUX, 1),
            (PAD_AUX, 1, PAD_AUX, 2),
            (PAD_AUX, PAD_AUX, PAD_AUX, 1, 1),
            (PAD_AUX, 2, 1),
            (PAD_AUX, PAD_AUX, 1, PAD_AUX, 1),
        ]
        # plus every pad-power against every short final word
        from hvcalc.terms import words_up_to_degree
        for m in range(7):
            for w in words_up_to_degree(8):
                cases.append((PAD_AUX,) * m + w)
        for word in cases:
            reference = dict.fromkeys(rewrite_pads(word), 1)
            for _ in range(3):
                assert rewrite_random(word) == reference, word


class TestHVector:
    def test_cancellation(self):
        u = HVector(4, AUX, {(): (1, 2, 2, 2, 1), (PAD_AUX, 1): (1,)})
        v = HVector(4, AUX, {(PAD_AUX, 1): (1,)})
        w = u + v.scale(-1)
        assert w.terms == {(): (1, 2, 2, 2, 1)}

    def test_render_reads_words_from_a_bounded_memo(self):
        h = extended_hvector(GeneratorWord("ICICCIC"))
        order = sorted(h.terms.items(), key=lambda kv: word_sort_key(kv[0]))
        for _ in range(2):  # the second pass reads every word from the memo
            assert h.sorted_terms() == order
            assert h.render() == " + ".join(
                render_coeffs(cs) + render_word(w) for w, cs in order)
            assert h.to_csv() == "word,poly\n" + "".join(
                f"{render_word(w)},{' '.join(map(str, cs))}\n"
                for w, cs in order)
        words = symbols._WORDS
        assert all(words[w][0] is w
                   and words[w][5:] == (word_sort_key(w), render_word(w))
                   for w, _ in order)
        assert len(symbols._WORDS) <= symbols._WORDS_MAX

    def test_distinct_words_retained(self):
        u = HVector(4, AUX, {(1,): (1, 1)})
        v = HVector(4, AUX, {(PAD_AUX, 1): (1,)})
        assert len((u + v).terms) == 2

    def test_scale(self):
        h = HVector(3, AUX, {(): (1, 2, 2, 1), (1,): (1,)})
        doubled = h.scale(2)
        assert doubled.terms[()] == (2, 4, 4, 2)
        assert doubled.terms[(1,)] == (2,)

    def test_degree_mismatch(self):
        u = HVector(3, AUX, {(): (1, 1, 1, 1)})
        v = HVector(2, AUX, {(): (1, 1, 1)})
        with pytest.raises(ValueError):
            u + v

    def test_flavor_mismatch(self):
        u = HVector(3, AUX, {(): (1, 1, 1, 1)})
        v = HVector(3, FINAL, {(): (1, 1, 1, 1)})
        with pytest.raises(ValueError):
            u + v

    def test_trailing_pad_annihilated(self):
        h = HVector(2, AUX, {(PAD_AUX, PAD_AUX): (1,)})
        assert not h.terms

    def test_zero_poly_dropped_and_renders_zero(self):
        h = HVector(3, FINAL, {(): (0, 0, 0, 0)})
        assert not h.terms and h.render() == "0"

    def test_homogeneity_enforced(self):
        with pytest.raises(ValueError):
            HVector(3, FINAL, {(1,): (1, 1)})

    def test_wrong_flavor_word(self):
        with pytest.raises(ValueError):
            HVector(4, FINAL, {(PAD_AUX, 1): (1,)})
        with pytest.raises(ValueError):
            HVector(4, AUX, {(PAD, 1): (1,)})

    @pytest.mark.parametrize("degree,flavor,terms", [
        (1, AUX, {("x",): [0]}),            # a zero polynomial
        (5, FINAL, {("x", PAD): [1]}),      # a trailing pad
        (0, FINAL, {(0.5, PAD_AUX): [1]}),  # both, and the aux pad
    ], ids=["zero-poly", "trailing-pad", "trailing-wrong-pad"])
    def test_word_checked_before_a_drop(self, degree, flavor, terms):
        with pytest.raises(ValueError, match="bad symbol"):
            HVector(degree, flavor, terms)

    def test_wrong_flavor_checked_before_a_drop(self):
        for poly in ([1], [0, 0]):
            with pytest.raises(ValueError, match="wrong flavor for final"):
                HVector(len(poly), FINAL, {(PAD_AUX,): poly})
        assert not HVector(1, AUX, {(PAD_AUX,): [1]}).terms

    @pytest.mark.parametrize("degree", [1.0, True, "1", None])
    def test_non_int_degree_refused(self, degree):
        with pytest.raises(TypeError, match="degree must be an int"):
            HVector(degree, AUX, {(): (1, 1)})

    def test_degree_minus_one_is_the_empty_polytope(self):
        from hvcalc.lattice import empty_polytope
        from hvcalc.links import h_by_links
        h = h_by_links(empty_polytope())
        assert h == HVector(-1, FINAL, {}) and h.render() == "0"

    def test_empty_polytope_has_no_mpih(self):
        from hvcalc.lattice import empty_polytope
        from hvcalc.links import h_by_links
        for h in (h_by_links(empty_polytope()), HVector(-1, AUX, {})):
            with pytest.raises(ValueError) as info:
                h.mpih()
            assert str(info.value) == "the empty polytope has no mpih part"

    @pytest.mark.parametrize("degree", [-3, -2])
    def test_degree_below_minus_one_refused(self, degree):
        with pytest.raises(ValueError, match=f"at least -1, got {degree}$"):
            HVector(degree, AUX, {})

    def test_refusals_among_valid_terms(self):
        good = {(): (1, 2, 2, 2, 1), (1,): (1, 1)}
        for word, poly in [((2,), (1,)),            # degree 5
                           ((PAD, 1), (1,)),        # final pad
                           ((PAD_AUX, 1.0), (1,)),  # float local
                           ((0, 1), (1,)),          # local {0}
                           ((1,), ())]:             # no coefficients
            with pytest.raises(ValueError):
                HVector(4, AUX, {**good, word: poly})

    @pytest.mark.parametrize("bad", [1.5, "1", True, None])
    @pytest.mark.parametrize("at", [0, 2])
    def test_inexact_coefficient_refused(self, bad, at):
        cs = [1, 2, 1]
        cs[at] = bad
        with pytest.raises(TypeError):
            HVector(2, FINAL, {(): cs})

    def test_poly_value_refused(self):
        # a term's value is a coefficient sequence, never a BiGradedPoly
        with pytest.raises(TypeError):
            HVector(2, FINAL, {(): BiGradedPoly([1, 2, 1])})

    def test_integral_fractions_collapse(self):
        half = HVector(1, FINAL, {(): (Fraction(1, 2), Fraction(3, 2))})
        assert half.terms[()] == (Fraction(1, 2), Fraction(3, 2))
        for h in (HVector(1, FINAL, {(): (Fraction(4, 2), 1)}),
                  half + half,
                  half.scale(2),
                  HVector(1, FINAL, {(): (4, 2)}).scale(Fraction(1, 2))):
            assert [type(c) for c in h.terms[()]] == [int, int], h

    def test_int_subclass_coefficient_stored_as_int(self):
        class Loud(int):
            def __str__(self):
                return "loud"

        h = HVector(0, FINAL, {(): [Loud(2)]})
        assert type(h.terms[()][0]) is int
        assert h.render() == "(2)"
        assert h == HVector(0, FINAL, {(): [2]})

    def test_terms_are_tuples(self):
        h = HVector(4, AUX, {(): [1, 2, 2, 2, 1], (1,): [1, 1]})
        for v in (h, h + h, h - h.scale(2), h.scale(3), h.times_second()):
            assert all(type(cs) is tuple for cs in v.terms.values()), v

    def test_render_order_matches_display(self):
        h = HVector(5, FINAL, {
            (2,): (1,),
            (): (1, 3, 4, 4, 3, 1),
            (PAD, PAD, 1): (2,),
            (PAD, 1): (1, 1),
            (1,): (1, 1, 1),
        })
        assert h.render() == "(134431) + (111){1} + (11)A{1} + (2)AA{1} + (1){2}"
        assert repr(h) == f"<HVector final deg 5: {h.render()}>"

    def test_json(self):
        h = HVector(4, FINAL, {(PAD, 1): (1,)})
        data = h.to_json()
        assert data == {"degree": 4, "flavor": "final",
                        "terms": [{"word": ["A", {"local": 1}], "poly": [1]}]}

    def test_csv_of_fraction_coefficients(self):
        # aux words print their barred pad; the zero vector is the header
        h = HVector(5, AUX, {(): [Fraction(1, 2), 3, Fraction(6, 4), 0, 1, 7],
                             (PAD_AUX, 1): [Fraction(-1, 3), Fraction(4, 2)]})
        assert h.to_csv() == "word,poly\n,1/2 3 3/2 0 1 7\nĀ{1},-1/3 2\n"
        assert HVector.zero(2, FINAL).to_csv() == "word,poly\n"

    def test_poly_json(self):
        p = BiGradedPoly([Fraction(1, 3), Fraction(4, 2), -5])
        assert p.to_json() == ["1/3", 2, -5]
        assert type(p.to_json()[1]) is int

    def test_coefficient(self):
        h = HVector(5, FINAL, {(PAD, 1): (-2, 4)})
        assert h.coefficient(1, 0, (PAD, 1)) == -2
        assert h.coefficient(0, 1, (PAD, 1)) == 4
        assert h.coefficient(0, 0, (2,)) == 0

    def test_coefficient_refuses_negative_exponent(self):
        h = extended_hvector(GeneratorWord("IC"))
        assert h.render() == "(121)"
        for xexp, yexp in ((3, -1), (-1, 3), (-1, 0)):
            with pytest.raises(ValueError, match="negative exponent"):
                h.coefficient(xexp, yexp, ())

    @pytest.mark.parametrize("xexp,yexp", [
        (True, 1), (1.0, 1), (1, True), (1, 1.0), ("1", 1), (None, 1)],
        ids=["bool-x", "float-x", "bool-y", "float-y", "str-x", "none-x"])
    def test_coefficient_refuses_non_int_exponent(self, xexp, yexp):
        h = extended_hvector(GeneratorWord("IC"))
        assert h.render() == "(121)" and h.coefficient(1, 1, ()) == 2
        with pytest.raises(TypeError, match="exponent must be an int"):
            h.coefficient(xexp, yexp, ())

    @given(st.integers(0, 3), st.integers(0, 3))
    def test_module_axioms(self, a, b):
        h = HVector(3, AUX, {(): (1, 2, 2, 1), (1,): (3,)})
        assert h.scale(a) + h.scale(b) == h.scale(a + b)


class _Liar(tuple):
    """Equal to (1,) and hashed as it, whatever it holds."""

    def __eq__(self, other):
        return other == (1,)

    def __hash__(self):
        return hash((1,))


class _Pairs(list):
    """(word, coefficients) pairs, read as a term map."""

    def items(self):
        return self


def _reference_terms(degree, flavor, terms):
    """The constructor's per-term checks as they ran before it accepted a
    map of kept words in one loop: the clean terms, in order."""
    bad_pad = symbols._check_flavor(flavor)[1]
    clean = {}
    get = symbols._WORDS.get
    for word, cs in (terms or {}).items():
        if type(cs) is not tuple or not cs:
            cs = symbols._coeff_tuple(cs)
        else:
            for c in cs:
                if type(c) is not int:
                    cs = symbols._coeff_tuple(cs)
                    break
        try:
            entry = get(word) if type(word) is tuple else None
        except TypeError:  # an unhashable symbol
            entry = None
        if entry is None or entry[0] is not word or bad_pad in entry[2]:
            entry = symbols._checked_word(word, bad_pad)
        word, wdeg = entry[:2]
        if word and word[-1] in symbols._PADS or not any(cs):
            continue  # a trailing pad meets the terminator, or zero
        if len(cs) - 1 + wdeg != degree:
            raise ValueError(
                f"term {word!r} breaks degree {degree} homogeneity")
        clean[word] = cs
    return clean


class TestWordRegistry:
    """A term skips its word's symbol check only when the word is the very
    tuple checked before; the coefficient, flavor and degree checks run on
    every term."""

    @pytest.fixture
    def checks(self, monkeypatch):
        """The words whose symbols get checked, in order."""
        seen = []

        def counting(word):
            seen.append(word)
            return word_degree(word)
        monkeypatch.setattr(symbols, "word_degree", counting)
        return seen

    def test_bool_word_refused_after_its_equal(self):
        HVector(3, AUX, {(1,): [1]})
        assert symbols._WORDS[(1,)][0] == (True,)  # equal, and same hash
        with pytest.raises(ValueError, match="bad symbol True"):
            HVector(3, AUX, {(True,): [1]})

    def test_equal_but_distinct_tuple_checked(self, checks):
        first, second = tuple([PAD_AUX, 1]), tuple([PAD_AUX, 1])
        for word in (first, first, second, second, first):
            HVector(4, AUX, {word: [1]})
        assert [w is second for w in checks] == [False, True, False]
        assert symbols._WORDS[first][0] is first

    def test_tuple_subclass_never_trusted(self, checks):
        class Liar(tuple):
            """Equal to (1,) and hashed as it, but holding True."""
            def __eq__(self, other):
                return other == (1,)

            def __hash__(self):
                return hash((1,))

        HVector(3, AUX, {tuple([1]): [1]})
        with pytest.raises(ValueError, match="bad symbol True"):
            HVector(3, AUX, {Liar((True,)): [1]})

        class Word(tuple):
            pass

        h = HVector(3, AUX, {Word((1,)): [1]})
        assert [type(w) for w in h.terms] == [tuple]
        # each came to the symbol check as a plain tuple of its own symbols
        assert [type(w) for w in checks] == [tuple] * 3
        assert [type(w[0]) for w in checks] == [int, bool, int]

    def test_registered_word_in_the_wrong_flavor(self):
        word = (PAD_AUX, 1)
        HVector(4, AUX, {word: [1]})
        assert symbols._WORDS[word][0] is word
        with pytest.raises(ValueError, match="wrong flavor for final"):
            HVector(4, FINAL, {word: [1]})

    def test_registered_word_at_the_wrong_degree(self):
        word = (1,)
        HVector(3, FINAL, {word: [1]})
        assert symbols._WORDS[word][0] is word
        with pytest.raises(ValueError, match="breaks degree 4 homogeneity"):
            HVector(4, FINAL, {word: [1]})

    def test_coefficients_checked_on_a_registered_word(self):
        word = (1,)
        HVector(4, FINAL, {word: [1, 1]})
        with pytest.raises(TypeError, match="exact"):
            HVector(4, FINAL, {word: [1, 1.0]})
        assert HVector(4, FINAL, {word: [0, 0]}).terms == {}

    @pytest.mark.parametrize("registered,word,poly,degree,flavor,refusal", [
        ((PAD_AUX, 1), None, (1,), 4, FINAL,
         (ValueError, "word ('Ā', 1) has wrong flavor for final")),
        ((1,), None, (1, 1.0), 4, FINAL,
         (TypeError, "exact coefficient required, got float")),
        ((1,), None, (1, True), 4, FINAL,
         (TypeError, "exact coefficient required, got bool")),
        ((1,), None, (), 4, FINAL,
         (ValueError, "a polynomial needs at least one coefficient")),
        ((PAD_AUX, 1), (PAD_AUX, [1]), (1,), 4, AUX,
         (ValueError, "bad symbol [1]")),
        ((1,), _Liar((True,)), (1,), 3, AUX,
         (ValueError, "bad symbol True")),
        ((1,), None, (1,), 4, FINAL,
         (ValueError, "term (1,) breaks degree 4 homogeneity")),
    ], ids=["aux-word-in-final", "float-after-ints", "bool-after-ints",
            "no-coefficients", "unhashable-symbol", "tuple-subclass",
            "wrong-degree"])
    def test_fast_path_refusals(self, registered, word, poly, degree,
                                flavor, refusal):
        """A term on a registered word, or beside one, is refused with
        the same exception and message as by the full checks."""
        HVector(word_degree(registered), AUX if PAD_AUX in registered
                else FINAL, {registered: (1,)})
        assert symbols._WORDS[registered][0] is registered
        exc, message = refusal
        # the term map is a list of pairs behind ``items``, which can hold
        # an unhashable word
        terms = _Pairs([(registered if word is None else word, poly)])
        with pytest.raises(exc) as info:
            HVector(degree, flavor, terms)
        assert type(info.value) is exc and str(info.value) == message

    def test_registry_bounded(self):
        for k in range(1, symbols._WORDS_MAX + 100):
            HVector(2 * k + 1, FINAL, {(k,): [1]})
            assert len(symbols._WORDS) <= symbols._WORDS_MAX
        assert (k,) in symbols._WORDS

    def test_kept_words_cleared_with_the_registry(self, checks):
        word = tuple([1])
        HVector(3, FINAL, {word: (1,)})
        entry = symbols._WORDS[word]
        assert entry[0] is word and entry[symbols._KEEPS[FINAL]]
        for k in range(1, symbols._WORDS_MAX + 1):
            HVector(2 * k + 2, FINAL, {(PAD, k): (1,)})
            assert len(symbols._WORDS) <= symbols._WORDS_MAX
        assert word not in symbols._WORDS
        checks.clear()
        HVector(3, FINAL, {word: (1,)})
        assert checks == [word] and checks[0] is word

    def test_second_engine_vector_checks_no_word(self, checks):
        w = GeneratorWord("ICICCIC")
        engine._extended_hvector.cache_clear()
        first = extended_hvector(w)
        engine._extended_hvector.cache_clear()
        checks.clear()
        second = extended_hvector(w)
        assert checks == [] and second == first and second is not first
        words, final = symbols._WORDS, symbols._KEEPS[FINAL]
        assert all(words[word][0] is word and words[word][final]
                   for word in second.terms)


class TestFastAcceptance:
    """A map of kept words is accepted in one loop; every map, accepted or
    not, gives the terms or the refusal of the per-term checks."""

    @staticmethod
    def _maps():
        """Every term map the engine, the link route and the vector
        operations hand the constructor on words of dim <= 7."""
        maps = []
        init = HVector.__init__

        def recording(self, degree, flavor, terms=None):
            maps.append((degree, flavor, terms))
            init(self, degree, flavor, terms)

        HVector.__init__ = recording
        try:
            engine._aux_hvector.cache_clear()
            engine._extended_hvector.cache_clear()
            finals = [extended_hvector(w) for w in words_up_to(7, "IC")]
            auxes = [aux_hvector(w) for w in words_up_to(7, "IC")]
            rng = random.Random(40)
            words = [*words_up_to(5, "ICB"),
                     *rng.sample(list(all_words(6, "ICB")), 10),
                     *rng.sample(list(all_words(7, "ICB")), 10)]
            for w in words:
                for rule in (CONJUGATION, DIRECT):
                    h_by_links(build(w), rule)
            for h, g in zip(finals + auxes, finals[1:] + auxes[1:]):
                if h.degree == g.degree:
                    h + g, h - g, h - h, g - h
                for c in (0, -2, Fraction(1, 2)):
                    h.scale(c)
                h.times_second()
        finally:
            HVector.__init__ = init
        return maps

    @staticmethod
    def _mutants(maps):
        """Seeded single-term mutants of the maps: each changes one term
        of a nonempty map of tuples."""
        rng = random.Random(4040)

        class Word(tuple):
            pass

        def kept(flavor, degree, pad=None):
            """A word kept for the flavor, of that degree, holding ``pad``."""
            slot = symbols._KEEPS[flavor]
            words = [w for w, e in symbols._WORDS.items() if e[slot]
                     and e[1] == degree and (pad is None or pad in e[2])]
            return rng.choice(words) if words else None

        def mutate(word, cs, kind, flavor, degree):
            own, wrong = symbols._FLAVORS[flavor][:2]
            other = AUX if flavor == FINAL else FINAL
            i = rng.randrange(len(cs))
            if kind == "empty-above":  # no coefficient, degree + 1 in all
                return kept(flavor, degree + 1) or word, ()
            if kind == "other-flavor":  # the very word the other one kept
                return kept(other, degree - len(cs) + 1, wrong) or word, cs
            if kind in ("float", "bool", "fraction", "half"):
                new = {"float": float(cs[i]), "bool": True,
                       "fraction": Fraction(cs[i]),
                       "half": Fraction(1, 2)}[kind]
                return word, (*cs[:i], new, *cs[i + 1:])
            return {
                "list": (word, list(cs)),
                "empty": (word, ()),
                "zero": (word, (0,) * len(cs)),
                "trailing-pad": ((*word, own), cs),
                "wrong-pad": ((wrong, *word), cs[1:] or cs),
                "wrong-degree": (word, (*cs, 0)),
                "equal-tuple": (tuple(list(word)), cs),
                "tuple-subclass": (Word(word), cs),
                "unhashable": ((*word, [1]), cs),
            }[kind]

        kinds = ("float", "bool", "fraction", "half", "list", "empty",
                 "empty-above", "other-flavor",
                 "zero", "trailing-pad", "wrong-pad", "wrong-degree",
                 "equal-tuple", "tuple-subclass", "unhashable")
        usable = [m for m in maps if type(m[2]) is dict and m[2]
                  and all(type(cs) is tuple for cs in m[2].values())]
        for kind in kinds:
            for degree, flavor, terms in rng.sample(usable, 40):
                items = list(terms.items())
                at = rng.randrange(len(items))
                items[at] = mutate(*items[at], kind, flavor, degree)
                yield kind, degree, flavor, (
                    _Pairs(items) if kind == "unhashable" else dict(items))

    @staticmethod
    def _verdict(fn, *args):
        try:
            return "returned", list(fn(*args).items())
        except (TypeError, ValueError) as e:
            return type(e), str(e)

    def test_constructor_equals_the_per_term_checks(self, monkeypatch):
        accepted = []
        fast = symbols._accepted

        def counting(*args):
            clean = fast(*args)
            accepted.append(clean is not None)
            return clean
        monkeypatch.setattr(symbols, "_accepted", counting)
        maps = self._maps()
        cases = [("as made", *m) for m in maps]
        cases += list(self._mutants(maps))
        kinds, fast_kinds, unaccepted = set(), set(), []
        for kind, degree, flavor, terms in cases:
            want = self._verdict(_reference_terms, degree, flavor, terms)
            for _ in range(2):  # the second run meets every word kept
                accepted.clear()
                got = self._verdict(
                    lambda: HVector(degree, flavor, terms).terms)
                assert got == want, (kind, degree, flavor, terms)
            if want[0] == "returned":
                assert all(type(w) is tuple and type(cs) is tuple
                           for w, cs in want[1])
            kinds.add((kind, want[0]))
            if accepted == [True]:
                fast_kinds.add(kind)
            elif kind == "as made" and type(terms) is dict and all(
                    type(c) is int for cs in terms.values() for c in cs):
                unaccepted.append((degree, flavor, terms))
        # the one loop accepted the maps as made and dropped zero terms;
        # every mutant kind was met with the outcome it must have
        assert {"as made", "zero"} <= fast_kinds
        # on its second construction every dict map of ints as made was
        # accepted: aux folds, both link rules and the vector operations
        assert unaccepted == []
        assert {("float", TypeError), ("bool", TypeError),
                ("list", "returned"), ("empty", ValueError),
                ("zero", "returned"), ("trailing-pad", "returned"),
                ("wrong-pad", ValueError), ("wrong-degree", ValueError),
                ("equal-tuple", "returned"), ("tuple-subclass", "returned"),
                ("unhashable", ValueError), ("fraction", "returned"),
                ("empty-above", ValueError), ("other-flavor", ValueError),
                } <= kinds
