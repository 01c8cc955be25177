"""Index terms: degrees, strata, the implication order, Fibonacci counts."""

import pytest
from hypothesis import given, settings, strategies as st

from hvcalc import engine
from hvcalc.symbols import (
    AUX, FINAL, PAD, PAD_AUX, HVector, word_locals, word_sort_key,
)
from hvcalc.terms import (
    IndexTerm, broadly_similar, downset, enumerate_terms, fib, implies,
    strata_vector, words_up_to_degree,
)

BIG = IndexTerm(2, 3, (PAD_AUX,) * 4 + (5,) + (PAD_AUX,) * 2 + (6,), AUX)


class TestDegrees:
    def test_displayed_sum(self):
        assert BIG.degree == 35

    def test_empty(self):
        assert IndexTerm(0, 0, (), FINAL).degree == 0

    def test_small(self):
        assert IndexTerm(0, 0, (PAD, 1), FINAL).degree == 4

    def test_constructor_rejects_trailing_pad(self):
        with pytest.raises(ValueError):
            IndexTerm(0, 0, (1, PAD), FINAL)

    def test_constructor_rejects_mixed_flavor(self):
        with pytest.raises(ValueError):
            IndexTerm(0, 0, (PAD_AUX, 1), FINAL)

    def test_wrong_flavor_message_matches_hvector(self):
        for word, flavor in (((PAD_AUX, 1), FINAL), ((PAD, 1), AUX)):
            with pytest.raises(ValueError, match="has wrong flavor for"):
                IndexTerm(0, 0, word, flavor)
            with pytest.raises(ValueError, match="has wrong flavor for"):
                HVector(3, flavor, {word: (1,)})

        class Liar(tuple):
            """Equal to (1,) and hashed as it, but holding True."""
            def __eq__(self, other):
                return other == (1,)

            def __hash__(self):
                return hash((1,))

        class Pairs(list):
            """Terms as a list of pairs, so that a word can be a list."""
            def items(self):
                return iter(self)

        IndexTerm(0, 0, (1,))  # registers (1,)
        for word, flavor in [((True,), FINAL), ((PAD, 1.0), FINAL),
                             ((PAD_AUX, 1), FINAL), ([PAD, 1], AUX),
                             (Liar((True,)), FINAL), ((1, [2]), FINAL)]:
            with pytest.raises(Exception) as by_term:
                IndexTerm(0, 0, word, flavor)
            with pytest.raises(Exception) as by_vector:
                HVector(3, flavor, Pairs([(word, (1,))]))
            assert by_term.type is by_vector.type is ValueError, word
            assert str(by_term.value) == str(by_vector.value), word

    def test_constructor_rejects_bool_local(self):
        with pytest.raises(ValueError, match="bad symbol True"):
            IndexTerm(0, 0, (True,))


class TestStrata:
    def test_padded_term(self):
        assert strata_vector(BIG) == (5, 20, 35)

    def test_unpadded_companion(self):
        assert strata_vector(IndexTerm(11, 0, (5, 6), AUX)) == (11, 22, 35)

    def test_order_zero(self):
        assert strata_vector(IndexTerm(2, 3, (), AUX)) == (5,)

    def test_triple_from_order_two(self):
        assert strata_vector(IndexTerm(1, 0, (1, 1), AUX)) == (1, 4, 7)
        assert strata_vector(IndexTerm(0, 0, (PAD_AUX, 1, 1), AUX)) == (0, 4, 7)
        assert strata_vector(IndexTerm(0, 0, (1, PAD_AUX, 1), AUX)) == (0, 3, 7)

    def test_length_is_order_plus_one(self):
        for n in range(8):
            for t in enumerate_terms(n, AUX):
                sv = strata_vector(t)
                assert len(sv) == len(word_locals(t.word)) + 1
                assert sv[-1] == n


class TestSimilarity:
    def test_padding_invariant(self):
        a = IndexTerm(1, 0, (1, 1), AUX)
        b = IndexTerm(0, 0, (1, PAD_AUX, 1), AUX)
        assert broadly_similar(a, b)

    def test_local_order_matters(self):
        a = IndexTerm(0, 0, (1, 2), AUX)
        b = IndexTerm(0, 0, (2, 1), AUX)
        assert not broadly_similar(a, b)

    def test_second_variable_matters(self):
        a = IndexTerm(1, 0, (1,), AUX)
        b = IndexTerm(0, 1, (1,), AUX)
        assert not broadly_similar(a, b)


class TestImplies:
    def test_chain(self):
        x11 = IndexTerm(1, 0, (1, 1), AUX)
        a11 = IndexTerm(0, 0, (PAD_AUX, 1, 1), AUX)
        s11 = IndexTerm(0, 0, (1, PAD_AUX, 1), AUX)
        assert implies(x11, a11) and implies(a11, s11) and implies(x11, s11)
        assert not implies(s11, x11) and not implies(a11, x11)

    def test_reflexive(self):
        assert implies(BIG, BIG)

    def test_partial_order_axioms(self):
        for n in range(8):
            universe = enumerate_terms(n, AUX)
            for a in universe:
                assert implies(a, a)
                for b in universe:
                    if implies(a, b) and implies(b, a):
                        assert a == b, (a, b)
                    for c in universe:
                        if implies(a, b) and implies(b, c):
                            assert implies(a, c), (a, b, c)


class TestDownset:
    def test_examples(self):
        x1 = IndexTerm(1, 0, (1,), AUX)
        a1 = IndexTerm(0, 0, (PAD_AUX, 1), AUX)
        assert set(downset(x1)) == {x1, a1}
        s = IndexTerm(0, 0, (1, PAD_AUX, 1), AUX)
        assert downset(s) == [s]
        x11 = IndexTerm(1, 0, (1, 1), AUX)
        assert set(downset(x11)) == {
            x11, IndexTerm(0, 0, (PAD_AUX, 1, 1), AUX),
            IndexTerm(0, 0, (1, PAD_AUX, 1), AUX)}

    def test_requires_aux(self):
        with pytest.raises(ValueError):
            downset(IndexTerm(1, 0, (1,), FINAL))

    def test_matches_implication_exhaustively(self):
        for n in range(10):
            universe = enumerate_terms(n, AUX)
            for t in universe:
                via_moves = set(downset(t))
                via_order = {u for u in universe if implies(t, u)}
                assert via_moves == via_order, t

    def test_change_of_variables_distributes_over_downset(self):
        # a single aux term expands to exactly its downset, coefficient 1
        # each, with pads frozen in place
        for n in range(9):
            for t in enumerate_terms(n, AUX):
                poly = [0] * (t.xexp + t.yexp + 1)
                poly[t.yexp] = 1
                h = HVector(n, AUX, {t.word: poly})
                expanded = engine.to_extended(h)
                want = {}
                for u in downset(t):
                    frozen = tuple(PAD if s == PAD_AUX else s for s in u.word)
                    cs = want.setdefault(frozen, [0] * (u.xexp + u.yexp + 1))
                    cs[u.yexp] += 1
                want_h = HVector(n, FINAL, want)
                assert expanded == want_h, t


class TestEnumeration:
    def test_degree3(self):
        ts = enumerate_terms(3)
        assert [t.render() for t in ts] == ["x^3", "x^2y", "xy^2", "y^3", "{1}"]

    def test_counts(self):
        assert len(enumerate_terms(5)) == fib(7) == 13
        assert sum(1 for t in enumerate_terms(5) if t.xexp <= t.yexp) == fib(6)

    def test_words_up_to_degree4(self):
        assert words_up_to_degree(4) == [(), (1,), (PAD, 1)]

    def test_fibonacci_family(self):
        for n in range(13):
            ts = enumerate_terms(n)
            assert len(ts) == fib(n + 2), n
            assert sum(1 for t in ts if t.xexp <= t.yexp) == fib(n + 1), n
            assert sum(1 for t in ts if t.xexp > t.yexp) == fib(n), n
            if n >= 1:
                assert sum(1 for t in ts if t.xexp == t.yexp) == fib(n - 1), n
                assert len(words_up_to_degree(n)) == fib(n), n

    def test_aux_and_final_counts_match(self):
        for n in range(10):
            assert len(enumerate_terms(n, AUX)) == len(enumerate_terms(n, FINAL))

    @pytest.mark.parametrize("flavor", [AUX, FINAL])
    def test_built_in_display_order(self, flavor):
        # words by word_sort_key, terms by word and then second exponent,
        # with no two keys equal, so the order is fixed without a sort
        for n in range(15):
            keys = [word_sort_key(w) for w in words_up_to_degree(n, flavor)]
            assert keys == sorted(set(keys)), n
            keys = [(word_sort_key(t.word), t.yexp)
                    for t in enumerate_terms(n, flavor)]
            assert keys == sorted(set(keys)), n

    def test_renders_are_distinct(self):
        ts = enumerate_terms(7)
        assert len({t.render() for t in ts}) == len(ts)


@st.composite
def aux_terms(draw):
    n = draw(st.integers(0, 9))
    universe = enumerate_terms(n, AUX)
    return universe[draw(st.integers(0, len(universe) - 1))]


class TestProperties:
    @given(aux_terms(), aux_terms())
    @settings(max_examples=200, deadline=None)
    def test_implies_needs_similarity(self, a, b):
        if implies(a, b):
            assert broadly_similar(a, b)
            assert a.degree == b.degree

    @given(aux_terms())
    @settings(max_examples=200, deadline=None)
    def test_downset_members_implied(self, t):
        for u in downset(t):
            assert implies(t, u)

    def test_fib_values(self):
        assert [fib(k) for k in range(11)] == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
