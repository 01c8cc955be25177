"""The symbolic engine: operators, golden values, derived checks."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from hvcalc.checks import _random_aux_vector
from hvcalc.engine import (
    _SUFFIX, _aux_hvector, _cone_terms, _cone_words, _cylinder_terms,
    _expansion, _extended_hvector, _suffix_terms, apply_cone,
    apply_cylinder, aux_hvector, check_ic_equation, classical_h_simple,
    extended_hvector, pseudo_h, to_extended,
)
from hvcalc.symbols import (
    AUX, FINAL, PAD, PAD_AUX, BiGradedPoly, HVector, rewrite_pads,
    word_degree,
)
from hvcalc.terms import words_up_to_degree
from hvcalc.words import GeneratorWord as W
from hvcalc.words import words_up_to


def aux_vec(degree, terms):
    return HVector(degree, AUX, terms)


@pytest.mark.parametrize("op", [apply_cylinder, apply_cone, to_extended])
def test_final_vector_refused(op):
    with pytest.raises(ValueError):
        op(HVector(1, FINAL, {(): [1, 1]}))


class TestConeRows:
    """The six displayed cone rows, asserted verbatim."""

    def _cone_of_symbols(self, m):
        # run the cone on a generic polynomial by feeding unit vectors
        # and collecting columns; checks linearity in the coefficients
        cols = []
        for t in range(m + 1):
            cs = [0] * (m + 1)
            cs[t] = 1
            cols.append(apply_cone(aux_vec(m, {(): cs})))
        return cols

    def test_row_a(self):
        got = apply_cone(aux_vec(0, {(): [1]}))
        # [a] -> [aa] - [a] pad, and the lone pad dies at the terminator
        assert got == aux_vec(1, {(): [1, 1]})

    def test_row_ab(self):
        a, b = 3, 5
        got = apply_cone(aux_vec(1, {(): [a, b]}))
        # the pad-squared correction dies at the terminator
        assert got == aux_vec(2, {(): [a, a, b]})

    def test_row_abc(self):
        a, b, c = 2, 7, 4
        got = apply_cone(aux_vec(5, {(1,): [a, b, c]}))
        want = aux_vec(6, {(1,): [a, b, b, c],
                           (1, 1): [b - a],
                           (PAD_AUX,) * 3 + (1,): [-a]})
        assert got == want

    def test_row_abcd(self):
        a, b, c, d = 1, 4, 9, 2
        got = apply_cone(aux_vec(3, {(): [a, b, c, d]}))
        want = aux_vec(4, {(): [a, b, b, c, d], (PAD_AUX, 1): [b - a]})
        assert got == want

    def test_row_abcde(self):
        a, b, c, d, e = 1, 4, 9, 4, 1
        got = apply_cone(aux_vec(4, {(): [a, b, c, d, e]}))
        want = aux_vec(5, {(): [a, b, c, c, d, e],
                           (PAD_AUX, PAD_AUX, 1): [b - a],
                           (2,): [c - b]})
        assert got == want

    def test_row_abcdef(self):
        a, b, c, d, e, f = 2, 3, 5, 7, 11, 13
        got = apply_cone(aux_vec(5, {(): [a, b, c, d, e, f]}))
        want = aux_vec(6, {(): [a, b, c, c, d, e, f],
                           (PAD_AUX,) * 3 + (1,): [b - a],
                           (PAD_AUX, 2): [c - b]})
        assert got == want

    def test_correction_survives_on_nonempty_word(self):
        got = apply_cone(aux_vec(3, {(1,): [5]}))
        assert got == aux_vec(4, {(1,): [5, 5], (PAD_AUX, 1): [-5]})


class TestCylinder:
    def test_examples(self):
        assert (apply_cylinder(aux_vec(2, {(): [1, 2, 1]}))
                == aux_vec(3, {(): [1, 3, 3, 1]}))
        assert apply_cylinder(aux_vec(0, {(): [1]})) == aux_vec(1, {(): [1, 1]})
        got = apply_cylinder(aux_vec(4, {(): [1, 2, 2, 2, 1], (1,): [1, 1]}))
        assert got == aux_vec(5, {(): [1, 3, 4, 4, 3, 1], (1,): [1, 2, 1]})

    def test_seed_consistency(self):
        seed = HVector.unit(AUX)
        assert apply_cylinder(seed) == apply_cone(seed) == aux_vec(1, {(): [1, 1]})

    def test_seed_cone_is_seed_cylinder_as_typed_terms(self):
        # the identity that lets every word memo key by the canonical
        # spelling: over the point the cone and the cylinder agree
        seed = HVector.unit(AUX).terms
        cone, cylinder = _cone_terms(seed, PAD_AUX), _cylinder_terms(seed)
        assert ({w: [(type(c), c) for c in cs] for w, cs in cone.items()}
                == {w: [(type(c), c) for c in cs] for w, cs in cylinder.items()}
                == {(): [(int, 1), (int, 1)]})


class TestAuxVectors:
    def test_checkpoint(self):
        assert aux_hvector(W("CCIC")).render() == "[12221] + [11]{1}"

    def test_small(self):
        assert aux_hvector(W("IC")).render() == "[121]"
        assert aux_hvector(W("CICIC")).render() == (
            "[134431] + [111]{1} + [1]ĀĀ{1} + [1]{2}")

    def test_cone_example_on_mixed_vector(self):
        got = apply_cone(aux_vec(2, {(): [1, 2, 1]}))
        assert got == aux_vec(3, {(): [1, 2, 2, 1], (1,): [1]})

    def test_cone_cancellation_example(self):
        # the correction of the first term cancels against part of the
        # cone of the second; only the grown record survives
        got = apply_cone(aux_vec(4, {(): [1, 2, 2, 2, 1],
                                     (PAD_AUX, 1): [1]}))
        assert got == aux_vec(5, {(): [1, 2, 2, 2, 2, 1],
                                  (PAD_AUX, 1): [1, 1]})

    def test_bipyramid_rejected(self):
        with pytest.raises(ValueError):
            aux_hvector(W("BIC"))

    @pytest.mark.parametrize("fn", [aux_hvector, extended_hvector])
    @pytest.mark.parametrize("ops", ["BIC", "CB", "B", "ICCB"])
    def test_bipyramid_refused_as_given(self, fn, ops):
        # an innermost B is refused though its canonical spelling has none
        with pytest.raises(ValueError) as err:
            fn(W(ops))
        assert str(err.value) == (
            f"word {ops}. contains the bipyramid operator; "
            "use the linear extension over flag vectors instead")

    def test_degree_law(self):
        for w in words_up_to(8, "IC"):
            assert aux_hvector(w).degree == w.dim


class TestToExtended:
    def test_ccic(self):
        h = aux_vec(4, {(): [1, 2, 2, 2, 1], (1,): [1, 1]})
        assert to_extended(h).render() == "(12221) + (11){1} + (1)A{1}"

    def test_cicic(self):
        h = aux_vec(5, {(): [1, 3, 4, 4, 3, 1], (1,): [1, 1, 1],
                        (PAD_AUX, PAD_AUX, 1): [1], (2,): [1]})
        assert to_extended(h).render() == (
            "(134431) + (111){1} + (11)A{1} + (2)AA{1} + (1){2}")

    def test_pure_polynomial_passes_through(self):
        h = aux_vec(3, {(): [1, 2, 2, 1]})
        assert to_extended(h).render() == "(1221)"


def reference_to_extended(h):
    """The change of variables one coefficient at a time: every nonzero
    a X^p Y^q rewrites pad^j W for each j <= p on its own."""
    acc = {}
    n = h.degree
    for word, poly in h.terms.items():
        m = len(poly) - 1
        for t, a in enumerate(poly):
            if a == 0:
                continue
            for j in range(m - t + 1):
                for w2 in rewrite_pads((PAD_AUX,) * j + word):
                    cs = acc.get(w2)
                    if cs is None:
                        cs = acc[w2] = [0] * (n - word_degree(w2) + 1)
                    cs[t] += a
    return HVector(n, FINAL, acc)


def reference_cone(h, pad=PAD_AUX):
    """The cone rule summed polynomial by polynomial, padding with ``pad``."""
    out = {}

    def add(word, poly):
        out[word] = out[word] + poly if word in out else poly

    for word, cs in h.terms.items():
        m = len(cs) - 1
        add(word, BiGradedPoly(cs[:m // 2 + 1] + cs[m // 2:]))
        for k in range(1, m // 2 + 1):
            add((pad,) * (m - 2 * k) + (k,) + word,
                BiGradedPoly((cs[k] - cs[k - 1],)))
        add((pad,) * (m + 1) + word, BiGradedPoly((-cs[0],)))
    return HVector(h.degree + 1, h.flavor, {w: p.coeffs for w, p in out.items()})


def reference_cylinder(h):
    """The cylinder rule polynomial by polynomial."""
    return HVector(h.degree + 1, AUX,
                   {w: BiGradedPoly(cs).mul_linear().coeffs
                    for w, cs in h.terms.items()})


def reference_fold(ops, h=None):
    """The aux fold with a checked HVector after every operator."""
    h = HVector.unit(AUX) if h is None else h
    for op in reversed(ops):
        h = reference_cone(h) if op == "C" else reference_cylinder(h)
    return h


def kernel_fold(ops, h):
    """The aux fold on term maps from ``h``, checked once at the end."""
    terms = h.terms
    for op in reversed(ops):
        terms = (_cone_terms(terms, PAD_AUX) if op == "C"
                 else _cylinder_terms(terms))
    return terms


def twin_ops(ops):
    """A nonempty word's letters with the innermost swapped between C and I."""
    return ops[:-1] + ("C" if ops[-1] == "I" else "I")


def typed_terms(h):
    """Terms with each coefficient's type next to its value."""
    return (h.degree, h.flavor,
            {w: tuple((type(c), c) for c in cs)
             for w, cs in h.terms.items()})


def random_aux_vectors(seed, count, fractions=False):
    rng = random.Random(seed)
    for _ in range(count):
        h = _random_aux_vector(rng, rng.randint(0, 9))
        if fractions:
            h = HVector(h.degree, AUX, {
                w: [Fraction(c, rng.choice((1, 2, 3))) for c in cs]
                for w, cs in h.terms.items()})
        yield h


class TestAgainstReference:
    """The kernels against their one-polynomial-at-a-time definitions,
    coefficient types included."""

    def test_to_extended_on_engine_words(self):
        for w in words_up_to(9, "IC"):
            h = aux_hvector(w)
            assert (typed_terms(to_extended(h))
                    == typed_terms(reference_to_extended(h))), w

    @pytest.mark.parametrize("fractions", [False, True])
    def test_to_extended_on_random_aux_vectors(self, fractions):
        for h in random_aux_vectors(20261018, 300, fractions):
            assert (typed_terms(to_extended(h))
                    == typed_terms(reference_to_extended(h))), h

    @pytest.mark.parametrize("fractions", [False, True])
    def test_cone_on_random_aux_vectors(self, fractions):
        for h in random_aux_vectors(20261019, 300, fractions):
            assert (typed_terms(apply_cone(h))
                    == typed_terms(reference_cone(h))), h

    def test_fold_on_engine_words(self):
        for w in words_up_to(10, "IC"):
            assert (typed_terms(aux_hvector(w))
                    == typed_terms(reference_fold(w.ops))), w

    @pytest.mark.parametrize("fractions", [False, True])
    def test_kernels_on_random_aux_vectors(self, fractions):
        rng = random.Random(20261020)
        for h in random_aux_vectors(20261021, 300, fractions):
            assert (typed_terms(apply_cylinder(h))
                    == typed_terms(reference_cylinder(h))), h
            for kernel, ref in ((lambda t: _cone_terms(t, PAD_AUX),
                                 reference_cone),
                                (_cylinder_terms, reference_cylinder)):
                # the kernel keeps exactly the terms the constructor keeps
                got = kernel(h.terms)
                assert got == {w: tuple(cs)
                               for w, cs in ref(h).terms.items()}, h
            # a fold of several operators, where uncollapsed fractions
            # meet in the sums, gives what checking every step gives
            ops = "".join(rng.choice("IC") for _ in range(rng.randint(1, 4)))
            want = reference_fold(ops, h)
            got = HVector(want.degree, AUX, kernel_fold(ops, h))
            assert typed_terms(got) == typed_terms(want), (ops, h)

    def test_cone_of_unit_drops_full_pad_term(self):
        # [1] -> [11] - [1] pad; the pad-only word meets the terminator
        assert _cone_terms({(): [1]}, PAD_AUX) == {(): (1, 1)}
        assert _cone_terms({(): [3, 5]}, PAD_AUX) == {(): (3, 3, 5)}
        # on a nonempty word the full-pad correction survives
        assert _cone_terms({(1,): [5]}, PAD_AUX) == {
            (1,): (5, 5), (PAD_AUX, 1): (-5,)}

    def test_cone_drops_cancelled_terms(self):
        # {2} gets c - b = 0, and the record [1]ĀĀ{1} of the first term
        # cancels against the correction -[1]ĀĀ{1} of the second
        terms = {(): [1, 2, 2, 2, 1], (PAD_AUX, 1): [1]}
        assert _cone_terms(terms, PAD_AUX) == {
            (): (1, 2, 2, 2, 2, 1), (PAD_AUX, 1): (1, 1)}

    def test_fractions_collapse_after_summing(self):
        # 3/2 - 1/2 on the new {1} term comes out as int, the rest as Fraction
        h = aux_vec(2, {(): [Fraction(1, 2), Fraction(3, 2), Fraction(1, 2)]})
        got = to_extended(apply_cone(h))
        assert got == reference_to_extended(reference_cone(h))
        assert typed_terms(got) == typed_terms(
            reference_to_extended(reference_cone(h)))
        types = {type(c) for cs in got.terms.values() for c in cs}
        assert types == {int, Fraction}


class TestKernelHeads:
    """The change of variables stores a new tuple for each head, never a
    caller's coefficient tuple, and sums heads whose leading coefficients
    are zero like any other."""

    def test_one_tuple_shared_by_two_terms(self):
        t = (1,)
        h = aux_vec(7, {(PAD_AUX, 1, 1): t, (1, PAD_AUX, 1): t})
        assert h.terms[(PAD_AUX, 1, 1)] is h.terms[(1, PAD_AUX, 1)] is t
        # both terms reach {1}A{1}: the second head is summed into the first
        assert to_extended(h).render() == "(1)A{1}{1} + (2){1}A{1}"
        assert t == (1,)

    @pytest.mark.parametrize("fractions", [False, True])
    def test_zero_leading_coefficients(self, fractions):
        rng = random.Random(20261022)
        zero_heads = 0
        for h in random_aux_vectors(20261023, 300, fractions):
            terms = {}
            for w, cs in h.terms.items():
                k = rng.randint(1, max(1, len(cs) - 1))
                terms[w] = (0,) * k + cs[k:]
                zero_heads += sum(length <= k for length, _ in
                                  _expansion(w, len(cs) - 1))
            z = aux_vec(h.degree, terms)
            assert (typed_terms(to_extended(z))
                    == typed_terms(reference_to_extended(z))), z
            assert (typed_terms(apply_cone(z))
                    == typed_terms(reference_cone(z))), z
        assert zero_heads > 100


class TestPlans:
    """The per-word plans the kernels read, against their definitions."""

    @pytest.mark.parametrize("first", [PAD_AUX, PAD],
                             ids=["aux-pad-first", "final-pad-first"])
    def test_cone_words_keep_the_pad_apart(self, first):
        # pad-free terms are valid in both flavors, so each (word, m) is
        # coned with the aux pad and with the final pad in turn
        _cone_words.cache_clear()
        second = PAD if first == PAD_AUX else PAD_AUX
        for w in words_up_to(7, "IC"):
            h = aux_hvector(w)
            terms = {u: cs for u, cs in h.terms.items() if PAD_AUX not in u}
            for pad in (first, second):
                flavor = AUX if pad == PAD_AUX else FINAL
                want = reference_cone(HVector(h.degree, flavor, terms), pad)
                got = HVector(h.degree + 1, flavor, _cone_terms(terms, pad))
                assert typed_terms(got) == typed_terms(want), (w, pad)

    def test_cone_words(self):
        assert _cone_words((), 4, PAD_AUX) == (
            ((PAD_AUX, PAD_AUX, 1), (2,)), None)
        assert _cone_words((1,), 3, PAD) == (((PAD, 1, 1),), (PAD,) * 4 + (1,))
        assert _cone_words((1,), 1, PAD_AUX) == ((), (PAD_AUX, PAD_AUX, 1))

    def test_expansion_against_the_pad_count_rule(self):
        # y^t of a degree-m term on W reaches the rewrites of pad^j W for
        # every j <= m - t, each pad taking one power of x
        for word in words_up_to_degree(9, AUX):
            for m in range(10 - word_degree(word)):
                plan = _expansion(word, m)
                for t in range(m + 1):
                    want = Counter(w2 for j in range(m - t + 1)
                                   for w2 in rewrite_pads((PAD_AUX,) * j + word))
                    got = Counter(w2 for length, finals in plan
                                  if t < length for w2 in finals)
                    assert got == want, (word, m, t)

    def test_one_checked_vector_per_call(self, monkeypatch):
        built = []
        init = HVector.__init__

        def counting(self, *args, **kwargs):
            built.append(args[1] if len(args) > 1 else kwargs["flavor"])
            init(self, *args, **kwargs)

        monkeypatch.setattr(HVector, "__init__", counting)
        for w in words_up_to(6, "IC"):
            _extended_hvector.cache_clear()
            del built[:]
            extended_hvector(w)
            assert built == [FINAL], w
            _aux_hvector.cache_clear()
            del built[:]
            h = aux_hvector(w)
            assert built == [AUX], w
            del built[:]
            to_extended(h)
            assert built == [FINAL], w


class TestSuffixMemo:
    """The aux fold reads a word's last ``_SUFFIX`` letters from a
    process-wide memo and applies the outer letters afresh."""

    @pytest.fixture(scope="class")
    def folds(self):
        """Every IC word of dim <= 10 and a seeded sample of dims 11-13,
        each with its aux vector through the public operators from the
        unit vector; each suffix is folded once."""
        rng = random.Random(20261019)
        words = [*words_up_to(10, "IC"),
                 *(W("".join(rng.choice("IC") for _ in range(d)))
                   for d in (11, 12, 13) for _ in range(40))]
        done = {"": HVector.unit(AUX)}

        def fold(ops):
            if ops not in done:
                h = fold(ops[1:])
                done[ops] = (apply_cone(h) if ops[0] == "C"
                             else apply_cylinder(h))
            return done[ops]
        return [(w, fold(w.ops)) for w in words]

    def test_aux_hvector_is_the_public_fold(self, folds):
        assert _SUFFIX == 11 and max(w.dim for w, _ in folds) > _SUFFIX
        for w, want in folds:
            assert typed_terms(aux_hvector(w)) == typed_terms(want), w

    def test_extended_hvector_is_to_extended_of_the_fold(self, folds):
        for w, _ in folds:
            assert (typed_terms(extended_hvector(w))
                    == typed_terms(to_extended(aux_hvector(w)))), w

    def test_both_twins_are_the_public_fold(self, folds):
        # each word's twin, computed with the result memos empty and then
        # read from them, against the word's own fold
        for w, want in folds:
            if not w.dim:
                continue
            twin = W(twin_ops(w.ops))
            _aux_hvector.cache_clear()
            _extended_hvector.cache_clear()
            assert typed_terms(aux_hvector(twin)) == typed_terms(want), twin
            assert (typed_terms(extended_hvector(twin))
                    == typed_terms(to_extended(want))), twin
            assert typed_terms(aux_hvector(w)) == typed_terms(want), w

    def test_memo_bounded(self, folds):
        info = _suffix_terms.cache_info()
        # every canonical word of at most _SUFFIX letters, the empty one too
        assert info.maxsize == 2 ** _SUFFIX
        assert info.currsize <= info.maxsize
        _suffix_terms.cache_clear()
        aux_hvector(W("CI" * 6 + "C"))
        # the suffixes of 0..11 letters; the two outer letters not kept
        assert _suffix_terms.cache_info().currsize == _SUFFIX + 1
        _suffix_terms.cache_clear()
        for w in words_up_to(_SUFFIX, "IC"):
            aux_hvector(w)
        assert _suffix_terms.cache_info().currsize == 2 ** _SUFFIX

    def test_twin_met_next_builds_nothing(self, monkeypatch):
        built = []
        init = HVector.__init__

        def counting(self, *args, **kwargs):
            built.append(args[1])
            init(self, *args, **kwargs)

        for memo in (_aux_hvector, _extended_hvector):
            assert memo.cache_info().maxsize == 2
        monkeypatch.setattr(HVector, "__init__", counting)
        for ops in ("I", "CICIC", "CICII", "I" * 12 + "C", "C" * 13 + "I"):
            for fn, memo in ((aux_hvector, _aux_hvector),
                             (extended_hvector, _extended_hvector)):
                memo.cache_clear()
                first = fn(W(ops))
                twin = W(twin_ops(ops))
                del built[:]
                again = fn(twin)
                assert built == [], twin
                assert again == first and again.degree == twin.dim
                with pytest.raises(AttributeError):
                    again.terms = {}
                with pytest.raises(TypeError):
                    again.terms[()] = (1,)
                assert memo.cache_info().currsize <= 2

    def test_memo_values_read_only(self):
        terms = _suffix_terms("CIC")
        assert all(type(cs) is tuple for cs in terms.values())
        with pytest.raises(TypeError):
            terms[()] = (1,)
        with pytest.raises(TypeError):
            terms[()][0] = 2
        with pytest.raises(TypeError):
            del terms[()]
        assert aux_hvector(W("CIC")) == HVector(3, AUX, terms)


class TestTermFormat:
    """Every route returns terms as coefficient tuples, with no polynomial
    object in between."""

    def test_terms_are_tuples_on_every_route(self):
        from hvcalc import flaglin, links
        from hvcalc.lattice import build
        aux = aux_hvector(W("CICIC"))
        lat = build(W("BICCC"))
        for h in (aux, extended_hvector(W("CICIC")), apply_cone(aux),
                  apply_cylinder(aux), to_extended(aux),
                  links.h_by_links(lat, links.CONJUGATION),
                  links.h_by_links(lat, links.DIRECT),
                  flaglin.linear_h(lat.flag_vector())):
            assert h.terms
            assert all(type(cs) is tuple for cs in h.terms.values()), h

    def test_extended_hvector_builds_no_poly(self, monkeypatch):
        def refuse(self, coeffs):
            raise AssertionError("BiGradedPoly built")

        monkeypatch.setattr(BiGradedPoly, "__init__", refuse)
        for w in words_up_to(6, "IC"):
            extended_hvector(w)


GOLDEN = {
    "": "(1)", "C": "(11)", "I": "(11)", "CC": "(111)", "IC": "(121)",
    "CCC": "(1111)", "ICC": "(1221)", "IIC": "(1331)",
    "CIC": "(1221) + (1){1}",
    "CCCC": "(11111)", "ICCC": "(12221)", "IICC": "(13431)",
    "IIIC": "(14641)",
    "CICC": "(12221) + (1)A{1}", "CIIC": "(13331) + (2)A{1}",
    "ICIC": "(13431) + (11){1} + (1)A{1}",
    "CCIC": "(12221) + (11){1} + (1)A{1}",
    "CCCCC": "(111111)",
    "CCCIC": "(122221) + (111){1} + (11)A{1} + (1)AA{1}",
    "CCICC": "(122221) + (11)A{1} + (1)AA{1}",
    "CICCC": "(122221) + (1)AA{1}",
    "CICIC": "(134431) + (111){1} + (11)A{1} + (2)AA{1} + (1){2}",
    "ICCCC": "(122221)",
    "ICCIC": "(134431) + (121){1} + (12)A{1} + (1)AA{1}",
    "ICICC": "(134431) + (11)A{1} + (1)AA{1}",
}


class TestGolden:
    @pytest.mark.parametrize("ops,want", sorted(GOLDEN.items()))
    def test_tables(self, ops, want):
        assert extended_hvector(W(ops)).render() == want


class TestDerived:
    def test_mpih(self):
        assert extended_hvector(W("CICIC")).mpih() == BiGradedPoly([1, 3, 4, 4, 3, 1])
        assert extended_hvector(W("CCC")).mpih() == BiGradedPoly([1, 1, 1, 1])
        assert extended_hvector(W("")).mpih() == BiGradedPoly([1])

    def test_aux_mpih_is_extended_mpih(self):
        # what check_unimodality relies on when it skips to_extended
        for w in words_up_to(12, "IC"):
            assert (aux_hvector(w).mpih().coeffs
                    == extended_hvector(w).mpih().coeffs), w

    def test_mpih_of_cone_duplicates_middle(self):
        # the empty-word part of the cone is the duplicate-middle rule alone
        for w in words_up_to(7, "IC"):
            a = extended_hvector(W("C" + w.ops)).mpih().coeffs
            b = extended_hvector(w).mpih().coeffs
            mid = (len(b) - 1) // 2
            assert a == b[:mid + 1] + b[mid:], w

    def test_palindromy(self):
        assert aux_hvector(W("CICIC")).is_palindromic()
        assert aux_vec(2, {(): [1, 2, 1]}).is_palindromic()
        assert not aux_vec(1, {(): [1, 2]}).is_palindromic()
        for w in words_up_to(8, "IC"):
            assert aux_hvector(w).is_palindromic(), w

    def test_nonnegative_on_generator_words(self):
        for w in words_up_to(8, "IC"):
            for cs in aux_hvector(w).terms.values():
                assert all(c >= 0 for c in cs), w

    def test_ic_equation(self):
        assert check_ic_equation(aux_vec(4, {(): [1, 4, 9, 4, 1]}))
        assert check_ic_equation(HVector.unit(AUX))
        assert check_ic_equation(
            aux_vec(4, {(1,): [1, 2], (): [1, 1, 1, 1, 1]}))

    def test_simple_collapse(self):
        # prism-then-cone words have no local terms at all
        for a in range(4):
            for b in range(4):
                w = W("I" * a + "C" * b)
                h = extended_hvector(w)
                assert set(h.terms) <= {()}, w


class TestClassicalH:
    def test_examples(self):
        assert classical_h_simple([8, 12, 6]) == BiGradedPoly([1, 3, 3, 1])
        assert classical_h_simple([4, 6, 4]) == BiGradedPoly([1, 1, 1, 1])
        assert classical_h_simple([4, 4]) == BiGradedPoly([1, 2, 1])

    def test_point(self):
        assert classical_h_simple([]) == BiGradedPoly([1])


class TestPseudoH:
    def test_examples(self):
        assert pseudo_h(W("C")) == BiGradedPoly([1, 1])
        assert pseudo_h(W("CC")) == BiGradedPoly([1, 1, 1])
        assert pseudo_h(W("IC")) == BiGradedPoly([1, 2, 1])
        assert pseudo_h(W("CIC")) == BiGradedPoly([1, 1, 2, 1])

    def test_bipyramid_rejected(self):
        with pytest.raises(ValueError):
            pseudo_h(W("BIC"))
