"""Basis expression, rank checks, flag-level constructor transforms."""

import random
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import mul

import pytest

from hvcalc import engine, flaglin, lattice
from hvcalc.flaglin import (
    NotInSpanError, bipyramid_flag_vector, cone_flag_vector, express_in_basis,
    ic_basis, linear_h, linear_pseudo_h, prism_flag_vector, span_rank,
    word_flag_vector,
)
from hvcalc.lattice import FlagVector, build, point
from hvcalc.symbols import BiGradedPoly
from hvcalc.terms import fib
from hvcalc.words import GeneratorWord as W
from hvcalc.words import all_words, words_up_to


def subsets(fv):
    """Every dimension set of ``fv``, in binary-counter order."""
    return [frozenset(d for d in range(fv.n) if key >> d & 1)
            for key in range(len(fv.counts))]


class TestBasis:
    def test_dim3(self):
        assert [w.ops for w in ic_basis(3)] == ["CCC", "CIC", "ICC"]

    def test_dim5_matches_fibonacci(self):
        b5 = [w.ops for w in ic_basis(5)]
        assert b5 == ["CCCCC", "CCCIC", "CCICC", "CICCC",
                      "CICIC", "ICCCC", "ICCIC", "ICICC"]
        assert len(b5) == fib(6) == 8

    def test_dim0(self):
        assert [w.ops for w in ic_basis(0)] == [""]

    def test_counts(self):
        for n in range(8):
            assert len(ic_basis(n)) == fib(n + 1), n

    def test_no_ii_no_trailing_i(self):
        for n in range(7):
            for w in ic_basis(n):
                assert "II" not in w.ops and not w.ops.endswith("I")

    def test_equals_filter_of_all_words(self):
        for n in range(15):
            want = [w for w in all_words(n, "IC")
                    if "II" not in w.ops and not w.ops.endswith("I")]
            assert ic_basis(n) == want, n

    def test_negative_dimension(self):
        with pytest.raises(ValueError):
            ic_basis(-1)


class TestTransforms:
    """Flag-level constructor transforms against the lattice oracle."""

    @pytest.mark.parametrize("ops", [w.ops for w in words_up_to(4, "ICB")])
    def test_all_three_against_lattice(self, ops):
        lat = build(W(ops))
        fv = lat.flag_vector()
        assert cone_flag_vector(fv) == lat.pyramid().flag_vector()
        assert prism_flag_vector(fv) == lat.prism().flag_vector()
        assert bipyramid_flag_vector(fv) == lat.bipyramid().flag_vector()

    def test_word_flag_vector_route(self):
        # the memo is keyed by the canonical spelling, so a word and its
        # twins share one value; the lattice of each is built on its own
        for w in words_up_to(6, "ICB"):
            assert word_flag_vector(w) == build(w).flag_vector(), w
            assert word_flag_vector(w) is word_flag_vector(
                W(w.canonical_ops)), w

    def test_three_transforms_agree_on_the_point(self):
        fv = point().flag_vector()
        assert (cone_flag_vector(fv) == prism_flag_vector(fv)
                == bipyramid_flag_vector(fv) == build(W("C")).flag_vector())

    def test_cone_of_square_hand_values(self):
        got = cone_flag_vector(build(W("IC")).flag_vector())
        want = {(): 1, (0,): 5, (1,): 8, (2,): 5,
                (0, 1): 16, (0, 2): 16, (1, 2): 16, (0, 1, 2): 32}
        assert {tuple(sorted(S)): got[S] for S in subsets(got)} == want

    def test_cone_of_point_and_segment(self):
        fv_seg = cone_flag_vector(point().flag_vector())
        assert fv_seg[{0}] == 2
        fv_tri = cone_flag_vector(build(W("C")).flag_vector())
        assert fv_tri[{0}] == 3 and fv_tri[{0, 1}] == 6


class TestBasisSolve:
    """The solve on the sparse rows, with transform-built columns."""

    @pytest.mark.parametrize("n", range(10))
    def test_columns_are_the_lattice_counts(self, n):
        basis, cols, _ = flaglin._basis_data(n)
        for w, col in zip(basis, cols):
            assert col == build(w).flag_vector().counts, w

    def test_rows_are_the_sparse_sets(self):
        for n in range(11):
            _, cols, rows = flaglin._basis_data(n)
            sparse = [S for S in subsets(FlagVector(n, (0,) * (1 << n)))
                      if n - 1 not in S and not any(d + 1 in S for d in S)]
            assert [frozenset(d for d in range(n) if r >> d & 1)
                    for r in rows] == sparse, n
            assert len(rows) == fib(n + 1), n
            sub = [[col[r] for col in cols] for r in rows]
            assert len(flaglin._eliminate(sub)) == len(rows), n

    def test_builds_no_lattice(self, monkeypatch):
        def no_point():
            raise AssertionError("_basis_data built a lattice")

        monkeypatch.setattr(lattice, "point", no_point)
        flaglin._basis_data.cache_clear()
        flaglin._basis_data(7)

    @pytest.mark.parametrize("n", [6, 7])
    def test_not_in_span_off_the_sparse_rows(self, n):
        # the bump sits on a row the solve never reads, so only the full
        # reconstruction can see it
        v = word_flag_vector(W("B" * n)).as_vector()
        v[1 << (n - 1)] += 1
        with pytest.raises(NotInSpanError) as err:
            express_in_basis(FlagVector(n, tuple(v)))
        assert err.value.residual == [1]

    def test_dependent_basis_rows_raise(self, monkeypatch):
        basis, cols, rows = flaglin._basis_data(2)
        monkeypatch.setattr(flaglin, "_basis_data",
                            lambda n: (basis, [cols[0], cols[0]], rows))
        with pytest.raises(AssertionError):
            express_in_basis(word_flag_vector(W("IC")))

    def test_one_elimination_per_expression(self, monkeypatch):
        calls = []
        eliminate = flaglin._eliminate
        monkeypatch.setattr(flaglin, "_eliminate",
                            lambda rows: calls.append(1) or eliminate(rows))
        for k, w in enumerate(words_up_to(4, "ICB"), 1):
            express_in_basis(word_flag_vector(w))
            assert len(calls) == k, w

    def test_fraction_counts(self):
        for w in words_up_to(5, "ICB"):
            fv = word_flag_vector(w)
            half = express_in_basis(fv.scale(Fraction(1, 2)))
            assert half == [c / 2 for c in express_in_basis(fv)], w
            assert all(type(c) is Fraction for c in half), w
        half_oct = word_flag_vector(W("BIC")).scale(Fraction(1, 2))
        assert linear_h(half_oct).render() == "(1/2,5/2,5/2,1/2) + (3){1}"


@lru_cache(maxsize=None)
def _reference_transform(n):
    """Plain fraction-free Gauss-Jordan on the 2^n x F_(n+1) basis matrix,
    recording the row operations in a 2^n x 2^n integer transform T.

    Row i is eliminated against pivot row r as M[r][c] M[i] - M[i][c] M[r],
    the Fraction step scaled by M[r][c], and rows are kept over the gcd of
    their entries; so the pivots are those of the Fraction elimination and
    each row of T is a nonzero multiple of that elimination's row.  Returns
    the pivots and each row of T with its divisor: its pivot entry for a
    pivot row, where the Fraction elimination has 1, and 1 for the rows
    past the rank."""
    basis = ic_basis(n)
    rows, cols = 1 << n, len(basis)
    counts = zip(*(build(w).flag_vector().counts for w in basis))
    # each row is [M row | T row], T starting as the identity
    A = [[*mrow, *(int(i == j) for j in range(rows))]
         for i, mrow in enumerate(counts)]
    pivots = []
    for c in range(cols):
        r = len(pivots)
        pr = next((i for i in range(r, rows) if A[i][c] != 0), None)
        if pr is None:
            continue
        A[r], A[pr] = A[pr], A[r]
        p = A[r][c]
        for i in range(rows):
            if i != r and A[i][c] != 0:
                f = A[i][c]
                row = [p * a - f * b for a, b in zip(A[i], A[r])]
                g = gcd(*row)
                A[i] = [x // g for x in row]
        pivots.append(c)
    dens = [A[r][c] for r, c in enumerate(pivots)]
    dens += [1] * (rows - len(pivots))
    return pivots, [(row[cols:], den) for row, den in zip(A, dens)]


def _reference_express(fv):
    pivots, rows = _reference_transform(fv.n)
    f = fv.as_vector()
    u = [Fraction(sum(map(mul, row, f)), den) for row, den in rows]
    if any(u[len(pivots):]):
        raise NotInSpanError(u[len(pivots):])
    coeffs = [Fraction(0)] * len(ic_basis(fv.n))
    for row, col in enumerate(pivots):
        coeffs[col] = u[row]
    return coeffs


class TestExpress:
    def test_basis_element_is_delta(self):
        cs = express_in_basis(build(W("CCC")).flag_vector())
        assert cs == [1, 0, 0]

    def test_octahedron(self):
        cs = express_in_basis(build(W("BIC")).flag_vector())
        assert cs == [-3, 6, -2]

    def test_recombination(self):
        fv = build(W("ICIC")).flag_vector()
        cs = express_in_basis(fv)
        basis = ic_basis(4)
        combo = None
        for c, w in zip(cs, basis):
            part = build(w).flag_vector().scale(c)
            combo = part if combo is None else combo + part
        assert combo.as_vector() == fv.as_vector()

    def test_closure_over_bipyramid_words(self):
        for w in words_up_to(4, "ICB"):
            express_in_basis(word_flag_vector(w))  # must not raise

    def test_closure_samples_dim_5_and_6(self):
        # exhaustive closure at 5 and 6 follows from the rank checks;
        # these exercise the expression machinery itself up there
        for ops in ["BICCC", "BBCIC", "CBICC", "BICCIC", "IBCCIC", "BBICIC"]:
            cs = express_in_basis(word_flag_vector(W(ops)))
            assert any(c != 0 for c in cs), ops

    def test_not_in_span(self):
        e = FlagVector(2, (1, 1, 0, 0))
        with pytest.raises(NotInSpanError) as err:
            express_in_basis(e)
        assert err.value.residual and all(err.value.residual)

    def test_matches_reference_elimination(self):
        words = list(words_up_to(5, "ICB"))
        words += random.Random(20261018).sample(list(all_words(6, "ICB")), 40)
        for w in words:
            fv = word_flag_vector(w)
            assert express_in_basis(fv) == _reference_express(fv), w

    def test_span_membership_matches_reference(self):
        rng = random.Random(11)
        for n in range(1, 6):
            for w in rng.sample(list(all_words(n, "ICB")), min(3 ** n, 12)):
                fv = word_flag_vector(w)
                v = fv.as_vector()
                v[rng.randrange(len(v))] += rng.choice((-2, -1, 1))
                bent = FlagVector(n, tuple(v))
                try:
                    want = _reference_express(bent)
                except NotInSpanError:
                    with pytest.raises(NotInSpanError):
                        express_in_basis(bent)
                else:
                    assert express_in_basis(bent) == want, (w, v)


class TestRanks:
    def test_ic_words(self):
        for n in range(1, 6):
            vecs = [word_flag_vector(w) for w in all_words(n, "IC")]
            assert span_rank(vecs) == fib(n + 1), n

    def test_bipyramid_does_not_enlarge(self):
        for n in range(1, 5):
            vecs = [word_flag_vector(w) for w in all_words(n, "ICB")]
            assert span_rank(vecs) == fib(n + 1), n

    def test_dim1(self):
        assert span_rank([word_flag_vector(W("C"))]) == 1

    def test_unequal_dimensions_refused(self):
        with pytest.raises(ValueError, match="unequal dimension"):
            span_rank([word_flag_vector(W("C")), word_flag_vector(W("CC"))])

    def test_duplicates_and_multiples(self):
        for n in range(1, 6):
            vecs = [word_flag_vector(w) for w in all_words(n, "IC")]
            padded = vecs + vecs[::2] + [v.scale(k) for k, v in
                                         zip((2, -3, 7, 0), vecs)]
            assert span_rank(padded) == fib(n + 1), n
        triangle = word_flag_vector(W("CC"))
        assert span_rank([triangle, triangle.scale(-5), triangle]) == 1
        assert span_rank([triangle.scale(0)]) == 0

    def test_independence_of_basis(self):
        for n in range(8):
            vecs = [build(w).flag_vector() for w in ic_basis(n)]
            assert span_rank(vecs) == len(vecs), n


class TestLinearH:
    def test_well_defined_on_engine_words(self):
        for w in words_up_to(5, "IC"):
            assert linear_h(build(w).flag_vector()) == engine.extended_hvector(w), w

    def test_pseudo_octahedron(self):
        got = linear_pseudo_h(build(W("BIC")).flag_vector())
        assert got == BiGradedPoly([1, -1, 5, 1])

    def test_octahedron_extended_h(self):
        # each of the 6 cone points contributes one local 1-cycle, and the
        # middle Betti number of a 3-polytope is its facet count minus 3
        h = linear_h(build(W("BIC")).flag_vector())
        assert h.mpih() == BiGradedPoly([1, 5, 5, 1])
        assert h.terms[(1,)] == (6,)
        assert len(h.terms) == 2

    def test_middle_betti_is_facets_minus_3(self):
        for ops in ["CCC", "CIC", "ICC", "BIC", "BCC"]:
            lat = build(W(ops))
            h = linear_h(lat.flag_vector())
            assert h.mpih().coeffs[1] == lat.face_counts()[2] - 3, ops

    def test_pseudo_well_defined(self):
        for w in words_up_to(4, "IC"):
            assert linear_pseudo_h(build(w).flag_vector()) == engine.pseudo_h(w)
