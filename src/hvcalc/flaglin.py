"""Exact linear algebra over flag vectors.

Flag vectors of the cone/cylinder words with no repeated cylinder and no
innermost cylinder (``words.ic_basis``) form a basis of the span of all
polytope flag vectors (a Fibonacci number of them in each dimension).  This
module expresses arbitrary flag vectors in that basis and extends linear
functionals (the extended h-vector, the naive pseudo h, the link
functionals) from the basis to the whole span.  Only ``linear_h`` and
``linear_pseudo_h`` import the engine.

The basis solve reads only the sparse rows: the dimension sets with no
two consecutive dimensions and with n - 1 left out.  There are F_(n+1) of
them, and their flag numbers determine any flag vector in the span (Bayer
& Billera 1985, "Generalized Dehn-Sommerville relations for polytopes,
spheres and Eulerian partially ordered sets").  So each expression is one
reduction of the F x F submatrix of the basis on those rows beside the
target's entries there, checked by its full reconstruction on all 2^n rows.
The basis columns come from the flag-level transforms below, not from
lattices; the test suite pins them to the lattice counts on every basis
word through dimension 9.

Every exact elimination in the package goes through one fraction-free
integer routine here, ``_eliminate``: the solve on the sparse rows and the
rank of a family of flag vectors.

It also carries the constructor transforms at the flag-vector level: the
flag vector of a pyramid, prism or bipyramid computed linearly from the
flag vector of the base.  Each flag of the new polytope splits into a chain
of base-type faces followed by a chain of new-type faces, so the count for
a dimension set T is a sum over two-block splits of T of base flag counts.
Every one of these is pinned against the brute-force lattice count in the
test suite.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd, lcm
from operator import add, mul

from .lattice import FlagVector
from .words import GeneratorWord, ic_basis


class NotInSpanError(ValueError):
    """Raised when a vector lies outside the polytope flag-vector span."""

    def __init__(self, residual):
        nonzero = [r for r in residual if r]
        count = len(nonzero)
        super().__init__(
            "vector is outside the basis span; residual has "
            f"{count} nonzero entr{'y' if count == 1 else 'ies'}"
            + (f", the first {nonzero[0]}" if nonzero else ""))
        self.residual = residual


# -- constructor transforms on flag vectors ---------------------------------

def _transform(fv: FlagVector, weight) -> FlagVector:
    """The flag vector one dimension up whose count at T sums, over the
    splits of T into a low block T1 and a high block T2, weight(T1, T2)
    base counts at T1 together with T2 shifted down one dimension.  Sets
    are bitmasks; the base's full face tops up any chain, so its dimension
    n is dropped."""
    n = fv.n
    counts, low = fv.counts, (1 << max(n, 0)) - 1
    out = []
    for key in range(1 << (n + 1)):
        total, high = 0, key
        while True:
            w = weight(key ^ high, high)
            if w:
                total += w * counts[(key ^ high | high >> 1) & low]
            if not high:
                break
            high &= high - 1
        out.append(total)
    return FlagVector(n + 1, tuple(out))


def cone_flag_vector(fv: FlagVector) -> FlagVector:
    """Flag vector of the pyramid over a polytope with flag vector fv.

    New faces are old faces joined to the apex, one dimension up; the base
    survives as a facet.  A chain is a chain of base faces, then a chain of
    coned faces whose underlying faces continue it weakly.
    """
    return _transform(fv, lambda T1, T2: 1)


def prism_flag_vector(fv: FlagVector) -> FlagVector:
    """Flag vector of the prism: two side copies of each face plus the
    interval products, which sit one dimension up."""
    # no product face has dimension zero; side faces come in two copies
    return _transform(fv, lambda T1, T2: 0 if T2 & 1 else 2 if T1 else 1)


def bipyramid_flag_vector(fv: FlagVector) -> FlagVector:
    """Flag vector of the bipyramid: proper faces survive, every proper
    face gains two apex companions, and the base is no longer a face."""
    n = fv.n
    return _transform(fv, lambda T1, T2: 0 if T1 >> n & 1 else 2 if T2 else 1)


_POINT_FLAG = FlagVector(0, (1,))


@lru_cache(maxsize=None)
def _word_flag_cached(ops: str) -> FlagVector:
    """The flag vector of canonical letters, grown from the point."""
    if not ops:
        return _POINT_FLAG
    inner = _word_flag_cached(ops[1:])
    op = ops[0]
    if op == "C":
        return cone_flag_vector(inner)
    if op == "I":
        return prism_flag_vector(inner)
    return bipyramid_flag_vector(inner)


def word_flag_vector(w: GeneratorWord) -> FlagVector:
    """Flag vector of a generator word by the linear transforms.

    Agrees with the lattice count (tested exhaustively at low dimension)
    but stays cheap for prism-heavy words in dimension 6 and 7.  Kept for
    the process by the word's canonical spelling: over the point the
    three transforms agree, so a word and its twins share one value.
    """
    return _word_flag_cached(w.canonical_ops)


# -- row reduction and the basis solve ---------------------------------------

def _eliminate(rows) -> list:
    """Fraction-free Gauss-Jordan reduction of integer rows (Bareiss 1968).

    Each row is cross-multiplied against the pivot rows found so far, its
    own pivot column is then cleared from them, and every row is divided
    by the gcd of its entries.  Returns (pivot, int row) pairs sorted by
    pivot: the rows span the input rows, each is zero at every other
    pivot, and its first nonzero entry, at its pivot, is positive.  The
    number of pairs is the rank.  For A invertible, [A | b] reduces to rows
    d_i e_i | b_i, so x_i = b_i / d_i solves A x = b.
    """
    reduced = []
    for row in rows:
        for p, b in reduced:
            if row[p]:
                f = row[p]
                row = [x * b[p] - y * f for x, y in zip(row, b)]
        piv = next((i for i, x in enumerate(row) if x), None)
        if piv is None:
            continue
        row = _primitive(row, piv)
        for j, (p, b) in enumerate(reduced):
            if b[piv]:
                f = b[piv]
                reduced[j] = p, _primitive(
                    [x * row[piv] - y * f for x, y in zip(b, row)], p)
        reduced.append((piv, row))
    return sorted(reduced, key=lambda pb: pb[0])


def _primitive(row, piv):
    """The row over the gcd of its entries, signed positive at piv."""
    g = gcd(*row)
    if row[piv] < 0:
        g = -g
    return [x // g for x in row]


@lru_cache(maxsize=None)
def _basis_data(n: int):
    """The basis words, their flag vectors (the columns of M) and the
    sparse rows R, on which the square submatrix M[R] is invertible: the
    flag numbers on the sparse sets determine a flag vector in the span
    (Bayer & Billera 1985).  The columns come from the flag-level
    transforms, which the test suite pins to the lattice counts on every
    basis word through dimension 9.
    """
    basis = ic_basis(n)
    cols = [word_flag_vector(w).counts for w in basis]
    # the sparse sets: no two consecutive dimensions, and n - 1 left out
    rows = [key for key in range(1 << max(n - 1, 0)) if not key & key >> 1]
    return basis, cols, rows


def express_in_basis(fv: FlagVector):
    """Exact coefficients of fv over the basis flag vectors.

    Solves M[R] c = f[R] by one reduction of [M[R] | f[R]], then checks
    the full reconstruction; raises NotInSpanError (carrying the nonzero
    entries of f - M c) when no exact combination exists.  The tolerance
    is literally zero.
    """
    _, cols, rows = _basis_data(fv.n)
    f = fv.counts
    # Fraction counts are scaled to integers first: gcd refuses Fractions
    fden = lcm(*(f[r].denominator for r in rows))
    pairs = _eliminate([[*(col[r] for col in cols), int(f[r] * fden)]
                        for r in rows])
    if [p for p, _ in pairs] != list(range(len(cols))):
        raise AssertionError("rows are linearly dependent")
    coeffs = [Fraction(row[-1], row[p] * fden) for p, row in pairs]
    # reconstruct in integers: den times M c, den the common denominator
    den = lcm(*(c.denominator for c in coeffs))
    nums = [c.numerator * (den // c.denominator) for c in coeffs]
    recon = [sum(map(mul, nums, row)) for row in zip(*cols)]
    residual = [Fraction(x * den - y, den)
                for x, y in zip(f, recon) if x * den != y]
    if residual:
        raise NotInSpanError(residual)
    return coeffs


def extend_linear(fv: FlagVector, value_on_word):
    """Extend a linear functional from basis words to the whole span."""
    basis = _basis_data(fv.n)[0]
    parts = [value_on_word(w).scale(c)
             for c, w in zip(express_in_basis(fv), basis) if c]
    return reduce(add, parts) if parts else value_on_word(basis[0]).scale(0)


def linear_h(fv: FlagVector):
    """The extended h-vector of an arbitrary spanned flag vector."""
    from .engine import extended_hvector
    return extend_linear(fv, extended_hvector)


def linear_pseudo_h(fv: FlagVector):
    """The naive pseudo h-vector extended off the generator words."""
    from .engine import pseudo_h
    return extend_linear(fv, pseudo_h)


def span_rank(flag_vectors) -> int:
    """Exact rank of a family of equal-dimension flag vectors."""
    vecs = list(flag_vectors)
    if len({fv.n for fv in vecs}) > 1:
        raise ValueError("rank of flag vectors of unequal dimension")
    return len(_eliminate([fv.as_vector() for fv in vecs]))
