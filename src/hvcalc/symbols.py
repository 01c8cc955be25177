"""Exact symbol algebra: bigraded polynomials, padded words, formal h-vectors.

The basic value is a formal sum of terms ``P * W`` where ``P`` is a
homogeneous polynomial in two commuting degree-one variables and ``W`` is a
word over a padding symbol of degree one and local symbols ``{k}`` of degree
2k+1.  An ``HVector`` holds each term as its word and the tuple of the
polynomial's coefficients, the same data the engine's kernels compute on;
``BiGradedPoly`` is the type of a standalone polynomial.  Two flavors
exist: the auxiliary flavor (variables X, Y and sliding pad Ā) and the
final flavor (variables x, y and frozen pad A).  Every word is implicitly
terminated, and a pad sitting against the terminator annihilates the whole
term; that is the only normalization rule applied on construction.
A word is checked once per tuple object, into one bounded table
(``_WORDS``) whose entry holds every fact this layer reads about it: its
degree and pads, which flavors keep it, its display sort key and its text.

The pad elimination system that converts auxiliary words to final words is

    Ā{k} -> A{k} + {k}Ā        (stay put, frozen, or slide right)
    ĀA   -> AA                 (a frozen pad blocks sliding)
    Ā|   -> 0                  (dies at the terminator)

Its normal forms are sets: no final word comes out twice.  Confluence is
pinned by a test; ``rewrite_pads`` applies the rules with a rightmost-first
strategy.

All coefficients are exact, normalized on construction to a Python int or
a non-integral ``fractions.Fraction``, so that ``str`` prints them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import add, sub
from types import MappingProxyType

from ._frozen import Frozen

PAD = "A"        # final-flavor padding symbol
PAD_AUX = "Ā"  # aux-flavor padding symbol, rendered as a barred A

AUX = "aux"
FINAL = "final"

_PADS = (PAD, PAD_AUX)
_DIGITS = frozenset(range(10))  # coefficients written with no separator
# each flavor's own pad, the pad that is wrong for it, and its first and
# second variables
_FLAVORS = {FINAL: (PAD, PAD_AUX, "x", "y"), AUX: (PAD_AUX, PAD, "X", "Y")}


def _exact(c):
    """An exact int or a non-integral Fraction, so that ``str`` prints it;
    floats are refused."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return int(c) if c.denominator == 1 else c
    if isinstance(c, bool) or not isinstance(c, int):
        raise TypeError(f"exact coefficient required, got {type(c).__name__}")
    return int(c)


def _coeff_tuple(coeffs) -> tuple:
    """The checked coefficients of one polynomial: exact, at least one."""
    cs = tuple(coeffs)
    for c in cs:
        if type(c) is not int:
            cs = tuple(map(_exact, cs))
            break
    if not cs:
        raise ValueError("a polynomial needs at least one coefficient")
    return cs


def _check_flavor(flavor) -> tuple:
    """The flavor's entry of ``_FLAVORS``; a bad flavor is refused."""
    if flavor not in (AUX, FINAL):
        raise ValueError(f"bad flavor {flavor!r}")
    return _FLAVORS[flavor]


def _check_exponents(xexp, yexp):
    for e in (xexp, yexp):
        if type(e) is not int:  # bools and floats are not exponents
            raise TypeError(f"exponent must be an int, got {e!r}")
    if xexp < 0 or yexp < 0:
        raise ValueError("negative exponent")


def word_degree(word) -> int:
    """A pad has degree 1 and a local {k} 2k+1; any other symbol is refused."""
    d = len(word)
    for s in word:
        if type(s) is int and s >= 1:  # first: every HVector term comes here
            d += 2 * s
        elif s not in _PADS:
            if isinstance(s, bool) or not isinstance(s, int) or s < 1:
                raise ValueError(f"bad symbol {s!r}")
            d += 2 * s
    return d


def word_locals(word) -> tuple:
    """The subsequence of local symbols, pads erased."""
    return tuple(s for s in word if s not in _PADS)


def pad_positions(word) -> tuple:
    return tuple(i for i, s in enumerate(word) if s in _PADS)


def word_sort_key(word):
    # degree first, then local subsequence, then pad placement; this
    # reproduces the customary display order (empty word leads).
    return (word_degree(word), word_locals(word), pad_positions(word))


def render_word(word) -> str:
    return "".join(s if s in _PADS else "{%d}" % s for s in word)


def word_to_json(word):
    return [("A" if s == PAD else "Abar") if s in _PADS else {"local": s}
            for s in word]


class BiGradedPoly(Frozen):
    """Homogeneous polynomial in two commuting variables, as a coefficient list.

    ``coeffs[t]`` is the coefficient of (first variable)^(m-t) (second
    variable)^t where m = len(coeffs)-1.  Degree is structural: the zero
    polynomial of degree m keeps its m+1 zeros.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", _coeff_tuple(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def one(cls) -> "BiGradedPoly":
        return cls((1,))

    def __add__(self, other):
        if self.degree != other.degree:
            raise ValueError("degree mismatch in polynomial addition")
        return BiGradedPoly(a + b for a, b in zip(self.coeffs, other.coeffs))

    def scale(self, c) -> "BiGradedPoly":
        return BiGradedPoly(c * a for a in self.coeffs)

    def mul_linear(self) -> "BiGradedPoly":
        """Multiply by the sum of the two variables; degree goes up by one."""
        cs = self.coeffs
        mid = [cs[i] + cs[i + 1] for i in range(len(cs) - 1)]
        return BiGradedPoly((cs[0], *mid, cs[-1]))

    def render(self, aux=False) -> str:
        return render_coeffs(self.coeffs, aux)

    def to_json(self) -> list:
        return [scalar_to_json(c) for c in self.coeffs]

    def __repr__(self):
        return f"BiGradedPoly({list(self.coeffs)!r})"


def render_coeffs(cs, aux=False) -> str:
    """A polynomial's coefficients as text: ``(121)``, or ``[1,-1]`` for aux."""
    lo, hi = ("[", "]") if aux else ("(", ")")
    sep = "" if _DIGITS.issuperset(cs) else ","
    return lo + sep.join(map(str, cs)) + hi


def scalar_to_json(c):
    if isinstance(c, Fraction) and c.denominator != 1:
        return f"{c.numerator}/{c.denominator}"
    return int(c)


@lru_cache(maxsize=None)
def rewrite_pads(word) -> tuple:
    """Normal form of a word under the pad elimination rules.

    Returns the surviving aux-pad-free words, each once.  Rightmost sliding
    pad first; positions of frozen pads are preserved.  Pads never pass one
    another, so a final word fixes the gap each pad ends in and with it the
    choices that made the word: the frozen branch keeps the pad before the
    next symbol, the slid branch moves it past, and the two are disjoint.
    """
    for i in range(len(word) - 1, -1, -1):
        if word[i] == PAD_AUX:
            break
    else:
        # no sliding pads left; a trailing frozen pad still dies
        if word and word[-1] == PAD:
            return ()
        return (word,)
    if i == len(word) - 1:
        return ()
    nxt = word[i + 1]
    frozen = rewrite_pads(word[:i] + (PAD,) + word[i + 1:])
    if nxt == PAD:
        return frozen
    # nxt is a local symbol: freeze in place or slide over it
    return frozen + rewrite_pads(word[:i] + (nxt, PAD_AUX) + word[i + 2:])


# word -> its entry: (the tuple object checked, its degree, its pads,
# whether an aux vector keeps it, whether a final vector keeps it, its
# display sort key, its text).  A flavor keeps a word that neither ends in
# a pad nor holds the flavor's wrong pad.  An entry serves only that very
# object, never (True,) for (1,) nor a tuple subclass
_WORDS: dict = {}
_WORDS_MAX = 4096  # cleared when full
_KEEPS = {AUX: 3, FINAL: 4}  # the slot of the flavor's keep flag


def _checked_word(word, bad_pad=None) -> tuple:
    """A word's entry in ``_WORDS``.  Any word but the very tuple
    registered is converted, checked and registered.  A word that holds
    ``bad_pad``, the pad wrong for the caller's flavor, is refused."""
    try:
        entry = _WORDS[word] if type(word) is tuple else None
    except (KeyError, TypeError):  # a new word, or an unhashable symbol
        entry = None
    if entry is None or entry[0] is not word:
        word = tuple(word)
        degree = word_degree(word)
        pads = tuple(p for p in _PADS if p in word)
        live = not word or word[-1] not in _PADS
        entry = (word, degree, pads, live and PAD not in pads,
                 live and PAD_AUX not in pads,
                 (degree, word_locals(word), pad_positions(word)),
                 render_word(word))
        if len(_WORDS) >= _WORDS_MAX:
            _WORDS.clear()
        _WORDS[word] = entry
    if bad_pad in entry[2]:
        flavor = next(f for f, row in _FLAVORS.items() if row[1] == bad_pad)
        raise ValueError(f"word {entry[0]!r} has wrong flavor for {flavor}")
    return entry


def _checked_terms(terms, degree: int, bad_pad) -> dict:
    """Every term checked, in order, and the clean ones kept."""
    clean = {}
    for word, cs in terms.items():
        cs = _coeff_tuple(cs)
        word, wdeg = _checked_word(word, bad_pad)[:2]
        if word and word[-1] in _PADS or not any(cs):
            continue  # a trailing pad meets the terminator, or zero
        if len(cs) - 1 + wdeg != degree:
            raise ValueError(
                f"term {word!r} breaks degree {degree} homogeneity")
        clean[word] = cs
    return clean


def _accepted(terms: dict, slot: int, size: int):
    """``terms`` without its zero polynomials, when every term is a tuple
    of ints on the very tuple of a word whose entry has ``slot`` set, and
    its number of coefficients plus its word's degree is ``size``; else
    None, and the full checks run.  An acceptance test: it refuses nothing."""
    zeros = []
    get = _WORDS.get
    for word, cs in terms.items():
        entry = get(word) if type(word) is tuple else None
        if (entry is None or entry[0] is not word or not entry[slot]
                or type(cs) is not tuple or len(cs) + entry[1] != size):
            return None
        for c in cs:
            if type(c) is not int:
                return None
        if not any(cs):
            if not cs:
                return None
            zeros.append(word)
    clean = dict(terms)
    for word in zeros:
        del clean[word]
    return clean


class HVector(Frozen):
    """Formal sum of terms word -> coefficient tuple, of fixed degree.

    A term's value is the tuple of its polynomial's coefficients, as in
    ``BiGradedPoly.coeffs``; the constructor is where a term is checked.
    It takes any sequence of exact coefficients (ints, or Fractions, which
    collapse to int when integral) and refuses an empty one, floats,
    strings and non-sequences such as a ``BiGradedPoly``.

    Invariants: the degree is an int >= -1 (-1 only for the empty
    polytope, which has no ``mpih`` part), deg(poly) + deg(word) equals it for
    every term, no term maps to the zero polynomial, no word ends in a pad,
    and every word matches the vector's flavor.  A term's coefficients, its
    word's symbols (once per word object, in ``_checked_word``) and its
    word's flavor are checked before it can be dropped: a word ending in a
    pad meets the terminator, and a zero polynomial goes.  Homogeneity is
    checked on the terms kept; ``terms`` is a read-only mapping.

    A word's registry entry (``_WORDS``) says whether each flavor keeps
    it.  A dict whose every term is a tuple of ints on the very tuple of a
    word the flavor keeps, at the vector's degree, is accepted in one loop
    (``_accepted``), one lookup per term, and copied without its zero
    polynomials.  Any other map is checked term by term, in order
    (``_checked_terms``); every refusal comes from there, with the
    messages above.  Display order and word text are read from the entry.
    """

    __slots__ = ("degree", "flavor", "terms")

    def __init__(self, degree: int, flavor: str, terms=None):
        bad_pad = _check_flavor(flavor)[1]
        if type(degree) is not int:  # bools and floats are not degrees
            raise TypeError(f"degree must be an int, got {degree!r}")
        if degree < -1:  # -1 is the empty polytope's
            raise ValueError(f"degree must be at least -1, got {degree}")
        clean = (_accepted(terms, _KEEPS[flavor], degree + 1)
                 if type(terms) is dict else None)
        if clean is None:
            clean = _checked_terms(terms or {}, degree, bad_pad)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "flavor", flavor)
        object.__setattr__(self, "terms", MappingProxyType(clean))

    @classmethod
    def zero(cls, degree: int, flavor: str) -> "HVector":
        return cls(degree, flavor, {})

    @classmethod
    def unit(cls, flavor: str) -> "HVector":
        """The degree-zero vector with constant polynomial 1 on the empty word."""
        return cls(0, flavor, {(): (1,)})

    def __hash__(self):
        return hash((self.degree, self.flavor, frozenset(self.terms.items())))

    def _merge(self, other, op):
        if self.degree != other.degree or self.flavor != other.flavor:
            raise ValueError("degree/flavor mismatch in h-vector addition")
        terms = dict(self.terms)
        for word, cs in other.terms.items():
            # equal words of equal-degree vectors have equal-length tuples
            terms[word] = tuple(map(op, terms.get(word, (0,) * len(cs)), cs))
        return HVector(self.degree, self.flavor, terms)

    def __add__(self, other):
        return self._merge(other, add)

    def __sub__(self, other):
        return self._merge(other, sub)

    def scale(self, c) -> "HVector":
        return HVector(self.degree, self.flavor,
                       {w: tuple([c * a for a in cs])
                        for w, cs in self.terms.items()})

    def times_second(self) -> "HVector":
        """Multiply every polynomial by the second variable (y or Y)."""
        return HVector(self.degree + 1, self.flavor,
                       {w: (0, *cs) for w, cs in self.terms.items()})

    def mpih(self) -> BiGradedPoly:
        """The empty-word polynomial; structurally zero when absent."""
        if self.degree == -1:
            raise ValueError("the empty polytope has no mpih part")
        return BiGradedPoly(self.terms.get((), (0,) * (self.degree + 1)))

    def coefficient(self, xexp: int, yexp: int, word):
        """Coefficient of (first)^xexp (second)^yexp word, or 0."""
        _check_exponents(xexp, yexp)
        cs = self.terms.get(tuple(word))
        if cs is None or xexp + yexp != len(cs) - 1:
            return 0
        return cs[yexp]

    def is_palindromic(self) -> bool:
        return all(cs == cs[::-1] for cs in self.terms.values())

    def _display(self) -> list:
        """(word entry, coefficients) of every term, in display order."""
        return sorted([(_checked_word(w), cs) for w, cs in self.terms.items()],
                      key=lambda ec: ec[0][5])

    def sorted_terms(self):
        return [(e[0], cs) for e, cs in self._display()]

    def render(self) -> str:
        aux = self.flavor == AUX
        return " + ".join(render_coeffs(cs, aux) + e[6]
                          for e, cs in self._display()) or "0"

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "flavor": self.flavor,
            "terms": [
                {"word": word_to_json(w),
                 "poly": [scalar_to_json(c) for c in cs]}
                for w, cs in self.sorted_terms()
            ],
        }

    def to_csv(self) -> str:
        """A header, then one line per term: its word, and its
        coefficients separated by spaces."""
        return "word,poly\n" + "".join(
            f"{e[6]},{' '.join(map(str, cs))}\n" for e, cs in self._display())

    def __repr__(self):
        return f"<HVector {self.flavor} deg {self.degree}: {self.render()}>"
