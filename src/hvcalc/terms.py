"""Index terms, their strata vectors, and the implication partial order.

An index term is a monomial in the two commuting variables times a word in
pads and local symbols, the whole thing homogeneous.  Broadly similar terms
(same degree, same second-variable exponent, same local subsequence) are
compared through their stratification dimension vectors: scanning the word
from the left, each local symbol adds its own degree plus the pads directly
to its left, and the running values are the strata dimensions.  A term
implies another exactly when the strata dominate componentwise.

The same order is generated by two moves on aux terms: trade a first
variable for a pad at the front of the word, and slide a pad rightwards
over a local symbol (off the end of the word means annihilation).  The
downset computed by the moves and the one computed from strata vectors are
cross-checked in the tests, and the family is Fibonacci-counted.
"""

from __future__ import annotations

import re
from functools import lru_cache

from .symbols import (
    AUX, FINAL, PAD, PAD_AUX, _FLAVORS, _PADS, _check_exponents, _check_flavor,
    _checked_word, render_word, word_degree, word_locals, word_sort_key,
)
from .words import Frozen


class IndexTerm(Frozen):
    """x^xexp y^yexp times a word, in one flavor; immutable and hashable."""

    __slots__ = ("xexp", "yexp", "word", "flavor")

    def __init__(self, xexp: int, yexp: int, word: tuple = (),
                 flavor: str = FINAL):
        bad_pad = _check_flavor(flavor)[1]
        _check_exponents(xexp, yexp)
        word = _checked_word(word, bad_pad)[0]
        if word and word[-1] in _PADS:
            raise ValueError("index words do not end in a pad")
        init = object.__setattr__
        init(self, "xexp", xexp)
        init(self, "yexp", yexp)
        init(self, "word", word)
        init(self, "flavor", flavor)

    @classmethod
    def parse(cls, text: str) -> "IndexTerm":
        """Read a term as ``render`` writes it: ``xA{1}``, ``X^2Y^3{5}``,
        ``Abar{1}{1}`` or ``1``; an exponent may drop its ``^``, and the
        aux pad is ``Abar`` or ``Ā``.  Bad text raises ValueError."""
        if not text.strip():
            raise ValueError("empty term: write the constant term as 1")
        # each pad and variable: its flavor, and the exponent it raises or None
        alphabet = {}
        for flavor, (pad, _, x, y) in _FLAVORS.items():
            alphabet.update({pad: (flavor, None), x: (flavor, 0), y: (flavor, 1)})
        variables = "".join(s for s, (_, i) in alphabet.items() if i is not None)
        token = rf"([{variables}])(?:\^?(\d+))?|(Abar|Ā|Ā|A)|\{{(\d+)\}}|(.)"
        exps, word, flavors = [0, 0], [], set()
        text = text.replace(" ", "")
        # int() refuses a number past its digit limit with ValueError
        for m in re.finditer(token, "" if text == "1" else text, re.DOTALL):
            var, exp, pad, local, junk = m.groups()
            if junk is not None:
                raise ValueError(f"bad term syntax near {junk!r}")
            if local is not None:
                word.append(int(local))
                continue
            sym = var or (PAD if pad == "A" else PAD_AUX)
            flavor, i = alphabet[sym]
            flavors.add(flavor)
            if i is None:
                word.append(sym)
            else:
                exps[i] += int(exp) if exp else 1
        if len(flavors) > 1:
            raise ValueError("term mixes aux and final symbols")
        return cls(*exps, tuple(word), flavors.pop() if flavors else FINAL)

    @property
    def degree(self) -> int:
        return self.xexp + self.yexp + _checked_word(self.word)[1]

    def render(self) -> str:
        xs, ys = _FLAVORS[self.flavor][2:]
        out = []
        for sym, e in ((xs, self.xexp), (ys, self.yexp)):
            if e == 1:
                out.append(sym)
            elif e > 1:
                out.append(f"{sym}^{e}")
        out.append(render_word(self.word))
        return "".join(out) or "1"

    def __str__(self):
        return self.render()


def strata_vector(t: IndexTerm) -> tuple:
    """Ascending stratum dimensions, ending at the term degree: each local
    {k} adds 2k+1 and the pads directly to its left."""
    value = t.xexp + t.yexp
    out = [value]
    for s in t.word:
        if s in _PADS:
            value += 1
        else:
            value += 2 * s + 1
            out.append(value)
    return tuple(out)


def broadly_similar(a: IndexTerm, b: IndexTerm) -> bool:
    """Equal after deleting the first variable and the pads, and of equal
    degree."""
    return (a.degree == b.degree and a.yexp == b.yexp
            and word_locals(a.word) == word_locals(b.word))


def implies(a: IndexTerm, b: IndexTerm) -> bool:
    if not broadly_similar(a, b):
        return False
    return all(x >= y for x, y in zip(strata_vector(a), strata_vector(b)))


def downset(t: IndexTerm) -> list:
    """Closure of an aux term under the two weakening moves."""
    if t.flavor != AUX:
        raise ValueError("the move system is defined on aux terms")
    seen = set()
    frontier = [t]
    while frontier:
        cur = frontier.pop()
        if cur in seen:
            continue
        seen.add(cur)
        if cur.xexp > 0 and cur.word:
            # on an empty word the traded pad would sit at the terminator
            frontier.append(IndexTerm(cur.xexp - 1, cur.yexp,
                                      (PAD_AUX,) + cur.word, AUX))
        w = cur.word
        for i, s in enumerate(w):
            if s != PAD_AUX or i + 1 >= len(w):
                continue
            if w[i + 1] in _PADS:
                continue
            slid = w[:i] + (w[i + 1], PAD_AUX) + w[i + 2:]
            if slid[-1] == PAD_AUX:
                continue  # slid off the end: the term dies
            frontier.append(IndexTerm(cur.xexp, cur.yexp, slid, AUX))
    return sorted(seen, key=_term_sort_key)


def _term_sort_key(t: IndexTerm):
    return (word_sort_key(t.word), t.yexp)


@lru_cache(maxsize=None)
def words_of_degree(d: int, flavor: str = FINAL) -> tuple:
    """All words of exact degree d not ending in a pad."""
    pad = _check_flavor(flavor)[0]
    if d == 0:
        return ((),)
    out = []
    if d >= 1:
        for w in words_of_degree(d - 1, flavor):
            if w:
                out.append((pad,) + w)
    k = 1
    while 2 * k + 1 <= d:
        for w in words_of_degree(d - 2 * k - 1, flavor):
            out.append((k,) + w)
        k += 1
    return tuple(sorted(out, key=word_sort_key))


def words_up_to_degree(n: int, flavor: str = FINAL) -> list:
    """Every word of degree <= n, in display order (degree leads its key)."""
    out = []
    for d in range(n + 1):
        out.extend(words_of_degree(d, flavor))
    return out


def enumerate_terms(n: int, flavor: str = FINAL) -> list:
    """Every index term of degree n, in display order: by word, then by
    the second exponent."""
    out = []
    for w in words_up_to_degree(n, flavor):
        rest = n - word_degree(w)
        for j in range(rest + 1):
            out.append(IndexTerm(rest - j, j, w, flavor))
    return out


def fib(k: int) -> int:
    """Fibonacci numbers with fib(1) = fib(2) = 1."""
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a
