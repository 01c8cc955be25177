"""Generator words: programs of polytope constructors applied to the point.

A word like ``CIC.`` reads right to left: start from the point, take the
pyramid, then the prism, then the pyramid again.  The letters are C
(cone/pyramid), I (cylinder/prism) and B (bipyramid).  Words without B are
the ones the symbolic engine can evaluate directly.  Every command loads
this base module, which also holds the Fibonacci basis and ``Frozen``.
"""

from __future__ import annotations

from functools import total_ordering
from itertools import product

OPS = "ICB"


class Frozen:
    """The one immutable base of the value classes: ``__init__`` sets each
    field of ``__slots__`` once, through ``object.__setattr__``, and none
    can then be assigned or deleted, so no caller edits a cached value.
    Values of one class are equal when their fields are, and hash as them.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return f"{type(self).__name__}(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__) + ")"


class WordParseError(ValueError):
    def __init__(self, message, column):
        super().__init__(f"{message} at column {column}")
        self.column = column


@total_ordering
class GeneratorWord(Frozen):
    """Sequence of constructor letters, applied right to left to the point.

    Immutable, hashable and ordered by its letters.
    """

    __slots__ = ("ops",)

    def __init__(self, ops: str = ""):
        if type(ops) is not str:  # stored as given, so a plain str only
            raise TypeError(f"letters must be a str, got {type(ops).__name__}")
        for ch in ops:
            if ch not in OPS:
                raise ValueError(f"bad constructor letter {ch!r}")
        object.__setattr__(self, "ops", ops)

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.ops < other.ops

    @property
    def dim(self) -> int:
        return len(self.ops)

    def is_bipyramid_free(self) -> bool:
        return "B" not in self.ops

    @property
    def canonical_ops(self) -> str:
        """The letters with the innermost one written C.

        Over the point the cone, the prism and the bipyramid all give the
        segment, so words that differ only in their innermost letter (a
        word and its twins) name one polytope; memos keyed by this
        spelling give them one value.  A suffix of a canonical spelling is
        canonical.
        """
        ops = self.ops
        return ops[:-1] + "C" if ops[-1:] in ("I", "B") else ops

    def render(self) -> str:
        return self.ops + "."

    def __str__(self):
        return self.render()

    @classmethod
    def parse(cls, text: str) -> "GeneratorWord":
        ops = []
        seen_dot = False
        for col, ch in enumerate(text, start=1):
            if ch.isspace():
                continue
            if seen_dot:
                raise WordParseError(f"trailing {ch!r} after terminator", col)
            if ch in OPS:
                ops.append(ch)
            elif ch in ".·":
                seen_dot = True
            else:
                raise WordParseError(f"unknown character {ch!r}", col)
        if not ops and not seen_dot:
            raise WordParseError("empty word needs a terminator", 1)
        return cls("".join(ops))


def all_words(n: int, letters: str = "IC"):
    """Every length-n word over the given letters, lexicographic."""
    for tup in product(sorted(letters), repeat=n):
        yield GeneratorWord("".join(tup))


def words_up_to(n: int, letters: str = "IC"):
    for k in range(n + 1):
        yield from all_words(k, letters)


def ic_basis(n: int) -> list:
    """The F_(n+1) length-n words over I, C with no 'II' and no innermost
    'I', in lexicographic order: grown left to right, C before I, so that
    only basis words are ever built."""
    if n < 0:
        raise ValueError(f"dimension must be non-negative, got {n}")
    words = [""]
    for i in range(n):
        last = i == n - 1
        words = [w + ch for w in words for ch in "CI"
                 if ch == "C" or not (last or w.endswith("I"))]
    return [GeneratorWord(w) for w in words]
