"""Fuzz tests of the parsers, the word commands and the arguments of
``basis``, ``terms`` and ``verify``: every input gives a result or one of
the refusals the caller is told to expect."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from hvcalc.lattice import FaceLattice, build
from hvcalc.words import GeneratorWord, WordParseError
from test_cli import run_captured

# short texts of word tokens and junk: a dash for option lookalikes, x and
# { for term and file-name lookalikes, a newline and a space
WORD_TEXTS = st.lists(st.sampled_from(
    ["I", "C", "B", ".", "·", "x", "{", "-", "\n", " "]),
    max_size=5).map("".join)

# each word command with each of its --format values, or none
WORD_COMMANDS = [(cmd, fmt) for cmd, formats in [
    ("hvec", ("text", "json", "csv")), ("aux", ("text", "json", "csv")),
    ("flagvec", ("text", "json", "csv")), ("lattice", ()),
    ("links", ("text", "json", "csv")), ("pseudo", ("text", "json")),
    ("express", ("text", "json", "csv"))]
    for fmt in [[]] + [["--format", f] for f in formats]]


class TestWordCommands:
    @pytest.mark.parametrize("cmd, fmt", WORD_COMMANDS)
    @given(text=WORD_TEXTS)
    @settings(max_examples=30, deadline=None)
    def test_exits_0_or_2(self, cmd, fmt, text):
        rc, out, err = run_captured([cmd, text, *fmt])
        assert rc in (0, 2) and "Traceback" not in err
        if rc == 2:
            assert len(err.splitlines()) == 1 and out == ""
        else:
            assert err == "" and out


def exits_0_or_2(argv):
    """Exit 0 with a result and at most a note, or 2 with one line."""
    rc, out, err = run_captured(argv)
    assert rc in (0, 2) and "Traceback" not in err, argv
    if rc == 2:
        assert len(err.splitlines()) == 1 and out == "", argv
    else:
        assert out and (err == "" or (err.startswith("note: ")
                                      and err.count("\n") == 1)), argv


# number texts: integers from lo to hi, and junk that no int() reads
def numbers(lo, hi):
    return st.integers(lo, hi).map(str) | st.sampled_from(
        ["", "x", "1.5", "-", "--", "1e2", "0x3", "3x", "-x"])


FORMATS = st.sampled_from([[], ["--format", "text"], ["--format", "json"],
                           ["--format", "csv"], ["--format"], ["--format=x"]])
# now and then an extra argument, or None for a missing one
EXTRA = st.sampled_from([[]] * 6 + [["3"], ["--max-dim"], ["-x"], None])


class TestCountCommands:
    # small N, which print at once, and N past the listing bound (from 30
    # on for basis, 29 for terms), however large, which are refused before
    # anything is listed; ``basis 25`` prints 121 393 words, so the sizes
    # in between are left out
    @pytest.mark.parametrize("cmd", ["basis", "terms"])
    @given(n=numbers(-3, 10) | st.integers(30, 10 ** 40).map(str),
           fmt=FORMATS, extra=EXTRA)
    @settings(max_examples=60, deadline=None)
    def test_exits_0_or_2(self, cmd, n, fmt, extra):
        exits_0_or_2([cmd, *fmt] if extra is None else [cmd, n, *fmt, *extra])


class TestVerifyArguments:
    # the suites that run in milliseconds at --max-dim <= 4, and names that
    # argparse refuses; "all" and the slower suites are left out
    @given(suite=st.sampled_from(["tables", "strata", "palindromy",
                                  "unimodality", "fibonacci"] * 2
                                 + ["nosuch", "", "Tables", "-1"]),
           max_dim=(st.integers(1, 4).map(str) | numbers(-3, 4)).map(
               lambda m: ["--max-dim", m]),
           extra=EXTRA)
    @settings(max_examples=80, deadline=None)
    def test_exits_0_or_2(self, suite, max_dim, extra):
        exits_0_or_2(["verify", *max_dim] if extra is None
                     else ["verify", suite, *max_dim, *extra])


class TestParseWord:
    @given(st.one_of(WORD_TEXTS, st.text(max_size=12)))
    @settings(max_examples=200, deadline=None)
    def test_parse_returns_a_word_or_refuses(self, text):
        try:
            w = GeneratorWord.parse(text)
        except WordParseError:
            return
        assert isinstance(w, GeneratorWord)


def accepts_or_refuses(data):
    """``from_json`` raises ValueError, or its lattice's flag vector is
    computed or refused with ValueError; nothing else escapes."""
    try:
        lat = FaceLattice.from_json(data)
    except ValueError:
        return
    try:
        lat.flag_vector()
    except ValueError:
        pass


SCALARS = (st.none() | st.booleans() | st.integers(-3, 5) | st.integers()
           | st.floats(allow_nan=False) | st.text(max_size=3))
KEYS = st.sampled_from(["n", "faces", "verts", "dim", "x"])
DOCUMENTS = st.recursive(
    SCALARS, lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(KEYS, inner, max_size=4), max_leaves=20)
# documents of nearly the right shape: small vertex lists and dimensions,
# with now and then a scalar in their place
SHAPED = st.fixed_dictionaries({
    "n": st.integers(-2, 4) | SCALARS,
    "faces": st.lists(st.fixed_dictionaries({
        "verts": st.lists(st.integers(0, 5) | SCALARS, max_size=6) | SCALARS,
        "dim": st.integers(-2, 4) | SCALARS}), max_size=12)})
ICB_WORDS = ["".join(ops) for d in range(4)
             for ops in itertools.product("ICB", repeat=d)]


@st.composite
def mutated_lattices(draw):
    """The JSON of an ICB word of dim <= 3 with faces dropped,
    re-dimensioned or added."""
    data = build(GeneratorWord(draw(st.sampled_from(ICB_WORDS)))).to_json()
    faces, n = data["faces"], data["n"]
    nverts = 1 + max(v for f in faces for v in f["verts"])
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["drop", "dim", "add"]))
        if kind == "add" or not faces:
            faces.append({
                "verts": sorted(draw(st.sets(st.integers(0, nverts),
                                             max_size=nverts + 1))),
                "dim": draw(st.integers(-1, n + 1))})
        else:
            i = draw(st.integers(0, len(faces) - 1))
            if kind == "drop":
                del faces[i]
            else:
                faces[i] = {**faces[i], "dim": draw(st.integers(-2, n + 1))}
    return data


class TestFromJson:
    @given(st.one_of(DOCUMENTS, SHAPED))
    @settings(max_examples=200, deadline=None)
    def test_random_documents(self, data):
        accepts_or_refuses(data)

    @given(mutated_lattices())
    @settings(max_examples=200, deadline=None)
    def test_mutated_word_lattices(self, data):
        accepts_or_refuses(data)

