"""The plain value classes, and what a cold ``import hvcalc.cli`` loads."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import hvcalc
from hvcalc import engine
from hvcalc._frozen import Frozen
from hvcalc.checks import CheckResult
from hvcalc.flaglin import word_flag_vector
from hvcalc.lattice import FlagVector, build
from hvcalc.links import h_by_links
from hvcalc.symbols import AUX, FINAL, PAD, PAD_AUX, BiGradedPoly, HVector
from hvcalc.terms import IndexTerm
from hvcalc.words import GeneratorWord


def test_cli_import_leaves_out_dataclasses():
    src = str(Path(hvcalc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys; before = set(sys.modules); import hvcalc.cli; "
            "print(sorted({'dataclasses', 'inspect'} "
            "& (set(sys.modules) - before)))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


class TestGeneratorWord:
    def test_equality_and_hash(self):
        a, b = GeneratorWord("CIC"), GeneratorWord("CIC")
        assert a == b and a is not b and hash(a) == hash(b)
        assert hash(a) == hash(("CIC",))
        assert a != GeneratorWord("ICC")
        assert a != "CIC" and a != ("CIC",)
        assert len({a, b, GeneratorWord("ICC")}) == 2

    def test_ordering(self):
        ws = [GeneratorWord(s) for s in ("IC", "", "CI", "C", "BC")]
        assert [w.ops for w in sorted(ws)] == ["", "BC", "C", "CI", "IC"]
        a, b = GeneratorWord("CC"), GeneratorWord("CI")
        assert a < b and a <= b and b > a and b >= a and a <= a
        with pytest.raises(TypeError):
            a < "CI"

    def test_immutable(self):
        w = GeneratorWord("CIC")
        with pytest.raises(AttributeError):
            w.ops = "C"
        with pytest.raises(AttributeError):
            del w.ops
        with pytest.raises(AttributeError):
            w.extra = 1
        assert w.ops == "CIC"

    def test_repr_and_default(self):
        assert repr(GeneratorWord("CIC")) == "GeneratorWord(ops='CIC')"
        assert GeneratorWord() == GeneratorWord(ops="")

    def test_validation(self):
        with pytest.raises(ValueError, match="bad constructor letter 'X'"):
            GeneratorWord("CXC")

    @pytest.mark.parametrize("ops,canonical", [
        ("", ""), ("C", "C"), ("I", "C"), ("B", "C"), ("CI", "CC"),
        ("IB", "IC"), ("BIC", "BIC"), ("CIBI", "CIBC")])
    def test_canonical_ops(self, ops, canonical):
        # only the innermost letter is rewritten, and the word keeps its own
        w = GeneratorWord(ops)
        assert w.canonical_ops == canonical and w.ops == ops
        assert GeneratorWord(canonical).canonical_ops == canonical

    @pytest.mark.parametrize("ops", [["C", "I"], ("C", "I"), None],
                             ids=["list", "tuple", "none"])
    def test_letters_must_be_a_str(self, ops):
        # a list would be stored as given: editable, and neither printable
        # nor hashable as a word
        with pytest.raises(TypeError, match="letters must be a str"):
            GeneratorWord(ops)


class TestIndexTerm:
    def test_equality_and_hash(self):
        a = IndexTerm(1, 0, (PAD, 1))
        b = IndexTerm(xexp=1, yexp=0, word=(PAD, 1), flavor=FINAL)
        assert a == b and hash(a) == hash(b)
        assert hash(a) == hash((1, 0, (PAD, 1), FINAL))
        assert a != IndexTerm(0, 1, (PAD, 1))
        assert IndexTerm(0, 0, (1,)) != IndexTerm(0, 0, (1,), AUX)
        assert a != (1, 0, (PAD, 1), FINAL)
        with pytest.raises(TypeError):
            a < b

    def test_immutable(self):
        t = IndexTerm(1, 0, (PAD, 1))
        for name in ("xexp", "yexp", "word", "flavor"):
            with pytest.raises(AttributeError):
                setattr(t, name, 0)
            with pytest.raises(AttributeError):
                delattr(t, name)
        with pytest.raises(AttributeError):
            t.extra = 1
        assert (t.xexp, t.yexp, t.word, t.flavor) == (1, 0, (PAD, 1), FINAL)

    def test_repr(self):
        assert repr(IndexTerm(1, 0, (PAD_AUX, 2), AUX)) == (
            "IndexTerm(xexp=1, yexp=0, word=('Ā', 2), flavor='aux')")

    @pytest.mark.parametrize("args", [(-1, 0, ()), (0, -1, (1,))])
    def test_negative_exponent_refused(self, args):
        with pytest.raises(ValueError, match="negative exponent"):
            IndexTerm(*args)

    def test_word_stored_as_tuple(self):
        t = IndexTerm(0, 0, [1])
        assert type(t.word) is tuple
        assert t == IndexTerm(0, 0, (1,)) and hash(t) == hash(IndexTerm(0, 0, (1,)))
        assert IndexTerm(1, 0, [PAD_AUX, 2], AUX).render() == "XĀ{2}"

    @pytest.mark.parametrize("args", [
        (1.5, 0, ()), (0, 2.0, (1,)), (True, 0, ()), (0, False, ()),
        ("1", 0, ()), (None, 0, ()),
    ])
    def test_non_int_exponent_refused(self, args):
        with pytest.raises(TypeError, match="exponent must be an int"):
            IndexTerm(*args)

    @pytest.mark.parametrize("flavor", ["bogus", "AUX", None])
    def test_unknown_flavor_refused(self, flavor):
        with pytest.raises(ValueError, match="bad flavor"):
            IndexTerm(1, 0, (1,), flavor)


@pytest.mark.parametrize("cls", [GeneratorWord, IndexTerm, FlagVector,
                                 HVector, BiGradedPoly, CheckResult])
def test_one_frozen_base(cls):
    assert issubclass(cls, Frozen)
    assert "__setattr__" not in vars(cls) and "__delattr__" not in vars(cls)


def _refuses_edits(value, names):
    for name in names:
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1


class TestFlagVector:
    def test_equality_and_hash(self):
        a, b = FlagVector(2, (1, 4, 4, 8)), FlagVector(2, (1, 4, 4, 8))
        assert a == b and a is not b and hash(a) == hash(b)
        assert hash(a) == hash((2, (1, 4, 4, 8)))
        assert a != FlagVector(2, (1, 3, 3, 6)) and a != FlagVector(1, (1, 2))
        assert a.__eq__((2, (1, 4, 4, 8))) is NotImplemented
        assert len({a, b, FlagVector(1, (1, 2))}) == 2

    def test_immutable(self):
        fv = FlagVector(2, (1, 4, 4, 8))
        _refuses_edits(fv, ("n", "counts"))
        assert (fv.n, fv.counts) == (2, (1, 4, 4, 8))


class TestBiGradedPoly:
    def test_equality_and_hash(self):
        a, b = BiGradedPoly((1, 2, 1)), BiGradedPoly([1, 2, 1])
        assert a == b and a is not b and hash(a) == hash(b)
        assert hash(a) == hash(((1, 2, 1),))
        assert a != BiGradedPoly((1, 1)) and a != BiGradedPoly((1, 2, 2))
        assert a.__eq__((1, 2, 1)) is NotImplemented
        assert repr(a) == "BiGradedPoly([1, 2, 1])"

    def test_immutable(self):
        p = BiGradedPoly((1, 2, 1))
        _refuses_edits(p, ("coeffs",))
        assert p.coeffs == (1, 2, 1)


class TestHVector:
    def vector(self):
        return HVector(3, FINAL, {(): (1, 2, 2, 1), (1,): [1]})

    def test_equality_and_hash(self):
        a, b = self.vector(), self.vector()
        assert a == b and a is not b and hash(a) == hash(b)
        assert hash(a) == hash(
            (3, FINAL, frozenset({((), (1, 2, 2, 1)), ((1,), (1,))})))
        assert a != HVector(3, FINAL, {(): (1, 2, 2, 1)})
        assert HVector.unit(AUX) != HVector.unit(FINAL)
        assert a.__eq__(a.terms) is NotImplemented
        assert len({a, b, HVector.unit(FINAL)}) == 2

    def test_immutable(self):
        h = self.vector()
        _refuses_edits(h, ("degree", "flavor", "terms"))
        with pytest.raises(TypeError):
            h.terms[()] = (0, 0, 0, 1)
        with pytest.raises(TypeError):
            del h.terms[(1,)]
        with pytest.raises(AttributeError):
            h.terms.clear()
        assert h == self.vector() and h.render() == "(1221) + (1){1}"


class TestCachedValuesStayPut:
    """Values the caches hand out are shared: an edit must be refused, not
    carried into the next caller's answer."""

    def test_word_flag_vector(self):
        first = word_flag_vector(GeneratorWord("IC"))
        with pytest.raises(AttributeError):
            first.counts = (1, 0, 0, 0)
        assert word_flag_vector(GeneratorWord("IC")) == first
        got = word_flag_vector(GeneratorWord("CIC"))
        assert got.counts == (1, 5, 8, 16, 5, 16, 16, 32)
        assert got == build(GeneratorWord("CIC")).flag_vector()
        # the twins read the value the first call stored
        assert word_flag_vector(GeneratorWord("CII")) is got
        assert word_flag_vector(GeneratorWord("CIB")) is got

    @pytest.mark.parametrize("name", ["aux_hvector", "extended_hvector"])
    def test_engine_values(self, name):
        fn = getattr(engine, name)
        first = fn(GeneratorWord("CICIC"))
        text = first.render()
        with pytest.raises(AttributeError):
            first.terms = {}
        with pytest.raises(TypeError):
            first.terms[()] = (1,)
        assert fn(GeneratorWord("CICII")) is first
        assert fn(GeneratorWord("CICIC")).render() == text

    def test_h_by_links(self):
        first = h_by_links(build(GeneratorWord("CIC")), "direct")
        text = first.render()
        with pytest.raises(AttributeError):
            first.terms.clear()
        again = h_by_links(build(GeneratorWord("CIC")), "direct")
        assert again == first and again.render() == text != "0"

    def test_lattice_flag_vector(self):
        lat = build(GeneratorWord("CIC"))
        first = lat.flag_vector()
        with pytest.raises(AttributeError):
            first.n = 5
        assert lat.flag_vector().n == 3
        assert lat.flag_vector() == word_flag_vector(GeneratorWord("CIC"))

    def test_lattice_fields(self):
        # the lattice caches its chain pass, so its faces and dimension
        # are fixed once built
        lat = build(GeneratorWord("CIC"))
        flags, classes = lat.flag_vector(), lat.link_classes()
        for name, value in (("faces", {frozenset(): -1}), ("n", 5),
                            ("_pass", None)):
            with pytest.raises(AttributeError):
                setattr(lat, name, value)
            with pytest.raises(AttributeError):
                delattr(lat, name)
        assert lat.n == 3 and len(lat.faces) == 20
        assert lat.flag_vector() == flags and lat.link_classes() == classes


class TestCheckResult:
    def test_equality_repr_and_default(self):
        r = CheckResult("table", True)
        assert r == CheckResult(name="table", passed=True, detail="")
        assert r != CheckResult("table", False)
        assert r != ("table", True, "")
        assert repr(r) == "CheckResult(name='table', passed=True, detail='')"

    def test_hashable_and_immutable(self):
        r = CheckResult("table", 0, "got (11)")
        assert r.passed is False and hash(r) == hash(("table", False, "got (11)"))
        assert len({r, CheckResult("table", False, "got (11)")}) == 1
        _refuses_edits(r, ("name", "passed", "detail"))
        assert r.line() == "FAIL  table  [got (11)]"
