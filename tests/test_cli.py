"""Command-line surface: parsing, outputs, exit codes, determinism."""

import contextlib
import io
import json
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import hvcalc
from hvcalc.cli import main
from hvcalc.symbols import AUX, FINAL, PAD, PAD_AUX
from hvcalc.terms import IndexTerm, enumerate_terms
from hvcalc.words import GeneratorWord, WordParseError, ic_basis, words_up_to


def lower_palindromy_cap(monkeypatch):
    """Cap the palindromy row of the suite table at its default of 8."""
    from hvcalc import checks
    check_fns, _ = checks.SUITES["palindromy"]
    monkeypatch.setitem(checks.SUITES, "palindromy",
                        (check_fns, (("dim <= {}", 8, 8),)))


def record_runs(monkeypatch, suite):
    """Swap the checks of ``suite`` for one that records the bound values
    it is called with and checks nothing; returns the record."""
    from hvcalc import checks
    ran = []
    monkeypatch.setitem(checks.SUITES, suite, (
        (lambda *values: ran.append(values) or [],), checks.SUITES[suite][1]))
    return ran


class TestParseWord:
    def test_examples(self):
        assert GeneratorWord.parse("CICIC.").ops == "CICIC"
        assert GeneratorWord.parse("BICCC·").ops == "BICCC"
        assert GeneratorWord.parse(".").ops == ""

    def test_whitespace_and_no_terminator(self):
        assert GeneratorWord.parse(" C I C ").ops == "CIC"
        assert GeneratorWord.parse("ICC").ops == "ICC"

    def test_error_column(self):
        with pytest.raises(WordParseError) as e:
            GeneratorWord.parse("CXC.")
        assert e.value.column == 2

    def test_empty_requires_terminator(self):
        with pytest.raises(WordParseError):
            GeneratorWord.parse("")

    def test_round_trip(self):
        for ops in ["", "C", "CIC", "BICCC", "ICICICICIC"]:
            w = GeneratorWord(ops)
            assert GeneratorWord.parse(w.render()) == w


class TestParseTerm:
    def test_final(self):
        t = IndexTerm.parse("xA{1}")
        assert (t.xexp, t.yexp, t.word) == (1, 0, (PAD, 1))

    def test_aux_with_exponents(self):
        t = IndexTerm.parse("X^2Y^3Abar{5}Abar^1{6}" .replace("^1", ""))
        assert t.xexp == 2 and t.yexp == 3
        assert t.word == (PAD_AUX, 5, PAD_AUX, 6)

    def test_digit_exponent_shorthand(self):
        t = IndexTerm.parse("x2y3")
        assert (t.xexp, t.yexp) == (2, 3)

    def test_mixed_flavors_rejected(self):
        with pytest.raises(ValueError):
            IndexTerm.parse("xX{1}")

    def test_constant_term(self):
        assert IndexTerm.parse("1") == IndexTerm(0, 0, (), FINAL)
        assert IndexTerm.parse(" 1 ") == IndexTerm(0, 0, (), FINAL)

    @pytest.mark.parametrize("text", ["", " ", "  \t", "\n"])
    def test_empty_term_refused(self, text):
        # not read as the constant term, which is written 1
        with pytest.raises(ValueError, match="empty term"):
            IndexTerm.parse(text)

    def test_newline_is_junk(self):
        with pytest.raises(ValueError, match="bad term syntax"):
            IndexTerm.parse("x\ny")

    @pytest.mark.parametrize("n", range(9))
    def test_every_final_term_round_trips(self, n):
        for t in enumerate_terms(n, FINAL):
            assert IndexTerm.parse(t.render()) == t, t.render()
        # and the aux terms through degree 6: one written without X, Y or
        # a pad, such as {1}, reads as the final term alike
        for t in enumerate_terms(n, AUX) if n <= 6 else ():
            text = t.render()
            if not any(c in text for c in "XYĀ"):
                t = IndexTerm(t.xexp, t.yexp, t.word, FINAL)
            assert IndexTerm.parse(text) == t, text


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_captured(argv):
    """``main(argv)`` with its streams captured; an argparse exit is its
    exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as e:
            rc = e.code
    return rc, out.getvalue(), err.getvalue()


# short texts of term tokens and junk, a dash among them for option lookalikes
TERM_TEXTS = st.lists(st.sampled_from(
    ["x", "y", "X", "Y", "A", "Abar", "Ā", "{", "}", "^", "0", "1", "2",
     "{1}", "{2}", " ", "\t", "\n", "-", "q"]), max_size=6).map("".join)


class TestTermFuzz:
    @given(TERM_TEXTS)
    @settings(max_examples=300, deadline=None)
    def test_parse_term_returns_a_term_or_refuses(self, text):
        try:
            t = IndexTerm.parse(text)
        except ValueError:
            return
        assert isinstance(t, IndexTerm)

    @given(TERM_TEXTS, TERM_TEXTS)
    @settings(max_examples=150, deadline=None)
    def test_order_exits_0_or_2(self, a, b):
        rc, out, err = run_captured(["order", a, b])
        assert rc in (0, 2) and "Traceback" not in err
        if rc == 2:
            assert len(err.splitlines()) == 1 and out == ""

    @given(TERM_TEXTS)
    @settings(max_examples=100, deadline=None)
    def test_express_coeff_exits_0_or_2(self, t):
        rc, out, err = run_captured(["express", "CIC.", "--coeff", t])
        assert rc in (0, 2) and "Traceback" not in err
        if rc == 2:
            assert len(err.splitlines()) == 1 and out == ""


class TestCommands:
    def test_hvec_engine(self, capsys):
        rc, out, _ = run(capsys, "hvec", "CICIC.")
        assert rc == 0
        assert out.splitlines()[0] == (
            "(134431) + (111){1} + (11)A{1} + (2)AA{1} + (1){2}   [engine]")

    def test_hvec_bipyramid_goes_linear(self, capsys):
        rc, out, _ = run(capsys, "hvec", "BIC.")
        assert rc == 0 and "[linear extension]" in out

    def test_hvec_json(self, capsys):
        rc, out, _ = run(capsys, "hvec", "CCIC.", "--format", "json")
        data = json.loads(out)
        assert data["degree"] == 4 and data["flavor"] == "final"
        assert {"word": [], "poly": [1, 2, 2, 2, 1]} in data["terms"]

    def test_aux(self, capsys):
        rc, out, _ = run(capsys, "aux", "CCIC.")
        assert rc == 0 and out.strip() == "[12221] + [11]{1}"

    def test_aux_rejects_bipyramid(self, capsys):
        # an innermost B is refused too, and the word is named as given
        for word, given in (("BIC.", "BIC."), ("CB.", "CB."),
                            ("ICC B", "ICCB.")):
            rc, out, err = run(capsys, "aux", word)
            assert rc == 2 and out == ""
            assert err == (f"error: word {given} contains the bipyramid "
                           "operator; use the linear extension over flag "
                           "vectors instead\n")

    def test_hvec_of_a_bipyramid_twin_goes_linear(self, capsys):
        # CB. names the polytope CC. names, by another route
        rc, linear, _ = run(capsys, "hvec", "CB.", "--format", "json")
        assert rc == 0
        assert run(capsys, "hvec", "CC.", "--format", "json") == (
            0, linear, "")
        rc, out, _ = run(capsys, "hvec", "CB.")
        assert out == "(111)   [linear extension]\n"

    def test_flagvec(self, capsys):
        rc, out, _ = run(capsys, "flagvec", "IC.")
        assert rc == 0
        assert "f{0} = 4" in out and "f{0,1} = 8" in out

    def test_flagvec_csv(self, capsys):
        rc, out, _ = run(capsys, "flagvec", "C.", "--format", "csv")
        assert out == "set,count\n,1\n0,2\n"

    def test_lattice_round_trip(self, capsys, tmp_path):
        rc, out, _ = run(capsys, "lattice", "CIC.")
        assert rc == 0
        path = tmp_path / "square_pyramid.json"
        path.write_text(out)
        rc, out2, _ = run(capsys, "flagvec", str(path))
        assert rc == 0 and "f{0} = 5" in out2

    def test_lattice_file_validated(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 0, "faces": [
            {"verts": [0], "dim": 0}]}))
        rc, _, err = run(capsys, "flagvec", str(path))
        assert rc == 2 and "empty face" in err

    def test_lattice_file_schema(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 0, "faces": [
            {"verts": [], "dim": -1}, {"verts": 5, "dim": 0}]}))
        rc, _, err = run(capsys, "flagvec", str(path))
        assert rc == 2 and "Traceback" not in err
        assert err.count("\n") == 1 and "faces[1]" in err

    def test_lattice_file_skipping_a_dimension(self, capsys, tmp_path):
        # vertex {3} lies directly under the 2-face {0,1,3}: validate accepts
        # the family, but its chains through covers miss a comparable pair
        faces = [[], [0], [1], [2], [3], [0, 1], [1, 2], [0, 2], [0, 1, 2],
                 [0, 1, 3], [0, 1, 2, 3]]
        path = tmp_path / "non_graded.json"
        path.write_text(json.dumps({"n": 3, "faces": [
            {"verts": f, "dim": len(f) - 1} for f in faces]}))
        rc, out, err = run(capsys, "flagvec", str(path))
        assert rc == 2 and out == "" and "Traceback" not in err
        assert err.count("\n") == 1 and err.startswith("error:")
        assert "no face of dimension 1" in err

    def test_basis(self, capsys):
        rc, out, _ = run(capsys, "basis", "3")
        assert rc == 0 and out.split() == ["CCC.", "CIC.", "ICC."]

    def test_express(self, capsys):
        rc, out, _ = run(capsys, "express", "BIC.")
        assert rc == 0
        assert out.split("\n")[:3] == ["CCC.: -3", "CIC.: 6", "ICC.: -2"]

    def test_express_coeff(self, capsys):
        rc, out, _ = run(capsys, "express", "BICCC.", "--coeff", "xA{1}")
        assert rc == 0 and out.strip() == "-2"

    @pytest.mark.parametrize("argv", [
        ("express", "BIC.", "--coeff", "{0}"),
        ("order", "{0}", "x"),
    ])
    def test_zero_local_symbol_rejected(self, capsys, argv):
        rc, out, err = run(capsys, *argv)
        assert rc == 2 and out == ""
        assert err == "error: bad symbol 0\n"

    @pytest.mark.parametrize("argv", [
        ("order", "", "x"),
        ("order", "x", "  "),
        ("express", "C.", "--coeff", ""),
    ])
    def test_empty_term_exits_2(self, capsys, argv):
        rc, out, err = run(capsys, *argv)
        assert rc == 2 and out == ""
        assert err == "error: empty term: write the constant term as 1\n"

    @pytest.mark.parametrize("coeff, says", [
        ("XAbar{1}", "aux term"),
        ("{5}", "has degree 11, but the polytope has dimension 3"),
    ])
    def test_express_coeff_refuses_unreadable_terms(self, capsys, coeff, says):
        rc, out, err = run(capsys, "express", "BIC.", "--coeff", coeff)
        assert rc == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error:")
        assert says in err

    def test_express_csv(self, capsys):
        rc, out, _ = run(capsys, "express", "BIC.", "--format", "csv")
        assert rc == 0
        assert out.splitlines() == ["word,coeff", "CCC.,-3", "CIC.,6", "ICC.,-2"]

    def test_links_rules(self, capsys):
        rc, out, _ = run(capsys, "links", "CIC.")
        assert rc == 0 and out.splitlines()[0] == "(1221) + (1){1}"
        rc, out2, _ = run(capsys, "links", "CIC.", "--rule", "direct")
        assert rc == 0  # direct diverges only from dimension four upwards
        rc, out, _ = run(capsys, "links", "CCIC.")
        assert rc == 0 and out == "(12221) + (11){1} + (1)A{1}\n"
        rc, engine_out, _ = run(capsys, "hvec", "CCIC.")
        assert engine_out == out.rstrip("\n") + "   [engine]\n"
        rc, out, _ = run(capsys, "links", "CCIC.", "--rule", "direct")
        assert rc == 0 and out == "(12221) + (11){1}\n"

    def test_pseudo(self, capsys):
        rc, out, _ = run(capsys, "pseudo", "BIC.")
        assert rc == 0 and out.startswith("(1,-1,5,1)")

    def test_terms(self, capsys):
        rc, out, _ = run(capsys, "terms", "3")
        assert rc == 0 and out.split() == ["x^3", "x^2y", "xy^2", "y^3", "{1}"]

    def test_terms_negative_degree(self, capsys):
        rc, out, err = run(capsys, "terms", "-2")
        assert rc == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error:")

    @pytest.mark.parametrize("cmd, largest, noun", [
        ("terms", 28, "terms"), ("basis", 29, "words")])
    def test_listing_bound(self, capsys, monkeypatch, cmd, largest, noun):
        # the listings stubbed out: the bound alone decides, before listing
        from hvcalc import terms
        listed = []
        monkeypatch.setattr(terms, "enumerate_terms", listed.append)
        monkeypatch.setattr("hvcalc.cli.ic_basis", listed.append)
        monkeypatch.setattr("hvcalc.cli._listing", lambda items, fmt: "-")
        assert run(capsys, cmd, str(largest)) == (0, "-\n", "")
        assert listed == [largest]
        for n in (largest + 1, 10 ** 20, 10 ** 4000):
            start = time.perf_counter()
            rc, out, err = run(capsys, cmd, str(n))
            assert time.perf_counter() - start < 1, n
            assert (rc, out) == (2, "") and err == (
                f"error: {cmd} {n} would list more than 1000000 {noun}, "
                "the bound of a listing\n")
        assert listed == [largest]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("cmd, n, items", [
        ("basis", 9, ic_basis(9)), ("terms", 8, enumerate_terms(8))])
    def test_listing_text(self, capsys, tmp_path, fmt, cmd, n, items):
        # the text of the whole list, on stdout and under --out alike
        rendered = [x.render() for x in items]
        want = (json.dumps(rendered) if fmt == "json"
                else "\n".join(rendered)) + "\n"
        assert run(capsys, cmd, str(n), "--format", fmt) == (0, want, "")
        path = tmp_path / "o.txt"
        assert run(capsys, cmd, str(n), "--format", fmt, "--out",
                   str(path)) == (0, "", "")
        assert path.read_text() == want

    @pytest.mark.parametrize("fmt, pieces", [
        ("text", ["", "0", "\n1", "\n2", "", "\n"]),
        ("json", ["[", '"0"', ', "1"', ', "2"', "]", "\n"])])
    def test_listing_writes_each_item_as_it_is_rendered(
            self, monkeypatch, fmt, pieces):
        from hvcalc import cli
        log = []

        class Item:
            def __init__(self, i):
                self.i = i

            def render(self):
                log.append(self.i)
                return str(self.i)

        class Stdout(io.StringIO):
            def write(self, piece):
                log.append(piece)

        monkeypatch.setattr(sys, "stdout", Stdout())
        cli._emit(cli._listing(map(Item, range(3)), fmt), None)
        assert log == [pieces[0], 0, pieces[1], 1, pieces[2], 2, *pieces[3:]]

    @pytest.mark.parametrize("argv", [
        ("verify", "all", "--max-dim", "0"),
        ("verify", "gds-rank", "--max-dim", "-1"),
        ("basis", "-1"),
    ])
    def test_out_of_range_dimension(self, capsys, argv):
        rc, out, err = run(capsys, *argv)
        assert rc == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error:")

    def test_max_dim_one_is_accepted(self, capsys):
        rc, out, _ = run(capsys, "verify", "palindromy", "--max-dim", "1")
        assert rc == 0 and out.splitlines()[-1] == "1/1 checks passed"

    @pytest.mark.parametrize("argv,note", [
        (("palindromy", "--max-dim", "12"), "palindromy ran dim <= 8"),
        (("link-agreement", "--max-dim", "1"),
         "link-agreement ignores it"),
        (("gds-rank", "--max-dim", "7"), "gds-rank ran dim <= 7 ({I,C} words) "
         "and dim <= 6 (words with B)"),
        (("tables", "--max-dim", "4"), "tables ignores it"),
    ])
    def test_max_dim_note(self, capsys, monkeypatch, argv, note):
        # a lowered palindromy cap keeps the dim-12 run at dim 8
        lower_palindromy_cap(monkeypatch)
        rc, out, err = run(capsys, "verify", *argv)
        assert rc == 0 and out.splitlines()[-1].endswith("checks passed")
        assert err.count("\n") == 1
        assert err.startswith(f"note: --max-dim {argv[-1]}: ") and note in err

    @pytest.mark.parametrize("argv", [
        ("palindromy", "--max-dim", "5"),
        ("palindromy", "--max-dim", "8"),
        ("unimodality", "--max-dim", "3"),
        ("fibonacci", "--max-dim", "7"),
        ("tables",),
    ])
    def test_no_note_when_the_bound_is_followed(self, capsys, argv):
        rc, _, err = run(capsys, "verify", *argv)
        assert rc == 0 and err == ""

    def test_note_leaves_stdout_alone(self, capsys, monkeypatch):
        from hvcalc import checks
        lower_palindromy_cap(monkeypatch)
        rc, out, err = run(capsys, "verify", "palindromy", "--max-dim", "12")
        want = [r.line() for r in checks.run_suite("palindromy", 8)]
        assert out.splitlines()[:-1] == want
        rc2, out2, err2 = run(capsys, "verify", "palindromy", "--max-dim", "8")
        assert (rc, out) == (rc2, out2) and err and not err2

    def test_note_names_every_suite_of_all(self):
        from hvcalc import checks
        note = checks.max_dim_note("all", 17)
        for suite in ("tables", "ic-equation", "palindromy", "fibonacci",
                      "gds-rank", "oracle", "link-agreement", "unimodality",
                      "strata"):
            assert suite in note
        assert "\n" not in note
        assert checks.max_dim_note("all", None) is None

    @pytest.mark.parametrize("suite,label", [
        ("palindromy", "auxiliary vectors are palindromic"),
        ("unimodality", "mpih parts are unimodal up to halfway"),
    ])
    def test_explicit_bound_runs_past_the_default(self, capsys, suite, label):
        rc, out, err = run(capsys, "verify", suite, "--max-dim", "10")
        assert rc == 0 and err == ""
        assert out.splitlines() == [f"pass  {label}, dim <= 10",
                                    "1/1 checks passed"]
        rc, out, err = run(capsys, "verify", suite)
        assert rc == 0 and err == "" and f"{label}, dim <= 8" in out

    def test_engine_suites_cap_at_sixteen(self, monkeypatch):
        from hvcalc import checks
        for suite in ("palindromy", "unimodality"):
            ran = record_runs(monkeypatch, suite)
            for max_dim in (None, 12, 40):
                checks.run_suite(suite, max_dim)
            assert ran == [(8,), (12,), (16,)]
            assert checks.max_dim_note(suite, 16) is None
            assert (checks.max_dim_note(suite, 17)
                    == f"--max-dim 17: {suite} ran dim <= 16")

    def test_oracle_labels_the_bounds_that_ran(self, capsys):
        rc, out, _ = run(capsys, "verify", "oracle", "--max-dim", "3")
        assert rc == 0
        assert "intersection closure on all lattices, dim <= 3" in out
        assert "cone transform matches the lattice pyramid, base dim <= 3" in out

    def test_order(self, capsys):
        rc, out, _ = run(capsys, "order", "X{1}{1}", "Abar{1}{1}")
        assert rc == 0 and "=>" in out

    def test_order_of_the_constant_term(self, capsys):
        assert run(capsys, "order", "1", "1") == (
            0, "1 = 1 (same strata)\n", "")

    def test_express_coeff_of_the_constant_term(self, capsys):
        assert run(capsys, "express", ".", "--coeff", "1") == (0, "1\n", "")

    def test_order_incomparable(self, capsys):
        rc, out, _ = run(capsys, "order", "{1}{2}", "{2}{1}")
        assert rc == 0 and "not broadly similar" in out

    def test_order_second_implies_first(self, capsys):
        assert run(capsys, "order", "xA{1}", "x^2{1}") == (
            0, "x^2{1} => xA{1}\n", "")

    def test_order_broadly_similar_but_incomparable(self, capsys):
        assert run(capsys, "order", "x{1}A{1}", "AA{1}{1}") == (
            0, "x{1}A{1} and AA{1}{1} are broadly similar but incomparable\n",
            "")

    def test_fraction_coefficients_print_as_p_over_q(self):
        from hvcalc.flaglin import linear_h
        from hvcalc.lattice import build
        fv = build(GeneratorWord.parse("BIC")).flag_vector()
        h = linear_h(fv.scale(Fraction(1, 3)))
        assert h.render() == "(1/3,5/3,5/3,1/3) + (2){1}"
        assert json.dumps(h.to_json()) == (
            '{"degree": 3, "flavor": "final", "terms": '
            '[{"word": [], "poly": ["1/3", "5/3", "5/3", "1/3"]}, '
            '{"word": [{"local": 1}], "poly": [2]}]}')
        assert h.to_csv() == "word,poly\n,1/3 5/3 5/3 1/3\n{1},2\n"

    def test_verify_tables(self, capsys):
        rc, out, _ = run(capsys, "verify", "tables")
        assert rc == 0
        assert all(line.startswith("pass") for line in out.splitlines()[:-1])
        assert out.splitlines()[-1].endswith("checks passed")

    def test_parse_error_exit_code(self, capsys):
        rc, _, err = run(capsys, "hvec", "CXC.")
        assert rc == 2 and "column 2" in err

    @pytest.mark.parametrize("argv", [
        ["lattice", "CIC.", "--format", "csv"],
        ["lattice", "CIC.", "--format", "json"],
        ["order", "X{1}", "Y{1}", "--format", "text"],
        ["verify", "tables", "--format", "json"],
        ["basis", "3", "--format", "csv"],
        ["terms", "3", "--format", "csv"],
        ["pseudo", "BIC.", "--format", "csv"],
    ])
    def test_format_only_where_it_is_written(self, capsys, argv):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "--format" in err

    @pytest.mark.parametrize("argv", [
        ["lattice", "CIC.", "--format", "csv"],
        ["links", "CIC.", "--rule", "bogus"],
        ["verify", "nosuch"],
        ["basis", "x"],
        ["hvec"],
        [],
        ["hvec", "CIC.", "two\nlines"],
    ])
    def test_argparse_refusals_are_one_line(self, capsys, argv):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]])
    def test_help_keeps_its_usage(self, capsys, argv):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: hvcalc") and len(out.splitlines()) > 3
        assert err == ""

    @pytest.mark.parametrize("argv", [["lattice", "IC."], ["order", "X{1}", "Y{1}"],
                                      ["verify", "tables"]])
    def test_out_without_format(self, capsys, tmp_path, argv):
        path = tmp_path / "o.txt"
        rc, out, _ = run(capsys, *argv, "--out", str(path))
        assert rc == 0 and out == "" and path.read_text()

    @pytest.mark.parametrize("stderr", [subprocess.PIPE, subprocess.STDOUT])
    def test_closed_stdout_exits_141_quietly(self, stderr):
        # 121 393 lines, far more than a pipe holds, so the write that
        # follows the close always fails
        src = str(Path(hvcalc.__file__).resolve().parents[1])
        with subprocess.Popen(
                [sys.executable, "-m", "hvcalc.cli", "basis", "25"],
                stdout=subprocess.PIPE, stderr=stderr,
                env={"PYTHONPATH": src, "PATH": ""}) as p:
            first = p.stdout.readline()
            p.stdout.close()
            err = p.stderr.read() if p.stderr else b""
            rc = p.wait(timeout=60)
        assert first == b"CCCCCCCCCCCCCCCCCCCCCCCCC.\n"
        assert rc == 141 and err == b""

    def test_determinism(self, capsys):
        a = run(capsys, "hvec", "ICCIC.", "--format", "json")
        b = run(capsys, "hvec", "ICCIC.", "--format", "json")
        assert a == b

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "h.txt"
        rc, out, _ = run(capsys, "hvec", "IC.", "--out", str(path))
        assert rc == 0 and out == ""
        assert path.read_text().startswith("(121)")

    def test_unwritable_out_file(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x"
        rc, out, err = run(capsys, "basis", "3", "--out", str(path))
        assert rc == 2 and out == ""
        assert err.startswith("error: cannot write output")
        assert len(err.splitlines()) == 1

    def test_verify_strata(self, capsys):
        from hvcalc import checks
        want = [r.line() for r in checks.check_strata(9)]
        assert len(want) == 6
        rc, out, err = run(capsys, "verify", "strata")
        assert rc == 0 and err == ""
        assert out.splitlines() == want + ["6/6 checks passed"]
        rc, out, _ = run(capsys, "verify", "all", "--max-dim", "3")
        assert rc == 0
        lines = out.splitlines()
        assert lines[-len(want) - 1:-1] == want

    def test_failing_family_check_names_its_counterexample(
            self, capsys, monkeypatch):
        from hvcalc import engine
        from hvcalc.symbols import AUX, HVector
        real = engine.aux_hvector

        def lopsided(w):
            if w == GeneratorWord("ICC"):
                return HVector(3, AUX, {(): (1, 2, 2, 2)})
            return real(w)

        monkeypatch.setattr(engine, "aux_hvector", lopsided)
        rc, out, err = run(capsys, "verify", "palindromy", "--max-dim", "3")
        line = ("FAIL  auxiliary vectors are palindromic, dim <= 3  "
                "[counterexample ICC.]")
        assert rc == 1
        assert out.splitlines() == [line, "0/1 checks passed"]
        assert err == ("first failure: auxiliary vectors are palindromic, "
                       "dim <= 3 [counterexample ICC.]\n")

    def test_failing_oracle_names_its_counterexample(self, capsys, monkeypatch):
        from hvcalc.lattice import FaceLattice, build
        prism = build(GeneratorWord("ICC")).faces
        real = FaceLattice.euler_ok
        monkeypatch.setattr(FaceLattice, "euler_ok",
                            lambda lat: lat.faces != prism and real(lat))
        rc, out, err = run(capsys, "verify", "oracle", "--max-dim", "3")
        line = ("FAIL  Euler relation on all lattices, dim <= 3  "
                "[counterexample ICC.]")
        assert rc == 1
        assert out.splitlines()[0] == line
        assert all(x.startswith("pass") for x in out.splitlines()[1:-1])
        assert out.splitlines()[-1] == "4/5 checks passed"
        assert "first failure: Euler relation" in err
        assert "[counterexample ICC.]" in err

    def test_oracle_builds_each_lattice_once(self, monkeypatch):
        from hvcalc import checks
        from hvcalc.lattice import build
        built = []
        monkeypatch.setattr(checks, "build",
                            lambda w: built.append(w) or build(w))
        results = checks.check_oracles(max_dim=4, cone_base_dim=3)
        assert [r.passed for r in results] == [True] * 5
        assert built == list(words_up_to(4, "ICB"))

    def test_triple_agreement_builds_each_lattice_once(self, monkeypatch):
        # the direct reading reads the lattices the agreement check built
        from hvcalc import checks, flaglin
        from hvcalc.lattice import build
        built = []
        monkeypatch.setattr(checks, "build",
                            lambda w: built.append(w) or build(w))
        results = checks.check_triple_agreement(max_dim=4, basis_dim=5)
        assert [r.passed for r in results] == [True] * 2
        assert built == [*words_up_to(4, "IC"), *flaglin.ic_basis(5)]

    def test_main_builds_its_parser_once(self, capsys):
        from hvcalc import cli
        for argv in (["basis", "3"], ["hvec", "Q."], ["order", "x", "y"]):
            run(capsys, *argv)
        assert cli._parser.cache_info().misses == 1
        assert cli._parser() is cli._parser()
        assert cli.make_parser() is not cli.make_parser()

    def test_unexpected_error_is_one_line(self, capsys, monkeypatch):
        from hvcalc import cli

        def broken(args):
            raise RuntimeError("internal\nstate lost")

        monkeypatch.setattr(cli, "cmd_hvec", broken)
        rc, out, err = run(capsys, "hvec", "IC.")
        assert rc == 2 and out == ""
        assert err == "error: RuntimeError: internal state lost\n"
        assert "Traceback" not in err

    def test_memory_error_names_the_input_as_too_large(self, capsys, monkeypatch):
        from hvcalc import cli

        def exhausted(args):
            raise MemoryError()  # as raised, with no message

        monkeypatch.setattr(cli, "cmd_links", exhausted)
        rc, out, err = run(capsys, "links", "IC.")
        assert rc == 2 and out == ""
        assert err == "error: the input is too large: memory ran out\n"
        assert "Traceback" not in err

    def test_verify_failure_exit_code(self, capsys, monkeypatch):
        from hvcalc import checks as checks_mod
        monkeypatch.setitem(checks_mod.SUITES, "doomed", ((lambda: [
            checks_mod.CheckResult("always wrong", False, "by design")],),
            ()))
        rc = main(["verify", "doomed"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "FAIL" in captured.out and "first failure" in captured.err


class TestSuiteTable:
    @pytest.mark.parametrize("max_dim", [0, -3, True, 1.5])
    def test_bad_max_dim_refused(self, max_dim):
        from hvcalc import checks
        with pytest.raises(ValueError, match="max_dim must be an int >= 1"):
            checks.run_suite("palindromy", max_dim)
        with pytest.raises(ValueError, match="max_dim must be an int >= 1"):
            checks.max_dim_note("palindromy", max_dim)

    def test_every_row_has_bound_triples(self):
        from hvcalc import checks
        for suite, (suite_checks, bounds) in checks.SUITES.items():
            assert suite_checks and all(map(callable, suite_checks)), suite
            assert type(bounds) is tuple, suite
            for label, default, cap in bounds:
                assert isinstance(label, str) and type(cap) is int, suite
                assert default is None or type(default) is int, suite

    @pytest.mark.parametrize("suite", [
        "tables", "ic-equation", "link-agreement", "strata"])
    def test_suites_without_bounds_ignore_max_dim(self, suite):
        from hvcalc import checks
        assert checks.SUITES[suite][1] == ()
        assert (checks.max_dim_note(suite, 3)
                == f"--max-dim 3: {suite} ignores it")

    def test_fibonacci_is_capped(self, monkeypatch):
        from hvcalc import checks
        ran = record_runs(monkeypatch, "fibonacci")
        assert checks.run_suite("fibonacci", 40) == []
        assert checks.run_suite("fibonacci") == []
        assert ran == [(16, 7), (12, 7)]
        assert checks.max_dim_note("fibonacci", 40) == (
            "--max-dim 40: fibonacci ran n <= 16 (terms and words) "
            "and dim <= 7 (basis words)")
        assert checks.max_dim_note("fibonacci", 7) is None

    def test_oracle_cone_bound_is_in_the_table(self, monkeypatch):
        from hvcalc import checks
        ran = record_runs(monkeypatch, "oracle")
        for max_dim in (None, 3, 5, 6, 9):
            checks.run_suite("oracle", max_dim)
        assert ran == [(6, 5), (3, 3), (5, 5), (6, 5), (6, 5)]
        for max_dim in range(1, 6):
            assert checks.max_dim_note("oracle", max_dim) is None
        assert checks.max_dim_note("oracle", 6) == (
            "--max-dim 6: oracle ran dim <= 6 and base dim <= 5 "
            "(cone transform)")

    def test_fibonacci_cli_past_the_cap(self, capsys, monkeypatch):
        ran = record_runs(monkeypatch, "fibonacci")
        rc, out, err = run(capsys, "verify", "fibonacci", "--max-dim", "40")
        assert rc == 0 and out == "0/0 checks passed\n" and ran == [(16, 7)]
        assert err.count("\n") == 1 and "fibonacci ran n <= 16" in err

    def test_a_new_row_needs_no_other_edit(self, capsys, monkeypatch):
        from hvcalc import checks
        ran = []
        ok = checks.CheckResult("ok", True)
        monkeypatch.setitem(checks.SUITES, "fake", (
            (lambda d, e: ran.append((d, e)) or [ok],),
            (("dim <= {}", 3, 5), ("degree <= {}", None, 4))))
        for max_dim in (None, 1, 4, 5, 9):
            assert checks.run_suite("fake", max_dim) == [ok]
        assert ran == [(3, 4), (1, 4), (4, 4), (5, 4), (5, 4)]
        assert checks.max_dim_note("fake", 4) is None
        assert checks.max_dim_note("fake", 1) == (
            "--max-dim 1: fake ran dim <= 1 and degree <= 4")
        assert checks.max_dim_note("fake", 9) == (
            "--max-dim 9: fake ran dim <= 5 and degree <= 4")
        assert checks.max_dim_note("all", 9).endswith(
            "; fake ran dim <= 5 and degree <= 4")
        rc, out, err = run(capsys, "verify", "fake", "--max-dim", "9")
        assert rc == 0 and out == "pass  ok\n1/1 checks passed\n"
        assert err == "note: --max-dim 9: fake ran dim <= 5 and degree <= 4\n"

    def test_unknown_suite(self):
        from hvcalc import checks
        with pytest.raises(KeyError):
            checks.run_suite("bogus")


# -- polytope sources: a word or a lattice file, through one loader -----------

READERS = ("hvec", "pseudo", "links", "lattice", "flagvec", "express")
# each command that prints a value of a polytope, with the options of each
# format it writes; links under both rules
VALUE_RUNS = [
    *[(cmd, "--format", fmt) for cmd, fmts in (
        ("hvec", "text json csv"), ("pseudo", "text json"),
        ("flagvec", "text json csv"), ("express", "text json csv"))
      for fmt in fmts.split()],
    *[("links", "--rule", rule, "--format", fmt)
      for rule in ("conjugation", "direct") for fmt in ("text", "json", "csv")],
]


def relabelled(doc, rng):
    """A lattice document with new vertex ids and its faces shuffled."""
    ids = sorted({v for face in doc["faces"] for v in face["verts"]})
    new = dict(zip(ids, rng.sample(range(100, 100 + 3 * len(ids)), len(ids))))
    faces = [{"dim": face["dim"], "verts": [new[v] for v in face["verts"]]}
             for face in doc["faces"]]
    rng.shuffle(faces)
    return {"faces": faces, "n": doc["n"]}


class TestPolytopeSources:
    """Every command that reads a polytope takes a generator word or a
    lattice file, and a file gives the value its word gives."""

    def test_files_give_the_words_values(self, tmp_path):
        rng = random.Random(37)
        plain, shuffled = tmp_path / "plain.json", tmp_path / "shuffled.json"
        for w in words_up_to(4, "ICB"):
            word = w.render()
            rc, doc, err = run_captured(["lattice", word])
            assert rc == 0 and err == ""
            plain.write_text(doc)
            shuffled.write_text(json.dumps(relabelled(json.loads(doc), rng)))
            assert run_captured(["lattice", str(plain)]) == (0, doc, ""), word
            for cmd, *options in VALUE_RUNS:
                rc, want, err = run_captured([cmd, word, *options])
                assert rc == 0 and err == "", (word, cmd)
                # a file has no word for the engine to read
                want = want.replace("   [engine]\n", "   [linear extension]\n")
                for path in (plain, shuffled):
                    got = run_captured([cmd, str(path), *options])
                    assert got == (0, want, ""), (word, path.name, options)

    @pytest.mark.parametrize("cmd", READERS)
    def test_refusals_are_one_line(self, capsys, tmp_path, cmd):
        invalid, schema = tmp_path / "invalid.json", tmp_path / "schema.json"
        invalid.write_text('{"n": 1, "faces": [')
        schema.write_text(json.dumps({"n": 0, "faces": [
            {"verts": [], "dim": -1}, {"verts": 5, "dim": 0}]}))
        for arg, says in [
                ("CXC.", "unknown character 'X' at column 2; not a readable "
                         "file: [Errno 2] No such file or directory"),
                (str(tmp_path), "at column 1; not a readable file: "
                                "[Errno 21] Is a directory"),
                (str(invalid), "error: Expecting value: line 1 column 20 "
                               f"(char 19) in lattice JSON file {invalid}"),
                (str(schema), "error: lattice JSON faces[1]")]:
            rc, out, err = run(capsys, cmd, arg)
            assert rc == 2 and out == "", (cmd, arg)
            assert err.count("\n") == 1 and says in err, (cmd, err)
            assert "Traceback" not in err

    def test_mutant_files_exit_0_or_2(self, tmp_path):
        from hvcalc.lattice import build
        from test_lattice import mutants
        rng = random.Random(7)
        path = tmp_path / "mutant.json"
        tally = Counter()
        for w in words_up_to(4, "ICB"):
            for _, mut in mutants(build(w), rng, 16):
                path.write_text(json.dumps(mut.to_json()))
                for cmd in READERS:
                    rc, _, err = run_captured([cmd, str(path)])
                    assert rc in (0, 2) and err.count("\n") == rc // 2, (
                        w, cmd, err)
                    assert "Traceback" not in err
                    tally[cmd] += rc == 0
        # 147 of the 1593 validate; 94 of those are not thin, so neither the
        # link route nor the linear extension gives them a value
        assert tally == {"hvec": 53, "pseudo": 53, "links": 53,
                         "lattice": 147, "flagvec": 147, "express": 53}

    def test_files_outside_the_span_are_refused_on_a_short_line(
            self, tmp_path):
        from hvcalc.lattice import build
        from test_lattice import mutants
        rng = random.Random(7)
        path = tmp_path / "mutant.json"
        refused = Counter()
        for w in words_up_to(4, "ICB"):
            for _, mut in mutants(build(w), rng, 16):
                try:
                    mut.validate()
                except ValueError:
                    continue
                path.write_text(json.dumps(mut.to_json()))
                for cmd in ("hvec", "pseudo", "express"):
                    rc, out, err = run_captured([cmd, str(path)])
                    if rc == 0:
                        continue
                    assert rc == 2 and out == "", (w, cmd)
                    assert err.count("\n") == 1 and len(err) < 200, err
                    assert err.startswith("error: vector is outside the "
                                          "basis span; residual has "), err
                    assert "Fraction(" not in err
                    refused[cmd] += 1
        assert refused == {"hvec": 94, "pseudo": 94, "express": 94}

    @pytest.mark.parametrize("family", ["LOPSIDED", "PASCH"])
    def test_links_refuses_a_file_that_is_not_thin(self, capsys, tmp_path,
                                                   family):
        import test_links
        faces = getattr(test_links, family)
        path = tmp_path / "family.json"
        path.write_text(json.dumps({"n": 2, "faces": [
            {"verts": list(f), "dim": d} for f, d in faces]}))
        rc, out, err = run(capsys, "links", str(path))
        assert rc == 2 and out == "" and err.count("\n") == 1
        assert err.startswith("error: the interval from face ")
        assert err.endswith(" is not a diamond; not a polytope lattice\n")

    def test_a_word_opens_no_file(self):
        # the loader imports json only once it has opened a file
        src = str(Path(hvcalc.__file__).resolve().parents[1])
        p = subprocess.run(
            [sys.executable, "-c",
             "import sys\nfrom hvcalc.cli import main\nrc = main(['hvec', "
             "'CIC.'])\nprint(rc, {'json', 'hvcalc.lattice'} & {*sys.modules})"],
            env={"PYTHONPATH": src, "PATH": ""}, capture_output=True,
            text=True, timeout=60)
        assert p.stdout.splitlines()[-1] == "0 set()" and p.stderr == ""
