"""The command line's argument lists, and terms with numbers past the digit
limit of ``int()``."""

import contextlib
import io
import sys

import pytest

from hvcalc.cli import main
from hvcalc.terms import IndexTerm

TEXT_JSON_CSV = "[--format {text,json,csv}]"
TEXT_JSON = "[--format {text,json}]"
OUT = "[--out OUT]"
SUITES = ("{all,fibonacci,gds-rank,ic-equation,link-agreement,oracle,"
          "palindromy,strata,tables,unimodality}")

# what each usage line lists after the command's name, in order
USAGES = {
    (): ["[-h]", "{hvec,aux,flagvec,lattice,basis,express,links,pseudo,"
                 "terms,order,verify}", "..."],
    ("hvec",): ["[-h]", TEXT_JSON_CSV, OUT, "word"],
    ("aux",): ["[-h]", TEXT_JSON_CSV, OUT, "word"],
    ("flagvec",): ["[-h]", TEXT_JSON_CSV, OUT, "word"],
    ("lattice",): ["[-h]", OUT, "word"],
    ("basis",): ["[-h]", TEXT_JSON, OUT, "n"],
    ("express",): ["[-h]", "[--coeff COEFF]", TEXT_JSON_CSV, OUT, "word"],
    ("links",): ["[-h]", "[--rule {conjugation,direct}]", TEXT_JSON_CSV, OUT,
                 "word"],
    ("pseudo",): ["[-h]", TEXT_JSON, OUT, "word"],
    ("terms",): ["[-h]", TEXT_JSON, OUT, "n"],
    ("order",): ["[-h]", OUT, "term1", "term2"],
    ("verify",): ["[-h]", "[--max-dim MAX_DIM]", OUT, SUITES],
}


def usage(argv):
    """The usage line of ``main([*argv, "-h"])``, on one line."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as e:
        main([*argv, "-h"])
    assert e.value.code == 0
    text = out.getvalue()
    return " ".join(text[:text.index("\n\n")].split())


@pytest.mark.parametrize("argv, parts", USAGES.items())
def test_usage_lists_the_arguments_in_order(argv, parts):
    # help layouts differ between Python versions in where they wrap, so
    # only the usage is compared, with its whitespace collapsed
    assert usage(argv) == " ".join(["usage: hvcalc", *argv, *parts])


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="int() has no digit limit")
@pytest.mark.parametrize("text", [
    "x" + "9" * 5000, "X^" + "9" * 5000, "{" + "9" * 5000 + "}"],
    ids=["exponent", "aux-exponent", "local-symbol"])
class TestLongNumbers:
    def test_parse_refuses_with_value_error(self, text):
        with pytest.raises(ValueError, match="digits"):
            IndexTerm.parse(text)

    def test_order_exits_2_with_one_line(self, capsys, text):
        assert main(["order", text, "x"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith("error: ")
