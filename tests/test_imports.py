"""Import graph: ``import hvcalc`` loads no layer, and each command loads
only the layers it runs.  Every probe runs in a fresh interpreter."""

import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import hvcalc

SRC = str(Path(__file__).resolve().parents[1] / "src")

# the package's public names; a new one is added here on purpose
PUBLIC = [
    "AUX", "BiGradedPoly", "FINAL", "FaceLattice", "FlagVector",
    "GeneratorWord", "HVector", "IndexTerm", "NotInSpanError",
    "WordParseError", "apply_cone", "apply_cylinder", "aux_hvector",
    "broadly_similar", "build", "check_ic_equation", "classical_h_simple",
    "cone_flag_vector", "downset", "empty_polytope", "engine",
    "enumerate_terms", "express_in_basis", "extended_hvector", "fib",
    "flaglin", "g_eval", "h_by_links", "ic_basis", "implies", "lattice",
    "linear_h", "linear_pseudo_h", "links", "point", "pseudo_h", "span_rank",
    "strata_vector", "symbols", "terms", "to_extended", "word_flag_vector",
    "words",
]
SUBMODULES = ("engine", "flaglin", "lattice", "links", "symbols", "terms",
              "words")
HEAVY = {"hvcalc.checks", "hvcalc.lattice", "hvcalc.flaglin", "hvcalc.links"}


def probe(code):
    """Run ``code`` in a fresh interpreter; it leaves a JSON value in
    ``result``.  Returns that value and the hvcalc modules then loaded."""
    script = (code + "\nimport json, sys\nprint(json.dumps([result, sorted("
              "m for m in sys.modules if m.startswith('hvcalc'))]))")
    p = subprocess.run([sys.executable, "-c", script],
                       env={**os.environ, "PYTHONPATH": SRC},
                       capture_output=True, text=True, timeout=60)
    assert p.returncode == 0, p.stderr
    result, loaded = json.loads(p.stdout.splitlines()[-1])
    return result, set(loaded)


def run_command(argv):
    """Exit code of ``main(argv)`` and the hvcalc modules it loaded."""
    return probe(f"from hvcalc.cli import main\nresult = main({argv!r})")


def test_import_loads_no_layer():
    _, loaded = probe("import hvcalc\nresult = None")
    assert loaded == {"hvcalc"}


@pytest.mark.parametrize("argv", [
    ["hvec", "CIC."], ["aux", "CIC."], ["terms", "3"], ["order", "x", "y"],
])
def test_light_commands_skip_the_heavy_layers(argv):
    rc, loaded = run_command(argv)
    assert rc == 0
    assert not loaded & HEAVY


@pytest.mark.parametrize("argv, needs", [
    (["verify", "tables", "--max-dim", "2"], {"hvcalc.checks"}),
    (["hvec", "BIC."], {"hvcalc.lattice", "hvcalc.flaglin"}),
    (["links", "CI.", "--rule", "direct"], {"hvcalc.links"}),
])
def test_commands_load_their_layers(argv, needs):
    rc, loaded = run_command(argv)
    assert rc == 0 and needs <= loaded


def test_basis_loads_only_the_words():
    rc, loaded = run_command(["basis", "5"])
    assert rc == 0 and loaded == {"hvcalc", "hvcalc.cli", "hvcalc.words"}


@pytest.mark.parametrize("argv, skipped", [
    (["flagvec", "CIC."], {"hvcalc.symbols"}),
    (["lattice", "CIC."], {"hvcalc.symbols"}),
    (["express", "BIC."], {"hvcalc.engine", "hvcalc.symbols", "hvcalc.terms"}),
])
def test_commands_skip_the_layers_they_do_not_run(argv, skipped):
    rc, loaded = run_command(argv)
    assert rc == 0 and not loaded & skipped


@pytest.mark.parametrize("argv, out", [
    (["express", "BICCC.", "--coeff", "xA{1}"], "-2\n"),
    (["express", "BIC.", "--format", "json"],
     '[{"word": "CCC.", "coeff": -3}, {"word": "CIC.", "coeff": 6}, '
     '{"word": "ICC.", "coeff": -2}]\n'),
])
def test_express_loads_terms_and_symbols_when_asked(argv, out):
    # in a fresh interpreter, where no other import has loaded them first
    result, _ = probe(
        "import contextlib, io\nfrom hvcalc.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()) as buf:\n"
        f"    rc = main({argv!r})\nresult = [rc, buf.getvalue()]")
    assert result == [0, out]


@pytest.mark.parametrize("argv", [
    ["flagvec", "CIC."], ["lattice", "CIC."], ["hvec", "CIC."],
    ["aux", "CIC."], ["links", "ICC."], ["terms", "3"], ["order", "x", "y"],
])
def test_integer_flag_counts_load_no_number_modules(argv):
    # integer flag counts and coefficients are checked and written without
    # fractions
    result, _ = probe(
        f"import sys\nfrom hvcalc.cli import main\nrc = main({argv!r})\n"
        "result = [rc, sorted({'fractions', 'numbers'} & set(sys.modules))]")
    assert result == [0, []]


def test_all_and_dir_are_the_public_names():
    result, loaded = probe(
        "import hvcalc\n"
        "result = [hvcalc.__all__, [n for n in dir(hvcalc) if n[0] != '_']]")
    assert result == [PUBLIC, PUBLIC]
    assert loaded == {"hvcalc"}


def test_star_import_binds_every_public_name():
    result, _ = probe("from hvcalc import *\n"
                      "result = sorted(n for n in dir() if n[0] != '_')")
    assert result == PUBLIC


def test_names_are_the_layers_objects():
    for name in PUBLIC:
        if name in SUBMODULES:
            assert getattr(hvcalc, name) is import_module(f"hvcalc.{name}")
        else:
            module = import_module(f"hvcalc.{hvcalc._MODULE_OF[name]}")
            assert getattr(hvcalc, name) is getattr(module, name)
    assert hvcalc.ic_basis is hvcalc.flaglin.ic_basis


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nosuch'"):
        hvcalc.nosuch
    with pytest.raises(ImportError):
        from hvcalc import nosuch  # noqa: F401
