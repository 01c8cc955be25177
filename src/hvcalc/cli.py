"""Command-line front end.

Subcommands compute h-vectors (symbolic engine or linear extension),
auxiliary vectors, flag vectors, lattices, basis expressions, link-recursion
values, pseudo h, index terms and their order, and run verification suites.
Every command that reads a polytope takes a generator word or a lattice
JSON file, through one loader (``_source``), except ``aux``, which runs
the engine and so takes words only.
Exit codes: 0 success or all checks pass, 1 verification failure, 2 usage
or parse errors and any other error (one line of stderr), 141 closed stdout.

Each command imports only the layers it runs, and building the parser
imports none: ``terms 3`` never loads the lattice or the checks, ``basis``
loads only the words, and ``express`` the terms only under ``--coeff``.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import lru_cache
from itertools import chain

from .words import GeneratorWord, WordParseError, ic_basis

FORMATS = ("text", "json", "csv")
LISTS = ("text", "json")  # the formats of the list-valued outputs


class CliError(Exception):
    """A usage error: ``main`` prints it on one line and exits 2."""


def _emit(text, out_path):
    """Write ``text``, or a listing's pieces as each is made, and a newline
    to stdout or to the file ``out_path``."""
    pieces = chain([text] if isinstance(text, str) else text, "\n")
    if not out_path:
        return sys.stdout.writelines(pieces)
    try:
        with open(out_path, "w") as fh:
            fh.writelines(pieces)
    except OSError as e:
        raise CliError(f"cannot write output: {e}")


def _dumps(data) -> str:
    import json
    return json.dumps(data)


def _formatted(value, fmt):
    """A value in its ``fmt`` format: JSON, CSV or text."""
    if fmt == "json":
        return _dumps(value.to_json())
    if fmt == "csv":
        return value.to_csv().rstrip("\n")
    return value.render()


def _listing(items, fmt):
    """Rendered items, one a line or as a JSON list, in pieces: each item is
    rendered as it is written, so the whole text is never held."""
    as_json, sep = fmt == "json", ""
    yield "[" if as_json else ""
    for x in items:
        yield sep + (_dumps(x.render()) if as_json else x.render())
        sep = ", " if as_json else "\n"
    yield "]" if as_json else ""


# the most items ``terms`` and ``basis`` list: terms 28 and basis 29 print
# 832 040 each, in about 10 s and 3 s on a 2-core host
_MAX_LISTED = 1_000_000


def _bounded(command: str, n: int, index: int, noun: str):
    """Refuse ``command n`` before it lists the Fibonacci number F_index of
    items, if that passes ``_MAX_LISTED``; the count stops at the bound."""
    a, b = 0, 1  # F_i, F_(i + 1)
    for _ in range(index):
        a, b = b, a + b
        if a > _MAX_LISTED:
            raise CliError(f"{command} {n} would list more than "
                           f"{_MAX_LISTED} {noun}, the bound of a listing")


def _source(arg: str):
    """The polytope that ``arg`` names: its GeneratorWord if it parses as
    one, else the lattice of the JSON file it names, validated.  Text that
    is neither is refused with the word's parse error and the file's; a
    file that is not JSON, with the decoder's error and the file's name."""
    try:
        return GeneratorWord.parse(arg)
    except WordParseError as e:
        refusal = f"not a word: {e}; not a readable file"
    try:
        fh = open(arg)
    except OSError as e:
        raise CliError(f"{refusal}: {e}")
    import json
    from .lattice import FaceLattice
    with fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as e:
            raise CliError(f"{e} in lattice JSON file {arg}")
    return FaceLattice.from_json(data)


def _lattice(source):
    """The face lattice of a polytope from ``_source``."""
    from .lattice import build
    return build(source) if isinstance(source, GeneratorWord) else source


def _by_route(args, engine_name: str, linear_name: str):
    """``engine.<engine_name>`` of a bipyramid-free word, else
    ``flaglin.<linear_name>`` of the flag vector of the word's lattice or
    of a lattice file, formatted; the text names the route."""
    source = _source(args.word)
    if isinstance(source, GeneratorWord) and source.is_bipyramid_free():
        from . import engine
        value, label = getattr(engine, engine_name)(source), "engine"
    else:
        from . import flaglin
        value = getattr(flaglin, linear_name)(_lattice(source).flag_vector())
        label = "linear extension"
    body = _formatted(value, args.format)
    return body + f"   [{label}]" if args.format == "text" else body


# Each command returns its text, a listing in pieces; ``_run`` writes it.

def cmd_hvec(args):
    return _by_route(args, "extended_hvector", "linear_h")


def cmd_aux(args):
    from . import engine
    w = GeneratorWord.parse(args.word)
    return _formatted(engine.aux_hvector(w), args.format)


def cmd_flagvec(args):
    return _formatted(_lattice(_source(args.word)).flag_vector(), args.format)


def cmd_lattice(args):
    return _lattice(_source(args.word)).dumps()


def cmd_basis(args):
    _bounded("basis", args.n, args.n + 1, "words")
    return _listing(ic_basis(args.n), args.format)


def cmd_express(args):
    from . import flaglin
    fv = _lattice(_source(args.word)).flag_vector()
    if args.coeff is not None:
        from .terms import AUX, IndexTerm
        term = IndexTerm.parse(args.coeff)
        if term.flavor == AUX:
            raise CliError(f"--coeff {term} is an aux term; the extended "
                           f"h-vector has final terms in x, y and A")
        if term.degree != fv.n:
            raise CliError(f"--coeff {term} has degree {term.degree}, but "
                           f"the polytope has dimension {fv.n}")
        h = flaglin.linear_h(fv)
        return str(h.coefficient(term.xexp, term.yexp, term.word))
    pairs = list(zip(ic_basis(fv.n), flaglin.express_in_basis(fv)))
    if args.format == "json":
        from .symbols import scalar_to_json
        return _dumps([{"word": w.render(), "coeff": scalar_to_json(c)}
                       for w, c in pairs])
    sep, header = (",", ["word,coeff"]) if args.format == "csv" else (": ", [])
    return "\n".join(header + [f"{w.render()}{sep}{c!s}" for w, c in pairs])


def cmd_links(args):
    from . import links
    h = links.h_by_links(_lattice(_source(args.word)),
                         args.rule or links.CONJUGATION)
    return _formatted(h, args.format)


def cmd_pseudo(args):
    return _by_route(args, "pseudo_h", "linear_pseudo_h")


def cmd_terms(args):
    from . import terms
    if args.n < 0:
        raise CliError(f"degree must be non-negative, got {args.n}")
    _bounded("terms", args.n, args.n + 2, "terms")
    return _listing(terms.enumerate_terms(args.n), args.format)


def cmd_order(args):
    from . import terms
    t1 = terms.IndexTerm.parse(args.term1)
    t2 = terms.IndexTerm.parse(args.term2)
    fwd = terms.implies(t1, t2)
    bwd = terms.implies(t2, t1)
    if fwd and bwd:
        return f"{t1} = {t2} (same strata)"
    if fwd:
        return f"{t1} => {t2}"
    if bwd:
        return f"{t2} => {t1}"
    if terms.broadly_similar(t1, t2):
        return f"{t1} and {t2} are broadly similar but incomparable"
    return f"{t1} and {t2} are not broadly similar"


def cmd_verify(args):
    """The result lines and, on a failure, the line naming the first one."""
    from . import checks
    results = checks.run_suite(args.suite, args.max_dim)
    note = checks.max_dim_note(args.suite, args.max_dim)
    if note:
        print(f"note: {note}", file=sys.stderr)
    failures = [r for r in results if not r.passed]
    summary = f"{len(results) - len(failures)}/{len(results)} checks passed"
    text = "\n".join([r.line() for r in results] + [summary])
    if not failures:
        return text
    first = failures[0]
    return text, (f"first failure: {first.name}"
                  + (f" [{first.detail}]" if first.detail else ""))


class _Parser(argparse.ArgumentParser):
    """Refuses bad arguments with one line on stderr and exit 2, not the
    usage block; its subcommand parsers are of the same class."""

    def error(self, message):
        self.exit(2, f"error: {' '.join(message.split())}\n")


class _LayerChoices:
    """Choices that argparse reads from a layer only when it checks a value
    or prints the choices, so that building the parser imports no layer."""

    def __init__(self, load):
        self._load = load

    def __contains__(self, value):
        return value in self._load()

    def __iter__(self):
        return iter(self._load())


def _suite_names():
    from . import checks
    return sorted([*checks.SUITES, "all"])


def _link_rules():
    from . import links
    return links.RULES


def make_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="hvcalc",
        description="exact h-vector calculus for cone/cylinder/bipyramid polytopes")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def command(name, help, arguments, formats=()):
        """Add subcommand ``name``: its (flag, options) ``arguments``, then
        --format when it writes ``formats`` and always --out."""
        p = sub.add_parser(name, help=help)
        for flag, options in arguments:
            # add_argument formats the metavar from the choices at once, so
            # lazy choices are set on the action after it is added
            choices = options.pop("choices", None)
            p.add_argument(flag, **options).choices = choices
        if formats:
            p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--out", default=None, help="write output to a file")

    word, n = [("word", {})], [("n", {"type": int})]
    source = [("word", {"help": "a generator word such as CIC., or a lattice "
                                "JSON file"})]
    command("hvec", "extended h-vector", source, FORMATS)
    command("aux", "auxiliary vector of a bipyramid-free word",
            word, FORMATS)
    command("flagvec", "flag vector", source, FORMATS)
    command("lattice", "face lattice, as JSON", source)
    command("basis", "basis words of a dimension", n, LISTS)
    coeff = {"help": "print one h coefficient, e.g. 'xA{1}'"}
    command("express", "basis coefficients",
            source + [("--coeff", coeff)], FORMATS)
    command("links", "h-vector via the link recursion",
            source + [("--rule", {"choices": _LayerChoices(_link_rules)})],
            FORMATS)
    command("pseudo", "pseudo h-vector", source, LISTS)
    command("terms", "index terms of a degree", n, LISTS)
    command("order", "compare two index terms",
            [("term1", {}), ("term2", {})])
    command("verify", "run a verification suite",
            [("suite", {"choices": _LayerChoices(_suite_names)}),
             ("--max-dim", {"type": int})])

    return ap


def _run(args) -> int:
    """Run a subcommand's ``cmd_`` function and write its text; any error
    but a closed pipe: one line, exit 2.  A command that returns its text
    with a line for stderr fails: the line follows the text, and the exit
    status is 1."""
    try:
        text = globals()[f"cmd_{args.cmd}"](args)
        text, failure = text if isinstance(text, tuple) else (text, None)
        _emit(text, args.out)
        if failure:
            print(failure, file=sys.stderr)
        return 1 if failure else 0
    except BrokenPipeError:
        raise
    except WordParseError as e:
        message = f"parse error: {e}"
    except (CliError, ValueError, KeyError) as e:
        message = f"error: {e}"
    except MemoryError:  # raised with no message
        message = "error: the input is too large: memory ran out"
    except Exception as e:  # any other failure: one line, never a traceback
        message = f"error: {type(e).__name__}: {' '.join(str(e).split())}"
    print(message, file=sys.stderr)
    return 2


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser of every ``main`` call in the process, built once; parsing
    reads it and never changes it."""
    return make_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        rc = _run(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: say nothing, and point both streams at
        # os.devnull so that the interpreter's final flush cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.dup2(devnull, sys.stderr.fileno())
        return 141
    return rc


if __name__ == "__main__":
    sys.exit(main())
