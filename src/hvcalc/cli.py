"""Command-line front end.

Subcommands compute h-vectors (symbolic engine or linear extension),
auxiliary vectors, flag vectors, lattices, basis expressions, link-recursion
values, pseudo h, index terms and their order, and run verification suites.
Exit codes: 0 success or all checks pass, 1 verification failure, 2 usage
or parse errors and any other error (one line of stderr), 141 closed stdout.

Each command imports only the layers it runs, and building the parser
imports none: ``hvcalc terms 3`` never loads the lattice or the checks.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from .words import GeneratorWord, WordParseError

FORMATS = ("text", "json", "csv")
LISTS = ("text", "json")  # the formats of the list-valued outputs


class CliError(Exception):
    """A usage error: ``main`` prints it on one line and exits 2."""


_TERM_TOKEN = re.compile(
    r"(x|y|X|Y)(?:\^?(\d+))?|(Abar|Ā|Ā|A)|\{(\d+)\}|(.)", re.DOTALL)


def parse_term(text: str):
    """Parse terms like ``xA{1}``, ``X^2Y^3{5}``, ``Abar{1}{1}`` and ``1``
    into an ``IndexTerm``."""
    from .symbols import AUX, FINAL, PAD, PAD_AUX
    from .terms import IndexTerm
    if not text.strip():
        raise CliError("empty term: write the constant term as 1")
    xexp = yexp = 0
    word = []
    aux = False
    final = False
    text = text.replace(" ", "")
    for m in _TERM_TOKEN.finditer("" if text == "1" else text):
        var, exp, pad, local, junk = m.groups()
        if junk is not None:
            raise CliError(f"bad term syntax near {junk!r}")
        if var is not None:
            e = int(exp) if exp else 1
            if var in "xy":
                final = True
            else:
                aux = True
            if var in "xX":
                xexp += e
            else:
                yexp += e
        elif pad is not None:
            if pad == "A":
                final = True
                word.append(PAD)
            else:
                aux = True
                word.append(PAD_AUX)
        else:
            word.append(int(local))
    if aux and final:
        raise CliError("term mixes aux and final symbols")
    flavor = AUX if aux else FINAL
    try:
        return IndexTerm(xexp, yexp, tuple(word), flavor)
    except ValueError as e:
        raise CliError(str(e))


def _emit(text: str, out_path):
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text if text.endswith("\n") else text + "\n")
        except OSError as e:
            raise CliError(f"cannot write output: {e}")
    else:
        print(text)


def _dumps(data) -> str:
    import json
    return json.dumps(data)


def _hvector_out(h, fmt):
    if fmt == "json":
        return _dumps(h.to_json())
    if fmt == "csv":
        from .symbols import render_scalar, render_word
        lines = ["word,poly"]
        for w, cs in h.sorted_terms():
            lines.append(f"{render_word(w, h.flavor)},"
                         + " ".join(render_scalar(c) for c in cs))
        return "\n".join(lines)
    return h.render()


def _load_flag_vector(arg: str):
    """The flag vector of a generator word, or of a lattice JSON file."""
    from .lattice import FaceLattice, build
    try:
        return build(GeneratorWord.parse(arg)).flag_vector()
    except WordParseError:
        pass
    import json
    try:
        with open(arg) as fh:
            data = json.load(fh)
    except OSError as e:
        raise CliError(f"not a word and not a readable file: {e}")
    return FaceLattice.from_json(data).flag_vector()


def cmd_hvec(args):
    w = GeneratorWord.parse(args.word)
    if w.is_bipyramid_free():
        from . import engine
        h = engine.extended_hvector(w)
        label = "engine"
    else:
        from . import flaglin
        from .lattice import build
        h = flaglin.linear_h(build(w).flag_vector())
        label = "linear extension"
    body = _hvector_out(h, args.format)
    if args.format == "text":
        body += f"   [{label}]"
    _emit(body, args.out)


def cmd_aux(args):
    from . import engine
    w = GeneratorWord.parse(args.word)
    h = engine.aux_hvector(w)
    _emit(_hvector_out(h, args.format), args.out)


def cmd_flagvec(args):
    fv = _load_flag_vector(args.word)
    if args.format == "json":
        _emit(_dumps(fv.to_json()), args.out)
    elif args.format == "csv":
        _emit(fv.to_csv().rstrip("\n"), args.out)
    else:
        lines = []
        for S in fv.subsets():
            name = "{" + ",".join(str(i) for i in sorted(S)) + "}"
            lines.append(f"f{name} = {fv[S]}")
        _emit("\n".join(lines), args.out)


def cmd_lattice(args):
    from .lattice import build
    w = GeneratorWord.parse(args.word)
    _emit(build(w).dumps(), args.out)


def cmd_basis(args):
    from . import flaglin
    ws = flaglin.ic_basis(args.n)
    if args.format == "json":
        _emit(_dumps([w.render() for w in ws]), args.out)
    else:
        _emit("\n".join(w.render() for w in ws), args.out)


def cmd_express(args):
    from . import flaglin
    from .symbols import AUX, render_scalar, scalar_to_json
    fv = _load_flag_vector(args.word)
    if args.coeff is not None:
        term = parse_term(args.coeff)
        if term.flavor == AUX:
            raise CliError(f"--coeff {term} is an aux term; the extended "
                           f"h-vector has final terms in x, y and A")
        if term.degree != fv.n:
            raise CliError(f"--coeff {term} has degree {term.degree}, but "
                           f"the polytope has dimension {fv.n}")
        h = flaglin.linear_h(fv)
        _emit(render_scalar(h.coefficient(term.xexp, term.yexp, term.word)),
              args.out)
        return
    basis = flaglin.ic_basis(fv.n)
    cs = flaglin.express_in_basis(fv)
    if args.format == "json":
        _emit(_dumps([{"word": w.render(), "coeff": scalar_to_json(c)}
                          for w, c in zip(basis, cs)]), args.out)
    elif args.format == "csv":
        lines = ["word,coeff"] + [f"{w.render()},{render_scalar(c)}"
                                  for w, c in zip(basis, cs)]
        _emit("\n".join(lines), args.out)
    else:
        _emit("\n".join(f"{w.render()}: {render_scalar(c)}"
                        for w, c in zip(basis, cs)), args.out)


def cmd_links(args):
    from . import links
    from .lattice import build
    w = GeneratorWord.parse(args.word)
    h = links.h_by_links(build(w), args.rule or links.CONJUGATION)
    _emit(_hvector_out(h, args.format), args.out)


def cmd_pseudo(args):
    w = GeneratorWord.parse(args.word)
    if w.is_bipyramid_free():
        from . import engine
        p = engine.pseudo_h(w)
        label = "engine"
    else:
        from . import flaglin
        from .lattice import build
        p = flaglin.linear_pseudo_h(build(w).flag_vector())
        label = "linear extension"
    if args.format == "json":
        from .symbols import scalar_to_json
        _emit(_dumps([scalar_to_json(c) for c in p.coeffs]), args.out)
    else:
        _emit(f"{p.render()}   [{label}]", args.out)


def cmd_terms(args):
    from . import terms
    if args.n < 0:
        raise CliError(f"degree must be non-negative, got {args.n}")
    ts = terms.enumerate_terms(args.n)
    if args.format == "json":
        _emit(_dumps([t.render() for t in ts]), args.out)
    else:
        _emit("\n".join(t.render() for t in ts), args.out)


def cmd_order(args):
    from . import terms
    t1 = parse_term(args.term1)
    t2 = parse_term(args.term2)
    fwd = terms.implies(t1, t2)
    bwd = terms.implies(t2, t1)
    if fwd and bwd:
        msg = f"{t1} = {t2} (same strata)"
    elif fwd:
        msg = f"{t1} => {t2}"
    elif bwd:
        msg = f"{t2} => {t1}"
    elif terms.broadly_similar(t1, t2):
        msg = f"{t1} and {t2} are broadly similar but incomparable"
    else:
        msg = f"{t1} and {t2} are not broadly similar"
    _emit(msg, args.out)


def cmd_verify(args):
    from . import checks
    results = checks.run_suite(args.suite, args.max_dim)
    note = checks.max_dim_note(args.suite, args.max_dim)
    if note:
        print(f"note: {note}", file=sys.stderr)
    lines = [r.line() for r in results]
    failures = [r for r in results if not r.passed]
    summary = f"{len(results) - len(failures)}/{len(results)} checks passed"
    _emit("\n".join(lines + [summary]), args.out)
    if failures:
        first = failures[0]
        print(f"first failure: {first.name}"
              + (f" [{first.detail}]" if first.detail else ""),
              file=sys.stderr)
        return 1
    return 0


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

    def common(p, formats=()):
        if formats:
            p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--out", default=None, help="write output to a file")

    p = sub.add_parser("hvec", help="extended h-vector of a word")
    p.add_argument("word")
    common(p, FORMATS)
    p.set_defaults(fn=cmd_hvec)

    p = sub.add_parser("aux", help="auxiliary vector of a bipyramid-free word")
    p.add_argument("word")
    common(p, FORMATS)
    p.set_defaults(fn=cmd_aux)

    p = sub.add_parser("flagvec", help="flag vector of a word or lattice file")
    p.add_argument("word")
    common(p, FORMATS)
    p.set_defaults(fn=cmd_flagvec)

    p = sub.add_parser("lattice", help="face lattice of a word, as JSON")
    p.add_argument("word")
    common(p)
    p.set_defaults(fn=cmd_lattice)

    p = sub.add_parser("basis", help="basis words of a dimension")
    p.add_argument("n", type=int)
    common(p, LISTS)
    p.set_defaults(fn=cmd_basis)

    p = sub.add_parser("express",
                       help="basis coefficients of a word or lattice file")
    p.add_argument("word")
    p.add_argument("--coeff", default=None,
                   help="print one h coefficient, e.g. 'xA{1}'")
    common(p, FORMATS)
    p.set_defaults(fn=cmd_express)

    p = sub.add_parser("links", help="h-vector via the link recursion")
    p.add_argument("word")
    # add_argument formats the metavar from the choices at once, so lazy
    # choices are set on the action after it is added
    p.add_argument("--rule").choices = _LayerChoices(_link_rules)
    common(p, FORMATS)
    p.set_defaults(fn=cmd_links)

    p = sub.add_parser("pseudo", help="pseudo h-vector of a word")
    p.add_argument("word")
    common(p, LISTS)
    p.set_defaults(fn=cmd_pseudo)

    p = sub.add_parser("terms", help="index terms of a degree")
    p.add_argument("n", type=int)
    common(p, LISTS)
    p.set_defaults(fn=cmd_terms)

    p = sub.add_parser("order", help="compare two index terms")
    p.add_argument("term1")
    p.add_argument("term2")
    common(p)
    p.set_defaults(fn=cmd_order)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite").choices = _LayerChoices(_suite_names)
    p.add_argument("--max-dim", type=int, default=None)
    common(p)
    p.set_defaults(fn=cmd_verify)

    return ap


def _run(args) -> int:
    """Run a subcommand; any error but a closed pipe: one line, exit 2."""
    try:
        return args.fn(args) or 0
    except BrokenPipeError:
        raise
    except WordParseError as e:
        message = f"parse error: {e}"
    except (CliError, ValueError, KeyError) as e:
        message = f"error: {e}"
    except Exception as e:  # any other failure: one line, never a traceback
        message = f"error: {type(e).__name__}: {' '.join(str(e).split())}"
    print(message, file=sys.stderr)
    return 2


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
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
