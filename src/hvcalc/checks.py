"""Named verification suites shared by the CLI and the acceptance tests.

Each check returns CheckResult records; a suite is a row of checks in the
SUITES table, with the bounds it runs at for a given max_dim.  All
expected values here are either golden table rows, hand-derived small
cases, or cross-route comparisons (engine vs lattice vs link recursion).
Randomized checks use a fixed seed so runs are byte-reproducible.
"""

from __future__ import annotations

import random

from . import engine, flaglin, links, terms
from ._frozen import Frozen
from .lattice import build
from .symbols import AUX, FINAL, PAD, PAD_AUX, BiGradedPoly, HVector, word_degree
from .terms import IndexTerm
from .words import GeneratorWord, all_words, words_up_to


class CheckResult(Frozen):
    """One named check: whether it passed, and what failed if not."""

    __slots__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str = ""):
        init = object.__setattr__
        init(self, "name", name)
        init(self, "passed", bool(passed))
        init(self, "detail", detail)

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        tail = f"  [{self.detail}]" if self.detail and not self.passed else ""
        return f"{status}  {self.name}{tail}"


def _each(name, items, ok, show=str):
    """One check over a family: it passes when ``ok`` holds for every item,
    and otherwise names the first item that fails."""
    for x in items:
        if not ok(x):
            return CheckResult(name, False, f"counterexample {show(x)}")
    return CheckResult(name, True)


# -- golden tables ------------------------------------------------------------

GOLDEN_TABLES = {
    "": "(1)",
    "C": "(11)",
    "I": "(11)",
    "CC": "(111)",
    "IC": "(121)",
    "CCC": "(1111)",
    "ICC": "(1221)",
    "IIC": "(1331)",
    "CIC": "(1221) + (1){1}",
    "CCCC": "(11111)",
    "ICCC": "(12221)",
    "IICC": "(13431)",
    "IIIC": "(14641)",
    "CICC": "(12221) + (1)A{1}",
    "CIIC": "(13331) + (2)A{1}",
    "ICIC": "(13431) + (11){1} + (1)A{1}",
    "CCIC": "(12221) + (11){1} + (1)A{1}",
    "CCCCC": "(111111)",
    "CCCIC": "(122221) + (111){1} + (11)A{1} + (1)AA{1}",
    "CCICC": "(122221) + (11)A{1} + (1)AA{1}",
    "CICCC": "(122221) + (1)AA{1}",
    "CICIC": "(134431) + (111){1} + (11)A{1} + (2)AA{1} + (1){2}",
    "ICCCC": "(122221)",
    "ICCIC": "(134431) + (121){1} + (12)A{1} + (1)AA{1}",
    "ICICC": "(134431) + (11)A{1} + (1)AA{1}",
}


def check_tables():
    out = []
    for ops, want in GOLDEN_TABLES.items():
        got = engine.extended_hvector(GeneratorWord(ops)).render()
        out.append(CheckResult(f"table h({ops or ''}.) = {want}",
                               got == want, f"got {got}"))
    return out


def check_aux_checkpoint():
    got = engine.aux_hvector(GeneratorWord("CCIC")).render()
    want = "[12221] + [11]{1}"
    return [CheckResult("aux h~(CCIC.) = [12221] + [11]{1}", got == want,
                        f"got {got}")]


# -- Bayer counterexample and pseudo h ---------------------------------------

XA1 = IndexTerm(1, 0, (PAD, 1), FINAL)


def check_bayer():
    lat = build(GeneratorWord("BICCC"))
    via_linear = flaglin.linear_h(lat.flag_vector())
    c1 = via_linear.coefficient(XA1.xexp, XA1.yexp, XA1.word)
    via_links = links.h_by_links(lat)
    c2 = via_links.coefficient(XA1.xexp, XA1.yexp, XA1.word)
    return [
        CheckResult("linear h(BICCC.) has coefficient -2 on xA{1}",
                    c1 == -2, f"got {c1}"),
        CheckResult("link-recursion h(BICCC.) has coefficient -2 on xA{1}",
                    c2 == -2, f"got {c2}"),
        CheckResult("both Bayer routes agree term by term",
                    via_linear == via_links),
    ]


def check_pseudo_octahedron():
    oct_fv = build(GeneratorWord("BIC")).flag_vector()
    got = flaglin.linear_pseudo_h(oct_fv)
    want = BiGradedPoly((1, -1, 5, 1))
    return [CheckResult("pseudo h extrapolated to the octahedron = (1,-1,5,1)",
                        got == want, f"got {got.render()}")]


# -- Fibonacci ranks and counts -----------------------------------------------

def check_fibonacci_ranks(max_ic=7, max_b=6):
    out = []
    for letters, max_n, name in (
            ("IC", max_ic, "rank of {{I,C}} flag vectors, dim {n} = F_{m} = {want}"),
            ("ICB", max_b, "bipyramids do not enlarge the span, dim {n}")):
        for n in range(1, max_n + 1):
            rank = flaglin.span_rank(
                [flaglin.word_flag_vector(w) for w in all_words(n, letters)])
            want = terms.fib(n + 1)
            out.append(CheckResult(name.format(n=n, m=n + 1, want=want),
                                   rank == want, f"got {rank}"))
    return out


# each count of the index terms of degree n: its name, the terms it counts,
# and k in its expected value F_(n+k); F_(-1) = F_1 - F_0 = 1
_TERM_COUNTS = (
    ("term count of degree n is F_(n+2), n <= {}", lambda t: True, 2),
    ("terms with i<=j number F_(n+1)", lambda t: t.xexp <= t.yexp, 1),
    ("terms with i>j number F_n", lambda t: t.xexp > t.yexp, 0),
    ("terms with i=j number F_(n-1)", lambda t: t.xexp == t.yexp, -1),
)


def check_fibonacci_terms(max_n=12, basis_dim=7):
    by_degree = [terms.enumerate_terms(n) for n in range(max_n + 1)]
    out = []
    for name, counts, k in _TERM_COUNTS:
        ok = all(sum(map(counts, ts)) == (terms.fib(n + k) if n + k >= 0 else 1)
                 for n, ts in enumerate(by_degree))
        out.append(CheckResult(name.format(max_n), ok))
    ok_words = all(
        len(terms.words_up_to_degree(n)) == terms.fib(n)
        for n in range(1, max_n + 1))
    out.append(CheckResult(f"words of degree <= n number F_n, n <= {max_n}",
                           ok_words))
    ok_basis = all(
        len(flaglin.ic_basis(n)) == terms.fib(n + 1)
        for n in range(basis_dim + 1))
    out.append(CheckResult(f"basis words number F_(n+1), n <= {basis_dim}",
                           ok_basis))
    return out


# -- the IC equation ----------------------------------------------------------

def _random_aux_vector(rng, degree):
    words = terms.words_up_to_degree(degree, AUX)
    chosen = rng.sample(words, k=min(len(words), rng.randint(1, 3)))
    tm = {}
    for w in chosen:
        m = degree - word_degree(w)
        tm[w] = [rng.randint(-9, 9) for _ in range(m + 1)]
    return HVector(degree, AUX, tm)


def _flag_ic_identity(w):
    def fv(ops):
        return flaglin.word_flag_vector(GeneratorWord(ops + w.ops))
    return fv("ICI") + fv("CCI").scale(-1) == fv("IIC") + fv("ICC").scale(-1)


def check_ic_equation_suite(n_random=100, max_random_degree=6, engine_dim=5,
                            flag_base_dim=3, seed=20260809):
    rng = random.Random(seed)
    randoms = (_random_aux_vector(rng, rng.randint(0, max_random_degree))
               for _ in range(n_random))
    return [
        _each(f"operator IC equation on {n_random} random aux vectors",
              randoms, engine.check_ic_equation, HVector.render),
        _each(f"operator IC equation on engine outputs, dim <= {engine_dim}",
              words_up_to(engine_dim, "IC"),
              lambda w: engine.check_ic_equation(engine.aux_hvector(w))),
        _each(f"flag-level (I-C)CI = I(I-C)C on base words, dim <= {flag_base_dim}",
              words_up_to(flag_base_dim, "ICB"), _flag_ic_identity),
    ]


# -- triple agreement ---------------------------------------------------------

def _three_routes_agree(pair):
    w, lat = pair
    return (engine.extended_hvector(w)
            == links.h_by_links(lat, links.CONJUGATION)
            == flaglin.linear_h(lat.flag_vector()))


def check_triple_agreement(max_dim=4, basis_dim=5):
    """Both parts read each word's lattice, built once."""
    pairs = [(w, build(w)) for w in (*words_up_to(max_dim, "IC"),
                                     *flaglin.ic_basis(basis_dim))]
    agree = _each(f"engine = link recursion = linear extension, dim <= {max_dim} "
                  f"plus the dim-{basis_dim} basis", pairs, _three_routes_agree,
                  lambda pair: str(pair[0]))
    direct_agrees = all(
        links.h_by_links(lat, links.DIRECT) == engine.extended_hvector(w)
        for w, lat in pairs)
    return [agree, CheckResult(
        "exactly one cone-rule reading passes (conjugation yes, direct no)",
        agree.passed and not direct_agrees,
        "direct rule unexpectedly agrees" if direct_agrees else "")]


# -- lattice oracle suites ------------------------------------------------------

def _oracle_verdicts(w, lat, cone_dim):
    """Whether each oracle check holds on word ``w`` with its lattice
    ``lat``; True where the check does not run on ``w``."""
    # simple polytopes among the generator words are exactly I^a C^b
    simple = w.dim > 0 and not w.ops.lstrip("I").lstrip("C")
    ext = engine.extended_hvector(w) if simple else None
    return (
        lat.euler_ok(),
        lat.closed_under_intersection(),
        not simple or set(lat.vertex_edge_degrees().values()) == {lat.n},
        not simple or (ext.terms.keys() <= {()} and ext.mpih()
                       == engine.classical_h_simple(lat.face_counts())),
        w.dim > cone_dim or (flaglin.cone_flag_vector(lat.flag_vector())
                             == lat.pyramid().flag_vector()))


def check_oracles(max_dim=6, cone_base_dim=5):
    """The oracle checks on each word's lattice, built once; a check fails
    on the first word it does not hold on."""
    cone_dim = min(max_dim, cone_base_dim)
    names = (f"Euler relation on all lattices, dim <= {max_dim}",
             f"intersection closure on all lattices, dim <= {max_dim}",
             f"simple words have n edges at every vertex, dim <= {max_dim}",
             "classical h of the face vector = mpih part on simple words, "
             f"dim <= {max_dim}",
             "cone transform matches the lattice pyramid, "
             f"base dim <= {cone_dim}")
    failed = {}  # a check's index: its first counterexample
    for w in words_up_to(max_dim, "ICB"):
        for i, ok in enumerate(_oracle_verdicts(w, build(w), cone_dim)):
            if not ok:
                failed.setdefault(i, f"counterexample {w}")
    return [CheckResult(name, i not in failed, failed.get(i, ""))
            for i, name in enumerate(names)]


# -- properties: palindromy, unimodality, strata, downsets ---------------------

def check_palindromy(max_dim=8):
    return [_each(f"auxiliary vectors are palindromic, dim <= {max_dim}",
                  words_up_to(max_dim, "IC"),
                  lambda w: engine.aux_hvector(w).is_palindromic())]


def _unimodal_to_middle(w):
    # the final empty word comes from the aux empty word at pad count 0 only
    # (pads on it die, other words keep their locals): aux mpih = final mpih
    cs = engine.aux_hvector(w).mpih().coeffs
    return all(cs[i] <= cs[i + 1] for i in range(len(cs) // 2))


def check_unimodality(max_dim=8):
    return [_each(f"mpih parts are unimodal up to halfway, dim <= {max_dim}",
                  words_up_to(max_dim, "IC"), _unimodal_to_middle)]


STRATA_CASES = [
    (IndexTerm(2, 3, (PAD_AUX,) * 4 + (5,) + (PAD_AUX,) * 2 + (6,), AUX),
     (5, 20, 35)),
    (IndexTerm(11, 0, (5, 6), AUX), (11, 22, 35)),
    (IndexTerm(1, 0, (1, 1), AUX), (1, 4, 7)),
    (IndexTerm(0, 0, (PAD_AUX, 1, 1), AUX), (0, 4, 7)),
    (IndexTerm(0, 0, (1, PAD_AUX, 1), AUX), (0, 3, 7)),
]


def check_strata(max_downset_degree=9):
    out = []
    for t, want in STRATA_CASES:
        got = terms.strata_vector(t)
        out.append(CheckResult(f"strata of {t} = {want}", got == want,
                               f"got {got}"))
    universe = {n: terms.enumerate_terms(n, AUX)
                for n in range(max_downset_degree + 1)}
    out.append(_each(
        f"downset by moves = downset by implication, degree <= {max_downset_degree}",
        (t for ts in universe.values() for t in ts),
        lambda t: set(terms.downset(t)) == {
            u for u in universe[t.degree] if terms.implies(t, u)}))
    return out


# -- suite registry -------------------------------------------------------------

# Each suite's checks and its bounds; a suite without bounds runs the fixed
# sizes its check names state.  A bound (label, default, cap) runs at
# min(max_dim or default, cap), or at its cap whatever max_dim asks if its
# default is None.  Each check is called with the values of the bounds in
# order; the note names a bound by its label, formatted with its value.
SUITES = {
    "tables": ((check_tables, check_aux_checkpoint), ()),
    "ic-equation": ((check_ic_equation_suite,), ()),
    "palindromy": ((check_palindromy,), (("dim <= {}", 8, 16),)),
    "fibonacci": ((check_fibonacci_terms,),
                  (("n <= {} (terms and words)", 12, 16),
                   ("dim <= {} (basis words)", None, 7))),
    "gds-rank": ((check_fibonacci_ranks,),
                 (("dim <= {} ({{I,C}} words)", 7, 7),
                  ("dim <= {} (words with B)", 6, 6))),
    "oracle": ((check_oracles,), (("dim <= {}", 6, 6),
                                  ("base dim <= {} (cone transform)", 5, 5))),
    "link-agreement": ((check_triple_agreement, check_bayer,
                        check_pseudo_octahedron), ()),
    "unimodality": ((check_unimodality,), (("dim <= {}", 8, 16),)),
    "strata": ((check_strata,), ()),
}


def _plan(name: str, max_dim):
    """(suite, row, bound values) for each suite that ``name`` selects;
    ``name`` "all" selects every suite in the table."""
    if max_dim is not None and (type(max_dim) is not int or max_dim < 1):
        raise ValueError(f"max_dim must be an int >= 1, got {max_dim!r}")
    if name != "all" and name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    plan = []
    for suite in (SUITES if name == "all" else (name,)):
        row = SUITES[suite]
        plan.append((suite, row, [
            cap if default is None else min(max_dim or default, cap)
            for _, default, cap in row[1]]))
    return plan


def run_suite(name: str, max_dim=None):
    return [r for _, (checks, _), values in _plan(name, max_dim)
            for check in checks for r in check(*values)]


def max_dim_note(name: str, max_dim) -> str | None:
    """Where suite ``name`` lowers or ignores ``max_dim``, in one line.

    None when no bound was given or every part of the suite follows it.
    """
    if max_dim is None:
        return None
    parts = []
    for suite, (_, bounds), values in _plan(name, max_dim):
        if not bounds:
            parts.append(f"{suite} ignores it")
        elif any(v != max_dim for v in values):
            parts.append(f"{suite} ran " + " and ".join(
                label.format(v) for (label, _, _), v in zip(bounds, values)))
    if not parts:
        return None
    return f"--max-dim {max_dim}: " + "; ".join(parts)
