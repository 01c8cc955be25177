"""Seeded inputs for the three workloads, and the universes they draw from.

Nothing here imports hvcalc: the program under test only ever sees the
generated words, commands and lattice files.  The same seed gives the same
inputs.  The amount of work in a run is fixed by ``seconds`` and the seed,
never by a clock, so a faster program does the same work in less time and
two commits are always compared on identical inputs.
"""

from __future__ import annotations

import json
import random
from itertools import product

# Work per second of --seconds, sized so the seed commit measures about
# --seconds on 2 cores of the reference machine (Python 3.11, numpy 2.4).
# cli-cold is the exception: at 15 s it needs its 102 commands, so that at
# least ten lie beyond p90, and they take about 45 s.
ENGINE_WORDS_PER_S = 400
ORACLE_SMALL_PER_S = 12
CLI_COMMANDS_PER_S = 6.8

# Large enough that a run draws each word at most once, as a real sweep
# does: 30720 words, of which a 15 s run sweeps a fifth.
ENGINE_DIMS = (11, 12, 13, 14)

ORACLE_SMALL_DIMS = (5, 6)
# Large oracle words, one drawn from each family per run.  A family is a
# word and its twin with the innermost letter swapped between C and I: on
# the point both give the segment, so the lattices are the same and the
# F x F closure product (numpy path) or the pure-Python pair loop costs the
# same whichever twin the seed draws.
ORACLE_LARGE = {
    # numpy path, 62 vertices: the largest F x F outer product (about 1 GB)
    "numpy-4666": ("ICICICICC", "ICICICICI"),
    # numpy path, 14 vertices, bipyramid-heavy
    "numpy-b-4666": ("BCBCBCBCC", "BCBCBCBCI"),
    # numpy path, 30 vertices, cone-heavy
    "numpy-2290": ("ICICCCCCC", "ICICCCCCI"),
    # more than 63 vertices: the pure-Python flag DP and closure
    "python-2188": ("IIIIIII", "IIIIIIC"),
}

# The oracle suite is left to oracle-sweep: at --max-dim 5 it alone would
# set cli-cold's peak RSS and p90 whenever the seed drew it.
SUITES = ("tables", "ic-equation", "palindromy", "fibonacci", "gds-rank",
          "link-agreement", "unimodality")


def words(dims, letters) -> list:
    return ["".join(t) for n in dims for t in product(letters, repeat=n)]


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def spread_sample(rng, population, k, cost) -> list:
    """k distinct words, one from each of k equal slices of the population
    ranked by ``cost``.  Op time follows the cost key closely, so the seed
    changes which words are drawn but hardly the run's total work or the
    quantiles of its op times."""
    ranked = sorted(population, key=lambda w: (cost(w), w))
    edges = [round(i * len(ranked) / k) for i in range(k + 1)]
    return [ranked[rng.randrange(edges[i], edges[i + 1])] for i in range(k)]


def lattice_size(ops: str) -> tuple:
    """(faces, vertices) of a word's face lattice, counted by the
    constructors' rules; the cost of an oracle pass follows them."""
    faces, verts = 2, 1
    for n, op in enumerate(reversed(ops)):
        if op == "C":
            faces, verts = 2 * faces, verts + 1
        elif op == "I":
            faces, verts = 3 * faces - 2, 2 * verts
        else:  # the bipyramid over a point drops the point
            faces, verts = 3 * faces - 2, verts + 2 if n else 2
    return faces, verts


# -- engine-sweep ----------------------------------------------------------------

def engine_universe() -> list:
    return words(ENGINE_DIMS, "CI")


def engine_inputs(seed: int, seconds: float) -> list:
    """A seeded sample of IC words, each drawn once, in sweep order: by
    dimension, then lexicographic, as ``words.words_up_to`` runs."""
    rng = rng_for("engine-sweep", seed)
    universe = engine_universe()
    total = min(len(universe), max(1, round(ENGINE_WORDS_PER_S * seconds)))
    sample = spread_sample(rng, universe, total,
                           lambda w: (len(w), w.count("C")))
    return sorted(sample, key=lambda w: (len(w), w))


# -- oracle-sweep ----------------------------------------------------------------

def oracle_universe() -> list:
    return (words(ORACLE_SMALL_DIMS, "BCI")
            + [w for fam in ORACLE_LARGE.values() for w in fam])


def oracle_inputs(seed: int, seconds: float) -> list:
    """A seeded sample of ICB words of dimensions 5-6, each drawn once,
    shuffled, with one word of each large family at evenly spaced points."""
    rng = rng_for("oracle-sweep", seed)
    small = words(ORACLE_SMALL_DIMS, "BCI")
    n_small = min(len(small), max(1, round(ORACLE_SMALL_PER_S * seconds)))
    stream = spread_sample(rng, small, n_small, lattice_size)
    rng.shuffle(stream)
    # the families keep their order, largest first, so the heap each large
    # op starts from, and with it the peak RSS, is the same in every run
    large = [rng.choice(fam) for fam in ORACLE_LARGE.values()]
    for k, w in reversed(list(enumerate(large))):
        stream.insert((2 * k + 1) * n_small // (2 * len(large)), w)
    return stream


# -- cli-cold --------------------------------------------------------------------
#
# A command is a dict: "argv" for the CLI, "key" naming the reference digest
# of its standard output (None for malformed inputs), "kind", and for
# well-formed inputs "word" when an independent check applies.

def _ic(dims):
    return words(dims, "CI")


def _icb(dims):
    return words(dims, "BCI")


# Heavy commands draw from words of one letter-count class, so a command's
# lattice size, and with it its time and memory, hardly depends on the seed.

def _b6_words():
    """Dimension 6, three C's, the rest I or B with at least one B."""
    return [w for w in words((6,), "BCI") if w.count("C") == 3 and "B" in w]


def _links6_words():
    return [w for w in words((6,), "BCI") if w.count("C") == 3]


def _b7_words():
    return [w for w in words((7,), "BC") if w.count("B") == 3]


def _file_words():
    # 7 + 3 vertices and nearly the same face count: the file's F x F
    # closure product stays small and the same size whichever word is drawn
    return [w for w in words((6,), "BC") if w.count("B") == 3]


def _prism_heavy_7():
    return [w for w in _ic((7,)) if w.count("I") >= 5]


def order_terms() -> list:
    """Final index terms of degrees 5-7, as text, grouped by degree.

    Built here from the term grammar (x^a y^b then pads A and local symbols
    {k} of degree 2k+1, never ending in a pad) so that the generator does
    not depend on the program.
    """
    def words_of_degree(d):
        if d == 0:
            return [()]
        out = [("A",) + w for w in words_of_degree(d - 1) if w]
        k = 1
        while 2 * k + 1 <= d:
            out += [(k,) + w for w in words_of_degree(d - 2 * k - 1)]
            k += 1
        return out

    def render(xe, ye, word):
        s = ""
        for sym, e in (("x", xe), ("y", ye)):
            s += sym if e == 1 else (f"{sym}^{e}" if e > 1 else "")
        s += "".join("A" if c == "A" else f"{{{c}}}" for c in word)
        return s or "1"

    groups = []
    for n in (5, 6, 7):
        ts = []
        for d in range(n + 1):
            for w in words_of_degree(d):
                rest = n - d
                ts += [render(rest - j, j, w) for j in range(rest + 1)]
        groups.append(ts)
    return groups


LIGHT = ("hvec", "aux", "links", "flagvec", "lattice", "terms", "order",
         "basis", "pseudo")
# Three fifths of the heavy slots are the dimension-6 B-word commands
# (basis elimination plus lattice work, 0.5-0.8 s each, with about 20 %
# jitter between repeats of one command).  Their 18 in a run of 102
# commands, with only the two b7 commands costlier, put p90 in the middle
# of that group of like costs rather than at its edge, where one instance
# would move it.
HEAVY = ("hvec-b6", "express-b6", "pseudo-b6", "links-6", "hvec-b6",
         "express-b6", "pseudo-b6", "flagvec-file", "express-file", "hvec-b6",
         "express-b6", "pseudo-b6", "verify", "flagvec-prism7", "b7")
MALFORMED = ("bad-letter", "terms-negative", "file-verts-int", "bad-term")
B7_COMMANDS = ("hvec", "express", "pseudo")


def cli_universe() -> list:
    """The text of every well-formed command the generator can emit; a
    file argument is written file:<word> for the lattice it holds."""
    out = []
    for w in _ic(range(5, 13)):
        out += [f"hvec {w}.", f"aux {w}."]
    out += [f"links {w}." for w in _icb(range(1, 6)) + _links6_words()]
    for w in _icb(range(1, 7)):
        out += [f"flagvec {w}.", f"lattice {w}."]
    out += [f"terms {n}" for n in range(0, 13)]
    for group in order_terms():
        out += [f"order {a} {b}" for a in group for b in group]
    out += [f"basis {n}" for n in range(1, 11)]
    out += [f"pseudo {w}." for w in _icb(range(1, 6))]
    for w in _b6_words():
        out += [f"hvec {w}.", f"express {w}.", f"pseudo {w}."]
    out += [f"flagvec {w}." for w in _prism_heavy_7()]
    for w in _file_words():
        out += [f"flagvec file:{w}.", f"express file:{w}."]
    for s in SUITES:
        out += [f"verify {s} --max-dim {d}" for d in (4, 5)]
    for w in _b7_words():
        out += [f"{c} {w}." for c in B7_COMMANDS]
    return sorted(set(out))


def _slot_kinds(total):
    """Fixed kind sequence: of every 20 commands 13 are light, 6 heavy and
    1 malformed, each class rotating through its kinds.  The seed picks
    the instances, never the mix, so every run has the same composition."""
    counters = {"light": 0, "heavy": 0, "malformed": 0}
    for i in range(total):
        slot = i % 20
        cls = "heavy" if slot % 10 in (3, 6, 9) else (
            "malformed" if slot == 12 else "light")
        table = {"light": LIGHT, "heavy": HEAVY, "malformed": MALFORMED}[cls]
        yield cls, table[counters[cls] % len(table)]
        counters[cls] += 1


def cli_inputs(seed: int, seconds: float, workdir) -> list:
    """The seeded command stream; lattice files are written to workdir."""
    rng = rng_for("cli-cold", seed)
    total = max(1, round(CLI_COMMANDS_PER_S * seconds))
    order_groups = order_terms()
    out = []
    b7_turn = 0
    for i, (cls, kind) in enumerate(_slot_kinds(total)):
        word = None
        if kind == "hvec":
            word = rng.choice(_ic(range(5, 13)))
            text = f"hvec {word}."
        elif kind == "aux":
            text = f"aux {rng.choice(_ic(range(5, 13)))}."
        elif kind == "links":
            word = rng.choice(_icb(range(1, 6)))
            text = f"links {word}."
        elif kind in ("flagvec", "lattice"):
            text = f"{kind} {rng.choice(_icb(range(1, 7)))}."
        elif kind == "terms":
            text = f"terms {rng.randrange(0, 13)}"
        elif kind == "order":
            group = rng.choice(order_groups)
            text = f"order {rng.choice(group)} {rng.choice(group)}"
        elif kind == "basis":
            text = f"basis {rng.randrange(1, 11)}"
        elif kind == "pseudo":
            text = f"pseudo {rng.choice(_icb(range(1, 6)))}."
        elif kind in ("hvec-b6", "express-b6", "pseudo-b6"):
            text = f"{kind[:-3]} {rng.choice(_b6_words())}."
        elif kind == "links-6":
            text = f"links {rng.choice(_links6_words())}."
        elif kind == "flagvec-prism7":
            text = f"flagvec {rng.choice(_prism_heavy_7())}."
        elif kind in ("flagvec-file", "express-file"):
            text = f"{kind[:-5]} file:{rng.choice(_file_words())}."
        elif kind == "verify":
            text = f"verify {rng.choice(SUITES)} --max-dim {rng.choice((4, 5))}"
        elif kind == "b7":
            cmd = B7_COMMANDS[b7_turn % len(B7_COMMANDS)]
            b7_turn += 1
            text = f"{cmd} {rng.choice(_b7_words())}."
        elif kind == "bad-letter":
            w = list(rng.choice(_ic(range(3, 8))))
            w.insert(rng.randrange(len(w) + 1), rng.choice("XYZcib"))
            text = f"hvec {''.join(w)}."
        elif kind == "terms-negative":
            text = f"terms -{rng.randrange(1, 6)}"
        elif kind == "file-verts-int":
            text = f"flagvec badfile:{rng.choice(_icb((3, 4)))}."
        elif kind == "bad-term":
            text = f"order x{rng.choice('QRZ')}{{1}} xA{{1}}"
        else:
            raise AssertionError(kind)
        argv = []
        for tok in text.split(" "):
            if tok.startswith(("file:", "badfile:")):
                tag, w = tok.split(":")
                path = workdir / f"cmd{i}.json"
                lat = lattice_json(w[:-1], rng)
                if tag == "badfile":
                    lat["faces"][-2]["verts"] = 5
                path.write_text(json.dumps(lat))
                tok = str(path)
            argv.append(tok)
        out.append({"kind": kind, "cls": cls, "argv": argv,
                    "key": text if cls != "malformed" else None,
                    "word": word})
    return out


def lattice_json(ops: str, rng: random.Random) -> dict:
    """Face lattice of a word in the program's JSON schema, built here from
    the constructor definitions, with vertex ids and face order shuffled."""
    faces = {frozenset(): -1, frozenset({0}): 0}
    n = 0
    for op in reversed(ops):
        nxt = max((v for f in faces for v in f), default=-1) + 1
        if op == "C":
            new = dict(faces)
            new.update({f | {nxt}: d + 1 for f, d in faces.items()})
        elif op == "I":
            new = {frozenset(): -1}
            for f, d in faces.items():
                if d >= 0:
                    new[frozenset(2 * v for v in f)] = d
                    new[frozenset(2 * v + 1 for v in f)] = d
                    new[frozenset(x for v in f for x in (2 * v, 2 * v + 1))] = d + 1
        else:
            new = {}
            for f, d in faces.items():
                if d < n:
                    new[f] = d
                    new[f | {nxt}] = d + 1
                    new[f | {nxt + 1}] = d + 1
            new[frozenset(v for f in new for v in f)] = n + 1
        faces = new
        n += 1
    verts = sorted({v for f in faces for v in f})
    relabel = dict(zip(verts, rng.sample(range(len(verts) * 3), len(verts))))
    items = [{"verts": sorted(relabel[v] for v in f), "dim": d}
             for f, d in faces.items()]
    rng.shuffle(items)
    return {"n": n, "faces": items}
