"""Concrete face lattices and brute-force flag counting.

A lattice stores every face as a frozen set of integer vertex ids together
with its dimension, from the empty face (dim -1) up to the whole polytope
(dim n).  Constructors for the point, pyramid, prism, bipyramid and join
assign dimensions explicitly, so grading never has to be recovered from the
order.  Flag vectors are obtained by counting chains of proper nonempty
faces; this is the combinatorial oracle against which the symbolic engine
is checked.

The empty polytope (dim -1, lone face = the empty set) is a legal lattice:
it shows up as the link of the whole polytope along itself, and its pyramid
is the point.

The intersection closure and the pairwise parts of ``validate`` are checked
against a generator set rather than against every pair of faces.  Every
face of a polytope is the intersection of the facets containing it
(coatomicity), so the generators are the facets plus any member that is
not such an intersection; every member is then the intersection of the
generators above it.  Each check costs O(F * |generators|) bitmask
operations for F faces, which is O(F * facets) on a polytope lattice, and
allocates nothing of size F * F.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from functools import reduce
from itertools import accumulate
from math import prod
from operator import add, and_

from .words import GeneratorWord


class FaceLattice:
    """Faces as vertex subsets with explicit dimensions."""

    __slots__ = ("n", "faces", "_flag")

    def __init__(self, n: int, faces: dict):
        self.n = n
        self.faces = dict(faces)
        self._flag = None
        if frozenset() not in self.faces or self.faces[frozenset()] != -1:
            raise ValueError("the empty face of dimension -1 is mandatory")

    @property
    def vertices(self) -> list:
        return sorted(v for f, d in self.faces.items() if d == 0 for v in f)

    @property
    def full_face(self) -> frozenset:
        for f, d in self.faces.items():
            if d == self.n:
                return f
        raise ValueError("no full face present")

    def face_counts(self) -> list:
        """[f_0, ..., f_{n-1}]: proper nonempty face counts by dimension."""
        out = [0] * max(self.n, 0)
        for _, d in self.faces.items():
            if 0 <= d < self.n:
                out[d] += 1
        return out

    def __len__(self):
        return len(self.faces)

    # -- constructions -----------------------------------------------------

    def _fresh_vertex(self) -> int:
        vs = [v for f in self.faces for v in f]
        return max(vs, default=-1) + 1

    def pyramid(self) -> "FaceLattice":
        """Cone: every face reappears, and again joined to a new apex."""
        apex = self._fresh_vertex()
        faces = dict(self.faces)
        for f, d in self.faces.items():
            faces[f | {apex}] = d + 1
        return FaceLattice(self.n + 1, faces)

    def prism(self) -> "FaceLattice":
        """Cylinder: two shifted copies of each face plus their product
        with the interval."""
        faces = {frozenset(): -1}
        for f, d in self.faces.items():
            if d == -1:
                continue
            faces[frozenset(2 * v for v in f)] = d
            faces[frozenset(2 * v + 1 for v in f)] = d
            faces[frozenset(x for v in f for x in (2 * v, 2 * v + 1))] = d + 1
        return FaceLattice(self.n + 1, faces)

    def bipyramid(self) -> "FaceLattice":
        """Two new apexes over every proper face; the base itself is not a
        face of the result."""
        p = self._fresh_vertex()
        q = p + 1
        faces = {}
        proper_verts = set()
        for f, d in self.faces.items():
            if d == self.n:
                continue
            faces[f] = d
            faces[f | {p}] = d + 1
            faces[f | {q}] = d + 1
            proper_verts |= f
        faces[frozenset(proper_verts | {p, q})] = self.n + 1
        return FaceLattice(self.n + 1, faces)

    def join(self, other: "FaceLattice") -> "FaceLattice":
        """All unions of a face from each factor; dimensions add plus one."""
        shift = self._fresh_vertex()
        faces = {}
        for f1, d1 in self.faces.items():
            for f2, d2 in other.faces.items():
                faces[f1 | frozenset(shift + v for v in f2)] = d1 + d2 + 1
        return FaceLattice(self.n + other.n + 1, faces)

    # -- flag counting -----------------------------------------------------

    def flag_vector(self) -> "FlagVector":
        if self._flag is None:
            self._flag = _flag_vector_dp(self)
        return self._flag

    # -- links ---------------------------------------------------------------

    def link(self, face) -> "FaceLattice":
        """The interval from a nonempty face to the whole polytope, as a
        lattice in its own right.  Atoms of the interval become vertices."""
        face = frozenset(face)
        if face not in self.faces:
            raise ValueError("link requested along a non-face")
        d0 = self.faces[face]
        if d0 < 0:
            raise ValueError("link along the empty face is the polytope itself")
        above = [(g, d) for g, d in self.faces.items()
                 if d > d0 and face <= g]
        atoms = sorted((g for g, d in above if d == d0 + 1), key=sorted)
        aidx = {a: i for i, a in enumerate(atoms)}
        faces = {frozenset(): -1}
        seen = set()
        for g, d in above:
            fa = frozenset(aidx[a] for a in atoms if a <= g)
            if fa in seen:
                raise ValueError("interval is not atomic; not a polytope lattice")
            seen.add(fa)
            faces[fa] = d - d0 - 1
        return FaceLattice(self.n - d0 - 1, faces)

    # -- checks used by the oracle suites -----------------------------------

    def euler_ok(self) -> bool:
        fc = self.face_counts()
        alt = sum((-1) ** i * c for i, c in enumerate(fc))
        return alt == 1 - (-1) ** self.n

    def closed_under_intersection(self) -> bool:
        """Whether the proper faces, the empty set and the whole vertex set
        are closed under pairwise intersection.

        Exact in O(F * facets): the family is closed iff ``x & m`` is a
        member for every member x and every generator m (see
        ``_generators``), since intersecting x with any member is a chain
        of intersections with generators.
        """
        verts = self.vertices
        bit = {v: 1 << i for i, v in enumerate(verts)}
        dim_of = {sum(map(bit.__getitem__, f)): d
                  for f, d in self.faces.items() if 0 <= d < self.n}
        full = (1 << len(verts)) - 1
        family = set(dim_of) | {0, full}
        facets = [m for m, d in dim_of.items() if d == self.n - 1]
        gens = _generators(family, facets, full)
        return all(x & m in family for x in family for m in gens)

    def vertex_edge_degrees(self) -> dict:
        degs = {v: 0 for v in self.vertices}
        for f, d in self.faces.items():
            if d == 1:
                for v in f:
                    degs[v] += 1
        return degs

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        ordered = sorted(self.faces.items(), key=lambda fd: (fd[1], sorted(fd[0])))
        return {"n": self.n,
                "faces": [{"verts": sorted(f), "dim": d} for f, d in ordered]}

    @classmethod
    def from_json(cls, data, validate=True) -> "FaceLattice":
        """Inverse of ``to_json``.  A document of the wrong shape raises
        ValueError naming the offending entry."""
        if not isinstance(data, dict) or not _is_int(data.get("n")):
            raise ValueError("lattice JSON needs an integer 'n'")
        if not isinstance(data.get("faces"), list):
            raise ValueError("lattice JSON needs a list 'faces'")
        faces, entry = {}, {}
        for i, item in enumerate(data["faces"]):
            if not (isinstance(item, dict) and _is_int(item.get("dim"))
                    and isinstance(item.get("verts"), list)
                    and all(_is_int(v) for v in item["verts"])):
                raise ValueError(
                    f"lattice JSON faces[{i}] = {item!r:.80}: "
                    "need an integer 'dim' and a list of integer 'verts'")
            verts = frozenset(item["verts"])
            if verts in entry:
                raise ValueError(
                    f"lattice JSON faces[{entry[verts]}] and faces[{i}] "
                    f"both list the vertex set {sorted(verts)}")
            entry[verts] = i
            faces[verts] = item["dim"]
        lat = cls(data["n"], faces)
        if validate:
            lat.validate()
        return lat

    def validate(self):
        """Structural invariants: grading, vertex atoms, closure.

        The per-face checks come first, then that every face lies below a
        single face of dimension n.  Three exact checks against the
        generator set follow, made together in one O(F * facets) pass over
        the F faces:

        - closure: ``x & m`` is a face for every face x and generator m;
        - containment raises dimension: with closure known, it holds iff
          ``dim(g & m) < dim g`` for every face g and every generator m
          not containing g;
        - every face of dimension d >= 0 covers a face of dimension d - 1:
          one of those ``g & m`` has dimension d - 1.

        An input that breaks both closure and containment is reported as
        not closed under intersection.
        """
        dims = set(self.faces.values())
        if self.n not in dims:
            raise ValueError("full face missing")
        for f, d in self.faces.items():
            if not (-1 <= d <= self.n):
                raise ValueError(f"face dimension {d} out of range")
            if d == -1 and f:
                raise ValueError("only the empty set may have dimension -1")
        vs = set(self.vertices)
        for f, d in self.faces.items():
            if d == 0 and len(f) != 1:
                raise ValueError("a vertex face must be a singleton")
            if not f <= vs and d >= 0:
                raise ValueError(f"face {sorted(f)} uses unknown vertices")
        full = self.full_face
        for f in self.faces:
            if not f <= full:
                raise ValueError(f"face {sorted(f)} is not below the full face")
        if sum(d == self.n for d in self.faces.values()) > 1:
            raise ValueError("containment must raise dimension")

        # vertices are distinct singletons and make up the full face; the
        # bits of a face are distinct, so their sum is their union
        bit = {v: 1 << i for i, v in enumerate(self.vertices)}
        mask_of = {f: sum(map(bit.__getitem__, f)) for f in self.faces}
        dim_of = {mask_of[f]: d for f, d in self.faces.items()}
        facets = [m for m, d in dim_of.items() if d == self.n - 1]
        gens = _generators(dim_of, facets, (1 << len(bit)) - 1)
        # one pass in dimension order; a closure failure anywhere is reported
        # before containment, and containment before covers
        uncontained = uncovered = None
        for f, d in sorted(self.faces.items(), key=lambda fd: fd[1]):
            g = mask_of[f]
            # dimensions of g & m over the generators m not containing g;
            # None marks an intersection that is not a face
            below = {dim_of.get(g & m) for m in gens if g | m != m}
            if None in below:
                raise ValueError("face set is not closed under intersection")
            if uncontained is None and max(below, default=d - 1) >= d:
                uncontained = f
            # each face covers some face one dimension lower; a face may
            # still lie directly above one two or more dimensions lower
            if uncovered is None and d >= 0 and d - 1 not in below:
                uncovered = f
        if uncontained is not None:
            raise ValueError("containment must raise dimension")
        if uncovered is not None:
            d = self.faces[uncovered]
            raise ValueError(
                f"face {sorted(uncovered)} covers nothing of dimension {d - 1}")

    def dumps(self) -> str:
        return json.dumps(self.to_json(), separators=(",", ":"))


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _generators(family, facets, full: int) -> list:
    """The facets plus every member of ``family`` that is not the
    intersection of the facets containing it (the empty intersection being
    ``full``).  Every member is then the intersection of the generators
    containing it.  All masks lie below ``full``; ``facets`` may be any
    subset of the family, as the exceptions join the generators.
    """
    gens = list(facets)
    for x in family:
        meet = full
        for p in facets:
            if x & p == x:
                meet &= p
        if meet != x:
            gens.append(x)
    return gens


def _flag_vector_dp(lat: FaceLattice) -> "FlagVector":
    """Count the chains of every dimension set in one pass over the faces.

    An index from each vertex to the bitset of faces containing it gives,
    by one AND over a face's vertices, every face above it: those one level
    up are its covers, and their number over all faces is the exact count
    of comparable pairs.  The faces below g, as a bitset, are its covers
    and the faces below them.  A family in which some face lies above
    another with no face of the dimension in between (``validate`` accepts
    some) misses pairs that way, and raises ValueError.

    Z[g] packs the chains ending at g into one int, one slot of ``width``
    bits per dimension set (a bitmask): Z[g] = (1 + sum of Z[f] over f
    below g), shifted up by 2^dim(g) slots.  ``width`` exceeds the bit
    length of prod(f_d + 1), which bounds every count, so no slot carries.
    Faces with equal Z share one bitset, so the sum costs one AND and one
    bit count per distinct value below g: at most 20 on a generator word
    of dimension 6 and 88 on a basis word of dimension 9, and up to one
    per face below on a family whose faces all differ.
    """
    n = lat.n
    if n <= 0:
        return FlagVector(n, (1,))
    levels = [[] for _ in range(n + 1)]  # the last stays empty
    for f, d in lat.faces.items():
        if 0 <= d < n:
            levels[d].append(f)
    faces = [f for lv in levels for f in lv]
    sizes = [len(lv) for lv in levels]
    start = list(accumulate(sizes, initial=0))
    index = dict.fromkeys(lat.vertices, 0)
    for i, f in enumerate(faces):
        for v in f:
            index[v] |= 1 << i

    def up(f):
        """Bitset of the faces containing face f, f included."""
        return reduce(and_, map(index.__getitem__, faces[f]))

    width = prod(s + 1 for s in sizes).bit_length()
    down = [0] * len(faces)
    classes = {}  # Z value -> bitset of the faces with that Z
    total, found, pairs = 1, 0, 0
    for d in range(n):
        top, shift, cover = start[d + 1], width << d, (1 << sizes[d + 1]) - 1
        lower = list(classes.items())
        for g in range(start[d], top):
            below, down[g] = down[g], 0
            z = 1
            for value, members in lower:
                z += value * (below & members).bit_count()
            z <<= shift
            classes[z] = classes.get(z, 0) | 1 << g
            found += below.bit_count()
            higher = up(g) >> top
            pairs += higher.bit_count()
            below |= 1 << g
            covers = higher & cover
            while covers:
                low = covers & -covers
                down[top + low.bit_length() - 1] |= below
                covers ^= low
    if found != pairs:
        raise ValueError(_skipped_dimension(faces, start, up))
    total += sum(z * members.bit_count() for z, members in classes.items())
    slot = (1 << width) - 1
    return FlagVector(n, tuple(total >> S * width & slot
                             for S in range(1 << n)))


def _skipped_dimension(faces, start, up) -> str:
    """Name a face f and a face g above it, two or more levels up, that
    lies above no cover of f.  Chains through covers reach every pair of
    comparable faces unless there is such a pair."""
    for d in range(len(start) - 2):
        for f in range(start[d], start[d + 1]):
            above = up(f)
            covers = above & (1 << start[d + 2]) - (1 << start[d + 1])
            reached = 0  # the faces above a cover of f
            while covers:
                low = covers & -covers
                reached |= up(low.bit_length() - 1)
                covers ^= low
            missed = (above & ~reached) >> start[d + 2]
            if missed:
                g = start[d + 2] + (missed & -missed).bit_length() - 1
                return (f"face {sorted(faces[g])} of dimension "
                        f"{bisect_right(start, g) - 1} lies above face "
                        f"{sorted(faces[f])} of dimension {d} with no face "
                        f"of dimension {d + 1} between them")


class FlagVector:
    """Exact chain counts of the dimension subsets of {0..n-1}, as one
    tuple in binary-counter order: entry S counts the chains whose
    dimension set is the set of bits of S.  A lattice of dimension n <= 0
    has the one entry, for the empty set."""

    __slots__ = ("n", "counts")

    def __init__(self, n: int, counts: tuple):
        if not isinstance(counts, tuple):
            raise TypeError(f"flag vector counts must be a tuple, not "
                            f"{type(counts).__name__}")
        if len(counts) != 1 << max(n, 0):
            raise ValueError(f"a flag vector of dimension {n} has "
                             f"{1 << max(n, 0)} entries, got {len(counts)}")
        self.n = n
        self.counts = counts

    def __getitem__(self, S) -> int:
        key = 0
        for d in S:
            if not 0 <= d < self.n:
                return 0
            key |= 1 << d
        return self.counts[key]

    def subsets(self):
        """All dimension subsets in binary-counter order."""
        return [_subset(key, self.n) for key in range(len(self.counts))]

    def as_vector(self) -> list:
        return list(self.counts)

    def face_counts(self) -> list:
        return [self.counts[1 << i] for i in range(self.n)]

    def __eq__(self, other):
        return (isinstance(other, FlagVector) and self.n == other.n
                and self.counts == other.counts)

    def __hash__(self):
        return hash((self.n, self.counts))

    def __add__(self, other):
        if self.n != other.n:
            raise ValueError("flag vectors of unequal dimension")
        return FlagVector(self.n, tuple(map(add, self.counts, other.counts)))

    def scale(self, c) -> "FlagVector":
        return FlagVector(self.n, tuple(c * x for x in self.counts))

    def to_json(self) -> dict:
        return {"n": self.n,
                "entries": [{"set": sorted(S), "count": c}
                            for S, c in zip(self.subsets(), self.counts)]}

    def to_csv(self) -> str:
        lines = ["set,count"]
        for S, c in zip(self.subsets(), self.counts):
            lines.append(";".join(str(i) for i in sorted(S)) + f",{c}")
        return "\n".join(lines) + "\n"

    def __repr__(self):
        shown = {tuple(sorted(S)): c
                 for S, c in zip(self.subsets(), self.counts) if c}
        return f"<FlagVector n={self.n} {shown}>"


def _subset(key: int, n: int) -> frozenset:
    return frozenset(d for d in range(n) if key >> d & 1)


def empty_polytope() -> FaceLattice:
    return FaceLattice(-1, {frozenset(): -1})


def point() -> FaceLattice:
    return FaceLattice(0, {frozenset(): -1, frozenset({0}): 0})


def build(w: GeneratorWord) -> FaceLattice:
    """Right-to-left fold of the constructors over the point, anew each call."""
    lat = point()
    for op in reversed(w.ops):
        if op == "C":
            lat = lat.pyramid()
        elif op == "I":
            lat = lat.prism()
        else:
            lat = lat.bipyramid()
    return lat
