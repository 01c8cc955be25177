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
from functools import lru_cache

from .words import GeneratorWord


class FaceLattice:
    """Faces as vertex subsets with explicit dimensions."""

    __slots__ = ("n", "faces", "_flag", "_masks")

    def __init__(self, n: int, faces: dict):
        self.n = n
        self.faces = dict(faces)
        self._flag = None
        self._masks = None
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

    def _levels(self):
        """Proper nonempty faces grouped by dimension, as bitmasks."""
        if self._masks is not None:
            return self._masks
        verts = self.vertices
        vidx = {v: i for i, v in enumerate(verts)}
        levels = [[] for _ in range(max(self.n, 0))]
        for f, d in self.faces.items():
            if 0 <= d < self.n:
                mask = 0
                for v in f:
                    mask |= 1 << vidx[v]
                levels[d].append(mask)
        self._masks = [sorted(lv) for lv in levels]
        return self._masks

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

    def link_flag_vector(self, face) -> "FlagVector":
        return self.link(face).flag_vector()

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
        levels = self._levels()
        full = (1 << len(self.vertices)) - 1
        family = {m for lv in levels for m in lv} | {0, full}
        facets = levels[-1] if levels else []
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
            # maximal chains are saturated: each face covers one a dim lower
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
    """Count chains for every dimension subset by a shared DP.

    vec[S] holds per-face counts of chains with dimension set S ending at
    each face of level max(S); removing the top bit gives the subproblem.
    numpy is imported here, not at module level, because loading it takes
    about 0.1 s and nothing else in the package needs it.
    """
    import numpy as np

    n = lat.n
    counts = {frozenset(): 1}
    if n <= 0:
        return FlagVector(n, counts)
    levels = lat._levels()
    sizes = [len(lv) for lv in levels]
    use_np = len(lat.vertices) <= 63

    inc_cache = {}

    def incidence(lo: int, hi: int):
        key = (lo, hi)
        got = inc_cache.get(key)
        if got is not None:
            return got
        if use_np:
            a = np.array(levels[lo], dtype=np.uint64)
            b = np.array(levels[hi], dtype=np.uint64)
            mat = (np.bitwise_and.outer(a, b) == a[:, None])
            inc_cache[key] = mat
            return mat
        los, his = levels[lo], levels[hi]
        lists = [[i for i, f in enumerate(los) if f & g == f] for g in his]
        inc_cache[key] = lists
        return lists

    vec = {}
    for key in range(1, 1 << n):
        S = [d for d in range(n) if key >> d & 1]
        top = S[-1]
        subkey = key & ~(1 << top)
        if subkey == 0:
            v = (np.ones(sizes[top], dtype=np.int64) if use_np
                 else [1] * sizes[top])
        else:
            prev_top = S[-2]
            prev = vec[subkey]
            inc = incidence(prev_top, top)
            if use_np:
                v = inc.T.astype(np.int64) @ prev
            else:
                v = [sum(prev[i] for i in row) for row in inc]
        vec[key] = v
        total = int(v.sum()) if use_np else sum(v)
        counts[frozenset(S)] = total
    return FlagVector(n, counts)


class FlagVector:
    """Map from dimension subsets of {0..n-1} to exact chain counts."""

    __slots__ = ("n", "counts")

    def __init__(self, n: int, counts: dict):
        self.n = n
        full = {frozenset(): 1}
        for S, c in counts.items():
            full[frozenset(S)] = c
        if n >= 0:
            for key in range(1 << n):
                full.setdefault(_subset(key, n), 0)
        self.counts = full

    def __getitem__(self, S) -> int:
        return self.counts.get(frozenset(S), 0)

    def subsets(self):
        """All dimension subsets in binary-counter order."""
        if self.n < 0:
            return [frozenset()]
        return [_subset(key, self.n) for key in range(1 << self.n)]

    def as_vector(self) -> list:
        return [self.counts[S] for S in self.subsets()]

    def key(self):
        return (self.n, tuple(self.as_vector()))

    def face_counts(self) -> list:
        return [self[{i}] for i in range(self.n)] if self.n > 0 else []

    def __eq__(self, other):
        return (isinstance(other, FlagVector) and self.n == other.n
                and self.as_vector() == other.as_vector())

    def __hash__(self):
        return hash(self.key())

    def __add__(self, other):
        if self.n != other.n:
            raise ValueError("flag vectors of unequal dimension")
        return FlagVector(self.n, {S: self[S] + other[S]
                                   for S in self.subsets()})

    def scale(self, c) -> "FlagVector":
        return FlagVector(self.n, {S: c * self[S] for S in self.subsets()})

    def to_json(self) -> dict:
        return {"n": self.n,
                "entries": [{"set": sorted(S), "count": self[S]}
                            for S in self.subsets()]}

    def to_csv(self) -> str:
        lines = ["set,count"]
        for S in self.subsets():
            lines.append(";".join(str(i) for i in sorted(S)) + f",{self[S]}")
        return "\n".join(lines) + "\n"

    def __repr__(self):
        shown = {tuple(sorted(S)): c for S, c in self.counts.items() if c}
        return f"<FlagVector n={self.n} {shown}>"


def _subset(key: int, n: int) -> frozenset:
    return frozenset(d for d in range(n) if key >> d & 1)


def empty_polytope() -> FaceLattice:
    return FaceLattice(-1, {frozenset(): -1})


def point() -> FaceLattice:
    return FaceLattice(0, {frozenset(): -1, frozenset({0}): 0})


@lru_cache(maxsize=None)
def _build_cached(ops: str) -> FaceLattice:
    lat = point()
    for op in reversed(ops):
        if op == "C":
            lat = lat.pyramid()
        elif op == "I":
            lat = lat.prism()
        else:
            lat = lat.bipyramid()
    return lat


def build(w: GeneratorWord) -> FaceLattice:
    """Right-to-left fold of the constructors over the point."""
    return _build_cached(w.ops)


def pyramid(L: FaceLattice) -> FaceLattice:
    return L.pyramid()


def prism(L: FaceLattice) -> FaceLattice:
    return L.prism()


def bipyramid(L: FaceLattice) -> FaceLattice:
    return L.bipyramid()


def join(L1: FaceLattice, L2: FaceLattice) -> FaceLattice:
    return L1.join(L2)


def flag_vector(L: FaceLattice) -> FlagVector:
    return L.flag_vector()


def link_flag_vector(L: FaceLattice, face) -> FlagVector:
    return L.link_flag_vector(face)
