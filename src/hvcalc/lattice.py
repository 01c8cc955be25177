"""Concrete face lattices and brute-force flag counting.

A lattice stores every face as a frozen set of integer vertex ids together
with its dimension, from the empty face (dim -1) up to the whole polytope
(dim n).  Constructors for the point, pyramid, prism, bipyramid and join
assign dimensions explicitly, so grading never has to be recovered from the
order.  Flag vectors are obtained by counting chains of proper nonempty
faces; this is the combinatorial oracle against which the symbolic engine
is checked.  One top-down pass (``_chain_pass``) counts the chains and
groups the nonempty faces into link classes, of equal dimension and equal
link flag vector, which the link route sums over, each with its link's
flag vector in its packed counts.  A lattice caches the pass, so its faces
are a read-only mapping.

A lattice made by the constructors (``empty_polytope``, ``point`` and the
operations on lattices so made) is graded by construction and carries a
private flag that says so.  Only a lattice without it, from
``FaceLattice(n, faces)`` or ``from_json``, has the pass check that no face
skips a dimension, which keeps one up-set of O(F) bits per face of a level.

The empty polytope (dim -1, lone face = the empty set) is a legal lattice:
it shows up as the link of the whole polytope along itself, and its pyramid
is the point.

The intersection closure and the pairwise parts of ``validate`` are checked
on one family of vertex bitmasks (``FaceLattice._family``) against a
generator set rather than against every pair of faces, in one loop of each
face against the generators (``_facet_pass``).  Every face of a polytope is
the intersection of the facets containing it (coatomicity), so the
generators are the facets plus any member that is not such an
intersection.  The loop finds those extra generators, and reruns with
them added; a polytope lattice has none.  Each check costs
O(F * |generators|) bitmask operations for F faces, O(F * facets) on a
polytope lattice, and allocates nothing of size F * F.
"""

from __future__ import annotations

from functools import reduce
from itertools import accumulate
from math import prod
from operator import add, and_
from types import MappingProxyType

from ._frozen import Frozen
from .words import GeneratorWord


class FaceLattice:
    """Faces as vertex subsets with explicit dimensions, fixed once built:
    no field can be assigned or deleted, so the cached pass cannot go stale.
    Only the constructors set ``_graded``, through ``_built``."""

    __slots__ = ("n", "faces", "_pass", "_graded")

    __setattr__ = Frozen.__setattr__
    __delattr__ = Frozen.__delattr__

    def __init__(self, n: int, faces: dict):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "faces", MappingProxyType(dict(faces)))
        object.__setattr__(self, "_pass", None)
        object.__setattr__(self, "_graded", False)
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
        for d in self.faces.values():
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
        return _built(self.n + 1, faces, self._graded)

    def prism(self) -> "FaceLattice":
        """Cylinder: two shifted copies of each face plus their product
        with the interval."""
        faces = {frozenset(): -1}
        for f, d in self.faces.items():
            if d == -1:
                continue
            evens = [2 * v for v in f]
            lo = frozenset(evens)
            hi = frozenset([v + 1 for v in evens])
            faces[lo] = faces[hi] = d
            faces[lo | hi] = d + 1
        return _built(self.n + 1, faces, self._graded)

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
        return _built(self.n + 1, faces, self._graded)

    def join(self, other: "FaceLattice") -> "FaceLattice":
        """All unions of a face from each factor; dimensions add plus one."""
        shift = self._fresh_vertex()
        faces = {}
        for f1, d1 in self.faces.items():
            for f2, d2 in other.faces.items():
                faces[f1 | frozenset(shift + v for v in f2)] = d1 + d2 + 1
        return _built(self.n + other.n + 1, faces,
                      self._graded and other._graded)

    # -- flag counting -----------------------------------------------------

    def flag_vector(self) -> "FlagVector":
        if self._pass is None:
            object.__setattr__(self, "_pass", _chain_pass(self))
        return self._pass[0]

    def link_classes(self) -> list:
        """The nonempty faces grouped by dimension and link flag vector, as
        (dimension, a face of the class, its size, the link flag vector,
        unpacked here from the pass), the whole polytope last by itself."""
        if self.n < 0:
            return []
        self.flag_vector()
        _, width, classes, full = self._pass
        if full is None:
            raise ValueError("no full face present")
        out = []
        for d, f, count, z in classes:
            m = self.n - 1 - d  # the link's dimension
            out.append((d, f, count, _unpack(z >> (width << m), m, width)))
        return [*out, (self.n, full, 1, FlagVector(-1, (1,)))]

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
        for g, d in above:
            fa = frozenset(aidx[a] for a in atoms if a <= g)
            if fa in faces:
                raise ValueError("interval is not atomic; not a polytope lattice")
            faces[fa] = d - d0 - 1
        return _built(self.n - d0 - 1, faces, self._graded)

    # -- checks used by the oracle suites -----------------------------------

    def euler_ok(self) -> bool:
        fc = self.face_counts()
        alt = sum((-1) ** i * c for i, c in enumerate(fc))
        return alt == 1 - (-1) ** self.n

    def closed_under_intersection(self) -> bool:
        """Whether the proper faces, the empty set and the whole vertex set
        are closed under pairwise intersection: one loop over the facets,
        O(F * facets), rerun only off polytope lattices (``_facet_pass``)."""
        return _facet_pass(*self._family()) is not None

    def _family(self) -> tuple:
        """``(dim_of, facets, full)`` for ``_facet_pass``: the proper faces
        as vertex bitmasks in the order of ``faces``, then the empty set at
        -1 and the whole vertex set ``full`` at n; the facets are the
        members of dimension n - 1, for the point the empty set.  ``full``
        spans the whole vertex list, so every member is a submask of it
        even when one vertex id sits in two vertex faces."""
        verts = self.vertices
        bit = {v: 1 << i for i, v in enumerate(verts)}
        # the bits of distinct vertices are distinct, so a sum is a union
        dim_of = {sum(map(bit.__getitem__, f)): d
                  for f, d in self.faces.items() if 0 <= d < self.n}
        full = (1 << len(verts)) - 1
        dim_of.setdefault(0, -1)
        dim_of.setdefault(full, self.n)
        facets = [m for m, d in dim_of.items() if d == self.n - 1]
        return dim_of, facets, full

    def vertex_edge_degrees(self) -> dict:
        degs = {v: 0 for v in self.vertices}
        for f, d in self.faces.items():
            if d == 1:
                for v in f:
                    degs[v] += 1
        return degs

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        by_dim = {}
        for f, d in self.faces.items():
            by_dim.setdefault(d, []).append(sorted(f))
        return {"n": self.n,
                "faces": [{"verts": verts, "dim": d} for d in sorted(by_dim)
                          for verts in sorted(by_dim[d])]}

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
                    and (_INT.issuperset(map(type, item["verts"]))
                         or all(_is_int(v) for v in item["verts"]))):
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
        generator set follow, made together by ``_facet_pass`` on the
        ``_family`` masks: one loop of the F faces against the facets,
        O(F * facets), rerun with the extra generators off polytopes only:

        - closure: ``x & m`` is a face for every face x and generator m;
        - containment raises dimension: with closure known, it holds iff
          ``dim(g & m) < dim g`` for every face g and every generator m
          not containing g;
        - every face of dimension d >= 0 covers a face of dimension d - 1:
          one of those ``g & m`` has dimension d - 1.

        A closure failure anywhere is reported first, then containment,
        then the first uncovered face by dimension; so an input that breaks
        both closure and containment is reported as not closed under
        intersection.
        """
        if self.n not in self.faces.values():
            raise ValueError("full face missing")
        for f, d in self.faces.items():
            if not (-1 <= d <= self.n):
                raise ValueError(f"face dimension {d} out of range")
            if d == -1 and f:
                raise ValueError("only the empty set may have dimension -1")
        verts = self.vertices
        vs = set(verts)
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

        # vertices are distinct singletons and make up the full face, so
        # the family holds every face, those of one dimension in order
        family = self._family()
        verdict = _facet_pass(*family)
        if verdict is None:
            raise ValueError("face set is not closed under intersection")
        contained, uncovered = verdict
        if not contained:
            raise ValueError("containment must raise dimension")
        # each face covers some face one dimension lower; a face may still
        # lie directly above one two or more dimensions lower
        if uncovered:
            # the first by dimension, then in the order of the faces; its
            # bits, lowest first, are its vertices in increasing order
            dim_of = family[0]
            g = min(uncovered, key=dim_of.__getitem__)
            d = dim_of[g]
            face = [v for i, v in enumerate(verts) if g >> i & 1]
            raise ValueError(f"face {face} covers nothing of dimension {d - 1}")

    def dumps(self) -> str:
        import json
        return json.dumps(self.to_json(), separators=(",", ":"))


_INT = frozenset({int})  # the exact type of most vertex ids


def _built(n: int, faces: dict, graded: bool) -> FaceLattice:
    """``FaceLattice(n, faces)`` made by a constructor, flagged as graded by
    construction when ``graded``: when its bases were."""
    lat = FaceLattice(n, faces)
    object.__setattr__(lat, "_graded", graded)
    return lat


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _facet_pass(dim_of: dict, generators: list, full: int):
    """Closure, containment and covers of a family of bitmasks, checked
    in one loop over the generators.

    ``dim_of`` maps every member, a submask of ``full``, to its dimension;
    ``generators`` may be any list of members, at first the facets.  Each
    member x is taken once against them: those containing x are met as
    they come (the empty meet being ``full``), and of the others only the
    highest dimension of x & m is kept.  If every member is the meet of
    the generators containing it, the family is closed iff x & m is a
    member for every member x and generator m.  If not, the loop runs once
    more with those other members added to the generators, and that
    rerun stops: an added member contains itself, so its meet is itself,
    and more generators cannot change a meet that is already the member,
    as every member is a submask of ``full``.  On a polytope lattice,
    which is coatomic, the loop runs once.

    Returns None if the family is not closed.  Otherwise, with top(x) the
    highest dimension of x & m over the generators m not containing x (-2
    if there are none), returns ``(contained, uncovered)``: whether
    top(x) < dim x for every member, and the members with
    top(x) < dim x - 1, in the order of ``dim_of``.  Once containment
    holds, those are the members of dimension d >= 0 that cover nothing of
    dimension d - 1.
    """
    contained, uncovered, extra = True, [], []
    try:
        for x, d in dim_of.items():
            meet, top = full, -2
            for m in generators:
                y = x & m
                if y == x:
                    meet &= m
                else:
                    e = dim_of[y]  # KeyError: y is not a member
                    if e > top:
                        top = e
            if meet != x:
                extra.append(x)
            if top >= d:
                contained = False
            if top < d - 1:
                uncovered.append(x)
    except KeyError:
        return None
    if extra:
        return _facet_pass(dim_of, generators + extra, full)
    return contained, uncovered


def _chain_pass(lat: FaceLattice):
    """Count the chains of every dimension set, and class the proper faces
    by their links, in one pass over the faces from the top down.

    The faces are indexed top level first.  An index from each vertex to
    the bitset of faces containing it gives, by one AND over a face's
    vertices, its up-set: the faces above it.  Those one level up are its
    covers.  On a lattice not built by the constructors (no ``_graded``
    flag), the up-set of every face must be its covers and their up-sets;
    a family in which some face lies above another with no face of the
    dimension in between (``validate`` accepts some) fails that, and raises
    ValueError.  That check keeps the up-sets of the level above, O(F) bits
    for each of its faces; a lattice graded by construction cannot fail it,
    and skips it and keeps none.

    Z[f] packs the chains starting at f into one int, one slot of ``width``
    bits per dimension set, with dimension d at bit n - 1 - d of the slot's
    set, so the values of the few high faces stay short: Z[f] = (1 + sum of
    Z[g] over g above f), shifted up by 2^(n - 1 - dim f) slots.  ``width``
    exceeds the bit length of prod(f_d + 1), which bounds every count, so
    no slot carries.  Faces with equal Z share one bitset, so the sum costs
    one AND and one bit count per distinct value above f.  Equal Z means
    one dimension and equal chain counts of the interval up to the whole
    polytope, which is the link; so the classes of equal Z are the link
    classes.  With m = n - 1 - dim f, Z[f] >> (width << m) is the packed
    total of the link, of dimension m, which ``link_classes`` unpacks.

    Returns the flag vector, ``width``, for each class (dimension, a face
    of it, the number of faces in it, Z), and the whole polytope's face, or
    None if no face has dimension n.
    """
    n, full, graded = lat.n, None, lat._graded
    levels = [[] for _ in range(n)]  # levels[k] holds dimension n - 1 - k
    for f, d in lat.faces.items():
        if 0 <= d < n:
            levels[n - 1 - d].append(f)
        elif d == n and full is None:
            full = f
    if n <= 0:
        return FlagVector(n, (1,)), 0, (), full
    faces = [f for lv in levels for f in lv]
    start = list(accumulate(map(len, levels), initial=0))
    index = dict.fromkeys(lat.vertices, 0)
    for i, f in enumerate(faces):
        for v in f:
            index[v] |= 1 << i

    width = prod(len(lv) + 1 for lv in levels).bit_length()
    classes = {}  # Z value -> bitset of the faces with that Z
    ups = []  # unflagged: the up-sets of the level above, each with its face
    for k in range(n):
        higher, shift, level_ups = list(classes.items()), width << k, []
        above = (1 << start[k]) - 1
        for f in range(start[k], start[k + 1]):
            up = reduce(and_, map(index.__getitem__, faces[f])) & above
            if not graded:
                reached, covers = 0, up >> start[k - 1]  # up is 0 when k is 0
                while covers:
                    low = covers & -covers
                    reached |= ups[low.bit_length() - 1]
                    covers ^= low
                if reached != up:
                    g = faces[(up & ~reached).bit_length() - 1]
                    raise ValueError(
                        f"face {sorted(g)} of dimension {lat.faces[g]} lies "
                        f"above face {sorted(faces[f])} of dimension "
                        f"{n - 1 - k} with no face of dimension {n - k} "
                        "between them")
                level_ups.append(up | 1 << f)
            z = 1
            for value, members in higher:
                z += value * (up & members).bit_count()
            z <<= shift
            classes[z] = classes.get(z, 0) | 1 << f
        ups = level_ups
    total = 1 + sum(z * members.bit_count() for z, members in classes.items())
    reps = []
    for z, members in classes.items():
        f = faces[(members & -members).bit_length() - 1]
        reps.append((lat.faces[f], f, members.bit_count(), z))
    return _unpack(total, n, width), width, tuple(reps), full


def _unpack(total: int, n: int, width: int) -> "FlagVector":
    """The flag vector of dimension n >= 0 packed in ``total`` by
    ``_chain_pass``, one slot of ``width`` bits per dimension set."""
    slot, order = (1 << width) - 1, [0]  # order[S]: the slot of the set S
    for d in range(n):  # bit d of a set is bit n - 1 - d of its slot
        order += [k | 1 << n - 1 - d for k in order]
    return FlagVector(n, tuple(total >> k * width & slot for k in order))


class FlagVector(Frozen):
    """Exact chain counts of the dimension subsets of {0..n-1}, as one
    tuple in binary-counter order: entry S counts the chains whose
    dimension set is the set of bits of S.  A lattice of dimension n <= 0
    has the one entry, for the empty set.  Counts are exact, by the rule
    of h-vector coefficients."""

    __slots__ = ("n", "counts")

    def __init__(self, n: int, counts: tuple):
        if not isinstance(counts, tuple):
            raise TypeError(f"flag vector counts must be a tuple, not "
                            f"{type(counts).__name__}")
        if len(counts) != 1 << max(n, 0):
            raise ValueError(f"a flag vector of dimension {n} has "
                             f"{1 << max(n, 0)} entries, got {len(counts)}")
        if not _INT.issuperset(map(type, counts)):
            from .symbols import _exact
            counts = tuple(map(_exact, counts))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "counts", counts)

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
    return _built(-1, {frozenset(): -1}, True)


def point() -> FaceLattice:
    return _built(0, {frozenset(): -1, frozenset({0}): 0}, True)


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
