"""Concrete face lattices and brute-force flag counting.

A lattice stores each face as a vertex bitmask with its dimension, from the
empty face (mask 0, dim -1) up to the whole polytope (dim n), and the
sorted vertex ids: bit i is vertex ``ids[i]``.  The constructors (point,
pyramid, prism, bipyramid, join) work on masks and assign dimensions
explicitly, so grading never has to be recovered from the order; what they
build has the ids 0, ..., V - 1.  Frozen sets of vertex ids appear only at the
API: ``FaceLattice(n, faces)`` takes them, ``faces`` shows them (made on
first read, by no route) and ``link_classes`` returns them.  A message
names a face by its sorted ids.

Flag vectors count chains of proper nonempty faces; this is the oracle
against which the symbolic engine is checked.  One top-down pass
(``_chain_pass``) counts the chains and groups the nonempty faces into link
classes, of equal dimension and link flag vector, and counts for one face
of each class the faces of each class above it: the link route sums over
these.  A lattice caches the pass, so its fields are fixed.  A lattice made
by the constructors (``empty_polytope``, ``point`` and the operations on
lattices so made) is graded by construction and flagged so; only one from
``FaceLattice(n, faces)`` or ``from_json`` has the pass check that no face
skips a dimension, which keeps one up-set of O(F) bits per face of a level.
The empty polytope (dim -1, lone face the empty set) is the link of the
whole polytope along itself, and its pyramid is the point.

The intersection closure and the pairwise parts of ``validate`` check each
face against a generator set, not against every other face
(``_facet_pass``): the facets, plus any face that is not the intersection
of the facets containing it, which a polytope lattice, being coatomic, does
not have.  Each check costs O(F * |generators|) bitmask operations and
allocates nothing of size F * F.
"""

from __future__ import annotations

from collections import Counter
from functools import cache, reduce
from itertools import accumulate, compress
from math import prod
from operator import add, or_
from types import MappingProxyType

from ._frozen import Frozen
from .words import GeneratorWord


class FaceLattice:
    """Faces as vertex bitmasks, ``_dims`` mapping each to its dimension
    and bit i being vertex ``_ids[i]``; ``_faces`` keeps ``faces`` once read.
    No field can be assigned or deleted, so the cached pass cannot go stale.
    Only the constructors set ``_graded``, through ``_built``."""

    __slots__ = ("n", "_dims", "_ids", "_faces", "_pass", "_graded")

    __setattr__ = Frozen.__setattr__
    __delattr__ = Frozen.__delattr__

    def __init__(self, n: int, faces: dict):
        ids = sorted(set().union(*faces))
        bit = {v: 1 << i for i, v in enumerate(ids)}
        # the bits of distinct vertices are distinct, so a sum is a union
        dims = {sum(map(bit.__getitem__, f)): d for f, d in faces.items()}
        _built(n, dims, tuple(ids), False, self)
        if self._dims.get(0) != -1:
            raise ValueError("the empty face of dimension -1 is mandatory")

    @property
    def faces(self) -> MappingProxyType:
        """The faces as frozen sets of vertex ids, with their dimensions,
        made on first read and kept; no route reads them."""
        if self._faces is None:
            verts = _lister(self._ids)
            object.__setattr__(self, "_faces", MappingProxyType(
                {frozenset(verts(m)): d for m, d in self._dims.items()}))
        return self._faces

    @property
    def vertices(self) -> list:
        verts = _lister(self._ids)
        return sorted(v for m, d in self._dims.items() if d == 0 for v in verts(m))

    @property
    def full_face(self) -> frozenset:
        m = next((m for m, d in self._dims.items() if d == self.n), None)
        if m is None:
            raise ValueError("no full face present")
        return frozenset(_lister(self._ids)(m))

    def face_counts(self) -> list:
        """[f_0, ..., f_{n-1}]: proper nonempty face counts by dimension."""
        count = Counter(self._dims.values())
        return [count[d] for d in range(self.n)]

    def __len__(self):
        return len(self._dims)

    # -- constructions -----------------------------------------------------

    def pyramid(self) -> "FaceLattice":
        """Cone: every face reappears, and again joined to a new apex, the
        next bit."""
        apex = 1 << len(self._ids)
        dims = self._dims | {m | apex: d + 1 for m, d in self._dims.items()}
        ids = (*self._ids, max(self._ids, default=-1) + 1)
        return _built(self.n + 1, dims, ids, self._graded)

    def prism(self) -> "FaceLattice":
        """Cylinder: two copies of each face, bit i going to bits 2i and
        2i + 1, plus their product with the interval."""
        dims = {0: -1}
        for m, d in self._dims.items():
            if d != -1:
                lo = int("0".join(format(m, "b")), 2)
                dims[lo] = dims[lo << 1] = d
                dims[lo | lo << 1] = d + 1
        ids = tuple(x for v in self._ids for x in (2 * v, 2 * v + 1))
        return _built(self.n + 1, dims, ids, self._graded)

    def bipyramid(self) -> "FaceLattice":
        """Two new apexes, the next two bits, over every proper face; the
        new full face is their union, and the base is not a face."""
        p, v = 1 << len(self._ids), max(self._ids, default=-1) + 1
        dims, full = {}, p | p << 1
        for m, d in self._dims.items():
            if d != self.n:
                dims[m] = d
                dims[m | p] = dims[m | p << 1] = d + 1
                full |= m
        dims[full] = self.n + 1
        return _built(self.n + 1, dims, (*self._ids, v, v + 1), self._graded)

    def join(self, other: "FaceLattice") -> "FaceLattice":
        """All unions of a face from each factor, the second's bits above
        the first's and its ids after them; dimensions add plus one."""
        shift = len(self._ids)
        dims = {m1 | m2 << shift: d1 + d2 + 1 for m1, d1 in self._dims.items()
                for m2, d2 in other._dims.items()}
        # the first id of ``other`` goes past the last of ``self``
        base = max(self._ids, default=-1) + 1 - min((0, *other._ids[:1]))
        ids = (*self._ids, *(base + v for v in other._ids))
        return _built(self.n + other.n + 1, dims, ids,
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
        _, width, classes, full, *_ = self._pass
        if full is None:
            raise ValueError("no full face present")
        verts, out = _lister(self._ids), []
        for d, f, count, z in classes:
            m = self.n - 1 - d  # the link's dimension
            out.append((d, frozenset(verts(f)), count,
                        _unpack(z >> (width << m), m, width)))
        return [*out, (self.n, frozenset(verts(full)), 1, FlagVector(-1, (1,)))]

    def interval_counts(self) -> tuple:
        """One row per ``link_classes`` entry, for its face, then one for
        the empty face: (class, how many of its faces lie above) for each
        class above, the whole polytope, last of the classes, included as
        (its index, 1).  The whole polytope's row is (); the empty
        polytope's table is ((),).  ValueError if no face is full, or if an
        interval of length 2 is not a diamond."""
        self.flag_vector()
        _, _, _, full, rows, thin = self._pass
        if full is None:
            raise ValueError("no full face present")
        if thin:
            lo, hi = map(_lister(self._ids), thin)
            raise ValueError(f"the interval from face {lo} to face {hi} is not "
                             "a diamond; not a polytope lattice")
        # the pass writes the proper classes' rows, then the empty face's
        whole = ((len(rows) - 1, 1),)
        return (*(r + whole for r in rows[:-1]), (),
                *(r + whole for r in rows[-1:]))

    # -- checks used by the oracle suites -----------------------------------

    def euler_ok(self) -> bool:
        fc = self.face_counts()
        alt = sum((-1) ** i * c for i, c in enumerate(fc))
        return alt == 1 - (-1) ** self.n

    def closed_under_intersection(self) -> bool:
        """Whether the proper faces, the empty set and the union of the
        vertex faces are closed under pairwise intersection, by one loop
        over the facets (``_facet_pass``)."""
        n, full = self.n, _vertex_union(self)
        # a proper face keeps its dimension, and the empty set -1
        dim_of = {full: n, 0: -1} | {
            m: d for m, d in self._dims.items() if 0 <= d < n}
        facets = [m for m, d in dim_of.items() if d == n - 1]
        return _facet_pass(dim_of, facets, full) is not None

    def vertex_edge_degrees(self) -> dict:
        verts = _lister(self._ids)
        ends = [v for m, d in self._dims.items() if d == 1 for v in verts(m)]
        return {v: ends.count(v) for v in self.vertices}

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        verts, by_dim = _lister(self._ids), {}
        for m, d in self._dims.items():
            by_dim.setdefault(d, []).append(verts(m))
        return {"n": self.n,
                "faces": [{"verts": vs, "dim": d} for d in sorted(by_dim)
                          for vs in sorted(by_dim[d])]}

    @classmethod
    def from_json(cls, data, validate=True) -> "FaceLattice":
        """Inverse of ``to_json``.  A document of the wrong shape raises
        ValueError naming the offending entry."""
        if not isinstance(data, dict) or not _is_int(data.get("n")):
            raise ValueError("lattice JSON needs an integer 'n'")
        if not isinstance(data.get("faces"), list):
            raise ValueError("lattice JSON needs a list 'faces'")
        faces = {}  # each entry adds one, so the entries index its keys
        for i, item in enumerate(data["faces"]):
            if not (isinstance(item, dict) and _is_int(item.get("dim"))
                    and isinstance(item.get("verts"), list)
                    and (_INT.issuperset(map(type, item["verts"]))
                         or all(_is_int(v) for v in item["verts"]))):
                raise ValueError(
                    f"lattice JSON faces[{i}] = {item!r:.80}: "
                    "need an integer 'dim' and a list of integer 'verts'")
            verts = frozenset(item["verts"])
            if verts in faces:
                raise ValueError(
                    f"lattice JSON faces[{list(faces).index(verts)}] and "
                    f"faces[{i}] both list the vertex set {sorted(verts)}")
            faces[verts] = item["dim"]
        lat = cls(data["n"], faces)
        if validate:
            lat.validate()
        return lat

    def validate(self):
        """Structural invariants: grading, vertex atoms, closure.

        The per-face checks come first, then that every face lies below a
        single face of dimension n, which is then the union of the vertex
        faces.  Three exact checks of the faces against the generator set
        follow, made together by ``_facet_pass``: one loop of the F faces
        against the facets, O(F * facets), rerun off polytopes only:

        - closure: ``x & m`` is a face for every face x and generator m;
        - containment raises dimension: with closure known, iff
          ``dim(g & m) < dim g`` for every face g and generator m not
          containing g;
        - each face of dimension d >= 0 covers one of dimension d - 1: one
          of those ``g & m`` has dimension d - 1.

        A closure failure anywhere is reported first, then containment,
        then the first uncovered face by dimension; so an input that breaks
        both closure and containment is reported as not closed under
        intersection.
        """
        n, dims, verts = self.n, self._dims, _lister(self._ids)
        if n not in dims.values():
            raise ValueError("full face missing")
        for m, d in dims.items():
            if not (-1 <= d <= n):
                raise ValueError(f"face dimension {d} out of range")
            if d == -1 and m:
                raise ValueError("only the empty set may have dimension -1")
        known = reduce(or_, (m for m, d in dims.items() if d == 0), 0)
        for m, d in dims.items():
            if d == 0 and m & (m - 1):
                raise ValueError("a vertex face must be a singleton")
            if m & ~known and d >= 0:
                raise ValueError(f"face {verts(m)} uses unknown vertices")
        full = next(m for m, d in dims.items() if d == n)
        for m in dims:
            if m & ~full:
                raise ValueError(f"face {verts(m)} is not below the full face")
        if sum(d == n for d in dims.values()) > 1:
            raise ValueError("containment must raise dimension")

        verdict = _facet_pass(
            dims, [m for m, d in dims.items() if d == n - 1], full)
        if verdict is None:
            raise ValueError("face set is not closed under intersection")
        contained, uncovered = verdict
        if not contained:
            raise ValueError("containment must raise dimension")
        if uncovered:  # the first by dimension, then in the face order
            g = min(uncovered, key=dims.__getitem__)
            raise ValueError(
                f"face {verts(g)} covers nothing of dimension {dims[g] - 1}")

    def dumps(self) -> str:
        import json
        return json.dumps(self.to_json(), separators=(",", ":"))


_INT = frozenset({int})  # the exact type of most vertex ids
# the most bits the chain pass holds in its class values before it refuses:
# 8 times the 2^23 that CCCCCCCCCCCCIC (40 960 faces) takes, where
# BICICICICICC (83 980 faces) takes 2^22
_MAX_CLASS_BITS = 1 << 26
_SELECT = bytes.maketrans(b"01", b"\0\1")  # binary digits as 0/1 selectors


def _built(n: int, dims: dict, ids: tuple, graded: bool,
           lat: FaceLattice = None) -> FaceLattice:
    """The lattice of these masks and ids (set on ``lat`` if given), graded
    by construction when a constructor made it from bases that were."""
    lat = object.__new__(FaceLattice) if lat is None else lat
    # in the order of __slots__: no faces read yet, no pass yet
    for name, value in zip(lat.__slots__, (n, dims, ids, None, None, graded)):
        object.__setattr__(lat, name, value)
    return lat


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _lister(values):
    """A function from a mask to a new list of the values at its set bits,
    lowest first, joined from the memos of the mask's two halves."""
    h = len(values) // 2
    lo, hi, low = _memo(values[:h]), _memo(values[h:]), (1 << h) - 1
    return lambda m: [*lo(m & low), *hi(m >> h)]


def _memo(values):
    """``_lister`` of these values, keeping each result as a tuple."""
    if len(values) > 16:
        return cache(lambda m, of=_lister(values): tuple(of(m)))
    return cache(lambda m: tuple(
        compress(values, bin(m)[:1:-1].encode().translate(_SELECT))))


def _vertex_union(lat: FaceLattice) -> int:
    """The union of the vertex faces.  A proper face using another vertex
    raises ValueError, with the message of ``validate``."""
    known = reduce(or_, (m for m, d in lat._dims.items() if d == 0), 0)
    for m, d in lat._dims.items():
        if 0 <= d < lat.n and m & ~known:
            raise ValueError(f"face {_lister(lat._ids)(m)} uses unknown vertices")
    return known


def _facet_pass(dim_of: dict, generators: list, full: int):
    """Closure, containment and covers of a family of bitmasks, checked
    in one loop over the generators.

    ``dim_of`` maps every member, a submask of ``full``, to its dimension;
    ``generators`` may be any list of members, at first the facets.  Each
    member x is met with those containing it (the empty meet being
    ``full``), and of the others only the highest dimension of x & m is
    kept.  If every member is the meet of the generators containing it, the
    family is closed iff x & m is a member for every member x and generator
    m.  If not, the loop reruns once with those other members added to the
    generators, and stops: an added member is its own meet, and more
    generators cannot change a meet that is already the member.  On a
    polytope lattice, which is coatomic, the loop runs once.

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

    The faces are indexed top level first, then the empty face as level n.
    Each face's vertices are listed once: the AND of their index entries
    (the faces so far on the vertex) is its up-set, the faces above it, and
    the face then joins them.  Those one level up are its covers.  Off the
    constructors (no ``_graded`` flag), a proper face using a vertex of no
    vertex face raises ValueError as in ``validate``, and so does a proper
    face whose up-set is not its covers and their up-sets: one lying above
    another with no face of the dimension in between, which ``validate``
    accepts.  That check keeps the up-sets of the level above, O(F) bits
    each, and from them notes, refusing nothing, the first interval of
    length 2 that is not a diamond: a face two levels up over other than two
    covers, or a ridge in other than two facets.  A lattice graded by
    construction passes both, so it skips them and keeps no up-set.

    Z[f] packs the chains starting at f into one int, one slot of ``width``
    bits per dimension set, with dimension d at bit n - 1 - d of the slot's
    set, so the values of the few high faces stay short: Z[f] = (1 + sum of
    Z[g] over g above f), shifted up by 2^(n - 1 - dim f) slots.  ``width``
    exceeds the bit length of prod(f_d + 1), which bounds every count, so
    no slot carries.  Faces with equal Z share one bitset, so the sum costs
    one AND and one bit count per distinct value above f.  Equal Z means
    one dimension and equal chain counts up to the whole polytope, so the
    classes of equal Z are the link classes; with m = n - 1 - dim f,
    Z[f] >> (width << m) is the packed total of the link, of dimension m.
    A level's faces are classed by Z before the level's shift, and each
    class's Z is shifted once.  The bits of the Z values roughly double per
    level, so the pass raises ValueError, naming the lattice's dimension
    and the bound, before a new class would take them past
    ``_MAX_CLASS_BITS``.  The first face of each class, and the empty face,
    whose unshifted Z is the total, write a row of those bit counts: (class,
    count) for each class above with a face in the up-set.

    Returns the flag vector, ``width``, for each class (dimension, the mask
    of a face of it, its size, Z), the whole polytope's mask (None if no
    face has dimension n), the rows, and the first interval that is not a
    diamond as (lower mask, upper mask), or None.
    """
    n, dims, full, graded = lat.n, lat._dims, None, lat._graded
    verts = _lister(lat._ids)
    if not graded:
        _vertex_union(lat)
    levels = [[] for _ in range(n)]  # levels[k] holds dimension n - 1 - k
    for m, d in dims.items():
        if 0 <= d < n:
            levels[n - 1 - d].append(m)
        elif d == n and full is None:
            full = m
    width = prod(len(lv) + 1 for lv in levels).bit_length()
    faces = [m for lv in levels for m in lv] + [0]  # the empty face last
    start = list(accumulate(map(len, levels), initial=0)) + [len(faces)]
    del levels  # the faces hold them, in order
    index = dict.fromkeys(lat._ids, 0)
    classes = {}  # Z value -> bitset of the faces with that Z
    held, z = 0, 1  # the bits of the Z values so far; z ends as the total
    # the up-sets of the level above (unflagged), each with its face; the
    # rows; the first interval of length 2 that is not a diamond
    ups, rows, thin = [], [], None
    for k in range(n + 1):
        higher, shift, level_ups = list(classes.items()), width << k, []
        level = {}  # Z >> shift -> bitset, for the faces of this level
        above = (1 << start[k]) - 1
        span = (1 << start[k - 1]) - (1 << start[k - 2]) if k > 1 else 0
        for f in range(start[k], start[k + 1]):
            bit, up = 1 << f, above
            for v in verts(faces[f]):
                up &= index[v]
                index[v] |= bit
            if not graded:
                # the faces above 1, 2 and 3+ covers (up is 0 when k is 0)
                covers, reached, two, many = up >> start[k - 1], 0, 0, 0
                while covers:
                    low = covers & -covers
                    u = ups[low.bit_length() - 1]
                    many |= two & u
                    two |= reached & u
                    reached |= u
                    covers ^= low
                if reached != up and k < n:
                    g = faces[(up & ~reached).bit_length() - 1]
                    raise ValueError(
                        f"face {verts(g)} of dimension {dims[g]} lies above "
                        f"face {verts(faces[f])} of dimension {n - 1 - k} "
                        f"with no face of dimension {n - k} between them")
                level_ups.append(up | bit)
                odd = (up ^ two | many) & span
                if thin is None and (odd or k == 1 and up.bit_count() != 2):
                    thin = faces[f], faces[odd.bit_length() - 1] if odd else full
            z = 1
            for value, members in higher:
                z += value * (up & members).bit_count()
            if z not in level:  # a new class, or the empty face: its row
                rows.append(tuple((j, c) for j, (_, members) in enumerate(higher)
                                  if (c := (up & members).bit_count())))
                if k == n:
                    break
                held += shift + z.bit_length()  # Z has shift more bits
                if held > _MAX_CLASS_BITS:
                    raise ValueError(
                        f"counting the flags of this dimension-{n} lattice "
                        f"would hold over {_MAX_CLASS_BITS} bits of chain "
                        f"counts, reached at its faces of dimension {n - 1 - k}")
            level[z] = level.get(z, 0) | bit
        classes.update((z << shift, members) for z, members in level.items())
        ups = level_ups
    reps = []
    for value, members in classes.items():
        f = faces[(members & -members).bit_length() - 1]
        reps.append((dims[f], f, members.bit_count(), value))
    return _unpack(z, n, width), width, tuple(reps), full, tuple(rows), thin


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
        return [frozenset(S) for S, _ in self._entries()]

    def _entries(self):
        """Each entry's dimension set, sorted, with its count."""
        return [([d for d in range(self.n) if key >> d & 1], c)
                for key, c in enumerate(self.counts)]

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
        return {"n": self.n, "entries": [{"set": S, "count": c}
                                         for S, c in self._entries()]}

    def to_csv(self) -> str:
        return "set,count\n" + "".join(
            f"{';'.join(map(str, S))},{c}\n" for S, c in self._entries())

    def render(self) -> str:
        """One line per entry, ``f{0,2} = 16``, in binary-counter order."""
        return "\n".join("f{" + ",".join(map(str, S)) + f"}} = {c}"
                         for S, c in self._entries())

    def __repr__(self):
        shown = {tuple(S): c for S, c in self._entries() if c}
        return f"<FlagVector n={self.n} {shown}>"


def empty_polytope() -> FaceLattice:
    return _built(-1, {0: -1}, range(0), True)


def point() -> FaceLattice:
    return _built(0, {0: -1, 1: 0}, range(1), True)


def build(w: GeneratorWord) -> FaceLattice:
    """Right-to-left fold of the constructors over the point, anew each call."""
    lat = point()
    for op in reversed(w.ops):
        lat = getattr(lat, {"C": "pyramid", "I": "prism"}.get(op, "bipyramid"))()
    return lat
