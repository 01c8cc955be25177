"""Face lattices, flag counting, links, serialization."""

import hashlib
import json
import random
import subprocess
import sys
import time
from collections import Counter
from enum import IntEnum
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

import hvcalc
from hvcalc import lattice
from hvcalc.lattice import FaceLattice, FlagVector, build, empty_polytope, point
from hvcalc.words import GeneratorWord as W
from hvcalc.words import all_words, words_up_to


def link(lat, face):
    """The interval from a nonempty face of ``lat`` to the whole polytope,
    built as a lattice in its own right: the per-face reference for the
    link classes of the chain pass.  Atoms of the interval become vertices,
    in the order of their sorted vertex lists."""
    bit, face = {v: 1 << i for i, v in enumerate(lat._ids)}, set(face)
    m = sum(map(bit.__getitem__, face)) if face.issubset(bit) else None
    d0 = lat._dims.get(m)
    if d0 is None:
        raise ValueError("link requested along a non-face")
    if d0 < 0:
        raise ValueError("link along the empty face is the polytope itself")
    above = [(g, d) for g, d in lat._dims.items() if d > d0 and g & m == m]
    atoms = sorted((g for g, d in above if d == d0 + 1),
                   key=lattice._lister(lat._ids))
    dims = {0: -1}
    for g, d in above:
        fa = sum(1 << i for i, a in enumerate(atoms) if g & a == a)
        if fa in dims:
            raise ValueError("interval is not atomic; not a polytope lattice")
        dims[fa] = d - d0 - 1
    return lattice._built(lat.n - d0 - 1, dims, range(len(atoms)),
                          lat._graded)


class TestConstructors:
    def test_point(self):
        p = point()
        assert p.n == 0 and len(p) == 2
        assert p.flag_vector()[frozenset()] == 1

    def test_pyramid_point_is_segment(self):
        seg = point().pyramid()
        assert seg.n == 1 and len(seg.vertices) == 2 and len(seg) == 4

    def test_segment_to_triangle(self):
        tri = point().pyramid().pyramid()
        assert tri.face_counts() == [3, 3]

    def test_full_face_missing(self):
        lat = FaceLattice(1, {frozenset(): -1, frozenset({0}): 0})
        with pytest.raises(ValueError, match="no full face"):
            lat.full_face()

    def test_square_pyramid(self):
        sp = build(W("CIC"))
        assert sp.face_counts() == [5, 8, 5]

    def test_prism(self):
        sq = point().pyramid().prism()
        assert sq.face_counts() == [4, 4]
        assert sq.flag_vector()[{0, 1}] == 8
        cube = build(W("IIC"))
        assert cube.face_counts() == [8, 12, 6]
        assert build(W("ICC")).face_counts() == [6, 9, 5]

    def test_bipyramid(self):
        octa = build(W("BIC"))
        assert octa.face_counts() == [6, 12, 8]
        assert build(W("BCC")).face_counts() == [5, 9, 6]
        # bipyramid over a segment is a quadrilateral
        square_b = point().pyramid().bipyramid()
        assert square_b.face_counts() == [4, 4]
        assert square_b.flag_vector() == build(W("IC")).flag_vector()

    def test_bipyramid_over_point(self):
        seg = point().bipyramid()
        assert seg.n == 1 and seg.face_counts() == [2]

    def test_join(self):
        seg = point().pyramid()
        tet = seg.join(seg)
        assert tet.face_counts() == [4, 6, 4]
        assert point().join(point()).face_counts() == [2]

    def test_join_point_is_pyramid(self):
        for ops in ["", "C", "IC", "CIC", "BIC"]:
            L = build(W(ops))
            assert L.join(point()).faces == L.pyramid().faces

    def test_face_count_identities(self):
        for ops in ["", "C", "IC", "CIC", "ICC", "BIC"]:
            L = build(W(ops))
            assert len(L.prism()) == 3 * len(L) - 2
            assert len(L.pyramid()) == 2 * len(L)

    def test_build_returns_a_fresh_lattice(self):
        w = W("BIC")
        first = build(w)
        second = build(w)
        assert second is not first
        assert (second.n, second.faces) == (first.n, first.faces)
        assert second.flag_vector() == first.flag_vector()
        expected = dict(first.faces)
        with pytest.raises(TypeError):
            first.faces[frozenset()] = -1
        third = build(w)
        assert third.faces == expected and second.faces == expected

    def test_empty_polytope(self):
        e = empty_polytope()
        assert e.n == -1
        assert e.flag_vector() == FlagVector(-1, (1,))
        assert e.pyramid().faces == point().faces


class TestFlagVector:
    def test_square(self):
        fv = build(W("IC")).flag_vector()
        assert fv[{0}] == 4 and fv[{1}] == 4 and fv[{0, 1}] == 8

    def test_octahedron_full_flags(self):
        assert build(W("BIC")).flag_vector()[{0, 1, 2}] == 48

    def test_square_pyramid_all_entries(self):
        fv = build(W("CIC")).flag_vector()
        want = {(): 1, (0,): 5, (1,): 8, (2,): 5,
                (0, 1): 16, (0, 2): 16, (1, 2): 16, (0, 1, 2): 32}
        assert {tuple(sorted(S)): fv[S] for S in fv.subsets()} == want

    def test_cube_chain_counts(self):
        fv = build(W("IIC")).flag_vector()
        assert fv[{0, 1}] == 24 and fv[{1, 2}] == 24 and fv[{0, 1, 2}] == 48

    def test_dual_pair_reverses_flags(self):
        octa = build(W("BIC")).flag_vector()
        cube = build(W("IIC")).flag_vector()
        for S in cube.subsets():
            reflected = frozenset(2 - s for s in S)
            assert cube[S] == octa[reflected], S

    def test_vector_order_is_binary_counter(self):
        fv = build(W("IC")).flag_vector()
        assert fv.as_vector() == [1, 4, 4, 8]

    def test_add_and_scale(self):
        fv = build(W("IC")).flag_vector()
        assert (fv + fv).as_vector() == fv.scale(2).as_vector()


class TestFlagVectorTuple:
    """One tuple of counts in binary-counter order."""

    def test_built_from_its_counts(self):
        fv = FlagVector(3, (1, 5, 8, 16, 5, 16, 16, 32))
        assert fv == build(W("CIC")).flag_vector()
        assert fv.counts == (1, 5, 8, 16, 5, 16, 16, 32)
        assert FlagVector(-1, (1,)) == empty_polytope().flag_vector()
        assert FlagVector(0, (1,)) == point().flag_vector()

    @pytest.mark.parametrize("n, counts", [
        (2, (1, 4, 4)), (2, (1, 4, 4, 8, 0)), (0, ()), (-1, (1, 1)),
    ])
    def test_wrong_length_refused(self, n, counts):
        with pytest.raises(ValueError, match="entries"):
            FlagVector(n, counts)

    def test_only_a_tuple(self):
        with pytest.raises(TypeError):
            FlagVector(1, [1, 2])
        with pytest.raises(TypeError):
            FlagVector(1, {frozenset(): 1, frozenset({0}): 2})

    @pytest.mark.parametrize("counts", [
        (1.0, 2.0, 2.0, 4.0), ("1", "2", "2", "4"), (True, 2, 2, 4),
        (1, 2, 2, None),
    ])
    def test_inexact_counts_refused(self, counts):
        with pytest.raises(TypeError, match="exact"):
            FlagVector(2, counts)

    def test_counts_exact_on_every_route(self):
        fv = FlagVector(2, (Fraction(2, 2), 2, Fraction(4, 2), 4))
        assert fv == FlagVector(2, (1, 2, 2, 4))
        assert [type(c) for c in fv.counts] == [int] * 4
        third = fv.scale(Fraction(1, 3))
        assert third.counts == (Fraction(1, 3), Fraction(2, 3),
                                Fraction(2, 3), Fraction(4, 3))
        assert [type(c) for c in third.scale(3).counts] == [int] * 4
        assert [type(c) for c in (third + third + third).counts] == [int] * 4
        with pytest.raises(TypeError, match="exact"):
            fv.scale(0.5)

    def test_linear_h_of_fraction_counts(self):
        from hvcalc.flaglin import linear_h
        fv = build(W("IC")).flag_vector()
        assert linear_h(fv.scale(Fraction(1, 3))).render() == "(1/3,2/3,1/3)"

    def test_dimensions_outside_the_range_count_zero(self):
        fv = build(W("CIC")).flag_vector()
        assert fv[{0, 5}] == fv[{-1}] == fv[{3}] == 0
        assert fv[[0, 0]] == fv[{0}] == 5 and fv[()] == 1
        assert empty_polytope().flag_vector()[{0}] == 0

    def test_eq_and_hash_agree(self):
        a = build(W("BIC")).flag_vector()
        b = FlagVector(3, tuple(a.as_vector()))
        c = FlagVector(3, tuple(x + (i == 7) for i, x in enumerate(a.counts)))
        assert a == b and hash(a) == hash(b)
        assert a != c
        assert a != FlagVector(2, a.counts[:4]) and a != a.as_vector()
        assert len({a, b, c}) == 2

    @pytest.mark.parametrize("lat", [empty_polytope(), point()],
                             ids=["n=-1", "n=0"])
    def test_render_of_the_lone_entry(self, lat):
        fv = lat.flag_vector()
        assert fv.render() == "f{} = 1"
        assert FlagVector(fv.n, (Fraction(3, 2),)).render() == "f{} = 3/2"
        assert fv.subsets() == [frozenset()]

    def test_as_vector_is_a_fresh_list(self):
        fv = build(W("IC")).flag_vector()
        v = fv.as_vector()
        v[0] = 99
        assert fv.as_vector() == [1, 4, 4, 8] and fv.as_vector() is not v

    def test_outputs_match_the_dict_form(self):
        # the outputs of the frozenset-keyed dict this tuple replaced
        fv = build(W("CIC")).flag_vector()
        want = [([], 1), ([0], 5), ([1], 8), ([0, 1], 16), ([2], 5),
                ([0, 2], 16), ([1, 2], 16), ([0, 1, 2], 32)]
        assert fv.to_json() == {"n": 3, "entries": [
            {"set": s, "count": c} for s, c in want]}
        assert fv.to_csv() == ("set,count\n,1\n0,5\n1,8\n0;1,16\n2,5\n"
                               "0;2,16\n1;2,16\n0;1;2,32\n")
        assert (fv + fv).as_vector() == [2, 10, 16, 32, 10, 32, 32, 64]
        half = fv.scale(Fraction(1, 2)).as_vector()
        assert half == [Fraction(c, 2) for _, c in want]
        assert repr(fv) == ("<FlagVector n=3 {(): 1, (0,): 5, (1,): 8, "
                            "(0, 1): 16, (2,): 5, (0, 2): 16, (1, 2): 16, "
                            "(0, 1, 2): 32}>")
        assert fv.render().splitlines() == [
            "f{%s} = %d" % (",".join(map(str, s)), c) for s, c in want]
        e = empty_polytope().flag_vector()
        assert e.to_json() == {"n": -1, "entries": [{"set": [], "count": 1}]}
        assert e.to_csv() == "set,count\n,1\n" and e.face_counts() == []
        with pytest.raises(ValueError):
            fv + e


class TestLinks:
    def test_cube_vertex_link_is_triangle(self):
        cube = build(W("IIC"))
        v = next(f for f, d in cube.faces.items() if d == 0)
        lk = link(cube, v)
        assert lk.n == 2 and lk.face_counts() == [3, 3]
        assert lk.flag_vector()[{0, 1}] == 6

    def test_octahedron_edge_link(self):
        octa = build(W("BIC"))
        e = next(f for f, d in octa.faces.items() if d == 1)
        fv = link(octa, e).flag_vector()
        assert fv.n == 1 and fv[{0}] == 2

    def test_full_face_link_is_empty_polytope(self):
        sq = build(W("IC"))
        lk = link(sq, sq.full_face)
        assert lk.n == -1 and lk.flag_vector() == FlagVector(-1, (1,))

    def test_facet_link_is_point(self):
        sq = build(W("IC"))
        e = next(f for f, d in sq.faces.items() if d == 1)
        assert link(sq, e).n == 0

    def test_non_face_rejected(self):
        sq = build(W("IC"))
        with pytest.raises(ValueError):
            link(sq, frozenset({0, 99}))
        with pytest.raises(ValueError):
            link(sq, frozenset())

    def test_simple_polytope_vertex_links_are_simplices(self):
        prism3 = build(W("ICC"))
        for f, d in prism3.faces.items():
            if d == 0:
                assert link(prism3, f).face_counts() == [3, 3]


class TestInvariantChecks:
    def test_euler(self):
        for w in words_up_to(5, "ICB"):
            assert build(w).euler_ok(), w

    def test_euler_high_dimension(self):
        for w in words_up_to(8, "IC"):
            assert build(w).euler_ok(), w
        for ops in ["BICICIC", "BBICCIC", "CBICBIC", "IBCBICCC", "BIBICBIC"]:
            assert build(W(ops)).euler_ok(), ops

    def test_intersection_closure(self):
        for w in words_up_to(4, "ICB"):
            assert build(w).closed_under_intersection(), w

    def test_simple_vertex_degrees(self):
        for ops in ["CC", "ICC", "IIC", "IICC", "CCCC"]:
            lat = build(W(ops))
            assert set(lat.vertex_edge_degrees().values()) == {lat.n}, ops

    def test_grading(self):
        for w in words_up_to(4, "ICB"):
            lat = build(w)
            for f, d in lat.faces.items():
                for g, e in lat.faces.items():
                    if f < g:
                        assert d < e, (w, f, g)


class TestSerialization:
    def test_round_trip(self):
        for ops in ["", "C", "CIC", "BIC"]:
            lat = build(W(ops))
            again = FaceLattice.from_json(json.loads(lat.dumps()))
            assert again.faces == lat.faces and again.n == lat.n
            assert again.flag_vector() == lat.flag_vector()

    def test_validation_catches_missing_empty_face(self):
        with pytest.raises(ValueError):
            FaceLattice(0, {frozenset({0}): 0})

    def test_validation_catches_bad_grading(self):
        data = {"n": 1, "faces": [
            {"verts": [], "dim": -1},
            {"verts": [0], "dim": 0},
            {"verts": [1], "dim": 0},
            {"verts": [0, 1], "dim": 0},  # full face mislabeled
        ]}
        with pytest.raises(ValueError):
            FaceLattice.from_json(data)

    def test_validation_catches_open_intersection(self):
        # two triangles share the edge {1,2} but the edge itself is missing
        data = {"n": 3, "faces": [
            {"verts": [], "dim": -1},
            {"verts": [0], "dim": 0}, {"verts": [1], "dim": 0},
            {"verts": [2], "dim": 0}, {"verts": [3], "dim": 0},
            {"verts": [0, 1], "dim": 1}, {"verts": [0, 2], "dim": 1},
            {"verts": [1, 3], "dim": 1}, {"verts": [2, 3], "dim": 1},
            {"verts": [0, 1, 2], "dim": 2}, {"verts": [1, 2, 3], "dim": 2},
            {"verts": [0, 1, 2, 3], "dim": 3},
        ]}
        with pytest.raises(ValueError, match="intersection"):
            FaceLattice.from_json(data)

    @pytest.mark.parametrize("data, where", [
        ([], "'n'"),
        ({"n": "1", "faces": []}, "'n'"),
        ({"n": 1, "faces": {}}, "'faces'"),
        ({"n": 0, "faces": [{"verts": [], "dim": -1}, 7]}, "faces[1]"),
        ({"n": 0, "faces": [{"verts": 5, "dim": 0}]}, "faces[0]"),
        ({"n": 0, "faces": [{"verts": ["a"], "dim": 0}]}, "faces[0]"),
        ({"n": 0, "faces": [{"verts": [0], "dim": 0.0}]}, "faces[0]"),
        ({"n": 0, "faces": [{"verts": [0]}]}, "faces[0]"),
    ])
    def test_schema_errors_name_the_entry(self, data, where):
        with pytest.raises(ValueError) as e:
            FaceLattice.from_json(data, validate=False)
        assert where in str(e.value)

    def test_faces_in_dimension_then_vertex_order(self):
        for w in words_up_to(5, "ICB"):
            lat = build(w)
            rows = [(f["dim"], f["verts"]) for f in lat.to_json()["faces"]]
            assert rows == sorted(rows) and len(rows) == len(lat), w
            # byte for byte what a sort keyed by (dim, sorted face) writes
            keyed = sorted(lat.faces.items(),
                           key=lambda fd: (fd[1], sorted(fd[0])))
            assert lat.dumps() == json.dumps(
                {"n": lat.n, "faces": [{"verts": sorted(f), "dim": d}
                                       for f, d in keyed]},
                separators=(",", ":")), w

    @pytest.mark.parametrize("verts", [[True], [1.0], [0, True], [0, 1.0]])
    def test_vertex_ids_are_ints_not_bools_or_floats(self, verts):
        item = {"verts": verts, "dim": 0}
        data = {"n": 0, "faces": [{"verts": [], "dim": -1}, item]}
        with pytest.raises(ValueError) as e:
            FaceLattice.from_json(data, validate=False)
        assert str(e.value) == (
            f"lattice JSON faces[1] = {item!r:.80}: "
            "need an integer 'dim' and a list of integer 'verts'")

    def test_int_subclass_vertex_ids(self):
        V = IntEnum("V", {"A": 0, "B": 1})
        data = {"n": 1, "faces": [
            {"verts": [], "dim": -1}, {"verts": [V.A], "dim": 0},
            {"verts": [V.B], "dim": 0}, {"verts": [V.A, 1], "dim": 1}]}
        assert FaceLattice.from_json(data).faces == build(W("C")).faces

    def test_vertex_set_listed_twice(self):
        data = build(W("IC")).to_json()
        edge = next(i for i, f in enumerate(data["faces"]) if f["dim"] == 1)
        data["faces"].append({"verts": data["faces"][edge]["verts"], "dim": 2})
        with pytest.raises(ValueError) as e:
            FaceLattice.from_json(data, validate=False)
        last = len(data["faces"]) - 1
        assert f"faces[{edge}]" in str(e.value)
        assert f"faces[{last}]" in str(e.value)

    def test_flag_csv(self):
        csv = build(W("C")).flag_vector().to_csv()
        assert csv == "set,count\n,1\n0,2\n"

    def test_flag_json(self):
        data = build(W("C")).flag_vector().to_json()
        assert data == {"n": 1, "entries": [
            {"set": [], "count": 1}, {"set": [0], "count": 2}]}


# -- plain O(F^2) references for the generator-set checks --------------------

def reference_closed(lat):
    """Pairwise intersection closure of the proper faces, the empty set and
    the whole vertex set."""
    verts = frozenset(lat.vertices)
    proper = {f for f, d in lat.faces.items() if 0 <= d < lat.n}
    if any(not f <= verts for f in proper):
        raise ValueError("face uses a vertex outside the vertex faces")
    family = proper | {frozenset(), verts}
    return all(a & b in family for a, b in combinations(family, 2))


def reference_validate(lat):
    """Every pair of faces compared directly, with the messages and the
    precedence of ``FaceLattice.validate``: a closure failure anywhere is
    reported before containment, and containment before the first
    uncovered face by dimension."""
    faces, n = lat.faces, lat.n
    if n not in set(faces.values()):
        raise ValueError("full face missing")
    for f, d in faces.items():
        if not (-1 <= d <= n):
            raise ValueError(f"face dimension {d} out of range")
        if d == -1 and f:
            raise ValueError("only the empty set may have dimension -1")
    vs = set(lat.vertices)
    for f, d in faces.items():
        if d == 0 and len(f) != 1:
            raise ValueError("a vertex face must be a singleton")
        if not f <= vs and d >= 0:
            raise ValueError(f"face {sorted(f)} uses unknown vertices")
    full = lat.full_face
    for f in faces:
        if not f <= full:
            raise ValueError(f"face {sorted(f)} is not below the full face")
    if sum(d == n for d in faces.values()) > 1:
        raise ValueError("containment must raise dimension")
    if not reference_closed(lat):
        raise ValueError("face set is not closed under intersection")
    if any(f < g and d >= e for f, d in faces.items() for g, e in faces.items()):
        raise ValueError("containment must raise dimension")
    for g, d in sorted(faces.items(), key=lambda fd: fd[1]):
        if d >= 0 and not any(f < g and e == d - 1 for f, e in faces.items()):
            raise ValueError(f"face {sorted(g)} covers nothing of dimension {d - 1}")


def outcome(fn, *args):
    try:
        return ("returned", fn(*args))
    except (ValueError, KeyError) as e:
        return ("raised", type(e).__name__)


def verdict(fn, *args):
    """What ``fn`` returned, or the type and message of what it raised."""
    try:
        return ("returned", fn(*args))
    except (ValueError, KeyError) as e:
        return (type(e).__name__, str(e))


def meet_of_facets_above(lat, f):
    """The intersection of the faces of dimension n - 1 containing f, the
    whole vertex set if there are none."""
    meet = frozenset(lat.vertices)
    for g, d in lat.faces.items():
        if d == lat.n - 1 and f <= g:
            meet &= g
    return meet


def mutants(lat, rng, count):
    """Seeded one-step corruptions of a lattice's face dict."""
    items = sorted(lat.faces.items(), key=lambda fd: (fd[1], sorted(fd[0])))
    verts = lat.vertices
    for _ in range(count):
        kind = rng.choice(("drop", "shift", "add", "truncate"))
        faces = dict(lat.faces)
        f, d = rng.choice(items)
        if kind == "drop":
            del faces[f]
        elif kind == "shift":
            faces[f] = d + rng.choice((-1, 1))
        elif kind == "add":
            extra = frozenset(rng.sample(verts, rng.randint(0, len(verts))))
            faces[extra] = rng.randint(-1, lat.n)
        else:
            if not f:
                continue
            del faces[f]
            faces[frozenset(sorted(f)[:rng.randrange(len(f))])] = d
        try:
            yield kind, FaceLattice(lat.n, faces)
        except ValueError:  # the empty face was lost
            continue


class TestGeneratorChecks:
    def check(self, lat, label):
        """validate and closed_under_intersection against the pairwise
        references; returns the references' verdicts."""
        want = verdict(reference_validate, lat)
        assert verdict(FaceLattice.validate, lat) == want, label
        closed = outcome(reference_closed, lat)
        assert outcome(FaceLattice.closed_under_intersection, lat) == closed, label
        return want, closed

    def test_differential_against_pairwise_reference(self):
        rng = random.Random(20)
        tally = Counter()
        for w in words_up_to(4, "ICB"):
            lat = build(w)
            assert outcome(FaceLattice.validate, lat) == ("returned", None)
            for kind, mut in mutants(lat, rng, 16):
                want, closed = self.check(mut, (w, kind))
                tally[kind, want[0] == "returned", closed] += 1
        # every mutation kind is exercised, and the verdicts are mixed
        kinds = {k for k, _, _ in tally}
        assert kinds == {"drop", "shift", "add", "truncate"}
        assert tally.keys() >= {
            ("add", True, ("returned", True)),
            ("add", False, ("returned", False)),
            ("shift", False, ("returned", True)),
            ("drop", False, ("raised", "ValueError")),
        }

    def test_dim_5_sample_against_pairwise_reference(self):
        rng = random.Random(22)
        messages = Counter()
        for w in random.Random(5).sample(list(all_words(5, "ICB")), 16):
            for kind, mut in mutants(build(w), rng, 6):
                want, _ = self.check(mut, (w, kind))
                messages[want[1]] += 1
        assert messages.keys() >= {
            None, "face set is not closed under intersection",
            "containment must raise dimension"}

    @pytest.mark.parametrize("order", range(12))
    def test_closure_fault_is_reported_before_containment(self, order):
        # the triangles {0,1,2} and {1,2,3} meet in the missing edge {1,2},
        # and the edge {0,2} has the dimension of the triangle above it
        faces = {frozenset(): -1, frozenset(range(4)): 3,
                 frozenset({0, 1, 2}): 2, frozenset({1, 2, 3}): 2,
                 frozenset({0, 2}): 2}
        for v in range(4):
            faces[frozenset({v})] = 0
        for e in ({0, 1}, {1, 3}, {2, 3}):
            faces[frozenset(e)] = 1
        items = list(faces.items())
        random.Random(order).shuffle(items)
        lat = FaceLattice(3, dict(items))
        assert not reference_closed(lat)
        assert any(f < g and d >= e for f, d in items for g, e in items)
        assert self.check(lat, order)[0] == (
            "ValueError", "face set is not closed under intersection")

    @pytest.mark.parametrize("n, faces, name", [
        # a triangle with its vertices and no edges
        (2, {(0, 1, 2): 2}, "face [0, 1, 2] covers nothing of dimension 1"),
        # the 2-faces {0,1,2} and {0,1,3} meet in the edge {0,1}, and the
        # 2-face {2,3} has only vertices below it
        (3, {(0, 1): 1, (0, 1, 2): 2, (0, 1, 3): 2, (2, 3): 2,
             (0, 1, 2, 3): 3},
         "face [2, 3] covers nothing of dimension 1"),
    ])
    def test_uncovered_face_is_named(self, n, faces, name):
        faces = {frozenset(f): d for f, d in faces.items()}
        faces[frozenset()] = -1
        for v in set().union(*faces):
            faces[frozenset({v})] = 0
        assert self.check(FaceLattice(n, faces), name)[0] == ("ValueError", name)

    def test_non_coatomic_members_join_the_generators(self):
        # a triangle facet and a dangling edge {0,1} that lies in no facet:
        # closed, graded and saturated, though not a polytope lattice; the
        # edge covers its vertices only through non-facet generators
        faces = {frozenset(): -1, frozenset(range(5)): 3,
                 frozenset({2, 3, 4}): 2, frozenset({0, 1}): 1}
        for v in range(5):
            faces[frozenset({v})] = 0
        for e in ({2, 3}, {3, 4}, {2, 4}):
            faces[frozenset(e)] = 1
        lat = FaceLattice(3, faces)
        # members that are not the meet of the facets above them make the
        # checks take the pass over the extra generators
        assert meet_of_facets_above(lat, frozenset({0, 1})) != {0, 1}
        assert self.check(lat, "dangling edge") == (
            ("returned", None), ("returned", True))
        # two segments {0,1,2} and {1,2,3} with no facet above them: their
        # intersection {1,2} is missing, and only they can show it
        faces = {frozenset(): -1, frozenset(range(4)): 3,
                 frozenset({0, 1, 2}): 1, frozenset({1, 2, 3}): 1}
        for v in range(4):
            faces[frozenset({v})] = 0
        lat = FaceLattice(3, faces)
        assert meet_of_facets_above(lat, frozenset({0, 1, 2})) != {0, 1, 2}
        assert self.check(lat, "two segments") == (
            ("ValueError", "face set is not closed under intersection"),
            ("returned", False))

    def test_large_simplex_validates_quickly(self):
        data = build(W("C" * 12)).to_json()
        assert len(data["faces"]) == 8192
        t0 = time.perf_counter()
        lat = FaceLattice.from_json(data)
        assert time.perf_counter() - t0 < 1.0
        assert lat.n == 12


class TestFacetPassRerun:
    def test_vertex_id_in_two_vertex_faces(self, monkeypatch):
        # the triangle with its edge {0, 1} shifted down to a vertex face:
        # vertex ids 0 and 1 then each sit in two vertex faces
        faces = dict(build(W("CC")).faces)
        faces[frozenset({0, 1})] = 0
        lat = FaceLattice(2, faces)
        assert lat.vertices == [0, 0, 1, 1, 2]
        calls, inner = [], lattice._facet_pass

        def counted(dim_of, generators, full):
            calls.append(len(generators))
            assert len(calls) <= 2, "the rerun did not stop"
            return inner(dim_of, generators, full)

        monkeypatch.setattr(lattice, "_facet_pass", counted)
        assert verdict(FaceLattice.validate, lat) == verdict(
            reference_validate, lat) == (
            "ValueError", "a vertex face must be a singleton")
        assert FaceLattice.closed_under_intersection(lat) is True
        assert reference_closed(lat) is True
        # the loop over the facets {0, 2} and {1, 2}, then its one rerun
        # with the extra generators added
        assert len(calls) == 2 and calls[0] == 2 < calls[1]


# -- the pure-Python pair scan the flag DP replaced ---------------------------

def reference_flag_counts(lat):
    """Chain counts by the pair scan: the incidence between two levels by
    testing every pair of faces as bitmasks, then one vector of counts per
    dimension set, grown from the set without its top dimension."""
    n = lat.n
    if n <= 0:
        return (1,)
    bit = {v: 1 << i for i, v in enumerate(lat.vertices)}
    levels = [[sum(map(bit.__getitem__, f)) for f, d in lat.faces.items()
               if d == e] for e in range(n)]
    incidence, vec, counts = {}, {}, [1]
    for key in range(1, 1 << n):
        S = [d for d in range(n) if key >> d & 1]
        top = S[-1]
        if len(S) == 1:
            v = [1] * len(levels[top])
        else:
            lo = S[-2]
            if (lo, top) not in incidence:
                incidence[lo, top] = [
                    [i for i, f in enumerate(levels[lo]) if f & g == f]
                    for g in levels[top]]
            prev = vec[key & ~(1 << top)]
            v = [sum(prev[i] for i in row) for row in incidence[lo, top]]
        vec[key] = v
        counts.append(sum(v))
    return tuple(counts)


def skips_a_dimension(lat):
    """Whether some proper face lies above another, two or more dimensions
    up, with no face of the dimension in between."""
    proper = [(f, d) for f, d in lat.faces.items() if 0 <= d < lat.n]
    return any(f < g and e > d + 1
               and not any(f < h < g and c == d + 1 for h, c in proper)
               for f, d in proper for g, e in proper)


# vertex {3} lies directly under the 2-face {0,1,3}, with no edge between
NON_GRADED = {"n": 3, "faces": [
    {"verts": [], "dim": -1},
    {"verts": [0], "dim": 0}, {"verts": [1], "dim": 0},
    {"verts": [2], "dim": 0}, {"verts": [3], "dim": 0},
    {"verts": [0, 1], "dim": 1}, {"verts": [1, 2], "dim": 1},
    {"verts": [0, 2], "dim": 1},
    {"verts": [0, 1, 2], "dim": 2}, {"verts": [0, 1, 3], "dim": 2},
    {"verts": [0, 1, 2, 3], "dim": 3},
]}


class TestFlagDP:
    """The packed-chain DP against the pair scan, entry for entry."""

    def check(self, lat, label):
        assert lat.flag_vector().counts == reference_flag_counts(lat), label

    def test_every_word_up_to_dim_5(self):
        for w in words_up_to(5, "ICB"):
            self.check(build(w), w)

    def test_dim_6_sample(self):
        for w in random.Random(6).sample(list(all_words(6, "ICB")), 40):
            self.check(build(w), w)

    def test_joins_up_to_total_dim_5(self):
        small = list(words_up_to(2, "ICB"))
        for a in small:
            for b in small:
                self.check(build(a).join(build(b)), (a, b))

    def test_more_than_63_vertices(self):
        lat = build(W("IIIIIII"))
        assert len(lat.vertices) == 128
        self.check(lat, "IIIIIII")

    def test_links(self):
        for ops in ["CIC", "BIC", "ICCIC", "BBIC", "IBCIC"]:
            lat = build(W(ops))
            for f, d in lat.faces.items():
                if 0 <= d < lat.n:
                    self.check(link(lat, f), (ops, sorted(f)))

    def test_validating_mutants(self):
        rng = random.Random(7)
        tally = Counter()
        for w in words_up_to(4, "ICB"):
            for _, mut in mutants(build(w), rng, 16):
                if outcome(FaceLattice.validate, mut) != ("returned", None):
                    continue
                try:
                    got = mut.flag_vector().counts
                except ValueError:
                    assert skips_a_dimension(mut), w
                    tally["skips"] += 1
                    continue
                assert got == reference_flag_counts(mut), w
                tally["equal"] += 1
        assert tally["equal"] >= 100, tally

    def test_non_graded_family(self):
        lat = FaceLattice.from_json(NON_GRADED)  # validate accepts it
        assert skips_a_dimension(lat)
        assert reference_flag_counts(lat)[0b101] == 6
        with pytest.raises(ValueError, match="no face of dimension 1 "):
            lat.flag_vector()
        cone = lat.pyramid()
        assert cone.validate() is None and skips_a_dimension(cone)
        with pytest.raises(ValueError, match="no face of dimension"):
            cone.flag_vector()

    def test_runs_without_numpy(self):
        code = ("import sys\n"
                "sys.modules['numpy'] = None\n"
                "from hvcalc.cli import main\n"
                "from hvcalc.lattice import build\n"
                "from hvcalc.words import GeneratorWord\n"
                "assert build(GeneratorWord('BIC')).flag_vector()[{0, 1, 2}] == 48\n"
                "sys.exit(main(['express', 'BIC.']))\n")
        src = str(Path(hvcalc.__file__).resolve().parents[1])
        p = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, timeout=120,
                           env={"PYTHONPATH": src, "PATH": ""})
        assert p.returncode == 0 and p.stderr == "", p.stderr
        assert p.stdout.strip()


def link_truth(lat):
    """(dimension, link flag vector) of every nonempty face, one link built
    per face."""
    return {f: (d, link(lat, f).flag_vector())
            for f, d in lat.faces.items() if d >= 0}


class TestLinkClasses:
    """The classes of the top-down pass against one link per face."""

    def check(self, lat, label):
        classes = lat.link_classes()
        truth = link_truth(lat)
        expanded = Counter()
        for d, f, count, fv in classes:
            # each class carries the dimension and link of its own face
            assert truth[f] == (d, fv), label
            expanded[d, fv] += count
        # the classes are the distinct (dimension, link flag vector) pairs
        assert len(expanded) == len(classes), label
        assert expanded == Counter(truth.values()), label

    def test_every_word_up_to_dim_5(self):
        for w in words_up_to(5, "ICB"):
            self.check(build(w), w)

    def test_validating_mutants(self):
        rng = random.Random(7)
        tally = Counter()
        for w in words_up_to(4, "ICB"):
            for _, mut in mutants(build(w), rng, 16):
                if outcome(FaceLattice.validate, mut) != ("returned", None):
                    continue
                try:
                    mut.link_classes()
                except ValueError:
                    assert skips_a_dimension(mut), w
                    tally["skips"] += 1
                    continue
                try:
                    link_truth(mut)
                except ValueError:  # some interval has no lattice as link
                    tally["no link"] += 1
                    continue
                self.check(mut, w)
                tally["equal"] += 1
        assert tally["equal"] >= 50, tally

    def test_edge_cases(self):
        assert empty_polytope().link_classes() == []
        assert point().link_classes() == [
            (0, frozenset({0}), 1, FlagVector(-1, (1,)))]
        (d0, v, c0, fv0), whole = build(W("C")).link_classes()
        assert (d0, c0, fv0) == (0, 2, FlagVector(0, (1,)))
        assert v in ({0}, {1})
        assert whole == (1, frozenset({0, 1}), 1, FlagVector(-1, (1,)))

    def test_no_full_face(self):
        lat = FaceLattice(1, {frozenset(): -1, frozenset({0}): 0,
                              frozenset({1}): 0})
        assert lat.flag_vector() == FlagVector(1, (1, 2))
        with pytest.raises(ValueError, match="no full face"):
            lat.link_classes()

    def test_reads_the_full_face_from_the_pass(self, monkeypatch):
        lats = [build(W(ops)) for ops in ("", "C", "IC", "BIC", "CBIC")]
        for lat in lats:
            lat.flag_vector()
        want = [lat.link_classes() for lat in lats]

        def no_scan(self):
            raise AssertionError("link_classes scanned the faces")

        monkeypatch.setattr(FaceLattice, "full_face", property(no_scan))
        assert [lat.link_classes() for lat in lats] == want

    def test_returns_a_fresh_list(self):
        lat = build(W("IC"))
        lat.link_classes().clear()
        assert len(lat.link_classes()) == 3

    def test_non_graded_refusals_name_the_highest_skip(self):
        lat = FaceLattice.from_json(NON_GRADED)
        cone = lat.pyramid()
        for bad, message in (
                (lat, "face [0, 1, 3] of dimension 2 lies above face [3] of "
                      "dimension 0 with no face of dimension 1 between them"),
                (cone, "face [0, 1, 3, 4] of dimension 3 lies above face "
                       "[3, 4] of dimension 1 with no face of dimension 2 "
                       "between them")):
            for call in (bad.flag_vector, bad.link_classes):
                with pytest.raises(ValueError) as info:
                    call()
                assert str(info.value) == message


def reference_interval_counts(lat):
    """For the face of each link class, then the empty face, the faces
    strictly above it counted by class, each face's class read from its own
    built link."""
    classes = lat.link_classes()
    index = {(d, fv): j for j, (d, _, _, fv) in enumerate(classes)}
    class_of = {f: index[key] for f, key in link_truth(lat).items()}
    return tuple(
        tuple(sorted(Counter(j for g, j in class_of.items() if g > f).items()))
        for f in [f for _, f, *_ in classes] + [frozenset()])


class TestIntervalCounts:
    """The class table the link route reads: one row per link class, the
    whole polytope's included, then the empty face's row."""

    def test_every_word_up_to_dim_4(self):
        lats = [empty_polytope(), point()] + [
            build(w) for w in words_up_to(4, "ICB")]
        for lat in lats:
            table = lat.interval_counts()
            assert table == reference_interval_counts(lat), lat.n
            assert len(table) == len(lat.link_classes()) + 1, lat.n

    def test_edge_cases(self):
        assert empty_polytope().interval_counts() == ((),)
        assert point().interval_counts() == ((), ((0, 1),))
        # the vertex class lies under the whole polytope, its class 1
        assert build(W("C")).interval_counts() == (
            ((1, 1),), (), ((0, 2), (1, 1)))


def unflagged(lat):
    """The same faces through ``FaceLattice(n, faces)``: not graded by
    construction, so its chain pass checks grading."""
    return FaceLattice(lat.n, lat.faces)


class TestGradedByConstruction:
    """Lattices from the constructors skip the grading check of the chain
    pass; every other lattice keeps it."""

    def test_every_word_up_to_dim_6_matches_unflagged_copy(self):
        # one digest of every word's lattice JSON and link-class rows, so a
        # changed face set or class representative changes it
        digest = hashlib.sha256()
        for w in words_up_to(6, "ICB"):
            lat = build(w)
            copy = unflagged(lat)
            assert lat._graded and not copy._graded, w
            assert lat.flag_vector() == copy.flag_vector(), w
            # each class's dimension, face, size and link flag vector
            classes = lat.link_classes()
            assert classes == copy.link_classes(), w
            digest.update(lat.dumps().encode())
            digest.update(repr([(d, sorted(f), count, fv.counts)
                                for d, f, count, fv in classes]).encode())
        assert digest.hexdigest() == (
            "d24467020188b6e905a8c6013c6709b2f3e07b9cf7ee5ef641434a8f3d1bbede")

    def test_flag_propagates(self):
        flagged = build(W("IC"))
        plain = unflagged(flagged)
        assert empty_polytope()._graded and point()._graded
        for base, graded in ((flagged, True), (plain, False)):
            assert base.pyramid()._graded is graded
            assert base.prism()._graded is graded
            assert base.bipyramid()._graded is graded
            assert link(base, frozenset({0}))._graded is graded
        assert flagged.join(point())._graded
        assert not flagged.join(plain)._graded
        assert not plain.join(flagged)._graded
        assert not plain.join(plain)._graded
        assert not FaceLattice.from_json(flagged.to_json())._graded
        assert not FaceLattice.from_json(point().to_json())._graded
        assert not FaceLattice(0, point().faces)._graded

    def test_flag_is_frozen(self):
        for lat in (build(W("IC")), unflagged(build(W("IC")))):
            graded = lat._graded
            for value in (True, False):
                with pytest.raises(AttributeError):
                    lat._graded = value
            with pytest.raises(AttributeError):
                del lat._graded
            assert lat._graded is graded

    def test_to_json_order(self):
        for w in words_up_to(5, "ICB"):
            lat = build(w)
            rows = sorted((d, sorted(f)) for f, d in lat.faces.items())
            assert lat.to_json()["faces"] == [
                {"verts": verts, "dim": d} for d, verts in rows], w

    def test_chain_pass_keeps_no_up_sets(self):
        import tracemalloc
        lat = build(W("ICICICIC"))
        assert len(lat) == 2074
        peaks = []
        for each in (lat, unflagged(lat)):
            tracemalloc.start()
            try:
                lattice._chain_pass(each)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < peaks[1] / 2, peaks


class TestFacesAtTheApi:
    """Faces are vertex bitmasks inside the lattice; the frozenset faces are
    made only for callers that read them."""

    def test_no_route_reads_the_faces(self, monkeypatch):
        from hvcalc.links import h_by_links
        words = list(words_up_to(3, "ICB"))
        data = build(W("BIC")).to_json()

        def no_read(self):
            raise AssertionError("a route read the frozenset faces")

        monkeypatch.setattr(FaceLattice, "faces", property(no_read))
        lats = [build(w) for w in words] + [FaceLattice.from_json(data)]
        for lat in lats:
            lat.validate()
            assert lat.closed_under_intersection()
            assert FaceLattice.from_json(lat.to_json()).flag_vector() == (
                lat.flag_vector())
            for _, face, _, fv in lat.link_classes():
                assert link(lat, face).flag_vector() == fv
            assert lat.join(point()).flag_vector() == lat.pyramid().flag_vector()
            h_by_links(lat)

    def test_faces_are_made_once(self):
        lat = build(W("BIC"))
        faces = lat.faces
        assert lat.faces is faces and len(faces) == len(lat) == 28
        assert faces[frozenset(range(6))] == 3

    def test_unknown_vertices_refused_as_validate_does(self):
        # vertex 1 is in the edge {0, 1} but in no vertex face
        lat = FaceLattice(2, {frozenset(): -1, frozenset({0}): 0,
                              frozenset({0, 1}): 1, frozenset({0, 1, 2}): 2})
        for call in (lat.validate, lat.flag_vector, lat.link_classes,
                     lat.closed_under_intersection):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == "face [0, 1] uses unknown vertices"


# -- lattice files whose chain counts would outgrow memory --------------------

def chain_family(n):
    """The empty face, the vertices 0..n and each face {0..k} of dimension
    k: it validates, yet {0..k} lies above the vertex k with no edge
    between them, which the chain pass finds only at its last level."""
    return {"n": n, "faces": [
        {"verts": [], "dim": -1},
        *({"verts": [v], "dim": 0} for v in range(n + 1)),
        *({"verts": list(range(k + 1)), "dim": k} for k in range(1, n + 1))]}


def interval_family(n):
    """The vertex intervals {i..j}, of dimension j - i: graded, and it
    validates; its chain counts take about 4 times the bits per dimension."""
    return {"n": n, "faces": [{"verts": [], "dim": -1}, *(
        {"verts": list(range(i, j + 1)), "dim": j - i}
        for i in range(n + 1) for j in range(i, n + 1))]}


# each child caps its address space at 1 GiB, so that a pass the bound
# missed raises MemoryError rather than exhaust the machine
LIMITED = ("import json, resource, sys, time\n"
           "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n")
API_CHILD = LIMITED + (
    "from hvcalc.lattice import FaceLattice\n"
    "data = json.load(open(sys.argv[1]))\n"
    "lat = FaceLattice(data['n'], {frozenset(f['verts']): f['dim']\n"
    "                              for f in data['faces']})\n"
    "start = time.perf_counter()\n"
    "try:\n"
    "    lat.flag_vector()\n"
    "except ValueError as e:\n"
    "    print(json.dumps([time.perf_counter() - start, str(e)]))\n")
CLI_CHILD = LIMITED + (
    "from hvcalc.cli import main\n"
    "sys.exit(main(sys.argv[1:]))\n")


def in_limited_child(code, *argv):
    """Run ``code`` with ``argv`` in a fresh interpreter under the limit;
    returns the process and its wall time."""
    src = str(Path(hvcalc.__file__).resolve().parents[1])
    start = time.perf_counter()
    p = subprocess.run([sys.executable, "-c", code, *argv],
                       capture_output=True, text=True, timeout=20,
                       env={"PYTHONPATH": src, "PATH": ""})
    return p, time.perf_counter() - start


class TestChainPassBound:
    """The chain pass refuses a lattice once the bits of its class values
    would pass ``lattice._MAX_CLASS_BITS``."""

    BOUND = (f"would hold over {lattice._MAX_CLASS_BITS} bits of chain "
             f"counts, reached at its faces of dimension ")

    @pytest.mark.parametrize("n", range(9))
    def test_interval_family_still_counts(self, n):
        lat = FaceLattice.from_json(interval_family(n))
        assert lat.flag_vector().counts == reference_flag_counts(lat)

    def test_bound_is_the_bits_of_the_class_values(self, monkeypatch):
        held = sum(z.bit_length()
                   for *_, z in lattice._chain_pass(build(W("BICC")))[2])
        monkeypatch.setattr(lattice, "_MAX_CLASS_BITS", held)
        assert build(W("BICC")).flag_vector() == (
            lattice._chain_pass(build(W("BICC")))[0])
        monkeypatch.setattr(lattice, "_MAX_CLASS_BITS", held - 1)
        with pytest.raises(ValueError, match="dimension-4 lattice would hold "
                           f"over {held - 1} bits"):
            build(W("BICC")).flag_vector()

    @pytest.mark.parametrize("family", [chain_family, interval_family])
    def test_dimension_40_refused_through_the_api(self, tmp_path, family):
        path = tmp_path / "lattice.json"
        path.write_text(json.dumps(family(40)))
        p, _ = in_limited_child(API_CHILD, str(path))
        assert p.returncode == 0 and p.stderr == "", p.stderr
        elapsed, message = json.loads(p.stdout)
        assert message.startswith("counting the flags of this dimension-40 "
                                  "lattice " + self.BOUND), message
        assert elapsed < 2

    @pytest.mark.parametrize("family", [chain_family, interval_family])
    def test_dimension_40_refused_by_flagvec(self, tmp_path, family):
        path = tmp_path / "lattice.json"
        path.write_text(json.dumps(family(40)))
        p, elapsed = in_limited_child(CLI_CHILD, "flagvec", str(path))
        assert p.returncode == 2 and p.stdout == ""
        assert len(p.stderr.splitlines()) == 1, p.stderr
        assert "Traceback" not in p.stderr and self.BOUND in p.stderr, p.stderr
        assert elapsed < 2
