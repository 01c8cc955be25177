"""Face lattices, flag counting, links, serialization."""

import json
import random
import time
from collections import Counter
from itertools import combinations

import pytest

from hvcalc.lattice import FaceLattice, build, empty_polytope, point
from hvcalc.words import GeneratorWord as W
from hvcalc.words import words_up_to


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

    def test_empty_polytope(self):
        e = empty_polytope()
        assert e.n == -1
        assert e.flag_vector().key() == (-1, (1,))
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


class TestLinks:
    def test_cube_vertex_link_is_triangle(self):
        cube = build(W("IIC"))
        v = next(f for f, d in cube.faces.items() if d == 0)
        lk = cube.link(v)
        assert lk.n == 2 and lk.face_counts() == [3, 3]
        assert lk.flag_vector()[{0, 1}] == 6

    def test_octahedron_edge_link(self):
        octa = build(W("BIC"))
        e = next(f for f, d in octa.faces.items() if d == 1)
        fv = octa.link_flag_vector(e)
        assert fv.n == 1 and fv[{0}] == 2

    def test_full_face_link_is_empty_polytope(self):
        sq = build(W("IC"))
        lk = sq.link(sq.full_face)
        assert lk.n == -1 and lk.flag_vector().key() == (-1, (1,))

    def test_facet_link_is_point(self):
        sq = build(W("IC"))
        e = next(f for f, d in sq.faces.items() if d == 1)
        assert sq.link(e).n == 0

    def test_non_face_rejected(self):
        sq = build(W("IC"))
        with pytest.raises(ValueError):
            sq.link(frozenset({0, 99}))
        with pytest.raises(ValueError):
            sq.link(frozenset())

    def test_simple_polytope_vertex_links_are_simplices(self):
        prism3 = build(W("ICC"))
        for f, d in prism3.faces.items():
            if d == 0:
                assert prism3.link(f).face_counts() == [3, 3]


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
        raise KeyError("face uses a vertex outside the vertex faces")
    family = proper | {frozenset(), verts}
    return all(a & b in family for a, b in combinations(family, 2))


def reference_validate(lat):
    """Every pair of faces compared directly."""
    faces, n = lat.faces, lat.n
    if n not in set(faces.values()):
        raise ValueError("full face missing")
    for f, d in faces.items():
        if not (-1 <= d <= n) or (d == -1 and f):
            raise ValueError("bad dimension")
    vs = set(lat.vertices)
    for f, d in faces.items():
        if (d == 0 and len(f) != 1) or (not f <= vs and d >= 0):
            raise ValueError("bad vertices")
    full = lat.full_face
    for f, d in faces.items():
        if not f <= full:
            raise ValueError("not below the full face")
        if any(f < g and d >= e for g, e in faces.items()):
            raise ValueError("containment must raise dimension")
    for g, d in faces.items():
        if d >= 0 and not any(f < g and e == d - 1 for f, e in faces.items()):
            raise ValueError("covers nothing")
    if not reference_closed(lat):
        raise ValueError("not closed under intersection")


def outcome(fn, *args):
    try:
        return ("returned", fn(*args))
    except (ValueError, KeyError) as e:
        return ("raised", type(e).__name__)


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
    def test_differential_against_pairwise_reference(self):
        rng = random.Random(20)
        tally = Counter()
        for w in words_up_to(4, "ICB"):
            lat = build(w)
            assert outcome(FaceLattice.validate, lat) == ("returned", None)
            for kind, mut in mutants(lat, rng, 16):
                want = outcome(reference_validate, mut)
                assert outcome(FaceLattice.validate, mut) == want, (w, kind)
                closed = outcome(reference_closed, mut)
                assert outcome(FaceLattice.closed_under_intersection,
                               mut) == closed, (w, kind)
                tally[kind, want[0], closed] += 1
        # every mutation kind is exercised, and the verdicts are mixed
        kinds = {k for k, _, _ in tally}
        assert kinds == {"drop", "shift", "add", "truncate"}
        assert tally.keys() >= {
            ("add", "returned", ("returned", True)),
            ("add", "raised", ("returned", False)),
            ("shift", "raised", ("returned", True)),
            ("drop", "raised", ("raised", "KeyError")),
        }

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
        assert reference_closed(lat) and lat.closed_under_intersection()
        reference_validate(lat)
        lat.validate()
        # two segments {0,1,2} and {1,2,3} with no facet above them: their
        # intersection {1,2} is missing, and only they can show it
        faces = {frozenset(): -1, frozenset(range(4)): 3,
                 frozenset({0, 1, 2}): 1, frozenset({1, 2, 3}): 1}
        for v in range(4):
            faces[frozenset({v})] = 0
        lat = FaceLattice(3, faces)
        assert not reference_closed(lat)
        assert not lat.closed_under_intersection()

    def test_large_simplex_validates_quickly(self):
        data = build(W("C" * 12)).to_json()
        assert len(data["faces"]) == 8192
        t0 = time.perf_counter()
        lat = FaceLattice.from_json(data)
        assert time.perf_counter() - t0 < 1.0
        assert lat.n == 12
