"""Cones, polytopes, duals, polars, faces, and normal fans."""

import math
from fractions import Fraction
from itertools import combinations, product
from unittest import mock

import pytest
from hypothesis import assume, given
from hypothesis import strategies as hs

import oracles
from conftest import face_cone, fan_from_maximal, intersect_cones, validate_fan
from qtoric import (Cone, Face, Fan, Polytope, dual_cone, faces, fan_product,
                    geometry, is_strongly_convex, make_fan,
                    multiqubit_polytope, normal_fan, polar, polytope_hull,
                    pos_hull, projective_space_fan)
from qtoric.geometry import _dd_rays, _vertex_stars


BIG = 10**30
entries = hs.one_of(hs.integers(-3, 3), hs.integers(-BIG, BIG))


def C(*gens, dim=None):
    return pos_hull(list(gens), dim=dim)


def contains(c, x):
    """Membership of a rational point, read off the cone's halfspaces."""
    return all(oracles.dot(h, x) >= 0 for h, _ in c.halfspaces)


def affine_dim(p):
    """Dimension of the affine hull of a polytope's vertices."""
    return oracles.frac_rank([(1,) + v for v in p.vertices]) - 1


class TestPosHull:
    def test_already_minimal(self):
        c = C((1, 0), (0, 1))
        assert c.generators == ((0, 1), (1, 0))

    def test_redundant_generator_removed(self):
        # (1,1) = (1,0)/2 + (1,2)/2
        c = C((1, 0), (1, 2), (1, 1))
        assert c.generators == ((1, 0), (1, 2))

    def test_empty_hull_is_zero_cone(self):
        c = pos_hull([], dim=2)
        assert c.generators == ()
        for x, inside in (((0, 0), True), ((1, 0), False)):
            assert contains(c, x) == inside == oracles.cone_contains([], 2, x)

    def test_generators_canonicalized_primitive(self):
        c = C((2, 4), (3, 0))
        assert c.generators == ((1, 0), (1, 2))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pos_hull([(1, 0), (1, 2, 3)])

    def test_membership_matches_input_hull(self, rng):
        for _ in range(20):
            dim = rng.choice((2, 3))
            vecs = [tuple(rng.randint(-4, 4) for _ in range(dim))
                    for _ in range(rng.randint(1, 5))]
            vecs = [v for v in vecs if any(v)]
            if not vecs:
                continue
            c = pos_hull(vecs, dim)
            for x in oracles.ball(dim, 3):
                assert contains(c, x) == oracles.cone_contains(vecs, dim, x)

    def test_membership_of_rational_points(self):
        c = C((1, 0), (1, 2))
        just_outside = Fraction(2, 3) + Fraction(1, 10**30)
        for x, inside in (((Fraction(1, 2), Fraction(1, 3)), True),
                          ((Fraction(1, 3), Fraction(2, 3)), True),
                          ((Fraction(1, 3), just_outside), False),
                          ((Fraction(-1, 7), 0), False)):
            assert contains(c, x) == inside
            assert oracles.cone_contains(c.generators, 2, x) == inside

    @given(hs.integers(1, 3).flatmap(lambda dim: hs.tuples(
        hs.lists(hs.lists(entries, min_size=dim, max_size=dim), max_size=5),
        hs.lists(entries, min_size=dim, max_size=dim),
        hs.lists(hs.integers(0, 3), min_size=5, max_size=5),
        hs.booleans())))
    def test_membership_exact_at_large_magnitudes(self, case):
        vecs, target, weights, combine = case
        vecs = [tuple(v) for v in vecs]
        dim = len(target)
        if combine and vecs:
            # a target inside the cone, often on its boundary
            target = [sum(w * v[i] for w, v in zip(weights, vecs))
                      for i in range(dim)]
        assert contains(pos_hull(vecs, dim), target) == \
            oracles.cone_contains(vecs, dim, target)


class TestDualCone:
    def test_first_quadrant_self_dual(self):
        c = C((1, 0), (0, 1))
        assert dual_cone(c) == c

    def test_zero_cone_dual_is_everything(self):
        d = dual_cone(pos_hull([], dim=2))
        assert d.generators == ((-1, 0), (0, -1), (0, 1), (1, 0))

    def test_wedge_dual_frozen_value(self):
        # derived via the sign-check oracle below
        d = dual_cone(C((1, 0), (1, 2)))
        assert d.generators == ((0, 1), (2, -1))

    def test_dual_by_inner_product_signs(self):
        c = C((1, 0), (1, 2))
        d = dual_cone(c)
        for x in oracles.ball(2, 5):
            definitional = all(oracles.dot(g, x) >= 0 for g in c.generators)
            assert oracles.cone_contains(d.generators, 2, x) == definitional

    def test_double_dual_involution(self, rng):
        for _ in range(25):
            dim = rng.choice((2, 3))
            vecs = [tuple(rng.randint(-4, 4) for _ in range(dim))
                    for _ in range(rng.randint(1, 5))]
            vecs = [v for v in vecs if any(v)]
            if not vecs:
                continue
            c = pos_hull(vecs, dim)
            assert dual_cone(dual_cone(c)) == c

    def test_membership_consistency_via_dual(self, rng):
        # x in pos(V)  <=>  <x,y> >= 0 for all dual generators y
        for _ in range(8):
            dim = rng.choice((2, 3))
            vecs = [tuple(rng.randint(-3, 3) for _ in range(dim))
                    for _ in range(rng.randint(2, 4))]
            vecs = [v for v in vecs if any(v)]
            if not vecs:
                continue
            c = pos_hull(vecs, dim)
            d = dual_cone(c)
            for x in oracles.ball(dim, 3):
                inside = oracles.cone_contains(c.generators, dim, x)
                signs = all(oracles.dot(x, y) >= 0 for y in d.generators)
                assert inside == signs


class TestPolar:
    def test_cube_polar_is_octahedron(self):
        cross = polytope_hull([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                               (0, 0, 1), (0, 0, -1)])
        assert polar(multiqubit_polytope(3)) == cross

    def test_square_polar_by_inequalities(self):
        square = multiqubit_polytope(2)
        p = polar(square)
        assert p.vertices == ((-1, 0), (0, -1), (0, 1), (1, 0))
        for y in p.vertices:
            assert all(oracles.dot(x, y) >= -1 for x in square.vertices)
        # lattice points just outside fail the defining inequality
        for y in [(1, 1), (-1, 1), (2, 0)]:
            assert any(oracles.dot(x, y) < -1 for x in square.vertices)

    def test_segment_self_polar(self):
        seg = polytope_hull([(-1,), (1,)])
        assert polar(seg) == seg

    def test_polar_involution(self):
        for m in range(1, 8):
            cube = multiqubit_polytope(m)
            cross = polar(cube)
            assert len(cross.vertices) == 2 * m
            assert polar(cross) == cube
            assert polar(polar(cross)) == cross

    def test_origin_not_interior_rejected(self):
        with pytest.raises(ValueError, match="interior"):
            polar(polytope_hull([(0,), (2,)]))
        with pytest.raises(ValueError, match="interior"):
            polar(polytope_hull([(0, 0), (1, 0), (0, 1)]))

    def test_non_lattice_polar_rejected(self):
        # facet x + y <= 2 gives the polar a half-integer vertex
        p = polytope_hull([(2, 0), (0, 2), (-1, 0), (0, -1)])
        with pytest.raises(ValueError, match="lattice"):
            polar(p)


class TestFaces:
    def test_square_faces_against_hyperplane_oracle(self):
        square = multiqubit_polytope(2)
        got = {frozenset(f.indices) for f in faces(square)}
        assert got == oracles.supporting_faces(square.vertices, 2)
        assert len(faces(square)) == 9

    def test_cube_face_count(self):
        cube = multiqubit_polytope(3)
        fs = faces(cube)
        assert len(fs) == 27
        by_dim = {}
        for f in fs:
            by_dim[f.dim] = by_dim.get(f.dim, 0) + 1
        assert by_dim == {0: 8, 1: 12, 2: 6, 3: 1}
        assert {frozenset(f.indices) for f in fs} == \
            oracles.supporting_faces(cube.vertices, 3)

    def test_quadrant_cone_faces(self):
        c = C((1, 0), (0, 1))
        fs = faces(c)
        assert [(f.dim, f.indices) for f in fs] == \
            [(0, ()), (1, (0,)), (1, (1,)), (2, (0, 1))]

    def test_line_cone_has_only_improper_face(self):
        c = C((1, 0), (-1, 0))
        fs = faces(c)
        assert [(f.dim, f.indices) for f in fs] == [(1, (0, 1))]

    def test_octahedron_faces_against_oracle(self):
        octa = polytope_hull([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                              (0, 0, 1), (0, 0, -1)])
        fs = faces(octa)
        assert len(fs) == 27
        assert {frozenset(f.indices) for f in fs} == \
            oracles.supporting_faces(octa.vertices, 3)

    def test_random_polytope_faces_match_hyperplane_oracle(self, rng):
        done = 0
        while done < 8:
            dim = 2 if done < 5 else 3
            pts = [tuple(rng.randint(-3, 3) for _ in range(dim))
                   for _ in range(rng.randint(dim + 1, dim + 4))]
            p = polytope_hull(pts, dim)
            if affine_dim(p) < dim:
                continue
            got = {frozenset(f.indices) for f in faces(p)}
            assert got == oracles.polytope_faces(p.vertices, dim), p.vertices
            done += 1

    def test_lower_dimensional_polytope_faces(self):
        # a segment embedded in 3-D still has two vertices and itself
        seg = polytope_hull([(0, 0, 0), (2, 2, 0), (1, 1, 0)])
        assert seg.vertices == ((0, 0, 0), (2, 2, 0))
        assert [(f.dim, f.indices) for f in faces(seg)] == \
            [(0, (0,)), (0, (1,)), (1, (0, 1))]

    def test_face_lattice_closed_under_intersection(self):
        for obj in (multiqubit_polytope(3), C((1, 0), (1, 2)),
                    polytope_hull([(0, 0), (2, 0), (0, 3), (2, 3)])):
            sets = {frozenset(f.indices) for f in faces(obj)}
            for a, b in combinations(sets, 2):
                inter = a & b
                if inter or isinstance(obj, Cone):
                    assert inter in sets


class TestNormalFan:
    def test_cube_normal_fan_is_octant_fan(self):
        fan = normal_fan(multiqubit_polytope(3))
        maximal = fan.maximal_cones()
        assert len(maximal) == 8
        octants = {tuple(sorted(tuple(s * int(i == a) for i in range(3))
                                for a, s in enumerate(signs)))
                   for signs in product((1, -1), repeat=3)}
        assert {c.generators for c in maximal} == octants

    def test_simplex_normal_fan_is_projective_fan(self):
        from qtoric import projective_space_fan
        for n in (1, 2, 3):
            simplex = polytope_hull(
                [tuple(0 for _ in range(n))] +
                [tuple(-int(i == j) for i in range(n)) for j in range(n)])
            assert normal_fan(simplex) == projective_space_fan(n)

    def test_segment_fan(self):
        fan = normal_fan(polytope_hull([(-1,), (1,)]))
        assert [c.generators for c in fan.cones] == [(), ((-1,),), ((1,),)]

    def test_lower_dimensional_rejected(self):
        # a segment in Z^2, a triangle in Z^3 and a point
        for points in ([(0, 0), (1, 0)], [(0, 0, 0), (1, 0, 0), (0, 1, 0)],
                       [(2, -1)]):
            with pytest.raises(ValueError, match="full-dimensional"):
                normal_fan(polytope_hull(points))

    def test_completeness_on_ball(self):
        for p in (multiqubit_polytope(2), multiqubit_polytope(3),
                  polytope_hull([(0, 0), (-1, 0), (0, -1)])):
            fan = normal_fan(p)
            maximal = fan.maximal_cones()
            for x in oracles.ball(p.dim, 5):
                assert any(oracles.cone_contains(c.generators, c.dim, x)
                           for c in maximal)

    def test_normal_cone_dimensions(self):
        p = multiqubit_polytope(3)
        fan = normal_fan(p)
        dims = sorted(oracles.frac_rank(c.generators) for c in fan.cones)
        # one zero cone (improper face), 6 rays (facets), 12 2-D (edges), 8 3-D
        assert dims == [0] + [1] * 6 + [2] * 12 + [3] * 8

    def test_normal_cone_dimension_formula(self):
        # dim N(F) = n - dim F, checked face by face
        for p in (multiqubit_polytope(2), multiqubit_polytope(3),
                  polytope_hull([(0, 0), (-1, 0), (0, -1)])):
            facet_data = []
            for r, _ in p.halfspaces:
                c, y = r[0], r[1:]
                if any(x != 0 for x in y):
                    tight = frozenset(i for i, v in enumerate(p.vertices)
                                      if c + oracles.dot(y, v) == 0)
                    facet_data.append((tight, tuple(-x for x in y)))
            for f in faces(p):
                fs = frozenset(f.indices)
                normals = [n for tight, n in facet_data if fs <= tight]
                ncone = pos_hull(normals, p.dim) if normals \
                    else pos_hull([], dim=p.dim)
                assert oracles.frac_rank(ncone.generators) == p.dim - f.dim

    def test_validate_fan_on_small_normal_fans(self):
        validate_fan(normal_fan(multiqubit_polytope(2)))
        validate_fan(normal_fan(polytope_hull([(0, 0), (-1, 0), (0, -1)])))

    def test_random_polygon_fans_match_edge_walk_oracle(self, rng):
        done = 0
        while done < 10:
            pts = [tuple(rng.randint(-5, 5) for _ in range(2))
                   for _ in range(rng.randint(3, 8))]
            p = polytope_hull(pts, 2)
            if affine_dim(p) < 2:
                continue
            maximal = {c.generators for c in normal_fan(p).maximal_cones()}
            assert maximal == oracles.polygon_normal_fan_maximal(p.vertices), \
                p.vertices
            done += 1

    def test_random_polytope_fans_are_valid_and_complete(self, rng):
        done = 0
        while done < 5:
            dim = 2 if done < 4 else 3
            pts = [tuple(rng.randint(-4, 4) for _ in range(dim))
                   for _ in range(rng.randint(dim + 1, dim + 4))]
            p = polytope_hull(pts, dim)
            if affine_dim(p) < dim:
                continue
            fan = normal_fan(p)
            validate_fan(fan)
            for c in fan.cones:
                assert c == pos_hull(c.generators, p.dim)
            for x in oracles.ball(dim, 3):
                assert any(oracles.cone_contains(c.generators, dim, x)
                           for c in fan.maximal_cones())
            done += 1

    def test_cube_cross_polytope_and_square_cone(self):
        cross3 = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1),
                  (0, 0, -1)]
        cube3 = list(product((-1, 1), repeat=3))
        # polar to each other, with 27 faces each, the improper one included
        for pts, other in ((cube3, cross3), (cross3, cube3)):
            p = polytope_hull(pts + [(0, 0, 0)])
            assert p == polytope_hull(pts)
            assert polar(p) == polytope_hull(other)
            assert len(faces(p)) == 27
            assert len(normal_fan(p).cones) == 27
        # the cone over a square, with a redundant and an interior vector
        gens = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1), (2, 2, 4),
                (0, 0, 1)]
        cone = pos_hull(gens)
        assert cone.generators == ((-1, 0, 1), (0, -1, 1), (0, 1, 1), (1, 0, 1))


class TestPredicates:
    def test_strongly_convex(self):
        assert is_strongly_convex(C((1, 0), (0, 1)))
        assert not is_strongly_convex(C((1, 0), (-1, 0)))
        assert is_strongly_convex(pos_hull([], dim=2))
        assert not is_strongly_convex(C((1, 0), (-1, 1), (0, -1)))

    def test_strongly_convex_matches_definition(self, rng):
        # no generator's negative lies in the cone
        for _ in range(60):
            dim = rng.choice((2, 3))
            vecs = [tuple(rng.randint(-3, 3) for _ in range(dim))
                    for _ in range(rng.randint(1, 5))]
            c = pos_hull(vecs, dim)
            line = any(oracles.cone_contains(c.generators, dim,
                                             tuple(-x for x in g))
                       for g in c.generators)
            assert is_strongly_convex(c) == (not line), vecs

    def test_intersect_cones(self):
        a = C((1, 0), (1, 2))
        b = C((1, 2), (-1, 0))
        assert intersect_cones(a, b) == C((1, 2))
        assert intersect_cones(a, C((-1, -1), (0, -1))).generators == ()


class TestRejections:
    @pytest.mark.parametrize("build, message", [
        (lambda: Cone(0, ()), "ambient dimension must be positive"),
        (lambda: Cone(2, ((1, 0, 0),)), "generator dimension mismatch"),
        (lambda: Cone(2, ((2, 0),)), "generator (2, 0) is not primitive"),
        (lambda: Cone(2, ((1, 0), (0, 1))),
         "generators must be sorted and duplicate-free"),
        (lambda: Polytope(0, ((),)), "ambient dimension must be positive"),
        (lambda: Polytope(2, ()), "polytope needs at least one vertex"),
        (lambda: Polytope(2, ((1,),)), "vertex dimension mismatch"),
        (lambda: Polytope(1, ((1,), (0,))),
         "vertices must be sorted and duplicate-free"),
        (lambda: pos_hull([]), "ambient dimension required for an empty hull"),
        (lambda: polytope_hull([]),
         "ambient dimension required for an empty hull"),
        (lambda: make_fan([C((1, 0))], 3), "cone dimension mismatch in fan"),
    ], ids=["cone-dim", "cone-generator-dim", "cone-primitive", "cone-order",
            "polytope-dim", "polytope-empty", "polytope-vertex-dim",
            "polytope-order", "empty-hull", "empty-polytope-hull",
            "fan-cone-dim"])
    def test_message(self, build, message):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message


class TestValidateFanRejections:
    def test_missing_faces_detected(self):
        fan = make_fan([C((1, 0), (0, 1))], 2)
        with pytest.raises(ValueError, match="closed under faces"):
            validate_fan(fan)

    def test_bad_intersection_detected(self):
        a = C((1, 0), (0, 1))
        b = C((1, 1), (-1, 1))
        cones = list(fan_from_maximal([a]).cones) + \
            list(fan_from_maximal([b]).cones)
        with pytest.raises(ValueError, match="not a common face"):
            validate_fan(make_fan(cones, 2))

    def test_overlapping_maximal_cones_detected(self):
        # fan_from_maximal only collects faces; two maximal cones that
        # overlap in an open set still make a Fan object
        fan = fan_from_maximal([C((1, 0), (0, 1)), C((1, 0), (1, 1))])
        assert len(fan.maximal_cones()) == 2
        with pytest.raises(ValueError, match="not a common face"):
            validate_fan(fan)


class TestCanonicalForms:
    def test_cone_equality_is_canonical(self):
        assert C((2, 0), (1, 2), (1, 1)) == C((1, 0), (1, 2))

    def test_invalid_direct_construction_rejected(self):
        with pytest.raises(ValueError):
            Cone(2, ((2, 0),))  # not primitive
        with pytest.raises(ValueError):
            Cone(2, ((1, 0), (1, 0)))  # duplicate
        with pytest.raises(ValueError):
            Polytope(2, ())  # empty

    X, Y = (0, 1), (1, 0)

    @pytest.mark.parametrize("rays, indices, message", [
        ((Y, X), ((0,), (1,)), "rays must be sorted"),
        ((X, X), ((0,), (1,)), "rays must be sorted"),
        ((X, (1, 0, 0)), ((0,), (1,)), "ray dimension mismatch"),
        ((X, Y), ((0,), (0,), (1,)), "cones must be sorted"),
        ((X, Y), ((1,), (0,)), "cones must be sorted"),
        ((X, Y), ((0,), (1, 0)), "cones must be sorted"),
        ((X, Y), ((0, 0), (1,)), "cones must be sorted"),
        ((X, Y), ((0,), (1,), (1, 2)), "index out of range"),
        ((X, Y), ((-1, 0), (1,)), "index out of range"),
        ((X, Y), ((), (0,)), "a ray on no cone"),
    ], ids=str)
    def test_invalid_fan_table_rejected(self, rays, indices, message):
        with pytest.raises(ValueError, match=message):
            Fan(2, rays, indices)

    def test_fan_table_cones(self):
        fan = Fan(2, (self.X, self.Y), ((), (0,), (0, 1), (1,)))
        assert fan.cones == (C(dim=2), C(self.X), C(self.X, self.Y), C(self.Y))
        assert fan.maximal_cones() == (C(self.X, self.Y),)
        assert make_fan(reversed(fan.cones), fan.dim) == fan

    def test_empty_fan_takes_its_dimension(self):
        empty = make_fan([], 3)
        assert (empty.dim, empty.rays, empty.cones) == (3, (), ())
        with pytest.raises(TypeError):
            make_fan([])  # there is no dimension to infer

    def test_polytope_hull_drops_interior_points(self):
        p = polytope_hull([(0, 0), (1, 1), (2, 2), (0, 2), (2, 0)])
        assert p.vertices == ((0, 0), (0, 2), (2, 0), (2, 2))

    def test_face_cone_roundtrip(self):
        c = C((1, 0), (1, 2))
        ray_faces = [f for f in faces(c) if f.dim == 1]
        assert {face_cone(f) for f in ray_faces} == {C((1, 0)), C((1, 2))}


def vectors(dim, lo=-3, hi=3, min_size=1, max_size=8):
    return hs.lists(hs.tuples(*[hs.integers(lo, hi)] * dim),
                    min_size=min_size, max_size=max_size)


@hs.composite
def full_rank_constraints(draw):
    """Rows spanning Q^dim, with repeated rows and sums of two rows mixed in."""
    dim = draw(hs.integers(2, 5))
    rows = draw(vectors(dim, min_size=dim, max_size=dim + 3))
    picks = hs.integers(0, len(rows) - 1)
    for i in draw(hs.lists(picks, max_size=2)):
        rows.append(rows[i])
    for i, j in draw(hs.lists(hs.tuples(picks, picks), max_size=2)):
        rows.append(tuple(a + b for a, b in zip(rows[i], rows[j])))
    assume(oracles.frac_rank(rows) == dim)
    return dim, draw(hs.permutations(rows))


@hs.composite
def rank_deficient_constraints(draw):
    """Rows of rank < dim: integer combinations of fewer than dim vectors."""
    dim = draw(hs.integers(1, 3))
    span = draw(vectors(dim, min_size=0, max_size=dim - 1))
    coefficients = hs.lists(hs.integers(-2, 2), min_size=len(span),
                            max_size=len(span))
    rows = [tuple(sum(a * v[j] for a, v in zip(cs, span)) for j in range(dim))
            for cs in draw(hs.lists(coefficients, max_size=5))]
    return dim, rows


@hs.composite
def cones(draw):
    """Cones of every kind: pointed or with lines, of any dimension."""
    dim = draw(hs.integers(1, 4))
    flat = draw(hs.integers(0, dim - 1))  # trailing coordinates set to 0
    gens = [v[:dim - flat] + (0,) * flat
            for v in draw(vectors(dim, min_size=0, max_size=6))]
    return pos_hull(gens, dim)


@hs.composite
def full_dimensional_points(draw, max_dim):
    """Lattice points affinely spanning Q^dim, with midpoints of pairs added:
    points in the interior and on faces, repeated vertices."""
    dim = draw(hs.integers(2, max_dim))
    pts = [tuple(2 * x for x in v)
           for v in draw(vectors(dim, min_size=dim + 1, max_size=dim + 5))]
    picks = hs.integers(0, len(pts) - 1)
    for i, j in draw(hs.lists(hs.tuples(picks, picks), max_size=6)):
        pts.append(tuple((a + b) // 2 for a, b in zip(pts[i], pts[j])))
    assume(oracles.frac_rank([tuple(a - b for a, b in zip(p, pts[0]))
                              for p in pts]) == dim)
    return dim, pts


class TestAdjacencyDoubleDescription:
    @given(full_rank_constraints())
    def test_equals_brute_force_extreme_rays(self, case):
        from qtoric.geometry import _adjacency_dd
        dim, rows = case
        rays = sorted(_adjacency_dd(dim, rows))
        assert [r for r, _ in rays] == oracles.extreme_rays(rows, dim)
        for r, zero in rays:
            assert zero == sum(1 << i for i, h in enumerate(rows)
                               if oracles.dot(h, r) == 0)

    @given(full_dimensional_points(3))
    def test_hull_and_faces_match_hyperplane_oracle(self, case):
        dim, pts = case
        distinct = sorted(set(pts))
        lattice = oracles.polytope_faces(distinct, dim)
        vertices = sorted(distinct[i] for s in lattice if len(s) == 1
                          for i in s)
        p = polytope_hull(pts, dim)
        assert list(p.vertices) == vertices
        assert {frozenset(f.indices) for f in faces(p)} == \
            oracles.polytope_faces(p.vertices, dim)

    @given(hs.integers(2, 5).flatmap(lambda dim: vectors(
        dim - 1, min_size=dim, max_size=dim + 4).map(
        lambda pts: [p + (t,) for p, t in zip(pts, (1, 2, 3) * 3)])))
    def test_double_dual_of_pointed_cone(self, gens):
        # a positive last coordinate makes the cone pointed
        dim = len(gens[0])
        c = pos_hull(gens, dim)
        assume(oracles.frac_rank(c.generators) == dim)
        assert dual_cone(dual_cone(c)) == c

    @given(rank_deficient_constraints())
    def test_lines_split_off_a_hermite_basis(self, case):
        dim, rows = case
        every = (1 << len(rows)) - 1
        rays = _dd_rays(dim, rows)
        lines = [r for r, z in rays if z == every]
        pointed = [r for r, z in rays if z != every]
        # the basis vectors are the lines with a positive leading entry
        basis = sorted((b for b in lines if next(x for x in b if x) > 0),
                       reverse=True)
        assert oracles.is_hermite_kernel_basis(basis, rows, dim)
        assert sorted(lines) == sorted(basis + [tuple(-x for x in b)
                                                for b in basis])
        assert all(oracles.dot(p, b) == 0 for p in pointed for b in basis)
        for r, zero in rays:
            assert zero == sum(1 << i for i, h in enumerate(rows)
                               if oracles.dot(h, r) == 0)
        gens = [r for r, _ in rays]
        for x in oracles.ball(dim, 3):
            assert oracles.cone_contains(gens, dim, x) == \
                all(oracles.dot(h, x) >= 0 for h in rows)

    @given(cones())
    def test_double_dual_and_hull_are_identities(self, c):
        assert dual_cone(dual_cone(c)) == c
        assert pos_hull(c.generators, c.dim) == c
        assert is_strongly_convex(c) == \
            (not any(g in c.generators for g in
                     (tuple(-x for x in h) for h in c.generators)))

    @given(full_dimensional_points(4))
    def test_euler_relation_and_face_dimensions(self, case):
        dim, pts = case
        p = polytope_hull(pts, dim)
        fs = faces(p)
        assert sum((-1) ** f.dim for f in fs) == 1
        for f in fs:
            v0 = p.vertices[f.indices[0]]
            diffs = [tuple(a - b for a, b in zip(p.vertices[i], v0))
                     for i in f.indices]
            assert f.dim == oracles.frac_rank(diffs)


@hs.composite
def polytopes(draw):
    """Polytopes of dimension 1-4, lower-dimensional when the trailing
    ``flat`` coordinates are constant, their entries small or, scaled and
    shifted, beyond 2^53."""
    dim = draw(hs.integers(1, 4))
    flat = draw(hs.integers(0, dim))
    scale = draw(hs.sampled_from([1, 2 ** 53 + 1]))
    shift = draw(hs.tuples(*[hs.integers(-2 ** 60, 2 ** 60)] * dim))
    return polytope_hull(
        [tuple(scale * x + s for x, s in zip(v[:dim - flat] + (0,) * flat,
                                             shift))
         for v in draw(vectors(dim, min_size=1, max_size=dim + 3))], dim)


class TestFacesThroughTheCone:
    @given(polytopes())
    def test_faces_are_the_faces_of_the_cone(self, p):
        # each face of p is a face of the cone over {1} x p, with the same
        # vertex indices and one dimension lower; the apex is no face of p
        cone = pos_hull([(1,) + v for v in p.vertices])
        assert cone.generators == tuple((1,) + v for v in p.vertices)
        apex, *lifted = faces(cone)
        assert apex == Face(cone, (), 0)
        assert [(f.dim, f.indices) for f in faces(p)] == \
            [(f.dim - 1, f.indices) for f in lifted]


@hs.composite
def hull_inputs(draw):
    """Vectors in a subspace of rank <= dim, with duplicates, zero vectors,
    multiples, sums of two (redundant or interior points) and negations
    (lines) mixed in."""
    dim = draw(hs.integers(1, 4))
    span = draw(vectors(dim, lo=-2, hi=2, min_size=1, max_size=dim))
    coefficients = hs.lists(hs.integers(-2, 2), min_size=len(span),
                            max_size=len(span))
    vs = [tuple(sum(c * b[j] for c, b in zip(cs, span)) for j in range(dim))
          for cs in draw(hs.lists(coefficients, min_size=1, max_size=7))]
    picks = hs.integers(0, len(vs) - 1)
    for kind, i, j in draw(hs.lists(hs.tuples(
            hs.sampled_from(["copy", "scale", "sum", "negate"]), picks, picks),
            max_size=4)):
        vs.append({"copy": vs[i], "scale": tuple(3 * x for x in vs[i]),
                   "sum": tuple(a + b for a, b in zip(vs[i], vs[j])),
                   "negate": tuple(-x for x in vs[i])}[kind])
    return dim, draw(hs.permutations(vs))


class TestHalfspaces:
    """The hulls keep the double description they ran; it must be the one
    the object would compute for itself."""

    @given(hull_inputs())
    def test_kept_by_pos_hull(self, case):
        dim, vs = case
        c = pos_hull(vs, dim)
        assert c.halfspaces == _dd_rays(dim, c.generators)

    @given(hull_inputs())
    def test_kept_by_polytope_hull(self, case):
        dim, points = case
        p = polytope_hull(points, dim)
        assert p.halfspaces == _dd_rays(dim + 1,
                                        [(1,) + v for v in p.vertices])

    def test_zero_sets_reindexed_onto_kept_generators(self):
        # (1, 1) sits between (0, 1) and (1, 0) and is dropped: bit 2 of the
        # hull's zero sets goes, and nothing else moves
        c = C((1, 1), (0, 1), (1, 0))
        assert c.__dict__["halfspaces"] == [((0, 1), 0b10), ((1, 0), 0b01)]
        p = polytope_hull([(0, 0), (1, 1), (2, 0), (0, 2), (2, 2)])
        assert "halfspaces" in p.__dict__
        assert p.halfspaces == _dd_rays(3, [(1,) + v for v in p.vertices])

    def test_not_a_field(self):
        c, d = C((1, 1), (0, 1), (1, 0)), Cone(2, ((0, 1), (1, 0)))
        assert "halfspaces" in c.__dict__ and "halfspaces" not in d.__dict__
        assert c == d and hash(c) == hash(d) and repr(c) == repr(d)


def _simplex(n):
    """conv{0, -e_1, ..., -e_n}, whose normal fan is the CP^n fan."""
    return polytope_hull([(0,) * n] + [tuple(-int(i == j) for i in range(n))
                                       for j in range(n)])


@hs.composite
def fan_factors(draw):
    """1-3 factors of total dimension at most 5, each a (fan, polytope) pair:
    the CP^n fan and its simplex, or a random full-dimensional lattice
    polytope of dimension 2 or 3 and its normal fan."""
    factors, room = [], 5
    for _ in range(draw(hs.integers(1, 3))):
        if room >= 2 and draw(hs.booleans()):
            _, points = draw(full_dimensional_points(min(3, room)))
            p = polytope_hull(points)
            factors.append((normal_fan(p), p))
        elif room:
            n = draw(hs.integers(1, min(3, room)))
            factors.append((projective_space_fan(n), _simplex(n)))
        room = 5 - sum(p.dim for _, p in factors)
    assume(math.prod(len(p.vertices) for _, p in factors) <= 48)
    return factors


class TestFanProduct:
    @given(fan_factors())
    def test_normal_fan_of_the_product_polytope(self, factors):
        fans, polytopes = zip(*factors)
        product_polytope = polytope_hull(
            [sum(vs, ()) for vs in product(*(p.vertices for p in polytopes))])
        assert fan_product(fans) == normal_fan(product_polytope)

    @pytest.mark.parametrize("fans", [
        [projective_space_fan(1)] * 3,
        [projective_space_fan(1), projective_space_fan(2)],
        [normal_fan(polytope_hull([(0, 0), (2, 0), (0, 1), (1, 2), (-1, 1)])),
         projective_space_fan(1)],
    ], ids=["cp1-cube", "cp1-cp2", "pentagon-cp1"])
    def test_valid(self, fans):
        fan = fan_product(fans)
        validate_fan(fan)
        assert len(fan.indices) == math.prod(len(f.indices) for f in fans)

    def test_single_factor_is_itself(self):
        fan = normal_fan(polytope_hull([(0, 0), (2, 0), (0, 1), (1, 2)]))
        assert fan_product([fan]) == fan

    def test_needs_a_factor(self):
        with pytest.raises(ValueError, match="at least one factor"):
            fan_product([])


def takes_vertex_stars(p):
    """True when faces and normal_fan read the polytope p off its vertex
    stars."""
    return _vertex_stars(len(p.vertices), [z for _, z in p.halfspaces],
                         p.dim) is not None


def through_the_closure(fn, obj):
    """fn(obj) with the vertex stars turned off, so that the closure of
    intersections with the facets lists the faces."""
    with mock.patch.object(geometry, "_vertex_stars", lambda *args: None):
        return fn(obj)


def face_table(obj):
    """faces(obj) as {index set: dimension}, each face once, in (dimension,
    indices) order."""
    listed = [(f.dim, f.indices) for f in faces(obj)]
    assert listed == sorted(set(listed))
    return {frozenset(indices): dim for dim, indices in listed}


def lifted_faces(p):
    """The faces of a full-dimensional polytope by the cone oracle on the
    cone over {1} x p, apex dropped."""
    lattice = oracles.cone_faces([(1,) + v for v in p.vertices], p.dim + 1)
    return {s: dim - 1 for s, dim in lattice.items() if s}


def check_polytope(p, table, simple):
    """faces(p) and normal_fan(p) against p's faces from an oracle, on the
    path ``simple`` names, and the same bytes through the closure."""
    assert takes_vertex_stars(p) == simple
    assert face_table(p) == table
    assert [c.generators for c in normal_fan(p).cones] == \
        oracles.normal_fan_cones(p.vertices, p.dim, table)
    assert faces(p) == through_the_closure(faces, p)
    assert normal_fan(p) == through_the_closure(normal_fan, p)


def check_product(simplices):
    """check_polytope on the product of the simplices, a simple polytope."""
    p = polytope_hull([sum(v, ()) for v in product(*simplices)])
    index = {v: i for i, v in enumerate(p.vertices)}
    check_polytope(p, {frozenset(index[v] for v in s): dim for s, dim in
                       oracles.simplex_product_faces(simplices).items()},
                   simple=True)


def check_cone(c):
    """faces(c), which the closure lists, against the cone oracle."""
    assert face_table(c) == oracles.cone_faces(c.generators, c.dim)


@hs.composite
def simplex_products(draw):
    """Products of 1-5 factors of total dimension at most 5, each the segment
    [-1, 1] or [0, 1] or a random lattice simplex of dimension 1-3: prisms,
    cubes, and products of simplices and segments."""
    simplices, room = [], 5
    while room and (not simplices or draw(hs.booleans())):
        n = draw(hs.integers(1, min(3, room)))
        if n == 1 and draw(hs.booleans()):
            simplices.append(draw(hs.sampled_from([[(-1,), (1,)],
                                                   [(0,), (1,)]])))
        else:
            pts = draw(vectors(n, lo=-2, hi=2, min_size=n + 1,
                               max_size=n + 1))
            assume(oracles.frac_rank([tuple(a - b for a, b in zip(v, pts[0]))
                                      for v in pts]) == n)
            simplices.append(pts)
        room -= n
    return simplices


OCTAHEDRON = [tuple(s * int(i == j) for j in range(3))
              for i in range(3) for s in (1, -1)]


@hs.composite
def simple_hulls(draw):
    """Random simple 3-d polytopes: the polar, scaled onto the lattice, of
    the hull of the octahedron and random points, which is simplicial when
    the points fall in general position."""
    q = polytope_hull(OCTAHEDRON + draw(vectors(3, min_size=1, max_size=5)))
    # the origin is interior to q, so each facet c + <y, x> >= 0 has c > 0
    # and the polar's vertex y / c
    scale = math.lcm(*(r[0] for r, _ in q.halfspaces))
    p = polytope_hull([tuple(x * (scale // r[0]) for x in r[1:])
                       for r, _ in q.halfspaces])
    assume(takes_vertex_stars(p))
    return p


SPHERE6 = [v for v in product(range(-3, 4), repeat=4)
           if sum(x * x for x in v) == 6]


def _cross_polytope(m):
    return [tuple(s * int(i == j) for j in range(m))
            for i in range(m) for s in (1, -1)]


class TestVertexStars:
    """A simple polytope, each vertex on dim facets, reads its faces and
    normal fan off the vertex stars; every cone and every other polytope
    runs the closure, and both give the oracles' faces."""

    @pytest.mark.parametrize("m", range(1, 6))
    @pytest.mark.parametrize("values", [(-1, 1), (0, 1)], ids=["pm1", "01"])
    def test_cubes(self, m, values):
        check_product([[(x,) for x in values]] * m)

    @given(simplex_products())
    def test_products_of_simplices_and_segments(self, simplices):
        check_product(simplices)

    @given(simple_hulls())
    def test_random_simple_3d_hulls(self, p):
        table = lifted_faces(p)
        assert set(table) == oracles.polytope_faces(p.vertices, 3)
        check_polytope(p, table, simple=True)

    @pytest.mark.parametrize("points", [
        _cross_polytope(3), _cross_polytope(4), _cross_polytope(5),
        [(-1, -1, 0), (-1, 1, 0), (1, -1, 0), (1, 1, 0), (0, 0, 1)],
    ], ids=["cross3", "cross4", "cross5", "square-pyramid"])
    def test_non_simple_polytopes_keep_the_closure(self, points):
        # the pyramid's apex, third in vertex order, is its only vertex on
        # more than 3 facets
        p = polytope_hull(points)
        check_polytope(p, lifted_faces(p), simple=False)

    def test_random_4d_sphere_hulls_keep_the_closure(self, rng):
        done = 0
        while done < 4:
            p = polytope_hull(rng.sample(SPHERE6, rng.randint(9, 10)))
            if affine_dim(p) < 4:
                continue
            check_polytope(p, lifted_faces(p), simple=False)
            done += 1

    @given(hs.lists(hs.tuples(hs.integers(-3, 3), hs.integers(-3, 3),
                              hs.integers(1, 3)), min_size=3, max_size=8))
    def test_pointed_3d_cones(self, gens):
        c = pos_hull(gens, 3)
        assume(oracles.frac_rank(c.generators) == 3)
        check_cone(c)

    @given(hs.integers(2, 5).flatmap(
        lambda dim: vectors(dim, min_size=dim, max_size=dim)))
    def test_simplicial_cones(self, gens):
        dim = len(gens[0])
        assume(oracles.frac_rank(gens) == dim)
        c = pos_hull(gens, dim)
        assert len(c.generators) == dim
        check_cone(c)

    def test_cone_over_the_4_cube(self):
        c = pos_hull([(1,) + v for v in product((-1, 1), repeat=4)], 5)
        assert len(c.generators) == 16
        check_cone(c)

    @pytest.mark.parametrize("points", [
        [(1, -2, 3)],
        [(0, 1), (2, 3)],
        [(0, 0, 1), (1, 0, 1), (0, 1, 1)],
        [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)],
    ], ids=["point", "segment", "triangle", "square"])
    def test_lower_dimensional_polytopes_keep_the_closure(self, points):
        # a k-polytope in Z^d has at least k facets and the 2(d - k)
        # lineality rows through each vertex, more than d
        p = polytope_hull(points)
        assert affine_dim(p) < p.dim
        assert not takes_vertex_stars(p)
        table = face_table(p)
        assert set(table) == oracles.supporting_faces(p.vertices, p.dim)
        assert all(dim == oracles.frac_rank([(1,) + p.vertices[i] for i in s])
                   - 1 for s, dim in table.items())

    @given(polytopes())
    def test_both_paths_agree(self, p):
        assert faces(p) == through_the_closure(faces, p)
        if affine_dim(p) == p.dim:
            assert normal_fan(p) == through_the_closure(normal_fan, p)
