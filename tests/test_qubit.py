"""Projective and multi-qubit fans, atlases, and the subset-product map."""

import json
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as hs

import oracles
from conftest import fan_from_maximal, random_complex_rational, validate_fan
from qtoric import (atlas_product, chart_atlas, dual_cone, fan_product,
                    hilbert_basis, make_fan, multiqubit_atlas,
                    multiqubit_fan, multiqubit_polytope,
                    normal_fan, parameterization, parameterization_image, polar,
                    polytope_hull, pos_hull, projective_space_fan,
                    segre_minors,minor_value, toric_ideal_binomials,
                    verify_parameterization, MonomialMap)
from qtoric import cli, geometry, jsonio, qubit, segre
from qtoric.rationals import ComplexRational


def compose(a, b):
    n = len(a)
    return tuple(tuple(sum(a[r][c] * b[c][s] for c in range(n))
                       for s in range(n)) for r in range(n))


IDENTITY2 = ((1, 0), (0, 1))


def unimodular_image(fan, rng):
    """The fan under a random integer matrix of determinant +-1."""
    n = fan.dim
    mat = [[int(r == c) * rng.choice((1, -1)) for c in range(n)]
           for r in range(n)]
    for _ in range(3 if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((1, -1))
        mat[i] = [x + s * y for x, y in zip(mat[i], mat[j])]
    return fan_from_maximal([
        pos_hull([tuple(sum(a * b for a, b in zip(row, g)) for row in mat)
                  for g in cone.generators], n)
        for cone in fan.maximal_cones()])


class TestProjectiveSpaceFan:
    def test_cp1_three_cones(self):
        fan = projective_space_fan(1)
        assert [c.generators for c in fan.cones] == [(), ((-1,),), ((1,),)]

    def test_cp2_maximal_cones(self):
        fan = projective_space_fan(2)
        expected = {((0, 1), (1, 0)), ((-1, -1), (0, 1)), ((-1, -1), (1, 0))}
        assert {c.generators for c in fan.maximal_cones()} == expected

    def test_equals_normal_fan_of_simplex(self):
        # the reference fan is generated by its maximal cones, not by normals
        for n in (1, 2, 3, 4):
            expected = fan_from_maximal(
                [pos_hull(gens, n)
                 for gens in oracles.projective_space_maximal(n)])
            simplex = polytope_hull(
                [tuple(0 for _ in range(n))] +
                [tuple(-int(i == j) for i in range(n)) for j in range(n)])
            assert normal_fan(simplex) == expected
            assert projective_space_fan(n) == expected

    def test_complete_on_ball(self):
        for n in (1, 2, 3):
            maximal = projective_space_fan(n).maximal_cones()
            for x in oracles.ball(n, 4):
                assert any(oracles.cone_contains(c.generators, n, x)
                           for c in maximal)

    def test_valid_fan(self):
        validate_fan(projective_space_fan(2))
        validate_fan(projective_space_fan(3))


@pytest.mark.parametrize("build, message", [
    (lambda: projective_space_fan(0), "projective dimension must be at least 1"),
    (lambda: multiqubit_polytope(0), "party count must be between 1 and 10"),
    (lambda: multiqubit_fan(11), "party count must be between 1 and 10"),
    (lambda: multiqubit_atlas(0), "party count must be between 1 and 10"),
    (lambda: parameterization(11), "party count must be between 1 and 10"),
    (lambda: atlas_product([]), "a fan product needs at least one factor"),
], ids=["cp0", "polytope-0", "fan-11", "atlas-0", "param-11", "no-factor"])
def test_size_rejected(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


class TestMultiqubitPolytopeAndFan:
    def test_cube_vertices(self):
        cube = multiqubit_polytope(3)
        assert len(cube.vertices) == 8
        assert all(all(abs(x) == 1 for x in v) for v in cube.vertices)

    def test_segment(self):
        assert multiqubit_polytope(1).vertices == ((-1,), (1,))

    def test_square_polar_is_cross(self):
        assert polar(multiqubit_polytope(2)).vertices == \
            ((-1, 0), (0, -1), (0, 1), (1, 0))

    def test_fan_is_orthant_fan(self):
        for m in (1, 2, 3):
            fan = multiqubit_fan(m)
            assert len(fan.cones) == 3 ** m
            maximal = fan.maximal_cones()
            assert len(maximal) == 2 ** m
            for c in maximal:
                assert all(sum(abs(x) for x in g) == 1 for g in c.generators)

    def test_two_qubit_edges(self):
        rays = [c for c in multiqubit_fan(2).cones if len(c.generators) == 1]
        assert {c.generators[0] for c in rays} == \
            {(1, 0), (0, 1), (-1, 0), (0, -1)}

    def test_m1_equals_cp1(self):
        assert multiqubit_fan(1) == projective_space_fan(1)

    def test_fan_polytope_duality(self):
        # the normal fan of the cube is the orthant fan, enumerated directly
        for m in range(1, 7):
            assert [c.generators for c in multiqubit_fan(m).cones] == \
                oracles.orthant_fan_cones(m)

    def test_product_fan_is_normal_fan_of_cube(self):
        for m in range(1, 7):
            assert multiqubit_fan(m) == normal_fan(multiqubit_polytope(m))

    def test_polar_is_cross_polytope(self):
        for m in range(1, 7):
            cross = polytope_hull(
                [tuple(s * int(i == j) for i in range(m))
                 for j in range(m) for s in (1, -1)])
            assert polar(multiqubit_polytope(m)) == cross

    def test_validate_small_fans(self):
        validate_fan(multiqubit_fan(2))

    def test_party_count_bounds(self):
        with pytest.raises(ValueError):
            multiqubit_polytope(0)
        with pytest.raises(ValueError):
            multiqubit_fan(11)

    def test_upper_bound_constructions(self):
        assert len(multiqubit_polytope(10).vertices) == 1024
        assert len(multiqubit_fan(8).cones) == 3 ** 8
        exponents = parameterization(10)
        assert len(exponents) == 1024
        assert exponents[0] == (0,) * 10
        assert exponents[-1] == (1,) * 10


def _fan_doc(dim, *cones):
    return {"dim": dim, "cones": [
        {"dim": dim, "generators": [list(g) for g in c]} for c in cones]}


OCTANTS = [[(s, 0, 0), (0, t, 0), (0, 0, u)]
           for s, t, u in product((1, -1), repeat=3)]

# inputs that are not smooth complete fans, each with the error that the
# determinants of its cones with at least dim rays decide
ATLAS_FAULTS = {
    "lower-dimensional": (
        _fan_doc(3, [(1, 0, 0), (0, 1, 0)], [(0, 1, 0), (-1, 0, 0)]),
        "fan is not complete: it has no maximal cone"),
    "half-plane": (
        _fan_doc(3, *OCTANTS, [(1, 0, 0), (-1, 0, 0), (0, 1, 0)]),
        "maximal cone ((-1, 0, 0), (0, 1, 0), (1, 0, 0)) is not simplicial"),
    "square": (
        _fan_doc(3, [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]),
        "maximal cone ((-1, 0, 1), (0, -1, 1), (0, 1, 1), (1, 0, 1)) "
        "is not simplicial"),
    "wedge": (_fan_doc(2, [(1, 0), (1, 2)]),
              "maximal cone ((1, 0), (1, 2)) is not smooth"),
    "empty": (_fan_doc(2), "fan is not complete: it has no maximal cone"),
    "overlapping": (
        _fan_doc(2, [(1, 0), (0, 1)], [(1, 0), (1, 1)], [(1, 1), (0, 1)]),
        "fan is not complete: facet [(1, 0)] does not lie between two "
        "maximal cones on opposite sides"),
    # a short cone inside the first octant, but not a face of it
    "inner-cone": (
        _fan_doc(3, *OCTANTS, [(1, 1, 0), (0, 0, 1)]),
        "cone ((0, 0, 1), (1, 1, 0)) is not a face of a maximal cone"),
    # each ray lies in some maximal cone, but no maximal cone holds both
    "line": (
        _fan_doc(3, *OCTANTS, [(1, 0, 0), (-1, 0, 0)]),
        "cone ((-1, 0, 0), (1, 0, 0)) is not a face of a maximal cone"),
    # every facet lies between two cones on opposite sides, but the five
    # cones wind around the origin twice
    "double-cover": (
        _fan_doc(2, [(1, 0), (1, 1)], [(2, 1), (-3, -1)], [(1, 1), (-3, -2)],
                 [(-3, -1), (1, 0)], [(-3, -2), (2, 1)]),
        "maximal cones overlap: 2 of them hold (-2, -1)"),
}


class TestChartAtlas:
    def test_cp1_gluing(self):
        atlas = chart_atlas(projective_space_fan(1))
        assert len(atlas.charts) == 2
        coords = {ch.coordinates for ch in atlas.charts}
        assert coords == {((1,),), ((-1,),)}
        assert len(atlas.transitions) == 2
        for _, _, mat in atlas.transitions:
            assert mat == ((-1,),)

    def test_two_qubit_four_charts(self):
        atlas = chart_atlas(multiqubit_fan(2))
        assert len(atlas.charts) == 4
        seen = {frozenset(ch.coordinates) for ch in atlas.charts}
        assert seen == {
            frozenset(((1, 0), (0, 1))),
            frozenset(((-1, 0), (0, 1))),
            frozenset(((1, 0), (0, -1))),
            frozenset(((-1, 0), (0, -1))),
        }

    def test_chart_count_equals_maximal_cones(self):
        for fan in (projective_space_fan(2), multiqubit_fan(3)):
            atlas = chart_atlas(fan)
            assert len(atlas.charts) == len(fan.maximal_cones())

    def test_round_trip_identity(self):
        for fan in (projective_space_fan(2), multiqubit_fan(2),
                    multiqubit_fan(3)):
            atlas = chart_atlas(fan)
            pairs = {(i, j) for i, j, _ in atlas.transitions}
            assert pairs == {(j, i) for i, j in pairs}
            for i, j, mat in atlas.transitions:
                back = atlas.transition(j, i)
                n = len(mat)
                identity = tuple(tuple(int(r == c) for c in range(n))
                                 for r in range(n))
                assert compose(back, mat) == identity

    def test_transition_between_non_adjacent_charts_raises(self):
        atlas = chart_atlas(multiqubit_fan(2))
        with pytest.raises(KeyError, match="no transition between charts 0 and 0"):
            atlas.transition(0, 0)
        # opposite orthants share no facet
        pairs = {(i, j) for i, j, _ in atlas.transitions}
        assert len(pairs) == 8
        with pytest.raises(KeyError, match="charts 0 and 3"):
            atlas.transition(0, 3)

    def test_transitions_consistent_numerically(self):
        # push an exact torus point through chart 0 -> chart j coordinates and
        # compare against evaluating chart j's monomials directly
        atlas = chart_atlas(multiqubit_fan(2))
        z = (Fraction(2, 3), Fraction(-5))

        def monomial(expo):
            value = Fraction(1)
            for base, e in zip(z, expo):
                value = value * base ** e
            return value

        charts = atlas.charts
        for i, j, mat in atlas.transitions:
            u = [monomial(c) for c in charts[i].coordinates]
            for row, expo in zip(mat, charts[j].coordinates):
                via_chart_i = Fraction(1)
                for base, e in zip(u, row):
                    via_chart_i = via_chart_i * base ** e
                assert via_chart_i == monomial(expo)

    def test_coordinates_are_the_dual_hilbert_basis(self, rng):
        fans = ([multiqubit_fan(m) for m in range(1, 5)]
                + [projective_space_fan(n) for n in range(1, 5)])
        fans += [unimodular_image(fan, rng) for fan in fans for _ in range(3)]
        for fan in fans:
            atlas = chart_atlas(fan)
            charts = atlas.charts
            for chart in charts:
                assert chart.coordinates == \
                    hilbert_basis(dual_cone(chart.cone)).generators
            # row c of T writes chart j's coordinate c over chart i's
            for i, j, mat in atlas.transitions:
                for row, target in zip(mat, charts[j].coordinates):
                    assert tuple(sum(e * u[d] for e, u in
                                     zip(row, charts[i].coordinates))
                                 for d in range(fan.dim)) == target

    def test_non_simplicial_cone_rejected(self):
        square_cone = pos_hull([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)])
        fan = make_fan([square_cone], 3)
        with pytest.raises(ValueError, match="simplicial"):
            chart_atlas(fan)

    def test_cones_on_one_side_of_a_facet_rejected(self):
        # every facet has two owners, but pos{e1, e2} and pos{e1, e1 + e2}
        # both lie on the e2 side of their common facet pos{e1}
        fan = make_fan([pos_hull([(1, 0), (0, 1)]), pos_hull([(1, 0), (1, 1)]),
                        pos_hull([(1, 1), (0, 1)])], 2)
        with pytest.raises(ValueError, match="opposite sides"):
            chart_atlas(fan)

    def test_non_smooth_cone_rejected(self):
        fan = make_fan([pos_hull([(1, 0), (1, 2)])], 2)
        with pytest.raises(ValueError, match="smooth"):
            chart_atlas(fan)

    def test_empty_fan_rejected(self):
        with pytest.raises(ValueError, match="fan is not complete"):
            chart_atlas(make_fan([], 2))

    def test_faces_of_maximal_cones_accepted(self):
        # a short cone is a face exactly when one maximal cone holds its rays
        octants = chart_atlas(jsonio.fan_from_json(_fan_doc(3, *OCTANTS)))
        for face in ([(1, 0, 0), (0, 1, 0)], [(-1, 0, 0)],
                     [(0, -1, 0), (0, 0, 1)]):
            atlas = chart_atlas(jsonio.fan_from_json(
                _fan_doc(3, *OCTANTS, face)))
            assert (atlas.charts, atlas.transitions) == \
                (octants.charts, octants.transitions)

    @pytest.mark.parametrize("doc, message", ATLAS_FAULTS.values(),
                             ids=ATLAS_FAULTS.keys())
    def test_atlas_fault_table(self, capsys, doc, message):
        with pytest.raises(ValueError) as err:
            chart_atlas(jsonio.fan_from_json(doc))
        assert str(err.value) == message
        assert cli.main(["atlas", "--fan", json.dumps(doc)]) == 2
        assert capsys.readouterr().out == \
            json.dumps({"error": message}, separators=(",", ":")) + "\n"

    def test_atlas_takes_no_maximal_cones(self, capsys, monkeypatch):
        # the charts are the cones with dim rays, decided by their determinants
        golden = [entry for entry in json.loads(
            (Path(__file__).parent / "cli_golden.json").read_text())
            if entry["argv"][0] == "atlas"]
        assert {tuple(e["argv"][1:]) for e in golden} >= \
            {("--qubits", "4"), ("--projective", "3")}

        def refuse(obj):
            raise AssertionError("a maximal cone was asked for")

        monkeypatch.setattr(geometry.Fan, "maximal_cones", refuse)
        for entry in golden:
            assert cli.main(entry["argv"]) == 0
            assert capsys.readouterr().out == entry["stdout"]


class TestAtlasProduct:
    """The product atlas must be the one chart_atlas decides on the product
    fan, chart numbers and transition matrices included."""

    @pytest.mark.parametrize("m", range(1, 7))
    def test_qubit_atlas_is_chart_atlas_of_its_fan(self, m):
        assert multiqubit_atlas(m) == chart_atlas(multiqubit_fan(m))

    @pytest.mark.parametrize("ns", [(1,), (2,), (1, 2), (2, 1), (2, 2),
                                    (3, 1), (1, 1, 2), (1, 2, 1)],
                             ids=str)
    def test_projective_products(self, ns):
        fans = [projective_space_fan(n) for n in ns]
        assert atlas_product(map(chart_atlas, fans)) == \
            chart_atlas(fan_product(fans))

    def test_transitions_are_inverse_pairs(self):
        atlas = atlas_product(chart_atlas(projective_space_fan(n))
                              for n in (2, 1))
        # 3 x 2 charts, each adjacent to two CP^2 and one CP^1 neighbour
        assert len(atlas.transitions) == 3 * 2 * (2 + 1)
        identity = tuple(tuple(int(r == c) for c in range(3)) for r in range(3))
        for i, j, mat in atlas.transitions:
            assert compose(atlas.transition(j, i), mat) == identity


class TestParameterization:
    def test_two_qubit_exponents(self):
        assert parameterization(2) == ((0, 0), (0, 1), (1, 0), (1, 1))

    def test_first_zero_last_ones(self):
        for m in (1, 2, 3, 5):
            exponents = parameterization(m)
            assert exponents[0] == (0,) * m
            assert exponents[-1] == (1,) * m

    def test_index_bit_convention(self):
        # amplitude index (0,1) carries z_2, matching the displayed map
        z = (ComplexRational(Fraction(7)), ComplexRational(Fraction(11)))
        st = parameterization_image(z)
        assert st.amplitude((0, 1)) == ComplexRational(Fraction(11))
        assert st.amplitude((1, 0)) == ComplexRational(Fraction(7))
        assert st.amplitude((1, 1)) == ComplexRational(Fraction(77))

    def test_image_matches_segre_map(self, rng):
        for m in (1, 2, 3, 5):
            z = tuple(random_complex_rational(rng) for _ in range(m))
            image = list(parameterization_image(z).amplitudes.items())
            assert image == list(oracles.subset_products(z).items())
            assert image == list(oracles.segre_product(
                [(1, zj) for zj in z]).items())

    def test_image_multiplication_count(self, monkeypatch):
        # prefix products: at most 2 + 4 + ... + 2^m multiplications, not
        # one per factor of every amplitude (m 2^(m-1) = 5,120 at m = 10),
        # taken in Gaussian integers
        calls = []
        mul = segre._gmul

        def counted(a, b):
            calls.append(None)
            return mul(a, b)

        monkeypatch.setattr(segre, "_gmul", counted)
        z = [ComplexRational(Fraction(j + 2), Fraction(1, j + 1))
             for j in range(10)]
        st = parameterization_image(z)
        assert len(st.amplitudes) == 1024
        assert 0 < len(calls) <= 2 ** 11 - 2

    def test_verify_parameterization(self):
        assert verify_parameterization(
            2, (ComplexRational(Fraction(2)), ComplexRational(Fraction(3))))
        assert verify_parameterization(
            3, (ComplexRational(Fraction(1)), ComplexRational(Fraction(-1)),
                ComplexRational(Fraction(5))))

    @given(hs.integers(1, 5).flatmap(lambda m: hs.one_of(*(
        hs.lists(coordinate.filter(bool), min_size=m, max_size=m)
        for coordinate in (
            hs.builds(ComplexRational, hs.fractions(-4, 4, max_denominator=5),
                      hs.fractions(-4, 4, max_denominator=5)),
            hs.floats(-100, 100), hs.complex_numbers(max_magnitude=100))))))
    def test_agrees_with_all_minors(self, z):
        # exact or float coordinates; a float minor can keep a rounding residue
        m = len(z)
        image = parameterization_image(z)
        expected = all(not minor_value(image, minor)
                       for minor in segre_minors((2,) * m))
        assert verify_parameterization(m, z) == expected

    def test_checks_in_order_without_exponent_table(self, monkeypatch):
        # the image is the Segre map of (1, z_j), with the party count read
        # off z: verification builds no exponent table
        def refuse(m):
            raise AssertionError("exponent table built")

        monkeypatch.setattr(qubit, "parameterization", refuse)
        two, zero = ComplexRational(Fraction(2)), ComplexRational(Fraction(0))
        assert verify_parameterization(2, (two, two))
        assert verify_parameterization(10, [two] * 10)
        # the length is checked first, then the coordinates, then m
        for m, z, message in (
                (11, (zero,) * 3, "expected 11 torus coordinates, got 3"),
                (2, (two,) * 3, "expected 2 torus coordinates, got 3"),
                (11, (zero,) * 11, "all torus coordinates must be nonzero"),
                (11, (two,) * 11, "party count must be between 1 and 10"),
                (0, (), "party count must be between 1 and 10")):
            with pytest.raises(ValueError, match=f"^{message}$"):
                verify_parameterization(m, z)

    def test_zero_coordinate_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            verify_parameterization(2, (ComplexRational(Fraction(0)),
                                        ComplexRational(Fraction(3))))

    def test_perturbed_image_fails(self):
        z = (ComplexRational(Fraction(2)), ComplexRational(Fraction(3)))
        st = parameterization_image(z)
        bumped = dict(st.amplitudes)
        bumped[(0, 1)] = bumped[(0, 1)] + 1
        perturbed_amps = bumped
        from qtoric import PureState
        perturbed = PureState((2, 2), perturbed_amps)
        assert any(minor_value(perturbed, m) for m in segre_minors((2, 2)))

    def test_lands_on_segre_variety(self, rng):
        for m in (1, 2, 3, 4):
            minors = segre_minors((2,) * m) if m > 1 else ()
            for _ in range(50):
                z = tuple(random_complex_rational(rng) for _ in range(m))
                assert verify_parameterization(m, z)
                st = parameterization_image(z)
                for minor in minors:
                    assert not minor_value(st, minor)

    def test_ideal_vanishes_on_images(self, rng):
        for m in (2, 3):
            exponents = parameterization(m)
            ideal = toric_ideal_binomials(MonomialMap(m, exponents), 2)
            assert ideal.generators
            for _ in range(50):
                z = tuple(random_complex_rational(rng) for _ in range(m))
                st = parameterization_image(z)
                point = [st.amplitude(idx) for idx in exponents]
                for b in ideal.generators:
                    assert not oracles.binomial_value(b, point)
