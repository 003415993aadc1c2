"""Toric ideals: kernel lattices, degree-bounded binomials, projective relations."""

from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import gcd, prod

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as hs

import oracles
from conftest import random_rational
from qtoric import (Binomial, MonomialMap, homogenize, projective_relations,
                    segre_minors, toric_ideal_binomials)
from qtoric.linalg import orthogonal_lattice
from qtoric.toric_ideal import BinomialIdeal, _image_weights


def subset_product_map(m: int) -> MonomialMap:
    return MonomialMap(m, tuple(product((0, 1), repeat=m)))


def kernel_lattice(m: MonomialMap):
    """A Z-basis of {v in Z^k : sum_i v_i a_i = 0}: the lattice orthogonal
    to the dim coordinate rows of the exponent vectors a_1, ..., a_k."""
    return tuple(orthogonal_lattice(
        [[a[c] for a in m.exponents] for c in range(m.dim)], len(m.exponents)))


def in_integer_span(basis, v) -> bool:
    if not basis:
        return all(x == 0 for x in v)
    try:
        coeffs = oracles.frac_solve(list(basis), list(v))
    except ValueError:
        return False
    return coeffs is not None and all(c.denominator == 1 for c in coeffs)


class TestRejections:
    @pytest.mark.parametrize("build, message", [
        (lambda: MonomialMap(0, ()), "ambient dimension must be positive"),
        (lambda: MonomialMap(2, ((1,),)), "exponent dimension mismatch"),
        (lambda: projective_relations([], 2),
         "at least one exponent vector is required"),
        (lambda: BinomialIdeal(MonomialMap(1, ((1,),)), 0),
         "degree bound must be at least 1"),
        (lambda: BinomialIdeal(MonomialMap(1, ((1,),)), -1),
         "degree bound must be at least 1"),
    ], ids=["map-dim", "exponent-dim", "no-exponents", "degree-0",
            "degree-minus-1"])
    def test_message(self, build, message):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message

    @pytest.mark.parametrize("exponents", [
        ((0.1,), (0.2,), (0.7,), (0.8,)), (("1",), (2,)), ((1.0,), (2,)),
    ], ids=["fractional", "string", "integral-float"])
    def test_non_integer_exponents_refused(self, exponents):
        # the fractional map once had an empty ideal at degree 2 (0.1 + 0.8
        # and 0.2 + 0.7 differ as floats), the string one a TypeError
        with pytest.raises(ValueError) as info:
            MonomialMap(1, exponents)
        assert str(info.value) == "exponents must be integers"

    def test_integer_like_exponents_are_stored_as_ints(self):
        m = MonomialMap(1, [np.array([1]), [np.int64(2)], (True,), (8,)])
        assert m.exponents == ((1,), (2,), (1,), (8,))
        assert all(type(x) is int for a in m.exponents for x in a)
        assert m == MonomialMap(1, ((1,), (2,), (1,), (8,)))
        # the scaled map of the fractional one above relates x0 x3 and x1 x2
        assert toric_ideal_binomials(MonomialMap(
            1, ((1,), (2,), (7,), (8,))), 2).pairs

    def test_map_without_exponents_has_an_empty_kernel(self):
        assert kernel_lattice(MonomialMap(2, ())) == ()


class TestKernelLattice:
    def test_two_qubit_affine_map(self):
        # the map contains the constant monomial a_1 = (0,0), so the exact
        # nullspace of the 2x4 exponent matrix has rank 2, and the classical
        # quadric relation (1,-1,-1,1) lies in its integer span
        m = MonomialMap(2, ((0, 0), (1, 0), (0, 1), (1, 1)))
        basis = kernel_lattice(m)
        assert len(basis) == 2
        for v in basis:
            assert all(sum(v[i] * m.exponents[i][c] for i in range(4)) == 0
                       for c in range(2))
        # oracle: brute-force kernel vectors in a small ball are all spanned
        for v in oracles.ball(4, 3):
            if all(sum(v[i] * m.exponents[i][c] for i in range(4)) == 0
                   for c in range(2)):
                assert in_integer_span(basis, v)
        assert in_integer_span(basis, (1, -1, -1, 1))

    def test_injective_map_has_empty_kernel(self):
        assert kernel_lattice(MonomialMap(2, ((1, 0), (0, 1)))) == ()

    def test_duplicate_monomials(self):
        assert kernel_lattice(MonomialMap(1, ((1,), (1,)))) == ((1, -1),)

    def test_basis_vectors_primitive(self):
        m = MonomialMap(2, ((2, 0), (0, 2), (1, 1), (3, 3)))
        basis = kernel_lattice(m)
        assert basis
        for v in basis:
            g = 0
            for x in v:
                g = gcd(g, abs(x))
            assert g == 1


class TestToricIdealBinomials:
    def test_two_qubit_single_quadric(self):
        ideal = toric_ideal_binomials(subset_product_map(2), 2)
        assert [(b.nu, b.mu) for b in ideal.generators] == \
            [((1, 0, 0, 1), (0, 1, 1, 0))]

    def test_injective_map_no_relations(self):
        ideal = toric_ideal_binomials(MonomialMap(2, ((1, 0), (0, 1))), 3)
        assert ideal.generators == ()

    def test_three_qubit_quadric_span_dimension(self):
        ideal = toric_ideal_binomials(subset_product_map(3), 2)
        rows = [_binomial_as_quadric_row(b, 8) for b in ideal.generators]
        assert oracles.frac_rank(rows) == 9

    def test_degree2_span_formula(self):
        # span dim = C(2^m+1, 2) - 3^m for the subset-product maps
        for m, expected in ((1, 0), (2, 1), (3, 9)):
            ideal = toric_ideal_binomials(subset_product_map(m), 2)
            k = 2 ** m
            rows = [_binomial_as_quadric_row(b, k) for b in ideal.generators]
            rank = oracles.frac_rank(rows) if rows else 0
            assert rank == expected
            assert expected == k * (k + 1) // 2 - 3 ** m

    def test_soundness_on_random_torus_points(self, rng):
        maps = [subset_product_map(2), subset_product_map(3),
                MonomialMap(2, ((0, 0), (1, 0), (0, 1), (1, 1), (2, 1)))]
        for m in maps:
            ideal = toric_ideal_binomials(m, 3)
            for _ in range(20):
                z = []
                while len(z) < m.dim:
                    q = random_rational(rng)
                    if q:
                        z.append(q)
                point = [oracles.monomial_value(a, z) for a in m.exponents]
                for b in ideal.generators:
                    assert oracles.binomial_value(b, point) == 0

    def test_kernel_consistency(self):
        for m in (subset_product_map(2), subset_product_map(3)):
            basis = kernel_lattice(m)
            for b in toric_ideal_binomials(m, 2).generators:
                diff = tuple(x - y for x, y in zip(b.nu, b.mu))
                assert in_integer_span(basis, diff)

    def test_laurent_exponents_supported(self, rng):
        # x z, 1/x, x, z, 1/z: inverse pairs give xi1*xi2 - xi3*xi5 etc.
        m = MonomialMap(2, ((-1, 0), (1, 0), (0, 1), (0, -1)))
        ideal = toric_ideal_binomials(m, 2)
        assert [(b.nu, b.mu) for b in ideal.generators] == \
            [((1, 1, 0, 0), (0, 0, 1, 1))]
        for _ in range(10):
            z = []
            while len(z) < 2:
                q = random_rational(rng)
                if q:
                    z.append(q)
            point = [oracles.monomial_value(a, z) for a in m.exponents]
            for b in ideal.generators:
                assert oracles.binomial_value(b, point) == 0

    def test_degree_bound_validated(self):
        with pytest.raises(ValueError):
            toric_ideal_binomials(subset_product_map(2), 0)

    def test_generators_canonical(self):
        ideal = toric_ideal_binomials(subset_product_map(3), 2)
        gens = ideal.generators
        assert len(set(gens)) == len(gens)
        for b in gens:
            assert b.nu > b.mu
            assert not any(x > 0 and y > 0 for x, y in zip(b.nu, b.mu))
        assert list(gens) == sorted(gens, key=lambda g: (sum(g.nu), g.nu, g.mu))


@hs.composite
def monomial_maps(draw):
    """Up to six exponent vectors in Z^1..Z^3 with negative and zero entries,
    zero vectors and repeated vectors mixed in."""
    dim = draw(hs.integers(1, 3))
    vector = hs.tuples(*[hs.integers(-2, 2)] * dim)
    exps = draw(hs.lists(vector, min_size=1, max_size=5))
    for extra in draw(hs.lists(hs.sampled_from(exps + [(0,) * dim]),
                               max_size=6 - len(exps))):
        exps.append(extra)
    return draw(hs.permutations(exps))


def _segre_exponents(shape):
    """The Segre monomial map: index i to the product of z_(j, i_j) over the
    parties j, one unit vector per party; indices in lexicographic order."""
    return [sum((tuple(int(x == i) for x in range(n))
                 for i, n in zip(idx, shape)), ())
            for idx in product(*map(range, shape))]


def _shapes(parties, limit=12):
    """Every shape of that many parties with at most ``limit`` entries."""
    if not parties:
        return [()]
    return [(n,) + rest for rest in _shapes(parties - 1, limit)
            for n in range(2, limit + 1) if n * prod(rest) <= limit]


class TestToricIdealProperties:
    @given(monomial_maps(), hs.integers(1, 3))
    def test_equals_definitional_enumeration(self, exps, degree):
        m = MonomialMap(len(exps[0]), tuple(exps))
        got = toric_ideal_binomials(m, degree).generators
        assert [(b.nu, b.mu) for b in got] == \
            oracles.toric_binomials(exps, degree)

    # the digits of (2, 0) and (-2, 1) in base 2M + 1 = 5 reach +-M
    @example([(2, 0), (-2, 1)], 1)
    @given(monomial_maps(), hs.integers(1, 3))
    def test_image_weights_separate_images(self, exps, degree):
        # every pair of multisets of at most ``degree`` variables: equal sums
        # of weights exactly when equal sums of exponent vectors
        m = MonomialMap(len(exps[0]), tuple(exps))
        weights = _image_weights(m, degree)
        combos = [c for d in range(degree + 1)
                  for c in combinations_with_replacement(range(len(exps)), d)]
        sums = {c: tuple(map(sum, zip(*[exps[i] for i in c]))) or (0,) * m.dim
                for c in combos}
        for c in combos:
            for c2 in combos:
                assert (sum(weights[i] for i in c) == sum(weights[i] for i in c2)) \
                    == (sums[c] == sums[c2])

    @pytest.mark.parametrize("shape", [s for p in (1, 2, 3) for s in _shapes(p)],
                             ids=str)
    def test_segre_minors_span_the_quadrics_of_the_toric_ideal(self, shape):
        # the separable states are the Segre variety, the projective toric
        # variety of the Segre monomial map: its degree-2 relations and the
        # 2x2 minors span one space of quadrics
        exps = _segre_exponents(shape)
        m = MonomialMap(len(exps[0]), tuple(exps))
        k = len(exps)
        column = {pair: i for i, pair in enumerate(
            (i, j) for i in range(k) for j in range(i, k))}
        index = {idx: i for i, idx in enumerate(product(*map(range, shape)))}

        def row(left, right):
            out = [0] * len(column)
            out[column[tuple(sorted(left))]] += 1
            out[column[tuple(sorted(right))]] -= 1
            return out

        def support(expo):
            return [i for i, e in enumerate(expo) for _ in range(e)]

        toric = [row(support(b.nu), support(b.mu))
                 for b in toric_ideal_binomials(m, 2).generators
                 if sum(b.nu) == 2]
        minors = [row((index[s.k], index[s.l]),
                      tuple(index[i] for i in s.swapped()))
                  for s in segre_minors(shape)]
        assert oracles.frac_rank(toric) == oracles.frac_rank(minors) == \
            oracles.frac_rank(toric + minors)


@hs.composite
def small_maps(draw):
    """Up to six exponent vectors in Z^1 or Z^2 with entries in [-3, 3]."""
    dim = draw(hs.integers(1, 2))
    vector = hs.tuples(*[hs.integers(-3, 3)] * dim)
    return MonomialMap(dim, tuple(draw(hs.lists(vector, max_size=6))))


class TestDerivedPairs:
    """An ideal's table against a brute force over the multisets of each
    degree, and its pairs against one over every index pair of its table:
    equal degree, equal image and disjoint supports."""

    @given(small_maps(), hs.integers(1, 3))
    def test_enumerated_monomials(self, m, degree):
        ideal = toric_ideal_binomials(m, degree)
        assert ideal == BinomialIdeal(m, degree)
        assert hash(ideal) == hash(BinomialIdeal(m, degree))
        assert ideal != BinomialIdeal(m, degree + 1)
        k, table = len(m.exponents), []
        for d in range(1, degree + 1):
            expos = [tuple(c.count(i) for i in range(k))
                     for c in combinations_with_replacement(range(k), d)]
            images = [oracles.monomial_image(m.exponents, m.dim, e)
                      for e in expos]
            shared = Counter(images)
            table += sorted((e for e, z in zip(expos, images) if shared[z] > 1),
                            reverse=True)
        assert list(ideal.monomials) == table

    @given(small_maps(), hs.integers(1, 3))
    def test_enumerated_tables(self, m, degree):
        ideal = toric_ideal_binomials(m, degree)
        assert list(ideal.pairs) == \
            oracles.table_pairs(m.exponents, m.dim, ideal.monomials)


def _curve(d: int) -> MonomialMap:
    """The degree-d rational normal curve: (d - i, i) for i = 0..d."""
    return MonomialMap(2, tuple((d - i, i) for i in range(d + 1)))


class TestPairOrder:
    """Past the reach of the definitional oracle: the table of each degree
    against a brute force over the multisets and over the table's pairs."""

    @pytest.mark.parametrize("m", [_curve(d) for d in range(1, 13)] +
                             [homogenize(subset_product_map(r)) for r in (3, 4)],
                             ids=[f"curve-{d}" for d in range(1, 13)] +
                             ["cube-3", "cube-4"])
    def test_pairs_descend_and_equal_brute_force(self, m):
        degree = 3
        ideal = toric_ideal_binomials(m, degree)
        k = len(m.exponents)

        def image(e):
            return tuple(sum(x * a[c] for x, a in zip(e, m.exponents))
                         for c in range(m.dim))

        monomials = ideal.monomials
        images = [image(e) for e in monomials]
        degrees = [sum(monomials[i]) for i, _ in ideal.pairs]
        assert degrees == sorted(degrees)
        for d in range(1, degree + 1):
            expos = [tuple(c.count(i) for i in range(k))
                     for c in combinations_with_replacement(range(k), d)]
            shared = Counter(map(image, expos))
            members = [i for i, e in enumerate(monomials) if sum(e) == d]
            assert [monomials[i] for i in members] == \
                sorted((e for e in expos if shared[image(e)] > 1), reverse=True)
            brute = [(a, b) for a in members for b in members
                     if images[a] == images[b] and monomials[a] > monomials[b]
                     and not any(map(min, monomials[a], monomials[b]))]
            got = [(i, j) for i, j in ideal.pairs if sum(monomials[i]) == d]
            assert all(p > q for p, q in zip(got, got[1:]))
            assert got == sorted(brute, reverse=True)


class TestProjectiveRelations:
    def test_two_qubit_matches_affine_ideal(self):
        got = projective_relations(list(product((0, 1), repeat=2)), 2)
        assert [(b.nu, b.mu) for b in got.generators] == \
            [((1, 0, 0, 1), (0, 1, 1, 0))]

    def test_twisted_cubic_relation(self):
        got = projective_relations([(0,), (1,), (2,)], 2)
        assert [(b.nu, b.mu) for b in got.generators] == [((1, 0, 1), (0, 2, 0))]

    def test_two_points_no_relations(self):
        assert projective_relations([(0,), (1,)], 3).generators == ()

    def test_homogenization_equivalence(self):
        for m in (subset_product_map(2), subset_product_map(3),
                  MonomialMap(1, ((0,), (1,), (2,), (5,)))):
            direct = projective_relations(list(m.exponents), 2)
            via_map = toric_ideal_binomials(homogenize(m), 2)
            assert direct.generators == via_map.generators


class TestBinomialValue:
    def test_rank_one_matrix(self):
        b = Binomial((1, 0, 0, 1), (0, 1, 1, 0))
        assert oracles.binomial_value(b, (1, 2, 3, 6)) == 0
        assert oracles.binomial_value(b, (1, 0, 0, 1)) == 1
        assert oracles.binomial_value(b, (1, 1, 1, 0)) == -1

    def test_exact_fraction_arithmetic(self):
        b = Binomial((2, 0), (0, 3))
        point = (Fraction(1, 2), Fraction(1, 3))
        assert oracles.binomial_value(b, point) == \
            Fraction(1, 4) - Fraction(1, 27)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            oracles.binomial_value(Binomial((1, 0), (0, 1)), (1, 2, 3))


class TestBinomialInvariants:
    def test_disjoint_supports_enforced(self):
        with pytest.raises(ValueError, match="disjoint supports"):
            Binomial((1, 1, 0), (0, 1, 1))

    def test_orientation_enforced(self):
        with pytest.raises(ValueError, match="nu > mu"):
            Binomial((0, 1), (1, 0))

    def test_length_and_sign_enforced(self):
        with pytest.raises(ValueError, match="length mismatch"):
            Binomial((1, 0), (0, 0, 1))
        with pytest.raises(ValueError, match="nonnegative"):
            Binomial((1, 0), (0, -1))
        with pytest.raises(ValueError, match="nonnegative"):
            Binomial((-1, 2), (0, 0))

    def test_ideal_derives_its_generators(self):
        m = MonomialMap(1, ((1,), (2,), (3,)))
        assert BinomialIdeal(m, 2).generators == \
            (Binomial((1, 0, 1), (0, 2, 0)),)
        # x1 x2 x3 and x2^3 have the image z^6 but share x2
        ideal = BinomialIdeal(m, 3)
        table = ideal.monomials
        i, j = table.index((1, 1, 1)), table.index((0, 3, 0))
        assert (i, j) not in ideal.pairs

    @pytest.mark.parametrize("m, degree", [
        (MonomialMap(2, ()), 3),
        (MonomialMap(1, ((0,), (0,))), 3),
        (MonomialMap(1, ((2 ** 53 + 1,), (2 ** 53 + 1,), (2 ** 54 + 2,))), 2),
        (MonomialMap(1, ((1,), (2,), (3,))), 3),
        (MonomialMap(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1))), 3)],
        ids=["empty-map", "zero-columns", "entries-beyond-2-53", "curve",
             "unit-vectors"])
    def test_derived_table_is_ordered(self, m, degree):
        # the table the ideal builds itself is in the order its pairs assume
        ideal = BinomialIdeal(m, degree)
        table = ideal.monomials
        assert all(len(e) == len(m.exponents) and min(e, default=0) >= 0
                   and 1 <= sum(e) <= degree for e in table)
        assert all((sum(e), [-x for x in e]) < (sum(f), [-x for x in f])
                   for e, f in zip(table, table[1:]))
        assert list(ideal.pairs) == \
            oracles.table_pairs(m.exponents, m.dim, table)


def _binomial_as_quadric_row(b: Binomial, k: int):
    monomials = {}
    pos = 0
    for i in range(k):
        for j in range(i, k):
            monomials[(i, j)] = pos
            pos += 1
    row = [0] * pos

    def put(expo, sign):
        support = [i for i, e in enumerate(expo) for _ in range(e)]
        row[monomials[(support[0], support[1])]] += sign

    put(b.nu, 1)
    put(b.mu, -1)
    return row
