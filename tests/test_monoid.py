"""Hilbert bases and lattice-monoid membership."""

from fractions import Fraction

import pytest

import oracles
from qtoric import geometry, monoid
from qtoric import (LaurentMonomial, hilbert_basis, monoid_contains,
                    monoid_generators, pos_hull)
from qtoric.rationals import ComplexRational


def random_pointed_cone(rng, dim, lo=-5, hi=5):
    """A full-dimensional strongly convex cone, certified by the oracle."""
    while True:
        vecs = [tuple(rng.randint(lo, hi) for _ in range(dim))
                for _ in range(rng.randint(dim, dim + 2))]
        vecs = [v for v in vecs if any(v)]
        if not vecs or oracles.frac_rank(vecs) < dim:
            continue
        cert = oracles.positive_functional(vecs, dim)
        if cert is None:
            continue
        return pos_hull(vecs, dim), cert


class TestHilbertBasis:
    def test_unimodular_cone(self):
        hb = hilbert_basis(pos_hull([(1, 0), (0, 1)]))
        assert hb.generators == ((0, 1), (1, 0))

    def test_wedge_needs_interior_point(self):
        hb = hilbert_basis(pos_hull([(1, 0), (1, 2)]))
        assert hb.generators == ((1, 0), (1, 1), (1, 2))

    def test_single_ray(self):
        hb = hilbert_basis(pos_hull([(1,)]))
        assert hb.generators == ((1,),)

    def test_zero_cone(self):
        hb = hilbert_basis(pos_hull([], dim=2))
        assert hb.generators == ()

    def test_not_strongly_convex_rejected(self):
        with pytest.raises(ValueError, match="strongly convex"):
            hilbert_basis(pos_hull([(1, 0), (-1, 0)]))

    @pytest.mark.parametrize("gens", [
        [(1, 0, 0), (0, 1, 0), (3, 4, 5), (2, -1, 3)],
        [(1, 0, 0), (0, 1, 0), (1, 2, 3)]], ids=["four-rays", "simplicial"])
    def test_one_double_description(self, monkeypatch, gens):
        cone = pos_hull(gens)
        calls = []
        real = geometry._dd_rays

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(geometry, "_dd_rays", counted)
        monkeypatch.setattr(monoid, "_dd_rays", counted)
        hilbert_basis(cone)
        assert len(calls) == 1

    def test_order_independence(self, rng):
        vecs = [(3, 1), (1, 4), (2, -1)]
        reference = hilbert_basis(pos_hull(vecs))
        for _ in range(5):
            rng.shuffle(vecs)
            assert hilbert_basis(pos_hull(vecs)) == reference

    def test_equals_brute_force_irreducibles(self, rng):
        # second, fully independent construction: within the w-slab reaching
        # the largest basis element, the basis must equal the exhaustively
        # computed irreducible monoid elements
        done = 0
        while done < 8:
            dim = 2 if done < 5 else 3
            vecs = [tuple(rng.randint(-2, 2) for _ in range(dim))
                    for _ in range(rng.randint(dim, dim + 2))]
            vecs = [v for v in vecs if any(v)]
            if not vecs or oracles.frac_rank(vecs) < dim:
                continue
            cert = oracles.positive_functional(vecs, dim)
            if cert is None:
                continue
            w, ineqs = cert
            basis = hilbert_basis(pos_hull(vecs, dim)).generators
            cap = max(oracles.dot(w, b) for b in basis)
            brute = oracles.brute_irreducibles(vecs, dim, w, ineqs, cap)
            assert sorted(basis) == sorted(brute), (vecs, basis, brute)
            done += 1

    def test_completeness_and_minimality_small(self, rng):
        # for every lattice point x with coordinates in [-6, 6]:
        # monoid_contains(hilbert_basis(c), x)  <=>  x in c
        from itertools import product as iproduct
        for _ in range(6):
            cone, (w, ineqs) = random_pointed_cone(rng, 2, lo=-3, hi=3)
            hb = hilbert_basis(cone)
            basis = list(hb.generators)
            memo = {}
            for x in iproduct(range(-6, 7), repeat=2):
                inside = oracles.cone_contains(cone.generators, 2, x)
                assert monoid_contains(hb, x) == inside, (cone.generators, x)
                if inside:
                    assert oracles.generates(basis, x, w, ineqs, memo), \
                        (cone.generators, x)
            for b in basis:
                others = [g for g in basis if g != b]
                assert not oracles.generates(others, b, w, ineqs, {}), \
                    (cone.generators, b)


class TestMonoidContains:
    def test_unimodular_membership(self):
        g = monoid_generators(pos_hull([(1, 0), (0, 1)]), [(1, 0), (0, 1)])
        assert monoid_contains(g, (3, 4))
        assert monoid_contains(g, (0, 0))
        assert not monoid_contains(g, (-1, 0))

    def test_incomplete_generators_miss_interior_point(self):
        cone = pos_hull([(1, 0), (1, 2)])
        pair = monoid_generators(cone, [(1, 0), (1, 2)])
        assert not monoid_contains(pair, (1, 1))
        assert monoid_contains(hilbert_basis(cone), (1, 1))

    def test_dimension_mismatch(self):
        g = monoid_generators(pos_hull([(1, 0), (0, 1)]), [(1, 0), (0, 1)])
        with pytest.raises(ValueError, match="dimension"):
            monoid_contains(g, (1, 2, 3))

    def test_validating_constructor(self):
        cone = pos_hull([(1, 0), (0, 1)])
        with pytest.raises(ValueError, match="outside"):
            monoid_generators(cone, [(1, 0), (-1, 2)])
        with pytest.raises(ValueError, match="generated by the others"):
            monoid_generators(cone, [(1, 0), (0, 1), (1, 1)])
        with pytest.raises(ValueError, match="strongly convex"):
            monoid_generators(pos_hull([(1, 0), (-1, 0)]), [(1, 0)])

    def test_agreement_with_oracle(self, rng):
        for dim, rounds, radius in ((2, 5, 4), (3, 3, 3)):
            for _ in range(rounds):
                cone, (w, ineqs) = random_pointed_cone(rng, dim, lo=-3, hi=3)
                hb = hilbert_basis(cone)
                basis = list(hb.generators)
                memo = {}
                for x in oracles.ball(dim, radius):
                    assert monoid_contains(hb, x) == \
                        oracles.generates(basis, x, w, ineqs, memo)


class TestLaurentMonomial:
    def test_zero_coefficient_rejected(self):
        with pytest.raises(ValueError):
            LaurentMonomial(0, (1, 0))

    def test_multiplication_adds_exponents(self):
        a = LaurentMonomial(Fraction(2), (1, -1))
        b = LaurentMonomial(Fraction(3), (0, 2))
        assert a * b == LaurentMonomial(Fraction(6), (1, 1))

    def test_evaluate_with_negative_exponents(self):
        m = LaurentMonomial(ComplexRational(Fraction(2)), (-1, 1))
        z = (ComplexRational(Fraction(1, 3)), ComplexRational(Fraction(5)))
        assert m.evaluate(z) == ComplexRational(Fraction(30))
