"""Hilbert bases and lattice-monoid membership."""

from itertools import combinations, product
from math import gcd

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as hs

import oracles
from qtoric import geometry, monoid
from qtoric import MonoidGenerators, hilbert_basis, pos_hull
from qtoric.linalg import hermite_basis, pivot_columns


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


@hs.composite
def pointed_cones(draw):
    """Pointed cones of rank r in Z^dim, r = dim or dim - 1: nonnegative
    combinations of r independent vectors, so a plane of a rank-deficient
    cone is as general as the vectors."""
    dim, rank = draw(hs.sampled_from([(2, 2), (3, 3), (3, 2), (4, 3)]))
    vector = hs.tuples(*[hs.integers(-2, 2)] * dim)
    base = draw(hs.lists(vector, min_size=rank, max_size=rank))
    assume(oracles.frac_rank(base) == rank)
    weights = hs.tuples(*[hs.integers(0, 2)] * rank)
    gens = [tuple(sum(c * b[j] for c, b in zip(cs, base)) for j in range(dim))
            for cs in draw(hs.lists(weights, min_size=rank, max_size=rank + 2))
            if any(cs)]
    assume(oracles.frac_rank(gens) == rank)
    return dim, gens


@hs.composite
def bases(draw):
    """Integer r x n bases, r <= n <= 4, entries in [-5, 5]; a row may be a
    combination of two others, so dependent bases are drawn often."""
    n = draw(hs.integers(1, 4))
    rows = draw(hs.lists(hs.lists(hs.integers(-5, 5), min_size=n, max_size=n),
                         min_size=1, max_size=n))
    if len(rows) > 2 and draw(hs.booleans()):
        a, b = draw(hs.tuples(hs.integers(-2, 2), hs.integers(-2, 2)))
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    return rows


@hs.composite
def cones_with_dependent_subsets(draw):
    """Cones over 3-polytopes at height 1 in Z^4 whose extreme rays include
    four coplanar ones, so some simplicial pieces are dependent."""
    points = draw(hs.lists(hs.tuples(*[hs.integers(-1, 1)] * 3), min_size=4,
                           max_size=7, unique=True))
    gens = [p + (1,) for p in points]
    rank = oracles.frac_rank(gens)
    assume(any(oracles.frac_rank(s) < rank for s in
               combinations(pos_hull(gens, 4).generators, rank)))
    return gens


class TestEchelonPivots:
    @given(bases())
    def test_pivots_of_the_hermite_basis(self, basis):
        # left multiplication by a unimodular matrix keeps column relations
        assert [next(c for c, x in enumerate(row) if x)
                for row in hermite_basis(basis)] == pivot_columns(basis)

    @given(cones_with_dependent_subsets())
    def test_equals_brute_force_irreducibles(self, gens):
        w, ineqs = oracles.positive_functional(gens, 4)
        basis = hilbert_basis(pos_hull(gens, 4)).generators
        cap = max(oracles.dot(w, b) for b in basis)
        assert list(basis) == sorted(oracles.brute_irreducibles(
            gens, 4, w, ineqs, cap))


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
        # from the input vectors: the hull's double description, or the one
        # the simplicial cone computes when first asked, and no other
        calls = []
        real = geometry._dd_rays

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(geometry, "_dd_rays", counted)
        hilbert_basis(pos_hull(gens))
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

    def test_cube_cone_skips_dependent_subsets(self):
        # the cone over the unit 3-cube at height 1: the four vertices of each
        # of its 6 faces and 6 diagonal rectangles lie in one hyperplane, so
        # 12 of the 4-subsets are dependent and add no parallelepiped point
        gens = [(x, y, z, 1) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
        cone = pos_hull(gens, 4)
        lattice = monoid._saturation(cone.generators, 4)
        dependent = [s for s in combinations(cone.generators, 4)
                     if oracles.frac_rank(s) < 4]
        assert len(dependent) == 12
        assert all(monoid._parallelepiped_points(s, lattice) == []
                   for s in dependent)
        w, ineqs = oracles.positive_functional(gens, 4)
        basis = hilbert_basis(cone).generators
        cap = max(oracles.dot(w, b) for b in basis)
        assert list(basis) == sorted(oracles.brute_irreducibles(
            gens, 4, w, ineqs, cap))

    @given(pointed_cones())
    @example((3, [(1, -1, 0), (1, 1, -2)]))
    @example((4, [(1, 2, 0, 1), (0, 1, 3, 1), (2, 0, 1, 5)]))
    def test_equals_brute_force_irreducibles_any_rank(self, case):
        # the oracle's inequalities hold plus and minus the normals of the
        # span, so its box scan keeps only the points of the span
        dim, gens = case
        w, ineqs = oracles.positive_functional(gens, dim)
        basis = hilbert_basis(pos_hull(gens, dim)).generators
        cap = max(oracles.dot(w, b) for b in basis)
        assert list(basis) == sorted(oracles.brute_irreducibles(
            gens, dim, w, ineqs, cap))

    @pytest.mark.parametrize("m", [3, 4])
    def test_sign_cube_cone(self, m):
        # the cone over {-1, 1}^m x {1}: the cube is normal, so the Hilbert
        # basis is its 3^m lattice points at height 1
        gens = [v + (1,) for v in product((-1, 1), repeat=m)]
        assert hilbert_basis(pos_hull(gens)).generators == \
            tuple(v + (1,) for v in product((-1, 0, 1), repeat=m))

    @given(hs.integers(1, 10 ** 6))
    @example(10 ** 6)
    def test_unimodular_cone_at_large_entries(self, a):
        cone = pos_hull([(1, 0, 0), (0, 1, 0), (a, a + 1, 1)])
        assert hilbert_basis(cone).generators == cone.generators

    @given(hs.tuples(*[hs.integers(-1000, 1000)] * 3), hs.integers(1, 40))
    @example((997, 1009, 1013), 7)
    def test_corner_cone_closed_form(self, top, depth):
        # x in pos{e1, e2, e3, v}, v = (a, b, c, d), iff x_i >= x_4 v_i / d:
        # the least point of level k is p_k, the rest of the level is p_k
        # plus unit vectors, and p_k = p_j + p_(k-j) whenever it is reducible
        g = gcd(*top, depth)
        v = tuple(x // g for x in top + (depth,))
        d = v[3]
        p = [tuple(-(-k * x // d) for x in v[:3]) + (k,) for k in range(d + 1)]
        irreducible = [p[k] for k in range(1, d)
                       if all(tuple(map(sum, zip(p[j], p[k - j]))) != p[k]
                              for j in range(1, k))]
        units = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)]
        cone = pos_hull(units + [v])
        assert hilbert_basis(cone).generators == \
            tuple(sorted(units + [v] + irreducible))

    @pytest.mark.parametrize("basis", [
        [(1, 0), (1, 7)], [(1, 7), (1, 0)], [(2, 1, 0), (0, 3, 1), (1, 0, 4)],
        [(1, 0, 0), (0, 1, 0), (997, 1009, 7)],
        [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (12, 40, 33, 360)],
        [(1, 0, 0), (0, 1, 0), (10 ** 6, 10 ** 6 + 1, 1)],
        [(1, -1, 0), (1, 1, -2)], [(1, 2, 0, 1), (0, 1, 3, 1), (2, 0, 1, 5)]])
    def test_one_parallelepiped_point_per_coset(self, basis):
        # the index of the lattice of the basis in its saturation is the gcd
        # of its maximal minors, |det| for a full-rank basis
        dim = len(basis[0])
        index = oracles.minors_gcd(basis, len(basis), dim)
        points = monoid._parallelepiped_points(
            basis, monoid._saturation(basis, dim))
        assert len(points) == len(set(points)) == index - 1
        for x in points:
            t = oracles.frac_solve(basis, x)
            assert any(x) and t is not None and all(0 <= c < 1 for c in t)

    @pytest.mark.parametrize("dim, rounds, radius", [(2, 6, 6), (3, 3, 3)])
    def test_completeness_and_minimality_small(self, rng, dim, rounds, radius):
        # for every lattice point x with coordinates in [-radius, radius]:
        # x is generated by hilbert_basis(c)  <=>  x in c
        from itertools import product as iproduct
        for _ in range(rounds):
            cone, (w, ineqs) = random_pointed_cone(rng, dim, lo=-3, hi=3)
            basis = list(hilbert_basis(cone).generators)
            memo = {}
            for x in iproduct(range(-radius, radius + 1), repeat=dim):
                inside = oracles.cone_contains(cone.generators, dim, x)
                assert oracles.generates(basis, x, w, ineqs, memo) == inside, \
                    (cone.generators, x)
            for b in basis:
                others = [g for g in basis if g != b]
                assert not oracles.generates(others, b, w, ineqs, {}), \
                    (cone.generators, b)


class TestMonoidGenerators:
    @pytest.mark.parametrize("gens, x, expected", [
        # the search meets remainders it has already failed on, and skips them
        (((1, 0), (1, 5), (2, 5), (3, 5)), (7, 11), False),
        ((), (1, 0), False), ((), (0, 0), True),
        (((1, 0), (1, 2)), (1, 1), False), (((1, 0), (1, 2)), (0, 1), False),
        (((0, 1), (1, 0)), (3, 4), True), (((0, 1), (1, 0)), (0, 0), True),
        (((0, 1), (1, 0)), (-1, 0), False),
    ], ids=["failed-remainder", "no-generators", "origin-no-generators",
            "interior-point", "wedge-outside", "unimodular", "unimodular-origin",
            "unimodular-outside"])
    def test_search_edges(self, gens, x, expected):
        # x from the given generators; from hilbert_basis of their cone
        # exactly when x lies in it
        w, ineqs = oracles.positive_functional(gens, 2)
        assert oracles.generates(list(gens), x, w, ineqs, {}) is expected
        basis = list(hilbert_basis(pos_hull(gens, 2)).generators)
        w, ineqs = oracles.positive_functional(basis, 2)
        assert oracles.generates(basis, x, w, ineqs, {}) == \
            oracles.cone_contains(gens, 2, x)

    @pytest.mark.parametrize("gens, message", [
        (((1, 0, 0),), "generator dimension mismatch"),
        (((1, 1), (1, 0)), "generators must be sorted and duplicate-free"),
        (((1, 0), (1, 0)), "generators must be sorted and duplicate-free"),
    ], ids=["dimension", "order", "duplicate"])
    def test_direct_construction_messages(self, gens, message):
        with pytest.raises(ValueError) as info:
            MonoidGenerators(pos_hull([(1, 0), (0, 1)]), gens)
        assert str(info.value) == message
