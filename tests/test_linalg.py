"""Exact linear algebra: property tests of the fraction-free elimination.

Entries reach 10**30, far past any float, so a wrong exact divisor in the
elimination step shows as a wrong result rather than hiding in rounding.
"""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from qtoric.linalg import (det_adj, hermite_basis, orthogonal_lattice,
                           pivot_columns, primitive, rank_int)

BIG = 10**30
entries = st.one_of(st.integers(-3, 3), st.integers(-BIG, BIG))


def matrices(rows, cols):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


def square_matrices(min_n=0, max_n=5):
    return st.integers(min_n, max_n).flatmap(lambda n: matrices(n, n))


def low_rank_matrices():
    """Products (r x k)(k x c) with k <= 3, so the rank is at most k."""
    return st.tuples(st.integers(1, 5), st.integers(1, 3), st.integers(1, 5)).flatmap(
        lambda s: st.tuples(matrices(s[0], s[1]), matrices(s[1], s[2])))


def matmul(a, b, cols):
    return [[sum(x * row[j] for x, row in zip(r, b)) for j in range(cols)]
            for r in a]


def test_zero_vector_has_no_primitive_representative():
    with pytest.raises(ValueError,
                       match="^zero vector has no primitive representative$"):
        primitive((0, 0))


class TestDetAdj:
    @given(square_matrices())
    def test_adjugate_identity(self, m):
        n = len(m)
        det, adj = det_adj(m)
        assert det == oracles.frac_det(m)
        if det == 0:
            assert adj is None
            return
        scalar = [[det * int(i == j) for j in range(n)] for i in range(n)]
        assert matmul(adj, m, n) == scalar
        assert matmul(m, adj, n) == scalar

    @given(square_matrices(2, 4),
           st.lists(st.integers(-BIG, BIG), min_size=4, max_size=4),
           st.integers(0, 3))
    def test_singular_gives_no_adjugate(self, m, coeffs, slot):
        n = len(m)
        slot %= n
        m[slot] = [sum(c * row[j] for c, (i, row) in zip(coeffs, enumerate(m))
                       if i != slot) for j in range(n)]
        assert det_adj(m) == (0, None)

    def test_empty_and_unit(self):
        assert det_adj([]) == (1, [])
        assert det_adj([[-7]]) == (-7, [[1]])

    def test_row_swaps_flip_the_sign(self):
        # columns 0 and 1 each take their pivot from a later row
        m = [[0, 2, 1], [0, 0, 5], [3, 0, 0]]
        det, adj = det_adj(m)
        assert det == oracles.frac_det(m) == 30
        assert matmul(adj, m, 3) == [[30 * int(i == j) for j in range(3)]
                                     for i in range(3)]
        assert det_adj([[0, 1], [1, 0]]) == (-1, [[0, -1], [-1, 0]])

    def test_singular_only_after_a_swap(self):
        # column 0 pivots after a swap; column 2 then has no pivot left
        assert det_adj([[0, 1, 2], [1, 0, 0], [0, 2, 4]]) == (0, None)
        # column 0 has no pivot at all, and later columns still do
        assert det_adj([[0, 1, 0], [0, 0, 1], [0, 1, 1]]) == (0, None)


class TestRank:
    @given(low_rank_matrices())
    def test_rank_matches_rational_elimination(self, factors):
        a, b = factors
        m = matmul(a, b, len(b[0]))
        assert rank_int(m) == oracles.frac_rank(m)

    @given(st.integers(1, 4).flatmap(
        lambda r: st.integers(1, 4).flatmap(lambda c: matrices(r, c))))
    def test_rank_of_random_matrices(self, m):
        assert rank_int(m) == oracles.frac_rank(m)

    def test_no_rows(self):
        assert rank_int([]) == 0

    @given(low_rank_matrices())
    def test_pivot_columns_are_the_first_independent_columns(self, factors):
        a, b = factors
        m = matmul(a, b, len(b[0]))
        cols = list(zip(*m))
        first = []
        for j, col in enumerate(cols):
            if oracles.frac_rank([cols[i] for i in first] + [col]) > len(first):
                first.append(j)
        assert pivot_columns(m) == first


class TestHermiteBasis:
    @given(low_rank_matrices())
    def test_hermite_form_of_the_same_lattice(self, factors):
        a, b = factors
        n = len(b[0])
        m = matmul(a, b, n)
        h = hermite_basis(m)
        r = oracles.frac_rank(m)
        assert len(h) == r
        assert oracles.is_hermite_form(h)
        pivots = [next(j for j, x in enumerate(row) if x) for row in h]
        # the rows of m lie in the lattice of h, and an r x r minors gcd
        # equal to m's leaves no room for a larger lattice
        for row in m:
            for hr, c in zip(h, pivots):
                q, rem = divmod(row[c], hr[c])
                assert rem == 0
                row = [x - q * y for x, y in zip(row, hr)]
            assert not any(row)
        assert oracles.minors_gcd(h, r, n) == oracles.minors_gcd(m, r, n)

    def test_lattice_with_a_nontrivial_reduction(self):
        assert hermite_basis([[2, 3, 1], [0, 4, 2], [2, 7, 3]]) == \
            [(2, 3, 1), (0, 4, 2)]
        assert hermite_basis([[0, 3], [1, 5]]) == [(1, 2), (0, 3)]
        assert hermite_basis([[0, 0]]) == []


def kernel_cases():
    """(rows, dim): no rows, zero rows, rank-deficient rows, rows of
    length 0 (dim = 0) and random rows."""
    return st.integers(0, 5).flatmap(lambda dim: st.tuples(st.one_of(
        st.just([]),
        st.integers(1, 3).map(lambda r: [[0] * dim for _ in range(r)]),
        st.tuples(st.integers(1, 4), st.integers(1, 2)).flatmap(
            lambda s: st.tuples(matrices(s[0], s[1]), matrices(s[1], dim)))
        .map(lambda f: matmul(f[0], f[1], dim)),
        st.integers(1, 4).flatmap(lambda r: matrices(r, dim))), st.just(dim)))


class TestLatticeKernels:
    @given(kernel_cases())
    @example(([[2, -3, 5], [2, -3, 5], [0, 0, 0]], 3))
    def test_orthogonal_lattice_is_the_hermite_kernel_basis(self, case):
        rows, dim = case
        assert oracles.is_hermite_kernel_basis(orthogonal_lattice(rows, dim),
                                               rows, dim)

    def test_orthogonal_lattice_of_no_vectors(self):
        # the transpose still has dim rows
        assert orthogonal_lattice([], 3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        assert orthogonal_lattice([], 0) == []
