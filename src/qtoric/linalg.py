"""Exact integer linear algebra underpinning the geometry layer.

Field eliminations (determinant, adjugate, rank, pivot columns) share one
fraction-free Bareiss loop on Python ints; Hermite bases and orthogonal
lattices (the integer kernel) share one unimodular row echelon instead.
"""

from __future__ import annotations

from math import gcd
from operator import mul


def primitive(v) -> tuple:
    """Divide an integer vector by the gcd of its entries (direction preserved)."""
    g = gcd(*v)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple([x // g for x in v])


def dot(a, b):
    return sum(map(mul, a, b))


def _xgcd(a: int, b: int):
    """Return (g, s, t) with s*a + t*b == g == gcd(a, b), g >= 0."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        g, x, y = -g, -x, -y
    return g, x, y


def integer_row_echelon(rows, n):
    """Make the first n columns of integer rows echelon, with positive pivots,
    in place by unimodular row operations; later columns are carried along,
    so on [M | I] the right block ends as a unimodular U with U M echelon.
    """
    cur, k = 0, len(rows)
    for col in range(n):
        piv = next((i for i in range(cur, k) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[cur], rows[piv] = rows[piv], rows[cur]
        for i in range(cur + 1, k):
            if rows[i][col] == 0:
                continue
            a, b = rows[cur][col], rows[i][col]
            g, s, t = _xgcd(a, b)
            ac, bc = a // g, b // g
            rows[cur], rows[i] = (
                [s * x + t * y for x, y in zip(rows[cur], rows[i])],
                [-bc * x + ac * y for x, y in zip(rows[cur], rows[i])],
            )
        if rows[cur][col] < 0:
            rows[cur] = [-x for x in rows[cur]]
        cur += 1


def _eliminate(rows, n):
    """Fraction-free Gauss-Jordan elimination (Bareiss) of the first n
    columns of integer rows, in place.

    A pivot p clears its column from every other row y by (x p - f y) / d,
    with x the pivot row, f the entry of y in the column and d the previous
    pivot (1 at first), which divides every x p - f y exactly.  Each row ends
    as the row a field elimination gives times the last pivot.  Returns
    (pivot columns, last pivot, sign of the row swaps).
    """
    cols, d, sign = [], 1, 1
    for c in range(n):
        r = len(cols)
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            sign = -sign
        p = rows[r]
        prev, d = d, p[c]
        for i, row in enumerate(rows):
            if i != r:
                f = row[c]
                rows[i] = [(x * d - f * y) // prev for x, y in zip(row, p)]
        cols.append(c)
    return cols, d, sign


def pivot_columns(rows) -> list[int]:
    """Columns of the fraction-free pivots of an integer matrix, in order.

    These are the first linearly independent columns, greedily: column c is
    a pivot column exactly when it is not in the span of the columns before.
    """
    rows = [list(r) for r in rows]
    return _eliminate(rows, len(rows[0]) if rows else 0)[0]


def rank_int(rows) -> int:
    """Rank of an integer matrix: the number of fraction-free pivots."""
    return len(pivot_columns(rows))


def hermite_basis(rows):
    """The basis in Hermite normal form of the lattice the integer rows span.

    Reduces each entry above a pivot of :func:`integer_row_echelon`, whose
    pivots are positive, into [0, pivot); the nonzero rows are then the one
    basis of the lattice in that form.
    """
    basis = [list(r) for r in rows]
    integer_row_echelon(basis, len(basis[0]) if basis else 0)
    basis = [row for row in basis if any(row)]
    for i, row in enumerate(basis):
        c = next(j for j, x in enumerate(row) if x)
        for k in range(i):
            q = basis[k][c] // row[c]
            basis[k] = [x - q * y for x, y in zip(basis[k], row)]
    return [tuple(row) for row in basis]


def orthogonal_lattice(vectors, dim):
    """The Hermite basis of {y in Z^dim : v . y == 0 for every v}.

    Echelon [V^T | I] on the columns of the vectors: the right blocks of the
    rows whose left block ends zero span the whole integer kernel, since the
    right block is unimodular.  With no vectors, that is Z^dim.
    """
    n = len(vectors)
    rows = [[v[j] for v in vectors] + [int(i == j) for i in range(dim)]
            for j in range(dim)]
    integer_row_echelon(rows, n)
    return hermite_basis([row[n:] for row in rows if not any(row[:n])])


def det_adj(mat):
    """Determinant and adjugate of a square integer matrix.

    Returns (det, adj) with adj @ mat == mat @ adj == det * I, or (0, None)
    when mat is singular.  Eliminates [mat | I] fraction-free: the last pivot
    is det up to the sign of the row swaps, and the right block is then
    that pivot times the inverse.
    """
    n = len(mat)
    rows = [list(row) + [int(i == j) for j in range(n)]
            for i, row in enumerate(mat)]
    cols, d, sign = _eliminate(rows, n)
    if len(cols) < n:
        return 0, None
    return sign * d, [[sign * x for x in row[n:]] for row in rows]
