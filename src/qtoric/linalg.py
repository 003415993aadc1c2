"""Exact integer linear algebra underpinning the geometry layer.

Field eliminations (determinant, adjugate, rank, pivot columns) share one
fraction-free pivot step on Python ints; lattice kernels and Hermite bases
use the unimodular row echelon instead.
"""

from __future__ import annotations

from math import gcd


def primitive(v) -> tuple:
    """Divide an integer vector by the gcd of its entries (direction preserved)."""
    g = gcd(*v)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(x // g for x in v)


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


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


def integer_row_echelon(rows):
    """Row echelon form of an integer matrix via unimodular row operations.

    Returns (echelon, transform) where transform @ rows == echelon and
    transform is unimodular.
    """
    m = [list(r) for r in rows]
    k = len(m)
    n = len(m[0]) if k else 0
    u = [[int(i == j) for j in range(k)] for i in range(k)]
    cur = 0
    for col in range(n):
        piv = next((i for i in range(cur, k) if m[i][col] != 0), None)
        if piv is None:
            continue
        if piv != cur:
            m[cur], m[piv] = m[piv], m[cur]
            u[cur], u[piv] = u[piv], u[cur]
        for i in range(cur + 1, k):
            if m[i][col] == 0:
                continue
            a, b = m[cur][col], m[i][col]
            g, s, t = _xgcd(a, b)
            ac, bc = a // g, b // g
            m[cur], m[i] = (
                [s * x + t * y for x, y in zip(m[cur], m[i])],
                [-bc * x + ac * y for x, y in zip(m[cur], m[i])],
            )
            u[cur], u[i] = (
                [s * x + t * y for x, y in zip(u[cur], u[i])],
                [-bc * x + ac * y for x, y in zip(u[cur], u[i])],
            )
        if m[cur][col] < 0:
            m[cur] = [-x for x in m[cur]]
            u[cur] = [-x for x in u[cur]]
        cur += 1
        if cur == k:
            break
    return m, u


def _pivot(rows, r, c, d):
    """One fraction-free Gauss-Jordan step (Bareiss) on integer rows, in place.

    Clears column c from every row but r with the pivot rows[r][c]; d is the
    previous pivot (1 before the first step) and divides every entry exactly.
    Afterwards each row is the row a field elimination would give times the
    returned new pivot.
    """
    p = rows[r]
    pc = p[c]
    for i, row in enumerate(rows):
        if i != r:
            f = row[c]
            rows[i] = [(x * pc - f * y) // d for x, y in zip(row, p)]
    return pc


def pivot_columns(rows) -> list[int]:
    """Columns of the fraction-free pivots of an integer matrix, in order.

    These are the first linearly independent columns, greedily: column c is
    a pivot column exactly when it is not in the span of the columns before.
    """
    rows = [list(r) for r in rows]
    cols, d = [], 1
    for c in range(len(rows[0]) if rows else 0):
        r = len(cols)
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        d = _pivot(rows, r, c, d)
        cols.append(c)
        if len(cols) == len(rows):
            break
    return cols


def rank_int(rows) -> int:
    """Rank of an integer matrix: the number of fraction-free pivots."""
    return len(pivot_columns(rows))


def left_kernel_basis(rows):
    """Z-basis of {v : sum_i v_i * rows[i] == 0}, each vector primitive.

    The result is a basis of the full integer kernel lattice (rows of a
    unimodular transform hitting zero echelon rows), sign-normalised so the
    first nonzero entry is positive, sorted.
    """
    if not rows:
        return []
    ech, u = integer_row_echelon(rows)
    basis = []
    for i, row in enumerate(ech):
        if any(x != 0 for x in row):
            continue
        v = u[i]
        lead = next((x for x in v if x != 0), 0)
        if lead < 0:
            v = [-x for x in v]
        basis.append(tuple(v))
    return sorted(basis)


def hermite_basis(rows):
    """The basis in Hermite normal form of the lattice the integer rows span.

    Reduces each entry above a pivot of :func:`integer_row_echelon`, whose
    pivots are positive, into [0, pivot); the nonzero rows are then the one
    basis of the lattice in that form.
    """
    basis = [row for row in integer_row_echelon(rows)[0] if any(row)]
    for i, row in enumerate(basis):
        c = next(j for j, x in enumerate(row) if x)
        for k in range(i):
            q = basis[k][c] // row[c]
            basis[k] = [x - q * y for x, y in zip(basis[k], row)]
    return [tuple(row) for row in basis]


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
    sign, d = 1, 1
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if piv is None:
            return 0, None
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            sign = -sign
        d = _pivot(rows, c, c, d)
    return sign * d, [[sign * x for x in row[n:]] for row in rows]

