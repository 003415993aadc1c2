"""Exact integer and rational linear algebra underpinning the geometry layer."""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def vector_gcd(v) -> int:
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    return g


def primitive(v) -> tuple:
    """Divide an integer vector by the gcd of its entries (direction preserved)."""
    g = vector_gcd(v)
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


def rank_int(rows) -> int:
    """Rank of an integer matrix, computed exactly."""
    if not rows:
        return 0
    ech, _ = integer_row_echelon(rows)
    return sum(1 for row in ech if any(x != 0 for x in row))


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


def det_int(mat) -> int:
    """Determinant of a square integer matrix (fraction-free Bareiss)."""
    n = len(mat)
    if n == 0:
        return 1
    a = [list(r) for r in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def adjugate_int(mat):
    """Adjugate of a square integer matrix: adj(M) @ M == det(M) * I."""
    n = len(mat)
    if n == 0:
        return []
    if n == 1:
        return [[1]]
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[mat[r][c] for c in range(n) if c != j]
                     for r in range(n) if r != i]
            adj[j][i] = (-1) ** (i + j) * det_int(minor)
    return adj


def solve_columns(cols, target):
    """Solve sum_j x_j * cols[j] == target exactly over the rationals.

    Requires the columns to be linearly independent; returns a tuple of
    Fractions, or None when the system is inconsistent.
    """
    k = len(cols)
    n = len(target)
    aug = [[Fraction(cols[j][r]) for j in range(k)] + [Fraction(target[r])]
           for r in range(n)]
    pivots = []
    row = 0
    for col in range(k):
        piv = next((i for i in range(row, n) if aug[i][col] != 0), None)
        if piv is None:
            raise ValueError("columns are linearly dependent")
        aug[row], aug[piv] = aug[piv], aug[row]
        pv = aug[row][col]
        aug[row] = [x / pv for x in aug[row]]
        for i in range(n):
            if i != row and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[row])]
        pivots.append((row, col))
        row += 1
    for i in range(row, n):
        if aug[i][k] != 0:
            return None
    sol = [Fraction(0)] * k
    for r, c in pivots:
        sol[c] = aug[r][k]
    return tuple(sol)


def nonneg_combination(vectors, target):
    """Exact feasibility: lambda >= 0 with sum lambda_i * vectors[i] == target.

    Phase-1 simplex over the rationals with Bland's rule; returns the
    coefficient tuple, or None when no such combination exists.
    """
    k = len(vectors)
    n = len(target)
    if k == 0:
        return () if all(t == 0 for t in target) else None
    tab = []
    rhs = []
    for r in range(n):
        row = [Fraction(v[r]) for v in vectors]
        b = Fraction(target[r])
        if b < 0:
            row = [-x for x in row]
            b = -b
        tab.append(row + [Fraction(int(r == i)) for i in range(n)])
        rhs.append(b)
    basis = [k + r for r in range(n)]
    ncols = k + n
    # reduced costs for minimising the sum of artificials
    red = [Fraction(int(j >= k)) - sum(tab[r][j] for r in range(n))
           for j in range(ncols)]
    while True:
        enter = next((j for j in range(ncols) if red[j] < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for r in range(n):
            if tab[r][enter] > 0:
                ratio = rhs[r] / tab[r][enter]
                if best is None or ratio < best or \
                        (ratio == best and basis[r] < basis[leave]):
                    best = ratio
                    leave = r
        if leave is None:
            return None
        pv = tab[leave][enter]
        tab[leave] = [x / pv for x in tab[leave]]
        rhs[leave] /= pv
        for r in range(n):
            if r != leave and tab[r][enter] != 0:
                f = tab[r][enter]
                tab[r] = [x - f * y for x, y in zip(tab[r], tab[leave])]
                rhs[r] -= f * rhs[leave]
        f = red[enter]
        red = [x - f * y for x, y in zip(red, tab[leave])]
        basis[leave] = enter
    lam = [Fraction(0)] * k
    for r in range(n):
        if basis[r] >= k:
            if rhs[r] != 0:
                return None
        else:
            lam[basis[r]] = rhs[r]
    return tuple(lam)

