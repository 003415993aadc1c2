"""Independent checks for the benchmark's operations.

Nothing here imports qtoric.  Facets come from brute force over point
subsets, parallelepiped points from a Hermite-normal-form coset walk, monoid
membership from a memoised search, and Segre and toric identities from their
definitions, so a check never reuses the code path it is checking.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import gcd


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def primitive(v):
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    return tuple(x // g for x in v)


def rref(rows, ncols):
    """Reduced row echelon form over the rationals: (rows, pivot columns)."""
    m = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pv = m[r][col]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(col)
    return m, pivots


def rank(rows) -> int:
    return len(rref(rows, len(rows[0]))[1]) if rows else 0


def inverse(mat):
    """Inverse of a square rational matrix (rows), or None when singular."""
    n = len(mat)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(mat)]
    m, pivots = rref(aug, n)
    return [row[n:] for row in m] if len(pivots) == n else None


def normal_vector(rows, dim):
    """Primitive integer normal of n-1 independent vectors, or None."""
    m, pivots = rref(rows, dim)
    free = [c for c in range(dim) if c not in pivots]
    if len(free) != 1:
        return None
    v = [Fraction(0)] * dim
    v[free[0]] = Fraction(1)
    for row, col in zip(m, pivots):
        v[col] = -row[free[0]]
    den = 1
    for x in v:
        den = den * x.denominator // gcd(den, x.denominator)
    return primitive([int(x * den) for x in v])


def polytope_facets(points):
    """Facets of conv(points) of full dimension: (inner normal, offset, tight set).

    A facet is a hyperplane through d affinely independent points with every
    point on one side; h . x + c >= 0 holds on the polytope.
    """
    d = len(points[0])
    found = {}
    for subset in combinations(range(len(points)), d):
        base = points[subset[0]]
        diffs = [tuple(a - b for a, b in zip(points[i], base)) for i in subset[1:]]
        h = normal_vector(diffs, d)
        if h is None:
            continue
        values = [dot(h, p) - dot(h, base) for p in points]
        if all(v >= 0 for v in values):
            pass
        elif all(v <= 0 for v in values):
            h = tuple(-x for x in h)
        else:
            continue
        c = -dot(h, base)
        tight = frozenset(i for i, p in enumerate(points) if dot(h, p) + c == 0)
        found[tight] = (h, c)
    return [(h, c, tight) for tight, (h, c) in found.items()]


def cone_facets(gens):
    """Facets of a full-dimensional pointed cone: (inner normal, tight set)."""
    d = len(gens[0])
    found = {}
    for subset in combinations(range(len(gens)), d - 1):
        h = normal_vector([gens[i] for i in subset], d)
        if h is None:
            continue
        values = [dot(h, g) for g in gens]
        if all(v >= 0 for v in values):
            pass
        elif all(v <= 0 for v in values):
            h = tuple(-x for x in h)
        else:
            continue
        found[frozenset(i for i, g in enumerate(gens) if dot(h, g) == 0)] = h
    return [(h, tight) for tight, h in found.items()]


def face_lattice(universe, facet_sets, with_empty):
    """All intersections of facet sets, plus the universe."""
    family = {frozenset(universe)}
    frontier = [frozenset(universe)]
    while frontier:
        s = frontier.pop()
        for f in facet_sets:
            t = s & f
            if t not in family and (t or with_empty):
                family.add(t)
                frontier.append(t)
    return family


def affine_dim(pts):
    return rank([tuple(a - b for a, b in zip(p, pts[0])) for p in pts[1:]]) if pts else -1


def polytope_faces(points):
    """Vertices and faces {(indices, dim)} of conv(points), by brute force."""
    pts = sorted(set(tuple(p) for p in points))
    facets = polytope_facets(pts)
    everything = frozenset(range(len(pts)))
    vertex_ids = []
    for i in range(len(pts)):
        face = everything
        for _, _, tight in facets:
            if i in tight:
                face = face & tight
        if face == {i}:
            vertex_ids.append(i)
    vertices = [pts[i] for i in vertex_ids]
    pos = {p: k for k, p in enumerate(vertices)}
    sets = [frozenset(pos[pts[i]] for i in tight if pts[i] in pos)
            for _, _, tight in facets]
    family = face_lattice(range(len(vertices)), sets, with_empty=False)
    faces = {(tuple(sorted(s)), affine_dim([vertices[i] for i in sorted(s)]))
             for s in family}
    return vertices, faces


def cone_faces(gens):
    """Faces {(indices, dim)} of a full-dimensional pointed cone, apex included."""
    facets = cone_facets(gens)
    family = face_lattice(range(len(gens)), [t for _, t in facets], with_empty=True)
    return {(tuple(sorted(s)), rank([gens[i] for i in s]) if s else 0)
            for s in family}


def dual_generators(gens):
    """Extreme rays of the dual of a full-dimensional pointed cone."""
    return sorted(h for h, _ in cone_facets(gens))


def in_cone(x, normals):
    return all(dot(h, x) >= 0 for h in normals)


def _hermite_rows(rows):
    """Upper-triangular integer basis of the row lattice (full rank, square)."""
    m = [list(r) for r in rows]
    n = len(m)
    for col in range(n):
        for i in range(col + 1, n):
            while m[i][col]:
                q = m[col][col] // m[i][col]
                m[col] = [a - q * b for a, b in zip(m[col], m[i])]
                m[col], m[i] = m[i], m[col]
        if m[col][col] < 0:
            m[col] = [-a for a in m[col]]
    return m


def parallelepiped_points(basis):
    """Lattice points sum t_i b_i, 0 <= t_i < 1, one per coset of Z^n / L."""
    n = len(basis)
    hnf = _hermite_rows(basis)
    inv = inverse(basis)
    out = []
    for rep in product(*(range(hnf[i][i]) for i in range(n))):
        t = [sum(Fraction(rep[k]) * inv[k][i] for k in range(n)) for i in range(n)]
        frac = [x - (x.numerator // x.denominator) for x in t]
        point = tuple(sum(frac[i] * basis[i][c] for i in range(n)) for c in range(n))
        out.append(tuple(int(x) for x in point))
    return out


class Monoid:
    """Membership in the monoid generated by gens inside a pointed cone."""

    def __init__(self, gens, normals):
        self.gens = list(gens)
        self.normals = normals
        self.memo = {}

    def __contains__(self, x):
        x = tuple(x)
        if not any(x):
            return True
        if x in self.memo:
            return self.memo[x]
        self.memo[x] = False
        found = False
        for g in self.gens:
            rest = tuple(a - b for a, b in zip(x, g))
            if in_cone(rest, self.normals) and rest in self:
                found = True
                break
        self.memo[x] = found
        return found


def check_hilbert_basis(gens, basis):
    """True iff basis is the minimal generating set of cone(gens) ∩ Z^n.

    The cone must be full-dimensional and pointed.  Every basis element lies
    in the cone; every generator and every parallelepiped point of every
    full-rank generator subset lies in the monoid of the basis (so it
    generates); no element lies in the monoid of the others (so it is
    minimal).
    """
    normals = [h for h, _ in cone_facets(gens)]
    if not all(in_cone(b, normals) and any(b) for b in basis):
        return False
    monoid = Monoid(basis, normals)
    n = len(gens[0])
    needed = set(map(tuple, gens))
    for subset in combinations(gens, n):
        if rank(subset) == n:
            needed.update(parallelepiped_points(subset))
    if not all(p in monoid for p in needed):
        return False
    for i, b in enumerate(basis):
        if b in Monoid(basis[:i] + basis[i + 1:], normals):
            return False
    return True


def image(exponents, expo):
    dim = len(exponents[0])
    return tuple(sum(e * a[c] for e, a in zip(expo, exponents)) for c in range(dim))


def relation_count(exponents, degree):
    """Binomials x^nu - x^mu of degree <= bound with equal image, disjoint supports."""
    k = len(exponents)
    total = 0
    for d in range(1, degree + 1):
        groups = {}
        for combo in combinations_with_replacement(range(k), d):
            expo = tuple(combo.count(i) for i in range(k))
            groups.setdefault(image(exponents, expo), []).append(expo)
        for members in groups.values():
            for a, b in combinations(members, 2):
                if not any(x and y for x, y in zip(a, b)):
                    total += 1
    return total


def evaluate(point, expo):
    value = 1
    for p, e in zip(point, expo):
        if e:
            value *= p ** e
    return value


def minor_count(shape):
    """Distinct two-by-two exchange binomials of a tensor shape."""
    total = 1
    for n in shape:
        total *= n
    per_mode = sum(n * (n - 1) // 2 * (total // n) * (total // n - 1) // 2
                   for n in shape)
    twice = 0
    for i, j in combinations(range(len(shape)), 2):
        twice += (shape[i] * (shape[i] - 1) // 2) * (shape[j] * (shape[j] - 1) // 2) \
            * (total // (shape[i] * shape[j]))
    return per_mode - twice


def cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def tensor(locals_):
    """Amplitudes of the product of local vectors of (re, im) pairs."""
    amps = {}
    for idx in product(*(range(len(v)) for v in locals_)):
        value = (1, 0)
        for v, i in zip(locals_, idx):
            value = cmul(value, v[i])
        if value[0] or value[1]:
            amps[idx] = value
    return amps
