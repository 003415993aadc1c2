"""Independent test-side oracles: definitional, brute-force, or numeric.

Nothing here reuses the package's polyhedral machinery.  Cone membership is
decided from first principles (kernels of generator subsets over Q give the
supporting inequalities), monoid reachability and toric relations by
exhaustive bounded search, rank-one distance by alternating least squares
over numpy.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from math import gcd, inf, isfinite, sqrt

import numpy as np

from qtoric import PureState
from qtoric.jsonio import decode_int
from qtoric.rationals import ComplexRational


def ball(dim, radius):
    """Integer points with Euclidean norm <= radius."""
    rng = range(-radius, radius + 1)
    for x in itertools.product(rng, repeat=dim):
        if sum(v * v for v in x) <= radius * radius:
            yield x


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _primitive(v):
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    return tuple(x // g for x in v)


def _rref(rows, cols):
    """Reduced row echelon form over the rationals: (rows, pivot columns)."""
    m = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    for col in range(cols):
        rank = len(pivots)
        piv = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pv = m[rank][col]
        m[rank] = [x / pv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col] != 0:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        pivots.append(col)
    return m, pivots


def frac_rank(rows) -> int:
    """Rank over the rationals by plain Gaussian elimination."""
    return len(_rref(rows, len(rows[0]) if rows else 0)[1])


def maximal_cones(fan):
    """The cones of a fan of largest rank, every cone ranked, in fan order."""
    ranks = [frac_rank(c.generators) for c in fan.cones]
    top = max(ranks, default=0)
    return tuple(c for c, r in zip(fan.cones, ranks) if r == top)


def frac_det(mat):
    """Determinant by Gaussian elimination over the rationals."""
    m = [[Fraction(x) for x in row] for row in mat]
    det = Fraction(1)
    for c in range(len(m)):
        piv = next((i for i in range(c, len(m)) if m[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, len(m)):
            f = m[i][c] / m[c][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return det


def minors_gcd(m, r, cols):
    """gcd of the r x r minors: the same for every r-row basis of a lattice."""
    g = 0
    for rows in itertools.combinations(range(len(m)), r):
        for cs in itertools.combinations(range(cols), r):
            g = gcd(g, int(frac_det([[m[i][j] for j in cs] for i in rows])))
    return g


def _kernel(rows, dim):
    """Primitive integer vectors spanning the kernel of rows over Q, one per
    free column of the reduced row echelon form."""
    m, pivots = _rref(rows, dim)
    out = []
    for free in (c for c in range(dim) if c not in pivots):
        v = [Fraction(0)] * dim
        v[free] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -m[r][free]
        den = 1
        for q in v:
            den = den * q.denominator // gcd(den, q.denominator)
        out.append(_primitive(tuple(int(q * den) for q in v)))
    return out


def _kernel_ray(rows, dim):
    """The primitive integer vector spanning the kernel of rows, or None
    when the kernel is not a line."""
    kernel = _kernel(rows, dim)
    return kernel[0] if len(kernel) == 1 else None


def extreme_rays(rows, dim):
    """Extreme rays of the pointed cone {y : h . y >= 0 for every row h}.

    Brute force over every subset of dim - 1 rows: its kernel, either sign,
    is an extreme ray when the subset has rank dim - 1 and the ray satisfies
    every row.  Sorted, each ray primitive.
    """
    rays = set()
    for subset in itertools.combinations(rows, dim - 1):
        k = _kernel_ray(subset, dim)
        if k is None:
            continue
        for r in (k, tuple(-x for x in k)):
            if all(dot(h, r) >= 0 for h in rows):
                rays.add(r)
    return sorted(rays)


def is_hermite_form(basis) -> bool:
    """True iff the rows are in Hermite normal form: echelon, with positive
    pivots and the entries above each pivot in [0, pivot)."""
    pivots = [next((j for j, x in enumerate(b) if x), None) for b in basis]
    if None in pivots or pivots != sorted(set(pivots)):
        return False
    return all(b[c] > 0 and all(0 <= basis[k][c] < b[c] for k in range(i))
               for i, (b, c) in enumerate(zip(basis, pivots)))


def is_hermite_kernel_basis(basis, rows, dim) -> bool:
    """True iff basis is the Hermite normal form basis of the lattice
    {y in Z^dim : h . y == 0 for every row h}.

    The basis must lie in the kernel, have its rank, be in Hermite form and
    span a saturated lattice (maximal minors with gcd 1); the Hermite form
    of a lattice is unique.
    """
    return (len(basis) == dim - frac_rank(rows)
            and all(dot(h, b) == 0 for h in rows for b in basis)
            and is_hermite_form(basis)
            and minors_gcd(basis, len(basis), dim) == 1)


def frac_solve(vectors, target):
    """Coefficients x with sum x_j vectors[j] == target, or None.

    Requires the vectors to be linearly independent.
    """
    n = len(target)
    k = len(vectors)
    aug = [[Fraction(vectors[j][r]) for j in range(k)] + [Fraction(target[r])]
           for r in range(n)]
    row = 0
    pivots = []
    for col in range(k):
        piv = next((i for i in range(row, n) if aug[i][col] != 0), None)
        if piv is None:
            raise ValueError("vectors are dependent")
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
    out = [Fraction(0)] * k
    for r, c in pivots:
        out[c] = aug[r][k]
    return out


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def valid_inequalities(gens, dim):
    """Supporting inequalities of pos{gens} that cut it out, in any dimension.

    Plus and minus the normals of span(gens), which confine a point to the
    span, and each valid kernel ray of r - 1 generators together with those
    normals (r the rank: generator perps in 2-D and pairwise cross products
    in 3-D when r = dim); every facet within the span is one of these.
    """
    normals = _kernel(gens, dim)
    cands = set(normals) | {tuple(-x for x in n) for n in normals}
    rank = dim - len(normals)
    for subset in itertools.combinations(gens, rank - 1) if rank else ():
        h = _kernel_ray(list(subset) + normals, dim)
        if h is not None:
            cands.update((h, tuple(-x for x in h)))
    return sorted(h for h in cands if all(dot(h, g) >= 0 for g in gens))


def cone_contains(gens, dim, x) -> bool:
    """Definitional membership of a rational point in pos{gens}, dim <= 3."""
    gens = [tuple(g) for g in gens]
    x = tuple(Fraction(v) for v in x)
    r = frac_rank(gens) if gens else 0
    if r == 0:
        return all(v == 0 for v in x)
    if r < dim:
        basis = []
        for g in gens:
            if frac_rank(basis + [g]) > len(basis):
                basis.append(g)
        coords = frac_solve(basis, x)
        if coords is None:
            return False
        gcoords = [frac_solve(basis, g) for g in gens]
        den = 1
        for vec in gcoords + [coords]:
            for q in vec:
                den = den * q.denominator // gcd(den, q.denominator)
        int_gens = [tuple(int(q * den) for q in vec) for vec in gcoords]
        target = tuple(q * den for q in coords)
        return cone_contains(int_gens, r, target)
    ineqs = valid_inequalities(gens, dim)
    if not ineqs:
        return True
    return all(dot(h, x) >= 0 for h in ineqs)


def positive_functional(gens, dim):
    """Sum of all valid supporting inequalities; for a pointed cone this is
    strictly positive on every nonzero cone point (the normals of the span
    cancel).  Returns (w, inequalities) or None when the cone is not
    certified pointed."""
    ineqs = valid_inequalities(gens, dim)
    if not ineqs:
        return None
    w = tuple(sum(col) for col in zip(*ineqs))
    if any(dot(w, g) < 1 for g in gens):
        return None
    return w, ineqs


def generates(basis, target, w, ineqs, memo) -> bool:
    """Exhaustive bounded search: target as a nonnegative-integer combination
    of basis elements; `w` strictly positive on the basis bounds the search.
    `memo` caches failures and may be shared across targets for one basis."""
    target = tuple(target)
    if all(v == 0 for v in target):
        return True
    if memo.get(target) is False:
        return False
    stack = [(target, 0)]
    while stack:
        vec, idx = stack.pop()
        if all(v == 0 for v in vec):
            return True
        if idx == 0 and memo.get(vec) is False:
            continue
        advanced = False
        for j in range(idx, len(basis)):
            b = basis[j]
            if dot(w, b) > dot(w, vec):
                continue
            rem = tuple(p - q for p, q in zip(vec, b))
            if memo.get(rem) is False:
                continue
            if all(dot(h, rem) >= 0 for h in ineqs):
                stack.append((vec, j + 1))
                stack.append((rem, 0))
                advanced = True
                break
        if not advanced:
            memo[vec] = False
    return False


def brute_irreducibles(gens, dim, w, ineqs, cap):
    """The monoid's irreducible elements with w-value <= cap, by exhaustion.

    Enumerates every lattice point of the cone in the w-slab, then strikes
    out points expressible as a sum of two nonzero cone points.  For a
    pointed cone, with ineqs cutting it out of its span and the span out of
    Q^dim, these irreducibles are exactly the Hilbert basis elements in the
    slab.

    The scan is bounded by the slab's own halfspaces, h . x >= 0 for h in
    ineqs and w . x <= cap.  Fourier-Motzkin elimination of the coordinates
    after k adds nonnegative combinations of these rows that cancel them,
    so every row of the k-th system holds on every point of the slab: with
    the coordinates before k fixed to a point's, its k-th coordinate lies
    in the range the k-th system leaves, and the scan of these ranges
    reaches every lattice point of the slab.  Each scanned point is kept
    only if it satisfies the definition itself.
    """
    # rows (a, b) stand for a . x <= b; systems[k] bounds coordinates 0..k
    systems = [[(tuple(-x for x in h), 0) for h in ineqs] + [(tuple(w), cap)]]
    for c in range(dim - 1, 0, -1):
        rows = systems[0]
        kept = {r for r in rows if r[0][c] == 0}
        for a, b in (r for r in rows if r[0][c] > 0):
            for a2, b2 in (r for r in rows if r[0][c] < 0):
                s, t = -a2[c], a[c]
                row = [s * x + t * y for x, y in zip(a, a2)] + [s * b + t * b2]
                if any(row[:-1]):
                    g = gcd(*row)
                    kept.add((tuple(x // g for x in row[:-1]), row[-1] // g))
        systems.insert(0, list(kept))

    def scan(prefix):
        k = len(prefix)
        if k == dim:
            yield prefix
            return
        lo, hi = -inf, inf
        for a, b in systems[k]:
            rest = b - dot(a, prefix)
            if a[k] > 0:
                hi = min(hi, rest // a[k])
            elif a[k] < 0:
                lo = max(lo, -(rest // -a[k]))
        for v in range(lo, hi + 1):
            yield from scan(prefix + (v,))

    points = [x for x in scan(()) if any(x) and dot(w, x) <= cap
              and all(dot(h, x) >= 0 for h in ineqs)]
    points.sort(key=lambda v: dot(w, v))
    point_set = set(points)
    out = []
    for x in points:
        wx = dot(w, x)
        reducible = False
        for a in points:
            if 2 * dot(w, a) > wx:
                break
            rest = tuple(p - q for p, q in zip(x, a))
            if rest in point_set:
                reducible = True
                break
        if not reducible:
            out.append(x)
    return out


def toric_binomials(exponents, degree):
    """Every binomial relation of the monomial map, by definition.

    All pairs (nu, mu) of exponent vectors with nu > mu, equal total degree
    at most ``degree``, disjoint supports and equal images sum_i nu_i a_i ==
    sum_i mu_i a_i, listed from the full product {0..degree}^k and sorted by
    (degree, nu, mu).
    """
    k, dim = len(exponents), len(exponents[0])
    monomials = [e for e in itertools.product(range(degree + 1), repeat=k)
                 if 0 < sum(e) <= degree]
    return sorted(((nu, mu) for nu in monomials for mu in monomials
                   if nu > mu and sum(nu) == sum(mu)
                   and not any(x and y for x, y in zip(nu, mu))
                   and monomial_image(exponents, dim, nu) ==
                   monomial_image(exponents, dim, mu)),
                  key=lambda g: (sum(g[0]), g[0], g[1]))


def monomial_image(exponents, dim, e):
    """sum_i e_i a_i in Z^dim: the exponent vector of the image of x^e."""
    return tuple(sum(x * a[c] for x, a in zip(e, exponents))
                 for c in range(dim))


def table_pairs(exponents, dim, monomials):
    """Every index pair i < j of a table of monomials with equal degree,
    equal image and disjoint supports, sorted by (degree, nu, mu), where nu
    is monomials[i]."""
    pairs = [(i, j) for i, j in itertools.combinations(range(len(monomials)), 2)
             if sum(monomials[i]) == sum(monomials[j])
             and not any(x and y for x, y in zip(monomials[i], monomials[j]))
             and monomial_image(exponents, dim, monomials[i]) ==
             monomial_image(exponents, dim, monomials[j])]
    return sorted(pairs, key=lambda p: (sum(monomials[p[0]]), monomials[p[0]],
                                        monomials[p[1]]))


def monomial_value(exponent, point):
    """prod point_i ** exponent_i, in the point's arithmetic: a nonnegative
    exponent by repeated products (a ComplexRational has no powers), a
    Laurent one by a Fraction's power; a point of the wrong length raises
    ValueError."""
    value = 1
    for p, e in zip(point, exponent, strict=True):
        if e < 0:
            value = value * p ** e
        for _ in range(e):
            value = value * p
    return value


def binomial_value(b, point):
    """x^nu - x^mu of a binomial at the point, in the point's arithmetic."""
    return monomial_value(b.nu, point) - monomial_value(b.mu, point)


def supporting_faces(vertices, dim):
    """Brute-force face index sets of conv(vertices) from supporting
    hyperplanes with normals in {-1,0,1}^dim, plus the improper face."""
    out = {frozenset(range(len(vertices)))}
    for h in itertools.product((-1, 0, 1), repeat=dim):
        if not any(h):
            continue
        top = max(dot(h, v) for v in vertices)
        out.add(frozenset(i for i, v in enumerate(vertices)
                          if dot(h, v) == top))
    return out


def polytope_faces(vertices, dim):
    """Complete face lattice of a full-dimensional polytope, dim <= 3.

    Candidate facet normals come from hyperplanes through dim affinely
    independent vertices (perp of an edge in 2-D, cross of two edge vectors
    in 3-D); every facet arises this way, and every face is an intersection
    of facets, so closing the tight sets under intersection is exhaustive.
    """
    normals = set()
    if dim == 2:
        for a, b in itertools.combinations(vertices, 2):
            e = tuple(p - q for p, q in zip(b, a))
            h = (-e[1], e[0])
            if any(h):
                normals.add(_primitive(h))
    elif dim == 3:
        for a, b, c in itertools.combinations(vertices, 3):
            u = tuple(p - q for p, q in zip(b, a))
            v = tuple(p - q for p, q in zip(c, a))
            h = _cross(u, v)
            if any(h):
                normals.add(_primitive(h))
    else:
        raise ValueError("oracle supports dimension 2 or 3 only")
    family = {frozenset(range(len(vertices)))}
    for h in normals:
        for sign in (1, -1):
            hh = tuple(sign * x for x in h)
            top = max(dot(hh, v) for v in vertices)
            family.add(frozenset(i for i, v in enumerate(vertices)
                                 if dot(hh, v) == top))
    changed = True
    while changed:
        changed = False
        for a, b in itertools.combinations(list(family), 2):
            t = a & b
            if t and t not in family:
                family.add(t)
                changed = True
    return family


def cone_faces(gens, dim):
    """Faces of the full-dimensional pointed cone pos(gens), as {generator
    index set: dimension}, the apex (no index, dimension 0) included.

    The facet normals are the dual cone's extreme rays, by brute force;
    every face is an intersection of facets, so closing their tight sets
    under intersection is exhaustive, and a face's dimension is its rank.
    """
    family = {frozenset(range(len(gens)))}
    for h in extreme_rays(gens, dim):
        family.add(frozenset(i for i, g in enumerate(gens) if dot(h, g) == 0))
    changed = True
    while changed:
        changed = False
        for a, b in itertools.combinations(list(family), 2):
            if a & b not in family:
                family.add(a & b)
                changed = True
    return {s: frac_rank([gens[i] for i in s]) for s in family}


def simplex_product_faces(simplices):
    """Faces of the product of simplices, each given by its affinely
    independent vertices, as {set of product points: dimension}.

    A face of a product is a product of faces, and every nonempty vertex
    subset of a simplex spans a face of one dimension less than its size.
    """
    per_factor = [[sub for k in range(1, len(s) + 1)
                   for sub in itertools.combinations(s, k)]
                  for s in simplices]
    return {frozenset(sum(point, ()) for point in itertools.product(*subs)):
            sum(len(sub) - 1 for sub in subs)
            for subs in itertools.product(*per_factor)}


def normal_fan_cones(vertices, dim, lattice):
    """The normal fan of a full-dimensional polytope from its faces, given as
    {vertex index set: dimension}: per nonempty face, the outer normals of
    the facets containing it, each normal maximised on its facet.  Returns
    the sorted generator tuples, in the order a Fan sorts its cones."""
    normals = []
    for s, d in lattice.items():
        if d == dim - 1:
            v0 = vertices[min(s)]
            h = _kernel_ray([tuple(a - b for a, b in zip(vertices[i], v0))
                             for i in s], dim)
            if any(dot(h, v) > dot(h, v0) for v in vertices):
                h = tuple(-x for x in h)
            normals.append((s, h))
    return sorted(tuple(sorted(h for t, h in normals if s <= t))
                  for s in lattice if s)


def polygon_normal_fan_maximal(vertices):
    """Independent 2-D normal fan: walk the polygon boundary and pair
    consecutive outer edge normals.  Returns the maximal cones as canonical
    (sorted primitive generator pair) tuples."""
    import math as _math
    cx = sum(v[0] for v in vertices)
    cy = sum(v[1] for v in vertices)
    n = len(vertices)
    ordered = sorted(vertices,
                     key=lambda v: _math.atan2(v[1] * n - cy, v[0] * n - cx))
    normals = []
    for a, b in zip(ordered, ordered[1:] + ordered[:1]):
        d = (b[0] - a[0], b[1] - a[1])
        normals.append(_primitive((d[1], -d[0])))
    cones = set()
    for h1, h2 in zip(normals, normals[1:] + normals[:1]):
        cones.add(tuple(sorted((h1, h2))))
    return cones


def _unit(dim, axis, sign=1):
    return tuple(sign * int(i == axis) for i in range(dim))


def orthant_fan_cones(m):
    """The cones of the (CP^1)^m fan by direct enumeration: every choice of
    k axes and a sign on each gives the cone over those signed unit vectors.
    Returns the sorted generator tuples, in the order a Fan sorts its cones."""
    cones = []
    for k in range(m + 1):
        for axes in itertools.combinations(range(m), k):
            for signs in itertools.product((1, -1), repeat=k):
                cones.append(tuple(sorted(_unit(m, a, s)
                                          for a, s in zip(axes, signs))))
    return sorted(cones)


def projective_space_maximal(n):
    """Generators of the maximal cones of the CP^n fan: pos{e_1..e_n} and
    the n cones replacing one e_i by -(e_1 + ... + e_n)."""
    minus_sum = (-1,) * n
    maximal = [[_unit(n, i) for i in range(n)]]
    for i in range(n):
        maximal.append([_unit(n, j) for j in range(n) if j != i] + [minus_sum])
    return maximal


def best_rank_one_residual(tensor: np.ndarray, starts: int = 4,
                           iters: int = 60) -> float:
    """Relative distance to the nearest rank-one tensor, by alternating
    least squares with several random restarts."""
    shape = tensor.shape
    norm = np.linalg.norm(tensor)
    rng = np.random.default_rng(7)
    best = np.inf
    for _ in range(starts):
        vecs = [rng.normal(size=n) + 1j * rng.normal(size=n) for n in shape]
        vecs = [v / np.linalg.norm(v) for v in vecs]
        for _ in range(iters):
            for j in range(len(shape)):
                contracted = tensor
                for jj in range(len(shape) - 1, -1, -1):
                    if jj == j:
                        continue
                    contracted = np.tensordot(contracted, np.conj(vecs[jj]),
                                              axes=([jj], [0]))
                nv = np.linalg.norm(contracted)
                if nv == 0:
                    break
                vecs[j] = contracted / nv
        approx = vecs[0]
        for v in vecs[1:]:
            approx = np.multiply.outer(approx, v)
        coeff = np.vdot(approx, tensor)
        residual = np.linalg.norm(tensor - coeff * approx) / norm
        best = min(best, residual)
    return float(best)


def segre_product(locals_):
    """Segre image amplitudes index by index: ((1 * v_1[i_1]) * v_2[i_2]) ...
    in lexicographic index order, zero products omitted."""
    amps = {}
    for idx in itertools.product(*(range(len(v)) for v in locals_)):
        value = 1
        for v, i in zip(locals_, idx):
            value = value * v[i]
        if value:
            amps[idx] = value
    return amps


def subset_products(z):
    """Subset-product map amplitudes: index k carries prod_{k_j = 1} z_j,
    each product taken left to right from 1, zero products omitted."""
    amps = {}
    for idx in itertools.product((0, 1), repeat=len(z)):
        value = 1
        for zj, e in zip(z, idx):
            if e:
                value = value * zj
        if value:
            amps[idx] = value
    return amps


def segre_minor_listing(shape):
    """Canonical exchange minors as (mode, k, l), by definition.

    Lists every (mode, local pair a < b, complement pair c < c2) in order and
    drops a minor whose binomial, as an orderless pair of index pairs, was
    already listed; the exchanged indices swap slot `mode` of k and l.
    """
    out = []
    seen = set()
    for mode, n in enumerate(shape):
        others = [d for j, d in enumerate(shape) if j != mode]
        complements = sorted(itertools.product(*(range(d) for d in others)))
        for a, b in itertools.combinations(range(n), 2):
            for c, c2 in itertools.combinations(complements, 2):
                k = c[:mode] + (a,) + c[mode:]
                l = c2[:mode] + (b,) + c2[mode:]
                k2 = c[:mode] + (b,) + c[mode:]
                l2 = c2[:mode] + (a,) + c2[mode:]
                key = frozenset((frozenset((k, l)), frozenset((k2, l2))))
                if key not in seen:
                    seen.add(key)
                    out.append((mode, k, l))
    return out


def _exchange(mode, k, l):
    """The partner indices of minor (mode, k, l): slot `mode` swapped."""
    return (k[:mode] + (l[mode],) + k[mode + 1:],
            l[:mode] + (k[mode],) + l[mode + 1:])


def _magnitude(value) -> float:
    """|value| as a float, an exact value's rounded from its exact square."""
    if isinstance(value, ComplexRational):
        return float(value.re * value.re + value.im * value.im) ** 0.5
    return abs(complex(value))


def peak_squared(state) -> Fraction:
    """The largest |a|^2 of the state, exactly."""
    return max(re * re + im * im for re, im in map(
        _exact_parts, state.amplitudes.values()))


def separability_reference(state, tol):
    """The maximal-minor verdict, by definition over the canonical listing.

    Every minor is evaluated with the state's own arithmetic; the first one
    with the largest key (|minor| as a float, minor != 0) is the worst.  The
    state is separable when that float is at most tol * (max |amplitude|)^2,
    except that at tol 0 a nonzero minor, however small, rules it out.
    Returns (separable, (mode, k, l) or None, worst value or None,
    max_violation).  The minors are read as floats, so the peak |a|^2 must
    lie in [2^-1022, 2^1023): outside, a ValueError is raised.
    """
    if not Fraction(2) ** -1022 <= peak_squared(state) < Fraction(2) ** 1023:
        raise ValueError("the peak |a|^2 of the state lies outside "
                         "[2^-1022, 2^1023), where minors read as floats")
    best = None
    for mode, k, l in segre_minor_listing(state.shape):
        k2, l2 = _exchange(mode, k, l)
        raw = (state.amplitude(k) * state.amplitude(l)
               - state.amplitude(k2) * state.amplitude(l2))
        key = (abs(complex(raw)), bool(raw))
        if best is None or key > best[0]:
            best = (key, (mode, k, l), raw)
    (top, nonzero), minor, raw = best or ((0.0, False), None, 0)
    peak = max(_magnitude(v) for v in state.amplitudes.values())
    if top <= tol * peak * peak and not (tol == 0 and nonzero):
        return True, None, None, top
    return False, minor, complex(raw), top


def _cmul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _is_exact(state):
    return all(isinstance(v, (int, Fraction)) or hasattr(v, "re")
               for v in state.amplitudes.values())


def peak(state):
    """The index of the peak: the last largest |a| in index order, |a| a
    float (sqrt(float(|a|^2)) for an exact amplitude)."""
    if _is_exact(state):
        return max(state.amplitudes, key=lambda i: (sqrt(float(
            sum(x * x for x in _exact_parts(state.amplitudes[i])))), i))
    return max(state.amplitudes, key=lambda i: (abs(state.amplitudes[i]), i))


def witness(state, p=None):
    """The local vectors of the witness, by definition: the rows of the
    tensor through the entry p, by default the peak, the first divided by
    T[p]^(m-1).  Exact states are read as pairs of Fractions and divided
    exactly, float states as complex."""
    exact = _is_exact(state)

    def amp(i):
        v = state.amplitude(i)
        return _exact_parts(v) if exact else complex(v)
    if p is None:
        p = peak(state)
    rows = [[amp(p[:j] + (a,) + p[j + 1:]) for a in range(n)]
            for j, n in enumerate(state.shape)]
    if len(rows) > 1 and exact:
        scale = (Fraction(1), Fraction(0))
        for _ in rows[1:]:
            scale = _cmul(scale, amp(p))
        n2 = scale[0] ** 2 + scale[1] ** 2
        rows[0] = [_cmul(x, (scale[0] / n2, -scale[1] / n2)) for x in rows[0]]
    elif len(rows) > 1:
        rows[0] = [x / amp(p) ** (len(rows) - 1) for x in rows[0]]
    return rows


def rank_one_reference(state) -> bool:
    """The witness identity on an exact state: the Segre image of its
    witness, taken through its first nonzero entry (any one would do),
    rebuilds it exactly when it is a rank-one tensor."""
    rows = witness(state, min(state.amplitudes))
    for idx in itertools.product(*(range(n) for n in state.shape)):
        value = (Fraction(1), Fraction(0))
        for row, i in zip(rows, idx):
            value = _cmul(value, row[i])
        if value != _exact_parts(state.amplitude(idx)):
            return False
    return True


def _exact_parts(value):
    """(re, im) of an amplitude as Fractions; floats are dyadic rationals."""
    if hasattr(value, "re"):
        return Fraction(value.re), Fraction(value.im)
    if isinstance(value, (int, Fraction)):
        return Fraction(value), Fraction(0)
    z = complex(value)
    return Fraction(z.real), Fraction(z.imag)


def minor_norm2(state):
    """Exact sum of |minor|^2 over the canonical listing, as a Fraction."""
    def amp(i):
        return _exact_parts(state.amplitude(i))

    def mul(a, b):
        return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]

    total = Fraction(0)
    for mode, k, l in segre_minor_listing(state.shape):
        k2, l2 = _exchange(mode, k, l)
        p, q = mul(amp(k), amp(l)), mul(amp(k2), amp(l2))
        total += (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2
    return total


def _amplitude_part_in(x):
    if isinstance(x, bool):
        raise ValueError("amplitude parts must be numbers or 'p/q' strings")
    if isinstance(x, str):
        # read by Python 3.10's grammar on every version: 3.11 added '_'
        # between digits, 3.12 spaces beside the '/'
        if "_" in x or re.search(r"\s/|/\s", x):
            raise ValueError(f"Invalid literal for Fraction: {x!r}")
        return Fraction(x)
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if not isfinite(x):
            raise ValueError(f"amplitude parts must be finite, got {x!r}")
        return x
    raise ValueError(f"bad amplitude part {x!r}")


def state_from_json(data):
    """The state reader by definition: each part a Fraction or a float, all
    of them read first; each amplitude a ComplexRational, or a complex when
    any part of the state is a float, and the ``PureState`` constructor
    checks the shape and the indices."""
    if not isinstance(data, dict) or "shape" not in data or "amplitudes" not in data:
        raise ValueError("state JSON needs 'shape' and 'amplitudes'")
    shape = tuple(decode_int(n) for n in data["shape"])
    parts = {}
    for entry in data["amplitudes"]:
        idx = tuple(decode_int(i) for i in entry["index"])
        if idx in parts:
            raise ValueError(f"duplicate amplitude index {idx}")
        parts[idx] = (_amplitude_part_in(entry.get("re", 0)),
                      _amplitude_part_in(entry.get("im", 0)))
    if any(isinstance(x, float) for v in parts.values() for x in v):
        return PureState(shape, {idx: complex(float(re), float(im))
                                 for idx, (re, im) in parts.items()})
    return PureState(shape, {idx: ComplexRational(*v) for idx, v in parts.items()})
