"""Monoids of lattice points in strongly convex cones and their minimal generators."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import combinations, islice, product
from operator import ge, mul

from .geometry import Cone, is_strongly_convex
from .linalg import det_adj, dot, hermite_basis, orthogonal_lattice


@dataclass(frozen=True)
class MonoidGenerators:
    """A generating set for the monoid of lattice points of a cone."""

    cone: Cone
    generators: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for g in self.generators:
            if len(g) != self.cone.dim:
                raise ValueError("generator dimension mismatch")
        if list(self.generators) != sorted(set(self.generators)):
            raise ValueError("generators must be sorted and duplicate-free")


def _saturation(vectors, dim):
    """The Hermite basis of Z^dim intersect span(vectors).

    It is the lattice orthogonal to the lattice orthogonal to the vectors;
    for vectors of rank dim it is the identity.
    """
    return orthogonal_lattice(orthogonal_lattice(vectors, dim), dim)


def _parallelepiped_points(basis, lattice):
    """Nonzero integer points of {sum t_i b_i : 0 <= t_i < 1}, one per coset.

    ``lattice`` is the Hermite basis of Z^n intersect span(basis).  The half-open
    parallelepiped holds exactly one point of each coset of the lattice L
    that the b_i span, so the points are found by walking the cosets, not by
    scanning a box.  Written in the lattice basis, the Hermite basis of L is
    upper triangular with diagonal d_i = (pivot of L) / (pivot of lattice),
    so sum y_i h_i over 0 <= y_i < d_i are the |lattice / L| cosets.  Each
    one is moved into the parallelepiped through its coordinates
    t = x_P adj / det, keeping the fractional parts.  P holds the pivot
    columns of the Hermite basis of L: row operations keep column relations,
    so they are the first independent columns of the basis.  A dependent
    basis has none.
    """
    echelon = hermite_basis(basis)
    if len(echelon) < len(basis):
        return []
    cols = [next(c for c, x in enumerate(row) if x) for row in echelon]
    det, adj = det_adj([[b[c] for c in cols] for b in basis])
    if det < 0:
        det, adj = -det, [[-x for x in row] for row in adj]
    # numerators of the coordinates of each lattice basis vector
    steps = [[sum(h[c] * a for c, a in zip(cols, col)) for col in zip(*adj)]
             for h in lattice]
    diag = [row[c] // next(x for x in h if x)
            for row, c, h in zip(echelon, cols, lattice)]
    points = []
    for y in product(*map(range, diag)):
        fracs = [sum(map(mul, y, col)) % det for col in zip(*steps)]
        if any(fracs):
            points.append(tuple(sum(map(mul, fracs, col)) // det
                                for col in zip(*basis)))
    return points


def hilbert_basis(c: Cone) -> MonoidGenerators:
    """The unique minimal generating set of the monoid c intersect Z^n.

    Candidates are the generators and the lattice points of the half-open
    fundamental parallelepipeds of all maximal linearly independent
    generator subsets (Caratheodory covers the cone with these simplicial
    pieces, and a point with some t_i = 1 is b_i plus a half-open point), one
    per coset.  They are reduced to the irreducible elements in the order
    of a positive degree w: the Hilbert basis is among them, so every
    nonzero monoid element has degree at least that of the first, lo.  The
    monoid is saturated, so a candidate v is reducible exactly when v - b
    lies in c for a kept b (Bruns & Ichim 2010).  Then v - b is a nonzero
    monoid element, so only the kept b of degree at most deg v - lo are
    tested (none below 2 lo): one membership test, H v >= H b on the
    halfspaces H, each.
    """
    if not is_strongly_convex(c):
        raise ValueError(
            "cone is not strongly convex; the minimal generating set is not unique")
    # the dual rays are the halfspaces; their sum is positive on c minus 0
    halfspaces = tuple(h for h, _ in c.halfspaces)
    w = tuple(sum(col) for col in zip(*halfspaces))
    if not c.generators:
        return MonoidGenerators(c, ())
    lattice = _saturation(c.generators, c.dim)
    candidates = set(c.generators)
    for subset in combinations(c.generators, len(lattice)):
        candidates.update(_parallelepiped_points(subset, lattice))
    ordered = sorted(candidates, key=lambda v: (dot(w, v), v))
    lo = dot(w, ordered[0])
    basis, levels, degrees = [], [], []
    for v in ordered:
        hv, deg = [dot(h, v) for h in halfspaces], dot(w, v)
        below = islice(levels, bisect_right(degrees, deg - lo))
        if not any(all(map(ge, hv, hb)) for hb in below):
            basis.append(v)
            levels.append(hv)
            degrees.append(deg)
    return MonoidGenerators(c, tuple(sorted(basis)))
