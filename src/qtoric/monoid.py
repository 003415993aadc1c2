"""Monoids of lattice points in strongly convex cones and their minimal generators."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from operator import ge, mul

from .geometry import Cone, is_strongly_convex, pos_hull
from .linalg import det_adj, dot, hermite_basis, orthogonal_lattice


@dataclass(frozen=True)
class LaurentMonomial:
    """coefficient * z^exponent, with possibly negative integer exponents."""

    coefficient: object
    exponent: tuple[int, ...]

    def __post_init__(self):
        if not self.coefficient:
            raise ValueError("Laurent monomial coefficient must be nonzero")

    def __mul__(self, other):
        if not isinstance(other, LaurentMonomial):
            return NotImplemented
        return LaurentMonomial(self.coefficient * other.coefficient,
                               tuple(a + b for a, b in zip(self.exponent,
                                                           other.exponent)))

    def evaluate(self, point):
        if len(point) != len(self.exponent):
            raise ValueError("point dimension mismatch")
        value = self.coefficient
        for z, e in zip(point, self.exponent):
            value = value * z ** e
        return value


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


def monoid_generators(cone: Cone, generators) -> MonoidGenerators:
    """Validating constructor: members of the cone, minimal as a generating set."""
    gens = sorted(set(tuple(g) for g in generators))
    w, halfspaces = _ambient_functional(cone, "ambient cone must be strongly convex")
    for g in gens:
        if len(g) != cone.dim:
            raise ValueError("point dimension mismatch")
        if any(dot(h, g) < 0 for h in halfspaces):
            raise ValueError(f"generator {g} lies outside the ambient cone")
    # the empty sum generates the origin; checked first, since a zero
    # generator would let the search below add it forever
    if (0,) * cone.dim in gens:
        raise ValueError(f"generator {(0,) * cone.dim} is generated by the others")
    for i, g in enumerate(gens):
        if _reachable(gens[:i] + gens[i + 1:], g, (w, halfspaces)):
            raise ValueError(f"generator {g} is generated by the others")
    return MonoidGenerators(cone, tuple(gens))


def _ambient_functional(c: Cone, message: str):
    """(w, halfspaces) of a strongly convex cone, read off c.halfspaces.

    The dual rays are the halfspaces, and their sum w is positive on c minus
    the origin.  Raises ValueError(message) when c contains a line.
    """
    if not is_strongly_convex(c):
        raise ValueError(message)
    halfspaces = tuple(h for h, _ in c.halfspaces)
    return tuple(sum(col) for col in zip(*halfspaces)), halfspaces


def monoid_contains(g: MonoidGenerators, x) -> bool:
    """True iff x is a nonnegative-integer combination of the generators.

    Searched in pos{generators}: one built directly need not lie in g.cone.
    """
    x = tuple(x)
    if len(x) != g.cone.dim:
        raise ValueError("point dimension mismatch")
    message = "generator set does not span a pointed cone"
    functional = _ambient_functional(pos_hull(g.generators, g.cone.dim), message)
    # a zero generator would let the search add it forever
    if any(dot(functional[0], v) < 1 for v in g.generators):
        raise ValueError(message)
    return _reachable(list(g.generators), x, functional)


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
    nonzero monoid element has degree at least that of the first, lo, and
    a candidate of degree below 2 lo is irreducible without a test.  The
    monoid is saturated, so any other candidate v is reducible exactly when
    v - b lies in c for a kept b (Bruns & Ichim 2010): one membership test,
    H v >= H b on the halfspaces H, per kept element.
    """
    w, halfspaces = _ambient_functional(
        c, "cone is not strongly convex; the minimal generating set is not unique")
    if not c.generators:
        return MonoidGenerators(c, ())
    lattice = _saturation(c.generators, c.dim)
    candidates = set(c.generators)
    for subset in combinations(c.generators, len(lattice)):
        candidates.update(_parallelepiped_points(subset, lattice))
    ordered = sorted(candidates, key=lambda v: (dot(w, v), v))
    least_sum = 2 * dot(w, ordered[0])
    basis, levels = [], []
    for v in ordered:
        hv = [dot(h, v) for h in halfspaces]
        if dot(w, v) < least_sum or \
                not any(all(map(ge, hv, hb)) for hb in levels):
            basis.append(v)
            levels.append(hv)
    return MonoidGenerators(c, tuple(sorted(basis)))


def _reachable(gens, target, functional) -> bool:
    """Exact test: target is a nonnegative-integer combination of gens.

    Bounded depth-first search; a strictly positive functional on the pointed
    cone pos{gens} caps every coefficient, and remainders are pruned to the
    cone via its halfspace description.  ``functional`` is (w, halfspaces) of
    a pointed cone containing gens, with w >= 1 on every generator.
    """
    w, halfspaces = functional
    seen_fail = set()
    stack = [(target, 0)]
    while stack:
        vec, idx = stack.pop()
        if all(x == 0 for x in vec):
            return True
        advanced = False
        for j in range(idx, len(gens)):
            g = gens[j]
            if dot(w, g) > dot(w, vec):
                continue
            rem = tuple(a - b for a, b in zip(vec, g))
            if rem in seen_fail:
                continue
            if all(dot(h, rem) >= 0 for h in halfspaces):
                stack.append((vec, j + 1))
                stack.append((rem, 0))
                advanced = True
                break
        if not advanced:
            seen_fail.add(vec)
    return False
