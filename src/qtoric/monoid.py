"""Monoids of lattice points in strongly convex cones and their minimal generators."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations, product
from operator import and_

from .geometry import (Cone, _dd_rays, cone_contains, dual_cone,
                       is_strongly_convex, pos_hull)
from .linalg import det_adj, dot, rank_int


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
    if not is_strongly_convex(cone):
        raise ValueError("ambient cone must be strongly convex")
    for g in gens:
        if not cone_contains(cone, g):
            raise ValueError(f"generator {g} lies outside the ambient cone")
    for i, g in enumerate(gens):
        if _reachable(gens[:i] + gens[i + 1:], g, cone.dim):
            raise ValueError(f"generator {g} is generated by the others")
    return MonoidGenerators(cone, tuple(gens))


@lru_cache(maxsize=512)
def _positive_functional(gens: tuple, dim: int):
    """An integer functional strictly positive on pos{gens} minus the origin."""
    dual = dual_cone(pos_hull(gens, dim))
    w = tuple(sum(col) for col in zip(*dual.generators)) if dual.generators \
        else (0,) * dim
    return w, dual.generators


def monoid_contains(g: MonoidGenerators, x) -> bool:
    """True iff x is a nonnegative-integer combination of the generators."""
    x = tuple(x)
    if len(x) != g.cone.dim:
        raise ValueError("point dimension mismatch")
    return _reachable(list(g.generators), x, g.cone.dim)


def _parallelepiped_points(basis, dim):
    """Integer points of {sum t_i b_i : 0 <= t_i <= 1} for independent b_i."""
    d = len(basis)
    gram = [[dot(a, b) for b in basis] for a in basis]
    det, adj = det_adj(gram)
    # rows of N give D * t = N @ x for any x in the span
    n_mat = [[sum(adj[i][j] * basis[j][c] for j in range(d)) for c in range(dim)]
             for i in range(d)]
    lo = [sum(min(0, b[c]) for b in basis) for c in range(dim)]
    hi = [sum(max(0, b[c]) for b in basis) for c in range(dim)]
    points = []
    for x in product(*(range(l, h + 1) for l, h in zip(lo, hi))):
        t_num = [dot(row, x) for row in n_mat]
        if any(t < 0 or t > det for t in t_num):
            continue
        # consistency: x must lie in the span of the basis
        ok = True
        for c in range(dim):
            if sum(t_num[i] * basis[i][c] for i in range(d)) != det * x[c]:
                ok = False
                break
        if ok and any(v != 0 for v in x):
            points.append(x)
    return points


def hilbert_basis(c: Cone) -> MonoidGenerators:
    """The unique minimal generating set of the monoid c intersect Z^n.

    Candidates are gathered from the fundamental parallelepipeds of all
    maximal linearly independent generator subsets (Caratheodory covers the
    cone with these simplicial pieces), then reduced to the irreducible
    elements.
    """
    # one double description: the facets of c meet in its lineality space,
    # which holds a generator unless it is {0}; the dual rays are the
    # halfspaces, and their sum is positive on c minus the origin
    rays = _dd_rays(c.dim, c.generators)
    if reduce(and_, (z for _, z in rays), (1 << len(c.generators)) - 1):
        raise ValueError("cone is not strongly convex; "
                         "the minimal generating set is not unique")
    if c.is_zero():
        return MonoidGenerators(c, ())
    r = c.rank
    candidates = set(c.generators)
    for subset in combinations(c.generators, r):
        if rank_int(subset) < r:
            continue
        candidates.update(_parallelepiped_points(subset, c.dim))
    halfspaces = tuple(h for h, _ in rays)
    w = tuple(sum(col) for col in zip(*halfspaces))
    ordered = sorted(candidates, key=lambda v: (dot(w, v), v))
    basis: list[tuple[int, ...]] = []
    for v in ordered:
        if not _reachable(basis, v, c.dim, (w, halfspaces)):
            basis.append(v)
    return MonoidGenerators(c, tuple(sorted(basis)))


def _reachable(gens, target, dim, functional=None) -> bool:
    """Exact test: target is a nonnegative-integer combination of gens.

    Bounded depth-first search; a strictly positive functional on the pointed
    cone pos{gens} caps every coefficient, and remainders are pruned to the
    cone via its halfspace description.  ``functional`` is (w, halfspaces) of
    a pointed cone containing gens; by default that of pos{gens} itself.
    """
    if all(x == 0 for x in target):
        return True
    if not gens:
        return False
    if functional is None:
        functional = _positive_functional(tuple(gens), dim)
        if any(dot(functional[0], g) < 1 for g in gens):
            raise ValueError("generator set does not span a pointed cone")
    w, halfspaces = functional
    seen_fail = set()
    stack = [(target, 0)]
    while stack:
        vec, idx = stack.pop()
        if all(x == 0 for x in vec):
            return True
        if idx == 0 and vec in seen_fail:
            continue
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
