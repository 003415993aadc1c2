"""Binomial toric ideals of monomial maps, up to a degree bound."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement
from operator import attrgetter, mul

from .linalg import left_kernel_basis


@dataclass(frozen=True)
class MonomialMap:
    """An ordered system of integer exponent vectors a_1, ..., a_k in Z^dim.

    Variable i of the associated polynomial ring maps to the Laurent
    monomial z^(a_i); the zero vector encodes the constant monomial 1.
    """

    dim: int
    exponents: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("ambient dimension must be positive")
        for a in self.exponents:
            if len(a) != self.dim:
                raise ValueError("exponent dimension mismatch")


@dataclass(frozen=True)
class Binomial:
    """xi^nu - xi^mu with disjoint supports, canonically ordered nu > mu."""

    nu: tuple[int, ...]
    mu: tuple[int, ...]

    def __post_init__(self):
        nu, mu = self.nu, self.mu
        if len(nu) != len(mu):
            raise ValueError("exponent length mismatch")
        if min(nu + mu, default=0) < 0:
            raise ValueError("exponents must be nonnegative")
        # both sides are nonnegative, so a product is nonzero iff both are
        if any(map(mul, nu, mu)):
            raise ValueError("nu and mu must have disjoint supports")
        if nu <= mu:
            raise ValueError("binomial sides must satisfy nu > mu")


@dataclass(frozen=True)
class BinomialIdeal:
    map: MonomialMap
    degree_bound: int
    generators: tuple[Binomial, ...]

    def __post_init__(self):
        # a monomial is shared by many binomials: take each image once
        images = dict.fromkeys(e for b in self.generators for e in (b.nu, b.mu))
        for e in images:
            if len(e) != len(self.map.exponents):
                raise ValueError("binomial arity mismatch with the map")
            images[e] = _image(self.map, e)
        for b in self.generators:
            if images[b.nu] != images[b.mu]:
                raise ValueError(f"binomial {b} is not a relation of the map")
        if len(set(map(attrgetter("nu", "mu"), self.generators))) != \
                len(self.generators):
            raise ValueError("duplicate generators")


def _image(m: MonomialMap, expo) -> tuple[int, ...]:
    """The exponent vector of the image monomial prod_i z^(e_i * a_i)."""
    out = [0] * m.dim
    for e, a in zip(expo, m.exponents):
        if e:
            for c in range(m.dim):
                out[c] += e * a[c]
    return tuple(out)


def kernel_lattice(m: MonomialMap):
    """A Z-basis of {v in Z^k : sum_i v_i a_i = 0}, basis vectors primitive."""
    if not m.exponents:
        return ()
    return tuple(left_kernel_basis(list(m.exponents)))


def toric_ideal_binomials(m: MonomialMap, degree_bound: int) -> BinomialIdeal:
    """All binomial relations xi^nu - xi^mu of the map, degree-balanced.

    Enumerates exhaustively the pairs of equal total degree d <= degree_bound
    with disjoint supports and equal image monomials; deduplicated under
    (nu, mu) <-> (mu, nu) by ordering nu > mu lexicographically.  Each
    monomial of degree d is built once from its multiset of d variables:
    its exponent tuple, shared by every binomial that uses it, its support
    as a bitmask, and its image as the sum of its d exponent vectors.
    """
    if degree_bound < 1:
        raise ValueError("degree bound must be at least 1")
    k = len(m.exponents)
    gens = []
    for d in range(1, degree_bound + 1):
        groups: dict[tuple[int, ...], list] = {}
        for combo in combinations_with_replacement(range(k), d):
            expo = [0] * k
            support = 0
            for i in combo:
                expo[i] += 1
                support |= 1 << i
            image = tuple(map(sum, zip(*[m.exponents[i] for i in combo])))
            groups.setdefault(image, []).append((tuple(expo), support))
        # the multisets come in lexicographic order, so their exponent
        # tuples fall: the first of a pair is nu
        pairs = sorted((a, b) for members in groups.values()
                       for (a, sa), (b, sb) in combinations(members, 2)
                       if not sa & sb)
        gens += [Binomial(nu, mu) for nu, mu in pairs]
    return BinomialIdeal(m, degree_bound, tuple(gens))


def homogenize(m: MonomialMap) -> MonomialMap:
    """Append a coordinate 1 to every exponent vector (projective embedding)."""
    return MonomialMap(m.dim + 1, tuple(a + (1,) for a in m.exponents))


def projective_relations(exponents, degree_bound: int) -> BinomialIdeal:
    """Homogeneous monomial relations of a projective parameterization.

    Binomials x^beta - x^beta' with equal total degree and equal weighted
    exponent sums; computed as the toric ideal of the homogenized map.
    """
    exponents = [tuple(e) for e in exponents]
    if not exponents:
        raise ValueError("at least one exponent vector is required")
    m = MonomialMap(len(exponents[0]), tuple(exponents))
    return toric_ideal_binomials(homogenize(m), degree_bound)


def evaluate_binomial(b: Binomial, point):
    """prod point_i^(nu_i) - prod point_i^(mu_i), in the point's arithmetic."""
    if len(point) != len(b.nu):
        raise ValueError("point length does not match the number of variables")
    left = 1
    right = 1
    for p, e in zip(point, b.nu):
        if e:
            left = left * p ** e
    for p, e in zip(point, b.mu):
        if e:
            right = right * p ** e
    return left - right
