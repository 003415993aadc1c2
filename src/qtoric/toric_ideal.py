"""Binomial toric ideals of monomial maps, up to a degree bound."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, repeat
from operator import mul


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
    """The binomials x^monomials[i] - x^monomials[j], one per (i, j) in pairs.

    Each exponent tuple is stored once, however many binomials share it, so
    the checks that concern one monomial run once per monomial and those
    that concern one binomial are a few comparisons of ints and tuples.
    """

    map: MonomialMap
    degree_bound: int
    monomials: tuple[tuple[int, ...], ...]
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        monomials, k = self.monomials, len(self.map.exponents)
        if not all(map(k.__eq__, map(len, monomials))):
            raise ValueError("binomial arity mismatch with the map")
        if min(chain.from_iterable(monomials), default=0) < 0:
            raise ValueError("exponents must be nonnegative")
        if len(set(monomials)) != len(monomials):
            raise ValueError("duplicate monomials")
        # per monomial: its support as a bitmask and its image as one int,
        # the sum of its variables' ``_image_weights``
        bits = [1 << i for i in range(k)]
        supports = list(map(sum, map(compress, repeat(bits), monomials)))
        weights = _image_weights(self.map, max(map(sum, monomials), default=0))
        image = list(map(sum, map(map, repeat(mul), monomials, repeat(weights))))
        n = len(monomials)
        for i, j in self.pairs:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError("monomial index out of range")
            if supports[i] & supports[j]:
                raise ValueError("nu and mu must have disjoint supports")
            if monomials[i] <= monomials[j]:
                raise ValueError("binomial sides must satisfy nu > mu")
            if image[i] != image[j]:
                b = Binomial(monomials[i], monomials[j])
                raise ValueError(f"binomial {b} is not a relation of the map")
        if len(set(self.pairs)) != len(self.pairs):
            raise ValueError("duplicate generators")

    @cached_property
    def generators(self) -> tuple[Binomial, ...]:
        """The binomials as checked ``Binomial`` objects, built on first use."""
        m = self.monomials
        return tuple(Binomial(m[i], m[j]) for i, j in self.pairs)


def _image_weights(m: MonomialMap, degree: int) -> list[int]:
    """One int w_i per exponent vector a_i of the map, such that two
    nonnegative combinations of total degree at most ``degree`` have equal
    sums of the w_i exactly when they have equal sums of the a_i.

    Such a sum z has |z_c| <= M = degree * max |a_ic| in every coordinate,
    and w_i = sum_c a_ic B^c with B = 2M + 1, so the combination of the w_i
    is sum_c z_c B^c: a numeral in base B with digits in [-M, M], and as
    2M < B, no two such numerals have the same value.
    """
    base = 2 * degree * max(map(abs, chain.from_iterable(m.exponents)),
                            default=0) + 1
    return [sum(x * base ** c for c, x in enumerate(a)) for a in m.exponents]


def toric_ideal_binomials(m: MonomialMap, degree_bound: int) -> BinomialIdeal:
    """All binomial relations xi^nu - xi^mu of the map, degree-balanced.

    Enumerates exhaustively the pairs of equal total degree d <= degree_bound
    with disjoint supports and equal image monomials; deduplicated under
    (nu, mu) <-> (mu, nu) by ordering nu > mu lexicographically.  The
    multisets of d variables are built in lexicographic order from those of
    d - 1, each image (an int, see ``_image_weights``) its prefix's image
    plus the weight of one variable; only a monomial whose image another
    one shares gets an exponent tuple, a support bitmask and a place in the
    ideal's table.
    """
    if degree_bound < 1:
        raise ValueError("degree bound must be at least 1")
    weights = _image_weights(m, degree_bound)
    k = len(weights)
    monomials, supports, pairs = [], [], []
    level = [((), 0)]  # (multiset, image) of one degree
    for _ in range(degree_bound):
        level = [(combo + (i,), image + weights[i])
                 for combo, image in level
                 for i in range(combo[-1] if combo else 0, k)]
        shared = Counter([image for _, image in level])
        first, images = len(monomials), []
        for combo, image in level:
            if shared[image] > 1:
                expo = [0] * k
                support = 0
                for i in combo:
                    expo[i] += 1
                    support |= 1 << i
                monomials.append(tuple(expo))
                supports.append(support)
                images.append(image)
        # the multisets come in lexicographic order, so their exponent
        # tuples fall: in a pair (a, b) with a < b, a is nu.  Walking a
        # downward, and its partners (the later members of its fiber)
        # downward too, gives the binomials in ascending order
        later: dict[int, list[int]] = {}
        for a in reversed(range(first, len(monomials))):
            members = later.setdefault(images[a - first], [])
            support = supports[a]
            pairs += [(a, b) for b in members if not support & supports[b]]
            members.append(a)
    return BinomialIdeal(m, degree_bound, tuple(monomials), tuple(pairs))


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
