"""Binomial toric ideals of monomial maps, up to a degree bound."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from operator import index, mul


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
        try:
            exponents = tuple(tuple(map(index, a)) for a in self.exponents)
        except TypeError:
            raise ValueError("exponents must be integers") from None
        object.__setattr__(self, "exponents", exponents)
        for a in exponents:
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
    """The binomial relations x^nu - x^mu of the map of total degree at
    most the bound: one per two monomials of one degree with equal images
    and disjoint supports.

    Built exhaustively, degree by degree.  The multisets of d variables are
    built in lexicographic order from those of d - 1, each image (an int,
    see ``_image_weights``) its prefix's image plus the weight of one
    variable, so their exponent tuples fall.  ``monomials`` keeps those
    whose image another one shares, ascending by degree and falling within
    one, each stored once however many binomials share it; ``pairs`` holds
    (i, j) for each binomial x^monomials[i] - x^monomials[j], in ascending
    order: degree by degree, each monomial walked downward against the
    later members of its fiber (the monomials of its degree with its image).
    """

    map: MonomialMap
    degree_bound: int
    monomials: tuple[tuple[int, ...], ...] = field(init=False, repr=False,
                                                   compare=False)
    pairs: tuple[tuple[int, int], ...] = field(init=False, repr=False,
                                               compare=False)

    def __post_init__(self):
        if self.degree_bound < 1:
            raise ValueError("degree bound must be at least 1")
        weights = _image_weights(self.map, self.degree_bound)
        k = len(weights)
        monomials, pairs = [], []
        level = [((), 0)]  # (multiset, image) of one degree
        for _ in range(self.degree_bound):
            level = [(combo + (i,), image + weights[i])
                     for combo, image in level
                     for i in range(combo[-1] if combo else 0, k)]
            shared = Counter([image for _, image in level])
            kept = [(combo, image) for combo, image in level
                    if shared[image] > 1]
            a = len(monomials) + len(kept)
            later: dict[int, list[tuple[int, int]]] = {}
            for combo, image in reversed(kept):
                a -= 1
                support = sum({1 << i for i in combo})
                members = later.setdefault(image, [])
                pairs += [(a, b) for b, other in members if not support & other]
                members.append((a, support))
            for combo, _ in kept:
                expo = [0] * k
                for i in combo:
                    expo[i] += 1
                monomials.append(tuple(expo))
        object.__setattr__(self, "monomials", tuple(monomials))
        object.__setattr__(self, "pairs", tuple(pairs))

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
    """All binomial relations xi^nu - xi^mu of the map, degree-balanced, up
    to the degree bound: the ``BinomialIdeal`` of the map and the bound."""
    return BinomialIdeal(m, degree_bound)


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
