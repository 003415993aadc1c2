"""Shared randomness helpers and hypothesis profiles for the test suites.

Property tests run without a per-example deadline: exact arithmetic on
large integers has no fixed cost.  GitHub Actions sets ``CI``; there the
``ci`` profile also derandomizes, so a CI run explores the same examples
every time, while local runs keep random exploration.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction

import pytest
from hypothesis import settings

from qtoric import ProductState
from qtoric.rationals import ComplexRational

settings.register_profile("default", deadline=None)
settings.register_profile("ci", deadline=None, derandomize=True)
settings.load_profile("ci" if "CI" in os.environ else "default")


@pytest.fixture
def rng():
    return random.Random(510510)


def random_rational(rng, lo=-5, hi=5, max_den=3) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def random_complex_rational(rng, nonzero=True) -> ComplexRational:
    while True:
        value = ComplexRational(random_rational(rng), random_rational(rng))
        if value or not nonzero:
            return value


def random_product_state(rng, shape) -> ProductState:
    """Exact product state with every local amplitude nonzero."""
    return ProductState(tuple(
        tuple(random_complex_rational(rng) for _ in range(n)) for n in shape))
