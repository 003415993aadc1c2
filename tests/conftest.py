"""Shared randomness helpers, fan constructors and the fan check, and hypothesis
profiles for the test suites.

Property tests run without a per-example deadline: exact arithmetic on
large integers has no fixed cost.  GitHub Actions sets ``CI``; there the
``ci`` profile also derandomizes, so a CI run explores the same examples
every time, while local runs keep random exploration.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import settings

from qtoric import Cone, ProductState, dual_cone, faces, make_fan, pos_hull
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


def face_cone(face) -> Cone:
    """A face of a cone, as the cone of its tight generators."""
    return Cone(face.of.dim, tuple(face.of.generators[i] for i in face.indices))


def fan_from_maximal(maximal):
    """The cones of ``maximal`` and all their faces, as a fan of the first
    cone's dimension; that they form a fan is checked by ``validate_fan``."""
    cones = [face_cone(f) for c in maximal for f in faces(c)]
    return make_fan(cones, cones[0].dim)


def intersect_cones(a, b):
    """a intersect b, as the dual of the hull of both duals' generators."""
    duals = dual_cone(a).generators + dual_cone(b).generators
    return dual_cone(pos_hull(duals, a.dim))


def validate_fan(fan) -> None:
    """Check fan invariants exactly; raises ValueError on violation.

    Every face of every cone must be in the fan, and the intersection of any
    two cones must be a face of each.  Pairwise, so for small fans only.
    """
    present = {c.generators for c in fan.cones}
    face_sets = {}
    for c in fan.cones:
        fcs = {face_cone(f).generators for f in faces(c)}
        face_sets[c.generators] = fcs
        missing = fcs - present
        if missing:
            raise ValueError(f"fan is not closed under faces: missing {missing}")
    for a, b in combinations(fan.cones, 2):
        inter = intersect_cones(a, b)
        if inter.generators not in face_sets[a.generators] or \
                inter.generators not in face_sets[b.generators]:
            raise ValueError(
                f"intersection of {a.generators} and {b.generators} "
                "is not a common face")
