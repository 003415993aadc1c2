"""Exact toric geometry applied to multipartite quantum states.

Cones, polytopes, fans, Hilbert bases, and binomial toric ideals in exact
integer/rational arithmetic, together with the Segre minor ideal,
separability testing, and the minor-norm concurrence of pure states.
"""

from .geometry import (Cone, Face, Fan, Polytope, dual_cone, faces,
                       fan_product, is_strongly_convex, make_fan, normal_fan,
                       polar, polytope_hull, pos_hull)
from .monoid import MonoidGenerators, hilbert_basis
from .qubit import (Chart, ChartAtlas, atlas_product, chart_atlas,
                    multiqubit_atlas, multiqubit_fan, multiqubit_polytope,
                    parameterization, parameterization_image,
                    projective_space_fan, verify_parameterization)
from .rationals import ComplexRational
from .segre import (MinorSpec, PublishedGenerator, ProductState, PureState,
                    SeparabilityResult, concurrence, is_separable,
                    minor_value, segre_map, segre_minors,
                    three_qubit_generators)
from .toric_ideal import (Binomial, BinomialIdeal, MonomialMap, homogenize,
                          projective_relations, toric_ideal_binomials)

__version__ = "0.1.0"

__all__ = [
    "Binomial", "BinomialIdeal", "Chart", "ChartAtlas", "ComplexRational",
    "Cone", "Face", "Fan", "MinorSpec", "MonoidGenerators", "MonomialMap",
    "PublishedGenerator", "Polytope", "ProductState", "PureState",
    "SeparabilityResult", "atlas_product", "chart_atlas", "concurrence",
    "dual_cone", "faces", "fan_product", "hilbert_basis", "homogenize",
    "is_separable", "is_strongly_convex", "make_fan", "minor_value",
    "multiqubit_atlas", "multiqubit_fan", "multiqubit_polytope", "normal_fan",
    "parameterization", "parameterization_image", "polar", "polytope_hull",
    "pos_hull", "projective_relations", "projective_space_fan", "segre_map",
    "segre_minors", "three_qubit_generators", "toric_ideal_binomials",
    "verify_parameterization",
]
