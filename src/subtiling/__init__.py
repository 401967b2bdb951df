"""Exact-arithmetic coincidence and pure-discreteness checks for
one-dimensional substitution tilings."""

__version__ = "0.1.0"

from .algebraic import FieldElem, NumberField, char_poly, is_pisot, \
    perron_factor
from .coincidence import (
    BoundedVerdict,
    CoincidenceWitness,
    geometric_strong,
    prefix_simultaneous,
    prefix_strong,
    simultaneous,
    verify_witness,
)
from .lattices import (
    AbelianGroup,
    ZModule,
    differences_in_return_module,
    eventual_membership,
    height_group,
    quotient,
)
from .spectrum import (
    SpectralHalf,
    balanced_pairs,
    overlap_coincidence,
    spectral_verdict,
)
from .suspension import (
    Patch,
    PointSets,
    SuspensionSystem,
    control_points,
    generate_patch,
    is_admissible,
    left_endpoint_points,
    prototile_lengths,
    reference_point_sets,
    return_vectors,
)
from .words import (
    Substitution,
    abelianization,
    fixed_point_seed,
    is_primitive,
    substitution_matrix,
)

__all__ = [
    "AbelianGroup", "BoundedVerdict", "CoincidenceWitness", "FieldElem",
    "NumberField", "Patch", "PointSets", "SpectralHalf",
    "Substitution", "SuspensionSystem", "ZModule",
    "abelianization", "balanced_pairs", "char_poly", "control_points",
    "differences_in_return_module", "eventual_membership",
    "fixed_point_seed", "generate_patch", "geometric_strong", "height_group",
    "is_admissible", "is_pisot", "is_primitive",
    "left_endpoint_points", "overlap_coincidence", "perron_factor",
    "prefix_simultaneous", "prefix_strong", "prototile_lengths", "quotient",
    "reference_point_sets",
    "return_vectors", "simultaneous", "spectral_verdict",
    "substitution_matrix", "verify_witness",
]
