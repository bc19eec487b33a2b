"""toricgit: exact toric GIT quotients of polarized toric varieties,
equivariant reflexive sheaves as filtration families, slope stability,
and numerical reconstruction of the stability-preserving quotient class."""

from .build import (
    BundleSpec,
    alpha_surface_formula,
    hirzebruch,
    product,
    projective_space,
    projectivized_bundle,
)
from .git import (
    GitSetup,
    descends,
    in_image,
    pullback,
    pullback_functor,
    pushforward,
    restrict_to_stable,
)
from .klyachko import (
    FiltrationSheaf,
    Subspace,
    det_indices,
    dimension_jumps,
    direct_sum,
    first_chern,
    hom_space,
    is_morphism,
    line_bundle,
    sections_on_chart,
    structure_sheaf,
    subsheaf,
)
from .lattice import (
    QuotientLattice,
    Sublattice,
    primitive_content,
    quotient,
    saturate,
    saturation_index,
)
from .minkowski import (
    AmpleClassNumeric,
    MinkowskiReport,
    ample_class_alpha,
    compatible_subgroups,
    converse_falsifier,
    curve_slope_ratio,
    is_weighted_projective_quotient,
    minkowski_condition,
    quotient_degrees,
    solve_minkowski,
    verify_slope_identity,
)
from .polytope import DivisorClass, Face, HPolytope, same_normal_fan
from .stability import StabilityVerdict, candidate_subspaces, check_stability, slope

__version__ = "0.1.0"

__all__ = [
    "AmpleClassNumeric", "BundleSpec", "DivisorClass", "Face", "FiltrationSheaf",
    "GitSetup", "HPolytope", "MinkowskiReport", "QuotientLattice", "StabilityVerdict",
    "Sublattice", "Subspace", "alpha_surface_formula", "ample_class_alpha",
    "candidate_subspaces", "check_stability", "compatible_subgroups",
    "converse_falsifier", "curve_slope_ratio", "descends", "det_indices",
    "dimension_jumps", "direct_sum", "first_chern", "hirzebruch", "hom_space",
    "in_image", "is_morphism", "is_weighted_projective_quotient", "line_bundle",
    "minkowski_condition", "primitive_content", "product", "projective_space",
    "projectivized_bundle", "pullback", "pullback_functor", "pushforward", "quotient",
    "quotient_degrees", "restrict_to_stable", "same_normal_fan", "saturate",
    "saturation_index", "sections_on_chart", "slope", "solve_minkowski",
    "structure_sheaf", "subsheaf", "verify_slope_identity",
]
