"""Exact-arithmetic engine for tropical cluster X-dynamics: seed mutation,
signed tropical transport, sign stability detection, realizable-sign
enumeration, presentation matrices, stretch factors, and cone reductions.

Every command starts in a fresh process, so this namespace imports no
submodule up front: each public name, and each submodule, is imported on
first use (PEP 562) and then kept here.
"""

import importlib

# Each submodule the namespace offers, with the names it re-exports.
_EXPORTS = {
    "errors": (
        "DimensionMismatchError", "FormatError", "FrozenIndexError",
        "LoopRequiredError", "MagnitudeError", "NonStrictSignError",
        "NotRealizableError", "RadicandMismatchError", "SignCoherenceError",
        "SignstabError", "SplitViolationError", "UsageError",
    ),
    "scalars": (
        "QuadExt", "Rational", "Scalar", "format_scalar", "parse_scalar",
        "pos_part", "scalar_sign",
    ),
    "seeds": (
        "Flip", "MutationPath", "Permute", "Seed", "Triangulation",
        "apply_perm", "b_from_triangulation", "c_matrix", "cg_matrices",
        "g_matrix", "is_loop", "mutate_b", "seeds_along",
    ),
    "matrices": (),
    "tropical": (
        "SignSeq", "TropPoint", "edge_matrix", "is_strict", "parse_sign_str",
        "presentation_matrix_at_point", "presentation_matrix_for_sign",
        "sign_of_path", "sign_str", "transport", "trop_mutate",
    ),
    "stability": (
        "IntPoly", "OrbitReport", "StretchReport", "canonical_cone_membership",
        "char_poly", "detect_stable_sign", "detect_weak_stable_sign",
        "enumerate_realizable_signs",
        "enumerate_realizable_signs_with_witnesses", "iterate_orbit",
        "realizable_branches", "sign_geq", "spectral_radius", "stretch_factor",
        "verify_eigenpair",
    ),
    "feasibility": (),
    "reduction": (
        "BlockReport", "Cone", "HereditaryReport", "block_structure_check",
        "cone_sign_caveat", "edge_compatibility", "freeze",
        "generator_coordinate_trace", "hereditary_check",
        "permutation_factor_check", "project_point", "reduced_subsequence",
    ),
    "traintrack": (
        "DTCoords", "TrainTrack", "annulus_solve", "in_triangle_regime",
        "pants_boundary_sums", "pants_measures", "validate_measure",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_HOME]
__version__ = "0.1.0"


def __getattr__(name):
    # An unknown name raises AttributeError, so `from signstab import io`
    # falls through to importing the submodule.
    if name in _EXPORTS:
        value = importlib.import_module(f"{__name__}.{name}")
    elif name in _HOME:
        module = importlib.import_module(f"{__name__}.{_HOME[name]}")
        value = getattr(module, name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
