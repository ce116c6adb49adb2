"""Exact-arithmetic engine for tropical cluster X-dynamics: seed mutation,
signed tropical transport, sign stability detection, realizable-sign
enumeration, presentation matrices, stretch factors, and cone reductions.
"""

from .errors import (
    DimensionMismatchError,
    FormatError,
    FrozenIndexError,
    LoopRequiredError,
    MagnitudeError,
    NonStrictSignError,
    NotRealizableError,
    RadicandMismatchError,
    SignCoherenceError,
    SignstabError,
    SplitViolationError,
    UsageError,
)
from .scalars import (
    QuadExt,
    Rational,
    Scalar,
    format_scalar,
    parse_scalar,
    pos_part,
    quad_sqrt,
    scalar_sign,
)
from .seeds import (
    Flip,
    MutationPath,
    Permute,
    Seed,
    Triangulation,
    apply_perm,
    b_from_triangulation,
    c_matrix,
    cg_matrices,
    g_matrix,
    is_loop,
    mutate_b,
    seeds_along,
)
from .tropical import (
    SignSeq,
    TropPoint,
    edge_matrix,
    is_strict,
    parse_sign_str,
    presentation_matrix_at_point,
    presentation_matrix_for_sign,
    sign_of_path,
    sign_str,
    transport,
    trop_mutate,
)
from .stability import (
    IntPoly,
    OrbitReport,
    StretchReport,
    canonical_cone_membership,
    char_poly,
    detect_stable_sign,
    detect_weak_stable_sign,
    enumerate_realizable_signs,
    enumerate_realizable_signs_with_witnesses,
    iterate_orbit,
    realizable_branches,
    sign_geq,
    spectral_radius,
    stretch_factor,
    verify_eigenpair,
)
from .reduction import (
    BlockReport,
    Cone,
    HereditaryReport,
    block_structure_check,
    cone_sign_caveat,
    edge_compatibility,
    freeze,
    generator_coordinate_trace,
    hereditary_check,
    permutation_factor_check,
    project_point,
    reduced_subsequence,
)
from .traintrack import (
    DTCoords,
    TrainTrack,
    annulus_solve,
    in_triangle_regime,
    pants_boundary_sums,
    pants_measures,
    validate_measure,
)

__version__ = "0.1.0"
