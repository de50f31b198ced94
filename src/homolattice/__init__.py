"""Surface codes from combinatorial surfaces with open and closed boundaries.

The package models cellulations of compact surfaces whose boundary edges are
typed open or closed, computes their relative F2 homology and CSS code
parameters (n, k, certified d), constructs the boundary-type-swapping dual,
and generates the planar hole architectures whose overhead n/(k d^2)
approaches 1.
"""

from __future__ import annotations

from .arch import (
    FAMILIES,
    ArchReport,
    ArchSpec,
    compare_table,
    evaluate,
    family_formulas,
    gen_diamond_hole,
    gen_mixed_diamond_hole,
    gen_plain_square,
    gen_rotated_square,
    gen_square_hole,
    gen_torus,
    generate,
    overhead,
    report_to_json_dict,
    reports_to_csv,
)
from .code import (
    CssCode,
    DistanceResult,
    Exhausted,
    LogicalBasis,
    build_css,
    distance_bruteforce_oracle,
    distance_x,
    distance_z,
    k_mixed,
    k_uniform,
    logical_basis_boundary_strategy,
    logical_basis_generic,
    logical_count,
    verify_logical_basis,
)
from .dual import DualCorrespondence, check_correspondences, dualize, local_dual_cycle
from .errors import (
    DegeneratePairingError,
    DimensionError,
    HomolatticeError,
    InvalidSurfaceError,
    ModelingError,
    NoLogicalsError,
    OutOfDomainError,
    OverheadError,
    UnsupportedTopologyError,
)
from .f2 import BinaryMatrix, BitVector, in_span, kernel_basis, rank, symplectic_pairing
from .homology import (
    ChainComplex,
    boundary_maps,
    cycle_space_dim,
    h1_dim,
    h1_dim_oracle,
    is_relative_cycle,
    is_trivial_cycle,
)
from .surface import (
    GIRTH3,
    NO_DISTANCE_ONE,
    STRICT_ALL,
    BoundaryClassification,
    Edge,
    Surface,
    ValidationReport,
    Violation,
    canonicalize,
    classify_boundary,
    from_json,
    from_json_dict,
    kappa_no_closed_boundary_edge,
    kappa_no_open_vertex,
    load_surface,
    require_valid,
    save_surface,
    to_json,
    to_json_dict,
    validate,
)
from .svg import render_svg

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # surface
    "Edge",
    "Surface",
    "Violation",
    "ValidationReport",
    "BoundaryClassification",
    "NO_DISTANCE_ONE",
    "GIRTH3",
    "STRICT_ALL",
    "validate",
    "require_valid",
    "classify_boundary",
    "kappa_no_open_vertex",
    "kappa_no_closed_boundary_edge",
    "canonicalize",
    "to_json_dict",
    "from_json_dict",
    "to_json",
    "from_json",
    "save_surface",
    "load_surface",
    # f2
    "BitVector",
    "BinaryMatrix",
    "rank",
    "kernel_basis",
    "in_span",
    "symplectic_pairing",
    # homology
    "ChainComplex",
    "boundary_maps",
    "cycle_space_dim",
    "h1_dim",
    "h1_dim_oracle",
    "is_relative_cycle",
    "is_trivial_cycle",
    # dual
    "DualCorrespondence",
    "local_dual_cycle",
    "dualize",
    "check_correspondences",
    # code
    "CssCode",
    "LogicalBasis",
    "DistanceResult",
    "Exhausted",
    "build_css",
    "logical_count",
    "k_uniform",
    "k_mixed",
    "distance_z",
    "distance_x",
    "distance_bruteforce_oracle",
    "logical_basis_generic",
    "logical_basis_boundary_strategy",
    "verify_logical_basis",
    # arch
    "FAMILIES",
    "ArchSpec",
    "ArchReport",
    "gen_plain_square",
    "gen_rotated_square",
    "gen_torus",
    "gen_square_hole",
    "gen_diamond_hole",
    "gen_mixed_diamond_hole",
    "family_formulas",
    "overhead",
    "generate",
    "evaluate",
    "compare_table",
    "reports_to_csv",
    "report_to_json_dict",
    # svg
    "render_svg",
    # errors
    "HomolatticeError",
    "DimensionError",
    "InvalidSurfaceError",
    "DegeneratePairingError",
    "ModelingError",
    "NoLogicalsError",
    "UnsupportedTopologyError",
    "OutOfDomainError",
    "OverheadError",
]
