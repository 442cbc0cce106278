"""orbitpoly: do convex hulls of matrix-group orbits form a Minkowski semigroup?

The library builds finite orthogonal groups from generators, computes orbit
polytopes, their support functions and Minkowski sums, the polyhedral cones
attached to orbit points, and chambers of reflection groups; it decides the
semigroup property of orbit hulls through four cross-checked criteria.  A
catalog of sampled compact-group models covers the continuous side with
numeric polar-structure checks.
"""

from .numerics import DEFAULT_TOL, Tolerance, inner, matrix_rank, orthogonal_matrix
from .group import (
    FiniteGroup,
    Orbit,
    Reflection,
    RootData,
    close_generators,
    detect_reflection,
    find_regular,
    group_from_json_dict,
    group_reflections,
    is_regular,
    orbit,
    root_data,
    stabilizer,
)
from .polytope import (
    Polytope,
    export_off,
    hull,
    minkowski_sum,
    polytope_equal,
    support,
)
from .cones import (
    PolyhedralCone,
    cone_contains,
    cone_equal,
    cone_from_halfspaces,
    dual_cone,
    in_orbit_cone,
    orbit_cone,
    orbit_hull,
    voronoi_consistency,
)
from .coxeter import (
    ChamberData,
    SPReport,
    chamber,
    chamber_representative,
    criterion_local_cone,
    criterion_peak,
    hull_from_dual_cones,
    is_reflection_generated,
    sp_check_pair,
    sp_equivalence_report,
)
from .polar import GroupModel, get_model, run_battery
from . import catalog, errors

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TOL",
    "Tolerance",
    "inner",
    "matrix_rank",
    "orthogonal_matrix",
    "FiniteGroup",
    "Orbit",
    "Reflection",
    "RootData",
    "close_generators",
    "detect_reflection",
    "find_regular",
    "group_from_json_dict",
    "group_reflections",
    "is_regular",
    "orbit",
    "root_data",
    "stabilizer",
    "Polytope",
    "export_off",
    "hull",
    "minkowski_sum",
    "polytope_equal",
    "support",
    "PolyhedralCone",
    "cone_contains",
    "cone_equal",
    "cone_from_halfspaces",
    "dual_cone",
    "in_orbit_cone",
    "orbit_cone",
    "orbit_hull",
    "voronoi_consistency",
    "ChamberData",
    "SPReport",
    "chamber",
    "chamber_representative",
    "criterion_local_cone",
    "criterion_peak",
    "hull_from_dual_cones",
    "is_reflection_generated",
    "sp_check_pair",
    "sp_equivalence_report",
    "GroupModel",
    "get_model",
    "run_battery",
    "catalog",
    "errors",
]
