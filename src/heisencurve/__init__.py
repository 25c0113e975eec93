"""Intersection curves of level-set surfaces in the first Heisenberg group.

The package computes, at desk scale, the intersection of two surfaces given
as level sets with independent horizontal normals: it builds the intrinsic
graph of one surface over a vertical subgroup, follows the characteristic
flow of the graph function, traces the zero set of the other surface along a
monotone family of characteristics, and lifts the result back to the group.
Every analytic formula involved ships with a numeric cross-check.
"""

from .characteristics import (
    CharField,
    TaylorBasePoint,
    chain_rule_check,
    chain_rule_rhs,
    characteristic,
    system_residual,
    directional_derivative_check,
    taylor_remainder,
)
from .errors import (
    ConfigError,
    DependentNormals,
    GridMismatch,
    HeisencurveError,
    MarginViolated,
    MeanBisectionFailure,
    MonotonicityViolated,
    NoSignChange,
    NotCommonZero,
    NoZeroFound,
    NotInVerticalSubgroup,
    OrderingViolation,
    WindowExit,
)
from .flowtrace import (
    FlowFamily,
    PathSample,
    Rect,
    TraceParams,
    TraceResult,
    build_family,
    coverage_gap,
    extremal_solutions,
    funnel_section,
    integrate_through,
    level_trace,
    monotone_root,
    pointwise_max,
    pointwise_min,
    solution_residual,
)
from .hgroup import (
    ORIGIN,
    Frame,
    Point,
    VerticalCoords,
    coords_N,
    dilate,
    dist,
    embed_N,
    hnorm,
    horizontal_derivative,
    inv,
    make_frame,
    mul,
    project_H,
    project_N,
)
from .hsurface import (
    GraphPatch,
    PolySurface,
    SurfaceHandle,
    horiz_grad_poly,
    y_derivatives,
)
from .intersect import (
    ConeParams,
    Curve,
    IntersectionProblem,
    brute_force_zero_cloud,
    choose_frame,
    cone_contains,
    cone_property_check,
    cone_width_for,
    curve_cloud_agreement,
    gradient_margin,
    graph_field,
    intersect_surfaces,
    pair_lipschitz_bound,
    polyline_hausdorff,
)

__version__ = "0.1.0"
