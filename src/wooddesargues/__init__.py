"""Exact plane-geometry engine for the ten-point Wood-Desargues configuration."""

from .kernel import (
    INFINITY,
    Circle,
    Line,
    Point,
    Scalar,
    Similarity,
    antipode,
    circle_through,
    incident,
    is_collinear,
    is_concyclic,
    line_through,
    meet,
    midpoint,
    orthocentre,
    parallel_through,
    perpendicular_at,
    perpendicular_bisector,
    point,
    point_on_unit_circle,
    second_intersection_of_circles,
    second_intersection_with_line,
    similarity_between,
    tangent_at,
)
from .configuration import (
    ConfigurationSeed,
    DegenerateSeedError,
    PerspectiveRecord,
    WoodDesarguesConfiguration,
    build_configuration,
    derive_figures,
)
from .verifier import (
    CheckResult,
    VerificationReport,
    check_perpendicular_concurrency,
    check_three_circle_collinearity,
    check_names,
    float_cross_residuals,
    verify_all,
)
from .fuzz import FuzzPolicy, Xorshift64Star, run_campaign

__version__ = "0.1.0"

__all__ = [
    "INFINITY", "Circle", "Line", "Point", "Scalar", "Similarity",
    "antipode", "circle_through", "incident", "is_collinear", "is_concyclic",
    "line_through", "meet", "midpoint", "orthocentre", "parallel_through",
    "perpendicular_at", "perpendicular_bisector", "point", "point_on_unit_circle",
    "second_intersection_of_circles", "second_intersection_with_line",
    "similarity_between", "tangent_at",
    "ConfigurationSeed", "DegenerateSeedError", "PerspectiveRecord",
    "WoodDesarguesConfiguration", "build_configuration", "derive_figures",
    "CheckResult", "VerificationReport", "check_perpendicular_concurrency", "check_three_circle_collinearity",
    "check_names", "float_cross_residuals", "verify_all",
    "FuzzPolicy", "Xorshift64Star", "run_campaign",
]
