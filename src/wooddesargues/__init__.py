"""Exact plane-geometry engine for the ten-point Wood-Desargues configuration."""

from .kernel import INFINITY, Circle, Line, Point, Similarity, point
from .configuration import (
    ConfigurationSeed,
    DegenerateSeedError,
    WoodDesarguesConfiguration,
    build_configuration,
)
from .verifier import (
    CheckResult,
    VerificationReport,
    check_names,
    float_cross_residuals,
    verify_all,
)
from .fuzz import FuzzPolicy, run_campaign

__version__ = "0.1.0"

__all__ = [
    "INFINITY", "Circle", "Line", "Point", "Similarity", "point",
    "ConfigurationSeed", "DegenerateSeedError", "WoodDesarguesConfiguration",
    "build_configuration",
    "CheckResult", "VerificationReport", "check_names", "float_cross_residuals", "verify_all",
    "FuzzPolicy", "run_campaign",
]
