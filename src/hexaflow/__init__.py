"""Sixth-order curve-straightening flow between parallel lines.

Simulator and verification laboratory for the steepest-descent flow of the
bending-variation energy (half the squared L2 norm of the curvature
derivative) on open planar curves meeting two vertical lines at right
angles with zero-flux contact conditions.
"""
from __future__ import annotations

from .curve import (
    CurveError,
    DegenerateCurveError,
    DiscreteCurve,
    GeometryProfile,
    ResolutionError,
    SpacingError,
    boundary_residuals,
    compute_geometry,
    integrate,
    resample_uniform,
)
from .diagnostics import (
    C0,
    C0_PI3,
    DiagnosticsRecord,
    Snapshot,
    Trajectory,
    decay_window,
    displacement_integral,
    fit_decay_rate,
    make_record,
    small_energy_margin,
    winding_number,
)
from .flow import (
    FlowConfig,
    normal_speed,
    run_ensemble,
    run_flow,
    step,
)
from .verify import (
    CheckReport,
    check_boundary_hierarchy,
    check_dissipation,
    check_k2_identity,
    check_kss_inequality,
    check_length_identity,
    check_psw,
    psw_sample_study,
)
from .cli import ConfigError, InitialSpec, emit, generate_initial, parse_config

__version__ = "0.1.0"

__all__ = [
    "CurveError",
    "DegenerateCurveError",
    "DiscreteCurve",
    "GeometryProfile",
    "ResolutionError",
    "SpacingError",
    "boundary_residuals",
    "compute_geometry",
    "integrate",
    "resample_uniform",
    "C0",
    "C0_PI3",
    "DiagnosticsRecord",
    "decay_window",
    "Snapshot",
    "Trajectory",
    "displacement_integral",
    "fit_decay_rate",
    "make_record",
    "small_energy_margin",
    "winding_number",
    "FlowConfig",
    "normal_speed",
    "run_ensemble",
    "run_flow",
    "step",
    "CheckReport",
    "check_boundary_hierarchy",
    "check_dissipation",
    "check_k2_identity",
    "check_kss_inequality",
    "check_length_identity",
    "check_psw",
    "psw_sample_study",
    "ConfigError",
    "InitialSpec",
    "emit",
    "generate_initial",
    "parse_config",
]
