"""Rotationally invariant special Lagrangian extensions of planar arcs.

A real-analytic arc in the distinguished complex line of C^(n+1) admits
exactly n local extensions to an SO(n)-invariant special Lagrangian
submanifold. This package constructs those extensions as truncated power
series in the orbit radius, to any order, and verifies them against the
defining equations, closed-form families, and the symplectic structure.
"""

from .arcs import (
    ArcSpec,
    Frame,
    NormalizedArc,
    existence_gate,
    graph_arc,
    load_arc,
    normalize_at,
    rotation_number,
    unit_circle_arc,
)
from .chartio import (
    deserialize_chart,
    dump_chart,
    export_mesh,
    load_chart,
    serialize_chart,
)
from .engine import (
    Chart,
    RadiusEstimate,
    ReducedChartMap,
    build_atlas,
    compute_R,
    compute_f1,
    estimate_radius,
    extend_arc,
    extend_series,
    gt_hypotheses_check,
    linearity_probe,
    overlap_agreement,
    pde_lhs_value,
    pde_residual,
)
from .ambient import (
    AmbientPoint,
    chart_frame,
    chart_point,
    chart_tangent_plane,
    group_motion,
    lambda_star,
    momentum_so_n,
    phi_map,
    plane_P,
    planes_through_line,
    slag_residual,
    sphere_points,
)
from .oracles import (
    OracleResult,
    branch_separation,
    chart_residual_report,
    harvey_lawson_sample,
    plane_oracle,
    unit_circle_residual,
)
from .precision import FLOAT64, from_env, mp_context
from .series import SigmaExpansion, TaylorPoly, poly_from

__version__ = "0.1.0"

__all__ = [
    "AmbientPoint",
    "ArcSpec",
    "Chart",
    "FLOAT64",
    "Frame",
    "NormalizedArc",
    "OracleResult",
    "RadiusEstimate",
    "ReducedChartMap",
    "SigmaExpansion",
    "TaylorPoly",
    "branch_separation",
    "build_atlas",
    "chart_frame",
    "chart_point",
    "chart_residual_report",
    "chart_tangent_plane",
    "compute_R",
    "compute_f1",
    "deserialize_chart",
    "dump_chart",
    "estimate_radius",
    "existence_gate",
    "export_mesh",
    "extend_arc",
    "extend_series",
    "from_env",
    "graph_arc",
    "group_motion",
    "gt_hypotheses_check",
    "harvey_lawson_sample",
    "lambda_star",
    "linearity_probe",
    "load_arc",
    "load_chart",
    "momentum_so_n",
    "mp_context",
    "normalize_at",
    "overlap_agreement",
    "pde_lhs_value",
    "pde_residual",
    "phi_map",
    "plane_P",
    "plane_oracle",
    "planes_through_line",
    "poly_from",
    "rotation_number",
    "serialize_chart",
    "slag_residual",
    "sphere_points",
    "unit_circle_arc",
    "unit_circle_residual",
]
