"""Escape coordinates, critical locus, and chart transitions for complex
Henon maps f(x, y) = (p(x) - a y, x) near the small-Jacobian regime."""

from .cli import RunConfig, config_from_text, config_to_text
from .dynamics import DomainParams, HenonMap, Point, Polynomial, domain_params
from .errors import (
    CertificateViolation,
    ConfigError,
    DegenerateCriticalPoint,
    ExponentOverflow,
    GradientVanishesOnLoop,
    HenonLocusError,
    NonInvertibleLinearTerm,
    NonzeroConstantInner,
    NotInEscapeRegion,
    NotUnitSeries,
    OrderMismatch,
    SeriesInconsistency,
)
from .escape import (
    EscapeValue,
    GreenValue,
    green,
    phi_minus,
    phi_plus,
    phi_with_gradient,
    tail_bound,
    truncation_K,
)
from .gridfield import (
    GridField,
    green_grid,
    grid_sidecar,
    grid_to_csv,
    grid_to_pgm,
    worker_count,
)
from .holonomy import (
    PsiPair,
    RootOfUnityWitness,
    eta_constant,
    monodromy_orbit,
    psi_pair,
    same_leaf_minus,
    same_leaf_plus,
)
from .locus import (
    BiholomorphismReport,
    CurveTrace,
    RadiusReport,
    TangencyValue,
    TangentAtInfinity,
    TraceSample,
    classify_component,
    contact_order,
    locate_on_locus,
    tangency_value,
    tangent_at_infinity,
    to_u_chart,
    trace_primary_component,
    trace_to_csv,
    trace_to_json,
    tube_radius,
    verify_biholomorphism,
)
from .manifolds import (
    LocalManifold,
    UVPoint,
    boundary_index,
    gradient_index,
    gradient_winding,
    graph_point,
    local_stable_graph,
    local_unstable_graph,
    manifold_to_json,
    point_from_uv,
    uv_coords,
)
from .rigidity import (
    CaseReport,
    ChartSeries,
    PartialSolutionReport,
    chart_series,
    check_partial_solution,
    defect_coefficients_text,
    locus_series,
    phi_series,
    quadratic_q,
    rigidity_defect,
    sigma_series,
    verify_table_case,
)
from .series import MultiPoly, TruncSeries

__version__ = "0.1.0"
