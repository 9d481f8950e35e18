"""Escape coordinates, critical locus, and chart transitions for complex
Henon maps f(x, y) = (p(x) - a y, x) near the small-Jacobian regime.

Importing the package loads none of its modules.  Each exported name is
looked up in its defining module on first use and on every use after it
(PEP 562), so ``henonlocus.rigidity_defect`` loads only ``rigidity`` and
what it imports, and numpy loads only with the grid and manifold APIs.
"""

from importlib import import_module

__version__ = "0.1.0"

# exported name -> defining submodule
_EXPORTS = {
    name: module
    for module, names in {
        "cli": ("RunConfig", "config_from_text"),
        "dynamics": ("DomainParams", "HenonMap", "Point", "Polynomial", "domain_params"),
        "errors": (
            "CertificateViolation",
            "ConfigError",
            "DegenerateCriticalPoint",
            "ExponentOverflow",
            "GradientVanishesOnLoop",
            "HenonLocusError",
            "NotInEscapeRegion",
            "NotUnitSeries",
            "OrderMismatch",
            "SeriesInconsistency",
        ),
        "escape": (
            "EscapeValue",
            "GreenValue",
            "green",
            "phi_minus",
            "phi_plus",
            "phi_with_gradient",
            "tail_bound",
            "truncation_K",
        ),
        "gridfield": (
            "GridField",
            "green_grid",
            "grid_sidecar",
            "grid_to_csv",
            "grid_to_pgm",
            "worker_count",
        ),
        "holonomy": (
            "PsiPair",
            "RootOfUnityWitness",
            "eta_constant",
            "monodromy_orbit",
            "psi_pair",
            "same_leaf_plus",
        ),
        "locus": (
            "BiholomorphismReport",
            "CurveTrace",
            "RadiusReport",
            "TangencyValue",
            "TraceSample",
            "classify_component",
            "contact_order",
            "locate_on_locus",
            "tangency_value",
            "trace_primary_component",
            "trace_to_csv",
            "trace_to_json",
            "tube_radius",
            "verify_biholomorphism",
        ),
        "manifolds": (
            "LocalManifold",
            "boundary_index",
            "gradient_index",
            "gradient_winding",
            "local_stable_graph",
            "local_unstable_graph",
            "manifold_to_json",
            "point_from_uv",
        ),
        "rigidity": (
            "CaseReport",
            "ChartSeries",
            "PartialSolutionReport",
            "chart_series",
            "check_partial_solution",
            "defect_coefficients_text",
            "locus_series",
            "phi_series",
            "quadratic_q",
            "rigidity_defect",
            "sigma_series",
            "verify_table_case",
        ),
        "series": ("MultiPoly", "TruncSeries"),
    }.items()
    for name in names
}
_SUBMODULES = frozenset(_EXPORTS.values())

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    # No caching: a module attribute rebound after import (a test's patch, a
    # tracer's wrapper) is what the package name resolves to.
    module = _EXPORTS.get(name)
    if module is not None:
        return getattr(import_module(f".{module}", __name__), name)
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
