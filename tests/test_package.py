"""The package surface: lazy re-exports, what each entry point imports, the
version.

The import checks run in a fresh interpreter and read ``sys.modules`` (or
``-X importtime``), so they are deterministic and involve no timing.
"""

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import henonlocus
from henonlocus import escape

SRC = pathlib.Path(henonlocus.__file__).resolve().parents[1]

# Every exported name, by defining module.
EXPORTS = {
    "cli": ["RunConfig", "config_from_text"],
    "dynamics": ["DomainParams", "HenonMap", "Point", "Polynomial", "domain_params"],
    "errors": [
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
    ],
    "escape": [
        "EscapeValue",
        "GreenValue",
        "evaluator",
        "green",
        "phi_minus",
        "phi_plus",
        "phi_with_gradient",
        "tail_bound",
        "truncation_K",
    ],
    "gridfield": [
        "GridField",
        "green_grid",
        "grid_sidecar",
        "grid_to_csv",
        "grid_to_pgm",
        "worker_count",
    ],
    "holonomy": [
        "PsiPair",
        "RootOfUnityWitness",
        "eta_constant",
        "monodromy_orbit",
        "psi_pair",
        "same_leaf_plus",
    ],
    "locus": [
        "BiholomorphismReport",
        "CurveTrace",
        "RadiusReport",
        "TangencyValue",
        "TraceSample",
        "contact_order",
        "locate_on_locus",
        "tangency_value",
        "trace_primary_component",
        "trace_to_csv",
        "trace_to_json",
        "tube_radius",
        "verify_biholomorphism",
    ],
    "manifolds": [
        "LocalManifold",
        "gradient_index",
        "gradient_winding",
        "local_stable_graph",
        "local_unstable_graph",
        "manifold_to_json",
        "point_from_uv",
    ],
    "rigidity": [
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
    ],
    "series": ["MultiPoly", "TruncSeries"],
}


def _run_python(*args):
    """stdout and stderr of a fresh interpreter that finds the package."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        check=True,
        timeout=120,
    )
    return done.stdout, done.stderr


_LOADED = """
import json, sys
{body}
print(json.dumps(sorted(sys.modules)))
"""


def _loaded_after(body):
    out, _ = _run_python("-c", _LOADED.format(body=body))
    return set(json.loads(out.splitlines()[-1]))


def _package_modules(loaded):
    return {name for name in loaded if name.split(".")[0] == "henonlocus"}


def test_importing_the_package_loads_no_submodule():
    loaded = _loaded_after("import henonlocus")
    assert _package_modules(loaded) == {"henonlocus"}
    assert "numpy" not in loaded


def test_the_rigidity_pipeline_loads_only_rigidity_and_series():
    loaded = _loaded_after(
        "import henonlocus as hl\n"
        "hl.defect_coefficients_text(13)\n"
        "for case in ('beta_ratio', 'a2_one', 'a2_minus_one', 'c1_zero'):\n"
        "    assert hl.verify_table_case(case).ok\n"
        "assert hl.check_partial_solution().ok"
    )
    assert _package_modules(loaded) == {
        "henonlocus",
        "henonlocus.errors",
        "henonlocus.series",
        "henonlocus.rigidity",
    }
    assert "numpy" not in loaded
    assert "multiprocessing" not in loaded


def test_green_tiles_load_nothing_past_gridfield():
    # Forked grid workers exit after each tile, so a module the batch kernel
    # loaded lazily would be imported again by every worker of every tile
    grid = (
        "from henonlocus.dynamics import HenonMap, Polynomial\n"
        "from henonlocus.gridfield import green_grid\n"
        "henon = HenonMap(Polynomial([-0.6, 0, 1]), 0.03)\n"
        "henon.domain_params(), henon.trap\n"
    )
    tiles = (
        "for kind in ('green-plus', 'green-minus'):\n"
        "    green_grid(henon, kind, (-2, 2), (-2, 2), 8, 8, workers=1)\n"
    )
    assert _loaded_after(grid + tiles) == _loaded_after(grid)


def _imported_by(*argv):
    """Top-level names of every module `python -X importtime` reports."""
    _, err = _run_python("-X", "importtime", "-m", "henonlocus", *argv)
    rows = [line.rpartition("|")[2].strip() for line in err.splitlines()]
    return {name.split(".")[0] for name in rows if name}


@pytest.mark.parametrize(
    "argv",
    [
        ["rigidity"],
        ["--help"],
        # green-grid forks its render processes itself, without multiprocessing
        ["green-grid", "--nx", "4", "--ny", "4", "--workers", "2"],
    ],
)
def test_the_cli_loads_numpy_only_where_it_is_used(argv):
    imported = _imported_by(*argv)
    assert "henonlocus" in imported
    assert ("numpy" in imported) is (argv[0] == "green-grid")
    assert "multiprocessing" not in imported


def test_exports_resolve_to_their_defining_modules():
    assert henonlocus.__all__ == sorted(n for names in EXPORTS.values() for n in names)
    for module, names in EXPORTS.items():
        defining = importlib.import_module(f"henonlocus.{module}")
        assert getattr(henonlocus, module) is defining
        for name in names:
            assert getattr(henonlocus, name) is getattr(defining, name), name
    assert set(henonlocus.__all__) | set(EXPORTS) <= set(dir(henonlocus))
    namespace = {}
    exec("from henonlocus import *", namespace)
    assert set(henonlocus.__all__) <= set(namespace)


def test_unknown_name_raises_attribute_error_naming_the_module():
    with pytest.raises(AttributeError, match="module 'henonlocus' has no attribute 'nonesuch'"):
        henonlocus.nonesuch
    assert not hasattr(henonlocus, "NonInvertibleLinearTerm")


def test_re_exports_are_not_snapshots(monkeypatch):
    # A name is looked up in its defining module on every access: a rebinding
    # there shows through the package, and a rebinding of the package name
    # itself wins until it is undone.
    original = escape.green

    def patched(*args, **kwargs):
        return original(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(escape, "green", patched)
        assert henonlocus.green is patched
    assert henonlocus.green is original
    with monkeypatch.context() as patch:
        patch.setattr(henonlocus, "green", patched)
        assert henonlocus.green is patched
        assert escape.green is original
    assert henonlocus.green is original
    # monkeypatch's undo writes the original back into the package namespace;
    # drop it, so that later rebindings of escape.green show through again
    vars(henonlocus).pop("green", None)


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(SRC.parent / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert henonlocus.__version__ == project["version"]
