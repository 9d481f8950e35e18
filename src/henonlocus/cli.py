"""Command-line front end: configuration, verification suites, data export.

Subcommands: green-grid, critlocus, holonomy, manifold, rigidity, verify.
Options come from per-subcommand defaults, overridden by a key = value
config file (--config), overridden again by explicit flags.  Values in
config files are JSON fragments (quoted strings, numbers, [re, im]
pairs), and list and complex values are read the same way from flags;
unknown keys are rejected.

Every run prints a single strict-JSON report to stdout, and the JSON files
it writes under --out-dir are strict too: no NaN or Infinity tokens
(green-grid takes min/max over finite pixels, null when there are
none, and counts the others in nan_pixels).  Exit codes: 0 when all of the
subcommand's assertions pass, 1 when a dynamical check fails or the library
raises a HenonLocusError, 2 on configuration errors, including arguments
the library rejects with ValueError.
"""

import argparse
import cmath
import json
import math
import os
import random
import re
import sys
from dataclasses import asdict, dataclass

from .dynamics import HenonMap, Point, Polynomial, to_json
from .errors import ConfigError, HenonLocusError

# Each subcommand imports the modules it runs inside its handler, so that a
# run loads only what it uses: numpy comes only with green-grid and manifold,
# and multiprocessing only with green-grid.


class _CheckFailed(Exception):
    """A subcommand assertion failed; the one argument is the partial report,
    a dict."""


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    options: dict


_OPTION_DEFAULTS = {
    "green-grid": {
        "p": "x2",
        "a": 0.0,
        "kind": "green-minus",
        "re_min": -2.0,
        "re_max": 2.0,
        "im_min": -2.0,
        "im_max": 2.0,
        "nx": 64,
        "ny": 64,
        "slice_axis": "y",
        "slice_value": 0.0,
        "workers": None,
        "out_dir": None,
    },
    "critlocus": {
        "p": "x2-1",
        "a": 0.01,
        "c": 0.0,
        "x_min": 10.0,
        "x_max": 1e4,
        "step": 0.1,
        "out_dir": None,
    },
    "holonomy": {
        "p": "x2-1",
        "a": 0.01,
        "c": 0.0,
        "x": 4.2,
        "n": 1,
    },
    "manifold": {
        "p": "x2-1",
        "a": 0.005,
        "z": "1.6180339887498949",
        "side": "stable",
        "history": None,
        "mesh": 32,
        "iterations": None,
        "loop_radius": 0.4,
        "out_dir": None,
    },
    "rigidity": {
        "case": None,
        "golden": None,
        "partial": None,
        "defect_order": None,
        "out_dir": None,
    },
    "verify": {
        "p": "x2",
        "a": 0.0,
        "suite": "core",
        "samples": 50,
        "tol": 1e-9,
        "seed": 20240817,
    },
}
_FLAG_OPTIONS = {"golden", "partial"}


# ---------------------------------------------------------------------------
# configuration


def config_from_text(text: str, subcommand: str | None = None) -> RunConfig:
    """Parse key = value lines (JSON values); rejects unknown keys."""
    sub = subcommand
    opts = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, rhs = line.partition("=")
        if not sep:
            raise ConfigError(f"config line {lineno}: expected 'key = value'")
        key = key.strip()
        try:
            value = json.loads(rhs.strip())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config line {lineno}: bad value for {key!r}: {exc}")
        if key == "subcommand":
            sub = value
        else:
            opts[key] = value
    if sub is None:
        raise ConfigError("config does not name a subcommand")
    defaults = _OPTION_DEFAULTS.get(sub)
    if defaults is None:
        raise ConfigError(f"unknown subcommand {sub!r}")
    unknown = sorted(set(opts) - set(defaults))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    return RunConfig(sub, opts)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    top = _Parser(prog="henonlocus", description=__doc__)
    subs = top.add_subparsers(dest="subcommand")
    for name, defaults in _OPTION_DEFAULTS.items():
        sp = subs.add_parser(name)
        sp.add_argument("--config", default=None)
        for key in sorted(defaults):
            flag = "--" + key.replace("_", "-")
            if key in _FLAG_OPTIONS:
                sp.add_argument(flag, dest=key, action="store_const", const=True, default=None)
            else:
                sp.add_argument(flag, dest=key, default=None)
    return top


def _merged_options(args, name: str) -> dict:
    defaults = _OPTION_DEFAULTS[name]
    file_opts = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        file_opts = config_from_text(text, name).options
    merged = {}
    for key, default in defaults.items():
        cli_value = getattr(args, key)
        if cli_value is not None:
            merged[key] = cli_value
        elif key in file_opts:
            merged[key] = file_opts[key]
        else:
            merged[key] = default
    return merged


# ---------------------------------------------------------------------------
# value coercion


def _as_float(value, key):
    try:
        return float(str(value))  # as the flag's text: a config file's true is refused
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {value!r}")


def _as_int(value, key):
    try:
        return int(str(value))  # as the flag's text: 3.9, 64.0 and true are refused
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {value!r}")


def _as_list(value, key):
    """A JSON list, given as a config value or as a command-line string."""
    if isinstance(value, str):
        try:
            value = json.loads(value)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{key} must be a JSON list: {exc}")
    if not isinstance(value, list):
        raise ConfigError(f"{key} must be a JSON list, got {value!r}")
    return value


def _as_complex(value, key):
    """A number or an [re, im] pair, either one also written as a string."""
    if isinstance(value, str) and value.lstrip().startswith("["):
        value = _as_list(value, key)
    if isinstance(value, list):
        if len(value) != 2:
            raise ConfigError(f"{key} pair must be [re, im], got {value!r}")
        return complex(_as_float(value[0], key), _as_float(value[1], key))
    try:
        return complex(str(value).replace(" ", ""))
    except ValueError:
        raise ConfigError(f"{key} must be a number or [re, im] pair, got {value!r}")


def _parse_poly(spec) -> Polynomial:
    s = str(spec).strip()
    if isinstance(spec, list) or s.startswith("["):
        return Polynomial([_as_complex(c, "p coefficient") for c in _as_list(spec, "p")])
    if s == "x2":
        return Polynomial([0, 0, 1])
    m = re.fullmatch(r"x2([+-][0-9.eE]+)", s)
    if m:
        return Polynomial([float(m.group(1)), 0, 1])
    raise ConfigError(f"cannot parse polynomial spec {spec!r} (use x2, x2-1, or [c0, c1, 1])")


def _build_map(opts) -> HenonMap:
    return HenonMap(_parse_poly(opts["p"]), _as_complex(opts["a"], "a"))


def _write(out_dir, name, payload):
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    mode = "wb" if isinstance(payload, bytes) else "w"
    with open(path, mode) as fh:
        fh.write(payload)
    return path


# ---------------------------------------------------------------------------
# subcommands


def _cmd_green_grid(opts):
    from .gridfield import green_grid, grid_sidecar, grid_to_csv, grid_to_pgm

    grid = green_grid(
        _build_map(opts),
        str(opts["kind"]),
        (_as_float(opts["re_min"], "re_min"), _as_float(opts["re_max"], "re_max")),
        (_as_float(opts["im_min"], "im_min"), _as_float(opts["im_max"], "im_max")),
        _as_int(opts["nx"], "nx"),
        _as_int(opts["ny"], "ny"),
        slice_axis=str(opts["slice_axis"]),
        slice_value=_as_complex(opts["slice_value"], "slice_value"),
        workers=None if opts["workers"] is None else _as_int(opts["workers"], "workers"),
    )
    outputs = []
    if opts["out_dir"]:
        outputs.append(_write(opts["out_dir"], "grid.pgm", grid_to_pgm(grid)))
        outputs.append(_write(opts["out_dir"], "grid.json", grid_sidecar(grid)))
        outputs.append(_write(opts["out_dir"], "grid.csv", grid_to_csv(grid)))
    lo, hi = grid.finite_span or (None, None)
    return {
        "kind": grid.kind,
        "width": grid.values.shape[1],
        "height": grid.values.shape[0],
        "min": lo,
        "max": hi,
        "nan_pixels": grid.nan_pixels,
        "outputs": outputs,
    }


def _trace_check(trace):
    """(max |y - c|, max residual, ok): ok when the samples stay within the
    tube radius and every residual is at most 1e-8."""
    offset = max(abs(s.point.y - trace.critical_point) for s in trace.samples)
    max_residual = max(s.residual for s in trace.samples)
    return offset, max_residual, offset <= trace.tube_radius and max_residual <= 1e-8


def _cmd_critlocus(opts):
    from .locus import trace_primary_component, trace_to_csv, trace_to_json

    henon = _build_map(opts)
    trace = trace_primary_component(
        henon,
        _as_complex(opts["c"], "c"),
        x_range=(_as_float(opts["x_min"], "x_min"), _as_float(opts["x_max"], "x_max")),
        step=_as_float(opts["step"], "step"),
    )
    # the tube is |y - c| < tube_radius; the key keeps its name (|y| at c = 0)
    offset, max_residual, ok = _trace_check(trace)
    report = {
        "samples": len(trace.samples),
        "tube_radius": trace.tube_radius,
        "max_abs_y": offset,
        "max_residual": max_residual,
        "outputs": [],
    }
    if opts["out_dir"]:
        report["outputs"].append(_write(opts["out_dir"], "trace.json", trace_to_json(trace)))
        report["outputs"].append(_write(opts["out_dir"], "trace.csv", trace_to_csv(trace)))
    if not ok:
        raise _CheckFailed(report)
    return report


def _cmd_holonomy(opts):
    from .holonomy import monodromy_orbit, psi_pair, require_exponent, same_leaf_plus
    from .locus import locate_on_locus

    henon = _build_map(opts)
    n = _as_int(opts["n"], "n")
    require_exponent(n)
    c = _as_complex(opts["c"], "c")
    z, _ = locate_on_locus(henon, _as_float(opts["x"], "x"), c)
    orbit = monodromy_orbit(henon, c, z, n)
    count = henon.degree**n
    base = psi_pair(henon, orbit[0]).psi_plus
    deviation = 0.0
    psi_values = []
    for j, pt in enumerate(orbit):
        value = psi_pair(henon, pt).psi_plus
        psi_values.append(value)
        expected = base * cmath.exp(2j * math.pi * j / count)
        deviation = max(deviation, abs(value - expected) / abs(base))
    witness = None
    if count > 1:
        witness = same_leaf_plus(henon, orbit[0], orbit[count // 2])
    report = {
        "orbit_size": len(orbit),
        "points": [{"x": p.x, "y": p.y} for p in orbit],
        "psi_plus": psi_values,
        "equivariance_deviation": deviation,
        "witness": None
        if witness is None
        else {"omega": witness.omega, "order_exponent": witness.order_exponent},
    }
    ok = len(orbit) == count and deviation < 1e-6
    if count > 1:
        ok = ok and witness is not None
        if witness is not None:
            ok = ok and abs(witness.omega ** (henon.degree**witness.order_exponent) - 1) < 1e-8
    if not ok:
        raise _CheckFailed(report)
    return report


def _cmd_manifold(opts):
    from .manifolds import (
        gradient_index,
        local_stable_graph,
        local_unstable_graph,
        manifold_to_json,
    )

    henon = _build_map(opts)
    side = str(opts["side"])
    depth = {}  # unset: each builder's own default depth
    if opts["iterations"] is not None:
        depth["iterations"] = _as_int(opts["iterations"], "iterations")
    mesh = _as_int(opts["mesh"], "mesh")
    if side == "stable":
        m = local_stable_graph(henon, _as_complex(opts["z"], "z"), mesh=mesh, **depth)
        index = gradient_index(henon, m, _as_float(opts["loop_radius"], "loop_radius"))
        deviation = max(abs(v - m.base) for v in m.values)
    elif side == "unstable":
        if not opts["history"]:
            raise ConfigError("unstable side needs --history as a JSON list")
        history = [_as_complex(h, "history") for h in _as_list(opts["history"], "history")]
        m = local_unstable_graph(henon, history, mesh=mesh, **depth)
        index = None
        deviation = max(abs(v) for v in m.values)
    else:
        raise ConfigError(f"side must be stable or unstable, got {side!r}")
    report = {
        "side": side,
        "base": m.base,
        "iterations": m.iterations,
        "preperiod": m.preperiod,
        "period": m.period,
        "graph_deviation": deviation,
        "index": index,
        "outputs": [],
    }
    if opts["out_dir"]:
        report["outputs"].append(_write(opts["out_dir"], "manifold.json", manifold_to_json(m)))
    if side == "stable" and index != 1:
        raise _CheckFailed(report)
    return report


def _golden_text() -> str:
    path = os.path.join(os.path.dirname(__file__), "golden", "defect_coefficients.txt")
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _cmd_rigidity(opts):
    from .rigidity import check_partial_solution, defect_coefficients_text, verify_table_case

    report = {}
    ok = True
    ran_anything = False
    if opts["case"] is not None:
        ran_anything = True
        try:
            case = verify_table_case(str(opts["case"]))
        except KeyError as exc:
            raise ConfigError(f"unknown table case {opts['case']!r}: {exc}")
        report["case"] = {
            "name": case.case_id,
            "ok": case.ok,
            "order": case.order,
            "positive_checks": case.positive_checks,
            "random_trials": case.random_trials,
            "violations_detected": case.violations_detected,
        }
        ok = ok and case.ok
    if opts["partial"]:
        ran_anything = True
        partial = check_partial_solution()
        report["partial"] = asdict(partial)
        ok = ok and partial.ok
    if opts["defect_order"] is not None:
        ran_anything = True
        order = _as_int(opts["defect_order"], "defect_order")
        text = defect_coefficients_text(order)
        report["defect_coefficients"] = text.strip().splitlines()
        if opts["out_dir"]:
            report["outputs"] = [_write(opts["out_dir"], "defect.txt", text)]
    if opts["golden"] or not ran_anything:
        match = defect_coefficients_text(13) == _golden_text()
        report["golden_match"] = match
        ok = ok and match
    if not ok:
        raise _CheckFailed(report)
    return report


def _sample_escaping(henon, rng):
    alpha = henon.domain_params().alpha
    x = rng.uniform(2.0, 20.0) * alpha * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    y = rng.uniform(0.0, 0.8) * abs(x) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    return Point(x, y)


def _suite_core(henon, opts):
    from .escape import green, phi_minus, phi_plus

    tol = _as_float(opts["tol"], "tol")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    samples = _as_int(opts["samples"], "samples")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    rng = random.Random(_as_int(opts["seed"], "seed"))
    d = henon.degree
    plus_res = []
    minus_res = []
    for _ in range(samples):
        z = _sample_escaping(henon, rng)
        ev = phi_plus(henon, z)
        ev_next = phi_plus(henon, henon.apply(z))
        plus_res.append(abs(ev_next.value - ev.value**d) / abs(ev.value) ** d)
        w = Point(z.y, z.x)  # reflected into the backward escape region
        if henon.a == 0:
            ev_m = phi_minus(henon, w)
            target = henon.p(w.y) - w.x
            minus_res.append(abs(ev_m.value**d - target) / abs(target))
        else:
            gv = green(henon, w, "minus")
            gv_back = green(henon, henon.apply_inverse(w), "minus")
            minus_res.append(abs(gv_back.value - (d * gv.value - math.log(abs(henon.a)))))
    report = {
        "suite": "core",
        "samples": samples,
        "max_plus_residual": max(plus_res),
        "max_minus_residual": max(minus_res),
        "plus_residuals": plus_res[:10],
        "minus_residuals": minus_res[:10],
    }
    if max(plus_res) >= tol or max(minus_res) >= tol:
        raise _CheckFailed(report)
    return report


def _suite_locus(henon, opts):
    from .locus import contact_order, trace_primary_component

    if henon.a == 0:
        raise ConfigError("the locus suite needs a nonzero Jacobian (--a)")
    trace = trace_primary_component(henon, 0.0, x_range=(10.0, 100.0), step=0.25)
    offset, max_residual, ok = _trace_check(trace)
    mid = trace.samples[len(trace.samples) // 2].point
    order = contact_order(henon, mid)
    report = {
        "suite": "locus",
        "samples": len(trace.samples),
        "max_abs_y": offset,
        "max_residual": max_residual,
        "contact_order": order,
    }
    if not ok or order != 2:
        raise _CheckFailed(report)
    return report


def _cmd_verify(opts):
    henon = _build_map(opts)
    suite = str(opts["suite"])
    if suite == "core":
        return _suite_core(henon, opts)
    if suite == "locus":
        return _suite_locus(henon, opts)
    raise ConfigError(f"unknown suite {suite!r} (use core or locus)")


_HANDLERS = {
    "green-grid": _cmd_green_grid,
    "critlocus": _cmd_critlocus,
    "holonomy": _cmd_holonomy,
    "manifold": _cmd_manifold,
    "rigidity": _cmd_rigidity,
    "verify": _cmd_verify,
}


# ---------------------------------------------------------------------------
# entry points


def _emit(report) -> None:
    """Print one report as strict JSON (no NaN or Infinity tokens)."""
    print(to_json(report, None))


def run(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        name = getattr(args, "subcommand", None)
        if not name:
            raise ConfigError("missing subcommand (green-grid, critlocus, holonomy, manifold, rigidity, verify)")
        opts = _merged_options(args, name)
        report = _HANDLERS[name](opts)
    except (ConfigError, ValueError) as exc:
        # ValueError is how the library rejects an argument (grid size,
        # history, polynomial, ...): a configuration error here.
        _emit({"status": "config-error", "error": str(exc)})
        return 2
    except _CheckFailed as exc:
        _emit({"status": "assertion-failed", **exc.args[0]})
        return 1
    except HenonLocusError as exc:
        _emit({"status": "assertion-failed", "error": f"{type(exc).__name__}: {exc}"})
        return 1
    _emit({"status": "ok", **report})
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))
