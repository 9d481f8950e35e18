"""Command-line interface: config round-trips, exit codes, JSON reports."""

import dataclasses
import hashlib
import json
import math
import os
import pathlib
import struct
import subprocess
import sys

import pytest

import henonlocus
from henonlocus import _kernel, cli, holonomy, locus
from henonlocus.cli import RunConfig, config_from_text, run
from henonlocus.errors import ConfigError

PHI = (1.0 + math.sqrt(5.0)) / 2.0


def config_to_text(config: RunConfig) -> str:
    """Oracle writer of the config format that config_from_text reads:
    one `key = <JSON value>` line per option, sorted, after the subcommand."""
    lines = [f"subcommand = {json.dumps(config.subcommand)}"]
    for key in sorted(config.options):
        lines.append(f"{key} = {json.dumps(config.options[key])}")
    return "\n".join(lines) + "\n"


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def run_json(capsys, argv):
    """Invoke the CLI and return (exit_code, parsed stdout report).

    The parse is strict: NaN, Infinity and -Infinity are not JSON.
    """
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out, parse_constant=_reject_constant)


# ---------------------------------------------------------------------------
# configuration text format


def test_config_roundtrip_is_lossless():
    cfg = RunConfig(
        "green-grid",
        {"nx": 12, "re_min": -1.5, "kind": "green-minus", "a": [0.01, 0.0]},
    )
    text = config_to_text(cfg)
    back = config_from_text(text)
    assert back == cfg
    assert config_to_text(back) == text


def test_config_ignores_comments_and_blank_lines():
    cfg = config_from_text(
        '# render settings\n\nsubcommand = "verify"\nsamples = 9\n'
    )
    assert cfg.subcommand == "verify"
    assert cfg.options == {"samples": 9}


def test_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown config keys: frobnicate"):
        config_from_text('subcommand = "verify"\nfrobnicate = 3\n')


def test_config_rejects_malformed_line():
    with pytest.raises(ConfigError, match="key = value"):
        config_from_text('subcommand = "verify"\njust some words\n')


def test_config_rejects_non_json_value():
    with pytest.raises(ConfigError, match="bad value"):
        config_from_text('subcommand = "verify"\nsamples = nine\n')


def test_config_needs_a_subcommand():
    with pytest.raises(ConfigError, match="subcommand"):
        config_from_text("samples = 9\n")
    with pytest.raises(ConfigError, match="unknown subcommand"):
        config_from_text('subcommand = "launch-missiles"\n')


# ---------------------------------------------------------------------------
# exit codes and error reports


def test_missing_subcommand_exits_2(capsys):
    code, report = run_json(capsys, [])
    assert code == 2
    assert report["status"] == "config-error"


def test_unknown_subcommand_exits_2(capsys):
    code, report = run_json(capsys, ["frobnicate"])
    assert code == 2
    assert report["status"] == "config-error"


def test_unknown_flag_exits_2(capsys):
    code, report = run_json(capsys, ["verify", "--no-such-flag", "1"])
    assert code == 2
    assert report["status"] == "config-error"


def test_bad_polynomial_spec_exits_2(capsys):
    code, report = run_json(capsys, ["verify", "--p", "x3+banana"])
    assert code == 2
    assert report["status"] == "config-error"
    assert "polynomial" in report["error"]


@pytest.mark.parametrize("argv", [
    ["critlocus", "--p", "[NaN, 0, 1]"],
    ["critlocus", "--p", "x2+1e999"],
    ["green-grid", "--p", "[NaN, 0, 1]"],
])
def test_non_finite_polynomial_exits_2(capsys, argv):
    code, report = run_json(capsys, argv)
    assert code == 2
    assert report["status"] == "config-error"
    assert "coefficients must be finite" in report["error"]


def test_missing_config_file_exits_2(capsys, tmp_path):
    code, report = run_json(
        capsys, ["verify", "--config", str(tmp_path / "missing.cfg")]
    )
    assert code == 2
    assert report["status"] == "config-error"


# ---------------------------------------------------------------------------
# JSON inputs: lists and [re, im] pairs read the same from a flag or a file


def _run_flag_and_file(capsys, tmp_path, argv, key, value):
    """The (exit code, report) pairs of argv with `key` given as a flag and
    in a config file."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f'subcommand = "{argv[0]}"\n{key} = {value}\n')
    flag = "--" + key.replace("_", "-")
    return [
        run_json(capsys, argv + [flag, value]),
        run_json(capsys, argv + ["--config", str(cfg)]),
    ]


@pytest.mark.parametrize("history", ["5", "{}", '"phi"', "[1.0, [2.0]]"])
def test_history_that_is_not_a_list_of_numbers_exits_2(capsys, tmp_path, history):
    argv = ["manifold", "--side", "unstable"]
    for code, report in _run_flag_and_file(capsys, tmp_path, argv, "history", history):
        assert code == 2
        assert report["status"] == "config-error"
        assert "history" in report["error"]


def test_listed_polynomial_reads_complex_coefficients_as_pairs(capsys, tmp_path):
    expected = cli._parse_poly("x2").coefficients[1:]
    reports = _run_flag_and_file(capsys, tmp_path, ["verify"], "p", "[[0.1, 0.2], 0, 1]")
    for code, report in reports:
        assert code == 0
    assert reports[0] == reports[1]
    assert cli._parse_poly("[[0.1, 0.2], 0, 1]").coefficients == (0.1 + 0.2j, *expected)
    assert cli._parse_poly([[0.1, 0.2], 0, 1]).coefficients == (0.1 + 0.2j, *expected)


@pytest.mark.parametrize("p", ["[[0.1, 0.2, 0.3], 0, 1]", '[["re", 0.2], 0, 1]', "[{}, 0, 1]"])
def test_listed_polynomial_with_a_bad_coefficient_exits_2(capsys, tmp_path, p):
    for code, report in _run_flag_and_file(capsys, tmp_path, ["verify"], "p", p):
        assert code == 2
        assert report["status"] == "config-error"
        assert "p coefficient" in report["error"]


@pytest.mark.parametrize(
    "argv, key, value, kind",
    [
        (["green-grid"], "nx", "64.0", "an integer"),
        (["green-grid"], "nx", "true", "an integer"),
        (["verify"], "samples", "3.9", "an integer"),
        (["verify"], "samples", "true", "an integer"),
        (["manifold"], "mesh", "32.0", "an integer"),
        (["manifold"], "mesh", "false", "an integer"),
        (["verify"], "tol", "true", "a number"),
    ],
)
def test_non_integer_counts_and_boolean_numbers_exit_2(capsys, tmp_path, argv, key, value, kind):
    # a config file's 3.9 is not truncated to 3, nor its true read as 1
    for code, report in _run_flag_and_file(capsys, tmp_path, argv, key, value):
        assert code == 2
        assert report["status"] == "config-error"
        assert f"{key} must be {kind}" in report["error"]


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_verify_tol_outside_zero_to_infinity_exits_2(capsys, tmp_path, tol):
    # the residuals are compared against tol: max(res) >= nan is never true.
    # A config file holds nan and inf only as strings.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f'subcommand = "verify"\ntol = "{tol}"\n')
    for argv in (["verify", "--tol", tol], ["verify", "--config", str(cfg)]):
        code, report = run_json(capsys, argv)
        assert code == 2
        assert report["status"] == "config-error"
        assert "tol must be positive and finite" in report["error"]


@pytest.mark.parametrize(
    "argv",
    [
        ["manifold", "--side", "unstable", "--history", "5"],
        ["verify", "--p", "[[0.1, 0.2, 0.3], 0, 1]"],
        ["verify", "--a", "[0.001]"],
    ],
)
def test_bad_json_inputs_exit_2_with_one_line_and_no_traceback(tmp_path, argv):
    code, report = _run_module(argv, tmp_path)
    assert code == 2
    assert report["status"] == "config-error"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--a"],
        ["critlocus", "--a"],
        ["critlocus", "--c"],
        ["holonomy", "--c"],
        ["manifold", "--z", "1.2", "--a"],
        ["green-grid", "--nx", "4", "--ny", "3", "--workers", "1", "--slice-value"],
    ],
)
def test_every_complex_option_takes_a_pair_string(capsys, argv):
    # the same number as a Python complex literal and as a JSON [re, im] pair
    assert run(argv + ["0.001+0.002j"]) in (0, 1)
    literal = capsys.readouterr().out
    assert run(argv + ["[0.001, 0.002]"]) in (0, 1)
    assert capsys.readouterr().out == literal


def test_manifold_z_and_history_take_pair_strings(capsys):
    code, report = run_json(capsys, ["manifold", "--z", f"[{PHI!r}, 0]"])
    assert code == 0
    assert report["base"] == [PHI, 0.0]
    history = json.dumps([[PHI, 0.0]] + [f"[{PHI!r}, 0]"] * 12)
    code, report = run_json(capsys, ["manifold", "--side", "unstable", "--history", history])
    assert code == 0
    assert report["base"] == [PHI, 0.0]


# ---------------------------------------------------------------------------
# verify


def test_verify_core_degenerate_passes(capsys):
    code, report = run_json(capsys, ["verify", "--suite", "core", "--samples", "40"])
    assert code == 0
    assert report["status"] == "ok"
    assert report["max_plus_residual"] < 1e-9
    assert report["max_minus_residual"] < 1e-9


def test_verify_core_nonzero_jacobian(capsys):
    code, report = run_json(
        capsys,
        ["verify", "--suite", "core", "--p", "x2-1", "--a", "0.01", "--samples", "30"],
    )
    assert code == 0
    assert report["max_plus_residual"] < 1e-9
    assert report["max_minus_residual"] < 1e-9


@pytest.mark.parametrize("a", ["3.0", "0.125", "0.1+0.1j"])
def test_verify_jacobian_outside_R_exits_2(capsys, a):
    code, report = run_json(capsys, ["verify", "--p", "x2-1", "--a", a])
    assert code == 2
    assert report["status"] == "config-error"
    assert "|a| < R" in report["error"]


def test_verify_unreachable_tolerance_exits_1(capsys):
    code, report = run_json(
        capsys, ["verify", "--suite", "core", "--samples", "5", "--tol", "1e-30"]
    )
    assert code == 1
    assert report["status"] == "assertion-failed"
    assert report["max_plus_residual"] > 0


def test_verify_unknown_suite_exits_2(capsys):
    code, report = run_json(capsys, ["verify", "--suite", "everything"])
    assert code == 2
    assert report["status"] == "config-error"


def test_verify_is_deterministic_for_fixed_seed(capsys):
    _, first = run_json(capsys, ["verify", "--samples", "12", "--seed", "7"])
    _, again = run_json(capsys, ["verify", "--samples", "12", "--seed", "7"])
    assert first == again
    _, other = run_json(capsys, ["verify", "--samples", "12", "--seed", "8"])
    assert other["max_plus_residual"] != first["max_plus_residual"]


# ---------------------------------------------------------------------------
# green-grid


def test_green_grid_writes_all_outputs(capsys, tmp_path):
    out = tmp_path / "render"
    code, report = run_json(
        capsys,
        [
            "green-grid",
            "--nx", "6",
            "--ny", "5",
            "--re-min", "-2", "--re-max", "2",
            "--im-min", "-1", "--im-max", "1",
            "--out-dir", str(out),
        ],
    )
    assert code == 0
    assert report["width"] == 6 and report["height"] == 5
    assert report["nan_pixels"] == 0
    pgm = (out / "grid.pgm").read_bytes()
    assert pgm.startswith(b"P5\n6 5\n65535\n")
    assert len(pgm) == len(b"P5\n6 5\n65535\n") + 2 * 6 * 5
    sidecar = json.loads((out / "grid.json").read_text())
    assert sidecar["width"] == 6 and sidecar["height"] == 5
    assert sidecar["nan_pixel"] == 0
    assert sidecar["min"] == pytest.approx(report["min"])
    csv_lines = (out / "grid.csv").read_text().splitlines()
    assert csv_lines[0] == "x,y,value"
    assert len(csv_lines) == 1 + 6 * 5


def test_green_grid_is_byte_deterministic(capsys, tmp_path):
    argv = ["green-grid", "--nx", "5", "--ny", "4", "--p", "x2-1", "--a", "0.05"]
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    code_a, _ = run_json(capsys, argv + ["--out-dir", str(a_dir), "--workers", "1"])
    code_b, _ = run_json(capsys, argv + ["--out-dir", str(b_dir), "--workers", "3"])
    assert code_a == code_b == 0
    for name in ("grid.pgm", "grid.json", "grid.csv"):
        assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()


def test_green_grid_all_nan_tangency_is_strict_json(capsys, tmp_path):
    # The probed slice never escapes both ways, so every pixel is NaN.
    code, report = run_json(
        capsys,
        ["green-grid", "--kind", "tangency", "--p", "x2-1", "--a", "0.01",
         "--nx", "8", "--ny", "8", "--out-dir", str(tmp_path)],
    )
    assert code == 0
    assert report["min"] is None and report["max"] is None
    assert report["nan_pixels"] == 64
    sidecar = json.loads((tmp_path / "grid.json").read_text(), parse_constant=_reject_constant)
    assert sidecar["nan_pixel"] == 64
    assert sidecar["min"] is None and sidecar["max"] is None


def test_green_grid_too_small_exits_2(capsys):
    code, report = run_json(capsys, ["green-grid", "--nx", "1"])
    assert code == 2
    assert report["status"] == "config-error"
    assert "at least 2 samples" in report["error"]


@pytest.mark.parametrize("flag", ("--re-min", "--im-max", "--slice-value"))
def test_green_grid_non_finite_geometry_exits_2(capsys, flag):
    argv = ["green-grid", "--kind", "green-plus", "--p", "x2-1", "--a", "0.01",
            "--nx", "4", "--ny", "4", flag, "nan"]
    code, report = run_json(capsys, argv)
    assert code == 2
    assert report["status"] == "config-error"
    assert "must be finite" in report["error"]


def test_green_grid_has_no_seed_option(capsys):
    code, report = run_json(capsys, ["green-grid", "--seed", "3"])
    assert code == 2
    assert report["status"] == "config-error"


def test_green_grid_bad_kind_exits_2(capsys):
    code, report = run_json(capsys, ["green-grid", "--kind", "heatmap"])
    assert code == 2
    assert report["status"] == "config-error"


def test_config_file_flags_override_file_values(capsys, tmp_path):
    cfg = tmp_path / "render.cfg"
    cfg.write_text('subcommand = "green-grid"\nnx = 8\nny = 7\n')
    out = tmp_path / "out"
    code, report = run_json(
        capsys,
        ["green-grid", "--config", str(cfg), "--ny", "4", "--out-dir", str(out)],
    )
    assert code == 0
    assert report["width"] == 8  # from the file
    assert report["height"] == 4  # flag wins over the file
    assert json.loads((out / "grid.json").read_text())["height"] == 4


def test_config_file_for_wrong_subcommand_exits_2(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text('subcommand = "green-grid"\nx = 4.2\n')  # holonomy-only key
    code, report = run_json(capsys, ["green-grid", "--config", str(cfg)])
    assert code == 2
    assert "unknown config keys" in report["error"]


# ---------------------------------------------------------------------------
# critlocus


def test_critlocus_traces_and_exports(capsys, tmp_path):
    out = tmp_path / "locus"
    code, report = run_json(
        capsys,
        [
            "critlocus",
            "--p", "x2-1",
            "--a", "0.01",
            "--x-min", "10", "--x-max", "100",
            "--step", "0.25",
            "--out-dir", str(out),
        ],
    )
    assert code == 0
    assert report["max_abs_y"] <= report["tube_radius"]
    assert report["max_residual"] < 1e-8
    trace = json.loads((out / "trace.json").read_text())
    assert len(trace["samples"]) == report["samples"]
    csv_lines = (out / "trace.csv").read_text().splitlines()
    assert len(csv_lines) == 1 + report["samples"]


def test_critlocus_degenerate_collapses_to_axis(capsys):
    # At a = 0 the plus-gradient loses its y-component, so the tangency
    # locus is exactly the critical horizontal y = 0.
    code, report = run_json(
        capsys,
        ["critlocus", "--a", "0", "--x-min", "10", "--x-max", "40", "--step", "0.5"],
    )
    assert code == 0
    assert report["max_abs_y"] < 1e-12


@pytest.mark.parametrize("c", [1.0, -1.0])
def test_critlocus_checks_the_tube_about_its_critical_point(capsys, c):
    # x^3 - 3x: the tube about c = +-1 is |y - c| < 1, so |y| near 1 passes.
    code, report = run_json(
        capsys,
        ["critlocus", "--p", "[0,-3,0,1]", "--a", "0.01", "--c", repr(c), "--x-max", "100"],
    )
    assert code == 0, report
    assert report["tube_radius"] == 1.0  # half the gap between the critical points
    assert report["max_abs_y"] < 1e-5  # measured from c
    assert report["max_residual"] < 1e-8


@pytest.mark.parametrize(
    "argv",
    [
        ["critlocus", "--x-max", "100", "--step", "0.25"],
        ["verify", "--suite", "locus", "--a", "0.01"],
    ],
)
def test_trace_check_failure_exits_1_with_the_report(capsys, monkeypatch, argv):
    # critlocus and the locus suite share one trace check: a residual above
    # 1e-8 fails it, and the partial report reaches stdout (each handler
    # imports the trace when it runs, so the patch goes on locus)
    traced = locus.trace_primary_component

    def noisy(*args, **kwargs):
        trace = traced(*args, **kwargs)
        first = dataclasses.replace(trace.samples[0], residual=2e-8)
        return dataclasses.replace(trace, samples=(first,) + trace.samples[1:])

    monkeypatch.setattr(locus, "trace_primary_component", noisy)
    code, report = run_json(capsys, argv)
    assert code == 1
    assert report["status"] == "assertion-failed"
    assert report["max_residual"] == 2e-8
    assert report["max_abs_y"] < 0.25


@pytest.mark.parametrize(
    "flag, value", [("--step", "0"), ("--step", "-0.1"), ("--x-min", "nan")]
)
def test_critlocus_bad_step_or_range_exits_2(capsys, flag, value):
    code, report = run_json(capsys, ["critlocus", flag, value])
    assert code == 2
    assert report["status"] == "config-error"
    assert "positive and finite" in report["error"]


def test_critlocus_refuses_a_non_finite_c(capsys):
    code, report = run_json(capsys, ["critlocus", "--c", "nan"])
    assert code == 2
    assert report["status"] == "config-error"
    assert "critical point c must be finite, got (nan+0j)" in report["error"]


# ---------------------------------------------------------------------------
# holonomy


@pytest.mark.parametrize("c", ["0.7", "[0.3,0.2]"])
def test_holonomy_refuses_a_c_that_is_not_a_critical_point(capsys, monkeypatch, c):
    # x^2 - 1 has the one critical point 0; the locus Newton from y = c
    # would still land on its component, but the orbit is not certified
    # for c, so c is refused before the Newton makes any kernel call
    calls = []
    for name in ("phi_plus_eval", "phi_minus_eval"):
        routine = getattr(_kernel, name)

        def counting(*args, name=name, routine=routine):
            calls.append(name)
            return routine(*args)

        monkeypatch.setattr(_kernel, name, counting)
    code, report = run_json(capsys, ["holonomy", "--c", c])
    assert code == 1
    assert report["status"] == "assertion-failed"
    assert report["error"].startswith("NotSimpleCritical: p'(")
    assert calls == []
    # the counters see the kernel calls of a run at the critical point
    assert run_json(capsys, ["holonomy", "--c", "0", "--n", "1"])[0] == 0
    assert calls


@pytest.mark.parametrize(
    "argv, names",
    [
        (["holonomy", "--x", "nan"], "must be finite"),
        (["verify", "--samples", "0"], "samples must be >= 1"),
        (["verify", "--samples", "-3"], "samples must be >= 1"),
        (["manifold", "--mesh", "0"], "mesh must be at least 1"),
    ],
)
def test_bad_count_or_coordinate_exits_2(capsys, argv, names):
    code, report = run_json(capsys, argv)
    assert code == 2
    assert report["status"] == "config-error"
    assert names in report["error"]


def test_holonomy_reports_orbit_and_witness(capsys):
    code, report = run_json(capsys, ["holonomy", "--n", "1"])
    assert code == 0
    assert report["orbit_size"] == 2
    omega = complex(*report["witness"]["omega"])
    assert abs(omega - (-1.0)) < 1e-8
    assert report["equivariance_deviation"] < 1e-6
    assert len(report["points"]) == 2


def test_holonomy_exponent_past_the_witness_range_exits_2(capsys, monkeypatch):
    # refused before any work: no locus Newton, no orbit (8 * 2^40 theta steps)
    def no_work(*args):
        raise AssertionError("the locus or the monodromy orbit started")

    monkeypatch.setattr(locus, "locate_on_locus", no_work)
    monkeypatch.setattr(holonomy, "_theta_continuation", no_work)
    for n in ("40", "-1"):
        code, report = run_json(capsys, ["holonomy", "--n", n])
        assert code == 2
        assert report["status"] == "config-error"
        assert f"exponent must be in 0..8, got {n}" in report["error"]


@pytest.mark.parametrize("c", [1.0, -1.0])
def test_holonomy_seeds_the_locus_at_the_critical_point(capsys, c):
    # x^3 - 3x has critical points +-1; the locus point at x = 30 must be
    # found on the component through --c, not from a seed at y = 0.
    code, report = run_json(
        capsys,
        ["holonomy", "--p", "[0,-3,0,1]", "--a", "0.01", "--c", repr(c), "--x", "30"],
    )
    assert code == 0, report
    assert report["orbit_size"] == 3
    assert abs(complex(*report["points"][0]["y"]) - c) < 1e-3


# ---------------------------------------------------------------------------
# manifold


def test_manifold_stable_graph_and_index(capsys, tmp_path):
    out = tmp_path / "stable"
    code, report = run_json(
        capsys,
        ["manifold", "--z", repr(PHI), "--out-dir", str(out)],
    )
    assert code == 0
    assert report["index"] == 1
    assert report["side"] == "stable"
    assert 0 < report["graph_deviation"] < 0.05
    assert (report["preperiod"], report["period"]) == (0, 1)  # the golden ratio is fixed
    saved = json.loads((out / "manifold.json").read_text())
    assert saved["side"] == "stable"
    assert (saved["preperiod"], saved["period"]) == (0, 1)


def test_manifold_unstable_graph(capsys):
    history = json.dumps([PHI] * 25)
    code, report = run_json(
        capsys,
        ["manifold", "--side", "unstable", "--history", history, "--a", "0.005"],
    )
    assert code == 0
    assert report["index"] is None
    assert report["graph_deviation"] < 5 * 0.005


def test_manifold_unstable_honours_iterations(capsys):
    history = json.dumps([PHI] * 13)
    argv = ["manifold", "--side", "unstable", "--history", history]
    code, report = run_json(capsys, argv + ["--iterations", "2"])
    assert code == 1
    assert "GraphTransformDiverged" in report["error"]
    assert "after 2 transforms (preperiod 0, period 1)" in report["error"]
    code, report = run_json(capsys, argv + ["--iterations", "999"])
    assert code == 2
    assert "iterations must fit inside the history" in report["error"]
    code, report = run_json(capsys, argv)
    assert code == 0
    assert report["iterations"] == 4


def test_manifold_unstable_without_history_exits_2(capsys):
    code, report = run_json(capsys, ["manifold", "--side", "unstable"])
    assert code == 2
    assert "history" in report["error"]


def test_manifold_history_not_backward_orbit_exits_2(capsys):
    code, report = run_json(
        capsys, ["manifold", "--side", "unstable", "--history", "[1.0, 2.0, 3.0]"]
    )
    assert code == 2
    assert report["status"] == "config-error"
    assert "backward orbit" in report["error"]


@pytest.mark.parametrize(
    "argv",
    [
        ["--z", "nan"],
        ["--z", "[1e400, 0]"],
        ["--side", "unstable", "--history", json.dumps([PHI, "nan"])],
        ["--side", "unstable", "--history", f"[{PHI!r}, NaN, {PHI!r}]"],
    ],
)
def test_manifold_non_finite_input_exits_2(capsys, argv):
    code, report = run_json(capsys, ["manifold", *argv])
    assert code == 2
    assert report["status"] == "config-error"
    assert "must be finite" in report["error"]


@pytest.mark.parametrize("subcommand", ["holonomy", "verify"])
def test_out_dir_is_refused_where_nothing_is_written(capsys, tmp_path, subcommand):
    # holonomy and verify write no file, so they take no --out-dir
    code, report = run_json(capsys, [subcommand, "--out-dir", "x"])
    assert code == 2
    assert report["status"] == "config-error"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f'subcommand = "{subcommand}"\nout_dir = "x"\n')
    code, report = run_json(capsys, [subcommand, "--config", str(cfg)])
    assert code == 2
    assert "out_dir" in report["error"]
    assert not (tmp_path / "x").exists()


def test_manifold_bad_side_exits_2(capsys):
    code, report = run_json(capsys, ["manifold", "--side", "sideways"])
    assert code == 2


# ---------------------------------------------------------------------------
# rigidity


def test_rigidity_default_checks_golden_text(capsys):
    code, report = run_json(capsys, ["rigidity"])
    assert code == 0
    assert report["golden_match"] is True


def test_rigidity_table_case(capsys):
    code, report = run_json(capsys, ["rigidity", "--case", "beta_ratio"])
    assert code == 0
    assert report["case"]["ok"] is True
    assert report["case"]["order"] == 7
    assert report["case"]["violations_detected"] == report["case"]["random_trials"]


def test_rigidity_partial_solution(capsys):
    code, report = run_json(capsys, ["rigidity", "--partial"])
    assert code == 0
    assert report["partial"]["annihilated"] == [1, 2]


def test_rigidity_unknown_case_exits_2(capsys):
    code, report = run_json(capsys, ["rigidity", "--case", "zeta_zero"])
    assert code == 2
    assert report["status"] == "config-error"


def test_rigidity_defect_listing(capsys, tmp_path):
    out = tmp_path / "rig"
    code, report = run_json(
        capsys,
        ["rigidity", "--defect-order", "3", "--out-dir", str(out)],
    )
    assert code == 0
    assert len(report["defect_coefficients"]) == 3
    assert report["defect_coefficients"][0].startswith("z^1:")
    assert (out / "defect.txt").read_text().strip() == "\n".join(
        report["defect_coefficients"]
    )


def test_rigidity_defect_order_below_the_locus_minimum_exits_2(capsys):
    code, report = run_json(capsys, ["rigidity", "--defect-order", "0"])
    assert code == 2
    assert report["status"] == "config-error"


# sha256 of the stdout of `henonlocus rigidity ARGS`: the exact pipeline is
# deterministic, so a report changes only with these values
_RIGIDITY_STDOUT_SHA256 = {
    "": "d9390ee4d4ba7a2f8675e9b757130403d98c9b8ecaf0409c63573e6411da7dcc",
    "--partial": "11bcfbe70f1e607721e8e6f558fb44c290102bd7df705be18c31366c4bbb2403",
    "--case beta_ratio": "d0c864cc51ad46b534726b44605f0d60aed2c3054246691d64b6e293ab74dafb",
    "--case a2_one": "008e84b86825caccef21e89a743c948d70622a64385a47dfc3f223e6438098de",
    "--case a2_minus_one": "aa089740e26a89dbd82840b274a56b9bee0370651f7f2b767a8681d7951dfed7",
    "--case c1_zero": "2a1e2f49bc3057641e1230ca3dd68d63e65838102dba076a36ccf31347e319dc",
    "--defect-order 3": "cf76ff1a275c02fec40a9372739fe5e2cec42d8bb405584a8c30609269aa9a04",
}


@pytest.mark.parametrize("args", sorted(_RIGIDITY_STDOUT_SHA256))
def test_rigidity_stdout_is_pinned(capsys, args):
    assert run(["rigidity", *args.split()]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == _RIGIDITY_STDOUT_SHA256[args]


# ---------------------------------------------------------------------------
# pinned reports and exports

# sha256 of the stdout of `henonlocus ARGV`, with `--out-dir out` for the
# subcommands that write files (run in an empty directory, so the report's
# output paths are relative), and of each file it writes: the JSON writer and
# readers must not move a byte of either
_SMALL_GRID = ["--nx", "12", "--ny", "10", "--workers", "1"]
_PINNED_RUNS = {
    "critlocus-x2-1": (
        ["critlocus"],
        "1084ee953569f5d89bbb4d1f50f22573610265120a6053610323102dea3c64c5",
        {
            "trace.csv": "d955eb2817d2c26bb3f7b856e63063625b8502853c0f47cd14a8ad204f48e661",
            "trace.json": "fb6ed211004bfbec867de3da3dc0dfae4a81fff01525e79f46603bd13f7968a6",
        },
    ),
    "critlocus-cubic": (
        ["critlocus", "--p", "[0, 0.3, 0, 1]", "--a", "0.004", "--c", "0.31622776601683794j"],
        "8feabf25ad2f7df091ba4383ee909efd327eb833a44c038fab438233629fd5e9",
        {
            "trace.csv": "a4ae431d9c856c3d00d2d388bdaa8d9c6dc211991e11a8b3084d28ecf122f9b0",
            "trace.json": "4c0c3176718d490a23d0f6adc01b012912d0836595a04c8b32f96fb1261e54bc",
        },
    ),
    "critlocus-complex-a": (
        ["critlocus", "--a", "0.004+0.003j"],
        "f5aeaeffda64493394d614746d8e3676c509b3ae892d6100dd1399d68982474e",
        {
            "trace.csv": "f323183cd73b868ce013c72e6bbc1b43d047bd511bdd4cf0ce2cf05c77a36e91",
            "trace.json": "159abf1ee0b1bdb69a040d7dd1e595b61ac0f6b47ce730bfa048cd96a2fd9fa0",
        },
    ),
    "manifold-stable": (
        ["manifold", "--z", repr(PHI)],
        "d9191255186a3512a1a10b8a524caa868af3be500ba9f12e19768491408c8fab",
        {
            "manifold.json": "2766ffe67210065e51184d31ae002ff1a4b008117fedc67b2de329854c387d79",
        },
    ),
    "manifold-unstable": (
        ["manifold", "--side", "unstable", "--history", json.dumps([PHI] * 25)],
        "5933462403bc1136c4f2a169ba85599648dccf2b118a5f68bde22aee07572911",
        {
            "manifold.json": "ed0d3d52f08c50ca534bc45c6fc003ff775e42589af78d2b38ef00d99b6850e0",
        },
    ),
    "manifold-complex-a": (
        ["manifold", "--a", "0.003+0.002j", "--z", repr(PHI)],
        "c0c25aa4bf52335d0bad5ea2d80bc23728796b81fba5ff5ab36e273d1bff8b5a",
        {
            "manifold.json": "d1d200a634d17f8cdeb5da89432cb41c8448d5b918c4b16f8c83e2d001714ce3",
        },
    ),
    "grid-tangency": (
        ["green-grid", "--kind", "tangency", "--a", "0.01", "--p", "x2-1", *_SMALL_GRID],
        "09fe671c6aecf6e1261ce076474f7f93bfd0cea2a2c80c896691b53e71998faa",
        {
            "grid.csv": "d716dba0a232079b4246432b760b9cdb51f56cc73d079300883257ddfe33490b",
            "grid.json": "5828a0029c3af91f8fe1522fb7d9ce2d025d4d04c82b1376b4e723b3ce5b30c8",
            "grid.pgm": "1b872314a0e6571d489e10810eb5b2ff1e2e0b4f914951e27b3cf814f66f0a27",
        },
    ),
    "grid-green-plus-sliced": (
        ["green-grid", "--kind", "green-plus", "--a", "0.01+0.02j", "--slice-axis", "x",
         "--slice-value", "0.3+0.1j", *_SMALL_GRID],
        "4b5bfe2b722d7b3d2ef2739af5693e408ed7d9afaf6b324756944fe1a54383c2",
        {
            "grid.csv": "455ea1ebe78aa8af3ee728e28a6ef9b104cb2fc4334351b52d2118b47b725f32",
            "grid.json": "81b2133a37fdb39dba91e35cad4d2978b317f3bbbcceae5bb9b0195a441ae927",
            "grid.pgm": "50737c403074f28667a2d9f95c89ce1a34010eb8e6c9d9e9aa021fe348c92ddd",
        },
    ),
    "verify": (
        ["verify"],
        "4526cbcb8e3881af473a26d1e02ebb5b14a665e441cfd17bdd6d22211ce5c63c",
        {},
    ),
    "verify-x2-1": (
        ["verify", "--a", "0.01", "--p", "x2-1"],
        "d7d28c6a77f295ed0c3ee5a0c4521b0ed75feb43ad85da9d1a92acd25812a4f8",
        {},
    ),
    "holonomy-n1": (
        ["holonomy"],
        "80dbfb2781e699d2117d73b9b2ca98b2b0aa6221a024743686f944061aa127fa",
        {},
    ),
    "holonomy-n2": (
        ["holonomy", "--n", "2"],
        "b654277df3ca8a3f209b90ae85b7955eaf61854b6d0558f0b43df217974ec898",
        {},
    ),
    "rigidity-case-defect": (
        ["rigidity", "--case", "beta_ratio", "--defect-order", "3"],
        "57f04843a1fef4d8ae787258df4611243ffb7161334ce017ada8666e51cb7175",
        {
            "defect.txt": "12c5d7f0ad5772b239e172e9ada87b7f9ea195e5b10d7ee95780de172af9074f",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(_PINNED_RUNS))
def test_reports_and_exports_are_pinned(capsys, tmp_path, monkeypatch, name):
    argv, stdout_sha256, file_sha256 = _PINNED_RUNS[name]
    monkeypatch.chdir(tmp_path)
    if "out_dir" in cli._OPTION_DEFAULTS[argv[0]]:
        argv = argv + ["--out-dir", "out"]
    assert run(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == stdout_sha256
    written = sorted(tmp_path.glob("out/*"))
    assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in written} == (
        file_sha256
    )


# ---------------------------------------------------------------------------
# python3 -m henonlocus


def _run_module(args, cwd):
    """`python3 -m henonlocus ARGS` with only the source tree on the path;
    it must print one line to stdout and nothing to stderr."""
    src = str(pathlib.Path(henonlocus.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "henonlocus", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert proc.stderr == ""
    assert proc.stdout.count("\n") == 1
    return proc.returncode, json.loads(proc.stdout, parse_constant=_reject_constant)


def test_python_dash_m_runs_the_cli(tmp_path):
    code, report = _run_module(["verify", "--suite", "core", "--samples", "5"], tmp_path)
    assert code == 0
    assert report["status"] == "ok"
    assert report["samples"] == 5
    assert report["max_plus_residual"] < 1e-9


def test_python_dash_m_reports_config_errors(tmp_path):
    code, report = _run_module(["green-grid", "--nx", "1"], tmp_path)
    assert code == 2
    assert report["status"] == "config-error"
