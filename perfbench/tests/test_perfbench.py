"""Tests of the benchmark itself (run: python3 -m pytest perfbench/tests)."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import henonlocus as hl
from henonlocus import rigidity

import inputs
import tracing
import workloads
from conftest import BENCH, ROOT

COUNTS = ("kernel.calls", "series.mp_mul_pairs", "manifolds.uv_calls", "locus.tangency_calls")


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_inputs_are_a_pure_function_of_the_seed():
    assert inputs.field_tiles(7, 12) == inputs.field_tiles(7, 12)
    assert inputs.certify_maps(7, 12) == inputs.certify_maps(7, 12)
    assert inputs.field_tiles(7, 12) != inputs.field_tiles(8, 12)
    assert inputs.certify_maps(7, 12) != inputs.certify_maps(8, 12)
    # a longer pool extends a shorter one
    assert inputs.field_tiles(7, 24)[:12] == inputs.field_tiles(7, 12)


def test_inputs_meet_the_documented_preconditions():
    specs = [t.map for t in inputs.field_tiles(3, 60)]
    specs += [c.map for c in inputs.certify_maps(3, 60)]
    for spec in specs:
        assert spec.coeffs[-1] == 1 and len(spec.coeffs) in (3, 4)
        assert abs(spec.a) < inputs.R_JACOBIAN
    assert any(spec.a == 0 for spec in specs)
    for c in inputs.certify_maps(3, 60):
        if c.fixed_point is not None:
            henon = hl.HenonMap(hl.Polynomial(c.map.coeffs), 0)
            assert abs(henon.p(c.fixed_point) - c.fixed_point) < 1e-12
            assert abs(henon.p.derivative(c.fixed_point)) > 1  # repelling


def _spans(spans):
    # (id, name, t0, t1, c0, c1, parent, op, thread, info); CPU = wall / 2
    return [(s[0], s[1], s[2], s[3], s[2] / 2, s[3] / 2, s[4], 1, 0, None) for s in spans]


def test_self_time_subtracts_what_children_cover():
    spans = _spans(
        [
            (1, "root", 0.0, 10.0, None),
            (2, "a", 1.0, 4.0, 1),
            (3, "b", 3.5, 6.0, 1),
            (4, "leaf", 2.0, 3.0, 2),
            (5, "c", 8.0, 9.0, 1),
        ]
    )
    own = tracing.self_times(spans)
    assert own == {1: pytest.approx(4.0), 2: pytest.approx(2.0), 3: pytest.approx(2.5),
                   4: pytest.approx(1.0), 5: pytest.approx(1.0)}
    cpu = tracing.self_times(spans, clock="cpu")
    assert cpu[1] == pytest.approx(2.0)
    # dropping "a" hands its child to the root: [2,3] + [3.5,6] + [8,9]
    kept = tracing.self_times(spans, keep=lambda s: s[1] != "a")
    assert set(kept) == {1, 3, 4, 5}
    assert kept[1] == pytest.approx(10.0 - 1.0 - 2.5 - 1.0)


def _first_ops(name, seed, count):
    workload = workloads.setup(name, seed, 2)
    return [op for op, _ in zip(workload.ops(), range(count))]


def _traced(ops):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        results = []
        for k, op in enumerate(ops, 1):
            tracer.op = k
            results.append(op.digest(op.run()))
            tracer.op = None
    finally:
        tracer.uninstall()
    return results, tracer


def test_traced_ops_return_the_untraced_results():
    originals = (hl.phi_plus, tracing.escape.green, tracing._kernel.phi_plus_eval,
                 tracing.MultiPoly.__mul__, tracing.TruncSeries.__mul__)
    for name, count in (("field", 1), ("certify", 7)):
        plain = [op.digest(op.run()) for op in _first_ops(name, 11, count)]
        traced, tracer = _traced(_first_ops(name, 11, count))
        assert traced == plain
        assert tracer.spans
    assert originals == (hl.phi_plus, tracing.escape.green, tracing._kernel.phi_plus_eval,
                         tracing.MultiPoly.__mul__, tracing.TruncSeries.__mul__)


def test_traced_counts_repeat_at_a_fixed_seed():
    runs = []
    for _ in range(2):
        _, tracer = _traced(_first_ops("certify", 5, 7))
        runs.append(tracing.layer_metrics(tracer.spans, 2, tracer.main_thread))
    assert runs[0]["kernel.calls"] > 0 and runs[0]["manifolds.uv_calls"] > 0
    assert [runs[0][k] for k in COUNTS] == [runs[1][k] for k in COUNTS]

    series = []
    for _ in range(2):
        for cached in (rigidity.chart_series, rigidity.sigma_series, rigidity.rigidity_defect):
            cached.cache_clear()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            tracer.op = 1
            hl.defect_coefficients_text(4)
        finally:
            tracer.op = None
            tracer.uninstall()
        series.append(tracing.layer_metrics(tracer.spans, 2, tracer.main_thread))
    assert series[0]["series.mp_mul_pairs"] > 0
    assert series[0]["series.mp_mul_pairs"] == series[1]["series.mp_mul_pairs"]
    assert 0 < series[0]["series.trim_keep_ratio"] <= 1


@pytest.mark.parametrize("workload", ["field", "certify", "rigidity"])
def test_one_op_smoke_run_prints_every_end_to_end_metric(workload):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in _benchmark()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", ["field", "certify"])
def test_one_op_traced_run_prints_every_per_layer_metric(workload):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expected = {m["name"]: m["unit"] for m in _benchmark()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run("--workload", "field", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
