"""Grid evaluation of Green's functions and the PGM/CSV/JSON exports.

The degenerate backward function has the closed form log|p(y) - x| / d,
which pins every pixel of a small grid independently of the grid code's
own evaluation loop; the PGM bytes are checked against a hand-built
2x2 image.
"""

import dataclasses
import hashlib
import json
import math
import multiprocessing
import os
import struct
import threading
import time
import types

import numpy as np
import pytest

from henonlocus import _kernel, cli, dynamics, gridfield
from henonlocus.dynamics import HenonMap, Point, Polynomial
from henonlocus.errors import CertificateViolation, CoordinateOverflow
from henonlocus.escape import green
from henonlocus.gridfield import (
    GridField,
    green_grid,
    grid_sidecar,
    grid_to_csv,
    grid_to_pgm,
    worker_count,
)

SQUARE = Polynomial([0, 0, 1])
BASIC = Polynomial([-1, 0, 1])


def test_degenerate_minus_grid_matches_closed_form():
    henon = HenonMap(SQUARE, 0.0)
    grid = green_grid(
        henon,
        "green-minus",
        re_range=(1.0, 4.0),
        im_range=(-1.0, 1.0),
        nx=8,
        ny=6,
        slice_axis="y",
        slice_value=0.25,
    )
    assert grid.values.shape == (6, 8)
    res = np.linspace(1.0, 4.0, 8)
    ims = np.linspace(-1.0, 1.0, 6)
    for iy, im in enumerate(ims):
        for ix, re in enumerate(res):
            y = complex(re, im)
            expected = 0.5 * math.log(abs(henon.p(y) - 0.25))
            assert grid.values[iy, ix] == pytest.approx(expected, abs=1e-12)


def test_plus_grid_far_field_is_log_abs_x():
    henon = HenonMap(BASIC, 0.01)
    grid = green_grid(
        henon,
        "green-plus",
        re_range=(50.0, 80.0),
        im_range=(-5.0, 5.0),
        nx=5,
        ny=4,
        slice_value=1.0,
    )
    res = np.linspace(50.0, 80.0, 5)
    ims = np.linspace(-5.0, 5.0, 4)
    for iy, im in enumerate(ims):
        for ix, re in enumerate(res):
            assert abs(grid.values[iy, ix] - math.log(abs(complex(re, im)))) < 0.05


def test_interior_pixels_take_constant_values():
    henon = HenonMap(BASIC, 0.01)
    grid = green_grid(
        henon,
        "green-minus",
        re_range=(-0.1, 0.1),
        im_range=(-0.1, 0.1),
        nx=3,
        ny=3,
        slice_axis="y",
        slice_value=0.0,
    )
    constant = math.log(abs(henon.a)) / (henon.degree - 1)
    assert grid.values.min() >= constant - 1e-12


def test_tangency_grid_vanishes_on_degenerate_line():
    henon = HenonMap(SQUARE, 0.0)
    grid = green_grid(
        henon,
        "tangency",
        re_range=(-0.4, 0.4),
        im_range=(-0.4, 0.4),
        nx=9,
        ny=9,
        slice_axis="y",
        slice_value=5.0,
    )
    # |T| is smallest along the critical line y = 0 (middle row): each
    # column dips at im(y) = 0, and the center pixel y = 0 is a zero.
    for ix in range(9):
        assert grid.values[4, ix] < grid.values[0, ix]
        assert grid.values[4, ix] < grid.values[8, ix]
    assert grid.values[4, 4] < 1e-9


def test_pgm_bytes_exact():
    values = np.array([[0.0, 1.0], [2.0, 3.0]])
    grid = GridField(
        kind="green-plus",
        values=values,
        re_range=(0.0, 1.0),
        im_range=(0.0, 1.0),
        slice_axis="x",
        slice_value=0j,
        p_coefficients=(0j, 0j, 1 + 0j),
        a=0.01 + 0j,
    )
    data = grid_to_pgm(grid)
    header = b"P5\n2 2\n65535\n"
    assert data.startswith(header)
    pixels = struct.unpack(">4H", data[len(header):])
    assert pixels == (0, 21845, 43690, 65535)


def test_pgm_flat_grid_is_black():
    values = np.full((2, 3), 7.25)
    grid = GridField("green-plus", values, (0, 1), (0, 1), "x", 0j, (0j, 0j, 1 + 0j), 0j)
    data = grid_to_pgm(grid)
    assert data.endswith(b"\x00" * 12)


def test_sidecar_records_scaling():
    henon = HenonMap(SQUARE, 0.0)
    grid = green_grid(henon, "green-minus", (1, 2), (0, 1), 4, 3, slice_axis="y")
    side = json.loads(grid_sidecar(grid))
    assert side["width"] == 4 and side["height"] == 3
    assert side["min"] == pytest.approx(float(grid.values.min()))
    assert side["max"] == pytest.approx(float(grid.values.max()))
    assert side["kind"] == "green-minus"
    assert side["a"] == [0.0, 0.0]
    # keys are sorted for byte-stable output
    assert list(side) == sorted(side)


def test_sidecar_counts_non_finite_pixels():
    values = np.array([[1.0, math.nan], [math.inf, 2.0]])
    mixed = GridField("green-plus", values, (0, 1), (0, 1), "x", 0j, (0j, 0j, 1 + 0j), 0j)
    assert json.loads(grid_sidecar(mixed))["nan_pixel"] == 2


def test_all_nan_tangency_grid_has_null_span_and_black_image():
    # The y-slice at y = 0 over [-2, 2]^2 never escapes both ways at a = 0.01.
    henon = HenonMap(BASIC, 0.01)
    grid = green_grid(henon, "tangency", (-2, 2), (-2, 2), 8, 8, slice_axis="y")
    assert grid.nan_pixels == 64
    assert grid.finite_span is None
    side = json.loads(grid_sidecar(grid))
    assert side["min"] is None and side["max"] is None
    assert side["nan_pixel"] == 64
    assert grid_to_pgm(grid) == b"P5\n8 8\n65535\n" + b"\x00" * 128


def test_finite_span_skips_non_finite_pixels():
    values = np.array([[1.5, math.nan], [-math.inf, -2.0]])
    mixed = GridField("green-plus", values, (0, 1), (0, 1), "x", 0j, (0j, 0j, 1 + 0j), 0j)
    assert mixed.finite_span == (-2.0, 1.5)
    side = json.loads(grid_sidecar(mixed))
    assert (side["min"], side["max"]) == (-2.0, 1.5)


def test_csv_shape_and_values():
    henon = HenonMap(SQUARE, 0.0)
    grid = green_grid(henon, "green-minus", (1, 2), (3, 4), 3, 2, slice_axis="y")
    lines = grid_to_csv(grid).strip().splitlines()
    assert lines[0] == "x,y,value"
    assert len(lines) == 1 + 3 * 2
    first = lines[1].split(",")
    assert float(first[0]) == 1.0 and float(first[1]) == 3.0
    assert float(first[2]) == pytest.approx(grid.values[0, 0])


# The field workload's quadratic with a certified trap: about a quarter of a
# tile around the origin lies in the basin of its attracting fixed point
TRAPPED = (Polynomial([-0.6 + 0.01j, 0, 1]), 0.034 + 0.029j)

# The field workload's cubic at a = 0: its fixed point 0 is parabolic, so
# the map has no trap and interior pixels run to the 200-step cap
UNTRAPPED_CUBIC = (Polynomial([0.01, -1, 0, 1]), 0.0)

PARITY_TILES = (
    # (kind, map, geometry); the tangency tile has some NaN pixels
    ("green-plus", TRAPPED, dict(re_range=(-1.5, 1.5), slice_value=0.05j)),
    ("green-plus", UNTRAPPED_CUBIC, dict(re_range=(-1.5, 1.5), slice_value=0.05j)),
    ("green-minus", (BASIC, 0.01), dict(re_range=(-2.0, 2.0), slice_axis="y")),
    ("green-minus", (UNTRAPPED_CUBIC[0], 0.045j), dict(re_range=(-1.5, 1.5), slice_axis="y")),
    # a = 0: the batch refuses every pixel, and green gives the closed form
    ("green-minus", (BASIC, 0.0), dict(re_range=(-2.0, 2.0), slice_axis="y", slice_value=0.3)),
    ("tangency", TRAPPED, dict(re_range=(-1.5, 1.5), slice_value=0.05j)),
)


def test_grid_deterministic_across_worker_counts():
    # ny is not a multiple of the worker count, or is smaller than it; the
    # green tiles are cut into one batch block per worker
    for kind, spec, geometry in PARITY_TILES:
        for workers, ny in ((2, 5), (3, 7), (8, 3)):
            henon = HenonMap(*spec)
            kwargs = dict(im_range=(-1.5, 1.5), nx=6, ny=ny, **geometry)
            one = green_grid(henon, kind, workers=1, **kwargs)
            many = green_grid(henon, kind, workers=workers, **kwargs)
            assert np.array_equal(one.values, many.values, equal_nan=True)
            assert grid_to_pgm(one) == grid_to_pgm(many)
            assert grid_sidecar(one) == grid_sidecar(many)
            if kind == "green-plus":
                assert (henon.trap is not None) == (spec is TRAPPED)
                assert (one.values == 0).any()
            if kind == "tangency":
                assert 0 < one.nan_pixels < one.values.size


def _overflow(workers):
    # rows 1 to 3 pass the kernel's overflow guard |x| > 1e75; row 0 does not
    henon = HenonMap(BASIC, 0.01)
    with pytest.raises(CoordinateOverflow) as caught:
        green_grid(henon, "green-minus", (1.0, 2.0), (0.0, 1e80), 3, 4, workers=workers)
    return caught.value


def test_worker_error_reaches_the_caller_typed():
    one = _overflow(1)
    assert (one.step, one.point) == (0, Point(complex(1.0, 1e80 / 3), 0j))
    many = _overflow(2)
    assert type(many) is type(one)
    assert many.args == one.args
    assert (many.step, many.point) == (one.step, one.point)
    assert multiprocessing.active_children() == []


def test_lowest_failing_row_raises_whichever_worker_fails_first(monkeypatch):
    # Row 1 fails slowly and rows 2 and 3 at once; the in-process loop meets
    # row 1 first.  Forked workers inherit the patched tangency function,
    # which tangency tiles call pixel by pixel; its error is not a
    # HenonLocusError, so it is raised rather than read as a NaN pixel.
    def tangency(henon, point):
        row = round(point.x.imag)
        if row == 1:
            time.sleep(0.3)
        if row >= 1:
            raise RuntimeError(f"row {row}")
        return types.SimpleNamespace(value=0j)

    monkeypatch.setattr(gridfield, "tangency_value", tangency)
    for workers in (1, 2):
        with pytest.raises(RuntimeError) as caught:
            green_grid(HenonMap(BASIC, 0.01), "tangency", (0, 1), (0, 3), 2, 4, workers=workers)
        assert caught.value.args == ("row 1",)
    assert multiprocessing.active_children() == []


def _first_scalar_failure(henon, kind, re_range, im_range, nx, ny):
    """The error, and its pixel, that green() raises first in row order."""
    side = "plus" if kind == "green-plus" else "minus"
    for im in np.linspace(*im_range, ny):
        for re in np.linspace(*re_range, nx):
            point = Point(complex(re, im), 0j)
            try:
                green(henon, point, side)
            except Exception as exc:
                return exc, point
    raise AssertionError("no pixel fails")


def _entering_at_one(spec):
    # alpha = 1 lies below the certified radius, so product factors reach
    # |s| >= r, as in test_escape's certificate tests
    henon = HenonMap(*spec)
    henon._domain = dataclasses.replace(henon.domain_params(), alpha=1.0)
    return henon


@pytest.mark.parametrize(
    "geometry, error",
    (
        # x = 2 enters at once with s = -4/x^2 = -1: cmath.log(0); every
        # other pixel has |s| >= r
        (((2.0, 2.5), (0.0, -1.5), 3, 4), ValueError),
        (((2.25, 2.5), (0.0, -1.5), 3, 4), CertificateViolation),
    ),
)
def test_batch_tiles_raise_the_first_scalar_error(monkeypatch, geometry, error):
    # Every pixel of both blocks fails; the batch hands its failing pixels
    # to green() in row order, and the lowest block's error reaches the
    # caller, with the pixel the scalar loop meets first
    spec = (Polynomial([-4, 0, 1]), 0.0)
    expected, point = _first_scalar_failure(_entering_at_one(spec), "green-plus", *geometry)
    assert type(expected) is error

    def spy(henon, point, side):
        try:
            return green(henon, point, side)
        except Exception as exc:
            exc.pixel = point
            raise

    monkeypatch.setattr(gridfield, "green", spy)
    for workers in (1, 2):
        with pytest.raises(error) as caught:
            green_grid(_entering_at_one(spec), "green-plus", *geometry, workers=workers)
        assert caught.value.args == expected.args
        assert caught.value.pixel == point
        if error is CertificateViolation:
            assert (caught.value.smax, caught.value.depth) == (expected.smax, expected.depth)
    assert multiprocessing.active_children() == []


def test_non_finite_log_phi_from_the_batch_is_refused_by_green():
    # A subnormal a: 1/a is inf, and the minus kernel's log phi is NaN
    henon = HenonMap(BASIC, 1e-309)
    for workers in (1, 2):
        with pytest.raises(CertificateViolation, match="non-finite .* minus side"):
            green_grid(henon, "green-minus", (1.5, 2.0), (0.0, 0.3), 3, 4, workers=workers)


def test_no_worker_outlives_the_call():
    # nor a pool thread, which would make the next call fork a threaded process
    threads = threading.enumerate()
    green_grid(HenonMap(BASIC, 0.01), "green-minus", (1, 2), (0, 1), 3, 4, workers=2)
    assert multiprocessing.active_children() == []
    assert threading.enumerate() == threads


def test_trap_is_computed_once_in_the_caller(monkeypatch):
    # a counter in shared memory also sees calls made in forked workers
    calls = multiprocessing.get_context("fork").Value("i", 0)
    compute = dynamics.attracting_trap

    def counted(henon):
        with calls.get_lock():
            calls.value += 1
        return compute(henon)

    monkeypatch.setattr(dynamics, "attracting_trap", counted)
    minus = HenonMap(*TRAPPED)
    for _ in range(2):
        green_grid(minus, "green-minus", (-1, 1), (-1, 1), 4, 4, slice_axis="y", workers=2)
    assert calls.value == 0
    henon = HenonMap(*TRAPPED)
    for _ in range(2):
        green_grid(henon, "green-plus", (-1, 1), (-1, 1), 4, 4, slice_value=0.05j, workers=2)
    assert calls.value == 1
    assert henon.trap is not None
    assert calls.value == 1


def test_only_tangency_pixels_carry_the_jacobian(monkeypatch):
    # g+ and g- read log phi alone, so their tiles run the batch's value-only
    # loops and make no scalar kernel call; the tangency determinant reads
    # both gradients, from scalar kernel calls that carry the Jacobian.
    # escape and the kernel look these routines up at call time.
    calls = {"phi_plus_eval": 0, "phi_minus_eval": 0, "horner_with_deriv": 0}
    for name in calls:
        routine = getattr(_kernel, name)

        def counting(*args, name=name, routine=routine):
            calls[name] += 1
            return routine(*args)

        monkeypatch.setattr(_kernel, name, counting)
    henon = HenonMap(BASIC, 0.01)
    box = ((-2.5, 2.5), (-2.5, 2.5), 8, 8)
    green_grid(henon, "green-plus", *box, slice_value=0.3, workers=1)
    green_grid(henon, "green-minus", *box, slice_axis="y", slice_value=0.3, workers=1)
    assert calls == dict.fromkeys(calls, 0)
    green_grid(henon, "tangency", *box, slice_value=0.3, workers=1)
    assert calls["phi_plus_eval"] > 0 and calls["horner_with_deriv"] > 0


def test_worker_count_explicit_else_cpu_count():
    assert worker_count(5) == 5
    with pytest.raises(ValueError):
        worker_count(0)
    assert worker_count(None) == (os.cpu_count() or 1)


def test_unknown_kind_rejected():
    henon = HenonMap(SQUARE, 0.0)
    with pytest.raises(ValueError):
        green_grid(henon, "potential", (0, 1), (0, 1), 2, 2)


@pytest.mark.parametrize(
    "geometry",
    (
        dict(re_range=(math.nan, 1.0)),
        dict(re_range=(0.0, math.inf)),
        dict(im_range=(-math.inf, 1.0)),
        dict(slice_value=complex(0.5, math.nan)),
    ),
)
def test_non_finite_geometry_rejected(geometry):
    # NaN pixels would read as g+ = 0 and export as a valid grid
    kwargs = {"re_range": (0.0, 1.0), "im_range": (0.0, 1.0), "nx": 4, "ny": 4, **geometry}
    with pytest.raises(ValueError, match="must be finite"):
        green_grid(HenonMap(BASIC, 0.01), "green-plus", **kwargs)


@pytest.mark.parametrize("kind", ("green-plus", "green-minus"))
def test_pixels_past_the_float_range_are_refused_typed(kind, capsys):
    # A range wider than the largest float would sample NaN and inf pixels:
    # it is refused where it enters, which the CLI reports as a
    # configuration error
    henon = HenonMap(BASIC, 0.01)
    for workers in (1, 2):
        for ranges in (((-1.7e308, 1.7e308), (0, 1)), ((0, 1), (-1.7e308, 1.7e308))):
            with pytest.raises(ValueError, match="widths must be finite"):
                green_grid(henon, kind, *ranges, 3, 2, workers=workers)
    argv = ["green-grid", "--kind", kind, "--re-min=-1.7e308", "--re-max", "1.7e308"]
    assert cli.run([*argv, "--nx", "3", "--ny", "2"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "config-error"
    assert "widths must be finite" in report["error"]


def test_blocks_hand_non_finite_pixels_to_green():
    # green_grid refuses such ranges; a block that meets a non-finite pixel
    # all the same hands it to green(), which refuses it typed
    job = (HenonMap(BASIC, 0.01), "green-plus", np.array([0.5, math.inf]), np.zeros(2), 0j, "x")
    with pytest.raises(CoordinateOverflow) as caught:
        gridfield._block(job, range(2))
    assert caught.value.args == ("non-finite point ((inf+0j), 0j)",)


# sha256 of PGM + sidecar + CSV of 64x64 tiles of the field workload's
# quadratic, recorded before the kernel stopped trapped orbits early: about
# a quarter of the pixels lie in the basin of the attracting fixed point
PINNED_TILES = {
    "green-plus": "6e2bda3212d52c9dd784352bdb40d3b5227c8edac83907508f948a87e0ff4519",
    "tangency": "7d1d212fed334ce5fd326ba7da0edec4d9e2e9609fc9f5b01605ed9d6b91b0eb",
}


@pytest.mark.parametrize("kind", sorted(PINNED_TILES))
def test_trapped_tiles_keep_their_bytes(kind):
    henon = HenonMap(*TRAPPED)
    grid = green_grid(
        henon, kind, (-1.5, 1.5), (-1.5, 1.5), 64, 64, slice_axis="x", slice_value=0.05j
    )
    assert henon.trap is not None
    interior = grid.nan_pixels if kind == "tangency" else int((grid.values == 0).sum())
    assert interior == 1111
    digest = hashlib.sha256()
    for part in (grid_to_pgm(grid), grid_sidecar(grid).encode(), grid_to_csv(grid).encode()):
        digest.update(part)
    assert digest.hexdigest() == PINNED_TILES[kind]
