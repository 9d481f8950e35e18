"""Rectangular grids of escape-rate and tangency magnitudes, with exports.

A grid samples one complex coordinate over a rectangle while the other is
pinned (a horizontal or vertical slice of C^2).  Every tile is cut into
one block of contiguous rows per process, rendered by `workers` processes
(default: the CPU count) forked so that each inherits the map with its
escape domain and trap computed, or in-process where the platform cannot
fork or one process is asked for.  Blocks are assembled in row order, so
outputs are byte-reproducible whatever the worker count.

A g+ or g- block is one call of the batch kernel `_batch` without the
gradient, whose every pixel's (status, k, log phi, smax) is bitwise the
scalar kernel's: K+/K- pixels take `green`'s interior value, escaping ones
the real part of log phi, and every other pixel (one whose scalar
evaluation raises, and g- at a = 0, a closed form) goes to `green` itself
in row order, so a block's first error is the scalar path's own.

A tangency block is one plus-side batch call with the gradient, at
`tangency_value`'s depth, then one minus-side call over the pixels the
plus side accepts; the determinant and scale are formed split-real, as
`locus._tangency` forms them.  A pixel that the scalar path refuses with
a HenonLocusError (no escape, overflow, |s| >= r, a non-finite log phi or
gradient) is NaN, and every pixel the batch cannot vouch for (the scalar
kernel raises, an abs overflows, or a coordinate is not finite) goes to
`tangency_value` itself, in row order.  At a = 0 that is every pixel the
plus side accepts: the minus batch raises there, as 1/a does, and
`tangency_value` takes the minus side's closed form.

Exports: binary 16-bit PGM (P5, big-endian, row-major, affine scaling
recorded in a JSON sidecar) and CSV rows (x, y, value).
"""

import math
import multiprocessing
import numbers
import os
from dataclasses import dataclass

import numpy as np

from . import _batch
from ._kernel import NO_ESCAPE, OK
from .dynamics import HenonMap, Point, to_json
from .errors import HenonLocusError
from .escape import DEFAULT_CAP, DEFAULT_TOL, GREEN_TOL, _call_args, _interior_green, green
from .locus import DEPTH_FACTOR, tangency_value

_KINDS = ("green-plus", "green-minus", "tangency")
PGM_MAXVAL = 65535


@dataclass(frozen=True, eq=False)
class GridField:
    kind: str
    values: np.ndarray  # float64, shape (ny, nx); row 0 at the lowest imag
    re_range: tuple
    im_range: tuple
    slice_axis: str  # pixel coordinate: "x" (y pinned) or "y" (x pinned)
    slice_value: complex
    p_coefficients: tuple
    a: complex

    @property
    def nan_pixels(self) -> int:
        """Number of non-finite pixels (NaN where no value could be computed)."""
        return int(np.count_nonzero(~np.isfinite(self.values)))

    @property
    def finite_span(self):
        """(min, max) over the finite pixels, or None when there are none."""
        finite = self.values[np.isfinite(self.values)]
        if finite.size == 0:
            return None
        return float(finite.min()), float(finite.max())


def worker_count(requested):
    """Explicit request, else the machine's CPU count.  A request must be an
    integer: a bool or a float (2.7, or even 2.0) is refused, not rounded."""
    if requested is None:
        return os.cpu_count() or 1
    if isinstance(requested, bool) or not isinstance(requested, numbers.Integral):
        raise ValueError(f"worker count must be an integer, got {requested!r}")
    if requested < 1:
        raise ValueError("worker count must be positive")
    return int(requested)


# (render function, grid) of a forked worker, set by _adopt in the worker only
_work = None


def _adopt(work):
    global _work
    _work = work


def _forked(task):
    render, job = _work
    return render(job, task)


def _pixels(job, rows):
    """(x, y) of the pixels of rows `rows` (a range), row-major; each
    coordinate is a pair of float64 arrays, its real and imaginary parts."""
    henon, kind, res, ims, pin, slice_axis = job
    c = (np.tile(res, len(rows)), np.repeat(ims[rows.start : rows.stop], len(res)))
    p = (np.full(c[0].shape, pin.real), np.full(c[0].shape, pin.imag))
    return (c, p) if slice_axis == "x" else (p, c)


def _point(x, y, i):
    return Point(complex(x[0][i], x[1][i]), complex(y[0][i], y[1][i]))


def _escaped(status, smax, r, *parts):
    """Where the scalar path accepts a batch escape value as it stands:
    status OK, every factor |s| < r, and every part finite."""
    return (status == OK) & (smax < r) & np.isfinite(parts).all(0)


def _block(job, rows):
    """Rows `rows` (a range) of a g+ or g- tile, from one batch kernel call."""
    henon, kind = job[:2]
    side = "plus" if kind == "green-plus" else "minus"
    x, y = _pixels(job, rows)
    dp, K, alpha, trap = _call_args(henon, side, GREEN_TOL, None)
    args = (henon.p.coefficients, henon.a, *x, *y, K, alpha, DEFAULT_CAP)
    if side == "plus":
        status, _, (values, logphi_im), _, _, smax = _batch.phi_plus_batch(*args, trap, False)
    else:
        status, _, (values, logphi_im), _, _, smax = _batch.phi_minus_batch(*args, False)
    # the batch value stands where the scalar path returns it: a pixel in
    # K+/K-, or an escaping one whose smax and log phi _run accepts
    interior = status == NO_ESCAPE
    escaped = _escaped(status, smax, dp.r, values, logphi_im)
    kept = (interior | escaped) & np.isfinite([*x, *y]).all(0)
    if interior.any():
        values[interior] = _interior_green(henon, side)
    # every other pixel raises in the scalar path, or takes its closed form
    # (g- at a = 0): green gives its value or its error, in row order
    for i in np.flatnonzero(~kept).tolist():
        values[i] = green(henon, _point(x, y, i), side).value
    return values.reshape(len(rows), -1)


def _tangency_rows(job, rows):
    """Rows `rows` (a range) of a tangency tile, from one gradient batch
    call per side: |tangency|, NaN where the scalar path refuses it."""
    henon = job[0]
    coeffs, a = henon.p.coefficients, henon.a
    x, y = _pixels(job, rows)
    # tangency_value's depth: both sides enter past DEPTH_FACTOR * alpha
    dp, K, alpha, trap = _call_args(
        henon, "plus", DEFAULT_TOL, DEPTH_FACTOR * henon.domain_params().alpha
    )
    status, _, logphi, g1x, g1y, smax = _batch.phi_plus_batch(
        coeffs, a, *x, *y, K, alpha, DEFAULT_CAP, trap, True
    )
    # NaN stays where the scalar path raises a HenonLocusError on either
    # side; `scalar` marks the pixels tangency_value itself must give
    scalar = (status == _batch.RAISES) | ~np.isfinite([*x, *y]).all(0)
    plus = np.flatnonzero(_escaped(status, smax, dp.r, *logphi, *g1x, *g1y))
    values = np.full(len(status), math.nan)
    if plus.size:
        (xr, xi), (yr, yi), g1x, g1y = [[part[plus] for part in z] for z in (x, y, g1x, g1y)]
        dp, K, alpha, _ = _call_args(henon, "minus", DEFAULT_TOL, alpha)
        status, _, logphi, g2x, g2y, smax = _batch.phi_minus_batch(
            coeffs, a, xr, xi, yr, yi, K, alpha, DEFAULT_CAP, True
        )
        scalar[plus[status == _batch.RAISES]] = True
        both = _escaped(status, smax, dp.r, *logphi, *g2x, *g2y)
        # det = g1x g2y - g2x g1y, scale = d |x| |p(y) - x|, pixel |det scale|
        dr, di = _batch._mul(*g1x, *g2y)
        er, ei = _batch._mul(*g2x, *g1y)
        ax, over_x = _batch._abs(xr, xi)
        pr, pi = _batch._horner(coeffs, yr, yi)
        ap, over_p = _batch._abs(pr - xr, pi - xi)
        scale = henon.degree * ax * ap
        pixel, over = _batch._abs(*_batch._mul(dr - er, di - ei, scale, 0.0))
        values[plus[both]] = pixel[both]
        scalar[plus[both & (over_x | over_p | over)]] = True
    for i in np.flatnonzero(scalar).tolist():
        try:
            values[i] = abs(tangency_value(henon, _point(x, y, i)).value)
        except HenonLocusError:
            values[i] = math.nan
    return values.reshape(len(rows), -1)


def green_grid(
    henon: HenonMap,
    kind: str,
    re_range,
    im_range,
    nx: int,
    ny: int,
    *,
    slice_axis: str = "x",
    slice_value: complex = 0j,
    workers=None,
) -> GridField:
    """Sample g+, g-, or |tangency| on an nx-by-ny rectangle of one slice."""
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
    if slice_axis not in ("x", "y"):
        raise ValueError("slice_axis must be 'x' or 'y'")
    if nx < 2 or ny < 2:
        raise ValueError("grid needs at least 2 samples per axis")
    bounds = (float(re_range[0]), float(re_range[1]), float(im_range[0]), float(im_range[1]))
    pin = complex(slice_value)
    if not all(map(math.isfinite, (*bounds, pin.real, pin.imag))):
        raise ValueError("grid ranges and slice value must be finite")
    if not (math.isfinite(bounds[1] - bounds[0]) and math.isfinite(bounds[3] - bounds[2])):
        raise ValueError("grid range widths must be finite floats")
    res = np.linspace(*bounds[:2], nx)
    ims = np.linspace(*bounds[2:], ny)
    # computed here, so that forked workers inherit them and the map keeps them
    henon.domain_params()
    if kind != "green-minus":
        henon.trap
    job = (henon, kind, res, ims, pin, slice_axis)
    processes = min(worker_count(workers), ny)
    # one block of rows per process, each a batch call (a pair for tangency)
    render = _tangency_rows if kind == "tangency" else _block
    cuts = [ny * i // processes for i in range(processes + 1)]
    tasks = [range(*cut) for cut in zip(cuts, cuts[1:])]
    if processes == 1 or "fork" not in multiprocessing.get_all_start_methods():
        rows = [render(job, task) for task in tasks]
    else:
        # The job reaches the workers by fork, unpickled.  imap, one block
        # at a time, raises the lowest failing block's error, as the
        # in-process loop does; leaving the block stops every worker.
        fork = multiprocessing.get_context("fork")
        with fork.Pool(processes, initializer=_adopt, initargs=((render, job),)) as pool:
            rows = list(pool.imap(_forked, tasks, 1))
    values = np.vstack(rows)
    return GridField(
        kind=kind,
        values=values,
        re_range=bounds[:2],
        im_range=bounds[2:],
        slice_axis=slice_axis,
        slice_value=pin,
        p_coefficients=tuple(henon.p.coefficients),
        a=complex(henon.a),
    )


def grid_to_pgm(grid: GridField) -> bytes:
    """16-bit big-endian P5 bytes; pixels affinely scaled onto 0..65535.

    Non-finite pixels are black, and so is every pixel of a flat grid or of
    a grid with no finite pixel.
    """
    lo, hi = grid.finite_span or (0.0, 0.0)
    ny, nx = grid.values.shape
    header = f"P5\n{nx} {ny}\n{PGM_MAXVAL}\n".encode("ascii")
    span = hi - lo
    if span <= 0.0:
        scaled = np.zeros((ny, nx))
    else:
        scaled = (grid.values - lo) / span * PGM_MAXVAL
        scaled = np.where(np.isfinite(scaled), scaled, 0.0)
    pixels = np.clip(np.rint(scaled), 0, PGM_MAXVAL).astype(">u2")
    return header + pixels.tobytes()


def grid_sidecar(grid: GridField) -> str:
    """JSON metadata needed to undo the PGM scaling, keys sorted.

    `min`/`max` span the finite pixels and are null when there are none.
    """
    lo, hi = grid.finite_span or (None, None)
    ny, nx = grid.values.shape
    data = {
        "kind": grid.kind,
        "width": nx,
        "height": ny,
        "re_range": grid.re_range,
        "im_range": grid.im_range,
        "slice_axis": grid.slice_axis,
        "slice_value": grid.slice_value,
        "p_coefficients": grid.p_coefficients,
        "a": grid.a,
        "min": lo,
        "max": hi,
        "maxval": PGM_MAXVAL,
        "nan_pixel": grid.nan_pixels,
        "row0": "lowest imaginary coordinate",
    }
    return to_json(data, 2)


def grid_to_csv(grid: GridField) -> str:
    """Rows x,y,value with x the real and y the imaginary pixel coordinate."""
    ny, nx = grid.values.shape
    res = np.linspace(*grid.re_range, nx).tolist()
    ims = np.linspace(*grid.im_range, ny).tolist()
    lines = ["x,y,value"]
    for im, row in zip(ims, grid.values.tolist()):
        lines += [f"{re!r},{im!r},{value!r}" for re, value in zip(res, row)]
    return "\n".join(lines) + "\n"
