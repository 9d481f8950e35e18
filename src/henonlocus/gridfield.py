"""Rectangular grids of escape-rate and tangency magnitudes, with exports.

A grid samples one complex coordinate over a rectangle while the other is
pinned (a horizontal or vertical slice of C^2).  Pixels are independent,
so rows are rendered by `workers` processes (default: the machine's CPU
count), forked so that each inherits the map with its escape domain and
trap already computed; where the platform cannot fork, or one process is
asked for, the rows are rendered in-process.

g+ tiles, and g- tiles at a != 0, are cut into one block of contiguous rows
per process, and each block is one call of the batch kernel (`_batch`); a
block of one row would cost more than the scalar loop.  The batch carries
each complex operation of the scalar kernel's value path as CPython's own
float64 formula on separate real and imaginary arrays, and takes its logs
and exps from cmath, so every pixel's (status, k, log phi, smax) is
bitwise the scalar kernel's, whichever block it falls in.  A pixel the
batch leaves in K+/K- takes `green`'s interior value, an escaping pixel
the real part of its log phi.  A pixel whose scalar evaluation raises is
recomputed by `green` itself, in row order, so the first error a block
meets is the scalar path's own.  Tangency tiles, and g- at a = 0 (a closed
form), run `tangency_value` or `green` pixel by pixel.  Either way rows
are assembled in order, so outputs are byte-reproducible for a given
configuration whatever the worker count.

Exports: binary 16-bit PGM (P5, big-endian, row-major, affine scaling
recorded in a JSON sidecar) and CSV rows (x, y, value).
"""

import math
import multiprocessing
import os
from dataclasses import dataclass

import numpy as np

from . import _batch
from ._kernel import NO_ESCAPE, OK, OVERFLOW
from .dynamics import HenonMap, Point, to_json
from .errors import HenonLocusError
from .escape import DEFAULT_CAP, GREEN_TOL, _interior_green, green, truncation_K
from .locus import tangency_value

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
    """Explicit request, else the machine's CPU count."""
    if requested is not None:
        n = int(requested)
        if n < 1:
            raise ValueError("worker count must be positive")
        return n
    return os.cpu_count() or 1


# (render function, grid) of a forked worker, set by _adopt in the worker only
_work = None


def _adopt(work):
    global _work
    _work = work


def _forked(task):
    render, job = _work
    return render(job, task)


def _block(job, rows):
    """Rows `rows` (a range) of a g+ or g- tile, from one batch kernel call."""
    henon, kind, res, ims, pin, slice_axis = job
    side = "plus" if kind == "green-plus" else "minus"
    nx = len(res)
    c = (np.tile(res, len(rows)), np.repeat(ims[rows.start : rows.stop], nx))
    p = (np.full(c[0].shape, pin.real), np.full(c[0].shape, pin.imag))
    x, y = (c, p) if slice_axis == "x" else (p, c)
    dp = henon.domain_params()
    K = truncation_K(henon.degree, dp.r, GREEN_TOL)
    args = (henon.p.coefficients, henon.a, *x, *y, K, dp.alpha, DEFAULT_CAP)
    if side == "plus":
        trap = henon.trap
        kernel_trap = None if trap is None else trap.kernel_trap(dp.alpha)
        status, _, logphi, logphi_im, smax = _batch.phi_plus_batch(*args, kernel_trap)
    else:
        status, _, logphi, logphi_im, smax = _batch.phi_minus_batch(*args)
    values = np.where(status == NO_ESCAPE, _interior_green(henon, side), logphi)
    # every pixel where the scalar path raises: the kernel raises or
    # overflows, or escape._run refuses its smax or log phi, or its point
    fine = (smax < dp.r) & np.isfinite(logphi) & np.isfinite(logphi_im)
    scalar = (status == _batch.RAISES) | (status == OVERFLOW) | ((status == OK) & ~fine)
    for part in (*x, *y):
        scalar |= ~np.isfinite(part)
    for i in np.flatnonzero(scalar).tolist():
        point = Point(complex(x[0][i], x[1][i]), complex(y[0][i], y[1][i]))
        values[i] = green(henon, point, side).value
    return values.reshape(len(rows), nx)


def _row(job, iy):
    henon, kind, res, ims, pin, slice_axis = job
    out = np.empty(len(res), dtype=float)
    for ix, re in enumerate(res):
        c = complex(re, ims[iy])
        point = Point(c, pin) if slice_axis == "x" else Point(pin, c)
        out[ix] = _pixel_value(henon, kind, point)
    return out


def _pixel_value(henon, kind, point):
    if kind == "tangency":
        try:
            return abs(tangency_value(henon, point).value)
        except HenonLocusError:
            return math.nan
    side = "plus" if kind == "green-plus" else "minus"
    return green(henon, point, side).value


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
    res = np.linspace(*bounds[:2], nx)
    ims = np.linspace(*bounds[2:], ny)
    # computed here, so that forked workers inherit them and the map keeps them
    henon.domain_params()
    if kind != "green-minus":
        henon.trap
    job = (henon, kind, res, ims, pin, slice_axis)
    processes = min(worker_count(workers), ny)
    if kind == "tangency" or (kind == "green-minus" and henon.a == 0):
        render, tasks, chunk = _row, range(ny), -(-ny // (4 * processes))
    else:
        cuts = [ny * i // processes for i in range(processes + 1)]
        render, tasks, chunk = _block, [range(*cut) for cut in zip(cuts, cuts[1:])], 1
    if processes == 1 or "fork" not in multiprocessing.get_all_start_methods():
        rows = [render(job, task) for task in tasks]
    else:
        # The job reaches the workers by fork, unpickled.  imap, in chunks
        # as map takes them, raises the lowest failing task's error, as the
        # in-process loop does; leaving the block stops every worker.
        fork = multiprocessing.get_context("fork")
        with fork.Pool(processes, initializer=_adopt, initargs=((render, job),)) as pool:
            rows = list(pool.imap(_forked, tasks, chunk))
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
    res = np.linspace(grid.re_range[0], grid.re_range[1], nx)
    ims = np.linspace(grid.im_range[0], grid.im_range[1], ny)
    lines = ["x,y,value"]
    for iy in range(ny):
        for ix in range(nx):
            lines.append(
                f"{float(res[ix])!r},{float(ims[iy])!r},{float(grid.values[iy, ix])!r}"
            )
    return "\n".join(lines) + "\n"
