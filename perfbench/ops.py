"""Operations of the field and certify workloads, and their certificate checks.

Every library call goes through attributes of the `henonlocus` package at
call time, so the traced run can rebind them.  An operation returns its
raw results; `check_*` returns None when every certificate holds and a
one-line description of the first violated one otherwise.  `digest_*`
reduces a result to plain values so a traced and an untraced run can be
compared for identity.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math

import numpy as np

import henonlocus as hl
from henonlocus.errors import HenonLocusError, NotInEscapeRegion

from inputs import GRID

COVER_RADII = (2.0, 8.0, 32.0)  # verify_biholomorphism's default radii
GREEN_TOL = 1e-9  # green_grid's per-pixel tolerance
ROUNDING = 1e-11  # floating-point allowance on top of the certified tails


def build_map(spec) -> hl.HenonMap:
    return hl.HenonMap(hl.Polynomial(spec.coeffs), spec.a)


# ----------------------------------------------------------------- field


def field_op(tile, henon, workers):
    grid = hl.green_grid(
        henon,
        tile.kind,
        tile.re_range,
        tile.im_range,
        GRID,
        GRID,
        slice_axis=tile.slice_axis,
        slice_value=tile.slice_value,
        workers=workers,
    )
    return grid, hl.grid_to_pgm(grid), hl.grid_sidecar(grid), hl.grid_to_csv(grid)


def _pixel_point(tile, ix, iy):
    # the exact coordinates green_grid samples
    res = np.linspace(float(tile.re_range[0]), float(tile.re_range[1]), GRID)
    ims = np.linspace(float(tile.im_range[0]), float(tile.im_range[1]), GRID)
    c = complex(res[ix], ims[iy])
    pin = complex(tile.slice_value)
    return hl.Point(c, pin) if tile.slice_axis == "x" else hl.Point(pin, c)


def _escape(henon, point, side):
    """Scalar EscapeValue at the default tolerance, or None on the cap."""
    fn = hl.phi_plus if side == "plus" else hl.phi_minus
    try:
        return fn(henon, point)
    except NotInEscapeRegion:
        return None


def _check_green_pixel(henon, point, side, value):
    d = henon.degree
    dp = henon.domain_params()
    if side == "minus" and henon.a == 0:
        exact = math.log(abs(henon.p(point.y) - point.x)) / d
        if abs(value - exact) > ROUNDING * max(1.0, abs(exact)):
            return f"g- closed form {exact!r} != grid {value!r}"
        return None
    ev = _escape(henon, point, side)
    if ev is None:
        interior = 0.0 if side == "plus" else math.log(abs(henon.a)) / (d - 1)
        if value != interior:
            return f"capped g{side} pixel reads {value!r}, not the interior value"
        return None
    grid_tail = hl.tail_bound(d, dp.r, hl.truncation_K(d, dp.r, GREEN_TOL))
    slack = grid_tail + ev.tail_bound + ROUNDING * max(1.0, abs(value))
    if abs(value - ev.log_value.real) > slack:
        return f"g{side} grid {value!r} vs scalar {ev.log_value.real!r} beyond {slack:.3g}"
    return _check_green_equation(henon, point, side, ev)


def _check_green_equation(henon, point, side, ev):
    """g+(f z) = d g+(z) and g-(f^-1 z) = d g-(z) - log|a| within the tails."""
    d = henon.degree
    if side == "plus":
        image = _escape(henon, henon.apply(point), "plus")
        expected = d * ev.log_value.real
    else:
        image = _escape(henon, henon.apply_inverse(point), "minus")
        expected = d * ev.log_value.real - math.log(abs(henon.a))
    if image is None:
        return f"the image of an escaping point did not escape ({side})"
    slack = image.tail_bound + d * ev.tail_bound + ROUNDING * max(1.0, abs(expected))
    if abs(image.log_value.real - expected) > slack:
        return f"g{side} functional equation off by {abs(image.log_value.real - expected):.3g}"
    return None


def _check_tangency_pixel(henon, point, value):
    try:
        tv = hl.tangency_value(henon, point)
    except HenonLocusError:
        if not math.isnan(value):
            return f"tangency pixel {value!r} where the scalar path refuses"
        return None
    # the determinant carries no certified tail: allow rounding only
    if abs(abs(tv.value) - value) > 1e-9 * max(1.0, abs(tv.value)):
        return f"tangency grid {value!r} vs scalar {abs(tv.value)!r}"
    for side in ("plus", "minus"):
        if side == "minus" and henon.a == 0:
            continue
        ev = _escape(henon, point, side)
        problem = _check_green_equation(henon, point, side, ev)
        if problem:
            return problem
    return None


def check_field(tile, henon, result):
    grid, pgm, sidecar, csv = result
    if grid.values.shape != (GRID, GRID):
        return f"grid shape {grid.values.shape}"
    header = f"P5\n{GRID} {GRID}\n65535\n".encode("ascii")
    if not pgm.startswith(header) or len(pgm) != len(header) + 2 * GRID * GRID:
        return f"PGM is {len(pgm)} bytes"
    try:
        meta = json.loads(sidecar, parse_constant=_reject_constant)
    except ValueError as exc:
        return f"sidecar is not strict JSON: {exc}"
    if (meta.get("width"), meta.get("height"), meta.get("kind")) != (GRID, GRID, tile.kind):
        return "sidecar width/height/kind mismatch"
    if not csv.endswith("\n") or csv.count("\n") != GRID * GRID + 1:
        return f"CSV has {csv.count(chr(10))} lines"
    for ix, iy in tile.check_pixels:
        point = _pixel_point(tile, ix, iy)
        value = float(grid.values[iy, ix])
        if tile.kind == "tangency":
            problem = _check_tangency_pixel(henon, point, value)
        else:
            side = "plus" if tile.kind == "green-plus" else "minus"
            problem = _check_green_pixel(henon, point, side, value)
        if problem:
            return f"pixel ({ix}, {iy}): {problem}"
    return None


def _reject_constant(name):
    raise ValueError(f"non-finite constant {name}")


def digest_field(result):
    grid, pgm, sidecar, csv = result
    h = hashlib.sha256()
    for part in (grid.values.tobytes(), pgm, sidecar.encode(), csv.encode()):
        h.update(part)
    return h.hexdigest()


# --------------------------------------------------------------- certify


def certify_ops(spec, henon):
    """Yield (name, run, check, digest) for one map, in dependency order.

    The caller runs each operation before asking for the next, so the
    contact-order probe can use the trace it follows; when the trace is
    refused, the probe is not attempted.
    """
    c = spec.c
    done = {}

    def trace():
        done["trace"] = hl.trace_primary_component(henon, c)
        return done["trace"]

    def check_trace(tr):
        dy = max(abs(s.point.y - c) for s in tr.samples)
        res = max(s.residual for s in tr.samples)
        if dy > tr.tube_radius:
            return f"trace leaves the tube: |y - c| = {dy:.3g} > {tr.tube_radius}"
        if res > 1e-8:
            return f"trace residual {res:.3g} > 1e-8"
        return None

    def digest_trace(tr):
        return [repr(s.point) for s in tr.samples]

    yield "trace", trace, check_trace, digest_trace

    if "trace" in done:
        samples = done["trace"].samples
        mid = samples[len(samples) // 2].point
        yield (
            "contact",
            lambda: hl.contact_order(henon, mid),
            lambda order: None if order == 2 else f"contact order {order} != 2",
            lambda order: order,
        )

    for rho in COVER_RADII:
        yield (
            "cover",
            lambda rho=rho: hl.verify_biholomorphism(henon, c, radii=(rho,)),
            lambda rep: None if rep.ok else f"covering certificate fails: {rep.items}",
            repr,
        )

    if henon.a != 0:
        x = spec.holonomy_alpha_factor * henon.domain_params().alpha

        def holonomy():
            z, _ = hl.locate_on_locus(henon, x, c)
            orbit = hl.monodromy_orbit(henon, c, z, 1)
            psi = [hl.psi_pair(henon, pt).psi_plus for pt in orbit]
            witness = hl.same_leaf_plus(henon, orbit[0], orbit[len(orbit) // 2])
            return orbit, psi, witness

        yield "holonomy", holonomy, _check_holonomy(henon), repr

    if spec.fixed_point is not None:

        def manifold():
            graph = hl.local_stable_graph(henon, spec.fixed_point)
            return graph, hl.gradient_index(henon, graph, 0.4)

        yield (
            "manifold",
            manifold,
            lambda r: None if r[1] == 1 else f"gradient index {r[1]} != 1",
            lambda r: (r[0].values, r[1]),
        )


def _check_holonomy(henon):
    d = henon.degree

    def check(result):
        orbit, psi, witness = result
        if len(orbit) != d:
            return f"orbit has {len(orbit)} points, not {d}"
        deviation = max(
            abs(v - psi[0] * cmath.exp(2j * math.pi * j / d)) / abs(psi[0])
            for j, v in enumerate(psi)
        )
        if deviation >= 1e-6:
            return f"psi+ equivariance deviation {deviation:.3g}"
        if witness is None:
            return "no same-leaf witness"
        if abs(witness.omega ** (d**witness.order_exponent) - 1) >= 1e-8:
            return f"witness {witness.omega!r} is not a d^k-th root of unity"
        return None

    return check
