"""Foliation tangency, locus tracing, contact order and the covering certificate.

The two escape foliations are the level sets of log phi+ and log phi-.
Their tangency locus is the zero set of the gradient determinant

    T = (d/dx log phi+)(d/dy log phi-) - (d/dx log phi-)(d/dy log phi+),

which is well defined on U+ n U- (the gradients kill the d^k-th-root
branch ambiguity of phi+/-) and holomorphic in (x, y).  The reported
value is normalized by the real factor d * |x| * |p(y) - x|, which makes
it O(p'(y)) near the locus: at a = 0 the normalized value is exactly a
unit multiple of p'(y), so the zero set is y = critical points of p.

Tracing follows the component through a critical point c by continuation
in t = log x with Newton correction in y, confined to the tube
|y - c| < tube_radius.  Certification routines check the contact order
of the two foliations along the component (two everywhere on it) and
that phi+ restricted to the component winds exactly once around every
circle |phi+| = rho, i.e. the component is a punctured-disk graph.

Both compare phi+ at a frozen depth n without iterating f^n: by
phi+ o f^n = (phi+)^(d^n), d^n log phi+(z) and its exact gradient, from one
kernel call at z, are a logarithm of phi+(f^n(z)) and its gradient.  The
lift needs f^n(z) in V+, i.e. (V+ being forward invariant) a V+ entry depth
<= n.
"""

from __future__ import annotations

import cmath
import csv
import io
import math
from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple

from .dynamics import HenonMap, Point, Polynomial, to_json
from .errors import (
    ContinuationFailure,
    LeafParameterizationFailed,
    LeftTube,
    NewtonDivergence,
    NotInEscapeRegion,
    NotSimpleCritical,
)
from .escape import DEFAULT_TOL, evaluator, phi_plus

NEWTON_TOL = 1e-10
DEPTH_FACTOR = 2.0  # push V+/V- entry past 2*alpha before trusting leaves
FD_STEP = 1e-6
CLOSURE_TOL = 1e-8  # closure gap of a certified theta continuation
DECAY_SLACK = 1e-12  # growth of |y - c| the trace's decay test forgives
POLISH_TOL = 1e-15  # |T| the decay test resolves samples to before refusing
_PROBE_SAMPLES = 16  # leaf-probe circle nodes in contact_order


@dataclass(frozen=True)
class TangencyValue:
    value: complex  # normalized determinant (det * scale)
    n: int  # forward depth used for phi+
    m: int  # backward depth used for phi-
    scale: float  # d * |x| * |p(y) - x|
    det: complex  # raw (holomorphic) determinant


@dataclass(frozen=True)
class TraceSample:
    point: Point
    tangency: TangencyValue
    residual: float


@dataclass(frozen=True)
class CurveTrace:
    critical_point: complex
    iterate_index: int
    chart: str  # "standard": the samples are (x, y) points
    samples: Tuple[TraceSample, ...]
    tube_radius: float
    step: float


@dataclass(frozen=True)
class RadiusReport:
    radius: float
    winding: int
    closure_error: float
    min_separation: float
    n_theta: int
    ok: bool


@dataclass(frozen=True)
class BiholomorphismReport:
    critical_point: complex
    items: Tuple[RadiusReport, ...]
    ok: bool


def tube_radius(p: Polynomial) -> float:
    """Half the minimum distance between distinct critical points of p,
    with floor 0.25 (and 0.25 outright when there is only one)."""
    crits = p.critical_points()
    gaps = [abs(c1 - c2) for i, c1 in enumerate(crits) for c2 in crits[:i]]
    return max(0.25, 0.5 * min(gaps, default=0.0))


def _require_simple_critical(p: Polynomial, c: complex) -> None:
    """Refuse a non-finite c (ValueError), and any c unless |p'(c)| <= 1e-9
    and |p''(c)| >= 1e-9 (NotSimpleCritical)."""
    if not cmath.isfinite(c):
        raise ValueError(f"critical point c must be finite, got {c!r}")
    if not abs(p.derivative(c)) <= 1e-9:
        raise NotSimpleCritical(f"p'({c}) != 0")
    if not abs(p.second_derivative(c)) >= 1e-9:
        raise NotSimpleCritical(f"p''({c}) ~ 0")


def tangency_value(henon: HenonMap, z: Point) -> TangencyValue:
    """Normalized foliation-tangency determinant at z (must escape both ways).

    Depths are adaptive: iterates run until |x| (resp. |y|) clears
    DEPTH_FACTOR * alpha, so the leaf geometry backing the gradients is the
    certified one.  Deterministic for fixed depths and truncation.
    """
    return _tangency_at(henon, _evaluators(henon), z)


def _evaluators(henon: HenonMap):
    """(plus, minus): the gradient evaluators at tangency_value's V+/V-
    threshold DEPTH_FACTOR * alpha, made once per solve."""
    alpha = DEPTH_FACTOR * henon.domain_params().alpha
    plus = evaluator(henon, "plus", DEFAULT_TOL, alpha, True)
    return plus, evaluator(henon, "minus", DEFAULT_TOL, alpha, True)


def _tangency_at(henon: HenonMap, pair, z: Point) -> TangencyValue:
    """tangency_value at z from an `_evaluators` pair."""
    z = Point(complex(z[0]), complex(z[1]))
    return _tangency(henon, z, pair[0](z), pair[1])


def _tangency(henon: HenonMap, z: Point, plus, minus) -> TangencyValue:
    """tangency_value at z from `plus`, the plus-side evaluation at z that
    the caller already has, and `minus`, the pair's minus evaluator."""
    evp, (g1x, g1y) = plus
    evm, (g2x, g2y) = minus(z)
    det = g1x * g2y - g2x * g1y
    scale = henon.degree * abs(z.x) * abs(henon.p(z.y) - z.x)
    return TangencyValue(
        value=det * scale, n=evp.depth, m=evm.depth, scale=scale, det=det
    )


def _dvalue_dy(henon: HenonMap, pair, x: complex, y: complex) -> complex:
    h = FD_STEP * max(1.0, abs(y))
    up = _tangency_at(henon, pair, Point(x, y + h)).det
    down = _tangency_at(henon, pair, Point(x, y - h)).det
    return (up - down) / (2.0 * h)


def locate_on_locus(
    henon: HenonMap,
    x: complex,
    y_seed: complex = 0.0,
    tol: float = NEWTON_TOL,
) -> Tuple[Point, TangencyValue]:
    """Newton in y at fixed x onto the tangency zero set, at most 16 steps.

    The raw determinant is holomorphic in y, so a central finite
    difference of it drives the correction (_locus_newton_2d's chord row
    takes one-sided differences instead); the convergence test uses the
    normalized value.  x and y_seed must be finite (ValueError).
    """
    y = complex(y_seed)
    if not (cmath.isfinite(x) and cmath.isfinite(y)):
        raise ValueError(f"x {x!r} and y_seed {y_seed!r} must be finite")
    pair = _evaluators(henon)
    for _ in range(16):
        tv = _tangency_at(henon, pair, Point(x, y))
        if abs(tv.value) < tol:
            return Point(complex(x), y), tv
        deriv = _dvalue_dy(henon, pair, x, y)
        if deriv == 0:
            raise NewtonDivergence(f"flat tangency derivative at x = {x}")
        y = y - tv.det / deriv
    tv = _tangency_at(henon, pair, Point(x, y))
    if abs(tv.value) < tol:
        return Point(complex(x), y), tv
    raise NewtonDivergence(
        f"|T| = {abs(tv.value):.3e} after 16 iterations at x = {x}"
    )


def trace_primary_component(
    henon: HenonMap,
    c: complex,
    x_range: Tuple[float, float] = (10.0, 1e4),
    step: float = 0.1,
) -> CurveTrace:
    """Continuation of the component through critical point c along real x.

    Steps t = log x downward from the large-|x| end (where y ~ c seeds the
    corrector), halving the step on Newton failure.  Every accepted sample
    must stay in the tube |y - c| < tube_radius(p), and |y - c| must be
    nonincreasing in |x| (up to DECAY_SLACK) over the outermost decade; when
    the traced samples there seem to grow, they are re-solved to |T| <
    POLISH_TOL and the test is applied to those.  Violations raise LeftTube
    with the offending (traced or re-solved) sample attached.  Samples, always
    the traced ones, are returned ascending in |x|.
    step and both ends of x_range must be positive and finite (ValueError).
    """
    if not all(0.0 < v < math.inf for v in (step, *x_range)):
        raise ValueError(f"step {step} and x_range {x_range} must be positive and finite")
    _require_simple_critical(henon.p, c)
    tube = tube_radius(henon.p)
    x_lo, x_hi = sorted((float(x_range[0]), float(x_range[1])))
    t_lo, t_hi = math.log(x_lo), math.log(x_hi)

    samples: list[TraceSample] = []
    t = t_hi
    dt = step
    prev: tuple[float, complex] | None = None  # (t, y) one sample back
    prev2: tuple[float, complex] | None = None
    while True:
        x = math.exp(t)
        if prev is None:
            y_pred = complex(c)
        elif prev2 is None:
            y_pred = prev[1]
        else:
            slope = (prev[1] - prev2[1]) / (prev[0] - prev2[0])
            y_pred = prev[1] + slope * (t - prev[0])
        try:
            pt, tv = locate_on_locus(henon, x, y_pred)
        except NewtonDivergence:
            if dt <= step / 64.0 or prev is None:
                raise
            dt *= 0.5
            t = max(prev[0] - dt, t_lo)
            continue
        sample = TraceSample(point=pt, tangency=tv, residual=abs(tv.value))
        if abs(pt.y - c) >= tube:
            raise LeftTube(
                f"|y - c| = {abs(pt.y - c):.3e} >= tube radius {tube}",
                sample=sample,
            )
        samples.append(sample)
        prev2, prev = prev, (t, pt.y)
        dt = min(step, dt * 2.0)
        if t <= t_lo + 1e-12:
            break
        t = max(t - dt, t_lo)

    samples.reverse()  # ascending |x|
    outer = [s for s in samples if abs(s.point.x) >= x_hi / 10.0]
    if _first_rise(outer, c) is not None:
        # NEWTON_TOL leaves y a few 1e-11 off the locus, which is the size of
        # |y - c| near the outer end: resolve those samples before refusing
        polished = []
        for s in outer:
            pt, tv = locate_on_locus(henon, s.point.x, s.point.y, POLISH_TOL)
            polished.append(TraceSample(point=pt, tangency=tv, residual=abs(tv.value)))
        rise = _first_rise(polished, c)
        if rise is not None:
            raise LeftTube(
                f"|y - c| fails to decay over the outermost decade: it grows by "
                f"{rise[0]:.3e} > {DECAY_SLACK} at |T| < {POLISH_TOL}",
                sample=rise[1],
            )
    return CurveTrace(
        critical_point=complex(c),
        iterate_index=0,
        chart="standard",
        samples=tuple(samples),
        tube_radius=tube,
        step=step,
    )


def _first_rise(samples: Sequence[TraceSample], c: complex):
    """(growth, later sample) of the first neighbouring pair whose |y - c|
    grows by more than DECAY_SLACK, or None when there is none."""
    for s1, s2 in zip(samples, samples[1:]):
        if abs(s2.point.y - c) > abs(s1.point.y - c) + DECAY_SLACK:
            return abs(s2.point.y - c) - abs(s1.point.y - c), s2
    return None


# --------------------------------------------------------------- leaf probes


def _lift(henon: HenonMap, plus, n: int, log_target: complex, error):
    """(R, dR/dx, dR/dy), R = exp(d^n log phi+(z) - log_target): phi+(f^n(z)) /
    e^log_target by the d^n lift, from `plus`, a gradient evaluation at z
    with any V+ threshold.  Refused with `error` unless f^n(z) is in V+
    (entry depth <= n: the lift kills the branch of log phi+ that depth
    picked), or if the exp overflows."""
    scale = henon.degree**n
    ev, (glx, gly) = plus
    if ev.depth > n:
        raise error(f"f^{n} of the Newton iterate left V+ (entry depth {ev.depth})")
    try:
        ratio = cmath.exp(scale * ev.log_value - log_target)
    except OverflowError:
        raise error(f"phi+ ratio overflows at frozen depth {n}") from None
    g = scale * ratio
    return ratio, g * glx, g * gly


def _leaf_x(henon: HenonMap, plus, x0: complex, y: complex, n: int, log_target: complex):
    """Solve phi+(f^n(x, y)) = e^log_target for x by Newton on the
    branch-free _lift - 1 of the plus gradient evaluator `plus` (f^n(x, y)
    must stay in V+, else LeafParameterizationFailed)."""
    x = complex(x0)
    for _ in range(30):
        ratio, dF, _ = _lift(henon, plus(Point(x, y)), n, log_target, LeafParameterizationFailed)
        F = ratio - 1.0
        if abs(F) < 1e-12:
            return x
        if dF == 0:
            raise LeafParameterizationFailed("leaf Newton hit a flat spot")
        x = x - F / dF
    raise LeafParameterizationFailed(f"leaf Newton stalled at |F| = {abs(F):.2e}")


def contact_order(henon: HenonMap, z: Point) -> int:
    """Contact order of the two foliations at z (2 on the tangency locus,
    1 off it).

    The plus-leaf through z is parameterized at 16 equispaced points of
    the circle y = z.y + 1e-2 e^{i theta} by Newton in x on
    phi+ o f^n = const with a frozen depth n, the V+ entry depth of z past
    DEPTH_FACTOR * alpha; the constant is the d^n lift of log phi+(z), and
    every probe point's f^n must lie in V+.
    log phi- along the leaf is unwrapped (its branch jumps are multiples of
    2 pi / d^m, far above the genuine variation) and its circle samples are
    Fourier-analyzed: the order is the lowest harmonic carrying more than 1%
    of the energy, among harmonics 1 to 5.
    """
    z = Point(complex(z[0]), complex(z[1]))
    base, _ = _evaluators(henon)[0](z)
    n = base.depth
    log_target = henon.degree**n * base.log_value
    leaf = evaluator(henon, "plus", DEFAULT_TOL, None, True)
    minus = evaluator(henon, "minus", DEFAULT_TOL, None, False)

    mus: list[complex] = []
    x = z.x
    for j in range(_PROBE_SAMPLES):
        theta = 2.0 * math.pi * j / _PROBE_SAMPLES
        y = z.y + 1e-2 * cmath.exp(1j * theta)
        x = _leaf_x(henon, leaf, x, y, n, log_target)
        ev = minus(Point(x, y))
        mu = ev.log_value
        if mus:
            quantum = 2.0 * math.pi / henon.degree ** max(ev.depth, 1)
            jump = round((mu.imag - mus[-1].imag) / quantum)
            mu -= 1j * quantum * jump
        mus.append(mu)

    turn = -2j * math.pi / _PROBE_SAMPLES
    amps = [
        abs(sum(mu * cmath.exp(turn * j * k) for j, mu in enumerate(mus))) / _PROBE_SAMPLES
        for k in range(1, 6)
    ]
    peak = max(amps)
    if peak < 1e-9 * max(1.0, abs(mus[0])):
        raise LeafParameterizationFailed("phi- is flat along the leaf probe")
    for k, amp in enumerate(amps, start=1):
        if amp > 0.01 * peak:
            return k
    raise LeafParameterizationFailed("no harmonic above threshold")


# --------------------------------------------------------- winding certificate


def _locus_newton_2d(
    henon: HenonMap,
    pair,
    x: complex,
    y: complex,
    log_target: complex,
    depth: int,
) -> Tuple[complex, complex, complex]:
    """Solve (phi+ = e^{log_target}, tangency = 0) jointly for (x, y).

    `pair` is the solve's `_evaluators` pair.  Each iteration makes one
    plus-side kernel call, at the tangency depth threshold
    DEPTH_FACTOR * alpha, and it feeds both rows.  The phi+ row is
    exp(d^depth (log phi+ - log_target)) - 1 and its exact gradient, by the
    d^depth lift (_lift; the entry depth at that threshold must be <= depth,
    else NewtonDivergence), branch-free because 2 pi i jumps die under exp,
    and fresh every iteration.  The tangency row takes forward differences
    from the tangency value at the iterate (_chord_row, four kernel calls),
    so it is a chord row: taken at the start (x, y) and kept while each
    correction at least halves the residual max(|F1|, |F2| * scale),
    retaken where a correction does not.  An iterate whose orbit a kernel
    call refuses (NotInEscapeRegion, as when a forward orbit enters the
    attracting trap) is a NewtonDivergence naming the iterate.  Returns
    (x, y, phi+ at the frozen depth)."""
    deep_target = henon.degree**depth * log_target
    row = None
    residual = math.inf
    try:
        for _ in range(25):
            z = Point(x, y)
            plus = pair[0](z)
            ratio, a11, a12 = _lift(henon, plus, depth, deep_target, NewtonDivergence)
            tv = _tangency(henon, z, plus, pair[1])
            F1 = ratio - 1.0
            F2 = tv.det
            if abs(F1) < 1e-11 and abs(F2) * tv.scale < 10.0 * NEWTON_TOL:
                return x, y, ratio * cmath.exp(deep_target)
            previous, residual = residual, max(abs(F1), abs(F2) * tv.scale)
            if row is None or residual > 0.5 * previous:
                row = _chord_row(henon, pair, x, y, F2)
            a21, a22 = row
            det = a11 * a22 - a12 * a21
            if det == 0:
                raise NewtonDivergence("singular Jacobian in 2-D locus Newton")
            x = x - (F1 * a22 - F2 * a12) / det
            y = y - (a11 * F2 - a21 * F1) / det
    except NotInEscapeRegion as err:
        raise NewtonDivergence(f"2-D Newton iterate (x, y) = ({x:.6g}, {y:.6g}): {err}") from err
    raise NewtonDivergence(
        f"2-D Newton stalled: |F1| = {abs(F1):.2e}, |F2| = {abs(F2):.2e}"
    )


def _chord_row(henon: HenonMap, pair, x: complex, y: complex, det: complex):
    """Forward differences (dT/dx, dT/dy) of the raw tangency determinant
    from its value `det` at (x, y), with steps FD_STEP * max(1, |x|) and
    FD_STEP * max(1, |y|), from an `_evaluators` pair."""
    h = FD_STEP * max(1.0, abs(x))
    k = FD_STEP * max(1.0, abs(y))
    return (
        (_tangency_at(henon, pair, Point(x + h, y)).det - det) / h,
        (_tangency_at(henon, pair, Point(x, y + k)).det - det) / k,
    )


def _theta_steps(henon: HenonMap, depth: int, multiple: int) -> int:
    """_theta_continuation's steps at frozen depth `depth`, a multiple of `multiple`."""
    # 32 is the third-order predictor's reach: on x^2 - 1 at a = 0.01 a step
    # takes ~19 kernel calls at 16 steps, up to ~14.2 at 24 and ~13 at 32.
    return -(-max(32, 8 * henon.degree**depth) // multiple) * multiple


def _theta_continuation(
    henon: HenonMap,
    x: complex,
    y: complex,
    log_target0: complex,
    steps: int,
    depth: int,
    first: int,
) -> Iterator[Tuple[complex, complex, complex]]:
    """Continue a locus point around the circle phi+ = exp(log_target0 + i theta).

    Yields (x, y, phi+ at the frozen depth) from _locus_newton_2d at
    theta = 2 pi j / steps for j = first, ..., steps.  With first = 0, (x, y)
    only seeds the j = 0 solve; with first = 1 it is the solved j = 0 point.
    Both callers take steps = _theta_steps: 8 d^depth, so the deep value
    phi+^(d^depth) turns by pi/4 a step, and refuse a turn >= pi/2; at least
    32, below which the predictor's reach costs over 14 kernel calls a step.
    Each solve starts from the third-order predictor 3 z0 - 3 z1 + z2 through
    the last three accepted points z0, z1, z2 (newest first): 2 z0 - z1 with
    two of them, z0 with one.  A failed solve raises ContinuationFailure
    naming the step.  One `_evaluators` pair serves every step."""
    pair = _evaluators(henon)
    recent = [(x, y)] if first else []  # accepted points, oldest first
    for j in range(first, steps + 1):
        if len(recent) == 3:
            (x2, y2), (x1, y1), (x0, y0) = recent
            x, y = 3 * x0 - 3 * x1 + x2, 3 * y0 - 3 * y1 + y2
        elif len(recent) == 2:
            (x1, y1), (x0, y0) = recent
            x, y = 2 * x0 - x1, 2 * y0 - y1
        log_target = log_target0 + 2j * math.pi * j / steps
        try:
            x, y, value = _locus_newton_2d(henon, pair, x, y, log_target, depth)
        except NewtonDivergence as err:
            raise ContinuationFailure(
                f"theta continuation failed at |phi+| = {math.exp(log_target0.real):.6g}, "
                f"step {j}/{steps}: {err}"
            ) from err
        recent = (recent + [(x, y)])[-3:]
        yield x, y, value


def verify_biholomorphism(
    henon: HenonMap,
    c: complex,
    radii: Sequence[float] = (2.0, 8.0, 32.0),
) -> BiholomorphismReport:
    """Certify that phi+ restricted to the component through c is a degree-one
    cover of each circle |phi+| = rho: continuation of phi+^{-1}(rho e^{i
    theta}) around the full circle must close up (< CLOSURE_TOL), wind
    exactly once, and visit points pairwise more than CLOSURE_TOL apart, in
    _theta_steps (8 d^depth at the frozen depth, at least 32 for the
    predictor's reach); a step turning phi+^(d^depth) by >= pi/2 fails.
    There must be at least one radius, and every radius must be finite and
    > 1 (ValueError before any continuation); c must be a simple critical
    point of p (NotSimpleCritical before any kernel call)."""
    _require_simple_critical(henon.p, c)
    radii = tuple(radii)  # read once: a spent iterator would certify nothing
    bad = [rho for rho in radii if not 1.0 < rho < math.inf]
    if bad or not radii:
        raise ValueError(f"radii must be finite and exceed 1, got {bad or 'no radius'}")
    items = []
    for rho in radii:
        x, y = complex(rho), complex(c)
        seed = phi_plus(henon, Point(x, y))
        depth = seed.depth + 1  # margin: the frozen iterate stays deep in V+
        sheets = henon.degree**depth
        steps = _theta_steps(henon, depth, 1)
        solved = list(_theta_continuation(henon, x, y, math.log(rho), steps, depth, 0))
        points = [Point(x, y) for x, y, _ in solved]
        values = [value for _, _, value in solved]
        closure = abs(points[-1].x - points[0].x) + abs(points[-1].y - points[0].y)
        turns = [cmath.phase(v2 / v1) for v1, v2 in zip(values, values[1:])]
        ok_steps = max(map(abs, turns)) < math.pi / 2
        # the deep value is phi+^(d^depth): divide its winding back down
        winding_deep = sum(turns) / (2.0 * math.pi)
        winding = round(winding_deep / sheets)
        ok_steps = ok_steps and abs(winding_deep - round(winding_deep)) < 1e-6
        interior = points[:-1]
        min_sep = min(
            abs(p.x - q.x) + abs(p.y - q.y)
            for i, p in enumerate(interior)
            for q in interior[:i]
        )
        ok = winding == 1 and ok_steps and closure < CLOSURE_TOL and min_sep > CLOSURE_TOL
        items.append(
            RadiusReport(
                radius=rho,
                winding=winding,
                closure_error=closure,
                min_separation=min_sep,
                n_theta=steps,
                ok=ok,
            )
        )
    return BiholomorphismReport(
        critical_point=complex(c), items=tuple(items), ok=all(i.ok for i in items)
    )


# ------------------------------------------------------------------- exports


def trace_to_json(trace: CurveTrace) -> str:
    blob = {
        "critical_point": trace.critical_point,
        "iterate_index": trace.iterate_index,
        "chart": trace.chart,
        "tube_radius": trace.tube_radius,
        "step": trace.step,
        "samples": [
            {
                "x": s.point.x,
                "y": s.point.y,
                "residual": s.residual,
                "n": s.tangency.n,
                "m": s.tangency.m,
                "value": s.tangency.value,
                "scale": s.tangency.scale,
            }
            for s in trace.samples
        ],
    }
    return to_json(blob, 2)


def trace_to_csv(trace: CurveTrace) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        ["x_re", "x_im", "y_re", "y_im", "residual", "n", "m", "value_re",
         "value_im", "scale"]
    )
    for s in trace.samples:
        writer.writerow(
            [
                repr(s.point.x.real),
                repr(s.point.x.imag),
                repr(s.point.y.real),
                repr(s.point.y.imag),
                repr(s.residual),
                s.tangency.n,
                s.tangency.m,
                repr(s.tangency.value.real),
                repr(s.tangency.value.imag),
                repr(s.tangency.scale),
            ]
        )
    return buf.getvalue()
