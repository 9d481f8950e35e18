"""Tangency determinant, locus tracing, contact order, and classification.

Oracles here avoid the code paths they check: zeros of the tangency
function are bracketed by dense scans + bisection (never Newton), the
tangent slope at infinity is compared against the exact series engine,
and classification inputs are produced by explicit forward/backward maps.
"""

import cmath
import dataclasses
import json
import math
import random
from fractions import Fraction

import pytest

from henonlocus import _kernel, locus
from henonlocus.dynamics import HenonMap, Point, Polynomial
from henonlocus.errors import (
    ContinuationFailure,
    LeafParameterizationFailed,
    LeftTube,
    NewtonDivergence,
    NotClassified,
    NotInEscapeRegion,
    NotSimpleCritical,
)
from henonlocus.escape import phi_with_gradient
from henonlocus.locus import (
    CLOSURE_TOL,
    DEPTH_FACTOR,
    FD_STEP,
    NEWTON_TOL,
    POLISH_TOL,
    _dvalue_dy,
    _frozen_ratio,
    _lift,
    _locus_newton_2d,
    classify_component,
    contact_order,
    locate_on_locus,
    TraceSample,
    _require_simple_critical,
    tangency_value,
    trace_primary_component,
    trace_to_csv,
    trace_to_json,
    tube_radius,
    verify_biholomorphism,
)

SQUARE = Polynomial([0, 0, 1])  # x^2
BASIC = Polynomial([-1, 0, 1])  # x^2 - 1
H0 = HenonMap(SQUARE, 0.0)
H = HenonMap(BASIC, 0.01)


def tangent_at_infinity(henon, c):
    """Oracle slope dy/du of the component at u = 1/x = 0, by Richardson
    extrapolation of (y(1/u) - c)/u over u = 1e-3, 1e-3/2, ..., 1e-3/16,
    behind the package's simple-critical-point check."""
    _require_simple_critical(henon.p, c)
    quotients = []
    y = complex(c)
    for j in range(5):
        u = 1e-3 * 0.5**j
        pt, _ = locate_on_locus(henon, 1.0 / u, y, 1e-11)
        y = pt.y
        quotients.append((pt.y - c) / u)
    row = quotients
    for k in range(1, len(quotients)):
        row = [(2**k * row[i + 1] - row[i]) / (2**k - 1) for i in range(len(row) - 1)]
    return row[0]


def to_u_chart(trace):
    """Oracle: the same trace with first coordinate u = 1/x."""
    samples = tuple(
        TraceSample(
            point=Point(1.0 / s.point.x, s.point.y), tangency=s.tangency, residual=s.residual
        )
        for s in trace.samples
    )
    return dataclasses.replace(trace, chart="u-chart", samples=samples)


def scan_locus_y(henon, x, lo=-0.5, hi=0.5, step=1e-3):
    """Oracle zero of y -> tangency at fixed real x: dense scan for sign
    changes of the (real-valued) determinant, then bisection.  Requires
    exactly one sign change in the window."""
    xs = [lo + i * step for i in range(int(round((hi - lo) / step)) + 1)]
    vals = [tangency_value(henon, Point(x, y)).value.real for y in xs]
    brackets = [
        (xs[i], xs[i + 1])
        for i in range(len(xs) - 1)
        if vals[i] == 0 or (vals[i] < 0) != (vals[i + 1] < 0)
    ]
    assert len(brackets) == 1, f"expected one sign change, got {len(brackets)}"
    a, b = brackets[0]
    fa = tangency_value(henon, Point(x, a)).value.real
    for _ in range(60):
        m = 0.5 * (a + b)
        fm = tangency_value(henon, Point(x, m)).value.real
        if fm == 0:
            return m
        if (fa < 0) != (fm < 0):
            b = m
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


# ------------------------------------------------------------ tangency value


def test_tangency_degenerate_line():
    # a = 0, p = x^2: the locus is exactly y = 0
    for x in (5.0, 10j):
        tv = tangency_value(H0, Point(x, 0.0))
        assert abs(tv.value) < 1e-12
    off = tangency_value(H0, Point(5.0, 1.0))
    assert abs(off.value) > 0.5  # |p'(1)| = 2 up to bounded distortion


def test_tangency_reports_depths_and_scale():
    z = Point(20.0, 0.001)
    tv = tangency_value(H, z)
    assert tv.n >= 0 and tv.m >= 1
    expected_scale = 2 * abs(z.x) * abs(H.p(z.y) - z.x)
    assert abs(tv.scale - expected_scale) < 1e-12
    assert abs(tv.value - tv.det * tv.scale) < 1e-15


def test_tangency_deepening_invariance():
    # the determinant does not depend on how deep past alpha the leaves are
    # taken: DEPTH_FACTOR = 2 (tangency_value) against 4
    z = Point(20.0, 0.0001)
    alpha = H.domain_params().alpha

    def normalized(factor):
        evp, (g1x, g1y) = phi_with_gradient(H, z, "plus", alpha=factor * alpha)
        evm, (g2x, g2y) = phi_with_gradient(H, z, "minus", alpha=factor * alpha)
        det = g1x * g2y - g2x * g1y
        return evp.depth, evm.depth, det * (2 * abs(z.x) * abs(BASIC(z.y) - z.x))

    n2, m2, shallow = normalized(2.0)
    n4, m4, deep = normalized(4.0)
    assert shallow == tangency_value(H, z).value
    assert n4 >= n2 and m4 >= m2
    assert abs(deep - shallow) < 1e-6


def test_newton_zero_matches_dense_scan():
    # unique zero within |y| < 0.1 at x = 20; oracle = scan + bisection,
    # plus the argmin of |value| on a fixed 1e-4 grid
    x = 20.0
    y_scan = scan_locus_y(H, x)
    pt, tv = locate_on_locus(H, x)
    assert abs(pt.y) < 0.1
    assert abs(tv.value) < 1e-10
    assert abs(pt.y - y_scan) < 1e-9
    grid = [i * 1e-4 for i in range(-40, 41)]  # zoomed window of the 1e-4 grid
    best = min(grid, key=lambda y: abs(tangency_value(H, Point(x, y)).value))
    assert abs(pt.y - best) <= 1e-4


def test_locus_transversality_along_y():
    # multiplicity one: d(value)/dy stays away from 0 near the zero
    x = 20.0
    pt, _ = locate_on_locus(H, x)
    h = 1e-6
    up = tangency_value(H, Point(x, pt.y + h)).value
    down = tangency_value(H, Point(x, pt.y - h)).value
    assert abs(up - down) / (2 * h) > 0.5


# ------------------------------------------------------- tangent at infinity


def test_tangent_slope_matches_series_engine():
    from henonlocus.rigidity import CHART_VARS, locus_series, quadratic_q
    from henonlocus.series import MultiPoly

    Y = locus_series(quadratic_q(), MultiPoly.zero(CHART_VARS), 2)
    exact = Y.coeffs[1].evaluate({"a": Fraction(1, 100), "c": Fraction(-1)})
    assert exact == Fraction(2475, 1_000_000)  # (a - a^2)/4
    slope = tangent_at_infinity(H, 0.0)
    assert abs(slope - float(exact)) < 1e-5


def test_tangent_slope_degenerate_is_zero():
    slope = tangent_at_infinity(H0, 0.0)
    assert abs(slope) < 1e-9


def test_tangent_requires_simple_critical_point():
    with pytest.raises(NotSimpleCritical):
        tangent_at_infinity(H, 1.0)  # p'(1) = 2 != 0
    cubic = HenonMap(Polynomial([0, 0, 0, 1]), 0.01)  # p = x^3, p''(0) = 0
    with pytest.raises(NotSimpleCritical):
        tangent_at_infinity(cubic, 0.0)


# ----------------------------------------------------------------- tracing


def test_trace_degenerate_is_axis():
    trace = trace_primary_component(H0, 0.0, (5.0, 1e4))
    assert trace.chart == "standard"
    assert trace.iterate_index == 0
    assert len(trace.samples) > 40
    assert max(abs(s.point.y) for s in trace.samples) < 1e-9


def test_trace_basic_confinement_and_decay():
    trace = trace_primary_component(H, 0.0, (10.0, 1e4), step=0.1)
    ys = [abs(s.point.y) for s in trace.samples]
    xs = [abs(s.point.x) for s in trace.samples]
    assert xs == sorted(xs)  # samples ascending in |x|
    assert max(ys) <= 0.05
    assert all(s.residual < 1e-10 for s in trace.samples)
    # |y| nonincreasing in |x| across the last decade
    decade = [(x, y) for x, y in zip(xs, ys) if x >= xs[-1] / 10.0]
    for (_, y1), (_, y2) in zip(decade, decade[1:]):
        assert y2 <= y1 + 1e-12
    # consecutive spacing in log|x| bounded by twice the configured step
    for x1, x2 in zip(xs, xs[1:]):
        assert math.log(x2) - math.log(x1) <= 2 * 0.1 + 1e-12


def test_trace_matches_scan_oracle_at_stations():
    trace = trace_primary_component(H, 0.0, (10.0, 1e4), step=0.1)
    for x in (10.0, 100.0, 1000.0):
        y_scan = scan_locus_y(H, x)
        pt, _ = locate_on_locus(H, x)
        assert abs(pt.y - y_scan) < 1e-9
        # nearest traced sample agrees to first order in the step
        s = min(trace.samples, key=lambda s: abs(abs(s.point.x) - x))
        assert abs(s.point.y - y_scan) < 5e-4


def test_trace_is_f_invariant():
    trace = trace_primary_component(H, 0.0, (10.0, 1e4), step=0.1)
    checked = 0
    for s in trace.samples[:: len(trace.samples) // 8]:
        if abs(s.point.x) > 90:
            continue  # image would leave the traced range
        image = H.apply(s.point)
        tv = tangency_value(H, image)
        assert abs(tv.value) < 1e-9  # 10x the Newton tolerance
        checked += 1
    assert checked >= 2


def test_trace_left_tube(monkeypatch):
    monkeypatch.setattr(locus, "tube_radius", lambda p: 1e-6)
    with pytest.raises(LeftTube) as err:
        trace_primary_component(H, 0.0, (10.0, 1e4))
    assert err.value.sample is not None


def _cubic(kappa, modulus):
    """x^3 - 3 kappa^2 x with a = modulus * e^i, rounded to six places."""
    a = modulus * cmath.exp(1j)
    return HenonMap(
        Polynomial([0, -3 * kappa**2, 0, 1]), complex(round(a.real, 6), round(a.imag, 6))
    )


def _record_tols(monkeypatch):
    """Record the tol of every locate_on_locus call the trace makes."""
    tols = []
    real = locus.locate_on_locus

    def recording(henon, x, y_seed=0.0, tol=NEWTON_TOL):
        tols.append(tol)
        return real(henon, x, y_seed, tol)

    monkeypatch.setattr(locus, "locate_on_locus", recording)
    return tols


@pytest.mark.parametrize("kappa, modulus", [(1.0, 0.01), (0.5, 0.03), (0.5, 0.003)])
def test_trace_resolves_the_outer_decade_before_refusing(monkeypatch, kappa, modulus):
    # Near |x| = 1e4, |y - c| is the size of the error NEWTON_TOL leaves in
    # y, so the raw decay test sees an increase; resolved, |y - c| decays.
    henon = _cubic(kappa, modulus)
    with monkeypatch.context() as patch:
        patch.setattr(locus, "_first_rise", lambda samples, c: None)
        unchecked = trace_primary_component(henon, kappa)
    tols = _record_tols(monkeypatch)
    trace = trace_primary_component(henon, kappa)
    assert POLISH_TOL in tols
    # the returned samples are the traced ones, not the resolved ones
    assert trace == unchecked
    assert trace_to_csv(trace) == trace_to_csv(unchecked)


@pytest.mark.parametrize("henon, c", [(H, 0.0), (_cubic(0.75, 0.06), 0.75)])
def test_a_decaying_trace_resolves_nothing(monkeypatch, henon, c):
    tols = _record_tols(monkeypatch)
    trace = trace_primary_component(henon, c)
    assert set(tols) == {NEWTON_TOL}
    assert len(tols) == len(trace.samples)


def test_trace_refuses_growth_that_survives_resolving(monkeypatch):
    # every solve, resolved or not, lands 1e-8 |x| above the locus: |y|
    # then grows across the outermost decade
    real = locus.locate_on_locus
    tols = []

    def drifting(henon, x, y_seed=0.0, tol=NEWTON_TOL):
        tols.append(tol)
        pt, tv = real(henon, x, y_seed, tol)
        return Point(pt.x, pt.y + 1e-8 * abs(x)), tv

    monkeypatch.setattr(locus, "locate_on_locus", drifting)
    with pytest.raises(LeftTube, match="grows by .* at \\|T\\| < 1e-15") as err:
        trace_primary_component(H, 0.0)
    assert POLISH_TOL in tols
    assert err.value.sample.residual < POLISH_TOL
    assert abs(err.value.sample.point.x) >= 1e3


def _failing_solves(monkeypatch, fails):
    """Make the trace's locate_on_locus raise NewtonDivergence on the calls
    whose 1-based index satisfies fails; return the log x of every call."""
    real = locus.locate_on_locus
    seen = []

    def failing(henon, x, y_seed=0.0, tol=NEWTON_TOL):
        seen.append(math.log(x))
        if fails(len(seen)):
            raise NewtonDivergence(f"forced failure at x = {x}")
        return real(henon, x, y_seed, tol)

    monkeypatch.setattr(locus, "locate_on_locus", failing)
    return seen


def test_trace_halves_its_step_after_a_failed_solve(monkeypatch):
    seen = _failing_solves(monkeypatch, lambda call: call == 2)
    trace = trace_primary_component(H, 0.0, (10.0, 20.0), step=0.1)
    # the second station fails at step 0.1 and is retaken at 0.05
    assert seen[1] == pytest.approx(seen[0] - 0.1)
    assert seen[2] == pytest.approx(seen[0] - 0.05)
    xs = [abs(s.point.x) for s in trace.samples]
    assert xs == sorted(xs)
    assert math.log(xs[-2]) == pytest.approx(math.log(xs[-1]) - 0.05)
    assert math.log(xs[0]) == pytest.approx(math.log(10.0))
    assert all(s.residual < NEWTON_TOL for s in trace.samples)


def test_trace_reraises_a_failure_at_the_first_station(monkeypatch):
    seen = _failing_solves(monkeypatch, lambda call: call == 1)
    with pytest.raises(NewtonDivergence, match="forced failure"):
        trace_primary_component(H, 0.0, (10.0, 20.0), step=0.1)
    assert len(seen) == 1


def test_trace_reraises_a_failure_that_persists_to_a_64th_of_the_step(monkeypatch):
    seen = _failing_solves(monkeypatch, lambda call: call >= 2)
    with pytest.raises(NewtonDivergence, match="forced failure"):
        trace_primary_component(H, 0.0, (10.0, 20.0), step=0.1)
    offsets = [seen[0] - t for t in seen[1:]]
    assert offsets == pytest.approx([0.1 / 2**k for k in range(7)])


def test_locate_on_locus_refuses_after_16_iterations():
    # |T| < 0 never holds, so the loop runs out
    with pytest.raises(NewtonDivergence, match="after 16 iterations at x = 20"):
        locate_on_locus(H, 20.0, tol=0.0)


def test_trace_and_tangent_share_the_simple_critical_check():
    # |p'(c)| = 1e-10 at c = 5e-11: the trace accepts it, and so does the
    # tangent at infinity; |p'(c)| = 2e-9 is refused by both
    assert len(trace_primary_component(H, 5e-11).samples) > 40
    assert abs(tangent_at_infinity(H, 5e-11) - 0.002475) < 1e-5
    for refused in (trace_primary_component, tangent_at_infinity):
        with pytest.raises(NotSimpleCritical, match="p'"):
            refused(H, 1e-9)


def test_tube_radius_defaults():
    assert tube_radius(BASIC) == 0.25  # single critical point: floor
    two_crits = Polynomial([0, -3, 0, 1])  # x^3 - 3x, critical at +-1
    assert abs(tube_radius(two_crits) - 1.0) < 1e-9


# ------------------------------------------------------------- contact order


def test_contact_order_degenerate_square():
    # x = const leaf; log phi- = (1/2) log(y^2 - x) has a double point at y=0
    assert contact_order(H0, Point(5.0, 0.0)) == 2
    assert contact_order(H0, Point(5.0, 0.7)) == 1  # transverse off the locus


def test_contact_order_on_traced_points():
    trace = trace_primary_component(H, 0.0, (10.0, 1e3), step=0.2)
    picks = trace.samples[:: max(1, len(trace.samples) // 5)]
    for s in picks:
        assert contact_order(H, s.point) == 2


def test_contact_order_transverse_off_locus():
    assert contact_order(H, Point(20.0, 0.3)) == 1


# -------------------------------------------------------- biholomorphism


def test_biholomorphism_degenerate():
    report = verify_biholomorphism(H0, 0.0, radii=(5.0,))
    assert report.ok
    assert report.items[0].winding == 1
    # radii are read once, so an iterator certifies the same circles
    assert verify_biholomorphism(H0, 0.0, radii=iter((5.0,))) == report


def test_biholomorphism_radii():
    report = verify_biholomorphism(H, 0.0, radii=(2.0, 8.0, 32.0))
    assert report.ok
    for item in report.items:
        assert item.winding == 1
        assert item.closure_error < 1e-8
        assert item.min_separation > CLOSURE_TOL


@pytest.mark.parametrize("radii", [(math.nan,), (math.inf,), (2.0, 0.5), (8.0, 1.0), ()])
def test_biholomorphism_refuses_bad_radii_before_any_continuation(monkeypatch, radii):
    def no_work(*args, **kwargs):
        raise AssertionError("a circle was computed")

    monkeypatch.setattr(locus, "phi_with_gradient", no_work)
    monkeypatch.setattr(locus, "_theta_continuation", no_work)
    with pytest.raises(ValueError, match="radii must be finite and exceed 1"):
        verify_biholomorphism(H, 0.0, radii=radii)


# ------------------------------------------------- theta continuation
#
# The oracle is the loop the chord continuation replaced: every solve
# restarts from the previous point, and every correction takes a fresh
# central-difference tangency row.


def _oracle_newton_2d(henon, x, y, log_target, depth):
    deep_target = henon.degree**depth * log_target
    for _ in range(25):
        ratio, a11, a12 = _frozen_ratio(henon, x, y, depth, deep_target, NewtonDivergence)
        tv = tangency_value(henon, Point(x, y))
        F1 = ratio - 1.0
        F2 = tv.det
        if abs(F1) < 1e-11 and abs(F2) * tv.scale < 10.0 * NEWTON_TOL:
            return x, y, ratio * cmath.exp(deep_target)
        h = FD_STEP * max(1.0, abs(x))
        a21 = (
            tangency_value(henon, Point(x + h, y)).det
            - tangency_value(henon, Point(x - h, y)).det
        ) / (2 * h)
        a22 = _dvalue_dy(henon, x, y)
        det = a11 * a22 - a12 * a21
        x = x - (F1 * a22 - F2 * a12) / det
        y = y - (a11 * F2 - a21 * F1) / det
    raise NewtonDivergence("oracle Newton stalled")


def _oracle_continuation(henon, x, y, log_target0, steps, depth, first):
    for j in range(first, steps + 1):
        log_target = log_target0 + 2j * math.pi * j / steps
        x, y, value = _oracle_newton_2d(henon, x, y, log_target, depth)
        yield x, y, value


def _recording(continuation, points):
    """`continuation` with every yielded point appended to `points`."""

    def run(*args):
        for x, y, value in continuation(*args):
            points.append(Point(x, y))
            yield x, y, value

    return run


def _gap(p, q):
    return abs(p.x - q.x) + abs(p.y - q.y)


@pytest.mark.parametrize("rho", (2.0, 8.0, 32.0))
def test_covering_kernel_calls_per_theta_step(monkeypatch, rho):
    # the restarting loop made 47-59 calls per step on this map
    calls = {"phi_plus_eval": 0, "phi_minus_eval": 0}
    for name in calls:
        evaluate = getattr(_kernel, name)

        def counting(*args, name=name, evaluate=evaluate):
            calls[name] += 1
            return evaluate(*args)

        monkeypatch.setattr(_kernel, name, counting)
    item = verify_biholomorphism(H, 0.0, radii=(rho,)).items[0]
    assert item.ok
    assert sum(calls.values()) <= 14 * item.n_theta
    # one plus call feeds both rows at every Newton point; the extra one is
    # the seed's depth
    assert calls["phi_plus_eval"] == calls["phi_minus_eval"] + 1


@pytest.mark.parametrize("rho", (2.0, 8.0, 32.0))
def test_covering_matches_restarting_newton_oracle(monkeypatch, rho):
    continuation = locus._theta_continuation
    got_points, want_points = [], []
    monkeypatch.setattr(locus, "_theta_continuation", _recording(continuation, got_points))
    got = verify_biholomorphism(H, 0.0, radii=(rho,)).items[0]
    monkeypatch.setattr(
        locus, "_theta_continuation", _recording(_oracle_continuation, want_points)
    )
    want = verify_biholomorphism(H, 0.0, radii=(rho,)).items[0]
    assert (got.winding, got.n_theta, got.ok) == (want.winding, want.n_theta, want.ok)
    assert want.ok
    assert len(got_points) == len(want_points) == got.n_theta + 1
    assert max(_gap(p, q) for p, q in zip(got_points, want_points)) < 1e-8


@pytest.mark.parametrize("n", (1, 2))
def test_monodromy_matches_restarting_newton_oracle(monkeypatch, n):
    from henonlocus import holonomy

    z, _ = locate_on_locus(H, 4.2)
    got = holonomy.monodromy_orbit(H, 0.0, z, n)
    monkeypatch.setattr(holonomy, "_theta_continuation", _oracle_continuation)
    want = holonomy.monodromy_orbit(H, 0.0, z, n)
    assert len(got) == len(want) == 2**n
    assert got[0] == want[0] == z
    assert max(_gap(p, q) for p, q in zip(got, want)) < 1e-8


def test_chord_row_is_retaken_far_from_the_solution(monkeypatch):
    # With no predictor, one theta step away needs one row on this map; the
    # seed (rho, c) and a start two steps away need the row retaken.
    rows = []
    chord_row = locus._chord_row
    monkeypatch.setattr(locus, "_chord_row", lambda *args: rows.append(1) or chord_row(*args))
    rho, c = 2.0, 0.0
    depth = phi_with_gradient(H, Point(rho, c), "plus")[0].depth + 1
    steps = max(64, 8 * H.degree**depth)  # as verify_biholomorphism chooses
    seed = (complex(rho), complex(c))
    solved = _oracle_newton_2d(H, *seed, math.log(rho), depth)[:2]
    for start, k, least_rows in ((seed, 0, 2), (solved, 1, 1), (solved, 2, 2)):
        log_target = math.log(rho) + 2j * math.pi * k / steps
        rows.clear()
        got = _locus_newton_2d(H, *start, log_target, depth)
        assert len(rows) >= least_rows
        want = _oracle_newton_2d(H, *start, log_target, depth)
        assert _gap(Point(*got[:2]), Point(*want[:2])) < 1e-8


def test_iterate_entering_the_trap_is_a_newton_divergence():
    # Started four theta steps short of its target at rho = 2, the 2-D Newton
    # sends an iterate whose forward orbit enters the certified trap around
    # the attracting 2-cycle; the kernel's refusal is typed by the Newton.
    rho = 2.0
    depth = phi_with_gradient(H, Point(rho, 0.0), "plus")[0].depth + 1
    steps = max(64, 8 * H.degree**depth)  # as verify_biholomorphism chooses
    x, y, _ = _locus_newton_2d(H, complex(rho), 0j, math.log(rho), depth)
    far = math.log(rho) + 2j * math.pi * 4 / steps
    with pytest.raises(NewtonDivergence, match=r"iterate \(x, y\) = .*certified trap") as err:
        _locus_newton_2d(H, x, y, far, depth)
    assert isinstance(err.value.__cause__, NotInEscapeRegion)
    # the continuation that makes this solve refuses with its own type
    before = far - 2j * math.pi / steps
    with pytest.raises(ContinuationFailure, match="step 1/64: 2-D Newton iterate"):
        list(locus._theta_continuation(H, x, y, before, steps, depth, 1))


def test_revisit_within_closure_tolerance_is_not_a_cover(monkeypatch):
    # min_separation must exceed CLOSURE_TOL: a continuation that comes back
    # to within 1e-9 of an earlier point has not covered the circle once.
    continuation = locus._theta_continuation

    def revisiting(*args):
        solved = list(continuation(*args))
        x, y, _ = solved[10]
        solved[20] = (x + 1e-9, y, solved[20][2])
        yield from solved

    monkeypatch.setattr(locus, "_theta_continuation", revisiting)
    item = verify_biholomorphism(H, 0.0, radii=(8.0,)).items[0]
    assert item.winding == 1 and item.closure_error < CLOSURE_TOL
    assert item.min_separation <= CLOSURE_TOL
    assert not item.ok


# ------------------------------------------------------------ classification


def test_classify_on_and_off_component():
    w, _ = locate_on_locus(H, 50.0)
    assert classify_component(H, w) == (0.0, 0)
    back = H.apply_inverse(w)
    assert classify_component(H, back) == (0.0, 1)
    forward = H.apply(w)  # lands at (p(50)-ay, 50): y-coordinate leaves tube
    assert classify_component(H, forward) == (0.0, -1)


def test_classify_scan_found_points():
    rng = random.Random(5)
    for _ in range(10):
        x = math.exp(rng.uniform(math.log(6.0), math.log(300.0)))
        y = scan_locus_y(H, x, lo=-0.3, hi=0.3, step=1e-2)
        c, k = classify_component(H, Point(x, y))
        assert c == 0.0 and abs(k) <= 8


def test_classify_bounded_point_fails():
    with pytest.raises(NotClassified):
        classify_component(H, Point(0.1, 0.1))


# ------------------------------------------------------------------ exports


def test_trace_exports():
    trace = trace_primary_component(H, 0.0, (10.0, 1e3), step=0.2)
    blob = json.loads(trace_to_json(trace))
    assert blob["critical_point"] == [0.0, 0.0]
    assert blob["chart"] == "standard"
    assert len(blob["samples"]) == len(trace.samples)
    first = blob["samples"][0]
    for key in ("x", "y", "residual", "n", "m"):
        assert key in first

    csv_text = trace_to_csv(trace)
    lines = csv_text.strip().splitlines()
    assert lines[0].split(",")[:4] == ["x_re", "x_im", "y_re", "y_im"]
    assert len(lines) == len(trace.samples) + 1

    u_trace = to_u_chart(trace)
    assert u_trace.chart == "u-chart"
    z0 = trace.samples[0].point
    assert abs(u_trace.samples[0].point.x - 1.0 / z0.x) < 1e-15


# ------------------------------------------------------ frozen-depth lift
#
# _frozen_ratio lifts one kernel call at z by phi+ o f^n = (phi+)^(d^n).
# The oracle is the code it replaced: iterate f^n with its Jacobian in
# Python and evaluate phi+ at f^n(z), which must already lie in V+.


def _iterate_with_jacobian(henon, z, n):
    """(f^n(z), 2x2 Jacobian of f^n at z) by forward tangent propagation."""
    w = Point(complex(z[0]), complex(z[1]))
    j11, j12 = 1.0 + 0j, 0.0 + 0j  # d w.x / d(x, y)
    j21, j22 = 0.0 + 0j, 1.0 + 0j  # d w.y / d(x, y)
    for _ in range(n):
        dp = henon.p.derivative(w.x)
        j11, j12, j21, j22 = (
            dp * j11 - henon.a * j21,
            dp * j12 - henon.a * j22,
            j11,
            j12,
        )
        w = henon.apply(w)
    return w, (j11, j12, j21, j22)


def _oracle_frozen_ratio(henon, z, n, log_target):
    w, (j11, j12, j21, j22) = _iterate_with_jacobian(henon, z, n)
    ev, (glx, gly) = phi_with_gradient(henon, w, "plus")
    if ev.depth != 0:
        raise NewtonDivergence("frozen iterate left V+")
    ratio = cmath.exp(ev.log_value - log_target)
    return ratio, ratio * (glx * j11 + gly * j21), ratio * (glx * j12 + gly * j22)


_KAPPA = 0.75
_LIFT_MAPS = (
    (H, 0.0),
    (HenonMap(Polynomial([0, -3 * _KAPPA**2, 0, 1]), 0.06 * cmath.exp(1j)), _KAPPA),
    (HenonMap(BASIC, 0.003 - 0.004j), 0.0),
)


def _traced_points(henon, c):
    """Traced component samples z and their backward images (V+ entry depth 1)."""
    trace = trace_primary_component(henon, c, (10.0, 1e3), step=0.2)
    picks = [s.point for s in trace.samples[:: max(1, len(trace.samples) // 4)]]
    return picks + [henon.apply_inverse(z) for z in picks]


@pytest.mark.parametrize("henon, c", _LIFT_MAPS)
def test_frozen_ratio_matches_iterated_oracle(henon, c):
    offset = 0.05 - 0.1j  # keeps the ratio away from 1
    checked = 0
    for z in _traced_points(henon, c):
        k = phi_with_gradient(henon, z, "plus")[0].depth
        for n in (k, k + 1, k + 2):
            w = z
            for _ in range(n):
                w = henon.apply(w)
            log_target = phi_with_gradient(henon, w, "plus")[0].log_value + offset
            got = _frozen_ratio(henon, *z, n, log_target, NewtonDivergence)
            want = _oracle_frozen_ratio(henon, z, n, log_target)
            assert abs(got[0] - want[0]) <= 1e-10 * abs(want[0])
            gradient = max(abs(want[1]), abs(want[2]))
            assert abs(got[1] - want[1]) <= 1e-10 * gradient
            assert abs(got[2] - want[2]) <= 1e-10 * gradient
            checked += 1
    assert checked >= 18


@pytest.mark.parametrize("henon, c", _LIFT_MAPS)
def test_lift_of_the_tangency_evaluation_matches_frozen_ratio(henon, c):
    # The 2-D Newton lifts the plus evaluation it makes for the tangency row,
    # at the V+ threshold DEPTH_FACTOR * alpha, not _frozen_ratio's alpha.
    # That entry depth is never shallower, so the lift refuses wherever
    # _frozen_ratio does; past it, the two lifts agree.  Locus points with
    # alpha < |x| < DEPTH_FACTOR * alpha enter V+ one step apart at the two
    # thresholds.
    alpha = henon.domain_params().alpha
    between = [locate_on_locus(henon, f * alpha, c)[0] for f in (1.2, 1.9)]
    offset = 0.05 - 0.1j  # keeps the ratio away from 1
    checked, stricter = 0, 0
    for z in _traced_points(henon, c) + between:
        k = phi_with_gradient(henon, z, "plus")[0].depth
        plus = phi_with_gradient(henon, z, "plus", alpha=DEPTH_FACTOR * alpha)
        deep = plus[0].depth
        assert deep >= k
        for n in range(k, deep):
            with pytest.raises(NewtonDivergence, match="left V\\+"):
                _lift(henon, plus, n, 0j, NewtonDivergence)
            stricter += 1
        for n in (deep, deep + 1, deep + 2):
            w = z
            for _ in range(n):
                w = henon.apply(w)
            log_target = phi_with_gradient(henon, w, "plus")[0].log_value + offset
            got = _lift(henon, plus, n, log_target, NewtonDivergence)
            want = _frozen_ratio(henon, *z, n, log_target, NewtonDivergence)
            assert abs(got[0] - want[0]) <= 1e-10 * abs(want[0])
            gradient = max(abs(want[1]), abs(want[2]))
            assert abs(got[1] - want[1]) <= 1e-10 * gradient
            assert abs(got[2] - want[2]) <= 1e-10 * gradient
            checked += 1
    assert checked >= 24 and stricter >= 2


@pytest.mark.parametrize("henon, c", _LIFT_MAPS)
def test_frozen_ratio_refuses_before_v_plus_entry(henon, c):
    # backward images of traced points enter V+ at step 1, so n = 0 is too
    # shallow for both the lift and the iterated oracle
    for z in _traced_points(henon, c)[-3:]:
        assert phi_with_gradient(henon, z, "plus")[0].depth == 1
        with pytest.raises(NewtonDivergence):
            _oracle_frozen_ratio(henon, z, 0, 0j)
        for error in (NewtonDivergence, LeafParameterizationFailed):
            with pytest.raises(error, match="left V\\+"):
                _frozen_ratio(henon, *z, 0, 0j, error)


def test_frozen_ratio_refuses_overflow_with_the_callers_error():
    z = Point(1e60, 0.0)  # phi+ ~ 1e60, and (phi+)^(2^4) overflows exp
    for error in (NewtonDivergence, LeafParameterizationFailed):
        with pytest.raises(error, match="overflow"):
            _frozen_ratio(H, *z, 4, 0j, error)


def test_cubic_cover_overflow_is_a_continuation_failure():
    # A Newton step at rho = 2 lands near |x| = 4.6e67; the iterated f^5
    # became NaN there and the kernel then raised NotInEscapeRegion.
    henon = HenonMap(Polynomial([0, -3, 0, 1]), 0.005403 + 0.008415j)
    with pytest.raises(ContinuationFailure, match="overflow"):
        verify_biholomorphism(henon, 1.0, radii=(2.0,))
