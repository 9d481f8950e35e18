"""End-to-end acceptance checks, one per shipped guarantee.

Each test is a self-contained scenario with fixed tolerances and a wall
clock budget; together they pin down the escape recursions, the
degenerate small-Jacobian limit, the traced critical locus with its
independent scan oracle, contact order, covering/monodromy structure,
gradient index values, degenerate manifold graphs, the exact symbolic
rigidity computation, and the symbolic-vs-numeric chart cross-check.
Every test prints one summary line with the measured quantities.
"""

import cmath
import math
import random
import time
from fractions import Fraction

import numpy as np

from henonlocus.dynamics import HenonMap, Point, Polynomial
from henonlocus.escape import evaluator, green, phi_plus
from henonlocus.holonomy import monodromy_orbit, same_leaf_plus
from henonlocus.locus import (
    contact_order,
    locate_on_locus,
    tangency_value,
    trace_primary_component,
    verify_biholomorphism,
)
from henonlocus.manifolds import (
    gradient_index,
    gradient_winding,
    local_stable_graph,
    local_unstable_graph,
)
from henonlocus.rigidity import (
    check_partial_solution,
    defect_coefficients_text,
    sigma_series,
    verify_table_case,
)
from test_manifolds import boundary_index, graph_point

SQUARE = Polynomial([0, 0, 1])
BASIC = Polynomial([-1, 0, 1])
PHI = (1.0 + math.sqrt(5.0)) / 2.0
SEED = 20240817


def _ray(rng):
    return cmath.exp(2j * math.pi * rng.random())


def _report(label, elapsed, budget, detail):
    assert elapsed < budget, f"{label}: {elapsed:.1f}s exceeded the {budget}s budget"
    print(f"PASS {label}: {detail} ({elapsed:.2f}s < {budget}s)")


# ---------------------------------------------------------------------------


def test_01_escape_recursion_identities():
    """phi+ o f = phi+^d and g- o f^-1 = d g- - log|a| on 1000 points."""
    start = time.perf_counter()
    rng = random.Random(SEED)
    worst_plus = 0.0
    worst_minus = 0.0
    for p in (SQUARE, BASIC):
        for a in (0.01, 0.05):
            henon = HenonMap(p, a)
            d = henon.degree
            alpha = henon.domain_params().alpha
            for _ in range(250):
                big = rng.uniform(2.0, 30.0) * alpha * _ray(rng)
                small = rng.uniform(0.0, 0.9) * abs(big) * _ray(rng)
                z = Point(big, small)
                ev = phi_plus(henon, z)
                ev_next = phi_plus(henon, henon.apply(z))
                worst_plus = max(
                    worst_plus,
                    abs(ev_next.value - ev.value**d) / abs(ev.value) ** d,
                )
                w = Point(small, big)
                gv = green(henon, w, "minus").value
                gv_back = green(henon, henon.apply_inverse(w), "minus").value
                worst_minus = max(
                    worst_minus, abs(gv_back - (d * gv - math.log(abs(a))))
                )
    assert worst_plus < 1e-9
    assert worst_minus < 1e-9
    _report(
        "escape recursion identities",
        time.perf_counter() - start,
        10.0,
        f"1000 points, plus residual {worst_plus:.2e}, minus residual {worst_minus:.2e}",
    )


def test_02_degenerate_limit_law():
    """|phi-^2 - (p(y) - x)| = O(a) at a fixed point, uniformly as a -> 0."""
    start = time.perf_counter()
    ratios = []
    for p in (SQUARE, BASIC):
        target = p(5.0)  # p(y) - x at (x, y) = (0, 5)
        for a in (1e-2, 1e-3, 1e-4):
            henon = HenonMap(p, a)
            value = evaluator(henon, "minus", 1e-13, None, False)(Point(0.0, 5.0)).value
            ratios.append(abs(value * value - target) / a)
    assert max(ratios) < 1.0  # single constant across all a
    _report(
        "degenerate limit law",
        time.perf_counter() - start,
        1.0,
        f"max |phi-^2 - v|/|a| = {max(ratios):.2e} over a in {{1e-2,1e-3,1e-4}}",
    )


def _scan_root(henon, x, lo, hi, step):
    """Oracle zero of y -> tangency at fixed x: dense scan + bisection."""
    count = int(round((hi - lo) / step))
    ys = [lo + i * step for i in range(count + 1)]
    vals = [tangency_value(henon, Point(x, y)).value.real for y in ys]
    brackets = [
        (ys[i], ys[i + 1])
        for i in range(count)
        if vals[i] == 0 or (vals[i] < 0) != (vals[i + 1] < 0)
    ]
    assert len(brackets) == 1, f"x={x}: expected one sign change, got {len(brackets)}"
    a, b = brackets[0]
    fa = tangency_value(henon, Point(x, a)).value.real
    for _ in range(60):
        mid = 0.5 * (a + b)
        fm = tangency_value(henon, Point(x, mid)).value.real
        if fm == 0:
            return mid
        if (fa < 0) != (fm < 0):
            b = mid
        else:
            a, fa = mid, fm
    return 0.5 * (a + b)


def test_03_critical_locus_asymptote():
    """Traced component stays in |y| <= 0.05 over |x| in [10, 1e4], shrinks
    over the outer decade, and matches a scan-and-bisect oracle to 1e-6."""
    start = time.perf_counter()
    henon = HenonMap(BASIC, 0.01)
    trace = trace_primary_component(henon, 0.0, x_range=(10.0, 1e4), step=0.1)
    max_abs_y = max(abs(s.point.y) for s in trace.samples)
    assert max_abs_y <= 0.05

    outer = [s for s in trace.samples if abs(s.point.x) >= 1e3]
    assert len(outer) > 5
    mags = [abs(s.point.y) for s in outer]  # ascending |x|
    assert all(mags[i + 1] <= mags[i] + 1e-15 for i in range(len(mags) - 1))

    worst_gap = 0.0
    for target in (10.0, 1e2, 1e3, 1e4):
        sample = min(trace.samples, key=lambda s: abs(abs(s.point.x) - target))
        x = sample.point.x
        root = _scan_root(henon, x, -0.1, 0.1, 2e-3)
        worst_gap = max(worst_gap, abs(root - sample.point.y))
    assert worst_gap < 1e-6
    _report(
        "critical locus asymptote",
        time.perf_counter() - start,
        60.0,
        f"{len(trace.samples)} samples, max |y| {max_abs_y:.4f}, "
        f"scan-oracle gap {worst_gap:.2e}",
    )


def test_04_contact_order_two():
    """The two foliations meet to order exactly 2 at 100 traced points."""
    start = time.perf_counter()
    henon = HenonMap(BASIC, 0.01)
    trace = trace_primary_component(henon, 0.0, x_range=(10.0, 1e4), step=0.06)
    assert len(trace.samples) >= 100
    stride = (len(trace.samples) - 1) / 99.0
    picked = [trace.samples[int(i * stride)] for i in range(100)]
    orders = [contact_order(henon, s.point) for s in picked]
    assert orders == [2] * 100
    _report(
        "contact order",
        time.perf_counter() - start,
        60.0,
        "order 2 at all 100 traced points",
    )


def test_05_covering_certificate():
    """phi+ restricted to the component is a degree-one cover of each test
    circle: winding 1 and closure < 1e-8 at rho = 2, 8, 32."""
    start = time.perf_counter()
    henon = HenonMap(BASIC, 0.01)
    report = verify_biholomorphism(henon, 0.0, radii=(2.0, 8.0, 32.0))
    assert report.ok
    for item in report.items:
        assert item.winding == 1
        assert item.closure_error < 1e-8
    worst = max(item.closure_error for item in report.items)
    _report(
        "covering certificate",
        time.perf_counter() - start,
        60.0,
        f"winding 1 at rho in {{2, 8, 32}}, worst closure {worst:.2e}",
    )


def test_06_monodromy_orbit_and_leaf_witness():
    """Degree-2 monodromy orbit has size 2 with witness omega = -1, and the
    witness collapses to +1 after one forward iterate."""
    start = time.perf_counter()
    henon = HenonMap(BASIC, 0.01)
    z, _ = locate_on_locus(henon, 4.2)
    orbit = monodromy_orbit(henon, 0.0, z, 1)
    assert len(orbit) == 2
    witness = same_leaf_plus(henon, orbit[0], orbit[1])
    assert witness is not None
    assert abs(witness.omega - (-1.0)) < 1e-8
    after = same_leaf_plus(henon, henon.apply(orbit[0]), henon.apply(orbit[1]))
    assert after is not None
    assert abs(after.omega - 1.0) < 1e-8
    _report(
        "monodromy orbit",
        time.perf_counter() - start,
        30.0,
        f"size 2, omega = {witness.omega.real:+.6f}, forward witness +1",
    )


def test_07_gradient_index_values():
    """Index 1 around one logarithmic pole of g- on a stable disk; index
    1 - d = -1 on the disk minus the d forward-image holes."""
    start = time.perf_counter()
    henon = HenonMap(BASIC, 0.005)
    m_z = local_stable_graph(henon, PHI, mesh=32)
    m_w = local_stable_graph(henon, -PHI, mesh=32)
    plain = gradient_index(henon, m_z, 0.4)
    assert plain == 1

    holes = []
    for m in (m_z, m_w):
        loop = []
        for j in range(256):
            v = m.radius * cmath.exp(2j * math.pi * j / 256)
            w = graph_point(henon, m, v)
            loop.append(henon.a * w.y)  # v(f(x, y)) = a y
        assert gradient_winding(henon, m_z, loop) == 1
        holes.append(loop)
    with_holes = boundary_index(henon, m_z, 0.4, holes)
    assert with_holes == -1
    _report(
        "gradient index",
        time.perf_counter() - start,
        60.0,
        f"disk loop index {plain}, boundary-with-holes index {with_holes}",
    )


def test_08_degenerate_manifold_graphs():
    """At a = 0 the stable graph is the constant vertical line and the
    unstable graph lies exactly on the degenerate curve (v = 0)."""
    start = time.perf_counter()
    worst_stable = 0.0
    worst_unstable = 0.0
    for p, z in ((SQUARE, 1.0), (BASIC, PHI)):
        henon = HenonMap(p, 0.0)
        stable = local_stable_graph(henon, z, mesh=16)
        worst_stable = max(worst_stable, max(abs(v - z) for v in stable.values))
        unstable = local_unstable_graph(henon, (z,) * 8, mesh=16)
        worst_unstable = max(worst_unstable, max(abs(v) for v in unstable.values))
    assert worst_stable < 1e-10
    assert worst_unstable < 1e-10
    _report(
        "degenerate manifold graphs",
        time.perf_counter() - start,
        10.0,
        f"stable spread {worst_stable:.1e}, unstable |v| {worst_unstable:.1e}",
    )


def test_09_exact_rigidity_computation():
    """Low-order defect coefficients match the golden text verbatim; the
    partial solution kills orders 1-2; the c1 = 0 case vanishes through
    degree 13 in the cube-root quotient and 25 violating specializations
    per case stay nonzero."""
    start = time.perf_counter()
    golden = defect_coefficients_text(13).splitlines()
    low = defect_coefficients_text(3).splitlines()
    assert low == golden[:3]
    assert low[0].startswith("z^1:")

    partial = check_partial_solution()
    assert partial.ok
    assert partial.annihilated == (1, 2)
    assert partial.witnesses >= 5

    case = verify_table_case("c1_zero")
    assert case.ok
    assert case.order == 13
    assert all(ok for _, ok in case.positive_checks)
    assert case.random_trials == 25
    assert case.violations_detected == 25
    _report(
        "exact rigidity computation",
        time.perf_counter() - start,
        120.0,
        "golden coefficients match, orders 1-2 annihilated, "
        "c1 = 0 case certified through degree 13 with 25/25 violations",
    )


def test_10_symbolic_numeric_chart_crosscheck():
    """The exact transition-series coefficients (orders 1-3) agree with a
    least-squares fit from numeric escape coordinates on the traced
    component: z = 1/psi+, w = 1/psi-^2 (the branch-free minus variable),
    p = x^2 - 1, a = 0.01."""
    start = time.perf_counter()
    a = 0.01
    henon = HenonMap(BASIC, a)
    trace = trace_primary_component(henon, 0.0, x_range=(20.0, 200.0), step=0.05)
    zs, ws = [], []
    plus = evaluator(henon, "plus", 1e-13, None, False)
    minus = evaluator(henon, "minus", 1e-13, None, False)
    for s in trace.samples:
        zs.append(1.0 / plus(s.point).value)
        fm = minus(s.point).value
        ws.append(a * a / (fm * fm))
    zs = np.array(zs)
    ws = np.array(ws)

    degree = 8
    scale = np.abs(zs).max()
    columns = np.column_stack([(zs / scale) ** m for m in range(1, degree + 1)])
    solution, *_ = np.linalg.lstsq(columns, ws, rcond=None)
    fitted = solution / scale ** np.arange(1, degree + 1)

    exact_at = {"a": Fraction(1, 100), "c": Fraction(-1)}
    sigma = sigma_series(3)
    worst = 0.0
    for m in (1, 2, 3):
        exact = complex(sigma.coeffs[m].evaluate(exact_at))
        rel = abs(fitted[m - 1] - exact) / abs(exact)
        worst = max(worst, rel)
    assert worst < 1e-5
    _report(
        "symbolic/numeric chart cross-check",
        time.perf_counter() - start,
        120.0,
        f"{len(trace.samples)} samples, worst relative error {worst:.2e} on orders 1-3",
    )
