"""Crossed-mapping coordinates, local manifold graphs, gradient winding.

Independent oracles: the uv chart is checked against hand values and
round trips, stable graphs against a direct slice-preimage solved by a
fresh 2-D Newton with its own forward tangent accumulation, the exact
restricted gradient against central differences of g- along the graph,
the winding counts against the degenerate closed form log|v|/d, and the
memoised deepening against the restarting one it replaced.
"""

import cmath
import json
import math
import random
from dataclasses import dataclass, replace

import pytest

from henonlocus import manifolds
from henonlocus._kernel import horner
from henonlocus.dynamics import HenonMap, Point, Polynomial
from henonlocus.errors import (
    GradientVanishesOnLoop,
    GraphTransformDiverged,
    HenonLocusError,
    NewtonDivergence,
)
from henonlocus.manifolds import (
    DELTA,
    DISK_RADIUS,
    SHRINK,
    LocalManifold,
    boundary_index,
    gradient_index,
    gradient_winding,
    local_stable_graph,
    local_unstable_graph,
    manifold_to_json,
    point_from_uv,
)
from henonlocus.escape import phi_minus
from henonlocus.manifolds import (
    _gradient_at,
    _root_near,
    _solve_node,
    _stable_residual,
    _taylor_from_circle,
    _unstable_residual,
)

SQUARE = Polynomial([0, 0, 1])  # x^2
BASIC = Polynomial([-1, 0, 1])  # x^2 - 1

# beta fixed point of x^2 - 1; it lies on the Julia set boundary.
PHI = (1.0 + math.sqrt(5.0)) / 2.0


# ---------------------------------------------------------------------------
# oracles: the uv chart forward, and the plane point of a graph


BETA = 0.8  # separation scale of the preimage branches of p near J(p)


class OutsideVPrime(HenonLocusError):
    """Point is outside the (u, v) coordinate chart."""


@dataclass(frozen=True)
class UVPoint:
    u: complex
    v: complex


def uv_coords(henon, z, delta=DELTA, beta=BETA):
    """Block coordinates (u, v), the inverse of point_from_uv: v = p(y) - x
    with |v| < delta, and u the preimage of x under p next to y, within
    beta/2 of it."""
    x, y = complex(z[0]), complex(z[1])
    v = henon.p(y) - x
    if abs(v) >= delta:
        raise OutsideVPrime(f"|v| = {abs(v):.6g} is not below delta = {delta:.6g}")
    u = _root_near(henon.p, x, y)
    if abs(u - y) >= 0.5 * beta:
        raise OutsideVPrime(
            f"preimage branch is {abs(u - y):.6g} from y, past beta/2 = {0.5 * beta:.6g}"
        )
    return UVPoint(u, v)


def graph_point(henon, manifold, param):
    """The plane point of a manifold graph at the given disk parameter."""
    t = complex(param)
    if manifold.side == "stable":
        return point_from_uv(henon, manifold.evaluate(t), t)
    return point_from_uv(henon, t, manifold.evaluate(t))


# ---------------------------------------------------------------------------
# uv chart


def test_v_is_defect_from_degenerate_curve():
    henon = HenonMap(SQUARE, 0.01)
    uv = uv_coords(henon, Point(3.0, 2.0), delta=1.5)
    assert uv.v == pytest.approx(1.0, abs=1e-14)  # p(2) - 3
    assert abs(henon.p(uv.u) - 3.0) < 1e-12


def test_u_is_preimage_branch_near_y():
    henon = HenonMap(SQUARE, 0.01)
    uv = uv_coords(henon, Point(4.0, 2.1), delta=1.5)
    assert uv.u == pytest.approx(2.0, abs=1e-12)
    assert uv.v == pytest.approx(0.41, abs=1e-12)


def test_uv_roundtrip_random():
    henon = HenonMap(BASIC, 0.01)
    rng = random.Random(11)
    for _ in range(200):
        rho = rng.uniform(0.9, 1.7)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        y = rho * cmath.exp(1j * theta)
        v = rng.uniform(0.0, 0.045) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        x = henon.p(y) - v
        uv = uv_coords(henon, Point(x, y))
        assert abs(henon.p(uv.u) - x) < 1e-10
        assert abs(uv.u - y) < 0.03  # branch near y, off by about v / p'(y)
        assert abs(uv.v - v) < 1e-12
        z = point_from_uv(henon, uv.u, uv.v)
        assert abs(z.x - x) < 1e-10
        assert abs(z.y - y) < 1e-10


def test_uv_rejects_large_v():
    henon = HenonMap(BASIC, 0.01)
    with pytest.raises(OutsideVPrime):
        uv_coords(henon, Point(henon.p(1.2) - 0.2, 1.2))  # |v| = 0.2 >= 0.05


def test_uv_rejects_wandering_branch():
    # x far from p(y): the preimage branch is no longer within beta/2 of y.
    henon = HenonMap(SQUARE, 0.01)
    with pytest.raises(OutsideVPrime):
        uv_coords(henon, Point(3.0, 2.0), delta=1.5, beta=0.4)


def test_point_from_uv_explicit():
    henon = HenonMap(SQUARE, 0.01)
    z = point_from_uv(henon, 2.0, 0.41)
    assert abs(z.x - 4.0) < 1e-12
    assert abs(z.y - 2.1) < 1e-12


# ---------------------------------------------------------------------------
# stable graphs


def test_stable_graph_degenerate_is_vertical_line():
    for poly, z in ((BASIC, PHI), (SQUARE, 1.0)):
        henon = HenonMap(poly, 0.0)
        m = local_stable_graph(henon, z, iterations=8, mesh=16)
        assert m.side == "stable"
        assert max(abs(val - z) for val in m.values) < 1e-10
        assert abs(m.evaluate(0.0) - z) < 1e-10


def test_stable_graph_invariance():
    # f maps the graph at z into the graph at p(z); z here is fixed.
    henon = HenonMap(BASIC, 0.01)
    m = local_stable_graph(henon, PHI, mesh=32)
    for k in range(8):
        v = 0.9 * m.radius * cmath.exp(2j * math.pi * k / 8)
        w = graph_point(henon, m, v)
        fw = henon.apply(w)
        uv = uv_coords(henon, fw)
        assert abs(uv.u - m.evaluate(uv.v)) < 1e-7


def _iterate_with_tangent(henon, z, n):
    """Forward orbit with the 2x2 tangent map, accumulated column-wise."""
    x, y = complex(z[0]), complex(z[1])
    m11, m12, m21, m22 = 1.0 + 0j, 0j, 0j, 1.0 + 0j
    for _ in range(n):
        dp = henon.p.derivative(x)
        x, y = henon.p(x) - henon.a * y, x
        m11, m12, m21, m22 = (
            dp * m11 - henon.a * m21,
            dp * m12 - henon.a * m22,
            m11,
            m12,
        )
    return Point(x, y), (m11, m12, m21, m22)


def _direct_slice_preimage(henon, z_orbit, v_target, n):
    """Solve v(w) = v_target, u(f^n(w)) = z_n by 2-D Newton (fresh oracle)."""
    x = henon.p(z_orbit[0]) - v_target
    y = complex(z_orbit[0])
    for depth in range(2, n + 1, 2):
        target = z_orbit[depth]
        for _ in range(60):
            w_end, (m11, m12, _, _) = _iterate_with_tangent(henon, Point(x, y), depth)
            uv_end = uv_coords(henon, w_end, delta=1.0, beta=1.6)
            f1 = henon.p(y) - x - v_target
            f2 = uv_end.u - target
            dp_end = henon.p.derivative(uv_end.u)
            j11, j12 = -1.0 + 0j, henon.p.derivative(y)
            j21, j22 = m11 / dp_end, m12 / dp_end
            det = j11 * j22 - j12 * j21
            dx = (f1 * j22 - f2 * j12) / det
            dy = (j11 * f2 - j21 * f1) / det
            x -= dx
            y -= dy
            if abs(dx) + abs(dy) < 1e-13 * max(1.0, abs(x) + abs(y)):
                break
    return Point(x, y)


def test_stable_graph_matches_direct_slice_preimage():
    henon = HenonMap(BASIC, 0.01)
    m = local_stable_graph(henon, PHI, mesh=32)
    orbit = [PHI]
    for _ in range(12):
        orbit.append(henon.p(orbit[-1]))
    for v in (0.012, -0.008 + 0.009j, 0.02j):
        w = _direct_slice_preimage(henon, orbit, v, 12)
        g = graph_point(henon, m, v)
        assert abs(w.x - g.x) < 1e-8
        assert abs(w.y - g.y) < 1e-8


def test_stable_graph_size_scales_with_a():
    sups = []
    for a in (1e-2, 1e-3):
        m = local_stable_graph(HenonMap(BASIC, a), PHI, mesh=16)
        sups.append(max(abs(val - PHI) for val in m.values))
    assert sups[0] < 0.05
    ratio = sups[0] / sups[1]
    assert 3.0 < ratio < 30.0


def test_stable_graph_contraction():
    m = local_stable_graph(HenonMap(BASIC, 0.01), PHI, mesh=16)
    conv = m.convergence
    assert conv, "expected at least one contraction step"
    for prev, cur in zip(conv, conv[1:]):
        if prev > 1e-13:
            assert cur <= 0.9 * prev
    assert conv[-1] < 1e-10


def test_stable_graphs_disjoint():
    henon = HenonMap(BASIC, 0.01)
    m1 = local_stable_graph(henon, PHI, mesh=16)
    m2 = local_stable_graph(henon, -PHI, mesh=16)
    gap = min(
        abs(v1 - v2) for v1 in m1.values for v2 in m2.values
    )
    assert gap > 1.0


def test_stable_graph_accepts_certified_hyperbolic():
    # x^2 - 0.5 has an attracting fixed point; the critical orbit check admits it.
    henon = HenonMap(Polynomial([-0.5, 0, 1]), 0.01)
    beta_fix = (1.0 + math.sqrt(3.0)) / 2.0
    m = local_stable_graph(henon, beta_fix, mesh=8)
    assert max(abs(val - beta_fix) for val in m.values) < 0.05


def test_graph_transform_needs_one_iteration():
    henon = HenonMap(BASIC, 0.01)
    with pytest.raises(ValueError, match="iterations"):
        local_stable_graph(henon, PHI, iterations=0, mesh=8)
    with pytest.raises(ValueError, match="iterations"):
        local_unstable_graph(henon, (PHI,) * 4, iterations=0, mesh=8)


@pytest.mark.parametrize("mesh", [0, -2])
def test_graph_transform_needs_a_mesh_node(mesh):
    henon = HenonMap(BASIC, 0.01)
    with pytest.raises(ValueError, match="mesh"):
        local_stable_graph(henon, PHI, mesh=mesh)
    with pytest.raises(ValueError, match="mesh"):
        local_unstable_graph(henon, (PHI,) * 4, mesh=mesh)


def test_stable_graph_rejects_escaping_critical_orbit():
    with pytest.raises(ValueError):
        local_stable_graph(HenonMap(Polynomial([0.26, 0, 1]), 0.01), 0.3)


def test_admission_names_the_critical_point_whose_orbit_escapes():
    # x^3 - 3x + 3: the critical point 1 is a superattracting fixed point,
    # and the orbit of -1 escapes (p(-1) = 5).
    henon = HenonMap(Polynomial([3, -3, 0, 1]), 0.01)
    for graph in (
        lambda: local_stable_graph(henon, 1.0, mesh=8),
        lambda: local_unstable_graph(henon, (1.0,) * 4, mesh=8),
    ):
        with pytest.raises(ValueError, match=r"critical point -1\+0j of p settles on no"):
            graph()


# ---------------------------------------------------------------------------
# unstable graphs


def test_unstable_graph_degenerate_is_horizontal():
    henon = HenonMap(BASIC, 0.0)
    m = local_unstable_graph(henon, (PHI,) * 7, mesh=16)
    assert m.side == "unstable"
    assert max(abs(val) for val in m.values) < 1e-10


def test_unstable_graph_invariance():
    henon = HenonMap(BASIC, 0.01)
    m = local_unstable_graph(henon, (PHI,) * 25, mesh=32)
    for k in range(8):
        u = PHI + 0.9 * m.radius * cmath.exp(2j * math.pi * k / 8)
        w = graph_point(henon, m, u)
        back = henon.apply_inverse(w)
        uv = uv_coords(henon, back)
        assert abs(uv.v - m.evaluate(uv.u)) < 1e-7


def test_unstable_graph_general_history():
    henon = HenonMap(BASIC, 0.01)
    history = [complex(PHI), complex(-PHI)]
    while len(history) < 22:
        history.append(cmath.sqrt(history[-1] + 1.0))
    history = tuple(history)
    for later, earlier in zip(history, history[1:]):
        assert abs(henon.p(earlier) - later) < 1e-12
    m = local_unstable_graph(henon, history, mesh=16)
    sup = max(abs(val) for val in m.values)
    assert sup < 5.0 * abs(henon.a)
    assert m.base == PHI


def test_unstable_graph_size_scales_with_a():
    sups = []
    for a in (1e-2, 1e-3):
        m = local_unstable_graph(HenonMap(BASIC, a), (PHI,) * 25, mesh=16)
        sups.append(max(abs(val) for val in m.values))
    ratio = sups[0] / sups[1]
    assert 3.0 < ratio < 30.0


def test_unstable_graph_requires_backward_orbit():
    henon = HenonMap(BASIC, 0.01)
    with pytest.raises(ValueError):
        local_unstable_graph(henon, (PHI, PHI + 0.3))


# ---------------------------------------------------------------------------
# memoised deepening
#
# The oracle is the deepening the memo replaced: every depth pulls the
# slice back (or pushes it forward) through every level again, seeding each
# level from its own graph one depth earlier.


def _restarting_deepen(layer, iterations):
    prev, conv = None, []
    for depth in range(1, iterations + 1):
        vals = layer(depth)
        if prev is not None:
            conv.append(max(abs(p1 - p2) for p1, p2 in zip(vals, prev)))
            if conv[-1] < 1e-10:
                break
        prev = vals
    return vals, depth, conv


def _restarting_stable(henon, z, iterations, mesh):
    orbit = [complex(z)]
    for _ in range(iterations):
        orbit.append(henon.p(orbit[-1]))
    radius = SHRINK * DELTA
    nodes = [radius * cmath.exp(2j * math.pi * j / mesh) for j in range(mesh)]
    levels = [[orbit[k]] * mesh for k in range(iterations)]

    def layer(depth):
        coeffs = (orbit[depth],)
        for k in range(depth - 1, -1, -1):
            levels[k] = [
                _solve_node(_stable_residual(henon, coeffs, v), seed, "pullback")
                for v, seed in zip(nodes, levels[k])
            ]
            coeffs = _taylor_from_circle(levels[k], radius)
        return levels[0]

    return _restarting_deepen(layer, iterations)


def _restarting_unstable(henon, hist, mesh):
    iterations = len(hist) - 1
    radius = SHRINK * DISK_RADIUS
    rays = [cmath.exp(2j * math.pi * j / mesh) for j in range(mesh)]
    sources = [
        [hist[k + 1] + radius * ray / henon.p.derivative(hist[k + 1]) for ray in rays]
        for k in range(iterations)
    ]

    def layer(depth):
        coeffs = (0j,)
        for k in range(depth - 1, -1, -1):
            vals = []
            for i, ray in enumerate(rays):
                target = hist[k] + radius * ray
                residual = _unstable_residual(henon, coeffs, hist[k + 1], target)
                sources[k][i] = _solve_node(residual, sources[k][i], "pushforward")
                u_src = sources[k][i]
                w = point_from_uv(henon, u_src, horner(coeffs, u_src - hist[k + 1]))
                vals.append(henon.a * w.y)
            coeffs = _taylor_from_circle(vals, radius)
        return vals

    return _restarting_deepen(layer, iterations)


def _quadratic(c):
    return Polynomial([c, 0, 1])


def _beta(c):
    """The repelling fixed point (1 + sqrt(1 - 4c)) / 2 of x^2 + c."""
    return (1 + cmath.sqrt(1 - 4 * c)) / 2


BULB_C = -1 + 0.12j
CARDIOID_C = -0.3125  # multiplier -1/2
PERIOD_TWO = (-1 + cmath.sqrt(-3.8)) / 2  # a 2-cycle point of x^2 + 0.2


def _backward(history, length):
    """Extend a backward history by the principal square-root branch of x^2 - 1."""
    history = [complex(h) for h in history]
    while len(history) < length:
        history.append(cmath.sqrt(history[-1] + 1.0))
    return tuple(history)


@pytest.mark.parametrize("poly, a, base, cycle", [
    (_quadratic(BULB_C), 0.01 * cmath.exp(2j), _beta(BULB_C), (0, 1)),
    (_quadratic(CARDIOID_C), 0.003 * cmath.exp(1j), _beta(CARDIOID_C), (0, 1)),
    (BASIC, 0.0, PHI, (0, 1)),
    (BASIC, 0.005, PHI, (0, 1)),  # the CLI default
    (_quadratic(0.2), 0.005, PERIOD_TWO, (0, 2)),
    (BASIC, 0.005, -PHI, (1, 1)),  # p(-phi) = phi
])
def test_stable_memo_matches_restarting_oracle(poly, a, base, cycle):
    henon = HenonMap(poly, a)
    got = local_stable_graph(henon, base, iterations=24, mesh=16)
    values, depth, conv = _restarting_stable(henon, base, 24, 16)
    assert (got.preperiod, got.period) == cycle
    assert got.iterations == depth
    assert len(got.convergence) == len(conv)
    assert max(abs(g - w) for g, w in zip(got.values, values)) <= 1e-14


@pytest.mark.parametrize("history, cycle", [
    ((PHI,) * 25, (0, 1)),
    (_backward((PHI, -PHI), 22), (None, None)),
    # sits on the fixed point, then leaves it: a first return is no cycle
    (_backward((PHI, PHI, PHI, -PHI), 22), (None, None)),
])
def test_unstable_memo_matches_restarting_oracle(history, cycle):
    henon = HenonMap(BASIC, 0.01)
    got = local_unstable_graph(henon, history, mesh=16)
    values, depth, conv = _restarting_unstable(henon, history, 16)
    assert (got.preperiod, got.period) == cycle
    assert got.iterations == depth
    assert len(got.convergence) == len(conv)
    assert max(abs(g - w) for g, w in zip(got.values, values)) <= 1e-14


def _count_node_solves(monkeypatch):
    calls = []
    solve = manifolds._solve_node
    monkeypatch.setattr(
        manifolds, "_solve_node", lambda *args: calls.append(1) or solve(*args)
    )
    return calls


@pytest.mark.parametrize("poly, base, per_depth", [
    (BASIC, PHI, 1),
    (_quadratic(0.2), PERIOD_TWO, 2),
])
def test_periodic_base_costs_linear_node_solves(monkeypatch, poly, base, per_depth):
    calls = _count_node_solves(monkeypatch)
    m = local_stable_graph(HenonMap(poly, 0.005), base, mesh=16)
    assert m.period == per_depth
    if per_depth == 1:
        assert len(calls) == m.iterations * 16
    assert len(calls) <= per_depth * m.iterations * 16


def test_base_without_cycle_keeps_quadratic_node_solves(monkeypatch):
    calls = _count_node_solves(monkeypatch)
    m = local_unstable_graph(HenonMap(BASIC, 0.01), _backward((PHI, -PHI), 22), mesh=16)
    assert m.period is None
    assert len(calls) == m.iterations * (m.iterations + 1) // 2 * 16


@pytest.mark.parametrize("c", [0.128, 0.05, 0.2])
def test_main_cardioid_graphs_converge_with_index_one(c):
    # attracting multipliers 0.1 to 0.55: past 24 transforms, within the cap of 48
    henon = HenonMap(_quadratic(c), 0.003 * cmath.exp(1j))
    m = local_stable_graph(henon, _beta(c))
    assert 24 < m.iterations <= 48
    assert (m.preperiod, m.period) == (0, 1)
    assert gradient_index(henon, m, 0.4) == 1


def test_divergence_names_depth_and_cycle(monkeypatch):
    henon = HenonMap(_quadratic(0.2), 0.003 * cmath.exp(1j))
    moving = r"after 24 transforms \(preperiod 0, period 1\)"
    with pytest.raises(GraphTransformDiverged, match=moving):
        local_stable_graph(henon, _beta(0.2), iterations=24, mesh=8)
    with pytest.raises(GraphTransformDiverged, match=r"after 3 transforms \(no cycle\)"):
        local_unstable_graph(HenonMap(BASIC, 0.01), _backward((PHI, -PHI), 4), mesh=8)
    calls = _count_node_solves(monkeypatch)
    solve = manifolds._solve_node

    def stall_on_the_second_pass(*args):
        if len(calls) == 4:  # a fixed point's first pass made 4 solves
            raise NewtonDivergence("pullback Newton stalled at a mesh node")
        return solve(*args)

    monkeypatch.setattr(manifolds, "_solve_node", stall_on_the_second_pass)
    failed = r"transform failed at depth 2 \(preperiod 0, period 1\): pullback Newton stalled"
    with pytest.raises(GraphTransformDiverged, match=failed):
        local_stable_graph(HenonMap(BASIC, 0.01), PHI, mesh=4)


# ---------------------------------------------------------------------------
# graph-transform node residuals


def _forward_difference(residual, u, step=1e-7):
    """The derivative the node Newton once took: (R(u + h) - R(u)) / h."""
    return (residual(u + step)[0] - residual(u)[0]) / step


@pytest.mark.parametrize("poly, base, a", [
    (BASIC, PHI, 0.01),
    (BASIC, -PHI, 0.005 + 0.003j),
    (SQUARE, 1.0, -0.004j),
    (Polynomial([0, -3, 0, 1]), 2.0, 0.02),  # x^3 - 3x, fixed point 2
])
def test_node_residual_derivatives_match_forward_difference(poly, base, a):
    # Curved graphs, so the g_next' and h' terms of the chain rule count.
    henon = HenonMap(poly, a)
    g_next = (poly(base), 0.3 - 0.1j, 0.5j)  # stable: u = g_next(v) at f(w)
    h_prev = (0.002 + 0.001j, 0.03 - 0.01j, 0.05j)  # unstable: v = h(u - base)
    for k in range(6):
        ray = cmath.exp(2j * math.pi * (k + 0.25) / 6)
        u = base + 0.01 * ray
        residuals = (
            _stable_residual(henon, g_next, 0.02 * ray),
            _unstable_residual(henon, h_prev, base, poly(base) + 0.01),
        )
        for residual in residuals:
            oracle = _forward_difference(residual, u)
            _, exact = residual(u)
            assert abs(exact - oracle) <= 1e-6 * abs(oracle)


# ---------------------------------------------------------------------------
# gradient winding


def test_gradient_index_degenerate():
    # At a = 0 the restriction is log|v|/d: one logarithmic pole, index 1.
    henon = HenonMap(SQUARE, 0.0)
    m = local_stable_graph(henon, 1.0, iterations=8, mesh=16)
    assert gradient_index(henon, m, 0.4) == 1


def test_gradient_index_small_jacobian():
    henon = HenonMap(BASIC, 0.005)
    m = local_stable_graph(henon, PHI, mesh=32)
    assert gradient_index(henon, m, 0.4) == 1


def test_gradient_index_rejects_unstable_graph():
    henon = HenonMap(BASIC, 0.01)
    m = local_unstable_graph(henon, (PHI,) * 8, mesh=16)
    with pytest.raises(ValueError):
        gradient_index(henon, m, 0.4)


def _winding_from(monkeypatch, resolved_at):
    """Stub gradient_winding: ValueError below resolved_at nodes, else 1;
    return the node counts it was called with."""
    sizes = []

    def winding(henon, manifold, params):
        sizes.append(len(params))
        if len(params) < resolved_at:
            raise ValueError("loop sampling too coarse to track the gradient direction")
        return 1

    monkeypatch.setattr(manifolds, "gradient_winding", winding)
    return sizes


def test_gradient_index_doubles_the_loop_until_resolved(monkeypatch):
    henon = HenonMap(SQUARE, 0.0)
    m = local_stable_graph(henon, 1.0, iterations=8, mesh=16)
    sizes = _winding_from(monkeypatch, 256)
    assert gradient_index(henon, m, 0.4) == 1
    assert sizes == [64, 128, 256]


def test_gradient_index_gives_up_past_2048_nodes(monkeypatch):
    henon = HenonMap(SQUARE, 0.0)
    m = local_stable_graph(henon, 1.0, iterations=8, mesh=16)
    sizes = _winding_from(monkeypatch, math.inf)
    with pytest.raises(GradientVanishesOnLoop, match="could not be resolved"):
        gradient_index(henon, m, 0.4)
    assert sizes == [64, 128, 256, 512, 1024, 2048]


def test_gradient_winding_needs_16_loop_nodes():
    henon = HenonMap(SQUARE, 0.0)
    m = local_stable_graph(henon, 1.0, iterations=8, mesh=16)
    loop = [0.1 * cmath.exp(2j * math.pi * k / 15) for k in range(15)]
    with pytest.raises(ValueError, match="at least 16 loop nodes"):
        gradient_winding(henon, m, loop)


def _central_difference_gradient(henon, m, t, step=1e-6):
    """Planar gradient of g- = Re log phi- along the graph from values alone."""

    def g(s):
        return phi_minus(henon, graph_point(henon, m, s)).log_value.real

    gr = (g(t + step) - g(t - step)) / (2 * step)
    gi = (g(t + 1j * step) - g(t - 1j * step)) / (2 * step)
    return complex(gr, gi)


@pytest.mark.parametrize("poly, base, a", [
    (BASIC, PHI, 0.0),
    (BASIC, PHI, 0.005),
    (BASIC, -PHI, 0.01),
    (SQUARE, 1.0, 0.003),
])
def test_exact_gradient_matches_central_difference(poly, base, a):
    henon = HenonMap(poly, a)
    m = local_stable_graph(henon, base, mesh=32)
    for k in range(8):
        t = 0.4 * m.delta * cmath.exp(2j * math.pi * (k + 0.25) / 8)
        oracle = _central_difference_gradient(henon, m, t)
        assert abs(_gradient_at(henon, m, t) - oracle) <= 1e-6 * abs(oracle)


def test_exact_gradient_on_unstable_side_chart():
    # A true unstable graph lies in K- (g- is constant there), so the
    # unstable branch of the chain rule is checked on a graph lifted to
    # v ~ 0.02 >> a, whose points escape backward.
    henon = HenonMap(BASIC, 0.005)
    m = replace(
        local_unstable_graph(henon, (PHI,) * 25, mesh=32),
        coefficients=(0.02 + 0.005j, 0.3 - 0.1j, 0.5j),
    )
    for k in range(4):
        t = PHI + 0.5 * m.radius * cmath.exp(2j * math.pi * k / 4)
        oracle = _central_difference_gradient(henon, m, t)
        assert abs(_gradient_at(henon, m, t) - oracle) <= 1e-6 * abs(oracle)


def _hole_loop(henon, m, n_nodes):
    """v-parameters of the f-image of the boundary of a preimage graph."""
    params = []
    for j in range(n_nodes):
        v = m.radius * cmath.exp(2j * math.pi * j / n_nodes)
        w = graph_point(henon, m, v)
        params.append(henon.a * w.y)  # v(f(x, y)) = a y
    return params


def test_boundary_index_with_holes():
    henon = HenonMap(BASIC, 0.005)
    m_z = local_stable_graph(henon, PHI, mesh=32)
    m_w2 = local_stable_graph(henon, -PHI, mesh=32)
    holes = [_hole_loop(henon, m_z, 256), _hole_loop(henon, m_w2, 256)]
    for hole in holes:
        assert max(abs(v) for v in hole) < 0.4 * m_z.delta
        assert gradient_winding(henon, m_z, hole) == 1
    assert boundary_index(henon, m_z, 0.4, holes) == -1  # 1 - d


# ---------------------------------------------------------------------------
# serialization


def test_manifold_json_roundtrip():
    henon = HenonMap(BASIC, 0.01)
    m = local_stable_graph(henon, PHI, mesh=8)
    data = json.loads(manifold_to_json(m))
    assert data["side"] == "stable"
    assert data["base"] == [pytest.approx(PHI), 0.0]
    assert len(data["values"]) == 8
    assert data["radius"] == pytest.approx(m.radius)
    rebuilt = [complex(re, im) for re, im in data["values"]]
    assert rebuilt == list(m.values)
    assert (data["preperiod"], data["period"]) == (0, 1)
