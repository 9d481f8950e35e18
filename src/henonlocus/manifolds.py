"""Local stable and unstable manifolds in block coordinates.

Near a Julia point z of p the plane carries chart coordinates
``(u, v) = (p^{-1}(x) taken near y, p(y) - x)`` which straighten the
degenerate dynamics: at a = 0 vertical lines ``u = const`` are the natural
stable slices and ``v = 0`` is the image curve x = p(y).  For small
Jacobians the local stable manifold through the orbit shadowing
z, p(z), p^2(z), ... is the graph of a holomorphic map from a v-disk to a
u-disk, obtained as the limit of preimages of a vertical slice pulled back
through the orbit; the unstable manifold over a prescribed backward
history is the limit of forward images of the horizontal slice v = 0.
Both limits are computed mesh-node by mesh-node and stored as Taylor
polynomials recovered from circle samples; the two sides share the node
solver and the deepening loop, and differ only in the graphs they hand
the solver and the slice they start from.  A mesh node is one 2-D Newton
in (uu, y) with x = p(uu): the node w = (x, y) lies on a vertical graph
v = V(uu), and f(w) on an image graph u = U(v).  Since v(f(w)) = a y, the
u-coordinate of f(w) is U(a y), and substituting it into
p(u(f(w))) = p(x) - a y leaves two equations in (uu, y), so no Newton
runs inside the residual and the Jacobian comes from Horner passes.
The graph at level k of the orbit after n transforms depends on k only
through the base points from k on, so the deepening keeps each such graph
once per (level key, n): on an eventually periodic base (preperiod j,
period q) each depth is one more pass per level of the cycle and its
preperiod, at most (j + q) D passes to reach depth D, and one pass per
depth at a fixed point.  A base with no cycle pays D (D + 1) / 2 passes.
Both graphs need p hyperbolic with connected Julia set: the trap's cycle
search, run at a = 0 from each cached critical point of p, must find a
cycle, else ValueError names the critical point.

``gradient_index`` counts the turning of the planar gradient of the
backward Green's function restricted to a stable graph along a parameter
circle |v| = const.  A single block contributes index one (the degenerate
model is log|v|/d); removing the forward images of the d preimage blocks
leaves a region of index 1 - d.  The gradient is exact: one minus-side
evaluation per loop node, from one evaluator per loop, chained through the
same _chart_point with the derivative of the stored graph.
"""

import cmath
import math
from dataclasses import asdict, dataclass

from ._kernel import horner, horner_with_deriv
from .dynamics import CYCLE_STEPS, HenonMap, Point, Polynomial, _attracting_cycle, to_json
from .errors import (
    GradientVanishesOnLoop,
    GraphTransformDiverged,
    NewtonDivergence,
    NotInEscapeRegion,
    OnDegenerateCurve,
    require_integer,
)
from .escape import DEFAULT_TOL, evaluator

DELTA = 0.05  # radius of the v-disk of a block
DISK_RADIUS = 0.05  # radius of the u-disk about a Julia point
SHRINK = 0.5  # graphs are sampled on this fraction of the disk radius

_ROOT_TOL = 1e-14
_NODE_TOL = 1e-13
_GRAPH_TOL = 1e-10  # sup distance at which two successive graphs agree


@dataclass(frozen=True)
class LocalManifold:
    side: str  # "stable" | "unstable"
    base: complex
    history: tuple  # forward orbit to its first return (stable), or given backward history
    parameter_center: complex  # 0 for stable graphs, base for unstable ones
    radius: float  # parameter disk radius actually sampled
    delta: float
    disk_radius: float
    shrink: float
    nodes: tuple  # parameter values on the sampling circle
    values: tuple  # graph values at the nodes
    coefficients: tuple  # Taylor coefficients about parameter_center
    iterations: int  # pullback/pushforward depth actually used
    convergence: tuple  # sup-distances between successive depths
    preperiod: int | None  # j of the base sequence's cycle, None when it has none
    period: int | None  # q of that cycle

    def evaluate(self, param) -> complex:
        return horner(self.coefficients, complex(param) - self.parameter_center)


def _root_near(p: Polynomial, target: complex, seed: complex) -> complex:
    """The preimage branch of `target` under p that Newton reaches from seed."""
    u = complex(seed)
    for _ in range(60):
        pu, dp = horner_with_deriv(p.coefficients, u)
        if abs(dp) < 1e-12:
            raise NewtonDivergence("derivative of p vanished while inverting")
        step = (pu - target) / dp
        u -= step
        if abs(step) < _ROOT_TOL * max(1.0, abs(u)):
            return u
    raise NewtonDivergence("polynomial inversion did not converge")


def point_from_uv(henon: HenonMap, u: complex, v: complex) -> Point:
    """Inverse chart: x = p(u) and y the preimage of x + v next to u."""
    u = complex(u)
    x = henon.p(u)
    y = _root_near(henon.p, x + complex(v), u)
    return Point(x, y)


def _chart_point(henon, u, v, du, dv):
    """point_from_uv(u, v) and its differential (dx, dy) along (du, dv).

    x = p(u) gives dx = p'(u) du, and p(y) = x + v gives
    dy = (dx + dv) / p'(y).
    """
    w = point_from_uv(henon, u, v)
    dx = henon.p.derivative(u) * du
    return w, dx, (dx + dv) / henon.p.derivative(w.y)


def _taylor_from_circle(values, radius: float):
    """Taylor coefficients from equispaced circle samples, noise floored.
    numpy is imported here, its one use in the module, so that the graph
    builders load it only when they run."""
    import numpy as np

    arr = np.fft.fft(np.asarray(values, dtype=complex)) / len(values)
    top = float(np.max(np.abs(arr)))
    floor = 1e-13 * max(top, 1e-300)
    return tuple(
        0j if abs(c) <= floor else complex(c) / radius**k for k, c in enumerate(arr)
    )


def _require_mesh(mesh: int) -> None:
    require_integer("mesh", mesh)
    if not mesh >= 1:
        raise ValueError(f"mesh must be at least 1 circle node, got {mesh!r}")


def _require_tame_polynomial(p: Polynomial) -> None:
    """Admit p only when the trap's cycle search, run at a = 0, finds an
    attracting cycle from every critical point of p."""
    for c in p.critical_points():
        if _attracting_cycle(HenonMap(p, 0), c) is None:
            raise ValueError(
                f"the orbit of the critical point {c:.6g} of p settles on no attracting "
                f"cycle within {CYCLE_STEPS} steps: p is not admitted as hyperbolic"
            )


# ---------------------------------------------------------------------------
# graph transform, shared by both sides


def _solve_node(henon, seed, vertical, image, what):
    """Mesh node (uu, y) near seed, by one Newton with x = p(uu) on

        F1 = p(y) - x - V(uu),   F2 = p(U(a y)) - p(x) + a y,

    where vertical = (h, center) gives V(uu) = h(uu - center) and image = g
    gives U = g; both are Taylor coefficients.  The Jacobian is exact:
    ((-p'(uu) - V', p'(y)), (-p'(x) p'(uu), a (p'(U) g'(a y) + 1))).  Both
    steps must fall below _NODE_TOL.
    """
    coeffs, a = henon.p.coefficients, henon.a
    h, center = vertical
    uu, y = seed
    for _ in range(50):
        x, dx = horner_with_deriv(coeffs, uu)
        py, dpy = horner_with_deriv(coeffs, y)
        px, dpx = horner_with_deriv(coeffs, x)
        vv, dvv = horner_with_deriv(h, uu - center)
        g, dg = horner_with_deriv(image, a * y)
        pg, dpg = horner_with_deriv(coeffs, g)
        f1, f2 = py - x - vv, pg - px + a * y
        j11, j21, j22 = -dx - dvv, -dpx * dx, a * (dpg * dg + 1)
        det = j11 * j22 - dpy * j21
        if det == 0:
            break
        du, dy = (f1 * j22 - dpy * f2) / det, (j11 * f2 - j21 * f1) / det
        uu, y = uu - du, y - dy
        if abs(du) < _NODE_TOL * max(1.0, abs(uu)) and abs(dy) < _NODE_TOL * max(1.0, abs(y)):
            return uu, y
    raise NewtonDivergence(f"{what} Newton stalled at a mesh node")


def _returns_to(later, earlier):
    """Whether base point `later` is `earlier` again, to the node tolerance."""
    return abs(later - earlier) < _NODE_TOL * max(1.0, abs(earlier))


def _eventual_cycle(bases):
    """(preperiod j, period q) of a base sequence b, or (None, None).

    (j, q) is the first pair, by j + q and then j, from which b repeats:
    b[m + q] returns to b[m] for every m >= j.  The whole tail is checked
    because a backward history may leave a cycle.
    """
    for end in range(1, len(bases)):
        for j in range(end):
            q = end - j
            if all(_returns_to(bases[m + q], bases[m]) for m in range(j, len(bases) - q)):
                return j, q
    return None, None


def _deepen(bases, slice_at, transform, iterations, what):
    """Deepen the graph transform until successive graphs agree to _GRAPH_TOL.

    Level k is the block at bases[k], and slice_at(k) the Taylor
    coefficients of the slice there.  transform(k, coeffs, seeds) maps the
    graph `coeffs` at level k + 1 to level k, from Newton seeds that are
    None on the level's first transform, and returns the node values,
    Taylor coefficients and the seeds of the next transform at level k.

    The graph at level k after n transforms depends on k only through the
    bases from k on, so it is kept once per (key(k), n), with key(k) = k
    before the preperiod j and j + (k - j) mod q from there.  Depth D then
    costs at most (j + q) D passes on an eventually periodic base, and
    D (D + 1) / 2 on a base with no cycle, whose spent entries are dropped
    as it goes.

    Returns the node values and coefficients at level 0 after the last
    depth tried, that depth, the sup-distances between successive depths,
    and (j, q).
    """
    if iterations < 1:
        raise ValueError("iterations must be positive")
    pre, period = _eventual_cycle(bases)
    cycle = "no cycle" if period is None else f"preperiod {pre}, period {period}"

    def key(k):
        return k if period is None or k < pre else pre + (k - pre) % period

    memo = {}  # (key, n) -> node values, coefficients, next seeds

    def graph(k, n):
        return (None, slice_at(key(k)), None) if n == 0 else memo[key(k), n]

    prev = None
    conv = []
    try:
        for depth in range(1, iterations + 1):
            for k in range(depth - 1, -1, -1):
                lk, n = key(k), depth - k
                if (lk, n) in memo:
                    continue
                memo[lk, n] = transform(lk, graph(k + 1, n - 1)[1], graph(k, n - 1)[2])
                if period is None or lk < pre:  # no other level reads these seeds
                    memo.pop((lk, n - 1), None)
            vals, coeffs, _ = memo[0, depth]
            if prev is not None:
                dist = max(abs(p1 - p2) for p1, p2 in zip(vals, prev))
                conv.append(dist)
                if dist < _GRAPH_TOL:
                    break
            prev = vals
    except NewtonDivergence as exc:
        raise GraphTransformDiverged(
            f"{what} transform failed at depth {depth} ({cycle}): {exc}"
        ) from exc
    if conv and conv[-1] >= _GRAPH_TOL:
        raise GraphTransformDiverged(
            f"{what} still moving by {conv[-1]:.3g} after {iterations} transforms ({cycle})"
        )
    return vals, coeffs, depth, tuple(conv), (pre, period)


# ---------------------------------------------------------------------------
# stable side


def local_stable_graph(
    henon: HenonMap, z: complex, iterations: int = 48, mesh: int = 32
) -> LocalManifold:
    """Graph v -> u of the local stable manifold over the orbit of z.

    Pulls the vertical slice u = p^n(z) back n times and deepens n until
    two successive graphs agree to 1e-10 in the sup norm over the mesh.
    The orbit is computed up to its first return only: past it the orbit
    repeats, and the float orbit of a repelling cycle would drift off.
    z must be finite (ValueError).
    """
    _require_mesh(mesh)
    require_integer("iterations", iterations)
    z = complex(z)
    if not cmath.isfinite(z):
        raise ValueError(f"z {z!r} must be finite")
    _require_tame_polynomial(henon.p)
    orbit = [z]
    while len(orbit) <= iterations and not any(_returns_to(orbit[-1], b) for b in orbit[:-1]):
        orbit.append(henon.p(orbit[-1]))
    radius = SHRINK * DELTA
    nodes = tuple(radius * cmath.exp(2j * math.pi * j / mesh) for j in range(mesh))

    def slice_at(k):
        return (orbit[k],)

    def pull_back(k, coeffs, seeds):
        # node w = (uu, v) on the vertical line v, f(w) on the next graph
        if seeds is None:
            seeds = [(orbit[k], orbit[k])] * mesh
        solved = [
            _solve_node(henon, seed, ((v,), 0j), coeffs, "pullback")
            for v, seed in zip(nodes, seeds)
        ]
        vals = [uu for uu, _ in solved]
        return vals, _taylor_from_circle(vals, radius), solved

    vals0, coeffs0, used, conv, (pre, period) = _deepen(
        orbit, slice_at, pull_back, iterations, "stable graph"
    )
    spread = max(abs(val - orbit[0]) for val in vals0)
    if spread >= DISK_RADIUS:
        raise GraphTransformDiverged(
            f"stable graph leaves the block: spread {spread:.3g} >= {DISK_RADIUS:.3g}"
        )
    return LocalManifold(
        side="stable",
        base=orbit[0],
        history=tuple(orbit),
        parameter_center=0j,
        radius=radius,
        delta=DELTA,
        disk_radius=DISK_RADIUS,
        shrink=SHRINK,
        nodes=nodes,
        values=tuple(vals0),
        coefficients=coeffs0,
        iterations=used,
        convergence=conv,
        preperiod=pre,
        period=period,
    )


# ---------------------------------------------------------------------------
# unstable side


def local_unstable_graph(
    henon: HenonMap, history, iterations: int | None = None, mesh: int = 32
) -> LocalManifold:
    """Graph u -> v of the local unstable manifold over a backward history.

    history = (y0, y-1, y-2, ...) with p(y-(j+1)) = y-j; the horizontal
    slice v = 0 at the history tail is pushed forward and the depth grows
    until successive graphs agree to 1e-10.  Every entry must be finite
    (ValueError): a NaN would pass the backward-orbit check.
    """
    _require_mesh(mesh)
    hist = tuple(complex(h) for h in history)
    for h in hist:
        if not cmath.isfinite(h):
            raise ValueError(f"history entry {h!r} must be finite")
    _require_tame_polynomial(henon.p)
    if len(hist) < 2:
        raise ValueError("history needs at least two points")
    for later, earlier in zip(hist, hist[1:]):
        if abs(henon.p(earlier) - later) > 1e-8:
            raise ValueError("history is not a backward orbit under p")
    if iterations is None:
        iterations = len(hist) - 1
    require_integer("iterations", iterations)
    if not 1 <= iterations <= len(hist) - 1:
        raise ValueError("iterations must fit inside the history")
    radius = SHRINK * DISK_RADIUS
    rays = tuple(cmath.exp(2j * math.pi * j / mesh) for j in range(mesh))

    def push_forward(k, coeffs, seeds):
        # node w on the prior graph v = h(uu - center_prev), f(w) on the
        # vertical line u = center + radius * ray, where v(f(w)) = a y
        center, center_prev = hist[k], hist[k + 1]
        if seeds is None:
            starts = (center_prev + radius * ray / henon.p.derivative(center_prev) for ray in rays)
            seeds = [(uu, uu) for uu in starts]
        prior = (coeffs, center_prev)
        sources = [
            _solve_node(henon, seed, prior, (center + radius * ray,), "pushforward")
            for ray, seed in zip(rays, seeds)
        ]
        vals = [henon.a * y for _, y in sources]
        return vals, _taylor_from_circle(vals, radius), sources

    vals0, coeffs0, used, conv, (pre, period) = _deepen(
        hist[: iterations + 1], lambda k: (0j,), push_forward, iterations, "unstable graph"
    )
    spread = max(abs(val) for val in vals0)
    if spread >= DELTA:
        raise GraphTransformDiverged(
            f"unstable graph leaves the block: spread {spread:.3g} >= {DELTA:.3g}"
        )
    nodes = tuple(hist[0] + radius * ray for ray in rays)
    return LocalManifold(
        side="unstable",
        base=hist[0],
        history=hist,
        parameter_center=hist[0],
        radius=radius,
        delta=DELTA,
        disk_radius=DISK_RADIUS,
        shrink=SHRINK,
        nodes=nodes,
        values=tuple(vals0),
        coefficients=coeffs0,
        iterations=used,
        convergence=conv,
        preperiod=pre,
        period=period,
    )


# ---------------------------------------------------------------------------
# gradient winding


def _gradient_at(henon, minus, manifold, t):
    """Planar gradient of g- restricted to the graph, at disk parameter t.

    g- = Re log phi- and the graph is holomorphic in t, so the gradient is
    the conjugate of the chain-rule derivative of log phi- along the graph:
    (du, dv) from the stored Taylor polynomial, then (dx, dy) by _chart_point;
    `minus` is the loop's minus-side gradient evaluator.
    """
    t = complex(t)
    s = t - manifold.parameter_center
    m, dm = horner_with_deriv(manifold.coefficients, s)
    if manifold.side == "stable":
        u, v, du, dv = m, t, dm, 1.0
    else:
        u, v, du, dv = t, m, 1.0, dm
    w, dx, dy = _chart_point(henon, u, v, du, dv)
    try:
        _, (gx, gy) = minus(w)
    except (NotInEscapeRegion, OnDegenerateCurve) as exc:
        raise GradientVanishesOnLoop(f"g- has no gradient at a loop point: {exc}") from exc
    return (gx * dx + gy * dy).conjugate()


def gradient_winding(henon: HenonMap, manifold: LocalManifold, params) -> int:
    """Turns of the gradient of g- restricted to the graph along a loop.

    params is a closed loop of disk parameters (last connects to first);
    it must be sampled finely enough that the direction turns by less than
    a quarter circle between neighbours.
    """
    loop = [complex(v) for v in params]
    if len(loop) < 16:
        raise ValueError("need at least 16 loop nodes")
    minus = evaluator(henon, "minus", DEFAULT_TOL, None, True)
    grads = [_gradient_at(henon, minus, manifold, v) for v in loop]
    total = 0.0
    for g1, g2 in zip(grads, grads[1:] + grads[:1]):
        if abs(g1) < 1e-10 or abs(g2) < 1e-10:
            raise GradientVanishesOnLoop(
                f"gradient magnitude {min(abs(g1), abs(g2)):.3g} on the loop"
            )
        darg = cmath.phase(g2 / g1)
        if abs(darg) >= 0.5 * math.pi:
            raise ValueError("loop sampling too coarse to track the gradient direction")
        total += darg
    turns = total / (2.0 * math.pi)
    nearest = round(turns)
    if abs(turns - nearest) > 0.05:
        raise ValueError(f"winding {turns:.4f} is not close to an integer")
    return int(nearest)


def gradient_index(henon: HenonMap, manifold: LocalManifold, loop_radius: float) -> int:
    """Winding of the restricted gradient of g- around |v| = loop_radius*delta.

    The loop starts at 64 nodes and doubles until the direction is resolved,
    up to 2048 nodes.
    """
    if manifold.side != "stable":
        raise ValueError("gradient winding is defined on stable graphs")
    rad = loop_radius * manifold.delta
    if not 0.0 < rad <= manifold.radius * (1.0 + 1e-12):
        raise ValueError("loop must stay inside the sampled graph disk")
    n = 64
    while True:
        params = [rad * cmath.exp(2j * math.pi * j / n) for j in range(n)]
        try:
            return gradient_winding(henon, manifold, params)
        except ValueError:
            n *= 2
            if n > 2048:
                raise GradientVanishesOnLoop(
                    "gradient direction could not be resolved on the loop"
                )


# ---------------------------------------------------------------------------
# serialization


def manifold_to_json(manifold: LocalManifold) -> str:
    return to_json(asdict(manifold), 2)
