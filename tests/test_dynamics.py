import cmath
import math
import random

import pytest

from henonlocus import dynamics
from henonlocus.dynamics import (
    TRAP_MARGIN,
    DomainParams,
    HenonMap,
    Point,
    Polynomial,
    attracting_trap,
    domain_params,
    in_v_minus,
    in_v_plus,
)
from henonlocus.errors import DegenerateJacobian

X2 = Polynomial([0, 0, 1])
X2M1 = Polynomial([-1, 0, 1])


def test_polynomial_requires_monic():
    with pytest.raises(ValueError):
        Polynomial([0, 0, 2])
    with pytest.raises(ValueError):
        Polynomial([1, 1])  # degree 1


def test_apply_formula():
    h = HenonMap(X2, 0.1)
    z = h.apply(Point(3, 2))
    assert z == Point(9 - 0.2, 3)


def test_inverse_roundtrip():
    h = HenonMap(X2M1, 0.05 + 0.01j)
    z = Point(0.3 - 0.7j, 1.2 + 0.4j)
    w = h.apply_inverse(h.apply(z))
    assert abs(w.x - z.x) < 1e-14 and abs(w.y - z.y) < 1e-14


def test_inverse_degenerate():
    with pytest.raises(DegenerateJacobian):
        HenonMap(X2, 0).apply_inverse(Point(1, 1))


def test_jacobian_determinant_is_a():
    # finite-difference Jacobian of apply at sampled points
    rng = random.Random(7)
    h = HenonMap(X2M1, 0.07 - 0.02j)
    eps = 1e-6
    for _ in range(50):
        z = Point(rng.uniform(-2, 2) + 1j * rng.uniform(-2, 2), rng.uniform(-2, 2))
        fxp = h.apply(Point(z.x + eps, z.y))
        fxm = h.apply(Point(z.x - eps, z.y))
        fyp = h.apply(Point(z.x, z.y + eps))
        fym = h.apply(Point(z.x, z.y - eps))
        j11 = (fxp.x - fxm.x) / (2 * eps)
        j12 = (fyp.x - fym.x) / (2 * eps)
        j21 = (fxp.y - fxm.y) / (2 * eps)
        j22 = (fyp.y - fym.y) / (2 * eps)
        det = j11 * j22 - j12 * j21
        assert abs(det - h.a) / abs(h.a) < 1e-6


def test_domain_params_x2():
    dp = domain_params(X2)  # fixed (r, R) = (1/2, 1/8)
    # analytic threshold for p = x^2 is (R+1)/r = 2.25, inflated by 5%
    assert abs(dp.alpha - 2.3625) < 1e-3
    assert dp.B == pytest.approx(2.0)


def test_map_domain_params_need_jacobian_below_R():
    # the invariance of V+ and V- is proved for |a| < R only
    h = HenonMap(X2M1, 0.124)
    assert h.domain_params() == domain_params(X2M1)
    assert h.domain_params() is h.domain_params()  # computed once per map
    for a in (0.125, -0.2, 0.1 + 0.1j, 3.0):
        h = HenonMap(X2M1, a)
        for _ in range(2):  # refused on every call, not only the first
            with pytest.raises(ValueError, match=r"\|a\| < R"):
                h.domain_params()


def test_domain_params_milder_constants_smaller_alpha():
    # Milder constants admit a smaller radius: at (r, R) = (0.9, 0.01) the
    # search criterion already holds at t = 2.3625 / 1.05, so a search there
    # would end below 2.3625; at the fixed (1/2, 1/8) it fails at t.
    p = Polynomial([0.3, 0, 1])
    t = 2.3625 / 1.05
    assert dynamics._alpha_ok(p, 0.9, 0.01, t)
    assert not dynamics._alpha_ok(p, dynamics.R_SMALL, dynamics.R_BIG, t)
    assert domain_params(p).alpha > 2.3625


def test_domain_params_scan_oracle():
    # independent check of both displayed inequalities on a |y|-scan
    for p in (X2, X2M1, Polynomial([0.3, 0, 1])):
        dp = domain_params(p)
        d = p.degree
        t = dp.alpha
        while t < 50:
            # sup of |q| over the circle |y| = t
            Q = sum(abs(c) * t**i for i, c in enumerate(p.q_coefficients()))
            assert Q / t**d + (dp.R + 1) / t ** (d - 1) < dp.r
            assert t**d - Q > (2 * dp.R + 1) * t
            t += 0.01
        # minimality (up to the 5% inflation): slightly below the search
        # point at least one inequality fails for these maps
        t0 = dp.alpha / 1.05 * 0.999
        Q = sum(abs(c) * t0**i for i, c in enumerate(p.q_coefficients()))
        assert (Q / t0**d + (dp.R + 1) / t0 ** (d - 1) >= dp.r) or (
            t0**d - Q <= (2 * dp.R + 1) * t0
        )


def test_v_membership_examples():
    dp = DomainParams(r=0.5, R=0.125, alpha=2.3625, degree=2)
    assert in_v_plus(Point(10, 1), dp) and not in_v_minus(Point(10, 1), dp)
    assert in_v_minus(Point(1, 10), dp)
    assert not in_v_plus(Point(1, 1), dp) and not in_v_minus(Point(1, 1), dp)


def _sample_v_plus(rng, dp, rmax=50.0):
    rad = rng.uniform(dp.alpha * 1.0001, rmax)
    x = rad * cmath.exp(2j * math.pi * rng.random())
    y = x * rng.uniform(0, 0.999) * cmath.exp(2j * math.pi * rng.random())
    return Point(x, y)


@pytest.mark.parametrize("p", [X2, X2M1])
def test_forward_invariance(p):
    rng = random.Random(11)
    dp = domain_params(p)
    for _ in range(1000):
        a = dp.R * 0.999 * rng.random() * cmath.exp(2j * math.pi * rng.random())
        h = HenonMap(p, a)
        z = _sample_v_plus(rng, dp)
        w = h.apply(z)
        assert in_v_plus(w, dp)
        assert abs(w.x) > (dp.R + 1) * abs(z.x)


@pytest.mark.parametrize("p", [X2, X2M1])
def test_backward_invariance(p):
    rng = random.Random(13)
    dp = domain_params(p)
    for _ in range(1000):
        a = dp.R * 0.999 * (0.05 + 0.95 * rng.random())
        h = HenonMap(p, a * cmath.exp(2j * math.pi * rng.random()))
        zp = _sample_v_plus(rng, dp)
        z = Point(zp.y, zp.x)  # reflect into V-
        w = h.apply_inverse(z)
        assert in_v_minus(w, dp)
        assert abs(w.y) > 2 * abs(z.y)


# ---------------------------------------------------------------------------
# certified trap around the attracting cycle

# the field workload's quadratic (attracting fixed point, multiplier ~ -0.85)
FIELD_QUADRATIC = HenonMap(Polynomial([-0.6 + 0.01j, 0, 1]), 0.034 + 0.029j)
# period-2 bulb: the 2-cycle near 0 <-> -1
BULB = HenonMap(Polynomial([-1 + 0.1j, 0, 1]), 0.01)
# cubic x^3 - 3 kappa^2 x, kappa = 0.75: a 2-cycle near +-0.79
CUBIC = HenonMap(Polynomial([0, -1.6875, 0, 1]), 0.06)
# the field's near-parabolic cubic at a = 0: p'(0) ~ -0.9965 attracts too
# slowly for its critical orbits to settle within CYCLE_STEPS
NEAR_PARABOLIC = HenonMap(
    Polynomial([-0.004154701540427896 + 0.016234744883985915j,
                -0.9964945986992689 - 0.0022022595581502207j, 0, 1]),
    0,
)

# quartic at a = 0.0625 with an attracting 7-cycle: propagating the widest
# rungs of RADIUS_LADDER around it overflows a float before they fail to close
QUARTIC = HenonMap(Polynomial([0, -1 + 0.40625j, -1, 0, 1]), 0.0625)


def _boundary(rng, centre, rho, sigma):
    """A point on the boundary of the bidisk: one coordinate on its circle."""
    ex, ey = (cmath.exp(2j * math.pi * rng.random()) for _ in range(2))
    tx, ty = rng.random(), rng.random()
    side = rng.randrange(3)
    if side == 0:
        tx = ty = 1.0  # the distinguished boundary torus
    elif side == 1:
        tx = 1.0
    else:
        ty = 1.0
    return Point(centre.x + tx * rho * ex, centre.y + ty * sigma * ey)


@pytest.mark.parametrize(
    "henon, period", [(FIELD_QUADRATIC, 1), (BULB, 2), (CUBIC, 2), (QUARTIC, 7)]
)
def test_trap_maps_each_bidisk_into_the_next(henon, period):
    trap = attracting_trap(henon)
    assert trap is not None and trap.period == period
    rng = random.Random(17)
    q = trap.period
    for i, centre in enumerate(trap.centres):
        j = (i + 1) % q
        nxt = trap.centres[j]
        assert abs(henon.apply(centre).x - nxt.x) < 1e-9
        for _ in range(400):
            w = henon.apply(_boundary(rng, centre, trap.rho[i], trap.sigma[i]))
            # inside the next bidisk with room to spare for the float step
            assert abs(w.x - nxt.x) <= (1 - TRAP_MARGIN / 2) * trap.rho[j]
            assert abs(w.y - nxt.y) <= (1 - TRAP_MARGIN / 2) * trap.sigma[j]


def test_trap_stays_out_of_v_plus_and_widest_bidisk_comes_first():
    trap = attracting_trap(BULB)
    alpha = domain_params(BULB.p).alpha
    assert trap.rho[0] == max(trap.rho)
    x0, y0, rho0, sigma0 = trap.kernel_trap(alpha)
    assert (x0, y0) == trap.centres[0]
    assert rho0 == (1 - TRAP_MARGIN) * trap.rho[0] and sigma0 < trap.sigma[0]
    # no trap for an alpha that some bidisk reaches, with the margin's room
    reach = max(
        max(abs(c.x) + r, abs(c.y) + s) for c, r, s in zip(trap.centres, trap.rho, trap.sigma)
    )
    assert trap.reach == reach and reach < alpha
    assert trap.kernel_trap(reach) is None
    assert trap.kernel_trap(reach / (1 - TRAP_MARGIN)) is not None


def test_trap_certificate_refuses_radii_that_do_not_map_inward():
    trap = attracting_trap(FIELD_QUADRATIC)
    assert dynamics._trap_holds(FIELD_QUADRATIC, trap.centres, trap.rho, trap.sigma)
    # the multiplier is ~0.85 and |p''|/2 = 1: rho = 0.2 is not mapped inward
    wide = tuple(0.2 for _ in trap.rho)
    assert not dynamics._trap_holds(FIELD_QUADRATIC, trap.centres, wide, wide)
    # a centre off the cycle leaves a residual larger than the radius
    moved = tuple(Point(c.x + 0.5 * trap.rho[0], c.y) for c in trap.centres)
    assert not dynamics._trap_holds(FIELD_QUADRATIC, moved, trap.rho, trap.sigma)


def test_no_cycle_no_trap():
    assert attracting_trap(NEAR_PARABOLIC) is None
    # escaping critical orbits: x^2 + 1 has no bounded critical orbit
    assert attracting_trap(HenonMap(Polynomial([1, 0, 1]), 0.01)) is None


def test_trap_search_needs_no_numpy_root_finder(monkeypatch):
    def refuse(self):
        raise AssertionError("critical_points called")

    monkeypatch.setattr(Polynomial, "critical_points", refuse)
    assert attracting_trap(CUBIC) is not None


def test_critical_seeds_approximate_the_critical_points():
    for p in (Polynomial([-0.6, 0, 1]), CUBIC.p, Polynomial([0.1, 0.2j, -0.5, 0.3, 1])):
        seeds = dynamics._critical_seeds(p)
        assert len(seeds) == p.degree - 1
        for c in p.critical_points():
            assert min(abs(c - s) for s in seeds) < 1e-8
