import cmath
import json
import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from henonlocus import dynamics
from henonlocus.dynamics import (
    TRAP_MARGIN,
    DomainParams,
    HenonMap,
    Point,
    Polynomial,
    attracting_trap,
    domain_params,
    to_json,
)
from henonlocus.errors import DegenerateJacobian

X2 = Polynomial([0, 0, 1])
X2M1 = Polynomial([-1, 0, 1])


def distortion_bound(dp):
    """Distortion bound B: B^-1 < |phi+/x| < B on V+ (same for phi-/y).  The
    product tail is bounded by -log(1-r)/(d-1), so B is exp of that."""
    return (1.0 - dp.r) ** (-1.0 / (dp.degree - 1))


def _in_v_plus(z, dp):
    """z in V+ = {|x| > max(|y|, alpha)}."""
    return abs(z[0]) > abs(z[1]) and abs(z[0]) > dp.alpha


def _in_v_minus(z, dp):
    """z in V- = {|y| > max(|x|, alpha)}."""
    return abs(z[1]) > abs(z[0]) and abs(z[1]) > dp.alpha


def test_polynomial_requires_monic():
    with pytest.raises(ValueError):
        Polynomial([0, 0, 2])
    with pytest.raises(ValueError):
        Polynomial([1, 1])  # degree 1


@pytest.mark.parametrize(
    "coeffs",
    [[math.nan, 0, 1], [0, math.inf, 1], [complex(0, -math.inf), 0, 0, 1], [1e999, 0, 1]],
)
def test_polynomial_requires_finite_coefficients(coeffs):
    # the alpha search would otherwise run out before any escape call
    with pytest.raises(ValueError, match="coefficients must be finite"):
        Polynomial(coeffs)


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
    assert distortion_bound(dp) == pytest.approx(2.0)


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
    assert _in_v_plus(Point(10, 1), dp) and not _in_v_minus(Point(10, 1), dp)
    assert _in_v_minus(Point(1, 10), dp)
    assert not _in_v_plus(Point(1, 1), dp) and not _in_v_minus(Point(1, 1), dp)


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
        assert _in_v_plus(w, dp)
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
        assert _in_v_minus(w, dp)
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
    # the y step maps B_0 onto |y - x_0| <= rho_0, so sigma_1 must exceed
    # rho_0 + |x_0 - y_1|; shrinking sigma only eases the x inequality
    q = len(trap.centres)
    z0, z1 = trap.centres[0], trap.centres[1 % q]
    sigma = list(trap.sigma)
    sigma[1 % q] = 0.99 * (trap.rho[0] + abs(z0.x - z1.y))
    for i, z in enumerate(trap.centres):
        j = (i + 1) % q
        nxt = trap.centres[j]
        image = dynamics._x_image_radius(FIELD_QUADRATIC, z, nxt, trap.rho[i], sigma[i])
        assert image <= (1 - TRAP_MARGIN) * trap.rho[j]
    assert not dynamics._trap_holds(FIELD_QUADRATIC, trap.centres, trap.rho, tuple(sigma))


def test_no_cycle_no_trap():
    assert attracting_trap(NEAR_PARABOLIC) is None
    # escaping critical orbits: x^2 + 1 has no bounded critical orbit
    assert attracting_trap(HenonMap(Polynomial([1, 0, 1]), 0.01)) is None


# ---------------------------------------------------------------------------
# critical points and read-only objects


def _numpy_critical_points(p):
    """Oracle: numpy's companion-matrix roots of p', deduplicated to 1e-9."""
    out = []
    for rt in np.roots(list(reversed(p._d1))):
        z = complex(rt)
        if all(abs(z - w) > 1e-9 for w in out):
            out.append(z)
    return out


@st.composite
def separated_monic(draw):
    """Monic p of degree 2..6 whose critical points lie at least 1e-2 apart:
    both finders lose accuracy as roots of p' close up (about eps/gap for a
    pair, eps^(1/m) for an m-fold root), so close pairs are no oracle."""
    d = draw(st.integers(2, 6))
    part = st.floats(-4.0, 4.0)
    p = Polynomial([complex(draw(part), draw(part)) for _ in range(d)] + [1])
    raw = [complex(rt) for rt in np.roots(list(reversed(p._d1)))]
    assume(all(abs(z - w) > 1e-2 for i, z in enumerate(raw) for w in raw[:i]))
    return p


@settings(max_examples=200, deadline=None)
@given(separated_monic())
def test_critical_points_match_numpy_roots(p):
    got, want = p.critical_points(), _numpy_critical_points(p)
    assert len(got) == len(want) == p.degree - 1
    for w in want:
        assert min(abs(z - w) for z in got) <= 1e-12 * max(1.0, abs(w))
    for z in got:
        assert min(abs(z - w) for w in want) <= 1e-12 * max(1.0, abs(z))


def test_critical_points_of_a_tight_cluster():
    # Five critical points within 0.02 of 0, at least 1.7e-3 apart: 32 fixed
    # Durand-Kerner sweeps and 3 Newton steps left one 1.4e-4 off.
    p = Polynomial([0, 2.86722e-10 - 4.63967e-11j, 9.56801e-09 - 3.96756e-09j,
                    2.07399e-06 - 8.54828e-07j, 0.000184929 - 8.86118e-05j,
                    0.0120764 - 0.00506071j, 1])
    got, want = p.critical_points(), _numpy_critical_points(p)
    assert len(got) == len(want) == 5
    for w in want:
        assert min(abs(z - w) for z in got) <= 1e-12


def test_critical_points_are_exact_on_simple_examples():
    assert X2M1.critical_points() == (0j,)
    # a multiple critical point at 0 is split off exactly, not swept into a cluster
    assert Polynomial([0.3, 0, 0, 0, 1]).critical_points() == (0j,)
    assert Polynomial([1, 0, 0, 0, 0, 0, 1]).critical_points() == (0j,)
    assert Polynomial([0.5, 0, 0, 2, 1]).critical_points() == (0j, -1.5)
    assert sorted(Polynomial([0, -3, 0, 1]).critical_points(), key=lambda z: z.real) == [-1, 1]


def test_critical_points_are_computed_once_and_cannot_be_corrupted():
    p = Polynomial([0.1, 0.2j, -0.5, 0.3, 1])
    crits = p.critical_points()
    assert isinstance(crits, tuple) and p.critical_points() is crits


def test_polynomial_is_read_only():
    p = Polynomial([-1, 0, 1])
    with pytest.raises(AttributeError):
        p.coefficients = (0, 0, 1)
    with pytest.raises(AttributeError):
        p.degree = 3
    assert p.coefficients == (-1, 0, 1) and p.degree == 2


def test_map_is_read_only_after_its_domain_is_cached():
    # a map changed after its first escape call would keep the old domain
    h = HenonMap(X2M1, 0.01)
    h.domain_params()
    with pytest.raises(AttributeError):
        h.a = 10
    with pytest.raises(AttributeError):
        h.p = X2
    assert h.a == 0.01 and h.p is X2M1
    assert h != HenonMap(X2M1, 0.01) and h == h  # equality is identity


# ---------------------------------------------------------------------------
# the JSON writer


def test_to_json_writes_nested_tuples_of_complex_values_as_lists_of_pairs():
    data = {"b": (1 + 2j, (3j, -0.5)), "a": [Point(0.25 + 0j, -1j)], "n": (1, None, True)}
    text = to_json(data, None)
    assert text == (
        '{"a": [[[0.25, 0.0], [-0.0, -1.0]]], "b": [[1.0, 2.0], [[0.0, 3.0], -0.5]], '
        '"n": [1, null, true]}'
    )
    assert to_json(data, 2) == json.dumps(json.loads(text), indent=2)


@pytest.mark.parametrize(
    "value",
    [math.nan, math.inf, -math.inf, complex(math.nan, 0), complex(1, math.inf), [(0j, -math.inf)]],
)
def test_to_json_refuses_nan_and_infinities(value):
    with pytest.raises(ValueError):
        to_json({"value": value}, None)
    with pytest.raises(ValueError):
        to_json({"value": value}, 2)


def test_to_json_refuses_what_json_cannot_hold():
    with pytest.raises(TypeError, match="set"):
        to_json({"value": {1j}}, None)
