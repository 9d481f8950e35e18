import cmath
import math
import random

import pytest

from henonlocus.dynamics import (
    DomainParams,
    HenonMap,
    Point,
    Polynomial,
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
    dp = domain_params(X2)  # defaults (r, R) = (1/2, 1/8)
    # analytic threshold for p = x^2 is (R+1)/r = 2.25, inflated by 5%
    assert abs(dp.alpha - 2.3625) < 1e-3
    assert dp.B == pytest.approx(2.0)


def test_map_domain_params_need_jacobian_below_R():
    # the invariance of V+ and V- is proved for |a| < R only
    assert HenonMap(X2M1, 0.124).domain_params() == domain_params(X2M1)
    for a in (0.125, -0.2, 0.1 + 0.1j, 3.0):
        with pytest.raises(ValueError, match=r"\|a\| < R"):
            HenonMap(X2M1, a).domain_params()
    # a custom R moves the admissible range with it
    assert HenonMap(X2M1, 0.2).domain_params(R=0.25).R == 0.25


def test_domain_params_milder_constants_smaller_alpha():
    dp = domain_params(Polynomial([0.3, 0, 1]), r=0.9, R=0.01)
    assert dp.alpha < 2.3625


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
