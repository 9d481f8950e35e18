"""Normalized escape coordinates, same-leaf witnesses, and monodromy orbits."""

import cmath
import math
import re

import pytest

from henonlocus import _kernel, holonomy
from henonlocus.dynamics import HenonMap, Point, Polynomial
from henonlocus.errors import ContinuationFailure, DegenerateJacobian
from henonlocus.escape import phi_minus, phi_with_gradient
from henonlocus.holonomy import _nearest_root_witness, monodromy_orbit, psi_pair, same_leaf_plus
from henonlocus.locus import locate_on_locus
from test_dynamics import distortion_bound

SQUARE = Polynomial([0, 0, 1])
BASIC = Polynomial([-1, 0, 1])
HSQ = HenonMap(SQUARE, 0.01)
H = HenonMap(BASIC, 0.01)
H0 = HenonMap(SQUARE, 0.0)


def same_leaf_minus(henon, z1, z2):
    """Oracle: the minus-side twin of same_leaf_plus (eta cancels from the
    ratio), through the package's root-of-unity witness."""
    ratio = phi_minus(henon, z1).value / phi_minus(henon, z2).value
    return _nearest_root_witness(ratio, henon.degree)


def leaf_partner_minus(henon, z, x2):
    """Point (x2, y2) on the same minus-foliation leaf as z, by Newton on
    phi- at fixed x2 (seeded from z.y; the leaf is nearly horizontal)."""
    target = phi_minus(henon, z).log_value
    y = complex(z[1])
    for _ in range(40):
        ev, (_gx, gy) = phi_with_gradient(henon, Point(x2, y), "minus")
        F = cmath.exp(ev.log_value - target) - 1.0
        if abs(F) < 1e-13:
            return Point(complex(x2), y)
        y = y - F / ((1.0 + F) * gy)
    raise AssertionError("leaf partner Newton failed")


# ----------------------------------------------------------------- psi pair


def test_eta_and_values():
    pair = psi_pair(HSQ, Point(50.0, 0.0))
    assert abs(pair.eta - 100.0) < 1e-10  # a^(-1) for d = 2
    assert abs(pair.eta ** (HSQ.degree - 1) * HSQ.a - 1.0) < 1e-12
    imag_a = HenonMap(SQUARE, 0.01j)
    pair_i = psi_pair(imag_a, Point(50.0, 0.0))
    assert abs(pair_i.eta - (-100.0j)) < 1e-9  # principal branch of 1/a


def test_eta_requires_invertible_map():
    with pytest.raises(DegenerateJacobian):
        psi_pair(H0, Point(50.0, 0.0))


def test_psi_ratio_band():
    # |psi-/psi+| compares to |p(y) - x|^(1/d) / (|a|^(1/(d-1)) |x|) within
    # the distortion band B^2 on each side
    z = Point(50.0, 0.0)
    pair = psi_pair(HSQ, z)
    predicted = math.sqrt(abs(HSQ.p(z.y) - z.x)) / (abs(HSQ.a) * abs(z.x))
    ratio = abs(pair.psi_minus / pair.psi_plus)
    B = distortion_bound(HSQ.domain_params())
    assert predicted / B**2 <= ratio <= predicted * B**2


@pytest.mark.parametrize("henon", [HSQ, H])
def test_plus_recursion(henon):
    z = Point(50.0, 3.0)
    before = psi_pair(henon, z).psi_plus
    after = psi_pair(henon, henon.apply(z)).psi_plus
    assert abs(after - before**2) < 1e-9 * abs(after)


@pytest.mark.parametrize("henon", [HSQ, H])
def test_minus_recursion(henon):
    z = Point(3.0, 50.0)
    before = psi_pair(henon, z).psi_minus
    after = psi_pair(henon, henon.apply_inverse(z)).psi_minus
    assert abs(after - before**2) < 1e-9 * abs(after)


# ---------------------------------------------------------------- same leaf


def test_same_vertical_leaf_degenerate():
    w = same_leaf_plus(H0, Point(5.0, 1.0), Point(5.0, -3.0))
    assert w is not None
    assert abs(w.omega - 1.0) < 1e-12
    assert w.order_exponent == 0


def test_off_leaf_ratio_none():
    assert same_leaf_plus(H0, Point(5.0, 0.0), Point(7.5, 0.0)) is None


def test_monodromy_pair_witness():
    z0, _ = locate_on_locus(H, 4.2)
    z1 = monodromy_orbit(H, 0.0, z0, 1)[1]
    w = same_leaf_plus(H, z0, z1)
    assert w is not None
    assert abs(w.omega - (-1.0)) < 1e-9
    assert w.order_exponent == 1
    assert abs(w.omega) == pytest.approx(1.0, abs=1e-12)
    assert abs(w.omega ** (2**w.order_exponent) - 1.0) < 1e-10
    # the images under f share a psi+ fiber
    v0 = psi_pair(H, H.apply(z0)).psi_plus
    v1 = psi_pair(H, H.apply(z1)).psi_plus
    assert abs(v0 - v1) < 1e-6 * abs(v0)


def test_same_leaf_minus_witness():
    z = Point(3.0, 50.0)
    partner = leaf_partner_minus(HSQ, z, 5.0)
    w = same_leaf_minus(HSQ, z, partner)
    assert w is not None
    assert abs(w.omega - 1.0) < 1e-9
    assert w.order_exponent == 0
    assert same_leaf_minus(HSQ, z, Point(3.0, 75.0)) is None


# ---------------------------------------------------------------- monodromy


def test_orbit_trivial():
    z, _ = locate_on_locus(H, 8.0)
    assert monodromy_orbit(H, 0.0, z, 0) == [z]


def test_orbit_sizes_and_equivariance():
    z, _ = locate_on_locus(H, 4.2)
    base = psi_pair(H, z).psi_plus
    assert abs(base) > 4.0
    for n in (1, 2, 3):
        orbit = monodromy_orbit(H, 0.0, z, n)
        count = 2**n
        assert len(orbit) == count
        # pairwise distinct points
        for i, p in enumerate(orbit):
            for q in orbit[:i]:
                assert abs(p.x - q.x) + abs(p.y - q.y) > 1e-6
        # the psi+ coordinates realize the full root-of-unity orbit
        for j, p in enumerate(orbit):
            expected = base * cmath.exp(2j * math.pi * j / count)
            got = psi_pair(H, p).psi_plus
            assert abs(got - expected) < 1e-8 * abs(base)


def test_orbit_points_on_locus():
    from henonlocus.locus import tangency_value

    z, _ = locate_on_locus(H, 4.2)
    for p in monodromy_orbit(H, 0.0, z, 2):
        assert abs(tangency_value(H, p).value) < 1e-9


def test_orbit_rejects_bad_input():
    z, _ = locate_on_locus(H, 8.0)
    with pytest.raises(ValueError):
        monodromy_orbit(H, 0.0, z, -1)


@pytest.mark.parametrize("n", [9, 40])
def test_orbit_refuses_exponents_past_the_witness_range(monkeypatch, n):
    # refused before any work: no escape value, no continuation step
    def no_work(*args):
        raise AssertionError("monodromy_orbit started working")

    monkeypatch.setattr(holonomy, "phi_plus", no_work)
    monkeypatch.setattr(holonomy, "_theta_continuation", no_work)
    with pytest.raises(ValueError, match=r"exponent must be in 0\.\.8, got"):
        monodromy_orbit(H, 0.0, Point(8.0, 0.0), n)


@pytest.mark.parametrize("n", [1.5, 2.0, True])
def test_orbit_refuses_a_non_integral_exponent_before_any_kernel_call(monkeypatch, n):
    # range(d**1.5) used to raise a bare TypeError after phi+ was evaluated,
    # and True ran as 1
    calls = []
    for name in ("phi_plus_eval", "phi_minus_eval"):
        routine = getattr(_kernel, name)
        monkeypatch.setattr(
            _kernel, name, lambda *args, routine=routine: calls.append(args) or routine(*args)
        )
    refusal = f"monodromy exponent must be an integer, got {re.escape(repr(n))}"
    with pytest.raises(ValueError, match=refusal):
        monodromy_orbit(H, 0.0, Point(8.0, 0.0), n)
    assert calls == []
