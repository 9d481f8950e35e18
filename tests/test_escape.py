import cmath
import math
import os
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import henonlocus
from henonlocus import dynamics, escape
from henonlocus.dynamics import HenonMap, Point, Polynomial, domain_params
from henonlocus.errors import (
    CertificateViolation,
    CoordinateOverflow,
    HenonLocusError,
    NotInEscapeRegion,
    OnDegenerateCurve,
)

X2 = Polynomial([0, 0, 1])
X2M1 = Polynomial([-1, 0, 1])


def _in_v_plus(z, dp):
    """z in V+ = {|x| > max(|y|, alpha)}."""
    return abs(z[0]) > abs(z[1]) and abs(z[0]) > dp.alpha


def _sample_escaping(rng, h, dp, n):
    """Random points with detectable forward and backward escape."""
    out = []
    while len(out) < n:
        x = rng.uniform(2, 30) * cmath.exp(2j * math.pi * rng.random())
        y = rng.uniform(0, 2) * cmath.exp(2j * math.pi * rng.random())
        z = Point(x, y)
        try:
            escape.phi_plus(h, z)
            if h.a != 0:
                escape.phi_minus(h, z)
        except NotInEscapeRegion:
            continue
        out.append(z)
    return out


def test_default_domain_refuses_jacobian_outside_R():
    # at a = 10 no tail bound may be reported as certified
    h = HenonMap(X2M1, 10.0)
    for phi, z in ((escape.phi_plus, Point(40, 1)), (escape.phi_minus, Point(1, 40))):
        with pytest.raises(ValueError, match=r"\|a\| < R"):
            phi(h, z)


def test_phi_plus_degenerate_is_boettcher_of_x():
    # a=0, p=x^2: the Böttcher coordinate of x^2 is the identity
    h = HenonMap(X2, 0)
    ev = escape.phi_plus(h, Point(5, 1))
    assert abs(ev.value - 5) < 1e-12
    # A point outside V+ enters after one iterate; the principal branch then
    # recovers x only up to a d^depth-th root of unity, but the modulus and
    # the d^depth-th power are branch-free.
    ev = escape.phi_plus(h, Point(-3 + 4j, 100))
    w = complex(-3 + 4j)
    assert ev.depth >= 1
    assert abs(abs(ev.value) - abs(w)) / abs(w) < 1e-12
    ratio = ev.value / w
    assert abs(ratio ** (2**ev.depth) - 1) < 1e-9


def test_phi_plus_recursion():
    h = HenonMap(X2M1, 0.05)
    rng = random.Random(3)
    dp = domain_params(X2M1)
    for z in _sample_escaping(rng, h, dp, 100):
        e1 = escape.phi_plus(h, z)
        e2 = escape.phi_plus(h, h.apply(z))
        assert abs(e2.value - e1.value**2) / abs(e1.value) ** 2 < 1e-9


def test_phi_minus_extension_identity():
    # phi-(f^-1 z) = phi-(z)^d / a as computed values
    h = HenonMap(X2M1, 0.03)
    rng = random.Random(5)
    dp = domain_params(X2M1)
    for z in _sample_escaping(rng, h, dp, 50):
        e1 = escape.phi_minus(h, z)
        e2 = escape.phi_minus(h, h.apply_inverse(z))
        assert abs(e2.value - e1.value**2 / h.a) / abs(e2.value) < 1e-9


def test_bound_property():
    rng = random.Random(17)
    for p in (X2, X2M1):
        dp = domain_params(p)
        B = dp.B
        h = HenonMap(p, 0.08)
        count = 0
        while count < 1000:
            rad = rng.uniform(dp.alpha * 1.001, 1e4)
            x = rad * cmath.exp(2j * math.pi * rng.random())
            y = x * rng.uniform(0, 0.999) * cmath.exp(2j * math.pi * rng.random())
            z = Point(x, y)
            if not _in_v_plus(z, dp):
                continue
            ev = escape.phi_plus(h, z)
            assert ev.depth == 0
            ratio = abs(ev.value / z.x)
            assert 1.0 / B < ratio < B
            # minus side at the reflected point
            em = escape.phi_minus(h, Point(y, x))
            assert 1.0 / B < abs(em.value / x) < B
            count += 1


def test_smax_below_r_and_tail_bound_formula():
    h = HenonMap(X2M1, 0.05)
    dp = domain_params(X2M1)
    ev = escape.phi_plus(h, Point(5, 1))
    assert ev.smax < dp.r
    d = 2
    K = ev.truncation_terms
    assert ev.tail_bound <= -math.log(1 - dp.r) * d**-K / (1 - 1 / d)


def test_truncation_consistency():
    # K and K+5 factors differ by less than the K-level tail bound
    h = HenonMap(X2M1, 0.05)
    z = Point(4 + 1j, 0.5)
    tol = 1e-8
    e1 = escape.phi_plus(h, z, tol=tol)
    e2 = escape.phi_plus(h, z, tol=tol / 2**5)
    assert e2.truncation_terms == e1.truncation_terms + 5
    assert abs(e2.log_value - e1.log_value) < e1.tail_bound


def test_gradient_against_central_differences():
    # 5-point stencils are overkill; the 2-point central difference at
    # h=1e-5 already sits at the 1e-10 noise floor.
    rng = random.Random(23)
    h = HenonMap(X2M1, 0.05)
    dp = domain_params(X2M1)
    pts = _sample_escaping(rng, h, dp, 200)
    step = 1e-5
    for side in ("plus", "minus"):
        fn = escape.phi_plus if side == "plus" else escape.phi_minus
        for z in pts:
            ev, (gx, gy) = escape.phi_with_gradient(h, z, side)
            fdx = (
                fn(h, Point(z.x + step, z.y)).log_value
                - fn(h, Point(z.x - step, z.y)).log_value
            ) / (2 * step)
            fdy = (
                fn(h, Point(z.x, z.y + step)).log_value
                - fn(h, Point(z.x, z.y - step)).log_value
            ) / (2 * step)
            scale = abs(gx) + abs(gy) + 1e-12
            assert abs(gx - fdx) / scale < 1e-6
            assert abs(gy - fdy) / scale < 1e-6


def test_degenerate_gradients():
    h = HenonMap(X2, 0)
    z = Point(7 + 2j, 3 - 1j)
    _, (gx, gy) = escape.phi_with_gradient(h, z, "plus")
    assert gy == 0
    _, (gmx, gmy) = escape.phi_with_gradient(h, z, "minus")
    v = X2(z.y) - z.x
    assert abs(gmx - (-1) / (2 * v)) < 1e-12
    assert abs(gmy - X2.derivative(z.y) / (2 * v)) < 1e-12


def test_degenerate_limit_law():
    # |phi-^2 - (p(y)-x)| = O(|a|) at a fixed point of V-
    z = Point(0, 5)
    ratios = []
    for a in (1e-2, 1e-3, 1e-4):
        h = HenonMap(X2M1, a)
        ev = escape.phi_minus(h, z)
        ratios.append(abs(ev.value**2 - (X2M1(z.y) - z.x)) / a)
    assert max(ratios) < 1.0


def test_not_in_escape_region():
    h = HenonMap(X2, 0.05)
    with pytest.raises(NotInEscapeRegion):
        escape.phi_plus(h, Point(0, 0))
    g = escape.green(h, Point(0, 0), "plus")
    assert g.interior_flag and g.value == 0.0


def test_interior_refusals_name_their_certificate():
    # p = x^2: the superattracting fixed point 0 is trapped at step 0
    h = HenonMap(X2, 0.05)
    with pytest.raises(NotInEscapeRegion, match=r"iterate 0 entered the certified trap"):
        escape.phi_plus(h, Point(0, 0))
    assert h.trap.period == 1
    # a threshold the trap's bidisks reach: no trap, the cap refuses
    with pytest.raises(NotInEscapeRegion, match=r"within 200 steps"):
        escape.phi_with_gradient(h, Point(0, 0), "plus", alpha=0.5)
    # no trap on the minus side
    with pytest.raises(NotInEscapeRegion, match=r"no backward iterate entered V- within 200"):
        escape.phi_minus(h, Point(0, 0))


def test_plus_trap_is_lazy_and_cached(monkeypatch):
    built = []
    original = dynamics.attracting_trap

    def counting(henon):
        built.append(henon)
        return original(henon)

    monkeypatch.setattr(dynamics, "attracting_trap", counting)
    h = HenonMap(X2M1, 0.01)
    assert h.domain_params() is h.domain_params()
    escape.phi_minus(h, Point(0.5, 30.0))
    escape.green(h, Point(0.5, 30.0), "minus")
    assert built == []
    escape.phi_plus(h, Point(30.0, 0.5))
    trap = h.trap
    assert trap is not None and trap.period == 2
    escape.green(h, Point(0, 0), "plus")
    escape.phi_with_gradient(h, Point(30.0, 0.5), "plus")
    assert h.trap is trap
    assert built == [h]


def test_green_minus_interior_constant():
    h = HenonMap(X2, 0.05)
    g = escape.green(h, Point(0, 0), "minus")
    assert g.interior_flag
    assert g.value == pytest.approx(math.log(0.05))


def test_green_minus_degenerate():
    h = HenonMap(X2M1, 0)
    g = escape.green(h, Point(1, 3), "minus")
    assert g.value == pytest.approx(math.log(abs(X2M1(3) - 1)) / 2)
    with pytest.raises(OnDegenerateCurve):
        escape.phi_minus(h, Point(X2M1(3), 3))


def test_green_recursions():
    h = HenonMap(X2M1, 0.04)
    rng = random.Random(29)
    dp = domain_params(X2M1)
    for z in _sample_escaping(rng, h, dp, 50):
        gp = escape.green(h, z, "plus").value
        gpf = escape.green(h, h.apply(z), "plus").value
        assert abs(gpf - 2 * gp) < 1e-9 * max(1, abs(gp))
        gm = escape.green(h, z, "minus").value
        gmb = escape.green(h, h.apply_inverse(z), "minus").value
        assert abs(gmb - (2 * gm - math.log(abs(h.a)))) < 1e-9 * max(1, abs(gm))


def test_green_positive_iff_escaping_plus():
    h = HenonMap(X2, 0.05)
    assert escape.green(h, Point(5, 0), "plus").value > 0
    assert escape.green(h, Point(0.1, 0.1), "plus").value == 0.0


# ---------------------------------------------------------------------------
# the smax < r certificate


# Entering at alpha = 1 (below the certified radius) puts a product factor
# far outside |s| < r; the plus and minus sides mirror each other.
_VIOLATIONS = ((Point(1.2, 0.1), "plus"), (Point(0.1, 1.2), "minus"))


@pytest.mark.parametrize("z, side", _VIOLATIONS)
def test_certificate_violation_is_typed(z, side):
    h = HenonMap(X2M1, 0.01)
    with pytest.raises(CertificateViolation) as info:
        escape.phi_with_gradient(h, z, side, alpha=1.0)
    err = info.value
    assert isinstance(err, HenonLocusError)
    assert err.r == domain_params(X2M1).r
    assert not err.smax < err.r
    assert err.depth >= 0


# A subnormal a is still < R, but the minus kernel's 1/a is inf and its log
# phi and gradient come back NaN with smax = 0.
_SUBNORMAL_A = 1e-309


@pytest.mark.parametrize("call", [escape.phi_with_gradient, escape.green])
def test_non_finite_kernel_result_is_refused(call):
    h = HenonMap(X2M1, _SUBNORMAL_A)
    with pytest.raises(CertificateViolation, match="non-finite .* minus side") as info:
        call(h, Point(2, 0.3), "minus")
    assert info.value.depth == 1


_VIOLATIONS_UNDER_O = """
from henonlocus.dynamics import HenonMap, Point, Polynomial
from henonlocus.errors import CertificateViolation
from henonlocus.escape import green, phi_with_gradient

h = HenonMap(Polynomial([-1, 0, 1]), 0.01)
for z, side in ((Point(1.2, 0.1), "plus"), (Point(0.1, 1.2), "minus")):
    try:
        ev, _ = phi_with_gradient(h, z, side, alpha=1.0)
        print(side, "returned", ev.smax)
    except CertificateViolation as exc:
        print(side, "CertificateViolation", exc.smax >= exc.r)
h = HenonMap(Polynomial([-1, 0, 1]), 1e-309)
for call in (phi_with_gradient, green):
    try:
        print(call.__name__, "returned", call(h, Point(2, 0.3), "minus"))
    except CertificateViolation as exc:
        print(call.__name__, "CertificateViolation", "non-finite" in str(exc))
"""


def test_certificate_violation_fires_under_O():
    src = str(pathlib.Path(henonlocus.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", _VIOLATIONS_UNDER_O],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        check=True,
        timeout=120,
    ).stdout
    assert out.splitlines() == [
        "plus CertificateViolation True",
        "minus CertificateViolation True",
        "phi_with_gradient CertificateViolation True",
        "green CertificateViolation True",
    ]


# ---------------------------------------------------------------------------
# functional equations over random maps


@st.composite
def maps_and_points(draw):
    """A monic p of degree 2..4, 0 < |a| <= 0.1, a point and a tolerance.

    The points range from inside V+ to well outside it, so the entry depth
    k (and for the minus side, the reflected point's depth m) is often > 0
    and the d^k-th-root extension is exercised along with the product.
    """
    d = draw(st.integers(2, 4))
    unit = st.floats(-1.0, 1.0)
    q = [complex(draw(unit), draw(unit)) for _ in range(d)]
    a = draw(st.floats(1e-3, 0.1)) * cmath.exp(1j * draw(st.floats(0.0, 2 * math.pi)))
    h = HenonMap(Polynomial(q + [1]), a)
    dp = domain_params(h.p)
    x = draw(st.floats(0.3, 20.0)) * dp.alpha * cmath.exp(1j * draw(st.floats(0.0, 7.0)))
    y = draw(st.floats(0.0, 2.0)) * x * cmath.exp(1j * draw(st.floats(0.0, 7.0)))
    tol = draw(st.sampled_from((1e-6, 1e-9, 1e-12)))
    return h, Point(x, y), tol


def _escape_pair(h, z, fz, side, tol):
    """Escape values at z and at its image; skips points that do not escape."""
    phi = escape.phi_plus if side == "plus" else escape.phi_minus
    try:
        return phi(h, z, tol), phi(h, fz, tol)
    except (NotInEscapeRegion, CoordinateOverflow):
        assume(False)


def _rounding(*logs):
    return 1e-13 * max(1.0, *(abs(v) for v in logs))


@settings(max_examples=80, deadline=None)
@given(maps_and_points())
def test_phi_plus_conjugates_f_to_power_map(case):
    # log phi+(f z) = d log phi+(z) modulo 2 pi i, within the two tail bounds
    h, z, tol = case
    d = h.degree
    e0, e1 = _escape_pair(h, z, h.apply(z), "plus", tol)
    gap = e1.log_value - d * e0.log_value
    gap -= 2j * math.pi * round(gap.imag / (2 * math.pi))
    bound = e1.tail_bound + d * e0.tail_bound
    assert abs(gap) <= bound + _rounding(e1.log_value, d * e0.log_value)


@settings(max_examples=80, deadline=None)
@given(maps_and_points())
def test_green_minus_shift_law(case):
    # g-(f^-1 w) = d g-(w) - log|a|, at the reflected point w = (y, x)
    h, z, tol = case
    d = h.degree
    w = Point(z.y, z.x)
    e0, e1 = _escape_pair(h, w, h.apply_inverse(w), "minus", tol)
    g0, g1 = e0.log_value.real, e1.log_value.real
    gap = g1 - (d * g0 - math.log(abs(h.a)))
    bound = e1.tail_bound + d * e0.tail_bound
    assert abs(gap) <= bound + _rounding(g1, d * g0, math.log(abs(h.a)))


# ---------------------------------------------------------------------------
# 50-digit oracle for the certified tail


def _green_oracle(h, z, side, steps):
    """Re log phi+/- at 50 digits from `steps` exact iterates of the map.

    Re log phi+(z) = d^-n log|x_n| and Re log phi-(z) = d^-n (e_n log|a| +
    log|y_-n|), e_n = (d^n - 1)/(d - 1), up to a tail of order d^-n: the
    telescoping product with n - depth factors instead of K.
    """
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50
    coeffs = [mp.mpc(c) for c in h.p.coefficients]
    a = mp.mpc(h.a)
    d = h.degree

    def p(w):
        acc = mp.mpc(0)
        for c in reversed(coeffs):
            acc = acc * w + c
        return acc

    x, y = mp.mpc(z[0]), mp.mpc(z[1])
    for _ in range(steps):
        if side == "plus":
            x, y = p(x) - a * y, x
        else:
            x, y = y, (p(y) - x) / a
    if side == "plus":
        return mp.log(abs(x)) / d**steps
    e = (d**steps - 1) // (d - 1)
    return (e * mp.log(abs(a)) + mp.log(abs(y))) / d**steps


_ORACLE_MAPS = (
    HenonMap(X2M1, 0.01),
    HenonMap(Polynomial([0.25, 0, 1]), -0.05 + 0.03j),
    HenonMap(Polynomial([0.1, -0.5, 0, 1]), 0.03),
    HenonMap(Polynomial([0.2j, 0, -0.3, 0, 1]), 0.08j),
)


@pytest.mark.parametrize("h", _ORACLE_MAPS, ids=lambda h: f"d{h.degree}")
@pytest.mark.parametrize("tol", (1e-6, 1e-12))
def test_tail_bound_holds_against_50_digit_oracle(h, tol):
    pytest.importorskip("mpmath")
    rng = random.Random(h.degree * 101 + round(-math.log10(tol)))
    dp = domain_params(h.p)
    for z in _sample_escaping(rng, h, dp, 6):
        for phi, side in ((escape.phi_plus, "plus"), (escape.phi_minus, "minus")):
            ev = phi(h, z, tol)
            # 40 factors past K leave an oracle tail below d^-40 * tail_bound
            exact = _green_oracle(h, z, side, ev.depth + ev.truncation_terms + 40)
            assert abs(ev.log_value.real - float(exact)) <= ev.tail_bound + 1e-12


@pytest.mark.parametrize("name", ["phi_minus", "phi_plus"])
@pytest.mark.parametrize("tol", (0.0, -1e-9, math.inf, math.nan))
def test_tolerance_must_be_positive_and_finite(name, tol):
    # K = ceil(log_d(.../tol)) exists only for 0 < tol < inf
    h = HenonMap(X2M1, 0.01)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        getattr(escape, name)(h, Point(8.0, 9.0), tol)


_CALLS = {
    "phi_plus": escape.phi_plus,
    "phi_minus": escape.phi_minus,
    "phi_with_gradient": lambda h, z: escape.phi_with_gradient(h, z, "plus"),
    "green": lambda h, z: escape.green(h, z, "minus"),
    # the a = 0 closed form must refuse the same points
    "green_a0": lambda h, z: escape.green(HenonMap(h.p, 0.0), z, "minus"),
}


_NON_FINITE = (
    Point(math.nan, 0.0),
    Point(0.0, math.inf),
    Point(complex(8.0, -math.inf), 0.5),
    Point(2.0, complex(math.nan, 1.0)),
)


@pytest.mark.parametrize("z", _NON_FINITE)
@pytest.mark.parametrize("name", sorted(_CALLS))
def test_non_finite_point_is_a_coordinate_overflow(name, z):
    # refused before iterating: NaN never enters V+, so it read as bounded
    with pytest.raises(CoordinateOverflow, match="non-finite point"):
        _CALLS[name](HenonMap(X2M1, 0.01), z)


@pytest.mark.parametrize("z", _NON_FINITE)
def test_non_finite_point_is_refused_by_green_plus(z):
    with pytest.raises(CoordinateOverflow):
        escape.green(HenonMap(X2M1, 0.01), z, "plus")


@pytest.mark.parametrize(
    "phi, h, z, where",
    [
        (escape.phi_plus, HenonMap(X2, 0), Point(0, 1e100), r"forward iterate 0 .* V\+"),
        (escape.phi_minus, HenonMap(X2M1, 0.01), Point(1e100, 0), r"backward iterate 0 .* V-"),
    ],
    ids=["plus", "minus"],
)
def test_overflow_refusal_names_depth_and_point(phi, h, z, where):
    # a starting coordinate past OVERFLOW_CAP^(1/d) and outside V+/V-
    with pytest.raises(CoordinateOverflow, match=where) as info:
        phi(h, z)
    assert info.value.step == 0
    assert info.value.point == z


def test_coordinate_overflow_is_not_a_configuration_error():
    assert not issubclass(CoordinateOverflow, ValueError)
