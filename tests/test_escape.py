import cmath
import math
import os
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import henonlocus
from henonlocus import _kernel, dynamics, escape
from henonlocus.dynamics import R_BIG, HenonMap, Point, Polynomial, domain_params
from henonlocus.errors import (
    CertificateViolation,
    CoordinateOverflow,
    HenonLocusError,
    NotInEscapeRegion,
    OnDegenerateCurve,
)
from henonlocus.escape import DEFAULT_TOL, GREEN_TOL, evaluator
from test_dynamics import distortion_bound

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
        B = distortion_bound(dp)
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
    e1 = evaluator(h, "plus", tol, None, False)(z)
    e2 = evaluator(h, "plus", tol / 2**5, None, False)(z)
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
        evaluator(h, "plus", DEFAULT_TOL, 0.5, True)(Point(0, 0))
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
        evaluator(h, side, DEFAULT_TOL, 1.0, True)(z)
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
from henonlocus.escape import DEFAULT_TOL, evaluator, green, phi_with_gradient

h = HenonMap(Polynomial([-1, 0, 1]), 0.01)
for z, side in ((Point(1.2, 0.1), "plus"), (Point(0.1, 1.2), "minus")):
    try:
        ev, _ = evaluator(h, side, DEFAULT_TOL, 1.0, True)(z)
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
    phi = evaluator(h, side, tol, None, False)
    try:
        return phi(z), phi(fz)
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
        for side in ("plus", "minus"):
            ev = evaluator(h, side, tol, None, False)(z)
            # 40 factors past K leave an oracle tail below d^-40 * tail_bound
            exact = _green_oracle(h, z, side, ev.depth + ev.truncation_terms + 40)
            assert abs(ev.log_value.real - float(exact)) <= ev.tail_bound + 1e-12


@pytest.mark.parametrize("name", ["phi_minus", "phi_plus"])
@pytest.mark.parametrize("tol", (0.0, -1e-9, math.inf, math.nan))
def test_tolerance_must_be_positive_and_finite(name, tol):
    # K = ceil(log_d(.../tol)) exists only for 0 < tol < inf
    h = HenonMap(X2M1, 0.01)
    side = name.removeprefix("phi_")
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        evaluator(h, side, tol, None, False)(Point(8.0, 9.0))


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


# ---------------------------------------------------------------------------
# the prepared evaluator against the per-point path it replaced


def _run(henon, z, side, tol, alpha):
    """The per-point escape evaluation that `evaluator` replaced, kept as its
    reference: every fixed decision (kernel, `_call_args`, tail bound, error
    wording) is made again at each point.  (EscapeValue, gradient of log
    phi), the gradient returned unchecked."""
    if side == "plus":
        evaluate, iterate, domain = _kernel.phi_plus_eval, "forward", "V+"
    elif side == "minus":
        evaluate, iterate, domain = _kernel.phi_minus_eval, "backward", "V-"
    else:
        raise ValueError(f"side must be 'plus' or 'minus', got {side!r}")
    dp, K, alpha, trap = escape._call_args(henon, side, tol, alpha)
    d = henon.degree
    x, y = complex(z[0]), complex(z[1])
    if not (cmath.isfinite(x) and cmath.isfinite(y)):
        raise CoordinateOverflow(f"non-finite point ({x!r}, {y!r})", point=Point(x, y))
    if side == "minus" and henon.a == 0:
        v = henon.p(y) - x
        if v == 0:
            raise OnDegenerateCurve("a = 0 and p(y) = x")
        logphi = complex(math.log(abs(v)), cmath.phase(v)) / d
        ev = escape.EscapeValue(cmath.exp(logphi), logphi, 0, 0.0, 0, 0.0)
        return ev, (-1.0 / (d * v), henon.p.derivative(y) / (d * v))
    args = (henon.p.coefficients, henon.a, x, y, K, alpha, escape.DEFAULT_CAP)
    if side == "plus":
        args += (trap,)
    status, depth, logphi, glx, gly, smax = evaluate(*args)
    if status == _kernel.NO_ESCAPE:
        if depth < escape.DEFAULT_CAP:
            raise NotInEscapeRegion(
                f"{iterate} iterate {depth} entered the certified trap (radius "
                f"{trap[2]:.3g}) around the attracting {henon.trap.period}-cycle, "
                f"so no {iterate} iterate ever enters {domain}"
            )
        raise NotInEscapeRegion(
            f"no {iterate} iterate entered {domain} within {escape.DEFAULT_CAP} steps"
        )
    if status == _kernel.OVERFLOW:
        raise CoordinateOverflow(
            f"{iterate} iterate {depth} passed OVERFLOW_CAP^(1/d) before reaching {domain}",
            step=depth,
            point=Point(x, y),
        )
    if not smax < dp.r:
        raise CertificateViolation(
            f"product factor |s| = {smax} >= r = {dp.r} at {domain} entry depth {depth}",
            smax=smax,
            r=dp.r,
            depth=depth,
        )
    if not cmath.isfinite(logphi):
        raise escape._non_finite(side, depth, smax, dp.r)
    ev = escape.EscapeValue(
        value=cmath.exp(logphi),
        log_value=logphi,
        truncation_terms=K,
        tail_bound=escape.tail_bound(d, dp.r, K),
        depth=depth,
        smax=smax,
    )
    return ev, (glx, gly)


def _reference(henon, z, side, tol, alpha, gradient):
    """What phi_plus/phi_minus (gradient False) and phi_with_gradient
    (gradient True, which refused a non-finite gradient) returned by `_run`."""
    ev, grad = _run(henon, z, side, tol, alpha)
    if not gradient:
        return ev
    if not (cmath.isfinite(grad[0]) and cmath.isfinite(grad[1])):
        raise escape._non_finite(side, ev.depth, ev.smax, henon.domain_params().r)
    return ev, grad


def _outcome(compute):
    """repr of the result (bitwise for floats, -0.0 included), or the type
    and message of the error raised."""
    try:
        return repr(compute())
    except Exception as exc:  # noqa: BLE001 -- compared, not handled
        return type(exc), str(exc)


@st.composite
def evaluations(draw):
    """A monic p of degree 2..3 with |a| < R (a = 0 included), a setting of
    the evaluator, and points from deep inside V+/V- to well inside K+/K-."""
    d = draw(st.integers(2, 3))
    unit = st.floats(-1.0, 1.0)
    q = [complex(draw(unit), draw(unit)) for _ in range(d)]
    a = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.99 * R_BIG)))
    a *= cmath.exp(1j * draw(st.floats(0.0, 2 * math.pi)))
    h = HenonMap(Polynomial(q + [1]), a)
    alpha = domain_params(h.p).alpha
    side = draw(st.sampled_from(("plus", "minus")))
    tol = draw(st.sampled_from((DEFAULT_TOL, GREEN_TOL)))
    threshold = draw(st.sampled_from((None, 2.0 * alpha)))
    gradient = draw(st.booleans())
    radius, turn = st.floats(0.0, 20.0), st.floats(0.0, 7.0)
    polar = st.builds(lambda rad, arg: rad * alpha * cmath.exp(1j * arg), radius, turn)
    points = draw(st.lists(st.builds(Point, polar, polar), min_size=1, max_size=4))
    return h, side, tol, threshold, gradient, points


@settings(max_examples=150, deadline=None)
@given(evaluations())
# the refusals random points rarely reach: a non-finite log phi and
# gradient, a non-finite point, the collapse curve, overflow and the trap
@example((HenonMap(X2M1, _SUBNORMAL_A), "minus", DEFAULT_TOL, None, True, [Point(2, 0.3)]))
@example((HenonMap(X2M1, _SUBNORMAL_A), "minus", GREEN_TOL, None, False, [Point(2, 0.3)]))
@example((HenonMap(X2M1, 0.0), "minus", GREEN_TOL, None, True, [Point(8, 3), Point(math.nan, 0)]))
@example((HenonMap(X2, 0.0), "plus", DEFAULT_TOL, None, True, [Point(0, 1e100), Point(0, 0)]))
def test_evaluator_is_bitwise_the_per_point_path(case):
    # one evaluator serves every point, as in a solve
    h, side, tol, alpha, gradient, points = case
    evaluate = evaluator(h, side, tol, alpha, gradient)
    for z in points:
        want = _outcome(lambda: _reference(h, z, side, tol, alpha, gradient))
        assert _outcome(lambda: evaluate(z)) == want


def test_evaluator_refuses_a_side_when_it_is_made():
    with pytest.raises(ValueError, match="side must be 'plus' or 'minus', got 'up'"):
        evaluator(HenonMap(X2M1, 0.01), "up", DEFAULT_TOL, None, False)


def test_solves_prepare_a_fixed_number_of_evaluators(monkeypatch):
    # A solve makes its evaluators once, whatever its iteration count: each
    # pair of solves below prepares the same number of kernel calls through
    # `_call_args` while making different numbers of kernel calls.
    from henonlocus import locus, manifolds

    prepared, calls = [], []
    call_args = escape._call_args
    monkeypatch.setattr(escape, "_call_args", lambda *args: prepared.append(1) or call_args(*args))
    for name in ("phi_plus_eval", "phi_minus_eval"):
        routine = getattr(_kernel, name)
        monkeypatch.setattr(
            _kernel, name, lambda *args, routine=routine: calls.append(1) or routine(*args)
        )

    def counts(solve, args):
        prepared.clear(), calls.clear()
        solve(*args)
        return len(prepared), len(calls)

    h, hg, hc = HenonMap(X2M1, 0.01), HenonMap(X2M1, 0.005), HenonMap(X2, 0.01)
    on, _ = locus.locate_on_locus(h, 20.0)
    graph = manifolds.local_stable_graph(hg, (1 + 5**0.5) / 2, mesh=16)
    loop = [0.4 * graph.delta * cmath.exp(2j * math.pi * j / 32) for j in range(32)]
    for expected, solve, first, second in (
        (2, locus.locate_on_locus, (h, 20.0, 0.05), (h, 20.0, on.y)),
        # the depth probe's phi_plus, then one pair for the whole continuation
        # of 256 theta steps at radius 1.1 and of 64 at radius 8
        (3, locus.verify_biholomorphism, (hc, 0.0, (1.1,)), (hc, 0.0, (8.0,))),
        (4, locus.contact_order, (h, on), (h, Point(6.0, 0.2))),
        (1, manifolds.gradient_winding, (hg, graph, loop), (hg, graph, loop[::2])),
    ):
        (p1, k1), (p2, k2) = counts(solve, first), counts(solve, second)
        assert (p1, p2) == (expected, expected)
        assert k1 != k2 and max(k1, k2) > expected
