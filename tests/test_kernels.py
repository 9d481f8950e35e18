"""The escape kernel is bitwise the plain loops it shortcuts."""

import cmath
import struct

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from henonlocus import _kernel
from henonlocus.dynamics import HenonMap, Polynomial, attracting_trap

SQUARE = (0j, 0j, 1 + 0j)
BASIC = (-1 + 0j, 0j, 1 + 0j)
CUBIC = (0.1 + 0j, -0.5 + 0j, 0j, 1 + 0j)  # degree 3 exercises d > 2 paths

ALPHA = 3.0
CAP = 200


def test_status_constants_match_reference():
    assert (_kernel.OK, _kernel.NO_ESCAPE, _kernel.OVERFLOW) == (0, 1, 2)


def test_backend_reports_its_name():
    assert _kernel.BACKEND == "reference"


# ---------------------------------------------------------------------------
# bitwise oracle: the plain loops, run for all K factors with two Horner passes
#
# The kernel leaves its product loop at its dead tail and takes p, p' in one
# pass.  No shortcut may change a bit of the result, signed zeros included,
# so the oracle below keeps the plain form.


def _oracle_horner(coeffs, z):
    acc = 0j
    for i in range(len(coeffs) - 1, -1, -1):
        acc = acc * z + coeffs[i]
    return acc


def _oracle_horner_deriv(coeffs, z):
    acc = 0j
    for i in range(len(coeffs) - 1, 0, -1):
        acc = acc * z + i * coeffs[i]
    return acc


def _oracle_phi_plus(coeffs, a, x, y, K, alpha, cap):
    d = len(coeffs) - 1
    safe = _kernel.OVERFLOW_CAP ** (1.0 / d)
    jxx, jxy, jyx, jyy = 1.0 + 0j, 0j, 0j, 1.0 + 0j
    k = 0
    while not (abs(x) > abs(y) and abs(x) > alpha):
        if k >= cap:
            return (_kernel.NO_ESCAPE, k, 0j, 0j, 0j, 0.0)
        if abs(x) > safe or abs(y) > safe:
            return (_kernel.OVERFLOW, k, 0j, 0j, 0j, 0.0)
        px = _oracle_horner(coeffs, x)
        dpx = _oracle_horner_deriv(coeffs, x)
        njxx = dpx * jxx - a * jyx
        njxy = dpx * jxy - a * jyy
        jyx, jyy = jxx, jxy
        jxx, jxy = njxx, njxy
        x, y = px - a * y, x
        k += 1
    u = 1.0 / x
    w = y * u
    uu = u * u
    gux, guy = -jxx * uu, -jxy * uu
    gwx = (jyx * x - y * jxx) * uu
    gwy = (jyy * x - y * jxy) * uu
    glx, gly = jxx * u, jxy * u
    logsum = 0j
    smax = 0.0
    dj = 1
    for _ in range(K):
        dj *= d
        acc = 0j
        acc2 = 0j
        for i in range(d):
            acc = acc * u + coeffs[i]
            acc2 = acc2 * u + (d - i) * coeffs[i]
        u_dm2 = u ** (d - 2)
        u_dm1 = u_dm2 * u
        s = u * acc - a * w * u_dm1
        dsdu = acc2 - a * w * (d - 1) * u_dm2
        dsdw = -a * u_dm1
        gsx = dsdu * gux + dsdw * gwx
        gsy = dsdu * guy + dsdw * gwy
        t = 1.0 + s
        ms = abs(s)
        if ms > smax:
            smax = ms
        logsum += cmath.log(t) / dj
        glx += gsx / (t * dj)
        gly += gsy / (t * dj)
        u_d = u_dm1 * u
        inv_t = 1.0 / t
        ngux = (d * u_dm1 * gux - u_d * gsx * inv_t) * inv_t
        nguy = (d * u_dm1 * guy - u_d * gsy * inv_t) * inv_t
        ngwx = ((d - 1) * u_dm2 * gux - u_dm1 * gsx * inv_t) * inv_t
        ngwy = ((d - 1) * u_dm2 * guy - u_dm1 * gsy * inv_t) * inv_t
        u = u_d * inv_t
        w = u_dm1 * inv_t
        gux, guy, gwx, gwy = ngux, nguy, ngwx, ngwy
    phi_w = x * cmath.exp(logsum)
    dk = d**k
    return (_kernel.OK, k, cmath.log(phi_w) / dk, glx / dk, gly / dk, smax)


def _oracle_phi_minus(coeffs, a, x, y, K, alpha, cap):
    d = len(coeffs) - 1
    safe = _kernel.OVERFLOW_CAP ** (1.0 / d)
    inv_a = 1.0 / a
    jxx, jxy, jyx, jyy = 1.0 + 0j, 0j, 0j, 1.0 + 0j
    m = 0
    while not (abs(y) > abs(x) and abs(y) > alpha):
        if m >= cap:
            return (_kernel.NO_ESCAPE, m, 0j, 0j, 0j, 0.0)
        if abs(x) > safe or abs(y) > safe:
            return (_kernel.OVERFLOW, m, 0j, 0j, 0j, 0.0)
        py = _oracle_horner(coeffs, y)
        dpy = _oracle_horner_deriv(coeffs, y)
        njxx, njxy = jyx, jyy
        njyx = (dpy * jyx - jxx) * inv_a
        njyy = (dpy * jyy - jxy) * inv_a
        x, y = y, (py - x) * inv_a
        jxx, jxy, jyx, jyy = njxx, njxy, njyx, njyy
        m += 1
    v = 1.0 / y
    t = x * v
    vv = v * v
    gvx, gvy = -jyx * vv, -jyy * vv
    gtx = (jxx * y - x * jyx) * vv
    gty = (jxy * y - x * jyy) * vv
    glx, gly = jyx * v, jyy * v
    logsum = 0j
    smax = 0.0
    dj = 1
    for _ in range(K):
        dj *= d
        acc = 0j
        acc2 = 0j
        for i in range(d):
            acc = acc * v + coeffs[i]
            acc2 = acc2 * v + (d - i) * coeffs[i]
        v_dm2 = v ** (d - 2)
        v_dm1 = v_dm2 * v
        s = v * acc - t * v_dm1
        dsdv = acc2 - t * (d - 1) * v_dm2
        dsdt = -v_dm1
        gsx = dsdv * gvx + dsdt * gtx
        gsy = dsdv * gvy + dsdt * gty
        tau = 1.0 + s
        ms = abs(s)
        if ms > smax:
            smax = ms
        logsum += cmath.log(tau) / dj
        glx += gsx / (tau * dj)
        gly += gsy / (tau * dj)
        v_d = v_dm1 * v
        inv_tau = 1.0 / tau
        ngvx = a * (d * v_dm1 * gvx - v_d * gsx * inv_tau) * inv_tau
        ngvy = a * (d * v_dm1 * gvy - v_d * gsy * inv_tau) * inv_tau
        ngtx = a * ((d - 1) * v_dm2 * gvx - v_dm1 * gsx * inv_tau) * inv_tau
        ngty = a * ((d - 1) * v_dm2 * gvy - v_dm1 * gsy * inv_tau) * inv_tau
        v = a * v_d * inv_tau
        t = a * v_dm1 * inv_tau
        gvx, gvy, gtx, gty = ngvx, ngvy, ngtx, ngty
    phi_w = y * cmath.exp(logsum)
    dm = d**m
    em = (dm - 1) // (d - 1)
    return (_kernel.OK, m, (em * cmath.log(a) + cmath.log(phi_w)) / dm, glx / dm, gly / dm, smax)


def _bits(z):
    """Exact bit pattern of a complex number; +0.0 and -0.0 differ."""
    return struct.pack("<dd", z.real, z.imag)


def _outcome(kernel, *args):
    """Kernel result as bytes, or the exception it raised (|s| = 1 hits log 0)."""
    try:
        status, depth, logphi, glx, gly, smax = kernel(*args)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        return type(exc).__name__
    head = struct.pack("<qqd", status, depth, smax)
    return head + _bits(logphi) + _bits(glx) + _bits(gly)


_ZERO = st.sampled_from((0.0, -0.0))


def _component(bound):
    return st.one_of(_ZERO, st.floats(-bound, bound))


@st.composite
def _kernel_args(draw):
    """Monic p of degree 2..4, |a| <= 0.1 (a = 0 included), a point, K, alpha.

    Points are complex or real with a signed-zero imaginary part, from inside
    the filled Julia set (NO_ESCAPE at the cap) out to 1e140 (OVERFLOW) and
    1e200 (1/x^2 underflows at a direct entry).  At K = 3 a point that enters
    near alpha keeps its carriers alive through every factor, so the loop
    runs to K instead of leaving at its dead tail.
    """
    d = draw(st.integers(2, 4))
    q = [complex(draw(_component(1.0)), draw(_component(1.0))) for _ in range(d)]
    a = complex(draw(_component(0.07)), draw(_component(0.07)))
    scale = draw(st.sampled_from((0.5, 3.0, 40.0, 1e3, 1e140, 1e200)))

    def coordinate():
        im = _ZERO if draw(st.booleans()) else _component(scale)
        return complex(draw(_component(scale)), draw(im))

    x, y = coordinate(), coordinate()
    K = draw(st.sampled_from((3, 19, 26, 31, 41, 48)))
    alpha = draw(st.sampled_from((2.0, 3.0)))
    return tuple(q) + (1 + 0j,), a, x, y, K, alpha, CAP


def _untrapped_plus(coeffs, a, x, y, K, alpha, cap):
    return _kernel.phi_plus_eval(coeffs, a, x, y, K, alpha, cap, None)


_PLUS = (_untrapped_plus, _oracle_phi_plus)
_MINUS = (_kernel.phi_minus_eval, _oracle_phi_minus)
_QUADRATIC = (0j, 0.5 + 0j, 1 + 0j)
_QUARTIC = (-0.5 + 0j, -0.3 - 0.25j, -0.45 + 0.5j, 0j, 1 + 0j)


@settings(max_examples=300, deadline=None)
@given(kernels=st.sampled_from((_PLUS, _MINUS)), args=_kernel_args())
# 1/x^2 underflows, so u (v) is the only live carrier from the first factor on
@example(kernels=_PLUS, args=(_QUADRATIC, 0j, 1e200 + 0j, 0j, 19, 3.0, CAP))
@example(kernels=_MINUS, args=(_QUADRATIC, 0.05 + 0j, 0j, 1e200 + 0j, 19, 3.0, CAP))
# a gradient sum holds a -0.0 part when the carriers die; the skipped
# factors would turn it into +0.0
@example(kernels=_PLUS, args=(CUBIC, 0.05 + 0j, complex(-1e200, -0.0), 1e140j, 19, 3.0, CAP))
@example(kernels=_MINUS, args=(_QUARTIC, 0.025 + 0j, 7e139 + 0j, -9e139 + 0j, 19, 2.0, CAP))
# a direct entry near alpha: the carriers live through all K = 3 factors
@example(kernels=_PLUS, args=(CUBIC, 0.05 + 0j, 3.5 + 0j, 0.5j, 3, 3.0, CAP))
@example(kernels=_MINUS, args=(_QUADRATIC, 0.05 + 0j, 0.5j, 3.5 + 0j, 3, 3.0, CAP))
# a = 0: the plus side never divides by a, the minus side raises on 1/a
@example(kernels=_PLUS, args=(_QUADRATIC, 0j, 3.5 + 0j, 0.5j, 3, 3.0, CAP))
@example(kernels=_MINUS, args=(_QUADRATIC, 0j, 0.5j, 3.5 + 0j, 3, 3.0, CAP))
def test_kernel_is_bitwise_the_plain_loops(kernels, args):
    kernel, oracle = kernels
    assert _outcome(kernel, *args) == _outcome(oracle, *args)


# ---------------------------------------------------------------------------
# the trap: same result as the plain loop, less work on capped orbits


@st.composite
def _trapped_args(draw):
    """A map with a certified trap, a point, K and alpha, plus the kernel trap.

    Quadratics x^2 + c with c in the main cardioid (multiplier |mu| <= 0.8)
    or the period-2 bulb, or cubics x^3 + b x + c0 near x^3 - x; |a| <= 0.07,
    a = 0 included.  Points fall near the cycle, across the filled Julia
    set, or far out (OVERFLOW at 1e140).
    """
    family = draw(st.sampled_from(("cardioid", "bulb", "cubic")))
    turn = cmath.exp(2j * cmath.pi * draw(st.floats(0.0, 1.0)))
    if family == "cardioid":
        mu = draw(st.floats(0.0, 0.8)) * turn
        coeffs = (mu / 2 - mu * mu / 4, 0j, 1 + 0j)
    elif family == "bulb":
        coeffs = (-1 + draw(st.floats(0.0, 0.2)) * turn, 0j, 1 + 0j)
    else:
        b = -1 + draw(st.floats(0.0, 0.3)) * turn
        coeffs = (draw(st.floats(-0.1, 0.1)) + 0j, b, 0j, 1 + 0j)
    a = complex(draw(_component(0.07)), draw(_component(0.07)))
    alpha = draw(st.sampled_from((2.0, 3.0, 6.0)))
    cycle_trap = attracting_trap(HenonMap(Polynomial(coeffs), a))
    assume(cycle_trap is not None)
    trap = cycle_trap.kernel_trap(alpha)
    assume(trap is not None)
    scale = draw(st.sampled_from((0.5, 2.0, 3.0, 1e140)))
    i = draw(st.integers(0, cycle_trap.period - 1))
    if draw(st.booleans()):  # near B_i
        centre, reach = cycle_trap.centres[i], 2.0 * cycle_trap.rho[i]
    else:
        centre, reach = (0j, 0j), scale
    x = centre[0] + complex(draw(_component(reach)), draw(_component(reach)))
    y = centre[1] + complex(draw(_component(reach)), draw(_component(reach)))
    K = draw(st.sampled_from((19, 26, 31)))
    return (coeffs, a, x, y, K, alpha, CAP), trap


@settings(max_examples=300, deadline=None)
@given(case=_trapped_args())
def test_trapped_kernel_is_the_plain_loop_except_for_the_step_count(case):
    args, trap = case
    expected = _outcome(_oracle_phi_plus, *args)
    got = _outcome(_kernel.phi_plus_eval, *args, trap)
    if isinstance(expected, bytes) and struct.unpack("<q", expected[:8])[0] == _kernel.NO_ESCAPE:
        status, k, logphi, glx, gly, smax = _kernel.phi_plus_eval(*args, trap)
        assert status == _kernel.NO_ESCAPE and 0 <= k <= CAP
        assert _bits(logphi) + _bits(glx) + _bits(gly) == bytes(48) and smax == 0.0
    else:
        assert got == expected


_BULB = HenonMap(Polynomial([-1 + 0.1j, 0, 1]), 0.01)


def test_trap_boundary_point_iterates_to_the_plain_result():
    trap = attracting_trap(_BULB).kernel_trap(ALPHA)
    x0, y0, rho, sigma = trap
    args = (_BULB.p.coefficients, _BULB.a)
    inside = (x0 + 0.999 * rho, y0)
    outside = (x0 + rho, y0)  # |x - x0| = rho exactly: not in the open bidisk
    assert _kernel.phi_plus_eval(*args, *inside, 41, ALPHA, CAP, trap)[:2] == (
        _kernel.NO_ESCAPE,
        0,
    )
    for point in (outside, (x0, y0 + sigma), (x0 - 1.001 * rho, y0 + 1j * 1.001 * sigma)):
        plain = _oracle_phi_plus(*args, *point, 41, ALPHA, CAP)
        status, k = _kernel.phi_plus_eval(*args, *point, 41, ALPHA, CAP, trap)[:2]
        # a basin point: the plain loop runs to the cap, the trap stops it later than step 0
        assert plain[:2] == (_kernel.NO_ESCAPE, CAP)
        assert status == _kernel.NO_ESCAPE and 1 <= k < CAP


# A saddle fixed point of f for p = x^2 - 1, a = 0.01: its backward orbit
# stays put for a few steps before rounding pushes it out.
_FIXED = (1.01 + (1.01**2 + 4.0) ** 0.5) / 2.0 + 0j


@pytest.mark.parametrize("kernels, args, status", [
    (_PLUS, (BASIC, 0.01 + 0j, 0j, 0j, 41, ALPHA, CAP), _kernel.NO_ESCAPE),
    (_PLUS, (SQUARE, 0.05 + 0j, 0j, 1e140 + 0j, 41, ALPHA, CAP), _kernel.OVERFLOW),
    (_MINUS, (BASIC, 0.01 + 0j, _FIXED, _FIXED, 41, ALPHA, 3), _kernel.NO_ESCAPE),
    (_MINUS, (SQUARE, 0.05 + 0j, 1e140 + 0j, 0j, 41, ALPHA, CAP), _kernel.OVERFLOW),
])
def test_statuses_are_bitwise_the_plain_loops(kernels, args, status):
    kernel, oracle = kernels
    assert kernel(*args)[0] == status
    assert _outcome(kernel, *args) == _outcome(oracle, *args)


@settings(max_examples=200, deadline=None)
@given(
    coeffs=st.lists(st.builds(complex, _component(4.0), _component(4.0)), min_size=1, max_size=6),
    z=st.builds(complex, _component(3.0), _component(3.0)),
)
def test_horner_with_deriv_is_bitwise_the_two_loops(coeffs, z):
    value, slope = _kernel.horner_with_deriv(coeffs, z)
    assert _bits(value) == _bits(_oracle_horner(coeffs, z)) == _bits(_kernel.horner(coeffs, z))
    assert _bits(slope) == _bits(_oracle_horner_deriv(coeffs, z))


def _oracle_horner_second(coeffs, z):
    acc = 0j
    for i in range(len(coeffs) - 1, 1, -1):
        acc = acc * z + i * (i - 1) * coeffs[i]
    return acc


@settings(max_examples=200, deadline=None)
@given(
    q=st.lists(st.builds(complex, _component(4.0), _component(4.0)), min_size=2, max_size=4),
    lead=st.sampled_from((1 + 0j, complex(1.0, -0.0))),
    z=st.one_of(st.builds(complex, _component(3.0), _component(3.0)), _component(3.0)),
)
def test_polynomial_is_bitwise_the_plain_loops(q, lead, z):
    # Polynomial evaluates through _kernel.horner on stored p', p'' coefficients
    coeffs = (*q, lead)
    p = Polynomial(coeffs)
    assert _bits(p(z)) == _bits(_oracle_horner(coeffs, z))
    assert _bits(p.derivative(z)) == _bits(_oracle_horner_deriv(coeffs, z))
    assert _bits(p.second_derivative(z)) == _bits(_oracle_horner_second(coeffs, z))
