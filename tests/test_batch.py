"""The batch kernel is bitwise the scalar kernel, point by point.

`_batch.phi_plus_batch` / `phi_minus_batch` must return, for every point of
every block, the (status, k, log phi, smax) of `_kernel.phi_plus_eval` /
`phi_minus_eval`, and with `gradient` its (dlog_dx, dlog_dy) too, signed
zeros included (a NaN gradient part may have either sign), and status
RAISES exactly where the scalar call raises.  The maps, points, K and
alpha come from `test_kernels`' strategies; the points of one example are
cut into blocks at drawn positions, one batch call per block.
"""

import math
import operator
import struct

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_kernels import (
    _BULB,
    _FIXED,
    ALPHA,
    BASIC,
    CAP,
    CUBIC,
    SQUARE,
    _bits,
    _component,
    _kernel_args,
    _trapped_args,
)

from henonlocus import _batch, _kernel
from henonlocus.dynamics import attracting_trap


def _scalar(side, coeffs, a, x, y, K, alpha, cap, trap, gradient):
    """The scalar kernel's outcome: its slots as bytes (the gradient slots
    only with `gradient`), or "raises"."""
    try:
        if side == "plus":
            status, k, logphi, glx, gly, smax = _kernel.phi_plus_eval(
                coeffs, a, x, y, K, alpha, cap, trap
            )
        else:
            status, k, logphi, glx, gly, smax = _kernel.phi_minus_eval(
                coeffs, a, x, y, K, alpha, cap
            )
    except (ValueError, ZeroDivisionError, OverflowError):
        return "raises"
    gradients = _gradient_bits(glx) + _gradient_bits(gly) if gradient else b""
    return status, k, _bits(logphi) + gradients + struct.pack("<d", smax)


def _gradient_bits(z):
    """`_bits`, but every NaN part reads as one NaN.  Which operand's NaN an
    addition of two NaNs keeps, and so its sign, is up to how numpy's loops
    and CPython's complex arithmetic were compiled; every other bit must
    match, and no caller reads a NaN gradient's sign (gridfield refuses a
    pixel with a non-finite gradient)."""
    return _bits(complex(*(math.nan if math.isnan(part) else part for part in (z.real, z.imag))))


def _batched(side, coeffs, a, points, K, alpha, cap, trap, cuts, gradient):
    """The batch's outcome per point, one call per block between cuts."""
    outcomes = []
    bounds = [0, *sorted(cuts), len(points)]
    for lo, hi in zip(bounds, bounds[1:]):
        parts = [
            np.array([getattr(p[j], part) for p in points[lo:hi]], dtype=float)
            for j in (0, 1)
            for part in ("real", "imag")
        ]
        if side == "plus":
            result = _batch.phi_plus_batch(coeffs, a, *parts, K, alpha, cap, trap, gradient)
        else:
            result = _batch.phi_minus_batch(coeffs, a, *parts, K, alpha, cap, gradient)
        status, k, logphi, dlog_dx, dlog_dy, smax = result
        if gradient:
            slots = (logphi, dlog_dx, dlog_dy)
        else:
            assert dlog_dx is None and dlog_dy is None
            slots = (logphi,)
        columns = (status, k, *(part for slot in slots for part in slot), smax)
        for status, k, *values, smax in zip(*(column.tolist() for column in columns)):
            if status == _batch.RAISES:
                outcomes.append("raises")
                continue
            logphi, *gradients = map(complex, values[0::2], values[1::2])
            parts = _bits(logphi) + b"".join(map(_gradient_bits, gradients))
            outcomes.append((status, k, parts + struct.pack("<d", smax)))
    return outcomes


def _cuts(draw, n):
    return draw(st.lists(st.integers(0, n), max_size=3))


@st.composite
def _untrapped_blocks(draw):
    """One map, K and alpha from `_kernel_args`; the points of several draws."""
    cases = draw(st.lists(_kernel_args(), min_size=1, max_size=8))
    coeffs, a, _, _, K, alpha, cap = cases[0]
    points = [(case[2], case[3]) for case in cases]
    side = draw(st.sampled_from(("plus", "minus")))
    return side, coeffs, a, points, K, alpha, cap, None, _cuts(draw, len(points))


@st.composite
def _trapped_blocks(draw):
    """A trapped map, its point from `_trapped_args`, and points about B_0."""
    (coeffs, a, x, y, K, alpha, cap), trap = draw(_trapped_args())
    x0, y0, rho, sigma = trap
    offsets = st.tuples(*(_component(2.0 * r) for r in (rho, rho, sigma, sigma)))
    points = [(x, y)] + [
        (x0 + complex(dxr, dxi), y0 + complex(dyr, dyi))
        for dxr, dxi, dyr, dyi in draw(st.lists(offsets, max_size=7))
    ]
    return "plus", coeffs, a, points, K, alpha, cap, trap, _cuts(draw, len(points))


def _bulb_case():
    x0, y0, rho, sigma = trap = attracting_trap(_BULB).kernel_trap(ALPHA)
    # inside, on the boundary |x - x0| = rho (outside the open bidisk), on
    # |y - y0| = sigma, and just outside both: NO_ESCAPE at step 0, or later
    points = [
        (x0 + 0.999 * rho, y0),
        (x0 + rho, y0),
        (x0, y0 + sigma),
        (x0 - 1.001 * rho, y0 + 1j * 1.001 * sigma),
        (3.5 + 0j, 0.5j),
    ]
    return "plus", _BULB.p.coefficients, _BULB.a, points, 41, ALPHA, CAP, trap, [2]


_X2M4 = (-4 + 0j, 0j, 1 + 0j)

_SIGNED_ZEROS = [
    (complex(sx, sy), complex(tx, ty))
    for sx in (0.0, -0.0)
    for sy in (0.0, -0.0)
    for tx in (-0.0, 3.5)
    for ty in (0.0, -0.0)
]


def _case(side, coeffs, a, points, K=41, alpha=ALPHA, cap=CAP, cuts=()):
    """An untrapped example in the strategies' form."""
    return side, coeffs, a, points, K, alpha, cap, None, list(cuts)


_MIXED = (0j, complex(0.5, -0.0), complex(1.0, -0.0))  # signed-zero coefficients


@settings(max_examples=200, deadline=None)
@given(case=st.one_of(_untrapped_blocks(), _trapped_blocks()))
# the 200-step cap on both sides, and the minus side's cap of 3 at a fixed
# point; |x| = |y| > alpha is not yet an entry
@example(case=_case("plus", BASIC, 0.01 + 0j, [(0j, 0j), (3.5 + 0j, 0j), (4 + 0j, 4j)]))
@example(
    case=_case("minus", BASIC, 0.01 + 0j, [(0j, 0j), (0.5j, 3.5 + 0j), (4j, 4 + 0j)], cuts=[1])
)
@example(case=_case("minus", BASIC, 0.01 + 0j, [(_FIXED, _FIXED)], cap=3))
# on and about the trap's boundary
@example(case=_bulb_case())
# signed-zero coordinates and coefficients, d = 2 and 3, small and large K
@example(case=_case("plus", SQUARE, complex(-0.0, 0.0), _SIGNED_ZEROS, 19, 3.0, cuts=[5, 11]))
@example(case=_case("minus", CUBIC, complex(0.05, -0.0), _SIGNED_ZEROS[::-1], 3, 3.0, cuts=[16]))
@example(case=_case("plus", _MIXED, 0j, _SIGNED_ZEROS, 26, 2.0))
# OVERFLOW past the guard, next to points that escape
@example(case=_case("plus", SQUARE, 0.05 + 0j, [(0j, 1e140 + 0j), (1e200 + 0j, 0j)]))
@example(case=_case("minus", SQUARE, 0.05 + 0j, [(1e140 + 0j, 0j), (0j, 1e200 + 0j)], cuts=[1]))
# p = x^2 - 4 entered at alpha = 1: x = 2 gives s = -1 and cmath.log(0), and
# x = -1.5 gives a real s < -1 with a -0.0 imaginary part, which 1.0 + s
# turns into +0.0, so that log(1 + s) has imaginary part +pi
@example(case=_case("plus", _X2M4, 0j, [(2 + 0j, 0j), (-1.5 + 0j, 0j), (3 + 0j, 0j)], 19, 1.0))
@example(case=_case("minus", _X2M4, 0.05 + 0j, [(0j, 2 + 0j), (0j, -1.5 + 0j)], 19, 1.0))
# a = 0: the minus side raises at 1/a everywhere
@example(case=_case("minus", CUBIC, 0j, [(0j, 3.5 + 0j), (1.0 + 0j, 0j)], 19, 3.0))
def test_batch_is_bitwise_the_scalar_kernel(case):
    # the value slots alone, as green tiles ask for them, and every slot
    # with the gradient, as tangency tiles do
    side, coeffs, a, points, K, alpha, cap, trap, cuts = case
    for gradient in (False, True):
        args = (side, coeffs, a)
        expected = [_scalar(*args, x, y, K, alpha, cap, trap, gradient) for x, y in points]
        assert _batched(*args, points, K, alpha, cap, trap, cuts, gradient) == expected


# parts that exercise CPython's special cases: signed zeros, subnormals,
# overflow, infinities and NaN
_PARTS = (0.0, -0.0, 1.5, -1.5, -2.25, 5e-324, -1e300, math.inf, -math.inf, math.nan)
_PAIRS = [
    (complex(a, b), complex(c, d)) for a in _PARTS for b in _PARTS for c in _PARTS for d in _PARTS
]


def _same(got, want):
    """Bitwise equal, except that any NaN matches any NaN."""
    if math.isnan(got) or math.isnan(want):
        return math.isnan(got) and math.isnan(want)
    return struct.pack("<d", got) == struct.pack("<d", want)


def _check(op, batch, *operands):
    zr, zi = batch
    for i, args in enumerate(zip(*operands)):
        try:
            want = op(*args)
        except (ZeroDivisionError, OverflowError):
            continue  # the kernel's callers flag these points
        assert _same(zr[i], want.real) and _same(zi[i], want.imag), (op, args)


def test_split_real_operations_are_cpythons():
    z = [p[0] for p in _PAIRS]
    w = [p[1] for p in _PAIRS]
    zr, zi, wr, wi = (
        np.array([getattr(v, part) for v in vs]) for vs in (z, w) for part in ("real", "imag")
    )
    with np.errstate(all="ignore"):
        _check(operator.mul, _batch._mul(zr, zi, wr, wi), z, w)
        _check(operator.truediv, _batch._div(zr, zi, wr, wi), z, w)
        _check(lambda v: 1.0 / v, _batch._div(1.0, 0.0, wr, wi), w)
        _check(lambda v: 1.0 + v, (1.0 + zr, 0.0 + zi), z)
        _check(operator.neg, (-zr, -zi), z)
        # the gradient path's int and float operands, which CPython 3.11
        # promotes to complex with a +0.0 imaginary part (3.14 no longer
        # does, and these checks fail there): d * u^(d-1), t * d^j and
        # gradient sums / d^k with ints, det * scale with floats
        for n in (1, 2, 3, 7):
            _check(lambda v: n * v, _batch._mul(float(n), 0.0, zr, zi), z)
            _check(lambda v: v * n, _batch._mul(zr, zi, float(n), 0.0), z)
            _check(lambda v: v / n, _batch._div_real(zr, zi, float(n)), z)
        for f in _PARTS:
            _check(lambda v: v * f, _batch._mul(zr, zi, f, 0.0), z)
        for n in (0, 1, 2, 3, 5):
            pr, pi, raises = _batch._pow(zr, zi, n)
            _check(lambda v: v**n, (pr, pi), z)
            for v, flagged in zip(z, raises.tolist()):
                try:
                    v**n
                except OverflowError:
                    assert flagged, (v, n)
                else:
                    assert not flagged, (v, n)
        h, raises = _batch._abs(zr, zi)
        for v, got, flagged in zip(z, h.tolist(), raises.tolist()):
            try:
                want = abs(v)
            except OverflowError:
                assert flagged, v
            else:
                assert not flagged and _same(got, want), v
