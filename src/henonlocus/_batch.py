"""Value-only escape kernels over blocks of points: `_kernel`'s batch twin.

`phi_plus_batch` and `phi_minus_batch` compute, for every point of a block,
the value slots of what `_kernel.phi_plus_eval` and `phi_minus_eval` return:
(status, k, logphi, smax), bit for bit, without the Jacobian or the
gradient.  They are the package's only value-only loops.  `gridfield`
renders every g+ and g- tile through them, one call per block of rows,
with the arguments `escape._call_args` prepares for the scalar call.

Split-real: a complex quantity is a pair of float64 arrays, its real and
imaginary parts, and each operation is CPython's own float64 formula for it
(Objects/complexobject.c), so every element rounds as the scalar kernel
rounds:

    z * w      _Py_c_prod: (zr wr - zi wi, zr wi + zi wr)
    z / w      _Py_c_quot: Smith's quotient, dividing through by the larger
               of |wr| and |wi| (wr on a tie)
    z ** n     c_powu: square-and-multiply from 1 + 0j (n = d - 2 >= 0)
    1.0 + z    the float promoted to 1.0 + 0j: (1.0 + zr, 0.0 + zi)
    abs(z)     hypot (np.hypot is the C library's on every input tried)

numpy's complex dtypes, its complex `*` and `/`, and its `log`, `log1p`,
`exp` and `arctan2` are not bitwise CPython's on every host, so none of
them is used here (`tests/test_source.py` keeps that so).  The
transcendentals are CPython's own: `cmath.log` once per live factor of
every point, and `cmath.exp` and the final `cmath.log` once per escaping
point.

The entry loop runs all points in lockstep, so at step k every point still
iterating has made k steps; each step drops the points that escape, reach
the cap, enter the trap or pass the overflow guard.  The product loop runs
the escaped points factor by factor (factor j divides by d^j whatever the
entry step) and drops each point at its dead tail, u = w = 0 (v = t = 0),
past which the scalar kernel adds only +-0 to the log sum (see `_kernel`).

Where the scalar kernel raises instead of returning (abs of finite parts
overflowing, an infinite `**`, `cmath.log(0)` with its 1/t, `cmath.exp`
overflowing, a zero phi, or a = 0 on the minus side) the batch returns
status RAISES and leaves that point's other slots unspecified: the caller
recomputes such points through the scalar path, which raises its own
error.  Every other divisor is nonzero: |x| > alpha (|y| > alpha) at
entry, and d^j >= 1.
"""

import cmath
from operator import attrgetter

import numpy as np

from ._kernel import NO_ESCAPE, OK, OVERFLOW, OVERFLOW_CAP

# the scalar kernel raises at this point; see the module docstring
RAISES = 3

_REAL, _IMAG = attrgetter("real"), attrgetter("imag")


def _mul(ar, ai, br, bi):
    return ar * br - ai * bi, ar * bi + ai * br


def _div(ar, ai, br, bi):
    """_Py_c_quot for a nonzero divisor; a NaN divisor gives NaN parts."""
    swap = np.abs(bi) > np.abs(br)
    p = np.where(swap, bi, br)
    q = np.where(swap, br, bi)
    ratio = q / p
    denom = p + q * ratio
    # addition commutes bitwise, so one sum serves both of Smith's branches
    re = (np.where(swap, ai, ar) + np.where(swap, ar, ai) * ratio) / denom
    im = (np.where(swap, ai * ratio, ai) - np.where(swap, ar, ar * ratio)) / denom
    return re, im


def _div_real(ar, ai, b):
    """z / b for positive floats b (an int divisor's float), promoted to
    b + 0j as CPython promotes them."""
    return (ar + ai * 0.0) / b, (ai - ar * 0.0) / b


def _abs(re, im):
    """abs(z) and where it raises: finite parts whose modulus overflows."""
    h = np.hypot(re, im)
    raises = np.isinf(h)
    if raises.any():
        raises &= np.isfinite(re) & np.isfinite(im)
    return h, raises


def _pow(re, im, n):
    """z ** n for an int n >= 0 (CPython's c_powi), and where it raises:
    an infinite part."""
    rr, ri = np.ones_like(re), np.zeros_like(im)
    pr, pi = re, im
    mask = 1
    while mask <= n:
        if n & mask:
            rr, ri = _mul(rr, ri, pr, pi)
        mask <<= 1
        if mask <= n:
            pr, pi = _mul(pr, pi, pr, pi)
    return rr, ri, np.isinf(rr) | np.isinf(ri)


def _horner(coeffs, zr, zi):
    accr, acci = np.zeros_like(zr), np.zeros_like(zi)
    for c in reversed(coeffs):
        accr, acci = _mul(accr, acci, zr, zi)
        accr, acci = accr + c.real, acci + c.imag
    return accr, acci


def _cmath(fn, re, im):
    """cmath.log or cmath.exp of each element: (real parts, imaginary
    parts, where it raises)."""
    points = list(map(complex, re.tolist(), im.tolist()))
    raises = np.zeros(len(points), dtype=bool)
    try:
        values = list(map(fn, points))
    except (ValueError, OverflowError):
        values = []
        for i, z in enumerate(points):
            try:
                values.append(fn(z))
            except (ValueError, OverflowError):
                values.append(0j)
                raises[i] = True
    n = len(values)
    re = np.fromiter(map(_REAL, values), float, n)
    return re, np.fromiter(map(_IMAG, values), float, n), raises


class _Block:
    """Per-point outputs, filled in as points leave the entry loop."""

    def __init__(self, n):
        self.status = np.full(n, OK, dtype=np.int8)
        self.k = np.zeros(n, dtype=np.int64)
        self.logphi_re = np.zeros(n)
        self.logphi_im = np.zeros(n)
        self.smax = np.zeros(n)

    def stop(self, idx, status, k):
        self.status[idx] = status
        self.k[idx] = k

    def result(self):
        return self.status, self.k, self.logphi_re, self.logphi_im, self.smax


def _entry(block, coeffs, a, x, y, alpha, cap, trap, plus):
    """Lockstep entry loop; returns the escaped points as (index, x, y),
    or None when none escapes.

    Plus side: x, y = p(x) - a y, x until |x| > |y|, |x| > alpha.  Minus
    side, on the swapped pair (y, x) with a = 1/a: x, y = y, (p(y) - x)/a
    until |y| > |x|, |y| > alpha; the caller hands in (y, x) and inv_a.
    """
    d = len(coeffs) - 1
    safe = OVERFLOW_CAP ** (1.0 / d)
    idx = np.arange(len(x[0]))
    (xr, xi), (yr, yi) = x, y
    escaped = []
    k = 0
    with np.errstate(all="ignore"):
        while idx.size:
            ax, rx = _abs(xr, xi)
            ay, ry = _abs(yr, yi)
            raises = rx | ry
            out = (ax > ay) & (ax > alpha) & ~raises
            if out.any():
                block.k[idx[out]] = k
                escaped.append((idx[out], xr[out], xi[out], yr[out], yi[out]))
            if k >= cap:
                stay = ~(out | raises)
                block.stop(idx[stay], NO_ESCAPE, k)
                block.stop(idx[raises], RAISES, k)
                break
            done = out | raises
            if trap is not None:
                tx, ty, trho, tsigma = trap
                dx, rdx = _abs(xr - tx.real, xi - tx.imag)
                near = dx < trho
                dy, rdy = _abs(yr - ty.real, yi - ty.imag)
                trapped = near & (dy < tsigma) & ~done
                traise = (rdx | (near & rdy)) & ~done
                block.stop(idx[trapped], NO_ESCAPE, k)
                raises |= traise
                done |= trapped | traise
            over = ((ax > safe) | (ay > safe)) & ~done
            block.stop(idx[over], OVERFLOW, k)
            block.stop(idx[raises], RAISES, k)
            done |= over
            if done.any():
                keep = ~done
                idx, xr, xi, yr, yi = idx[keep], xr[keep], xi[keep], yr[keep], yi[keep]
            pr, pi = _horner(coeffs, xr, xi)
            if plus:
                ar, ai = _mul(a.real, a.imag, yr, yi)
                nr, ni = pr - ar, pi - ai
            else:
                nr, ni = _mul(pr - yr, pi - yi, a.real, a.imag)
            xr, xi, yr, yi = nr, ni, xr, xi
            k += 1
    if not escaped:
        return None
    return [np.concatenate(part) for part in zip(*escaped)]


def _product(block, coeffs, a, K, idx, ur, ui, wr, wi, plus):
    """The value-only product loop over the escaped points: the parts of
    each log sum, and where the point did not raise.

    Plus side: s = u acc - a w u^(d-1), u <- u^d/(1+s), w <- u^(d-1)/(1+s).
    Minus side: s = v acc - t v^(d-1), v <- a v^d/(1+s), t <- a v^(d-1)/(1+s).
    """
    d = len(coeffs) - 1
    n = len(idx)
    lsr, lsi = np.zeros(n), np.zeros(n)
    smax = np.zeros(n)
    ok = np.ones(n, dtype=bool)
    pos = np.arange(n)
    dj = 1
    with np.errstate(all="ignore"):
        for _ in range(K):
            alive = (ur != 0) | (ui != 0) | (wr != 0) | (wi != 0)
            if not alive.all():
                pos, ur, ui, wr, wi = pos[alive], ur[alive], ui[alive], wr[alive], wi[alive]
                if not pos.size:
                    break
            dj *= d
            try:
                dj_float = float(dj)
            except OverflowError:  # the scalar's log(t) / dj raises
                ok[pos] = False
                break
            accr, acci = np.zeros_like(ur), np.zeros_like(ui)
            for c in coeffs[:d]:
                accr, acci = _mul(accr, acci, ur, ui)
                accr, acci = accr + c.real, acci + c.imag
            m2r, m2i, raises = _pow(ur, ui, d - 2)
            m1r, m1i = _mul(m2r, m2i, ur, ui)
            sr, si = _mul(ur, ui, accr, acci)
            if plus:
                awr, awi = _mul(a.real, a.imag, wr, wi)
                br, bi = _mul(awr, awi, m1r, m1i)
            else:
                br, bi = _mul(wr, wi, m1r, m1i)
            sr, si = sr - br, si - bi
            tr, ti = 1.0 + sr, 0.0 + si
            ms, over = _abs(sr, si)
            smax[pos] = np.where(ms > smax[pos], ms, smax[pos])
            lr, li, zero = _cmath(cmath.log, tr, ti)  # raises at t = 0, as 1/t would
            raises |= over | zero
            if raises.any():
                ok[pos[raises]] = False
                keep = ~raises
                pos, ur, ui, wr, wi = pos[keep], ur[keep], ui[keep], wr[keep], wi[keep]
                m1r, m1i, tr, ti = m1r[keep], m1i[keep], tr[keep], ti[keep]
                lr, li = lr[keep], li[keep]
            lr, li = _div_real(lr, li, dj_float)
            lsr[pos] += lr
            lsi[pos] += li
            udr, udi = _mul(m1r, m1i, ur, ui)
            itr, iti = _div(1.0, 0.0, tr, ti)
            if not plus:
                udr, udi = _mul(a.real, a.imag, udr, udi)
                m1r, m1i = _mul(a.real, a.imag, m1r, m1i)
            ur, ui = _mul(udr, udi, itr, iti)
            wr, wi = _mul(m1r, m1i, itr, iti)
    block.smax[idx] = smax
    block.status[idx[~ok]] = RAISES
    return lsr, lsi, ok


def _finish(block, d, idx, xr, xi, lsr, lsi, ok, log_a):
    """log phi at the escaped points: the scalar kernel's last lines,
    elementwise.  Plus side: Log(x e^(log sum)) / d^k; minus side, on y
    with log_a = Log a: (e_m Log a + Log(y e^(log sum))) / d^m."""
    idx, xr, xi, lsr, lsi = (v[ok] for v in (idx, xr, xi, lsr, lsi))
    k = block.k[idx]
    er, ei, raises = _cmath(cmath.exp, lsr, lsi)
    with np.errstate(all="ignore"):
        pr, pi = _mul(xr, xi, er, ei)
    lr, li, zero = _cmath(cmath.log, pr, pi)
    raises |= zero
    dk, em = np.empty(len(k)), np.empty(len(k))
    for step in set(k.tolist()):
        at = k == step
        try:  # the int powers as CPython converts them, or its OverflowError
            dk[at], em[at] = float(d**step), float((d**step - 1) // (d - 1))
        except OverflowError:
            raises |= at
    with np.errstate(all="ignore"):
        if log_a is not None:
            mr, mi = _mul(em, 0.0, log_a.real, log_a.imag)
            lr, li = mr + lr, mi + li
        lr, li = _div_real(lr, li, dk)
    block.logphi_re[idx], block.logphi_im[idx] = lr, li
    block.status[idx[raises]] = RAISES


def phi_plus_batch(coeffs, a, xr, xi, yr, yi, K, alpha, cap, trap):
    """The value slots of `_kernel.phi_plus_eval(coeffs, a, x, y, K, alpha,
    cap, trap)` for every point (xr + i xi, yr + i yi) of the float64 arrays.

    Returns arrays (status, k, logphi_re, logphi_im, smax), one entry per
    point; status RAISES marks a point where the scalar kernel raises.
    """
    a = complex(a)
    block = _Block(len(xr))
    entered = _entry(block, coeffs, a, (xr, xi), (yr, yi), alpha, cap, trap, True)
    if entered is not None:
        idx, xr, xi, yr, yi = entered
        with np.errstate(all="ignore"):
            ur, ui = _div(1.0, 0.0, xr, xi)
            wr, wi = _mul(yr, yi, ur, ui)
        lsr, lsi, ok = _product(block, coeffs, a, K, idx, ur, ui, wr, wi, True)
        _finish(block, len(coeffs) - 1, idx, xr, xi, lsr, lsi, ok, None)
    return block.result()


def phi_minus_batch(coeffs, a, xr, xi, yr, yi, K, alpha, cap):
    """The value slots of `_kernel.phi_minus_eval(coeffs, a, x, y, K, alpha,
    cap)` for every point (xr + i xi, yr + i yi) of the float64 arrays; a = 0
    raises at every point, as 1/a does in the scalar kernel.

    Returns arrays (status, k, logphi_re, logphi_im, smax) as
    `phi_plus_batch` does.
    """
    a = complex(a)
    block = _Block(len(xr))
    if a == 0:
        block.status[:] = RAISES
        return block.result()
    inv_a = 1.0 / a
    # the minus entry loop is the plus one on (y, x) with p(y) - x divided by a
    entered = _entry(block, coeffs, inv_a, (yr, yi), (xr, xi), alpha, cap, None, False)
    if entered is not None:
        idx, yr, yi, xr, xi = entered
        with np.errstate(all="ignore"):
            vr, vi = _div(1.0, 0.0, yr, yi)
            tr, ti = _mul(xr, xi, vr, vi)
        lsr, lsi, ok = _product(block, coeffs, a, K, idx, vr, vi, tr, ti, False)
        _finish(block, len(coeffs) - 1, idx, yr, yi, lsr, lsi, ok, cmath.log(a))
    return block.result()
