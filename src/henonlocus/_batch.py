"""Escape kernels over blocks of points: `_kernel`'s batch twin.

`phi_plus_batch` and `phi_minus_batch` compute, for every point of a block,
what `_kernel.phi_plus_eval` and `phi_minus_eval` return, bit for bit:
(status, k, logphi, smax), and the gradient (dlog_dx, dlog_dy) when the
caller asks for it with `gradient`.  (The one exception: a NaN gradient
part may differ in sign, since which of two NaNs an addition keeps is up
to how numpy's loops and CPython were compiled; callers refuse
non-finite gradients.)

Without the gradient they skip p', the Jacobian, acc2, ds/du and ds/dw
(ds/dv, ds/dt), the gradient sums and the carriers' gradients, and are the
package's only value-only loops; with it they carry the Jacobian and the
gradients in `_kernel`'s order.  `gridfield` renders every tile through
them, one call per side and block of rows, with the arguments
`escape._call_args` prepares for the scalar call: g+ and g- blocks without
the gradient, tangency blocks with it.

Split-real: a complex quantity is a pair of float64 arrays, its real and
imaginary parts, and each operation is CPython's own float64 formula for it
(Objects/complexobject.c), so every element rounds as the scalar kernel
rounds:

    z * w      _Py_c_prod: (zr wr - zi wi, zr wi + zi wr)
    z / w      _Py_c_quot: Smith's quotient, dividing through by the larger
               of |wr| and |wi| (wr on a tie); NaN parts if w has one
    z ** n     c_powu: square-and-multiply from 1 + 0j (n = d - 2 >= 0)
    1.0 + z    the float promoted to 1.0 + 0j: (1.0 + zr, 0.0 + zi)
    n * z      an int or float promoted to n + 0j, then _Py_c_prod; so are
               z * n and z / n (d u^(d-1), t d^j, det * scale, sums / d^k)
    abs(z)     hypot (np.hypot is the C library's on every input tried)

The promotions are CPython 3.11's (3.14 multiplies a float into a complex
without the + 0j, which rounds signed zeros and infinities differently;
`tests/test_batch.py` fails there).  numpy's complex dtypes, its complex
`*` and `/`, and its `log`, `log1p`, `exp` and `arctan2` are not bitwise
CPython's on every host, so none of them is used here
(`tests/test_source.py` keeps that so).  The transcendentals are CPython's
own: `cmath.log` once per live factor of every point, and `cmath.exp` and
the final `cmath.log` once per escaping point.

Both sides run one `_entry`, one `_product` and one `_finish`, as both
scalar entries run `_kernel._eval`: the minus side runs on the swapped pair
(y, x) with a <-> 1/a in the entry step and the carriers multiplied by a,
so each operation here has one counterpart there.

The entry loop runs all points in lockstep, so at step k every point still
iterating has made k steps; each step drops the points that escape, reach
the cap, enter the trap or pass the overflow guard.  The product loop runs
the escaped points factor by factor (factor j divides by d^j whatever the
entry step) and drops each point at its dead tail.  Without the gradient
that is u = w = 0 (v = t = 0), past which the scalar kernel adds only +-0
to the log sum (see `_kernel`); with it, `_kernel`'s own test: every
carrier and carrier gradient is exactly zero, and neither gradient sum has
a -0.0 part.

Where the scalar kernel raises instead of returning (abs of finite parts
overflowing, an infinite `**`, `cmath.log(0)` with its 1/t, `cmath.exp`
overflowing, a zero phi, or a = 0 on the minus side) the batch returns
status RAISES and leaves that point's other slots unspecified: the caller
recomputes such points through the scalar path, which raises its own
error.  Every other divisor is nonzero: |x| > alpha (|y| > alpha) at
entry, 1 + s once its log has not raised, and d^j >= 1.
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
    """_Py_c_quot for a nonzero divisor."""
    swap = np.abs(bi) > np.abs(br)
    p = np.where(swap, bi, br)
    q = np.where(swap, br, bi)
    ratio = q / p
    denom = p + q * ratio
    # addition commutes bitwise, so one sum serves both of Smith's branches
    re = (np.where(swap, ai, ar) + np.where(swap, ar, ai) * ratio) / denom
    im = (np.where(swap, ai * ratio, ai) - np.where(swap, ar, ar * ratio)) / denom
    # a NaN part fails both of Smith's comparisons, and CPython returns its
    # own positive NaN in both parts, whatever the sign of the NaN it met
    nan = np.isnan(br) | np.isnan(bi)
    if nan.any():
        re, im = np.where(nan, np.nan, re), np.where(nan, np.nan, im)
    return re, im


def _div_real(ar, ai, b):
    """z / b for positive floats b (an int divisor's float), promoted to
    b + 0j as CPython promotes them."""
    return (ar + ai * 0.0) / b, (ai - ar * 0.0) / b


def _abs(re, im):
    """abs(z) and where it raises: finite parts whose modulus overflows.
    A NaN modulus is CPython's own positive NaN, as `_Py_c_abs` returns it."""
    h = np.hypot(re, im)
    odd = ~np.isfinite(h)
    if not odd.any():
        return h, odd
    raises = np.isinf(h) & np.isfinite(re) & np.isfinite(im)
    return np.where(np.isnan(h), np.nan, h), raises


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
    """sum_i coeffs[i] z^i by Horner from the highest degree, as
    `_kernel.horner` runs it."""
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


def _negative_zero(v):
    return (v == 0) & np.signbit(v)


class _Block:
    """Per-point outputs, filled in as points leave the entry loop."""

    def __init__(self, n, gradient):
        self.status = np.full(n, OK, dtype=np.int8)
        self.k = np.zeros(n, dtype=np.int64)
        self.logphi = np.zeros(n), np.zeros(n)
        self.smax = np.zeros(n)
        # parts of d log phi / dx and d log phi / dy
        self.gradient = [np.zeros(n) for _ in range(4)] if gradient else None

    def stop(self, idx, status, k):
        self.status[idx] = status
        self.k[idx] = k

    def result(self):
        g = self.gradient
        dx, dy = (None, None) if g is None else (tuple(g[:2]), tuple(g[2:]))
        return self.status, self.k, self.logphi, dx, dy, self.smax


def _step(vr, vi, yr, yi, a, plus):
    """One entry step's new first coordinate from v = p(x) and the second
    coordinate y: v - a y on the plus side, (v - y) a on the minus side
    (where a is 1/a).  With v = p'(x) times a Jacobian column entry of x
    and y that of the second coordinate, the same step gives the new
    entry, as `_kernel` forms it."""
    if plus:
        ar, ai = _mul(a.real, a.imag, yr, yi)
        return vr - ar, vi - ai
    return _mul(vr - yr, vi - yi, a.real, a.imag)


def _entry(block, coeffs, a, x, y, alpha, cap, trap, plus, gradient):
    """Lockstep entry loop; returns the escaped points as (index, x, y),
    followed, with `gradient`, by the Jacobian of (x, y) in the order
    d x/d x0, d x/d y0, d y/d x0, d y/d y0 (each a pair of parts), or None
    when none escapes.

    Plus side: x, y = p(x) - a y, x until |x| > |y|, |x| > alpha.  Minus
    side, on the swapped pair (y, x) with a = 1/a: x, y = y, (p(y) - x)/a
    until |y| > |x|, |y| > alpha; the caller hands in (y, x) and inv_a,
    and the Jacobian rows are swapped with them.
    """
    d = len(coeffs) - 1
    safe = OVERFLOW_CAP ** (1.0 / d)
    n = len(x[0])
    idx = np.arange(n)
    state = [*x, *y]
    if gradient:
        one, zero = np.ones(n), np.zeros(n)
        rows = [[one, zero, zero, zero], [zero, zero, one, zero]]
        state += rows[0] + rows[1] if plus else rows[1] + rows[0]
        slopes = [i * c for i, c in enumerate(coeffs)][1:]  # p' as CPython forms i * c_i
    escaped = []
    k = 0
    with np.errstate(all="ignore"):
        while idx.size:
            xr, xi, yr, yi = state[:4]
            ax, rx = _abs(xr, xi)
            ay, ry = _abs(yr, yi)
            raises = rx | ry
            out = (ax > ay) & (ax > alpha) & ~raises
            if out.any():
                block.k[idx[out]] = k
                escaped.append([idx[out]] + [v[out] for v in state])
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
                idx = idx[keep]
                state = [v[keep] for v in state]
            xr, xi, yr, yi, *jac = state
            pr, pi = _horner(coeffs, xr, xi)
            state = [*_step(pr, pi, yr, yi, a, plus), xr, xi]
            if gradient:
                dpr, dpi = _horner(slopes, xr, xi)
                for col in (0, 2):
                    vr, vi = _mul(dpr, dpi, jac[col], jac[col + 1])
                    state += _step(vr, vi, jac[4 + col], jac[5 + col], a, plus)
                state += jac[:4]
            k += 1
    if not escaped:
        return None
    return [np.concatenate(part) for part in zip(*escaped)]


def _product(block, coeffs, a, K, entered, plus, gradient):
    """The product loop over the escaped points: the parts of each log
    sum, with `gradient` those of the gradient sums d Log x_k/d(x, y) +
    sum_j (ds_j/d(x, y)) / ((1 + s_j) d^j) (else None), and where the point
    did not raise.

    Plus side: s = u acc - a w u^(d-1), u <- u^d/(1+s), w <- u^(d-1)/(1+s).
    Minus side: s = v acc - t v^(d-1), v <- a v^d/(1+s), t <- a v^(d-1)/(1+s).
    With `gradient` the carriers' gradients go along, in `_kernel`'s order.
    """
    d = len(coeffs) - 1
    idx, xr, xi, yr, yi, *jac = entered
    n = len(idx)
    lsr, lsi = np.zeros(n), np.zeros(n)
    smax = np.zeros(n)
    ok = np.ones(n, dtype=bool)
    pos = np.arange(n)
    lead = coeffs[d - 1 :: -1]  # acc = sum_i q_i u^(d-1-i)
    with np.errstate(all="ignore"):
        ur, ui = _div(1.0, 0.0, xr, xi)
        carriers = [ur, ui, *_mul(yr, yi, ur, ui)]
        sums = None
        if gradient:
            # acc2 = sum_i (d - i) q_i u^(d-1-i), as CPython forms (d - i) * q_i
            slopes = [(d - i) * c for i, c in enumerate(coeffs[:d])][::-1]
            uur, uui = _mul(ur, ui, ur, ui)
            xx, xy, yx, yy = zip(jac[0::2], jac[1::2])
            for row in (xx, xy):  # grad u = -(grad x) u^2
                carriers += _mul(-row[0], -row[1], uur, uui)
            for ry, rx in ((yx, xx), (yy, xy)):  # grad w = (grad y x - y grad x) u^2
                vr, vi = _mul(*ry, xr, xi)
                er, ei = _mul(yr, yi, *rx)
                carriers += _mul(vr - er, vi - ei, uur, uui)
            sums = [*_mul(*xx, ur, ui), *_mul(*xy, ur, ui)]  # grad Log x = (grad x) u
        dj = 1
        for _ in range(K):
            alive = carriers[0] != 0
            for v in carriers[1:]:
                alive |= v != 0
            if gradient:
                for g in sums:
                    alive |= _negative_zero(g[pos])
            if not alive.all():
                pos = pos[alive]
                carriers = [v[alive] for v in carriers]
                if not pos.size:
                    break
            dj *= d
            try:
                dj_float = float(dj)
            except OverflowError:  # the scalar's log(t) / dj raises
                ok[pos] = False
                break
            ur, ui, wr, wi = carriers[:4]
            accr, acci = _horner(lead, ur, ui)
            m2r, m2i, raises = _pow(ur, ui, d - 2)
            m1r, m1i = _mul(m2r, m2i, ur, ui)
            sr, si = _mul(ur, ui, accr, acci)
            # s = u acc - (a w) u^(d-1), or u acc - w u^(d-1) on the minus side
            awr, awi = _mul(a.real, a.imag, wr, wi) if plus else (wr, wi)
            br, bi = _mul(awr, awi, m1r, m1i)
            sr, si = sr - br, si - bi
            tr, ti = 1.0 + sr, 0.0 + si
            ms, over = _abs(sr, si)
            smax[pos] = np.where(ms > smax[pos], ms, smax[pos])
            lr, li, zero = _cmath(cmath.log, tr, ti)  # raises at t = 0, as 1/t would
            raises |= over | zero
            live = [m1r, m1i, m2r, m2i, tr, ti, lr, li, awr, awi]
            if raises.any():
                ok[pos[raises]] = False
                keep = ~raises
                pos = pos[keep]
                carriers = [v[keep] for v in carriers]
                live = [v[keep] for v in live]
            m1r, m1i, m2r, m2i, tr, ti, lr, li, awr, awi = live
            ur, ui, wr, wi = carriers[:4]
            lr, li = _div_real(lr, li, dj_float)
            lsr[pos] += lr
            lsi[pos] += li
            udr, udi = _mul(m1r, m1i, ur, ui)
            itr, iti = _div(1.0, 0.0, tr, ti)
            if gradient:
                acc2r, acc2i = _horner(slopes, ur, ui)
                # ds/du = acc2 - (a w) (d - 1) u^(d-2) and ds/dw = -a u^(d-1); on
                # the minus side ds/dv = acc2 - t (d - 1) v^(d-2) and ds/dt = -v^(d-1)
                cr, ci = _mul(*_mul(awr, awi, float(d - 1), 0.0), m2r, m2i)
                dur, dui = acc2r - cr, acc2i - ci
                dwr, dwi = _mul(-a.real, -a.imag, m1r, m1i) if plus else (-m1r, -m1i)
                tdr, tdi = _mul(tr, ti, dj_float, 0.0)  # t * dj
                # d u^(d-1) and (d - 1) u^(d-2): the factors of grad u and grad w
                factors = (
                    (_mul(float(d), 0.0, m1r, m1i), (udr, udi)),
                    (_mul(float(d - 1), 0.0, m2r, m2i), (m1r, m1i)),
                )
                grads = carriers[4:]
                new = ([], [])
                for axis in (0, 1):
                    gur, gui = grads[2 * axis : 2 * axis + 2]
                    gwr, gwi = grads[4 + 2 * axis : 6 + 2 * axis]
                    vr, vi = _mul(dur, dui, gur, gui)
                    er, ei = _mul(dwr, dwi, gwr, gwi)
                    gsr, gsi = vr + er, vi + ei  # ds/dx or ds/dy
                    qr, qi = _div(gsr, gsi, tdr, tdi)
                    sums[2 * axis][pos] += qr
                    sums[2 * axis + 1][pos] += qi
                    # grad u <- (d u^(d-1) grad u - u^d grad s / t) / t, grad w
                    # <- ((d - 1) u^(d-2) grad u - u^(d-1) grad s / t) / t; times a
                    # on the minus side
                    for carrier, ((fr, fi), (hr, hi)) in zip(new, factors):
                        vr, vi = _mul(fr, fi, gur, gui)
                        er, ei = _mul(*_mul(hr, hi, gsr, gsi), itr, iti)
                        vr, vi = vr - er, vi - ei
                        if not plus:
                            vr, vi = _mul(a.real, a.imag, vr, vi)
                        carrier += _mul(vr, vi, itr, iti)
                carriers[4:] = new[0] + new[1]
            if not plus:
                udr, udi = _mul(a.real, a.imag, udr, udi)
                m1r, m1i = _mul(a.real, a.imag, m1r, m1i)
            carriers[:4] = [*_mul(udr, udi, itr, iti), *_mul(m1r, m1i, itr, iti)]
    block.smax[idx] = smax
    block.status[idx[~ok]] = RAISES
    return lsr, lsi, sums, ok


def _finish(block, d, entered, lsr, lsi, sums, ok, log_a):
    """log phi at the escaped points, and with `sums` its gradient: the
    scalar kernel's last lines, elementwise.  Plus side: Log(x e^(log sum))
    / d^k and (gradient sum) / d^k; minus side, on y with log_a = Log a:
    (e_m Log a + Log(y e^(log sum))) / d^m and (gradient sum) / d^m."""
    idx, xr, xi, lsr, lsi = (v[ok] for v in (entered[0], *entered[1:3], lsr, lsi))
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
        block.logphi[0][idx], block.logphi[1][idx] = _div_real(lr, li, dk)
        if sums is not None:
            for j in (0, 2):
                parts = _div_real(sums[j][ok], sums[j + 1][ok], dk)
                block.gradient[j][idx], block.gradient[j + 1][idx] = parts
    block.status[idx[raises]] = RAISES


def phi_plus_batch(coeffs, a, xr, xi, yr, yi, K, alpha, cap, trap, gradient):
    """`_kernel.phi_plus_eval(coeffs, a, x, y, K, alpha, cap, trap)` for
    every point (xr + i xi, yr + i yi) of the float64 arrays: its gradient
    slots only if `gradient`.

    Returns (status, k, logphi, dlog_dx, dlog_dy, smax), each slot an array
    with one entry per point and each complex slot a pair (real parts,
    imaginary parts); the gradient slots are None unless `gradient`.
    Status RAISES marks a point where the scalar kernel raises.
    """
    a = complex(a)
    block = _Block(len(xr), gradient)
    entered = _entry(block, coeffs, a, (xr, xi), (yr, yi), alpha, cap, trap, True, gradient)
    if entered is not None:
        lsr, lsi, sums, ok = _product(block, coeffs, a, K, entered, True, gradient)
        _finish(block, len(coeffs) - 1, entered, lsr, lsi, sums, ok, None)
    return block.result()


def phi_minus_batch(coeffs, a, xr, xi, yr, yi, K, alpha, cap, gradient):
    """`_kernel.phi_minus_eval(coeffs, a, x, y, K, alpha, cap)` for every
    point (xr + i xi, yr + i yi) of the float64 arrays, as `phi_plus_batch`
    returns it; a = 0 raises at every point, as 1/a does in the scalar
    kernel.
    """
    a = complex(a)
    block = _Block(len(xr), gradient)
    if a == 0:
        block.status[:] = RAISES
        return block.result()
    inv_a = 1.0 / a
    # the minus entry loop is the plus one on (y, x) with p(y) - x divided by a
    entered = _entry(block, coeffs, inv_a, (yr, yi), (xr, xi), alpha, cap, None, False, gradient)
    if entered is not None:
        lsr, lsi, sums, ok = _product(block, coeffs, a, K, entered, False, gradient)
        _finish(block, len(coeffs) - 1, entered, lsr, lsi, sums, ok, cmath.log(a))
    return block.result()
