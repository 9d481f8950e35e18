"""Escape kernels over blocks of points: `_kernel`'s batch twin.

`phi_plus_batch` and `phi_minus_batch` compute, for every point of a block,
what `_kernel.phi_plus_eval` and `phi_minus_eval` return, bit for bit:
(status, k, logphi, smax), and the gradient (dlog_dx, dlog_dy) when the
caller asks for it with `gradient`.  (The one exception: a NaN gradient
part may differ in sign, since which of two NaNs an addition keeps is up
to how numpy's loops and CPython were compiled; callers refuse
non-finite gradients.)  Without the gradient they skip p', the Jacobian,
acc2, ds/du and ds/dw (ds/dv, ds/dt) and every gradient, and are the
package's only value-only loops.  `gridfield` renders every tile through
them, one call per side and block of rows, with the arguments
`escape._call_args` prepares for the scalar call: g+ and g- blocks without
the gradient, tangency blocks with it.

Split-real: a block of complex values is a `_Z`, float64 arrays of real
and imaginary parts whose operators are CPython's own complex formulas, so
every element rounds as the scalar kernel rounds.  `_entry`, `_product`
and `_finish` are `_kernel._eval`'s own statements on `_Z` values, for
both sides (the minus side on the swapped pair (y, x), as there), and p
comes from `_kernel.horner` and `horner_with_deriv` themselves;
`tests/test_source.py` holds each mirrored assignment to its counterpart
in `_eval`.  numpy's complex dtypes, its complex `*` and `/`, and its
`log`, `log1p`, `exp` and `arctan2` are not bitwise CPython's on every
host, so none of them is used here (`tests/test_source.py` keeps that so).
The transcendentals are CPython's own: `cmath.log` once per live factor of
every point, and `cmath.exp` and the final `cmath.log` once per escaping
point.

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

from ._kernel import NO_ESCAPE, OK, OVERFLOW, OVERFLOW_CAP, horner, horner_with_deriv

# the scalar kernel raises at this point; see the module docstring
RAISES = 3

_REAL, _IMAG = attrgetter("real"), attrgetter("imag")


def _parts(v):
    """An operand's real and imaginary parts: an int, a float or a real
    array is promoted to v + 0j, as CPython 3.11 promotes it."""
    if type(v) is _Z:
        return v.re, v.im
    if isinstance(v, complex):
        return v.real, v.imag
    return (float(v) if isinstance(v, int) else v), 0.0


class _Z:
    """A block of complex numbers: float64 arrays of real and imaginary
    parts, whose operators are CPython 3.11's complex formulas
    (Objects/complexobject.c), elementwise:

        z + w, z - w  _Py_c_sum, _Py_c_diff: part by part
        z * w      _Py_c_prod: (zr wr - zi wi, zr wi + zi wr)
        z / w      _Py_c_quot: Smith's quotient, dividing through by the
                   larger of |wr| and |wi| (wr on a tie); NaN parts if w
                   has one.  By a positive float or int n, whose ratio is
                   0.0 and denominator n: ((zr + zi 0.0)/n, (zi - zr 0.0)/n)
        n op z     an int, a float or a real array promoted to n + 0j, on
                   either side (1.0 + s, d u^(d-1), t d^j, det * scale)

    The promotions are CPython 3.11's (3.14 multiplies a float into a
    complex without the + 0j, which rounds signed zeros and infinities
    differently; `tests/test_batch.py` fails there).  `__array_ufunc__ =
    None` makes an ndarray operand defer to the reflected operator, so no
    expression here becomes a numpy complex array.
    """

    __slots__ = ("re", "im")
    __array_ufunc__ = None

    def __init__(self, re, im):
        self.re = re
        self.im = im

    def __iter__(self):
        return iter((self.re, self.im))

    def __getitem__(self, key):
        return _Z(self.re[key], self.im[key])

    def __setitem__(self, key, value):
        self.re[key], self.im[key] = value

    def __neg__(self):
        return _Z(-self.re, -self.im)

    def __add__(self, other):
        if type(other) is _Z:
            return _Z(self.re + other.re, self.im + other.im)
        wr, wi = _parts(other)
        return _Z(self.re + wr, self.im + wi)

    def __radd__(self, other):
        wr, wi = _parts(other)
        return _Z(wr + self.re, wi + self.im)

    def __sub__(self, other):
        if type(other) is _Z:
            return _Z(self.re - other.re, self.im - other.im)
        wr, wi = _parts(other)
        return _Z(self.re - wr, self.im - wi)

    def __mul__(self, other):
        zr, zi = self.re, self.im
        wr, wi = (other.re, other.im) if type(other) is _Z else _parts(other)
        return _Z(zr * wr - zi * wi, zr * wi + zi * wr)

    def __rmul__(self, other):
        wr, wi = _parts(other)
        return _Z(wr * self.re - wi * self.im, wr * self.im + wi * self.re)

    def __truediv__(self, other):
        if type(other) in (int, float) and other > 0:
            n = float(other)
            return _Z((self.re + self.im * 0.0) / n, (self.im - self.re * 0.0) / n)
        return _quot(self.re, self.im, *_parts(other))

    def __rtruediv__(self, other):
        return _quot(*_parts(other), self.re, self.im)


def _zeros(n):
    return _Z(np.zeros(n), np.zeros(n))


def _quot(ar, ai, br, bi):
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
    return _Z(re, im)


def _abs(z):
    """abs(z) and where it raises: finite parts whose modulus overflows.
    A NaN modulus is CPython's own positive NaN, as `_Py_c_abs` returns it."""
    h = np.hypot(z.re, z.im)
    odd = ~np.isfinite(h)
    if not odd.any():
        return h, odd
    raises = np.isinf(h) & np.isfinite(z.re) & np.isfinite(z.im)
    return np.where(np.isnan(h), np.nan, h), raises


def _pow(z, n):
    """z ** n for an int n >= 0 (CPython's c_powi, from 1 + 0j), and where
    it raises: an infinite part."""
    r, p, mask = _Z(1.0, 0.0), z, 1
    while mask <= n:
        if n & mask:
            r = r * p
        mask <<= 1
        if mask <= n:
            p = p * p
    return r, np.isinf(r.re) | np.isinf(r.im)


def _cmath(fn, z):
    """cmath.log or cmath.exp of each element, and where it raises."""
    points = list(map(complex, z.re.tolist(), z.im.tolist()))
    raises = np.zeros(len(points), dtype=bool)
    try:
        values = list(map(fn, points))
    except (ValueError, OverflowError):
        values = []
        for i, point in enumerate(points):
            try:
                values.append(fn(point))
            except (ValueError, OverflowError):
                values.append(0j)
                raises[i] = True
    n = len(values)
    re = np.fromiter(map(_REAL, values), float, n)
    return _Z(re, np.fromiter(map(_IMAG, values), float, n)), raises


def _negative_zero(*values):
    """Where some part of one of the values is -0.0."""
    return np.logical_or.reduce([(v == 0) & np.signbit(v) for z in values for v in z])


class _Block:
    """Per-point outputs, filled in as points leave the entry loop."""

    def __init__(self, n, gradient):
        self.status = np.full(n, OK, dtype=np.int8)
        self.k = np.zeros(n, dtype=np.int64)
        self.logphi = _zeros(n)
        self.smax = np.zeros(n)
        self.gradient = (_zeros(n), _zeros(n)) if gradient else (None, None)  # d/dx, d/dy

    def stop(self, idx, status, k):
        self.status[idx] = status
        self.k[idx] = k

    def result(self):
        return self.status, self.k, self.logphi, *self.gradient, self.smax


def _entry(block, coeffs, a, x, y, alpha, cap, trap, plus, gradient):
    """Lockstep entry loop; returns the escaped points as [index, x, y],
    followed, with `gradient`, by the Jacobian jxx, jxy, jyx, jyy of
    (x, y), or None when none escapes.

    Plus side: x, y = p(x) - a y, x until |x| > |y|, |x| > alpha.  Minus
    side, on the swapped pair (y, x): x, y = y, (p(y) - x)/a until
    |y| > |x|, |y| > alpha; the caller hands in (y, x), and the Jacobian
    rows are swapped with them.
    """
    d = len(coeffs) - 1
    safe = OVERFLOW_CAP ** (1.0 / d)
    n = len(x.re)
    idx = np.arange(n)
    state = [x, y]
    if gradient:
        one, zero = _Z(np.ones(n), np.zeros(n)), _zeros(n)
        state += [one, zero, zero, one] if plus else [zero, one, one, zero]
    if not plus:
        inv_a = 1.0 / a
    escaped = []
    k = 0
    with np.errstate(all="ignore"):
        while idx.size:
            x, y = state[:2]
            ax, rx = _abs(x)
            ay, ry = _abs(y)
            raises = rx | ry
            out = (ax > ay) & (ax > alpha) & ~raises
            if out.any():
                block.k[idx[out]] = k
                escaped.append([idx[out], *(part[out] for z in state for part in z)])
            if k >= cap:
                stay = ~(out | raises)
                block.stop(idx[stay], NO_ESCAPE, k)
                block.stop(idx[raises], RAISES, k)
                break
            done = out | raises
            if trap is not None:
                tx, ty, trho, tsigma = trap
                dx, rdx = _abs(x - tx)
                near = dx < trho
                dy, rdy = _abs(y - ty)
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
                state = [z[keep] for z in state]
            x, y, *jac = state
            if gradient:
                jxx, jxy, jyx, jyy = jac
                px, dpx = horner_with_deriv(coeffs, x)
                if plus:
                    njxx = dpx * jxx - a * jyx
                    njxy = dpx * jxy - a * jyy
                else:
                    njxx = (dpx * jxx - jyx) * inv_a
                    njxy = (dpx * jxy - jyy) * inv_a
                jac = [njxx, njxy, jxx, jxy]
            else:
                px = horner(coeffs, x)
            state = [px - a * y if plus else (px - y) * inv_a, x, *jac]
            k += 1
    if not escaped:
        return None
    idx, *parts = map(np.concatenate, zip(*escaped))
    return [idx, *map(_Z, parts[0::2], parts[1::2])]


def _product(block, coeffs, a, K, entered, plus, gradient):
    """The product loop over the escaped points: each log sum, with
    `gradient` the gradient sums d Log x_k/d(x, y) + sum_j (ds_j/d(x, y)) /
    ((1 + s_j) d^j) (else None), and where the point did not raise.

    Plus side: s = u acc - a w u^(d-1), u <- u^d/(1+s), w <- u^(d-1)/(1+s).
    Minus side: s = v acc - t v^(d-1), v <- a v^d/(1+s), t <- a v^(d-1)/(1+s).
    A point that raises runs on to its dead tail or K, and is marked.
    """
    d = len(coeffs) - 1
    idx, x, y, *jac = entered
    n = len(idx)
    logsum, smax = _zeros(n), np.zeros(n)
    ok, pos = np.ones(n, dtype=bool), np.arange(n)
    lead = coeffs[d - 1 :: -1]  # acc = sum_i q_i u^(d-1-i), by Horner from q_0
    with np.errstate(all="ignore"):
        u = 1.0 / x
        w = y * u
        carriers = [u, w]
        if gradient:
            # acc2 = sum_i (d - i) q_i u^(d-1-i), as CPython forms (d - i) * q_i
            slopes = [(d - i) * c for i, c in enumerate(coeffs[:d])][::-1]
            jxx, jxy, jyx, jyy = jac
            uu = u * u
            gux, guy = -jxx * uu, -jxy * uu
            gwx = (jyx * x - y * jxx) * uu
            gwy = (jyy * x - y * jxy) * uu
            glx, gly = jxx * u, jxy * u  # gradient of Log x_k
            carriers += [gux, guy, gwx, gwy]
        dj = 1
        for _ in range(K):
            alive = carriers[0].re != 0
            for part in [part for z in carriers for part in z][1:]:
                alive |= part != 0
            if gradient:
                alive |= _negative_zero(glx[pos], gly[pos])
            if not alive.all():
                pos = pos[alive]
                carriers = [z[alive] for z in carriers]
                if not pos.size:
                    break
            dj *= d
            try:
                float(dj)
            except OverflowError:  # the scalar's log(t) / dj raises
                ok[pos] = False
                break
            u, w, *grads = carriers
            acc = horner(lead, u)
            u_dm2, raises = _pow(u, d - 2)
            u_dm1 = u_dm2 * u
            aw = a * w if plus else w
            s = u * acc - aw * u_dm1
            t = 1.0 + s
            ms, over = _abs(s)
            smax[pos] = np.where(ms > smax[pos], ms, smax[pos])
            log_t, zero = _cmath(cmath.log, t)  # raises at t = 0, as 1/t would
            raises |= over | zero
            if raises.any():
                ok[pos[raises]] = False
            logsum[pos] += log_t / dj
            u_d = u_dm1 * u
            inv_t = 1.0 / t
            if gradient:
                gux, guy, gwx, gwy = grads
                acc2 = horner(slopes, u)
                # ds/du and ds/dw; ds/dv and ds/dt on the minus side
                dsdu = acc2 - aw * (d - 1) * u_dm2
                dsdw = -a * u_dm1 if plus else -u_dm1
                gsx = dsdu * gux + dsdw * gwx
                gsy = dsdu * guy + dsdw * gwy
                tdj = t * dj
                glx[pos] += gsx / tdj
                gly[pos] += gsy / tdj
                # d u^(d-1) and (d-1) u^(d-2): the factors of grad u and grad w
                fu, fw = d * u_dm1, (d - 1) * u_dm2
                ngux = fu * gux - u_d * gsx * inv_t
                nguy = fu * guy - u_d * gsy * inv_t
                ngwx = fw * gux - u_dm1 * gsx * inv_t
                ngwy = fw * guy - u_dm1 * gsy * inv_t
                if not plus:
                    ngux, nguy, ngwx, ngwy = a * ngux, a * nguy, a * ngwx, a * ngwy
                gux, guy, gwx, gwy = ngux * inv_t, nguy * inv_t, ngwx * inv_t, ngwy * inv_t
            if not plus:
                u_d, u_dm1 = a * u_d, a * u_dm1
            u = u_d * inv_t
            w = u_dm1 * inv_t
            carriers = [u, w, gux, guy, gwx, gwy] if gradient else [u, w]
    block.smax[idx] = smax
    block.status[idx[~ok]] = RAISES
    return logsum, (glx, gly) if gradient else None, ok


def _finish(block, d, entered, logsum, sums, ok, log_a):
    """log phi at the escaped points, and with `sums` its gradient: the
    scalar kernel's last lines, for the points of each entry step k at once.
    Log(x e^(log sum)) / d^k, or on the minus side (e_m Log a + Log(y e^(log
    sum))) / d^m with log_a = Log a; (gradient sum) / d^k."""
    idx, x = entered[0][ok], entered[1][ok]
    k = block.k[idx]
    exp_sum, raises = _cmath(cmath.exp, logsum[ok])
    with np.errstate(all="ignore"):
        phi_w = x * exp_sum
        log_w, zero = _cmath(cmath.log, phi_w)
        raises |= zero
        sums = [g[ok] for g in sums or ()]
        for step in set(k.tolist()):
            at = k == step
            dk = d**step
            try:  # the int powers as CPython converts them, or its OverflowError
                logphi = log_w[at] if log_a is None else (dk - 1) // (d - 1) * log_a + log_w[at]
                block.logphi[idx[at]] = logphi / dk
            except OverflowError:
                raises |= at
                continue
            for out, g in zip(block.gradient, sums):
                out[idx[at]] = g[at] / dk
    block.status[idx[raises]] = RAISES


def _eval(coeffs, a, x, y, K, alpha, cap, trap, plus, gradient):
    """Both batch entries; the minus side runs on the swapped pair (y, x)."""
    a = complex(a)
    block = _Block(len(x.re), gradient)
    if not plus and a == 0:  # 1/a raises
        block.status[:] = RAISES
        return block.result()
    entered = _entry(block, coeffs, a, x, y, alpha, cap, trap, plus, gradient)
    if entered is not None:
        logsum, sums, ok = _product(block, coeffs, a, K, entered, plus, gradient)
        _finish(block, len(coeffs) - 1, entered, logsum, sums, ok, None if plus else cmath.log(a))
    return block.result()


def phi_plus_batch(coeffs, a, x, y, K, alpha, cap, trap, gradient):
    """`_kernel.phi_plus_eval(coeffs, a, x, y, K, alpha, cap, trap)` for
    every point of the `_Z` blocks x and y: its gradient slots only if
    `gradient`.

    Returns (status, k, logphi, dlog_dx, dlog_dy, smax), each slot with one
    entry per point and each complex slot a `_Z`; the gradient slots are
    None unless `gradient`.  Status RAISES marks a point where the scalar
    kernel raises.
    """
    return _eval(coeffs, a, x, y, K, alpha, cap, trap, True, gradient)


def phi_minus_batch(coeffs, a, x, y, K, alpha, cap, gradient):
    """`_kernel.phi_minus_eval(coeffs, a, x, y, K, alpha, cap)` for every
    point of the `_Z` blocks x and y, as `phi_plus_batch` returns it; a = 0
    raises at every point, as 1/a does in the scalar kernel.
    """
    return _eval(coeffs, a, y, x, K, alpha, cap, None, False, gradient)
