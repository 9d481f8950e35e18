"""Pointwise escape-product kernels.

The two routines below are the hot per-point computations everything else
builds on: iterate a point of C^2 into the forward (resp. backward) escape
domain while propagating the 2x2 complex Jacobian, then accumulate the
truncated telescoping product for log phi+ (resp. log phi-) together with
its holomorphic gradient.  Every call carries the Jacobian and the
gradient: the paper's critical locus is where the gradients of log phi+
and log phi- are parallel, and every scalar caller reads them.

Their entry loops are the package's only Jacobian-carrying iteration of f,
and `horner` / `horner_with_deriv` its only Horner routines. The product
loop keeps an inline Horner in u (resp. v): it runs once per factor of every
call, where a function call costs time, and stays bit for bit the loop the
oracle tests pin.

To avoid overflowing doubles (iterates grow like |x|^(d^k)) the product
phase works entirely in the bounded reciprocal variables

    plus side:   u_j = 1/x_j,        w_j = y_j / x_j        (|w| < 1 on V+)
    minus side:  v_j = 1/y_{-j},     t_j = x_{-j} / y_{-j}  (|t| < 1 on V-)

whose recursions only involve the factor terms s_j themselves:

    s_j  = sum_i q_i u^(d-i) - a w u^(d-1),   u <- u^d/(1+s),  w <- u^(d-1)/(1+s)
    s_j- = sum_i q_i v^(d-i) - t v^(d-1),     v <- a v^d/(1+s), t <- a v^(d-1)/(1+s)

Three shortcuts change the work done but not one bit of the result. Each
entry step takes |x| and |y| once and p, p' from one Horner pass. The
product leaves its loop at its dead tail: once the carriers (u, w and their
gradients, or v, t and theirs) are all exactly zero, every later factor has
s = +-0 and 1 + s = 1, and adds only exact zeros to the log sum and the
gradient sums. An exact zero leaves a sum bitwise unchanged unless the sum
is -0.0 (adding +0.0 makes it +0.0). The log sum starts at +0.0 and so is
never -0.0; a gradient sum can be, so the loop also requires that neither
gradient sum has a -0.0 part before it leaves.

The third is the trap (plus side only): given the bidisk B_0 of a
certified trap around f's attracting cycle (`dynamics.attracting_trap`),
the entry loop returns NO_ESCAPE as soon as an iterate lies in B_0. The
certificate keeps every float orbit through B_0 inside the trap's bidisks,
which stay out of V+ and far below the overflow cap, so the plain loop
would have returned NO_ESCAPE at the cap with the same zero values; only
the returned step count differs, k < cap. The minus side has no trap: f^-1
expands volume by 1/|a| and has no attracting cycle.

The batch twin, `_batch.phi_plus_batch` and `phi_minus_batch`, runs these
loops over blocks of points, with the arguments `escape._call_args`
prepares for the scalar call: split-real numpy arrays with CPython's own
complex formulas and cmath's log and exp.  `gridfield` runs it once per
side and block of rows of every tile.  For g+ and g- tiles it skips p',
the Jacobian, acc2, ds/du and ds/dw (ds/dv, ds/dt), the gradient sums and
the carrier updates, and performs the value operations here in the same
order; its dead-tail test then leaves once u and w (v and t) are exactly
zero, and past that point the loops here run only factors that add +-0 to
a log sum that is never -0.0.  For tangency tiles it carries the Jacobian
and the gradients too, with every operation here in the same order and
this dead-tail test.  Either way every point's slots are bitwise the ones
these functions return, up to the sign of a NaN gradient part
(`tests/test_batch.py`).  A change to the operations here must be made
there too.
"""

import cmath
from math import copysign

# name reported as the kernel backend in benchmark provenance
BACKEND = "reference"

OVERFLOW_CAP = 1e150

# status codes
OK = 0
NO_ESCAPE = 1
OVERFLOW = 2


def horner(coeffs, z):
    acc = 0j
    for i in range(len(coeffs) - 1, -1, -1):
        acc = acc * z + coeffs[i]
    return acc


def horner_with_deriv(coeffs, z):
    """(p(z), p'(z)) in one pass, bitwise equal to two separate Horner loops.

    Each accumulator performs the same operations, in the same order, as a
    lone loop for p or for p'.
    """
    acc = 0j
    dacc = 0j
    for i in range(len(coeffs) - 1, 0, -1):
        acc = acc * z + coeffs[i]
        dacc = dacc * z + i * coeffs[i]
    return acc * z + coeffs[0], dacc


def _no_negative_zero(*values):
    """False if some real or imaginary part is -0.0 (NaN counts as nonzero)."""
    return all(part or copysign(1.0, part) > 0.0 for z in values for part in (z.real, z.imag))


def phi_plus_eval(coeffs, a, x, y, K, alpha, cap, trap):
    """log phi+ at (x, y), with its gradient.

    coeffs: coefficients of the monic p, lowest degree first (len d+1).
    Returns (status, k, logphi, dlog_dx, dlog_dy, smax) where
    logphi = d^-k * Log(phi+(f^k(x,y))) with principal Log, k the first
    entry time into V+ = {|x| > |y|, |x| > alpha}, and smax the largest
    |s_j| met in the product (``escape._run`` raises CertificateViolation
    unless smax < r).

    trap: None, or (x0, y0, rho, sigma) from ``CycleTrap.kernel_trap(alpha)``;
    an iterate with |x - x0| < rho and |y - y0| < sigma ends the loop with
    NO_ESCAPE at its step k (see the module docstring).
    """
    d = len(coeffs) - 1
    safe = OVERFLOW_CAP ** (1.0 / d)
    trapping = trap is not None
    if trapping:
        tx, ty, trho, tsigma = trap
    jxx, jxy, jyx, jyy = 1.0 + 0j, 0j, 0j, 1.0 + 0j
    k = 0
    while True:
        ax, ay = abs(x), abs(y)
        if ax > ay and ax > alpha:
            break
        if k >= cap:
            return (NO_ESCAPE, k, 0j, 0j, 0j, 0.0)
        if trapping and abs(x - tx) < trho and abs(y - ty) < tsigma:
            return (NO_ESCAPE, k, 0j, 0j, 0j, 0.0)
        if ax > safe or ay > safe:
            return (OVERFLOW, k, 0j, 0j, 0j, 0.0)
        px, dpx = horner_with_deriv(coeffs, x)
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
    glx, gly = jxx * u, jxy * u  # gradient of Log x_k
    logsum = 0j
    smax = 0.0
    dj = 1
    for _ in range(K):
        if not (u or w or gux or guy or gwx or gwy) and _no_negative_zero(glx, gly):
            break  # dead tail: see the module docstring
        dj *= d
        # acc = sum_i q_i u^(d-1-i), acc2 = sum_i (d-i) q_i u^(d-1-i)
        acc = acc2 = 0j
        for i in range(d):
            acc = acc * u + coeffs[i]
            acc2 = acc2 * u + (d - i) * coeffs[i]
        u_dm2 = u ** (d - 2)
        u_dm1 = u_dm2 * u
        s = u * acc - a * w * u_dm1
        t = 1.0 + s
        ms = abs(s)
        if ms > smax:
            smax = ms
        logsum += cmath.log(t) / dj
        u_d = u_dm1 * u
        inv_t = 1.0 / t
        dsdu = acc2 - a * w * (d - 1) * u_dm2
        dsdw = -a * u_dm1
        gsx = dsdu * gux + dsdw * gwx
        gsy = dsdu * guy + dsdw * gwy
        glx += gsx / (t * dj)
        gly += gsy / (t * dj)
        ngux = (d * u_dm1 * gux - u_d * gsx * inv_t) * inv_t
        nguy = (d * u_dm1 * guy - u_d * gsy * inv_t) * inv_t
        ngwx = ((d - 1) * u_dm2 * gux - u_dm1 * gsx * inv_t) * inv_t
        ngwy = ((d - 1) * u_dm2 * guy - u_dm1 * gsy * inv_t) * inv_t
        gux, guy, gwx, gwy = ngux, nguy, ngwx, ngwy
        u = u_d * inv_t
        w = u_dm1 * inv_t

    phi_w = x * cmath.exp(logsum)
    dk = d**k
    logphi = cmath.log(phi_w) / dk
    return (OK, k, logphi, glx / dk, gly / dk, smax)


def phi_minus_eval(coeffs, a, x, y, K, alpha, cap):
    """log phi- at (x, y), with its gradient; requires a != 0.

    Returns (status, m, logphi, dlog_dx, dlog_dy, smax) with
    logphi = d^-m * (e_m Log(a) + Log(phi-(f^-m(x,y)))), e_m = (d^m-1)/(d-1),
    m the first entry time into V- = {|y| > |x|, |y| > alpha}.
    """
    d = len(coeffs) - 1
    safe = OVERFLOW_CAP ** (1.0 / d)
    inv_a = 1.0 / a
    jxx, jxy, jyx, jyy = 1.0 + 0j, 0j, 0j, 1.0 + 0j
    m = 0
    while True:
        ax, ay = abs(x), abs(y)
        if ay > ax and ay > alpha:
            break
        if m >= cap:
            return (NO_ESCAPE, m, 0j, 0j, 0j, 0.0)
        if ax > safe or ay > safe:
            return (OVERFLOW, m, 0j, 0j, 0j, 0.0)
        py, dpy = horner_with_deriv(coeffs, y)
        njxx, njxy = jyx, jyy
        njyx = (dpy * jyx - jxx) * inv_a
        njyy = (dpy * jyy - jxy) * inv_a
        jxx, jxy, jyx, jyy = njxx, njxy, njyx, njyy
        x, y = y, (py - x) * inv_a
        m += 1

    v = 1.0 / y
    t = x * v
    vv = v * v
    gvx, gvy = -jyx * vv, -jyy * vv
    gtx = (jxx * y - x * jyx) * vv
    gty = (jxy * y - x * jyy) * vv
    glx, gly = jyx * v, jyy * v  # gradient of Log y_-m
    logsum = 0j
    smax = 0.0
    dj = 1
    for _ in range(K):
        if not (v or t or gvx or gvy or gtx or gty) and _no_negative_zero(glx, gly):
            break  # dead tail: see the module docstring
        dj *= d
        acc = acc2 = 0j
        for i in range(d):
            acc = acc * v + coeffs[i]
            acc2 = acc2 * v + (d - i) * coeffs[i]
        v_dm2 = v ** (d - 2)
        v_dm1 = v_dm2 * v
        s = v * acc - t * v_dm1
        tau = 1.0 + s
        ms = abs(s)
        if ms > smax:
            smax = ms
        logsum += cmath.log(tau) / dj
        v_d = v_dm1 * v
        inv_tau = 1.0 / tau
        dsdv = acc2 - t * (d - 1) * v_dm2
        dsdt = -v_dm1
        gsx = dsdv * gvx + dsdt * gtx
        gsy = dsdv * gvy + dsdt * gty
        glx += gsx / (tau * dj)
        gly += gsy / (tau * dj)
        ngvx = a * (d * v_dm1 * gvx - v_d * gsx * inv_tau) * inv_tau
        ngvy = a * (d * v_dm1 * gvy - v_d * gsy * inv_tau) * inv_tau
        ngtx = a * ((d - 1) * v_dm2 * gvx - v_dm1 * gsx * inv_tau) * inv_tau
        ngty = a * ((d - 1) * v_dm2 * gvy - v_dm1 * gsy * inv_tau) * inv_tau
        gvx, gvy, gtx, gty = ngvx, ngvy, ngtx, ngty
        v = a * v_d * inv_tau
        t = a * v_dm1 * inv_tau

    phi_w = y * cmath.exp(logsum)
    dm = d**m
    em = (dm - 1) // (d - 1)
    logphi = (em * cmath.log(a) + cmath.log(phi_w)) / dm
    return (OK, m, logphi, glx / dm, gly / dm, smax)
