"""Pointwise escape-product kernels.

The two routines below are the hot per-point computations everything else
builds on: iterate a point of C^2 into the forward (resp. backward) escape
domain while propagating the 2x2 complex Jacobian, then accumulate the
truncated telescoping product for log phi+ (resp. log phi-) together with
its holomorphic gradient.  Every call carries the Jacobian and the
gradient: the paper's critical locus is where the gradients of log phi+
and log phi- are parallel, and every scalar caller reads them.

Both run one loop, `_eval`: phi- is built from f^-1 as phi+ is from f, so
the minus side is the plus side's entry and product loops on the swapped
pair (y, x), with a <-> 1/a where f^-1 divides by a.  That entry loop is the
package's only scalar Jacobian-carrying iteration of f, and `horner` /
`horner_with_deriv` its only Horner routines.  The product loop keeps an
inline Horner in u (resp. v): it runs once per factor of every call, where
a function call costs time, and stays bit for bit the loop the oracle tests
pin.

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

The batch twin, `_batch.phi_plus_batch` and `phi_minus_batch`, runs the
same loops over blocks of points, bitwise (see its docstring and
`tests/test_batch.py`), with `_eval`'s own expressions on a split-real
complex type; `tests/test_source.py::test_batch_mirrors_the_scalar_kernel`
fails when an assignment it mirrors changes on one side only.
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
    return _eval(coeffs, a, x, y, K, alpha, cap, trap, True)


def phi_minus_eval(coeffs, a, x, y, K, alpha, cap):
    """log phi- at (x, y), with its gradient; requires a != 0.

    Returns (status, m, logphi, dlog_dx, dlog_dy, smax) with
    logphi = d^-m * (e_m Log(a) + Log(phi-(f^-m(x,y)))), e_m = (d^m-1)/(d-1),
    m the first entry time into V- = {|y| > |x|, |y| > alpha}.
    """
    return _eval(coeffs, a, y, x, K, alpha, cap, None, False)


def _eval(coeffs, a, x, y, K, alpha, cap, trap, plus):
    """Both sides' loops; the minus side runs on the swapped pair (y, x).

    Plus side: x, y = p(x) - a y, x until |x| > |y|, |x| > alpha, then the
    product in u = 1/x, w = y/x.  Minus side: x, y = (p(x) - y)/a, x on the
    swapped pair, then the product in v = 1/x, t = y/x with the carriers
    multiplied by a.  The Jacobian's rows follow the pair, so its columns
    stay d/dx0 and d/dy0: the minus side starts from the swapped rows.
    """
    d = len(coeffs) - 1
    safe = OVERFLOW_CAP ** (1.0 / d)
    trapping = trap is not None
    if trapping:
        tx, ty, trho, tsigma = trap
    if plus:
        jxx, jxy, jyx, jyy = 1.0 + 0j, 0j, 0j, 1.0 + 0j
    else:
        inv_a = 1.0 / a
        jxx, jxy, jyx, jyy = 0j, 1.0 + 0j, 1.0 + 0j, 0j
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
        if plus:
            njxx = dpx * jxx - a * jyx
            njxy = dpx * jxy - a * jyy
            x, y = px - a * y, x
        else:
            njxx = (dpx * jxx - jyx) * inv_a
            njxy = (dpx * jxy - jyy) * inv_a
            x, y = (px - y) * inv_a, x
        jyx, jyy = jxx, jxy
        jxx, jxy = njxx, njxy
        k += 1

    u = 1.0 / x
    w = y * u
    uu = u * u
    gux, guy = -jxx * uu, -jxy * uu
    gwx = (jyx * x - y * jxx) * uu
    gwy = (jyy * x - y * jxy) * uu
    glx, gly = jxx * u, jxy * u  # gradient of Log x_k
    # q_i and (d-i) q_i for the inline Horner, lowest degree first
    terms = [(c, (d - i) * c) for i, c in enumerate(coeffs[:d])]
    logsum = 0j
    smax = 0.0
    dj = 1
    for _ in range(K):
        if not (u or w or gux or guy or gwx or gwy) and _no_negative_zero(glx, gly):
            break  # dead tail: see the module docstring
        dj *= d
        # acc = sum_i q_i u^(d-1-i), acc2 = sum_i (d-i) q_i u^(d-1-i)
        acc = acc2 = 0j
        for q, dq in terms:
            acc = acc * u + q
            acc2 = acc2 * u + dq
        u_dm2 = u ** (d - 2)
        u_dm1 = u_dm2 * u
        if plus:
            aw, dsdw = a * w, -a * u_dm1
        else:
            aw, dsdw = w, -u_dm1
        s = u * acc - aw * u_dm1
        t = 1.0 + s
        ms = abs(s)
        if ms > smax:
            smax = ms
        logsum += cmath.log(t) / dj
        u_d = u_dm1 * u
        inv_t = 1.0 / t
        dsdu = acc2 - aw * (d - 1) * u_dm2
        gsx = dsdu * gux + dsdw * gwx
        gsy = dsdu * guy + dsdw * gwy
        tdj = t * dj
        glx += gsx / tdj
        gly += gsy / tdj
        # d u^(d-1) and (d-1) u^(d-2): the factors of grad u and grad w
        fu, fw = d * u_dm1, (d - 1) * u_dm2
        ngux = fu * gux - u_d * gsx * inv_t
        nguy = fu * guy - u_d * gsy * inv_t
        ngwx = fw * gux - u_dm1 * gsx * inv_t
        ngwy = fw * guy - u_dm1 * gsy * inv_t
        if not plus:
            ngux, nguy, ngwx, ngwy = a * ngux, a * nguy, a * ngwx, a * ngwy
            u_d, u_dm1 = a * u_d, a * u_dm1
        gux, guy, gwx, gwy = ngux * inv_t, nguy * inv_t, ngwx * inv_t, ngwy * inv_t
        u = u_d * inv_t
        w = u_dm1 * inv_t

    phi_w = x * cmath.exp(logsum)
    dk = d**k
    logphi = cmath.log(phi_w) if plus else (dk - 1) // (d - 1) * cmath.log(a) + cmath.log(phi_w)
    return (OK, k, logphi / dk, glx / dk, gly / dk, smax)
