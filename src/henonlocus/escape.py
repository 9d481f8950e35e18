"""Escape functions phi+/- with certified truncation tails, and Green's functions.

phi+ is computed on V+ by the telescoping product

    phi+(x, y) = x * prod_{k>=1} (1 + s_k)^(1/d^k),
    s_k = (q(x_{k-1}) - a*y_{k-1}) / x_{k-1}^d,   |s_k| < r,

and extended to all of U+ through phi+^(d^k) = phi+ ∘ f^k: the value at z is
the principal d^k-th root of phi+(f^k(z)) for the first k with f^k(z) in V+.
The minus side mirrors this with backward iterates and picks up Jacobian
powers: phi-^(d^m)(z) = a^(e_m) * phi-(f^(-m)(z)) with e_m = 1+d+...+d^(m-1);
everything is carried in log space so the a^(e_m) factors never underflow.

At a = 0 the minus function has the closed form phi- = (p(y) - x)^(1/d).

Both sides go through `evaluator`, made once per solve: it fixes the
kernel, K, alpha, trap and tail bound, and each call of the function it
returns is one kernel call, giving log phi and its exact gradient.  It
enforces the certificate behind the tail bound (every factor |s_k| < r)
with CertificateViolation, so the check also holds under `python -O`; a
non-finite log phi (e.g. 1/a overflowing for a subnormal a) is refused the
same way.  Only a gradient evaluator reads the gradient, so only it
refuses a non-finite one: `phi_plus`, `phi_minus` and `green` never refuse
over a gradient they do not read.  The domain is the map's own
(`HenonMap.domain_params()`, which refuses |a| >= R with ValueError); a
non-finite point (a blown-up Newton iterate, say) is refused with
CoordinateOverflow before iterating, and an iterate past the kernel's
overflow guard with CoordinateOverflow naming the depth.

Every kernel call, an evaluator's and those of `gridfield`'s batch blocks,
takes its domain, K, alpha and trap from `_call_args`.  On the plus side
the trap is the map's certified one around f's attracting cycle
(`HenonMap.trap`, computed on first use and cached on the map), handed
over when every bidisk lies in |x|, |y| < alpha for the call's alpha.  An
orbit that enters it is certified bounded, and NotInEscapeRegion then
names the trap step and radius; an orbit that neither escapes nor meets
the trap is refused by the 200-step cap, as on the minus side.  Which of
the two refuses changes no value: the kernel returns the plain loop's
status either way.

Green's functions: g+ = log|phi+| on the escape side, 0 on K+;
g- = log|phi-| on the escape side, log|a|/(d-1) on K-.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

from . import _kernel as kernel
from .dynamics import HenonMap, Point
from .errors import (
    CertificateViolation,
    CoordinateOverflow,
    NotInEscapeRegion,
    OnDegenerateCurve,
)

DEFAULT_TOL = 1e-12
GREEN_TOL = 1e-9  # green's truncation tolerance
DEFAULT_CAP = 200


@dataclass(frozen=True)
class EscapeValue:
    value: complex
    log_value: complex
    truncation_terms: int  # K, number of product factors
    tail_bound: float  # certified bound on |log error|
    depth: int  # iterates used to reach V+/V-
    smax: float  # largest |s_k| seen (< r, else CertificateViolation)


@dataclass(frozen=True)
class GreenValue:
    value: float
    # point in K+/K-: certified by the trap around the attracting cycle
    # (plus side), or classified by the iteration cap
    interior_flag: bool


@functools.lru_cache
def truncation_K(d: int, r: float, tol: float) -> int:
    """Factors needed so the geometric log-tail is below tol (0 < tol < inf).

    Memoised, like tail_bound: every kernel call asks for both."""
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    K = math.ceil(math.log(-math.log(1.0 - r) / ((1.0 - 1.0 / d) * tol), d))
    return max(K, 1)


@functools.lru_cache
def tail_bound(d: int, r: float, K: int) -> float:
    return -math.log(1.0 - r) / (d**K * (d - 1))


def _call_args(henon, side, tol, alpha):
    """(domain, K for `tol`, alpha or the domain's, kernel trap or None) of a
    kernel call on `side`; the map's trap on the plus side, if sound at alpha."""
    dp = henon.domain_params()
    K = truncation_K(henon.degree, dp.r, tol)
    alpha = dp.alpha if alpha is None else alpha
    trap = henon.trap if side == "plus" else None
    return dp, K, alpha, None if trap is None else trap.kernel_trap(alpha)


def evaluator(henon: HenonMap, side: str, tol: float, alpha: float | None, gradient: bool):
    """z -> EscapeValue on `side` to truncation tolerance `tol`, entering
    V+/V- past `alpha` (None: the domain's); with `gradient`, z ->
    (EscapeValue, gradient of log phi w.r.t. (x, y)), which refuses a
    non-finite gradient.  The kernel is looked up, and `_call_args` and the
    tail bound taken, here, once; each call is one kernel call, or the
    closed form at a = 0 on the minus side."""
    if side == "plus":
        evaluate, iterate, domain = kernel.phi_plus_eval, "forward", "V+"
    elif side == "minus":
        evaluate, iterate, domain = kernel.phi_minus_eval, "backward", "V-"
    else:
        raise ValueError(f"side must be 'plus' or 'minus', got {side!r}")
    dp, K, alpha, trap = _call_args(henon, side, tol, alpha)
    d, r, coeffs, a = henon.degree, dp.r, henon.p.coefficients, henon.a
    bound = tail_bound(d, r, K)
    # the kernel's arguments after the point
    rest = (K, alpha, DEFAULT_CAP, trap) if side == "plus" else (K, alpha, DEFAULT_CAP)
    closed_form = side == "minus" and a == 0

    def value(z):
        x, y = complex(z[0]), complex(z[1])
        if not (cmath.isfinite(x) and cmath.isfinite(y)):
            raise CoordinateOverflow(f"non-finite point ({x!r}, {y!r})", point=Point(x, y))
        if closed_form:
            v = henon.p(y) - x
            if v == 0:
                raise OnDegenerateCurve("a = 0 and p(y) = x")
            # g- reads the real part: math.log(abs(v)), which cmath.log differs from near |v| = 1
            logphi = complex(math.log(abs(v)), cmath.phase(v)) / d
            # no product: no factors, no tail, depth 0, smax 0
            ev = EscapeValue(cmath.exp(logphi), logphi, 0, 0.0, 0, 0.0)
            return ev, (-1.0 / (d * v), henon.p.derivative(y) / (d * v))
        status, depth, logphi, glx, gly, smax = evaluate(coeffs, a, x, y, *rest)
        if status == kernel.NO_ESCAPE:
            if depth < DEFAULT_CAP:
                raise NotInEscapeRegion(
                    f"{iterate} iterate {depth} entered the certified trap (radius "
                    f"{trap[2]:.3g}) around the attracting {henon.trap.period}-cycle, "
                    f"so no {iterate} iterate ever enters {domain}"
                )
            raise NotInEscapeRegion(
                f"no {iterate} iterate entered {domain} within {DEFAULT_CAP} steps"
            )
        if status == kernel.OVERFLOW:
            raise CoordinateOverflow(
                f"{iterate} iterate {depth} passed OVERFLOW_CAP^(1/d) before reaching {domain}",
                step=depth,
                point=Point(x, y),
            )
        if not smax < r:
            raise CertificateViolation(
                f"product factor |s| = {smax} >= r = {r} at {domain} entry depth {depth}",
                smax=smax,
                r=r,
                depth=depth,
            )
        if not cmath.isfinite(logphi):
            raise _non_finite(side, depth, smax, r)
        return EscapeValue(cmath.exp(logphi), logphi, K, bound, depth, smax), (glx, gly)

    if not gradient:
        return lambda z: value(z)[0]

    def with_gradient(z):
        ev, (gx, gy) = evaluation = value(z)
        if not (cmath.isfinite(gx) and cmath.isfinite(gy)):
            raise _non_finite(side, ev.depth, ev.smax, r)
        return evaluation

    return with_gradient


def phi_plus(henon: HenonMap, z: Point) -> EscapeValue:
    return evaluator(henon, "plus", DEFAULT_TOL, None, False)(z)


def phi_minus(henon: HenonMap, z: Point) -> EscapeValue:
    return evaluator(henon, "minus", DEFAULT_TOL, None, False)(z)


def phi_with_gradient(henon: HenonMap, z: Point, side: str):
    """(EscapeValue, gradient of log phi w.r.t. (x, y)), forward-mode exact;
    a non-finite gradient is refused with CertificateViolation."""
    return evaluator(henon, side, DEFAULT_TOL, None, True)(z)


def _non_finite(side, depth, smax, r):
    domain = "V+" if side == "plus" else "V-"
    message = f"non-finite log phi or gradient on the {side} side at {domain} entry depth {depth}"
    return CertificateViolation(message, smax=smax, r=r, depth=depth)


def green(henon: HenonMap, z: Point, side: str) -> GreenValue:
    """g+ or g- to GREEN_TOL, with interior_flag set for a point taken to be
    in K+/K-.

    On the plus side a point whose orbit enters the certified trap around
    the attracting cycle is certified interior.  Any other point whose orbit
    has not entered V+/V- within DEFAULT_CAP = 200 steps is classified
    interior by the cap.  At a = 0, g- = log|p(y) - x|/d from phi-'s closed
    form, and the collapse curve x = p(y) is interior with g- = -inf.
    """
    try:
        ev = evaluator(henon, side, GREEN_TOL, None, False)(z)
    except OnDegenerateCurve:
        return GreenValue(-math.inf, True)
    except NotInEscapeRegion:
        return GreenValue(_interior_green(henon, side), True)
    return GreenValue(ev.log_value.real, False)


def _interior_green(henon: HenonMap, side: str) -> float:
    """g+ or g- on K+/K- away from the collapse curve: 0, and log|a|/(d-1)."""
    return 0.0 if side == "plus" else math.log(abs(henon.a)) / (henon.degree - 1)
