"""Hénon maps f_a(x, y) = (p(x) - a·y, x), their inverses, and escape domains.

p is a monic polynomial of degree d >= 2, written p = x^d + q with
deg q < d.  The map has constant Jacobian a; for a != 0 the inverse is
f_a^{-1}(x, y) = (y, (p(y) - x)/a), and at a = 0 the plane collapses onto
the curve x = p(y).

The forward/backward escape domains are

    V+ = { |x| > |y|, |x| > alpha },    V- = { |y| > |x|, |y| > alpha },

with alpha chosen (domain_params) so that for all |y| >= alpha

    |q(y)/y^d| + (R+1)/|y|^{d-1} < r    and    |p(y)| > (2R+1)|y|,

at the fixed constants r = 1/2 and R = 1/8.  With those constants,
f_a(V+) ⊂ V+ with |x_1| > (R+1)|x| and f_a^{-1}(V-) ⊂ V- with
|y_{-1}| > 2|y| whenever |a| < R.  A HenonMap owns its domains: the first
`HenonMap.domain_params()` call checks |a| < R and caches them on the map.

The bounded side has a certificate too.  For hyperbolic p and small a, f
has an attracting cycle z_0 ... z_{q-1} near one of p, found by iterating f
from (c, c) for the critical points c of p (Hubbard & Oberste-Vorth, Publ.
IHES 79, 1994), taken from one pure-Python finder cached on the read-only p
(`Polynomial.critical_points`).  Run at a = 0, the same cycle search checks
the manifolds' standing hypothesis: every critical orbit of p settles on an
attracting cycle.  `attracting_trap` certifies bidisks

    B_i = { |x - x_i| < rho_i, |y - y_i| < sigma_i },   f(B_i) ⊂ B_{i+1},

from a Taylor bound on p with a margin that covers floating-point rounding,
so even a float orbit that enters some B_i stays in their union forever:
it is bounded and, when every B_i lies in |x|, |y| < alpha, never enters V+.
`HenonMap.trap` computes the trap on first use and caches it on the map.
"""

from __future__ import annotations

import cmath
import json
from dataclasses import dataclass
from functools import cached_property
from math import comb, prod
from typing import NamedTuple

from ._kernel import OVERFLOW_CAP, horner, horner_with_deriv
from .errors import DegenerateJacobian, NoAlphaFound

R_SMALL = 0.5  # r in (0, 1), the bound on every product factor |s_k|
R_BIG = 0.125  # R, the Jacobian radius


class Point(NamedTuple):
    x: complex
    y: complex


def _pair(value):
    if isinstance(value, complex):
        return [value.real, value.imag]
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def to_json(data, indent) -> str:
    """The package's one JSON writer: strict (NaN or an infinity, also inside
    a complex, raises ValueError), keys sorted, complex values as [re, im]
    and tuples as lists.  indent 2 for files, None for the one-line report."""
    return json.dumps(data, default=_pair, allow_nan=False, sort_keys=True, indent=indent)


class Polynomial:
    """Monic polynomial, finite coefficients lowest degree first.  Read-only,
    so the critical points cached on it stay its own."""

    def __init__(self, coefficients):
        coeffs = tuple(complex(c) for c in coefficients)
        if len(coeffs) < 3:
            raise ValueError("degree must be >= 2")
        if coeffs[-1] != 1:
            raise ValueError("polynomial must be monic (leading coefficient 1)")
        if not all(map(cmath.isfinite, coeffs)):
            raise ValueError(f"polynomial coefficients must be finite, got {coeffs}")
        self._coefficients = coeffs
        # coefficients of p' and p'', from the products i*c_i and i*(i-1)*c_i
        self._d1 = tuple(i * coeffs[i] for i in range(1, len(coeffs)))
        self._d2 = tuple(i * (i - 1) * coeffs[i] for i in range(2, len(coeffs)))

    @property
    def coefficients(self) -> tuple:
        return self._coefficients

    @property
    def degree(self) -> int:
        return len(self._coefficients) - 1

    def __call__(self, z: complex) -> complex:
        return horner(self._coefficients, z)

    def derivative(self, z: complex) -> complex:
        return horner(self._d1, z)

    def second_derivative(self, z: complex) -> complex:
        return horner(self._d2, z)

    def q_coefficients(self):
        """Coefficients of q = p - x^d (the non-leading part)."""
        return self._coefficients[:-1]

    def critical_points(self) -> tuple:
        """The roots of p', deduplicated to 1e-9, computed once per polynomial."""
        return self._critical_points

    @cached_property
    def _critical_points(self) -> tuple:
        # Durand-Kerner sweeps until no root moves, then Newton steps, on r = p'/(d x^m)
        d = self.degree
        m = next(i for i, c in enumerate(self._d1) if c != 0)  # 0 is an exact m-fold root
        monic = tuple(c / d for c in self._d1[m:])  # r, leading coefficient 1
        roots = [(0.4 + 0.9j) ** j for j in range(d - 1 - m)]
        for _ in range(CRITICAL_SWEEPS):
            moved = 0.0
            for j, z in enumerate(roots):
                den = prod(z - w for k, w in enumerate(roots) if k != j)
                if den != 0:
                    step = horner(monic, z) / den
                    roots[j] = z - step
                    moved = max(moved, abs(step) / (1.0 + abs(z)))
            if moved <= CRITICAL_STOP:
                break
        out: list[complex] = [0j] if m else []
        for z in roots:
            for _ in range(3):  # Newton steps on r polish each swept root
                value, slope = horner_with_deriv(monic, z)
                if slope:
                    z -= value / slope
            if all(abs(z - w) > 1e-9 for w in out):
                out.append(z)
        return tuple(out)

    def __repr__(self):
        return f"Polynomial({list(self._coefficients)!r})"


@dataclass(frozen=True)
class DomainParams:
    r: float
    R: float
    alpha: float
    degree: int


class HenonMap:
    """f_a for a Polynomial p.  Read-only, so the domain and trap cached on it
    stay its own; equality is identity."""

    def __init__(self, p: Polynomial, a: complex):
        self._p = p
        self._a = complex(a)
        self._domain = None

    @property
    def p(self) -> Polynomial:
        return self._p

    @property
    def a(self) -> complex:
        return self._a

    @property
    def degree(self) -> int:
        return self.p.degree

    def apply(self, z: Point) -> Point:
        return Point(self.p(z.x) - self.a * z.y, z.x)

    def apply_inverse(self, z: Point) -> Point:
        if self.a == 0:
            raise DegenerateJacobian("inverse undefined at a = 0")
        return Point(z.y, (self.p(z.y) - z.x) / self.a)

    def domain_params(self) -> DomainParams:
        """Escape domains for this map, computed once and cached on it.

        The invariance behind them needs |a| < R: ValueError otherwise, on
        every call."""
        if self._domain is None:
            if not abs(self.a) < R_BIG:
                raise ValueError(
                    f"need |a| < R = {R_BIG:g} for the escape domains, got |a| = {abs(self.a):g}"
                )
            self._domain = domain_params(self.p)
        return self._domain

    @cached_property
    def trap(self) -> CycleTrap | None:
        """The certified trap around the attracting cycle (attracting_trap),
        or None; computed on first use.  `green_grid` computes it in the
        caller before it forks its row workers, which inherit it."""
        return attracting_trap(self)

    def __repr__(self):
        return f"HenonMap({self.p!r}, a={self.a!r})"


def _sup_q(p: Polynomial, t: float) -> float:
    """sup over |y| = t of |q(y)|, bounded by the coefficient sum."""
    return sum(abs(c) * t**i for i, c in enumerate(p.q_coefficients()))


def _alpha_ok(p: Polynomial, r: float, R: float, t: float) -> bool:
    # Both displayed inequalities, in the sup form that is monotone in t:
    #   Q(t)/t^d + (R+1)/t^{d-1} < r
    #   t^d - Q(t) > (2R+1) t   (lower bound for |p(y)|)
    d = p.degree
    Q = _sup_q(p, t)
    if Q / t**d + (R + 1.0) / t ** (d - 1) >= r:
        return False
    return t**d - Q > (2.0 * R + 1.0) * t


def domain_params(p: Polynomial) -> DomainParams:
    """Smallest grid alpha satisfying both escape-domain inequalities at
    (r, R) = (R_SMALL, R_BIG), + 5%.

    Search: coarse doubling to bracket, then bisection (both criteria are
    monotone in t because every term is a negative power of t), then a 5%
    inflation so the inequalities hold strictly with margin.
    """
    r, R = R_SMALL, R_BIG
    hi = 1.0
    for _ in range(60):
        if _alpha_ok(p, r, R, hi):
            break
        hi *= 2.0
    else:
        raise NoAlphaFound(f"no alpha below {hi:g}")
    lo = hi / 2.0 if hi > 1.0 else 1e-6
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _alpha_ok(p, r, R, mid):
            hi = mid
        else:
            lo = mid
    return DomainParams(r=r, R=R, alpha=1.05 * hi, degree=p.degree)


# ---------------------------------------------------------------------------
# certified trap around the attracting cycle (plus side)

TRAP_MARGIN = 2.0**-20  # relative room in every trap inequality; see _trap_holds
CYCLE_STEPS = 1000  # iterates of f before looking for a cycle
MAX_PERIOD = 64
CYCLE_TOL = 1e-10  # |z_q - z_0| <= CYCLE_TOL * (1 + |x_0| + |y_0|) closes a cycle
CRITICAL_SWEEPS = 100  # at most this many Durand-Kerner sweeps for the roots of p'
CRITICAL_STOP = 1e-12  # sweeps stop once no root moves by more than this times 1 + |root|
RADIUS_LADDER = tuple(0.5 * 2.0 ** (-j / 4) for j in range(80))  # 0.5 down to ~5e-7


@dataclass(frozen=True)
class CycleTrap:
    """Bidisks B_i around an attracting cycle of f, certified f(B_i) ⊂ B_{i+1}.

    B_i = {|x - x_i| < rho[i], |y - y_i| < sigma[i]} with (x_i, y_i) =
    centres[i]; indices run mod the period.  B_0 has the largest rho.
    """

    centres: tuple
    rho: tuple
    sigma: tuple

    @property
    def period(self) -> int:
        return len(self.centres)

    @cached_property
    def reach(self) -> float:
        """Every B_i lies in |x|, |y| < reach = max_i max(|x_i| + rho_i, |y_i| + sigma_i)."""
        return max(
            max(abs(c.x) + r, abs(c.y) + s) for c, r, s in zip(self.centres, self.rho, self.sigma)
        )

    def kernel_trap(self, alpha: float):
        """(x_0, y_0, rho_0, sigma_0) for the kernel's entry loop, or None.

        The radii are B_0's shrunk by the margin, so a point the kernel's
        float test accepts lies in B_0 itself.  None when some B_i reaches
        |x| >= alpha, where it could meet V+ = {|x| > |y|, |x| > alpha}
        (|y| is held below alpha too, which keeps the kernel's overflow
        test quiet: `attracting_trap` admits reach < OVERFLOW_CAP^(1/d)).
        """
        keep = 1.0 - TRAP_MARGIN
        if not self.reach <= keep * alpha:
            return None
        x0, y0 = self.centres[0]
        return (x0, y0, keep * self.rho[0], keep * self.sigma[0])


def _attracting_cycle(henon: HenonMap, c: complex):
    """z_0 ... z_{q-1} of the cycle the orbit of (c, c) settles on, or None."""
    p, a = henon.p, henon.a
    bound = 2.0 * (1.0 + abs(a) + sum(abs(coef) for coef in p.coefficients))
    x, y = c, c
    for _ in range(CYCLE_STEPS):
        x, y = p(x) - a * y, x
        if not abs(x) < bound:  # escaping (or NaN): no bounded cycle
            return None
    orbit = [Point(x, y)]
    for _ in range(MAX_PERIOD):
        x, y = p(x) - a * y, x
        orbit.append(Point(x, y))
    x0, y0 = orbit[0]
    tol = CYCLE_TOL * (1.0 + abs(x0) + abs(y0))
    for q in range(1, MAX_PERIOD + 1):
        if abs(orbit[q].x - x0) + abs(orbit[q].y - y0) <= tol:
            return orbit[:q]
    return None


def _x_image_radius(henon: HenonMap, z: Point, nxt: Point, rho: float, sigma: float) -> float:
    """Sup of |f(w)_x - x_{i+1}| over w in B_i, plus the rounding of float steps.

    Taylor: sum_k |p^(k)(x_i)|/k! rho^k + |a| sigma + |p(x_i) - a y_i - x_{i+1}|.
    Each of the 2d + 2 complex operations of p(x) - a*y by Horner errs by
    at most 2*sqrt(2) units of 2**-53 of its operands' moduli (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., §3.6), so
    8(d + 1) units of S = sum_j |c_j| X^j + |a| Y, X = |x_i| + rho and
    Y = |y_i| + sigma, bound one step.  Three such bounds are added: the
    kernel's step, the computed residual, and the Taylor coefficients
    (sum_k rho^k sum_j C(j, k) |c_j| |x_i|^(j-k) = sum_j |c_j| X^j).
    """
    p, a, d = henon.p, henon.a, henon.degree
    c = p.coefficients
    taylor = sum(
        abs(horner(tuple(comb(j, k) * c[j] for j in range(k, d + 1)), z.x)) * rho**k
        for k in range(1, d + 1)
    )
    drift = abs(p(z.x) - a * z.y - nxt.x)
    X, Y = abs(z.x) + rho, abs(z.y) + sigma
    size = sum(abs(cj) * X**j for j, cj in enumerate(c)) + abs(a) * Y
    return taylor + abs(a) * sigma + drift + 3 * 8 * (d + 1) * 2.0**-53 * size


def _trap_holds(henon: HenonMap, centres, rho, sigma) -> bool:
    """The trap certificate: for every i, with m = TRAP_MARGIN,

        x:  sum_k |p^(k)(x_i)|/k! rho_i^k + |a| sigma_i + |p(x_i) - a y_i - x_{i+1}|
                + roundings <= (1 - m) rho_{i+1}
        y:  rho_i + |x_i - y_{i+1}| <= (1 - m) sigma_{i+1}

    so f maps B_i into B_{i+1} with room for the float step: the kernel's y
    step is exact, and its x step's rounding is in `_x_image_radius`.  m covers
    the rounding of these sums themselves (a few dozen operations on
    non-negative terms, each within 2**-53 relative).
    """
    keep = 1.0 - TRAP_MARGIN
    q = len(centres)
    for i, z in enumerate(centres):
        j = (i + 1) % q
        nxt = centres[j]
        if not _x_image_radius(henon, z, nxt, rho[i], sigma[i]) <= keep * rho[j]:
            return False
        if not rho[i] + abs(z.x - nxt.y) <= keep * sigma[j]:
            return False
    return True


def _trap_radii(henon: HenonMap, centres):
    """Largest rho_0 on RADIUS_LADDER whose forward-propagated radii close up.

    From (rho_0, sigma_0), each step around the cycle takes the smallest
    radii the two trap inequalities allow (with twice the margin); they
    close up when they come back no larger than they started.  sigma_0
    starts at rho_0 and is raised to the returning sigma_q up to three
    times: |a| sigma_i feeds rho_{i+1} only weakly.
    """
    q = len(centres)
    loose = 1.0 - 2.0 * TRAP_MARGIN  # propagate with twice the margin the check needs
    for rho0 in RADIUS_LADDER:
        sigma0 = rho0
        for _ in range(4):
            rho, sigma = [rho0], [sigma0]
            try:
                for i, z in enumerate(centres):
                    nxt = centres[(i + 1) % q]
                    rho.append(_x_image_radius(henon, z, nxt, rho[i], sigma[i]) / loose)
                    sigma.append((rho[i] + abs(z.x - nxt.y)) / loose)
            except OverflowError:  # rho_i**k left the floats: these radii cannot close
                break
            if rho[q] > rho0:
                break
            if sigma[q] <= sigma0:
                if _trap_holds(henon, centres, rho[:q], sigma[:q]):
                    return rho[:q], sigma[:q]
                break
            sigma0 = sigma[q]
    return None


def attracting_trap(henon: HenonMap):
    """A certified CycleTrap around an attracting cycle of f, or None.

    The cycle comes from iterating f from (c, c) for the critical points c
    of p; the first cycle whose radii certify wins.  None when no
    critical orbit settles within CYCLE_STEPS (e.g. a near-parabolic p) or
    no radii certify.
    """
    for c in henon.p.critical_points():
        centres = _attracting_cycle(henon, c)
        if centres is None:
            continue
        radii = _trap_radii(henon, centres)
        if radii is None:
            continue
        rho, sigma = radii
        i = max(range(len(rho)), key=rho.__getitem__)  # B_0: the widest bidisk
        trap = CycleTrap(
            centres=tuple(centres[i:] + centres[:i]),
            rho=tuple(rho[i:] + rho[:i]),
            sigma=tuple(sigma[i:] + sigma[:i]),
        )
        if trap.reach < OVERFLOW_CAP ** (1.0 / henon.degree):
            return trap
    return None
