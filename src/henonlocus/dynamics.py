"""Hénon maps f_a(x, y) = (p(x) - a·y, x), their inverses, and escape domains.

p is a monic polynomial of degree d >= 2, written p = x^d + q with
deg q < d.  The map has constant Jacobian a; for a != 0 the inverse is
f_a^{-1}(x, y) = (y, (p(y) - x)/a), and at a = 0 the plane collapses onto
the curve x = p(y).

The forward/backward escape domains are

    V+ = { |x| > |y|, |x| > alpha },    V- = { |y| > |x|, |y| > alpha },

with alpha chosen (domain_params) so that for all |y| >= alpha

    |q(y)/y^d| + (R+1)/|y|^{d-1} < r    and    |p(y)| > (2R+1)|y|.

With those constants, f_a(V+) ⊂ V+ with |x_1| > (R+1)|x| and
f_a^{-1}(V-) ⊂ V- with |y_{-1}| > 2|y| whenever |a| < R.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from ._kernel import horner
from .errors import DegenerateJacobian, NoAlphaFound

DEFAULT_R_SMALL = 0.5  # r in (0, 1)
DEFAULT_R_BIG = 0.125  # R, the Jacobian radius


class Point(NamedTuple):
    x: complex
    y: complex


class Polynomial:
    """Monic polynomial, coefficients lowest degree first."""

    def __init__(self, coefficients):
        coeffs = tuple(complex(c) for c in coefficients)
        if len(coeffs) < 3:
            raise ValueError("degree must be >= 2")
        if coeffs[-1] != 1:
            raise ValueError("polynomial must be monic (leading coefficient 1)")
        self.coefficients = coeffs
        self.degree = len(coeffs) - 1
        # coefficients of p' and p'', from the products i*c_i and i*(i-1)*c_i
        self._d1 = tuple(i * coeffs[i] for i in range(1, len(coeffs)))
        self._d2 = tuple(i * (i - 1) * coeffs[i] for i in range(2, len(coeffs)))

    def __call__(self, z: complex) -> complex:
        return horner(self.coefficients, z)

    def derivative(self, z: complex) -> complex:
        return horner(self._d1, z)

    def second_derivative(self, z: complex) -> complex:
        return horner(self._d2, z)

    def q_coefficients(self):
        """Coefficients of q = p - x^d (the non-leading part)."""
        return self.coefficients[:-1]

    def critical_points(self):
        """Roots of p' (numpy companion-matrix roots, deduplicated to 1e-9)."""
        import numpy as np

        roots = np.roots(list(reversed(self._d1)))
        out: list[complex] = []
        for rt in roots:
            z = complex(rt)
            if all(abs(z - w) > 1e-9 for w in out):
                out.append(z)
        return out

    def __repr__(self):
        return f"Polynomial({list(self.coefficients)!r})"


@dataclass(frozen=True)
class DomainParams:
    r: float
    R: float
    alpha: float
    degree: int

    @property
    def B(self) -> float:
        """Distortion bound: B^-1 < |phi+/x| < B on V+ (same for phi-/y)."""
        return bound_B(self.r, self.degree)


def bound_B(r: float, d: int) -> float:
    # The product tail is bounded by -log(1-r)/(d-1), so the distortion
    # constant is exp of that.
    return (1.0 - r) ** (-1.0 / (d - 1))


class HenonMap:
    def __init__(self, p: Polynomial, a: complex):
        self.p = p
        self.a = complex(a)

    @property
    def degree(self) -> int:
        return self.p.degree

    def apply(self, z: Point) -> Point:
        return Point(self.p(z.x) - self.a * z.y, z.x)

    def apply_inverse(self, z: Point) -> Point:
        if self.a == 0:
            raise DegenerateJacobian("inverse undefined at a = 0")
        return Point(z.y, (self.p(z.y) - z.x) / self.a)

    def bound_B(self, r: float = DEFAULT_R_SMALL) -> float:
        return bound_B(r, self.degree)

    def domain_params(
        self, r: float = DEFAULT_R_SMALL, R: float = DEFAULT_R_BIG
    ) -> DomainParams:
        """Escape domains for this map; the invariance behind them needs |a| < R."""
        require_jacobian_below(self.a, R)
        return domain_params(self.p, r, R)

    def __repr__(self):
        return f"HenonMap({self.p!r}, a={self.a!r})"


def require_jacobian_below(a: complex, R: float) -> None:
    """ValueError unless |a| < R, which the escape-domain invariance needs."""
    if not abs(a) < R:
        raise ValueError(f"need |a| < R = {R:g} for the escape domains, got |a| = {abs(a):g}")


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


def domain_params(
    p: Polynomial, r: float = DEFAULT_R_SMALL, R: float = DEFAULT_R_BIG
) -> DomainParams:
    """Smallest grid alpha satisfying both escape-domain inequalities, + 5%.

    Search: coarse doubling to bracket, then bisection (both criteria are
    monotone in t because every term is a negative power of t), then a 5%
    inflation so the inequalities hold strictly with margin.
    """
    if not (0.0 < r < 1.0 and R > 0.0):
        raise ValueError("need 0 < r < 1 and R > 0")
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


def in_v_plus(z: Point, dp: DomainParams) -> bool:
    return abs(z[0]) > abs(z[1]) and abs(z[0]) > dp.alpha


def in_v_minus(z: Point, dp: DomainParams) -> bool:
    return abs(z[1]) > abs(z[0]) and abs(z[1]) > dp.alpha
