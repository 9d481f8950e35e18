"""Composition, reversion and integration of truncated series: test oracles.

The exact pipeline needs none of them (sigma is solved triangularly from
sigma(chi_plus) = chi_minus), so they live beside the tests that check the
series engine and sigma against them, with the errors only they raise.
"""

from fractions import Fraction

from henonlocus.errors import HenonLocusError, OrderMismatch
from henonlocus.series import TruncSeries, _unit_inverse


class NonzeroConstantInner(HenonLocusError):
    """Series composition with an inner series of nonzero constant term."""


class NonInvertibleLinearTerm(HenonLocusError):
    """Series reversion needs an invertible linear coefficient."""


def compose(outer: TruncSeries, inner: TruncSeries) -> TruncSeries:
    """outer(inner) by Horner; the inner series must have zero constant term.
    The result is a series in the inner variable (the outer variable name
    may differ), at the common truncation order."""
    if outer.order != inner.order:
        raise OrderMismatch(f"compose order mismatch: {outer.order} vs {inner.order}")
    if not inner.coeffs[0].is_zero():
        raise NonzeroConstantInner("inner series has a nonzero constant term")
    result = TruncSeries.from_poly(outer.coeffs[-1], inner.var, inner.order)
    for k in range(outer.order - 1, -1, -1):
        result = result * inner + outer.coeffs[k]
    return result


def reverse(f: TruncSeries) -> TruncSeries:
    """Compositional inverse through the truncation order."""
    zero = f._zero_coeff()
    if not f.coeffs[0].is_zero():
        raise NonInvertibleLinearTerm("reversion needs zero constant term")
    c1 = f.coeffs[1] if f.order >= 1 else zero
    inv1 = _unit_inverse(c1)
    if inv1 is None:
        raise NonInvertibleLinearTerm(f"linear coefficient {c1!r} is not invertible")
    ident = TruncSeries.monomial(zero + Fraction(1), 1, f.var, f.order)
    # fixed point g <- g - (f(g) - z) / f1; each pass gains one order
    g = ident * inv1
    for _ in range(f.order):
        err = compose(f, g) - ident
        if err.is_zero():
            break
        g = g - err * inv1
    return g


def integrate(s: TruncSeries) -> TruncSeries:
    """The antiderivative with zero constant term, at the same order."""
    out = [s._zero_coeff()]
    for k in range(s.order):
        out.append(s.coeffs[k] * Fraction(1, k + 1))
    return TruncSeries(s.var, s.order, out)
