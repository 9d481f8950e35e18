"""Exact truncated power series with sparse multivariate rational coefficients.

Two layers over one coefficient ring, all immutable by convention and exact
(``fractions.Fraction`` everywhere, so re-running a pipeline is
bit-identical):

``MultiPoly``
    sparse polynomial over Q in a fixed tuple of named variables; terms are
    a dict mapping exponent tuples to nonzero Fractions.

``TruncSeries``
    a formal power series in one named variable truncated at a fixed order
    N, with MultiPoly coefficients over one ring.  Arithmetic never exceeds
    the order.  Composition and reversion assume what they classically
    assume (zero inner constant term; invertible linear coefficient).

There are no rational-function coefficients: a caller that needs to divide
by a polynomial clears the denominator first (see
``rigidity.check_partial_solution``).

Every exact product of MultiPolys -- a single ``MultiPoly * MultiPoly`` as
well as the Cauchy product of two series -- runs through one integer
kernel, ``_cauchy_product`` (Kronecker substitution; von zur Gathen &
Gerhard, *Modern Computer Algebra*, section 8.4):

1. each operand's coefficient list is brought over one common denominator
   (the lcm of its Fraction denominators), so its terms carry plain int
   numerators;
2. each exponent tuple is packed into one int, with a field width taken
   from the two operands' largest exponents so that adding two packed keys
   multiplies the monomials without a carry between fields;
3. the pairwise products ``n1 * n2`` are accumulated as ints into one dict
   per output index of the Cauchy product;
4. a ``Fraction(num, den1 * den2)`` is built once per surviving term.

``TruncSeries.inverse`` is Newton's iteration over whole-series products
(von zur Gathen & Gerhard, section 9.1), so a reciprocal costs
2 * order.bit_length() calls of the kernel, not one per coefficient pair.

``TruncSeries.mul_weighted`` is the same kernel with weighted truncation:
at output index k it drops every pair whose exponent in one named
coefficient variable would exceed ``budget - k``.  Terms are bucketed by
that exponent, so the dropped pairs are never visited.

The quotient-ring helper ``MultiPoly.reduce_cubic_root`` rewrites powers of
a chosen variable b modulo b^2+b+1 (so b^3 = 1, b^2 = -b-1), which keeps
root-of-unity vanishing arguments exact instead of floating.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import (
    NonInvertibleLinearTerm,
    NonzeroConstantInner,
    NotUnitSeries,
    OrderMismatch,
)


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected a rational scalar, got {type(value).__name__}")


def _packed_rows(side, width, weight_at, budget):
    """One operand of ``_cauchy_product`` in packed integer form.

    Returns (den, rows): den is the lcm of every denominator in the operand,
    and rows[i][w] lists the (packed exponent key, int numerator over den)
    pairs of term dict side[i] whose exponent at position weight_at is w
    (all terms share bucket 0 when weight_at is None).  Terms with w above
    budget can never be kept and are left out.
    """
    den = math.lcm(*(c.denominator for terms in side for c in terms.values()))
    rows = []
    for terms in side:
        buckets = []
        for exps, coeff in terms.items():
            key = 0
            for e in reversed(exps):
                key = (key << width) | e
            w = 0 if weight_at is None else exps[weight_at]
            if w > budget:
                continue
            while len(buckets) <= w:
                buckets.append([])
            buckets[w].append((key, coeff.numerator * (den // coeff.denominator)))
        rows.append(buckets)
    return den, rows


def _cauchy_product(left, right, nvars, order, weight_at=None, budget=0):
    """Exact Cauchy product of two lists of MultiPoly term dicts.

    left[i] and right[j] are the term dicts of the i-th and j-th coefficients
    of two operands over one ring of nvars variables; the result lists the
    term dicts of output indices 0..order, with no zero terms.  When
    weight_at is given, a pair contributing to index k is dropped if its
    summed exponent at that position exceeds max(budget - k, 0).
    """
    top = 0
    if nvars:
        for side in (left, right):
            top += max((max(map(max, terms)) for terms in side if terms), default=0)
    width = max(top.bit_length(), 1)  # a field never exceeds top: no carry
    mask = (1 << width) - 1
    cap = max(budget, 0)
    den_l, rows_l = _packed_rows(left, width, weight_at, cap)
    den_r, rows_r = _packed_rows(right, width, weight_at, cap)
    den = den_l * den_r
    shifts = range(0, width * nvars, width)
    unpacked: dict = {}
    out = []
    for k in range(order + 1):
        limit = 0 if weight_at is None else max(budget - k, 0)
        acc: dict = {}
        get = acc.get
        for i in range(k + 1):
            buckets_l, buckets_r = rows_l[i], rows_r[k - i]
            if not buckets_l or not buckets_r:
                continue
            for wl in range(min(len(buckets_l), limit + 1)):
                pairs_l = buckets_l[wl]
                for wr in range(min(len(buckets_r), limit - wl + 1)):
                    pairs_r = buckets_r[wr]
                    for kl, nl in pairs_l:
                        for kr, nr in pairs_r:
                            key = kl + kr
                            acc[key] = get(key, 0) + nl * nr
        terms = {}
        for key, num in acc.items():
            if num:
                exps = unpacked.get(key)
                if exps is None:
                    exps = unpacked[key] = tuple((key >> s) & mask for s in shifts)
                terms[exps] = Fraction(num, den)
        out.append(terms)
    return out


class MultiPoly:
    """Sparse exact polynomial over Q in a fixed ordered tuple of variables."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars: Sequence[str], terms: Mapping[tuple, Fraction]):
        self.vars = tuple(vars)
        n = len(self.vars)
        clean = {}
        for exps, coeff in terms.items():
            coeff = _as_fraction(coeff)
            if len(exps) != n:
                raise ValueError(f"exponent tuple {exps} does not fit ring {self.vars}")
            if coeff:
                clean[tuple(exps)] = coeff
        self.terms = clean

    # ---- constructors

    @classmethod
    def zero(cls, vars: Sequence[str]) -> "MultiPoly":
        return cls(vars, {})

    @classmethod
    def const(cls, value, vars: Sequence[str]) -> "MultiPoly":
        value = _as_fraction(value)
        if not value:
            return cls.zero(vars)
        return cls(vars, {(0,) * len(tuple(vars)): value})

    @classmethod
    def variable(cls, name: str, vars: Sequence[str]) -> "MultiPoly":
        vars = tuple(vars)
        exps = [0] * len(vars)
        exps[vars.index(name)] = 1
        return cls(vars, {tuple(exps): Fraction(1)})

    # ---- predicates

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial (raises if it is not one)."""
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return next(iter(self.terms.values()), Fraction(0))

    def uses(self, name: str) -> bool:
        i = self.vars.index(name)
        return any(e[i] for e in self.terms)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    # ---- ring arithmetic

    def _check_ring(self, other: "MultiPoly") -> None:
        if self.vars != other.vars:
            raise ValueError(f"ring mismatch: {self.vars} vs {other.vars}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(other, self.vars)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_ring(other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            acc = terms.get(exps, Fraction(0)) + coeff
            if acc:
                terms[exps] = acc
            else:
                terms.pop(exps, None)
        out = MultiPoly.__new__(MultiPoly)
        out.vars = self.vars
        out.terms = terms
        return out

    __radd__ = __add__

    def __neg__(self):
        out = MultiPoly.__new__(MultiPoly)
        out.vars = self.vars
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(other, self.vars)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = _as_fraction(other)
            out = MultiPoly.__new__(MultiPoly)
            out.vars = self.vars
            out.terms = {e: c * q for e, c in self.terms.items()} if q else {}
            return out
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_ring(other)
        (terms,) = _cauchy_product([self.terms], [other.terms], len(self.vars), 0)
        out = MultiPoly.__new__(MultiPoly)
        out.vars = self.vars
        out.terms = terms
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = MultiPoly.const(Fraction(1), self.vars)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(other, self.vars)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    # ---- calculus / substitution

    def derivative(self, name: str) -> "MultiPoly":
        i = self.vars.index(name)
        terms = {}
        for exps, coeff in self.terms.items():
            e = exps[i]
            if e:
                key = exps[:i] + (e - 1,) + exps[i + 1:]
                terms[key] = terms.get(key, Fraction(0)) + coeff * e
        return MultiPoly(self.vars, terms)

    def coeff_of(self, name: str, power: int) -> "MultiPoly":
        """The coefficient of name**power, as a polynomial with that variable
        exponent zeroed out (the ring is unchanged)."""
        i = self.vars.index(name)
        terms = {}
        for exps, coeff in self.terms.items():
            if exps[i] == power:
                terms[exps[:i] + (0,) + exps[i + 1:]] = coeff
        return MultiPoly(self.vars, terms)

    def truncate_var(self, name: str, max_power: int) -> "MultiPoly":
        """Drop every term whose exponent in ``name`` exceeds ``max_power``."""
        i = self.vars.index(name)
        out = MultiPoly.__new__(MultiPoly)
        out.vars = self.vars
        out.terms = {e: c for e, c in self.terms.items() if e[i] <= max_power}
        return out

    def max_power(self, name: str) -> int:
        i = self.vars.index(name)
        return max((e[i] for e in self.terms), default=0)

    def evaluate(self, values: Mapping[str, object]):
        """Plug numbers (Fraction, float, complex) in for every variable."""
        total = None
        for exps, coeff in self.terms.items():
            term = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
            acc = term
            for name, e in zip(self.vars, exps):
                if e:
                    acc = acc * values[name] ** e
            total = acc if total is None else total + acc
        if total is None:
            return Fraction(0)
        return total

    def substitute(self, mapping: Mapping[str, object], target_vars: Sequence[str]):
        """Map variables to values (rationals or MultiPolys over the target
        ring); unmapped variables are carried over by name and must exist in
        the target ring.  The terms are summed into one dict."""
        target_vars = tuple(target_vars)
        values = {}
        for name in self.vars:
            if not self.uses(name):
                continue
            if name in mapping:
                v = mapping[name]
                if not isinstance(v, MultiPoly):
                    v = MultiPoly.const(v, target_vars)
                elif v.vars != target_vars:
                    raise ValueError(f"value of {name!r} is not over {target_vars}")
                values[name] = v
            else:
                if name not in target_vars:
                    raise ValueError(
                        f"variable {name!r} is not mapped and not in the target ring"
                    )
                values[name] = MultiPoly.variable(name, target_vars)
        unit = (((0,) * len(target_vars), Fraction(1)),)
        total: dict = {}
        get = total.get
        powers: dict = {}
        for exps, coeff in self.terms.items():
            acc = None
            for name, e in zip(self.vars, exps):
                if e:
                    key = (name, e)
                    if key not in powers:
                        powers[key] = values[name] ** e
                    acc = powers[key] if acc is None else acc * powers[key]
            for mono, c in unit if acc is None else acc.terms.items():
                total[mono] = get(mono, 0) + coeff * c
        return MultiPoly(target_vars, total)

    def reduce_cubic_root(self, name: str) -> "MultiPoly":
        """Reduce modulo name^2 + name + 1 (so name^3 = 1)."""
        i = self.vars.index(name)
        terms: dict = {}
        for exps, coeff in self.terms.items():
            r = exps[i] % 3
            # name^2 = -name - 1
            pieces = ((1, -coeff), (0, -coeff)) if r == 2 else ((r, coeff),)
            for power, c in pieces:
                key = exps[:i] + (power,) + exps[i + 1:]
                terms[key] = terms.get(key, Fraction(0)) + c
        return MultiPoly(self.vars, terms)

    # ---- canonical text form

    def _sorted_terms(self):
        return sorted(
            self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True
        )

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for exps, coeff in self._sorted_terms():
            mono = "*".join(
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(self.vars, exps)
                if e
            )
            mag = abs(coeff)
            if mono and mag == 1:
                body = mono
            elif mono:
                body = f"{mag}*{mono}"
            else:
                body = str(mag)
            if not pieces:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self):
        return f"MultiPoly({self})"


def _coeff_zero(sample):
    return sample * 0


def _unit_inverse(coeff):
    """1/coeff for a nonzero constant coefficient, else None."""
    if coeff.is_zero() or not coeff.is_constant():
        return None
    return MultiPoly.const(1 / coeff.constant_value(), coeff.vars)


def _poly_ring(coeffs) -> tuple:
    """The common ring of a coefficient list (ValueError if they differ)."""
    ring = coeffs[0].vars
    for c in coeffs:
        if c.vars != ring:
            raise ValueError(f"ring mismatch: {ring} vs {c.vars}")
    return ring


class TruncSeries:
    """Power series in one named variable, truncated at a fixed order."""

    __slots__ = ("var", "order", "coeffs")

    def __init__(self, var: str, order: int, coeffs: Sequence):
        if order < 0:
            raise ValueError("order must be nonnegative")
        coeffs = list(coeffs)
        if len(coeffs) != order + 1:
            raise ValueError(f"need {order + 1} coefficients, got {len(coeffs)}")
        self.var = var
        self.order = order
        self.coeffs = tuple(coeffs)

    # ---- constructors

    @classmethod
    def from_poly(cls, p, var: str, order: int) -> "TruncSeries":
        """The constant series with coefficient p."""
        zero = _coeff_zero(p)
        return cls(var, order, [p] + [zero] * order)

    @classmethod
    def monomial(cls, p, power: int, var: str, order: int) -> "TruncSeries":
        """p * var**power (the zero series if power exceeds the order)."""
        zero = _coeff_zero(p)
        coeffs = [zero] * (order + 1)
        if power <= order:
            coeffs[power] = p
        return cls(var, order, coeffs)

    # ---- predicates / access

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def _zero_coeff(self):
        return _coeff_zero(self.coeffs[0])

    def _check(self, other: "TruncSeries") -> None:
        if self.var != other.var or self.order != other.order:
            raise OrderMismatch(
                f"series mismatch: {self.var!r}/N={self.order} vs "
                f"{other.var!r}/N={other.order}"
            )

    # ---- arithmetic

    def __add__(self, other):
        if isinstance(other, TruncSeries):
            self._check(other)
            return TruncSeries(
                self.var, self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)]
            )
        # scalar / polynomial shift of the constant term
        coeffs = list(self.coeffs)
        coeffs[0] = coeffs[0] + other
        return TruncSeries(self.var, self.order, coeffs)

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries(self.var, self.order, [-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, TruncSeries):
            self._check(other)
            return TruncSeries(
                self.var, self.order, [a - b for a, b in zip(self.coeffs, other.coeffs)]
            )
        coeffs = list(self.coeffs)
        coeffs[0] = coeffs[0] - other
        return TruncSeries(self.var, self.order, coeffs)

    def __mul__(self, other):
        if not isinstance(other, TruncSeries):
            # scalar or coefficient-ring multiplier
            return TruncSeries(self.var, self.order, [c * other for c in self.coeffs])
        return self._product(other, None, 0)

    __rmul__ = __mul__

    def mul_weighted(self, other, name: str, budget: int) -> "TruncSeries":
        """The product with weighted truncation: the coefficient of var^k keeps
        only terms of ``name``-degree at most max(budget - k, 0).  Equal to
        truncating the full product that way, without forming the dropped
        terms.  A MultiPoly ``other`` is taken as a constant series."""
        if not isinstance(other, TruncSeries):
            other = TruncSeries.from_poly(other, self.var, self.order)
        return self._product(other, name, budget)

    def _product(self, other, name, budget) -> "TruncSeries":
        self._check(other)
        ring = _poly_ring(self.coeffs + other.coeffs)
        terms = _cauchy_product(
            [c.terms for c in self.coeffs],
            [c.terms for c in other.coeffs],
            len(ring),
            self.order,
            None if name is None else ring.index(name),
            budget,
        )
        coeffs = []
        for t in terms:
            c = MultiPoly.__new__(MultiPoly)
            c.vars = ring
            c.terms = t
            coeffs.append(c)
        return TruncSeries(self.var, self.order, coeffs)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("use inverse() and a positive power")
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        if result is None:
            one = self._zero_coeff() + Fraction(1)
            return TruncSeries.from_poly(one, self.var, self.order)
        return result

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return (
            self.var == other.var
            and self.order == other.order
            and all((a - b).is_zero() for a, b in zip(self.coeffs, other.coeffs))
        )

    # ---- series operations

    def shift_up(self) -> "TruncSeries":
        """Multiply by the series variable (the top coefficient falls off)."""
        return TruncSeries(
            self.var, self.order, [self._zero_coeff()] + list(self.coeffs[:-1])
        )

    def shift_down(self, k: int) -> "TruncSeries":
        """Divide by var**k; the low-order coefficients must vanish.  The top
        k coefficients of the result are unknown and set to zero, so the
        caller must carry enough guard order."""
        for j in range(k):
            if not self.coeffs[j].is_zero():
                raise ValueError(
                    f"cannot divide by {self.var}^{k}: coefficient {j} is nonzero"
                )
        zero = self._zero_coeff()
        return TruncSeries(
            self.var, self.order, list(self.coeffs[k:]) + [zero] * k
        )

    def truncate(self, order: int) -> "TruncSeries":
        if order > self.order:
            raise OrderMismatch(f"cannot extend order {self.order} to {order}")
        return TruncSeries(self.var, order, self.coeffs[: order + 1])

    def inverse(self) -> "TruncSeries":
        """Reciprocal series; the constant term must be a nonzero rational.

        Newton's iteration g <- g - g (f g - 1) from g = 1/f(0): each round
        doubles the number of correct coefficients, so order.bit_length()
        rounds reach the truncation order."""
        c0 = self.coeffs[0]
        inv0 = _unit_inverse(c0)
        if inv0 is None:
            raise NotUnitSeries(f"constant term {c0!r} is not invertible")
        g = TruncSeries.from_poly(inv0, self.var, self.order)
        for _ in range(self.order.bit_length()):
            g = g - g * (self * g - 1)
        return g

    def pow_rational(self, exponent: Fraction) -> "TruncSeries":
        """(1 + t)^exponent by the binomial series; the constant term must be 1."""
        exponent = _as_fraction(exponent)
        one = self._zero_coeff() + Fraction(1)
        if not (self.coeffs[0] - one).is_zero():
            raise NotUnitSeries("pow_rational needs constant term 1")
        t = self - one
        result = TruncSeries.from_poly(one, self.var, self.order)
        power = result
        binom = Fraction(1)
        for k in range(1, self.order + 1):
            power = power * t
            if power.is_zero():
                break
            binom = binom * (exponent - (k - 1)) / k
            result = result + power * binom
        return result

    def compose(self, inner: "TruncSeries") -> "TruncSeries":
        """self(inner); the inner series must have zero constant term.  The
        result is a series in the inner variable (the outer variable name may
        differ), at the common truncation order."""
        if self.order != inner.order:
            raise OrderMismatch(
                f"compose order mismatch: {self.order} vs {inner.order}"
            )
        if not inner.coeffs[0].is_zero():
            raise NonzeroConstantInner("inner series has a nonzero constant term")
        result = TruncSeries.from_poly(self.coeffs[-1], inner.var, inner.order)
        for k in range(self.order - 1, -1, -1):
            result = result * inner + self.coeffs[k]
        return result

    def reverse(self) -> "TruncSeries":
        """Compositional inverse through the truncation order."""
        if not self.coeffs[0].is_zero():
            raise NonInvertibleLinearTerm("reversion needs zero constant term")
        c1 = self.coeffs[1] if self.order >= 1 else self._zero_coeff()
        inv1 = _unit_inverse(c1)
        if inv1 is None:
            raise NonInvertibleLinearTerm(
                f"linear coefficient {c1!r} is not invertible"
            )
        ident = TruncSeries.monomial(
            self._zero_coeff() + Fraction(1), 1, self.var, self.order
        )
        # fixed point g <- g - (f(g) - z) / f1; each pass gains one order
        g = ident * inv1
        for _ in range(self.order):
            err = self.compose(g) - ident
            if err.is_zero():
                break
            g = g - err * inv1
        return g

    def derivative(self) -> "TruncSeries":
        zero = self._zero_coeff()
        out = [self.coeffs[k] * Fraction(k) for k in range(1, self.order + 1)]
        return TruncSeries(self.var, self.order, out + [zero])

    def integrate(self) -> "TruncSeries":
        out = [self._zero_coeff()]
        for k in range(self.order):
            out.append(self.coeffs[k] * Fraction(1, k + 1))
        return TruncSeries(self.var, self.order, out)

    def map_coeffs(self, fn) -> "TruncSeries":
        return TruncSeries(self.var, self.order, [fn(c) for c in self.coeffs])

    def substitute_coeff_var(self, name: str, series: "TruncSeries") -> "TruncSeries":
        """Substitute a series for a coefficient-ring variable (Horner in the
        highest power of that variable that occurs)."""
        self._check(series)
        m = max(c.max_power(name) for c in self.coeffs)
        layers = []
        for power in range(m + 1):
            layers.append(
                TruncSeries(
                    self.var, self.order, [c.coeff_of(name, power) for c in self.coeffs]
                )
            )
        result = layers[m]
        for power in range(m - 1, -1, -1):
            result = result * series + layers[power]
        return result

    def evaluate(self, point, values: Mapping[str, object]):
        """Numeric value at var=point with coefficient variables bound."""
        total = None
        for k in range(self.order, -1, -1):
            c = self.coeffs[k].evaluate(values)
            total = c if total is None else total * point + c
        return total

    def __str__(self):
        pieces = []
        for k, c in enumerate(self.coeffs):
            if not c.is_zero():
                pieces.append(f"({c})*{self.var}^{k}")
        return " + ".join(pieces) if pieces else "0"

    def __repr__(self):
        return f"TruncSeries[{self.var}; N={self.order}]({self})"
