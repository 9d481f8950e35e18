"""Exact truncated power series with sparse multivariate rational coefficients.

Two layers over one coefficient ring, all immutable by convention and exact
(integers throughout, so re-running a pipeline is bit-identical):

``MultiPoly``
    sparse polynomial over Q in a fixed tuple of named variables, stored in
    one packed integer form: a positive int denominator ``den`` and a dict
    from packed exponent keys to nonzero int numerators, in lowest terms
    (gcd(den, every numerator) = 1; zero is den = 1 with no terms).  A key
    holds the exponent of variable i in field i, bits [WIDTH i, WIDTH i +
    WIDTH), so adding two keys multiplies the monomials.  ``Fraction`` appears only at the boundary: the
    constructor from an exponent-tuple mapping, ``const``,
    ``constant_value``, ``evaluate``, the text form and the read-only
    ``terms`` view.

``TruncSeries``
    a formal power series in one named variable truncated at a fixed order
    N, with MultiPoly coefficients over one ring.  Arithmetic never exceeds
    the order.  Composition and reversion are not here: the exact pipeline
    needs neither, and the tests keep them as oracles.

There are no rational-function coefficients: a caller that needs to divide
by a polynomial clears the denominator first (see
``rigidity.check_partial_solution``).

Every exact product of MultiPolys -- a single ``MultiPoly * MultiPoly`` as
well as the Cauchy product of two series -- runs through one integer
kernel, ``_cauchy_product``, unless one operand has a single term (below).
The kernel works on the packed operands as stored (Kronecker
substitution; von zur Gathen & Gerhard, *Modern Computer Algebra*,
section 8.4).  It refuses with ``ExponentOverflow`` when an operand has an
exponent whose field's top bit is set, the one case in which the sum of two
keys could carry between fields (the guard-bit test of Monagan & Pearce,
"Polynomial division using dynamic arrays, heaps, and packed exponent
vectors", CASC 2007), then accumulates the pairwise int products into one
dict per output index and divides each output coefficient through by one
gcd.

``TruncSeries.inverse`` is Newton's iteration over whole-series products
at doubling precision (Brent & Kung, J. ACM 1978; von zur Gathen &
Gerhard, section 9.1), so a reciprocal costs 2 * order.bit_length() calls
of the kernel, at orders 1, 1, 3, 3, 7, 7, ... up to the truncation order,
not one per coefficient pair.

A ``MultiPoly`` product with a single-term operand skips the kernel: the
other operand's keys are shifted by the term's key and its numerators
scaled, under the same ExponentOverflow check.  ``MultiPoly.substitute``
maps a monomial the same way through values with at most one term
(renames, projections, rationals, zero, c x^k): its image key is
sum e_i key_i and its coefficient the product of (n_i/d_i)^e_i, with no
product at all; only a value with two or more terms is raised to its
powers and multiplied in.  An image exponent of 2^39 or more raises
ExponentOverflow with the kernel's message, never carrying into the next
field.

``TruncSeries.mul_weighted`` is the same kernel with weighted truncation:
at output index k it drops every pair whose exponent in one named
coefficient variable would exceed ``budget - k``.  Terms are bucketed by
that exponent field, so the dropped pairs are never visited.

The quotient-ring helper ``MultiPoly.reduce_cubic_root`` rewrites powers of
a chosen variable b modulo b^2+b+1 (so b^3 = 1, b^2 = -b-1), which keeps
root-of-unity vanishing arguments exact instead of floating.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from operator import or_
from typing import Iterator, Mapping, Sequence

from .errors import ExponentOverflow, NotUnitSeries, OrderMismatch

# Bits per packed exponent field, the same in every ring.  A product refuses
# an operand exponent of 2^39 or more (the field's top bit), far above the
# largest exponent of the rigidity pipeline (32); the property tests multiply
# exponents up to 4 (2^33 + 1).
WIDTH = 40
_FIELD = (1 << WIDTH) - 1
_TOP = 1 << (WIDTH - 1)  # an operand field below this cannot carry in a product


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected a rational scalar, got {type(value).__name__}")


def _pack(exps, ring) -> int:
    """The packed key of an exponent tuple over ring."""
    if len(exps) != len(ring):
        raise ValueError(f"exponent tuple {exps} does not fit ring {ring}")
    key = 0
    for name, e in zip(reversed(ring), reversed(exps)):
        if not 0 <= e <= _FIELD:
            raise ExponentOverflow(
                f"exponent {e} of {name!r} does not fit a {WIDTH}-bit field"
            )
        key = (key << WIDTH) | e
    return key


def _unpack(key: int, nvars: int) -> tuple:
    return tuple((key >> s) & _FIELD for s in range(0, WIDTH * nvars, WIDTH))


def _packed(vars: tuple, den: int, nums: dict) -> "MultiPoly":
    """The MultiPoly with these fields, which must already be canonical."""
    out = MultiPoly.__new__(MultiPoly)
    out.vars = vars
    out.den = den
    out._nums = nums
    return out


def _canonical(vars: tuple, den: int, nums: dict) -> "MultiPoly":
    """nums / den with every numerator nonzero, divided through by the gcd."""
    g = math.gcd(den, *nums.values()) if den != 1 else 1
    if g != 1:
        den //= g
        nums = {key: num // g for key, num in nums.items()}
    return _packed(vars, den, nums)


def _overflow(name: str) -> ExponentOverflow:
    return ExponentOverflow(
        f"a product operand has an exponent of {name!r} of at least {_TOP}, "
        f"so the product could overflow its {WIDTH}-bit field"
    )


def _check_fields(operands, ring) -> None:
    """Raise ExponentOverflow if some operand exponent has its field's top
    bit set, the one case in which adding two keys could carry."""
    bits = 0
    for p in operands:
        bits = reduce(or_, p._nums, bits)
    top = bits & (_TOP * ((1 << (WIDTH * len(ring))) - 1) // _FIELD)
    if top:
        raise _overflow(ring[(top.bit_length() - 1) // WIDTH])


def _check_image(key, singles, ring) -> None:
    """Raise ExponentOverflow if the image of the monomial key under the
    single-term values singles has an exponent of _TOP or more, summing
    each field exactly (a packed sum could carry into the next field).  A
    zero value kills the term, which then has no image."""
    sums = [0] * len(ring)
    for shift, value_key, num, _den in singles:
        e = (key >> shift) & _FIELD
        if e and not num:
            return
        for j, f in enumerate(_unpack(value_key, len(ring))):
            sums[j] += e * f
    for j in reversed(range(len(ring))):
        if sums[j] >= _TOP:
            raise _overflow(ring[j])


def _cauchy_product(left, right, ring, order, weight_at=None, budget=0):
    """Exact Cauchy product of two lists of MultiPolys over ring.

    left[i] and right[j] are the i-th and j-th coefficients of the two
    operands; the result lists the coefficients of output indices
    0..order.  When weight_at is given, a pair contributing to index k
    is dropped if its summed exponent at that position exceeds
    max(budget - k, 0).  Raises ExponentOverflow before multiplying if some
    operand exponent has its field's top bit set.
    """
    _check_fields((*left, *right), ring)
    shift = None if weight_at is None else WIDTH * weight_at
    cap = max(budget, 0)
    sides = []
    for side in (left, right):
        den = math.lcm(*(p.den for p in side))
        rows = []
        for p in side:
            scale = den // p.den
            if shift is None:
                items = p._nums.items()
                if scale != 1:
                    items = [(key, num * scale) for key, num in items]
                rows.append([items] if items else [])
                continue
            buckets = []
            for key, num in p._nums.items():
                w = (key >> shift) & _FIELD
                if w > cap:
                    continue
                while len(buckets) <= w:
                    buckets.append([])
                buckets[w].append((key, num * scale))
            rows.append(buckets)
        sides.append((den, rows))
    (den_l, rows_l), (den_r, rows_r) = sides
    den = den_l * den_r
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
        out.append(_canonical(ring, den, {key: num for key, num in acc.items() if num}))
    return out


def _shifted(poly, term) -> "MultiPoly":
    """poly * term for a single-term term: shift poly's keys by the term's key
    and scale its numerators, in poly's term order, as ``_cauchy_product``
    would (and with its ExponentOverflow check)."""
    _check_fields((poly, term), poly.vars)
    ((shift, n),) = term._nums.items()
    nums = {key + shift: num * n for key, num in poly._nums.items()}
    return _canonical(poly.vars, poly.den * term.den, nums)


class _Terms(Mapping):
    """Read-only view of a MultiPoly as {exponent tuple: Fraction}."""

    __slots__ = ("_poly",)

    def __init__(self, poly: "MultiPoly"):
        self._poly = poly

    def __len__(self) -> int:
        return len(self._poly._nums)

    def __iter__(self) -> Iterator[tuple]:
        n = len(self._poly.vars)
        return (_unpack(key, n) for key in self._poly._nums)

    def __getitem__(self, exps) -> Fraction:
        p = self._poly
        try:
            num = p._nums[_pack(exps, p.vars)]
        except (ExponentOverflow, TypeError, ValueError):
            raise KeyError(exps) from None
        return Fraction(num, p.den)


class MultiPoly:
    """Sparse exact polynomial over Q in a fixed ordered tuple of variables."""

    __slots__ = ("vars", "den", "_nums")

    def __init__(self, vars: Sequence[str], terms: Mapping[tuple, Fraction]):
        vars = tuple(vars)
        coeffs = {}
        for exps, coeff in terms.items():
            if not isinstance(coeff, (int, Fraction)):
                raise TypeError(f"expected a rational scalar, got {type(coeff).__name__}")
            key = _pack(exps, vars)
            if coeff:
                coeffs[key] = coeff
        # over the lcm of reduced denominators the numerators share no factor
        # with it, so this is already in lowest terms
        den = math.lcm(*(c.denominator for c in coeffs.values()))
        self.vars = vars
        self.den = den
        self._nums = {
            key: c.numerator * (den // c.denominator) for key, c in coeffs.items()
        }

    @property
    def terms(self) -> Mapping[tuple, Fraction]:
        """The terms as a read-only {exponent tuple: Fraction} mapping."""
        return _Terms(self)

    # ---- constructors

    @classmethod
    def zero(cls, vars: Sequence[str]) -> "MultiPoly":
        return _packed(tuple(vars), 1, {})

    @classmethod
    def const(cls, value, vars: Sequence[str]) -> "MultiPoly":
        value = _as_fraction(value)
        if not value:
            return cls.zero(vars)
        return _packed(tuple(vars), value.denominator, {0: value.numerator})

    @classmethod
    def variable(cls, name: str, vars: Sequence[str]) -> "MultiPoly":
        vars = tuple(vars)
        return _packed(vars, 1, {1 << (WIDTH * vars.index(name)): 1})

    # ---- predicates

    def is_zero(self) -> bool:
        return not self._nums

    def is_constant(self) -> bool:
        return not any(self._nums)

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial (raises if it is not one)."""
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return Fraction(self._nums.get(0, 0), self.den)

    def _field(self, name: str):
        """(shift, unit) of the exponent field of name."""
        shift = WIDTH * self.vars.index(name)
        return shift, 1 << shift

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        n = len(self.vars)
        return max((sum(_unpack(key, n)) for key in self._nums), default=-1)

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
        den = math.lcm(self.den, other.den)
        scale = den // self.den
        if scale == 1:
            nums = dict(self._nums)
        else:
            nums = {key: num * scale for key, num in self._nums.items()}
        scale = den // other.den
        get = nums.get
        for key, num in other._nums.items():
            acc = get(key, 0) + num * scale
            if acc:
                nums[key] = acc
            else:
                del nums[key]
        return _canonical(self.vars, den, nums)

    __radd__ = __add__

    def __neg__(self):
        return _packed(self.vars, self.den, {key: -num for key, num in self._nums.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(other, self.vars)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = _as_fraction(other)
            if not q:
                return MultiPoly.zero(self.vars)
            n = q.numerator
            nums = {key: num * n for key, num in self._nums.items()}
            return _canonical(self.vars, self.den * q.denominator, nums)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_ring(other)
        if len(other._nums) == 1:
            return _shifted(self, other)
        if len(self._nums) == 1:
            return _shifted(other, self)
        (product,) = _cauchy_product([self], [other], self.vars, 0)
        return product

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
        return (
            self.vars == other.vars and self.den == other.den and self._nums == other._nums
        )

    def __hash__(self):
        return hash((self.vars, self.den, frozenset(self._nums.items())))

    # ---- calculus / substitution

    def derivative(self, name: str) -> "MultiPoly":
        shift, unit = self._field(name)
        nums = {}
        for key, num in self._nums.items():
            e = (key >> shift) & _FIELD
            if e:
                nums[key - unit] = num * e
        return _canonical(self.vars, self.den, nums)

    def coeff_of(self, name: str, power: int) -> "MultiPoly":
        """The coefficient of name**power, as a polynomial with that variable
        exponent zeroed out (the ring is unchanged)."""
        shift, unit = self._field(name)
        drop = power * unit
        nums = {
            key - drop: num
            for key, num in self._nums.items()
            if (key >> shift) & _FIELD == power
        }
        return _canonical(self.vars, self.den, nums)

    def truncate_var(self, name: str, max_power: int) -> "MultiPoly":
        """Drop every term whose exponent in ``name`` exceeds ``max_power``."""
        shift, _ = self._field(name)
        nums = {
            key: num
            for key, num in self._nums.items()
            if (key >> shift) & _FIELD <= max_power
        }
        return _canonical(self.vars, self.den, nums)

    def max_power(self, name: str) -> int:
        shift, _ = self._field(name)
        return max(((key >> shift) & _FIELD for key in self._nums), default=0)

    def evaluate(self, values: Mapping[str, object]):
        """Plug numbers (Fraction, float, complex) in for every variable.

        A rational value top/bottom enters as top^e * bottom^(E - e), E its
        variable's highest degree, so at a rational point the terms are ints
        and the sum is divided once, by den times every bottom^E."""
        n = len(self.vars)
        highest = [self.max_power(name) for name in self.vars]
        top, bottom = [1] * n, [1] * n
        den = self.den
        for i, name in enumerate(self.vars):
            if highest[i]:
                value = values[name]
                top[i] = getattr(value, "numerator", value)
                bottom[i] = getattr(value, "denominator", 1)
                den *= bottom[i] ** highest[i]
        total = 0
        for key, num in self._nums.items():
            for i, e in enumerate(_unpack(key, n)):
                if highest[i]:
                    num = num * top[i] ** e * bottom[i] ** (highest[i] - e)
            total = total + num
        return total * Fraction(1, den)

    def substitute(self, mapping: Mapping[str, object], target_vars: Sequence[str]):
        """Map variables to values (rationals or MultiPolys over the target
        ring); unmapped variables are carried over by name and must exist in
        the target ring.

        A value with at most one term (a rename, a rational, zero, c x^k)
        maps a monomial by key arithmetic: the image key is the sum of
        e_i key_i and the coefficient the product of (n_i/d_i)^e_i, and a
        zero value kills the term.  Only a value with two or more terms is
        raised to its powers and multiplied in.  An image exponent of 2^39
        or more raises ExponentOverflow, as a product operand's would.  The
        terms are summed into one dict."""
        target_vars = tuple(target_vars)
        used = reduce(or_, self._nums, 0)
        singles = []  # (source shift, key, numerator, denominator) of each value
        multis = []  # (source shift, value) of each value with two or more terms
        bound = [0] * len(target_vars)  # field sums at the largest exponents
        for i, name in enumerate(self.vars):
            shift = WIDTH * i
            highest = (used >> shift) & _FIELD  # at least the largest exponent
            if not highest:
                continue
            if name in mapping:
                v = mapping[name]
                if not isinstance(v, MultiPoly):
                    v = MultiPoly.const(v, target_vars)
                elif v.vars != target_vars:
                    raise ValueError(f"value of {name!r} is not over {target_vars}")
            elif name in target_vars:
                v = MultiPoly.variable(name, target_vars)
            else:
                raise ValueError(
                    f"variable {name!r} is not mapped and not in the target ring"
                )
            if len(v._nums) > 1:
                multis.append((shift, v))
                continue
            key, num = next(iter(v._nums.items()), (0, 0))  # zero has numerator 0
            singles.append((shift, key, num, v.den))
            for j, f in enumerate(_unpack(key, len(target_vars))):
                bound[j] += highest * f
        exact = max(bound, default=0) >= _TOP  # some image field might reach _TOP
        powers: dict = {}
        images = []  # (numerator, denominator, key shift, multi-term factor) per term
        for key, num in self._nums.items():
            if exact:  # before any coefficient is raised to a huge power
                _check_image(key, singles, target_vars)
            mono, top, bottom = 0, num, 1
            for shift, value_key, n, d in singles:
                e = (key >> shift) & _FIELD
                if e:
                    mono += e * value_key
                    if n != 1:
                        top *= n**e
                    if d != 1:
                        bottom *= d**e
            if not top:
                continue
            factor = None
            for shift, v in multis:
                e = (key >> shift) & _FIELD
                if e:
                    pk = (shift, e)
                    if pk not in powers:
                        powers[pk] = v**e
                    factor = powers[pk] if factor is None else factor * powers[pk]
            if factor is not None:
                if mono:
                    factor = _shifted(factor, _packed(target_vars, 1, {mono: 1}))
                    mono = 0
                _check_fields((factor,), target_vars)
                bottom *= factor.den
            images.append((top, bottom, mono, factor))
        den = math.lcm(*(bottom for _, bottom, _, _ in images))
        total: dict = {}
        get = total.get
        for top, bottom, mono, factor in images:
            scale = top * (den // bottom)
            if factor is None:
                total[mono] = get(mono, 0) + scale
            else:
                for k, c in factor._nums.items():
                    total[k] = get(k, 0) + scale * c
        nums = {key: num for key, num in total.items() if num}
        return _canonical(target_vars, self.den * den, nums)

    def reduce_cubic_root(self, name: str) -> "MultiPoly":
        """Reduce modulo name^2 + name + 1 (so name^3 = 1)."""
        shift, unit = self._field(name)
        total: dict = {}
        get = total.get
        for key, num in self._nums.items():
            e = (key >> shift) & _FIELD
            base = key - e * unit
            r = e % 3
            # name^2 = -name - 1
            pieces = ((base + unit, -num), (base, -num)) if r == 2 else ((base + r * unit, num),)
            for mono, c in pieces:
                total[mono] = get(mono, 0) + c
        nums = {key: num for key, num in total.items() if num}
        return _canonical(self.vars, self.den, nums)

    # ---- canonical text form

    def _sorted_terms(self):
        n = len(self.vars)
        terms = [(_unpack(key, n), Fraction(num, self.den)) for key, num in self._nums.items()]
        return sorted(terms, key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    def __str__(self):
        if not self._nums:
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
        return self + (-other)

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
        coeffs = _cauchy_product(
            self.coeffs,
            other.coeffs,
            ring,
            self.order,
            None if name is None else ring.index(name),
            budget,
        )
        return TruncSeries(self.var, self.order, coeffs)

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return (
            self.var == other.var
            and self.order == other.order
            and self.coeffs == other.coeffs
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

        Newton's iteration g <- g - g (f g - 1) from g = 1/f(0) at doubling
        precision: g exact through order n - 1 becomes exact through 2n - 1,
        so round i runs at order min(2^(i+1), N + 1) - 1 on f truncated
        there and g extended by zeros, and order.bit_length() rounds reach
        the truncation order N."""
        c0 = self.coeffs[0]
        inv0 = _unit_inverse(c0)
        if inv0 is None:
            raise NotUnitSeries(f"constant term {c0!r} is not invertible")
        zero = self._zero_coeff()
        g = TruncSeries.from_poly(inv0, self.var, 0)
        while g.order < self.order:
            m = min(2 * g.order + 1, self.order)
            g = TruncSeries(self.var, m, g.coeffs + (zero,) * (m - g.order))
            g = g - g * (self.truncate(m) * g - 1)
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

    def derivative(self) -> "TruncSeries":
        zero = self._zero_coeff()
        out = [self.coeffs[k] * Fraction(k) for k in range(1, self.order + 1)]
        return TruncSeries(self.var, self.order, out + [zero])

    def map_coeffs(self, fn) -> "TruncSeries":
        return TruncSeries(self.var, self.order, [fn(c) for c in self.coeffs])

    def substitute_coeff_var(self, name: str, series: "TruncSeries") -> "TruncSeries":
        """Substitute a series for a coefficient-ring variable (Horner in the
        highest power of that variable that occurs).  Each coefficient is
        split into its layers c = sum_e name^e c_e in one pass over its
        terms."""
        self._check(series)
        splits = []  # per coefficient: {power: {key with that field zeroed: num}}
        for c in self.coeffs:
            shift, unit = c._field(name)
            split: dict = {}
            for key, num in c._nums.items():
                e = (key >> shift) & _FIELD
                split.setdefault(e, {})[key - e * unit] = num
            splits.append(split)
        m = max(max(split, default=0) for split in splits)
        layers = [
            TruncSeries(
                self.var,
                self.order,
                [
                    _canonical(c.vars, c.den, split.get(power, {}))
                    for c, split in zip(self.coeffs, splits)
                ],
            )
            for power in range(m + 1)
        ]
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
