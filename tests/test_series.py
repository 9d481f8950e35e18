"""Exact truncated-series engine: arithmetic, binomial powers, and reversion
through the test oracles in series_oracles.py.

Expected coefficients below were worked out by hand (binomial series,
Lagrange inversion of z+z^2) before the engine existed, so they are
independent of the implementation.
"""

import math
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import henonlocus
from henonlocus.errors import ExponentOverflow, NotUnitSeries, OrderMismatch
from henonlocus.rigidity import _trim
from henonlocus import series
from henonlocus.series import MultiPoly, TruncSeries
from series_oracles import (
    NonInvertibleLinearTerm,
    NonzeroConstantInner,
    compose,
    integrate,
    reverse,
)

AC = ("a", "c")


def P(vars_, terms):
    return MultiPoly(vars_, {tuple(k): F(v) for k, v in terms.items()})


def const_series(var, order, values):
    """Series with rational constant coefficients over the ring ("a","c")."""
    zero = MultiPoly.zero(AC)
    coeffs = [MultiPoly.const(F(v), AC) for v in values]
    coeffs += [zero] * (order + 1 - len(coeffs))
    return TruncSeries(var, order, coeffs)


# ---------------------------------------------------------------- MultiPoly


def test_multipoly_arithmetic_and_canonical_string():
    a = MultiPoly.variable("a", AC)
    c = MultiPoly.variable("c", AC)
    p = (a + c) * (a - c)
    assert p == a * a - c * c
    assert str(p) == "a^2 - c^2"
    q = a * a * c * F(1, 2) - a + MultiPoly.const(F(3), AC)
    assert str(q) == "1/2*a^2*c - a + 3"
    assert str(MultiPoly.zero(AC)) == "0"
    # no zero terms are ever stored
    assert not (p - p).terms


def test_multipoly_pow_and_degree():
    a = MultiPoly.variable("a", AC)
    c = MultiPoly.variable("c", AC)
    p = (a + c) ** 3
    assert p.degree() == 3
    assert p == a**3 + a * a * c * 3 + a * c * c * 3 + c**3


def test_multipoly_derivative():
    a = MultiPoly.variable("a", AC)
    c = MultiPoly.variable("c", AC)
    p = a**3 * c + a * c * F(1, 2)
    assert p.derivative("a") == a * a * c * 3 + c * F(1, 2)
    assert p.derivative("c") == a**3 + a * F(1, 2)


def test_multipoly_substitute_and_evaluate():
    a = MultiPoly.variable("a", AC)
    c = MultiPoly.variable("c", AC)
    p = a * a - c
    # rename into a bigger ring
    big = ("a1", "c1", "beta")
    q = p.substitute(
        {"a": MultiPoly.variable("a1", big), "c": MultiPoly.variable("c1", big)},
        big,
    )
    assert str(q) == "a1^2 - c1"
    # numeric / rational evaluation
    assert p.evaluate({"a": F(3), "c": F(2)}) == F(7)
    assert p.evaluate({"a": 1j, "c": 0.0}) == pytest.approx(-1.0)
    # carrying a variable over requires it to exist in the target ring
    with pytest.raises(ValueError):
        p.substitute({"a": MultiPoly.variable("a1", big)}, big)


def test_multipoly_cubic_root_reduction():
    ring = ("beta",)
    b = MultiPoly.variable("beta", ring)
    # beta^3 == 1 and beta^2 == -beta - 1 modulo beta^2+beta+1
    assert (b**3).reduce_cubic_root("beta") == MultiPoly.const(F(1), ring)
    assert (b**2).reduce_cubic_root("beta") == -b - MultiPoly.const(F(1), ring)
    assert ((b * b + b + MultiPoly.const(F(1), ring)).reduce_cubic_root("beta")).is_zero()
    # beta^(2^n) != 1 for n <= 20: 2^n is never divisible by 3
    one = MultiPoly.const(F(1), ring)
    for n in range(1, 21):
        assert (b ** (2**n)).reduce_cubic_root("beta") != one


# --------------------------------------------------------------- TruncSeries


def test_mul_truncates_and_matches_hand_product():
    # (1+z)(1-z) = 1 - z^2 at order 4
    s1 = const_series("z", 4, [1, 1])
    s2 = const_series("z", 4, [1, -1])
    assert s1 * s2 == const_series("z", 4, [1, 0, -1])
    # degree-(N+1) contributions vanish: z^4 * z = 0 at order 4
    z4 = const_series("z", 4, [0, 0, 0, 0, 1])
    z1 = const_series("z", 4, [0, 1])
    assert (z4 * z1).is_zero()


def test_mul_commutative_associative_on_random_sparse_inputs():
    rng = random.Random(11)
    for _ in range(20):
        def rand_series():
            coeffs = []
            for _k in range(9):
                if rng.random() < 0.5:
                    coeffs.append(P(AC, {(rng.randrange(3), rng.randrange(3)): rng.randrange(-5, 6)}))
                else:
                    coeffs.append(MultiPoly.zero(AC))
            return TruncSeries("z", 8, coeffs)

        f, g, h = rand_series(), rand_series(), rand_series()
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h


def test_order_mismatch_is_an_error():
    s1 = const_series("z", 4, [1])
    s2 = const_series("z", 5, [1])
    s3 = const_series("w", 4, [1])
    with pytest.raises(OrderMismatch):
        s1 + s2
    with pytest.raises(OrderMismatch):
        s1 * s3


def test_pow_rational_binomial_series():
    # (1+z)^(1/2) = 1 + z/2 - z^2/8 + z^3/16 at order 3
    s = const_series("z", 3, [1, 1])
    got = s.pow_rational(F(1, 2))
    want = TruncSeries(
        "z",
        3,
        [
            MultiPoly.const(F(1), AC),
            MultiPoly.const(F(1, 2), AC),
            MultiPoly.const(F(-1, 8), AC),
            MultiPoly.const(F(1, 16), AC),
        ],
    )
    assert got == want


def test_pow_rational_consistency():
    s = const_series("z", 6, [1, 2, -1, 3])
    assert s.pow_rational(F(2)) == s * s
    assert s.pow_rational(F(1, 3)).pow_rational(F(3)) == s
    t = const_series("z", 6, [0, 1, 1])
    with pytest.raises(NotUnitSeries):
        t.pow_rational(F(1, 2))


def test_compose_identity_and_reversion_roundtrip():
    f = const_series("z", 4, [0, 1, 1])  # z + z^2
    ident = const_series("z", 4, [0, 1])
    assert compose(f, ident) == f
    # reverse(z + z^2) = z - z^2 + 2 z^3 - 5 z^4 (signed Catalan numbers)
    g = reverse(f)
    assert g == const_series("z", 4, [0, 1, -1, 2, -5])
    assert compose(f, g) == ident
    assert compose(g, f) == ident
    assert reverse(g) == f


def test_compose_rejects_nonzero_inner_constant():
    f = const_series("z", 4, [0, 1, 1])
    with pytest.raises(NonzeroConstantInner):
        compose(f, const_series("z", 4, [1, 1]))


def test_compose_respects_mul():
    rng = random.Random(7)
    for _ in range(10):
        def rand(const_zero=False):
            coeffs = [F(rng.randrange(-4, 5)) for _ in range(7)]
            if const_zero:
                coeffs[0] = F(0)
            return const_series("z", 6, coeffs)

        f, g = rand(), rand()
        inner = rand(const_zero=True)
        assert compose(f * g, inner) == compose(f, inner) * compose(g, inner)


def test_reverse_scaled_identity_and_errors():
    lam = F(7, 3)
    s = const_series("z", 5, [0, lam])
    assert reverse(s) == const_series("z", 5, [0, 1 / lam])
    with pytest.raises(NonInvertibleLinearTerm):
        reverse(const_series("z", 5, [0, 0, 1]))
    # linear coefficient must be a nonzero constant in polynomial mode
    a = MultiPoly.variable("a", AC)
    zero = MultiPoly.zero(AC)
    bad = TruncSeries("z", 3, [zero, a, zero, zero])
    with pytest.raises(NonInvertibleLinearTerm):
        reverse(bad)


def test_derivative_integrate_roundtrip():
    s = const_series("z", 6, [3, 1, -2, 0, 5, 7, -1])
    t = integrate(s.derivative())
    # round trip restores everything but the constant term
    assert t.coeffs[0].is_zero()
    assert t.coeffs[1:] == s.coeffs[1:]


def test_inverse_of_unit_series():
    s = const_series("z", 5, [1, -1])  # 1/(1-z) = sum z^k
    assert s.inverse() == const_series("z", 5, [1, 1, 1, 1, 1, 1])
    t = const_series("z", 5, [-1, 2, 1])
    assert (t * t.inverse()) == const_series("z", 5, [1])


def test_substitute_coeff_var_horner():
    # f(u) = y^2 + y*u over ring (a,c,y); substitute y -> u + u^2
    ring = ("a", "c", "y")
    y = MultiPoly.variable("y", ring)
    zero = MultiPoly.zero(ring)
    f = TruncSeries("u", 4, [y * y, y, zero, zero, zero])
    Y = TruncSeries(
        "u",
        4,
        [zero, MultiPoly.const(F(1), ring), MultiPoly.const(F(1), ring), zero, zero],
    )
    got = f.substitute_coeff_var("y", Y)
    # (u+u^2)^2 + (u+u^2)*u = u^2 + 2u^3 + u^4 + u^2 + u^3
    want = TruncSeries(
        "u",
        4,
        [
            zero,
            zero,
            MultiPoly.const(F(2), ring),
            MultiPoly.const(F(3), ring),
            MultiPoly.const(F(1), ring),
        ],
    )
    assert got == want


def test_numeric_evaluation():
    s = const_series("z", 3, [1, 2, 3])
    assert s.evaluate(F(1, 2), {}) == F(1) + F(1) + F(3, 4)
    a = MultiPoly.variable("a", AC)
    zero = MultiPoly.zero(AC)
    t = TruncSeries("z", 2, [zero, a, zero])
    assert t.evaluate(2.0, {"a": 0.25, "c": 0.0}) == pytest.approx(0.5)


# ------------------------------------- packed product vs a naive reference

RING = ("a", "c", "x", "y")

# small exponents collide often; the wide ones push the packed field width
# past 8, 16 and 32 bits
exponents = st.one_of(
    st.integers(0, 3), st.sampled_from([127, 128, 255, 65535, 2**20, 2**33 + 1])
)
# non-dyadic and negative rationals
rationals = st.builds(
    F, st.integers(-30, 30).filter(bool), st.sampled_from([1, 2, 3, 4, 7, 9, 10, 64])
)
polys = st.dictionaries(
    st.tuples(*[exponents] * len(RING)), rationals, max_size=6
).map(lambda terms: MultiPoly(RING, terms))


def naive_product(p, q):
    """Schoolbook product over dicts of Fractions."""
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, F(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


@st.composite
def poly_pairs(draw):
    """(p, q); half the time q is p with some signs flipped, like (x+y)(x-y),
    so that cross terms of the product cancel."""
    p = draw(polys)
    if draw(st.booleans()):
        return p, draw(polys)
    flips = draw(st.lists(st.booleans(), min_size=len(p.terms), max_size=len(p.terms)))
    q = MultiPoly(RING, {e: -c if f else c for (e, c), f in zip(p.terms.items(), flips)})
    return p, q


@settings(max_examples=150, deadline=None)
@given(poly_pairs())
def test_packed_multipoly_product_matches_naive_product(pair):
    p, q = pair
    got = p * q
    assert got.terms == naive_product(p, q)
    assert all(got.terms.values())  # cancelled terms are not stored
    assert (q * p).terms == got.terms


# ---------------------------------------------------- the packed form


@settings(max_examples=100, deadline=None)
@given(polys)
def test_terms_view_round_trips(p):
    assert MultiPoly(RING, p.terms) == p
    assert len(p.terms) == len(dict(p.terms.items()))


def assert_canonical(p):
    """Lowest terms: gcd(den, every numerator) = 1, and zero is den = 1."""
    nums = [c * p.den for c in p.terms.values()]
    assert all(n.denominator == 1 and n for n in nums)
    assert math.gcd(p.den, *(int(n) for n in nums)) == 1
    if p.is_zero():
        assert p.den == 1


@settings(max_examples=100, deadline=None)
@given(polys, polys)
def test_sums_are_canonical(p, q):
    back = (p + q) - q
    assert back == p
    assert hash(back) == hash(p)
    for r in (p, p + q, back, p * q, p * F(4, 3), p.derivative("x")):
        assert_canonical(r)


def test_halves_summing_to_an_integer_are_canonical():
    x = MultiPoly.variable("x", RING)
    half = x * F(1, 2)
    whole = half + half
    assert whole == x and hash(whole) == hash(x)
    assert whole.den == 1


def test_exponent_overflow_is_refused():
    x = MultiPoly.variable("x", ("x",))
    top = 2 ** (series.WIDTH - 1)
    with pytest.raises(ExponentOverflow, match="'x'"):
        x ** (2 * top)  # the last squaring multiplies x^top by itself
    with pytest.raises(ExponentOverflow, match="'x'"):
        MultiPoly(("x",), {(2**series.WIDTH,): 1})
    assert (x ** (top - 1)).max_power("x") == top - 1  # the largest that still multiplies


def test_single_term_products_refuse_overflow_as_the_kernel_does():
    ring = ("c", "x")
    x_top = MultiPoly(ring, {(0, 2 ** (series.WIDTH - 1)): F(-1, 3)})
    two_terms = MultiPoly(ring, {(1, 0): 1, (0, 1): F(2, 5)})
    with pytest.raises(ExponentOverflow) as kernel:
        series._cauchy_product([two_terms], [x_top], ring, 0)
    for left, right in ((two_terms, x_top), (x_top, two_terms), (x_top, x_top)):
        with pytest.raises(ExponentOverflow) as shifted:
            left * right
        assert str(shifted.value) == str(kernel.value)


single_terms = st.builds(
    lambda exps, coeff: MultiPoly(RING, {exps: coeff}),
    st.tuples(*[exponents] * len(RING)),
    st.builds(F, st.integers(-30, 30).filter(bool), st.sampled_from([2, 3, 7, 10, 64])),
)


@settings(max_examples=150, deadline=None)
@given(polys, single_terms)
def test_single_term_product_equals_the_kernel_in_both_orders(p, t):
    for left, right in ((p, t), (t, p)):
        (want,) = series._cauchy_product([left], [right], RING, 0)
        got = left * right
        # the same canonical fields, numerators in the same order
        assert (got.den, list(got._nums.items())) == (want.den, list(want._nums.items()))


_OVERFLOW_UNDER_O = """
from henonlocus.errors import ExponentOverflow
from henonlocus.series import WIDTH, MultiPoly

x = MultiPoly.variable("x", ("x",))
try:
    x ** (2**WIDTH)
except ExponentOverflow as exc:
    print("ExponentOverflow:", exc)
try:
    (x + 1) * x ** (2 ** (WIDTH - 1))
except ExponentOverflow as exc:
    print("ExponentOverflow:", exc)
"""


def test_exponent_overflow_is_refused_under_O():
    src = str(pathlib.Path(henonlocus.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", _OVERFLOW_UNDER_O],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        check=True,
        timeout=120,
    ).stdout
    lines = out.splitlines()
    assert len(lines) == 2
    for line in lines:
        assert line.startswith("ExponentOverflow: a product operand has an exponent of 'x'")


_SUBSTITUTION_OVERFLOW_UNDER_O = """
from henonlocus.errors import ExponentOverflow
from henonlocus.series import WIDTH, MultiPoly

ring = ("x", "y", "z")
z = MultiPoly.variable("z", ring)
half = 2 ** (WIDTH - 2)
for exps, value in (((2 * half, 0, 0), z), ((half, half, 0), z), ((2 * half, 0, 0), z * z)):
    try:
        MultiPoly(ring, {exps: 1}).substitute({"x": value, "y": value}, ring)
    except ExponentOverflow as exc:
        print("ExponentOverflow:", exc)
"""


def test_substitution_overflow_is_refused_under_O():
    src = str(pathlib.Path(henonlocus.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", _SUBSTITUTION_OVERFLOW_UNDER_O],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        check=True,
        timeout=120,
    ).stdout
    lines = out.splitlines()
    assert len(lines) == 3
    for line in lines:
        assert line.startswith("ExponentOverflow: a product operand has an exponent of 'z'")


def draw_series(draw, order):
    sparse = st.one_of(st.just(MultiPoly.zero(RING)), polys)
    coeffs = st.lists(sparse, min_size=order + 1, max_size=order + 1)
    return TruncSeries("u", order, draw(coeffs))


@st.composite
def series_pairs(draw):
    order = draw(st.integers(0, 4))
    return draw_series(draw, order), draw_series(draw, order)


def naive_series_product(s, t):
    out = []
    for k in range(s.order + 1):
        acc = MultiPoly.zero(RING)
        for i in range(k + 1):
            acc = acc + MultiPoly(RING, naive_product(s.coeffs[i], t.coeffs[k - i]))
        out.append(acc)
    return TruncSeries(s.var, s.order, out)


@settings(max_examples=100, deadline=None)
@given(series_pairs(), st.sampled_from(RING), st.integers(-1, 8))
def test_series_product_and_weighted_product_match_reference(pair, name, budget):
    s, t = pair
    full = s * t
    assert full == naive_series_product(s, t)
    assert s.mul_weighted(t, name, budget) == _trim(full, name, budget)
    c = t.coeffs[0]
    assert s.mul_weighted(c, name, budget) == _trim(s * c, name, budget)


@st.composite
def series_triples(draw):
    order = draw(st.integers(0, 4))
    return tuple(draw_series(draw, order) for _ in range(3))


@settings(max_examples=100, deadline=None)
@given(series_triples())
def test_series_product_distributes_over_sum(triple):
    s, t, u = triple
    assert s * (t + u) == s * t + s * u


@st.composite
def unit_series(draw):
    """A series whose constant term is a nonzero rational; the higher
    coefficients are MultiPolys."""
    s = draw_series(draw, draw(st.integers(0, 4)))
    c0 = MultiPoly.const(draw(rationals), RING)
    return TruncSeries(s.var, s.order, (c0,) + s.coeffs[1:])


@settings(max_examples=60, deadline=None)
@given(unit_series())
def test_unit_series_times_its_inverse_is_one(s):
    one = TruncSeries.from_poly(MultiPoly.const(F(1), RING), s.var, s.order)
    assert s * s.inverse() == one


def recurrence_inverse(s):
    """The triangular recurrence Newton's inversion replaced:
    g_n = -g_0 * sum_{k=1..n} f_k g_{n-k}, one coefficient pair at a time."""
    inv0 = MultiPoly.const(1 / s.coeffs[0].constant_value(), s.coeffs[0].vars)
    out = [inv0]
    for n in range(1, s.order + 1):
        acc = MultiPoly.zero(inv0.vars)
        for k in range(1, n + 1):
            acc = acc + s.coeffs[k] * out[n - k]
        out.append(-(inv0 * acc))
    return TruncSeries(s.var, s.order, out)


# few low-degree terms: the reciprocal's coefficients grow fast with the order
inverse_coeffs = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * len(RING)), rationals, max_size=2
).map(lambda terms: MultiPoly(RING, terms))


@st.composite
def unit_series_to_order_nine(draw):
    order = draw(st.integers(0, 9))
    c0 = draw(st.one_of(st.sampled_from([F(-1), F(3, 2)]), rationals))
    tail = draw(st.lists(inverse_coeffs, min_size=order, max_size=order))
    return TruncSeries("u", order, [MultiPoly.const(c0, RING)] + tail)


@settings(max_examples=60, deadline=None)
@given(unit_series_to_order_nine())
def test_newton_inverse_matches_the_recurrence(s):
    want = recurrence_inverse(s)
    got = s.inverse()
    assert [c.terms for c in got.coeffs] == [c.terms for c in want.coeffs]


def test_newton_inverse_makes_two_series_products_per_round(monkeypatch):
    calls = []
    real = series._cauchy_product

    def counted(*args):
        calls.append(args[3])  # the output order
        return real(*args)

    monkeypatch.setattr(series, "_cauchy_product", counted)
    s = const_series("z", 13, [2, -1, 0, 3])
    g = s.inverse()
    # 13 has 4 bits: 4 rounds of f*g and g*(f*g - 1), each at doubling order
    assert calls == [1, 1, 3, 3, 7, 7, 13, 13]
    assert s * g == const_series("z", 13, [1])


def test_series_product_rejects_mismatched_coefficient_rings():
    s = TruncSeries("z", 1, [MultiPoly.const(F(1), AC), MultiPoly.zero(AC)])
    t = TruncSeries("z", 1, [MultiPoly.const(F(1), RING), MultiPoly.zero(RING)])
    with pytest.raises(ValueError):
        s * t
    with pytest.raises(ValueError):
        s.mul_weighted(t, "a", 2)


# ------------------------------------------- substitution vs point evaluation

TARGET = ("a1", "c1", "beta")
small_polys = {
    ring: st.dictionaries(
        st.tuples(*[st.integers(0, 3)] * len(ring)), rationals, max_size=4
    ).map(lambda terms, ring=ring: MultiPoly(ring, terms))
    for ring in (AC, TARGET)
}
points = st.fixed_dictionaries({name: rationals for name in TARGET})


@settings(max_examples=100, deadline=None)
@given(
    small_polys[AC],
    st.one_of(small_polys[TARGET], rationals),
    small_polys[TARGET],
    points,
)
def test_substitute_commutes_with_evaluation(p, va, vc, point):
    # p(va, vc) evaluated at a point equals p evaluated at (va(point), vc(point))
    q = p.substitute({"a": va, "c": vc}, TARGET)
    at = {
        "a": va.evaluate(point) if isinstance(va, MultiPoly) else va,
        "c": vc.evaluate(point),
    }
    assert q.evaluate(point) == p.evaluate(at)


@settings(max_examples=100, deadline=None)
@given(small_polys[TARGET], points)
def test_evaluate_matches_the_sum_of_its_terms(p, point):
    expected = F(0)
    for exps, c in p.terms.items():
        expected += c * math.prod(point[name] ** e for name, e in zip(TARGET, exps))
    got = p.evaluate(point)
    assert type(got) is F and got == expected
    # a variable no term uses needs no value
    unused = [name for i, name in enumerate(TARGET) if all(e[i] == 0 for e in p.terms)]
    assert p.evaluate({k: v for k, v in point.items() if k not in unused}) == expected


def test_substitute_rejects_values_outside_the_target_ring():
    p = MultiPoly.variable("a", AC)
    with pytest.raises(ValueError):
        p.substitute({"a": MultiPoly.variable("a", AC)}, TARGET)
    with pytest.raises(TypeError):
        p.substitute({"a": 0.5}, TARGET)


# ------------------------------------------- substitution vs a Fraction oracle

SUB_TARGETS = (("a", "c", "y", "beta"), ("a", "c"))


def _product_terms(left, right):
    out = {}
    for e1, c1 in left.items():
        for e2, c2 in right.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, F(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


def oracle_substitute(p, mapping, target):
    """p under mapping, term by term over dicts of Fractions."""
    one = (0,) * len(target)
    out = {}
    for exps, coeff in p.terms.items():
        image = {one: coeff}
        for name, e in zip(p.vars, exps):
            if not e:
                continue
            value = mapping.get(name, MultiPoly.variable(name, target) if name in target else None)
            if value is None:
                raise ValueError(f"{name!r} is unmapped")
            if not isinstance(value, MultiPoly):
                value = MultiPoly.const(value, target)
            for _ in range(e):
                image = _product_terms(image, dict(value.terms))
        for e, c in image.items():
            out[e] = out.get(e, F(0)) + c
    return MultiPoly(target, {e: c for e, c in out.items() if c})


@st.composite
def substitutions(draw):
    """A polynomial over RING, a map that mixes renames, rationals, zero,
    single terms with den != 1 and multi-term values, and its target ring."""
    target = draw(st.sampled_from(SUB_TARGETS))
    target_exps = st.tuples(*[st.integers(0, 2)] * len(target))
    values = st.one_of(
        st.builds(MultiPoly.variable, st.sampled_from(target), st.just(target)),
        rationals,
        st.just(F(0)),
        st.just(MultiPoly.zero(target)),
        st.builds(
            lambda exps, c: MultiPoly(target, {exps: c}),
            target_exps,
            st.builds(F, st.integers(-9, 9).filter(bool), st.sampled_from([2, 3, 7, 10])),
        ),
        st.dictionaries(target_exps, rationals, min_size=2, max_size=3)
        .map(lambda terms: MultiPoly(target, terms))
        .filter(lambda v: len(v.terms) >= 2),
    )
    mapping = {}
    for name in RING:
        if name not in target or draw(st.booleans()):
            mapping[name] = draw(values)
    p = draw(
        st.dictionaries(st.tuples(*[st.integers(0, 3)] * len(RING)), rationals, max_size=6)
    )
    return MultiPoly(RING, p), mapping, target


@settings(max_examples=150, deadline=None)
@given(substitutions())
def test_substitute_equals_the_term_by_term_oracle(case):
    p, mapping, target = case
    assert p.substitute(mapping, target) == oracle_substitute(p, mapping, target)


def test_substitute_refuses_an_unmapped_variable_missing_from_the_target():
    p = P(RING, {(1, 0, 0, 2): 3, (0, 1, 0, 0): 1})  # 3 a y^2 + c
    with pytest.raises(ValueError, match="'y' is not mapped and not in the target ring"):
        p.substitute({}, AC)
    # a variable no term uses needs no value
    assert p.substitute({"y": F(1, 2)}, AC) == P(AC, {(1, 0): F(3, 4), (0, 1): 1})


def test_substitute_refuses_an_image_exponent_at_the_top_bit():
    ring = ("x", "y", "z")
    z = MultiPoly.variable("z", ring)
    top = 2 ** (series.WIDTH - 1)
    with pytest.raises(ExponentOverflow) as kernel:
        series._cauchy_product([MultiPoly(ring, {(0, 0, top): 1})], [z], ring, 0)

    def image(exps, mapping):
        return MultiPoly(ring, {exps: F(2, 3)}).substitute(mapping, ring)

    renamed = {"x": z, "y": z}
    scaled = {"x": MultiPoly(ring, {(0, 0, 1): F(-5, 7)}), "y": z}
    for exps, mapping in (
        ((top, 0, 0), renamed),  # a rename
        ((top // 2, top // 2, 0), renamed),  # two fields that sum to the top bit
        ((top // 2, top // 2, 0), scaled),  # a single term with den != 1
        ((top // 2, 0, top // 2), {"x": z}),  # a carried-over variable
        ((top, 0, 0), {"x": z * z}),  # a sum that would carry into the next field
        ((1, 0, top - 1), {"x": z + 1}),  # a multi-term value, shifted
    ):
        with pytest.raises(ExponentOverflow) as refused:
            image(exps, mapping)
        assert str(refused.value) == str(kernel.value), exps
    # one below the top bit is fine, and a zero value kills the term first
    assert image((top // 2, top // 2 - 1, 0), renamed) == MultiPoly(ring, {(0, 0, top - 1): F(2, 3)})
    assert image((top, 0, 0), {"x": F(0)}).is_zero()

