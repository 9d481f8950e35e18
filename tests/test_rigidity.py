"""Symbolic chart expansions and the quadratic transition-map computation.

The low-order expected coefficients in here were derived by hand before the
pipeline was written:

* h+ = (1+s1)^(-1/2) (1+s2)^(-1/4) ... with s1 = (c-ay)u^2 and
  s2 = (c u^4 - a u^3)/X1^2 gives h+ = 1 - (c-ay)/2 u^2 + a/4 u^3 + O(u^4).
* h- = 1 - (c-x)/2 v^2 + a^2/4 v^3 + O(v^4).
* The locus graph for p = x^2+c has Y(0) = 0 (the critical point) and
  Y'(0) = (a - a^2)/4, from solving p''(0) Y1 = -H(0,0,a) with
  H(0,y,a) = 2 p(y) p'(y) + (a^2 - a)/2.
* sigma = chi_minus o chi_plus^(-1) starts -a^2 z - a^2 c z^2
  - (a^2c^2 + a^2c/2 - a^4c/2) z^3 + ...
"""

import hashlib
import math
import os
import pathlib
import random
import re
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import henonlocus
from henonlocus import rigidity, series
from henonlocus.errors import DegenerateCriticalPoint, SeriesInconsistency
from henonlocus.rigidity import (
    CHART_VARS,
    DEFECT_VARS,
    SIGMA_VARS,
    check_partial_solution,
    defect_coefficients_text,
    locus_series,
    phi_series,
    quadratic_q,
    rigidity_defect,
    sigma_series,
    verify_table_case,
)
from henonlocus.series import MultiPoly, TruncSeries
from series_oracles import compose, reverse


def _uses(poly, name):
    """Whether name occurs in poly with a positive exponent."""
    return poly.max_power(name) > 0


def CP(terms):
    return MultiPoly(CHART_VARS, {k: F(*v) if isinstance(v, tuple) else F(v) for k, v in terms.items()})


def SP(terms):
    return MultiPoly(SIGMA_VARS, {k: F(*v) if isinstance(v, tuple) else F(v) for k, v in terms.items()})


def DP(terms):
    return MultiPoly(DEFECT_VARS, {k: F(*v) if isinstance(v, tuple) else F(v) for k, v in terms.items()})


# ------------------------------------------------------------------ h+, h-


def test_h_plus_hand_expansion_quadratic():
    h = phi_series(quadratic_q(), "plus", 3)
    assert h.coeffs[0] == MultiPoly.const(F(1), CHART_VARS)
    assert h.coeffs[1].is_zero()
    # -(c - a y)/2
    assert h.coeffs[2] == CP({(0, 1, 0, 0): (-1, 2), (1, 0, 0, 1): (1, 2)})
    # a/4
    assert h.coeffs[3] == CP({(1, 0, 0, 0): (1, 4)})


def test_h_plus_matches_explicit_two_factor_product():
    # p = x^2 (c = 0), a symbolic: through u^3 only the first two telescoping
    # factors contribute, so h+ must equal (1+s1)^(-1/2) * (1+s2)^(-1/4).
    zero = MultiPoly.zero(CHART_VARS)
    q = (MultiPoly.zero(CHART_VARS), zero)
    h = phi_series(q, "plus", 3)
    a = MultiPoly.variable("a", CHART_VARS)
    y = MultiPoly.variable("y", CHART_VARS)
    one = MultiPoly.const(F(1), CHART_VARS)
    s1 = TruncSeries("u", 3, [one, zero, -(a * y), zero])  # 1 + s1
    x1_sq = s1 * s1
    s2 = TruncSeries.monomial(-a, 3, "u", 3) * x1_sq.inverse() + one  # 1 + s2
    want = s1.pow_rational(F(-1, 2)) * s2.pow_rational(F(-1, 4))
    assert h == want


def test_h_plus_y_derivative_vanishes_to_degree_two():
    # d/dy of h+ is divisible by u^d (d = 2)
    h = phi_series(quadratic_q(), "plus", 8)
    hy = h.map_coeffs(lambda p: p.derivative("y"))
    assert hy.coeffs[0].is_zero()
    assert hy.coeffs[1].is_zero()
    assert not hy.is_zero()


def test_h_minus_hand_expansion_quadratic():
    h = phi_series(quadratic_q(), "minus", 3)
    assert h.coeffs[0] == MultiPoly.const(F(1), CHART_VARS)
    assert h.coeffs[1].is_zero()
    # -(c - x)/2
    assert h.coeffs[2] == CP({(0, 1, 0, 0): (-1, 2), (0, 0, 1, 0): (1, 2)})
    # a^2/4
    assert h.coeffs[3] == CP({(2, 0, 0, 0): (1, 4)})


def test_h_series_never_use_the_wrong_chart_variable():
    hp = phi_series(quadratic_q(), "plus", 6)
    hm = phi_series(quadratic_q(), "minus", 6)
    assert not any(_uses(c, "x") for c in hp.coeffs)
    assert not any(_uses(c, "y") for c in hm.coeffs)


# ---------------------------------------------------------------- locus Y


def test_locus_series_quadratic_low_order():
    Y = locus_series(quadratic_q(), MultiPoly.zero(CHART_VARS), 4)
    assert Y.coeffs[0].is_zero()  # Y(0) = critical point = 0
    # slope (a - a^2)/4
    assert Y.coeffs[1] == CP({(1, 0, 0, 0): (1, 4), (2, 0, 0, 0): (-1, 4)})
    assert not any(_uses(c, "x") or _uses(c, "y") for c in Y.coeffs)


def test_locus_series_degenerate_parameter_collapses():
    Y = locus_series(quadratic_q(), MultiPoly.zero(CHART_VARS), 8)
    for coeff in Y.coeffs[1:]:
        assert coeff.substitute({"a": F(0)}, CHART_VARS).is_zero()


def test_locus_series_cubic_map():
    # p = x^3 - 3x has order-one critical points at +-1; check Y(0) = 1 and
    # the a -> 0 collapse for the branch at +1.
    zero = MultiPoly.zero(CHART_VARS)
    q = (zero, MultiPoly.const(F(-3), CHART_VARS), zero)
    crit = MultiPoly.const(F(1), CHART_VARS)
    Y = locus_series(q, crit, 5)
    assert Y.coeffs[0] == crit
    for coeff in Y.coeffs[1:]:
        assert coeff.substitute({"a": F(0)}, CHART_VARS).is_zero()


def test_locus_series_rejects_degenerate_critical_point():
    # p = x^3: p'(0) = 0 but p''(0) = 0 as well
    zero = MultiPoly.zero(CHART_VARS)
    q = (zero, zero, zero)
    with pytest.raises(DegenerateCriticalPoint):
        locus_series(q, MultiPoly.zero(CHART_VARS), 4)
    # and a non-critical seed is rejected outright
    with pytest.raises(DegenerateCriticalPoint):
        locus_series(quadratic_q(), MultiPoly.const(F(1), CHART_VARS), 4)


def test_locus_series_order_below_deg_p_minus_one_is_a_bad_argument():
    # w(0, y) = -p'(y) has y-degree deg p - 1, which the order must reach
    zero = MultiPoly.zero(CHART_VARS)
    cubic = (zero, MultiPoly.const(F(-3), CHART_VARS), zero)
    one = MultiPoly.const(F(1), CHART_VARS)
    for q, crit, order in ((quadratic_q(), zero, 0), (cubic, one, 0), (cubic, one, 1)):
        with pytest.raises(ValueError, match="below deg p - 1"):
            locus_series(q, crit, order)
    assert locus_series(cubic, one, 2).coeffs[0] == one


def _fix_w(monkeypatch, order):
    """Pin rigidity._charts for x^2 + c at this order to its true value, so
    that a patched TruncSeries.inverse reaches only the Newton loop."""
    pieces = rigidity._charts(quadratic_q(), MultiPoly.zero(CHART_VARS), order)
    monkeypatch.setattr(rigidity, "_charts", lambda q, crit, order: pieces)


def _count_updates(monkeypatch, scale):
    """Patch TruncSeries.inverse to scale its result; one call per Newton update."""
    updates = []
    inverse = TruncSeries.inverse

    def counted(series):
        updates.append(series)
        return inverse(series) * scale

    monkeypatch.setattr(TruncSeries, "inverse", counted)
    return updates


def test_formal_newton_returns_at_the_first_zero_residual(monkeypatch):
    # Newton at doubling precision from Y = 0: one update per round, at
    # orders 1, 3, 7 and then the full order 8, after which the one
    # full-order check finds the residual exactly zero and returns
    _fix_w(monkeypatch, 8)
    updates = _count_updates(monkeypatch, 1)
    locus_series(quadratic_q(), MultiPoly.zero(CHART_VARS), 8)
    assert [s.order for s in updates] == [1, 3, 7, 8]


def test_formal_newton_refuses_when_the_residual_never_vanishes(monkeypatch):
    # twice the Newton correction flips the sign of the error, so the
    # rounds at orders 1, 3 and 4 never reach the root and the one
    # full-order residual check refuses
    _fix_w(monkeypatch, 4)
    updates = _count_updates(monkeypatch, 2)
    with pytest.raises(SeriesInconsistency, match="formal Newton failed to converge"):
        locus_series(quadratic_q(), MultiPoly.zero(CHART_VARS), 4)
    assert [s.order for s in updates] == [1, 3, 4]


def _restarting_branch(w, crit):
    """The locus Newton with every round at the full order, returning at the
    first exactly-zero residual: the oracle for rigidity._branch."""
    wy = w.map_coeffs(lambda p_: p_.derivative("y"))
    Z = TruncSeries.from_poly(MultiPoly.zero(crit.vars), "u", w.order)
    for _ in range(max(3, math.ceil(math.log2(w.order + 1)) + 1)):
        resid = w.substitute_coeff_var("y", Z)
        if resid.is_zero():
            return Z + crit
        Z = Z - resid * wy.substitute_coeff_var("y", Z).inverse()
    raise SeriesInconsistency("formal Newton failed to converge")


def test_doubling_newton_matches_the_restarting_oracle():
    zero = MultiPoly.zero(CHART_VARS)
    for order in range(1, 14):
        w = rigidity._charts(quadratic_q(), zero, order)[0]
        assert rigidity._branch(w, zero) == _restarting_branch(w, zero), order
    cubic = (zero, MultiPoly.const(F(-3), CHART_VARS), zero)  # x^3 - 3x
    for crit in (MultiPoly.const(F(1), CHART_VARS), MultiPoly.const(F(-1), CHART_VARS)):
        for order in range(2, 9):
            w = rigidity._charts(cubic, crit, order)[0]
            assert rigidity._branch(w, crit) == _restarting_branch(w, crit), (crit, order)


def test_formal_newton_checks_the_full_order_once(monkeypatch):
    # one residual and one derivative substitution per round, at the round's
    # order, then one residual check at the full order 13
    _fix_w(monkeypatch, 13)
    orders = []
    substitute = TruncSeries.substitute_coeff_var

    def counted(series, name, inner):
        orders.append(series.order)
        return substitute(series, name, inner)

    monkeypatch.setattr(TruncSeries, "substitute_coeff_var", counted)
    locus_series(quadratic_q(), MultiPoly.zero(CHART_VARS), 13)
    assert orders == [1, 1, 3, 3, 7, 7, 13, 13, 13]


# A plus-side unit factor whose constant term depends on y breaks the wedge
# form's vanishing to order u^2, which _charts must report with a typed
# error -- also under python -O, where a bare assert would be stripped.
_BREAK_H_PLUS = """
from henonlocus import rigidity, series
from henonlocus.series import MultiPoly

real_phi_series = rigidity.phi_series
ring = rigidity.CHART_VARS
one_plus_y = MultiPoly.const(1, ring) + MultiPoly.variable("y", ring)

def broken_phi_series(q, side, order):
    h = real_phi_series(q, side, order)
    return h * one_plus_y if side == "plus" else h
"""

_LOCUS_UNDER_O = _BREAK_H_PLUS + """
from henonlocus.errors import SeriesInconsistency

rigidity.phi_series = broken_phi_series
try:
    rigidity.locus_series(rigidity.quadratic_q(), MultiPoly.zero(ring), 2)
except SeriesInconsistency as exc:
    print("SeriesInconsistency:", exc)
"""


def test_inconsistent_wedge_form_raises_typed_error(monkeypatch):
    namespace = {}
    exec(_BREAK_H_PLUS, namespace)
    monkeypatch.setattr(rigidity, "phi_series", namespace["broken_phi_series"])
    with pytest.raises(SeriesInconsistency, match="wedge form does not vanish"):
        locus_series(quadratic_q(), MultiPoly.zero(CHART_VARS), 2)


def test_inconsistent_wedge_form_raises_typed_error_under_O():
    src = str(pathlib.Path(henonlocus.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", _LOCUS_UNDER_O],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        check=True,
        timeout=120,
    ).stdout
    assert out.startswith("SeriesInconsistency: wedge form does not vanish")


# ------------------------------------------------------------------- sigma


def test_sigma_first_three_coefficients():
    s = sigma_series(3)
    assert s.coeffs[0].is_zero()
    assert s.coeffs[1] == SP({(2, 0): -1})
    assert s.coeffs[2] == SP({(2, 1): -1})
    assert s.coeffs[3] == SP({(2, 2): -1, (2, 1): (-1, 2), (4, 1): (1, 2)})


def test_sigma_degenerate_parameter_collapses():
    s = sigma_series(6)
    for coeff in s.coeffs:
        assert coeff.substitute({"a": F(0)}, SIGMA_VARS).is_zero()


def test_sigma_numeric_composition_identity():
    # sigma(chi_plus(u)) == chi_minus(u) holds through the truncation order,
    # so at u = 1e-3 the two sides agree to far better than 1e-12 relative.
    from henonlocus.rigidity import chart_series

    chart = chart_series(10)
    s = sigma_series(10)
    vals = {"a": 0.01, "c": -1.0}
    u = 1e-3
    w = chart.chi_plus.evaluate(u, vals)
    left = s.evaluate(w, vals)
    right = chart.chi_minus.evaluate(u, vals)
    assert abs(left - right) <= 1e-12 * abs(right)


# ------------------------------------------------------------------ defect


def test_defect_first_three_coefficients_match_display():
    D = rigidity_defect(3)
    assert D.coeffs[0].is_zero()
    want1 = DP({(2, 0, 0, 0, 0, 1): 1, (0, 0, 2, 0, 1, 0): -1})
    want2 = DP({(2, 1, 0, 0, 0, 1): 1, (0, 0, 2, 1, 2, 0): -1})
    want3 = DP(
        {
            (2, 2, 0, 0, 0, 1): 1,
            (0, 0, 2, 2, 3, 0): -1,
            (2, 1, 0, 0, 0, 1): (1, 2),
            (4, 1, 0, 0, 0, 1): (-1, 2),
            (0, 0, 4, 1, 3, 0): (1, 2),
            (0, 0, 2, 1, 3, 0): (-1, 2),
        }
    )
    # exact identity and string-identical canonical serialization
    assert D.coeffs[1] == want1 and str(D.coeffs[1]) == str(want1)
    assert D.coeffs[2] == want2 and str(D.coeffs[2]) == str(want2)
    assert D.coeffs[3] == want3 and str(D.coeffs[3]) == str(want3)


def fresh_defect(order):
    """rigidity_defect(order) computed from scratch, with no defect series
    kept from an earlier call (the chart and sigma series keep none)."""
    rigidity.rigidity_defect.cache_clear()
    return rigidity_defect(order)


def test_defect_prefix_stability():
    # a shorter run is literally a prefix of a longer one (no truncation
    # artifacts near the top order)
    short = fresh_defect(6)
    long = fresh_defect(9)
    assert short.coeffs == long.coeffs[:7]


def test_lower_orders_are_truncations_of_order_13():
    # what makes serving every lower order from the kept order 13 exact
    fresh = {}
    for n in (3, 7, 8, 13):
        D = fresh_defect(n)
        fresh[n] = (rigidity.chart_series(n), sigma_series(n), D)
    chart13, sigma13, D13 = fresh[13]
    for n in (3, 7, 8):
        chart, sigma, D = fresh[n]
        assert D == D13.truncate(n)
        assert [str(c) for c in D.coeffs] == [str(c) for c in D13.coeffs[: n + 1]]
        assert sigma == sigma13.truncate(n)
        assert chart.chi_plus == chart13.chi_plus.truncate(n)
        assert chart.chi_minus == chart13.chi_minus.truncate(n)
        assert rigidity_defect(n) == D


def test_cold_defect_builds_the_charts_once(monkeypatch):
    # one h+ and one h-, and one composition call that forms the powers
    # vtil^1 .. vtil^N once for all three chart pieces (N = 13 + 2)
    calls, powers = [], []
    real_phi = rigidity.phi_series
    monkeypatch.setattr(
        rigidity, "phi_series", lambda *args: calls.append("phi_series") or real_phi(*args)
    )
    real_compose = rigidity._compose_shared
    mul_weighted = TruncSeries.mul_weighted

    def compose(outers, inner, name, budget):
        calls.append(len(outers))

        def counted(self, other, *rest):
            if other is inner:
                powers.append(self.order)
            return mul_weighted(self, other, *rest)

        monkeypatch.setattr(TruncSeries, "mul_weighted", counted)
        try:
            return real_compose(outers, inner, name, budget)
        finally:
            monkeypatch.setattr(TruncSeries, "mul_weighted", mul_weighted)

    monkeypatch.setattr(rigidity, "_compose_shared", compose)
    assert fresh_defect(13) == rigidity_defect(13)
    assert calls.count("phi_series") == 2
    assert [c for c in calls if c != "phi_series"] == [3]
    assert powers == [15] * 15


def horner_compose(outer, inner, name, budget):
    """outer(inner) by Horner's rule with weighted truncation at every step:
    the oracle for the shared-power composition."""
    result = TruncSeries.from_poly(
        outer.coeffs[-1].truncate_var(name, budget), inner.var, inner.order
    )
    for k in range(outer.order - 1, -1, -1):
        step = result.mul_weighted(inner, name, budget)
        result = step + outer.coeffs[k].truncate_var(name, budget)
    return result


def test_shared_powers_equal_horner_on_the_order_13_charts(monkeypatch):
    # the real (hm, hm_x, hm_v) and vtil of the order-13 charts
    seen = []
    real = rigidity._compose_shared
    monkeypatch.setattr(
        rigidity, "_compose_shared", lambda *args: seen.append(args) or real(*args)
    )
    rigidity._charts(quadratic_q(), MultiPoly.zero(CHART_VARS), 13)
    ((outers, inner, name, budget),) = seen
    assert (len(outers), inner.order, name, budget) == (3, 15, "y", 15)
    got = real(outers, inner, name, budget)
    assert got == [horner_compose(outer, inner, name, budget) for outer in outers]


small_chart_polys = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * len(CHART_VARS)),
    st.builds(F, st.integers(-9, 9).filter(bool), st.sampled_from([1, 2, 3, 7])),
    max_size=3,
).map(lambda terms: MultiPoly(CHART_VARS, terms))


@st.composite
def compositions(draw):
    """(outers, inner) at one order; the inner series has zero constant term."""
    order = draw(st.integers(0, 4))
    coeffs = st.lists(small_chart_polys, min_size=order + 1, max_size=order + 1)
    outers = [TruncSeries("v", order, c) for c in draw(st.lists(coeffs, min_size=1, max_size=3))]
    tail = draw(st.lists(small_chart_polys, min_size=order, max_size=order))
    inner = TruncSeries("u", order, [MultiPoly.zero(CHART_VARS)] + tail)
    return outers, inner


@settings(max_examples=80, deadline=None)
@given(compositions(), st.sampled_from(CHART_VARS), st.integers(0, 6))
def test_shared_powers_equal_horner_on_random_series(case, name, budget):
    outers, inner = case
    got = rigidity._compose_shared(outers, inner, name, budget)
    assert got == [horner_compose(outer, inner, name, budget) for outer in outers]


def test_lower_order_after_a_higher_one_makes_no_products(monkeypatch):
    rigidity_defect(13)
    calls = []
    real = series._cauchy_product
    monkeypatch.setattr(
        series, "_cauchy_product", lambda *args: calls.append(args[3]) or real(*args)
    )
    D = rigidity_defect(8)
    assert calls == []
    assert D.order == 8
    assert D == rigidity_defect(13).truncate(8)


def test_orders_below_the_locus_minimum_are_refused_after_a_kept_order(monkeypatch):
    rigidity_defect(3)
    calls = []
    real = series._cauchy_product
    monkeypatch.setattr(
        series, "_cauchy_product", lambda *args: calls.append(args[3]) or real(*args)
    )
    for refused in (rigidity.chart_series, sigma_series, rigidity_defect):
        with pytest.raises(ValueError, match="below deg p - 1"):
            refused(0)
    assert calls == []  # refused before any series work


def test_defect_golden_file():
    import pathlib

    import henonlocus

    golden = (
        pathlib.Path(henonlocus.__file__).parent / "golden" / "defect_coefficients.txt"
    )
    assert defect_coefficients_text(13) == golden.read_text()


def test_identical_maps_give_zero_defect():
    # f = g, beta = gamma = 1: substitute a2 -> a1, c2 -> c1 symbolically
    D = rigidity_defect(8)
    small = ("a1", "c1")
    m = {
        "a2": MultiPoly.variable("a1", small),
        "c2": MultiPoly.variable("c1", small),
        "beta": F(1),
        "gamma": F(1),
    }
    for coeff in D.coeffs:
        assert coeff.substitute(m, small).is_zero()


# ------------------------------------------------- partial solution / table


def test_partial_solution_annihilates_first_two_terms():
    rep = check_partial_solution()
    assert rep.ok
    assert rep.annihilated == (1, 2)
    assert rep.witnesses == 5


def test_partial_solution_random_specializations_leave_z3():
    # directly: partial solution + random c1 != 0 keeps coefficient 3 nonzero
    D = rigidity_defect(3)
    rng = random.Random(2)
    for _ in range(5):
        a1 = F(rng.randrange(2, 7), rng.randrange(1, 5))
        a2 = a1 + F(rng.randrange(1, 5))
        beta = F(rng.randrange(2, 9), rng.randrange(1, 4))
        c1 = F(rng.randrange(1, 9))
        vals = {
            "a1": a1,
            "a2": a2,
            "beta": beta,
            "c1": c1,
            "c2": c1 / beta,
            "gamma": a2**2 * beta / a1**2,
        }
        assert D.coeffs[1].evaluate(vals) == 0
        assert D.coeffs[2].evaluate(vals) == 0
        assert D.coeffs[3].evaluate(vals) != 0


def test_cleared_partial_solution_is_a1_squared_times_the_substitution():
    # the denominator-free polynomial agrees with a1^2 * D_k evaluated at
    # gamma = a2^2 beta / a1^2, c1 = c2 beta, at random rational points
    D = rigidity_defect(3)
    rng = random.Random(5)
    for k in (1, 2, 3):
        cleared = rigidity._clear_partial(D.coeffs[k])
        assert not _uses(cleared, "gamma") and not _uses(cleared, "c1")
        for _ in range(3):
            a1, a2, beta, c2 = (F(rng.randrange(1, 9), rng.randrange(1, 5)) for _ in range(4))
            vals = {"a1": a1, "a2": a2, "beta": beta, "c2": c2}
            direct = D.coeffs[k].evaluate(
                dict(vals, c1=c2 * beta, gamma=a2**2 * beta / a1**2)
            )
            assert cleared.evaluate(dict(vals, c1=F(0), gamma=F(0))) == a1**2 * direct


def test_partial_solution_rejects_a_gamma_squared_term(monkeypatch):
    D = rigidity_defect(3)
    coeffs = list(D.coeffs)
    coeffs[2] = coeffs[2] + MultiPoly.variable("gamma", DEFECT_VARS) ** 2
    defect = TruncSeries(D.var, D.order, coeffs)
    monkeypatch.setattr(rigidity, "rigidity_defect", lambda order: defect)
    with pytest.raises(SeriesInconsistency, match="gamma-degree 2"):
        check_partial_solution()


@pytest.mark.parametrize("case_id", ["beta_ratio", "a2_one", "a2_minus_one", "c1_zero"])
def test_table_cases(case_id):
    rep = verify_table_case(case_id)
    assert rep.ok, rep
    assert rep.random_trials == 25
    assert rep.violations_detected == 25
    assert all(ok for _name, ok in rep.positive_checks)


def test_table_case_orders():
    assert verify_table_case("beta_ratio").order == 7
    assert verify_table_case("a2_one").order == 8
    assert verify_table_case("a2_minus_one").order == 8
    assert verify_table_case("c1_zero").order == 13


def test_unknown_case_rejected():
    with pytest.raises(KeyError):
        verify_table_case("nonsense")


# sha256 over the distinct `values` dicts each check passes to
# MultiPoly.evaluate, one "name=value,..." line per dict in first-use order
# (26 per case: the trivial solution and 25 draws; 5 partial witnesses).
# Recorded from the per-case if/elif code the case table replaced, so the
# table keeps every rng draw and its order.
_SPECIALIZATIONS_SHA256 = {
    "beta_ratio": "a91785e8c068e7d3599fdcd4493b8e86f7ff3ad683a24724f46a00719bc7ccc7",
    "a2_one": "cfc0933c2a79c2907ebef37a4b7bbd6463104fd6600a4f049e179b41a7cf7857",
    "a2_minus_one": "81a19b7042ad0fbaf49b16f2a13d4f5e59532f5b9dfcb934e880bebd3b89d7e3",
    "c1_zero": "31a049066fea5fa4d09e8fabd4f7310461ac94bd91d559ee431b5be1ddd67bec",
    "partial": "46223faa5e6f436032855ad9de0a60eb87a54d5c62e4ae349ddd84584c97241f",
}


@pytest.mark.parametrize("check", sorted(_SPECIALIZATIONS_SHA256))
def test_specializations_keep_their_draw_order(monkeypatch, check):
    seen = []
    real_evaluate = MultiPoly.evaluate

    def recording(self, values):
        line = ",".join(f"{name}={values[name]}" for name in sorted(values))
        if line not in seen:
            seen.append(line)
        return real_evaluate(self, values)

    monkeypatch.setattr(MultiPoly, "evaluate", recording)
    if check == "partial":
        check_partial_solution()
    else:
        verify_table_case(check)
    assert len(seen) == (5 if check == "partial" else 26)
    digest = hashlib.sha256("\n".join(seen).encode()).hexdigest()
    assert digest == _SPECIALIZATIONS_SHA256[check]


def test_sigma_agrees_with_reversion_route():
    # sigma is solved triangularly from sigma(chi_plus) = chi_minus; at a
    # modest order the classical route (revert chi_plus, compose) must give
    # the identical exact coefficients.
    from henonlocus.rigidity import chart_series

    chart = chart_series(7)
    sigma = sigma_series(7)
    via_reversion = compose(chart.chi_minus, reverse(chart.chi_plus))
    for k in range(8):
        assert sigma.coeffs[k] == via_reversion.coeffs[k]


@pytest.mark.parametrize("order", [2.0, 7.5, True])
def test_defect_refuses_a_non_integral_order_before_any_product(monkeypatch, order):
    # a float reached range() as a bare TypeError, and True ran as order 1
    def no_product(*args):
        raise AssertionError("a series product ran")

    for cls in (MultiPoly, TruncSeries):
        monkeypatch.setattr(cls, "__mul__", no_product)
        monkeypatch.setattr(cls, "__rmul__", no_product)
    for call in (rigidity_defect, defect_coefficients_text):
        with pytest.raises(ValueError, match=f"order must be an integer, got {re.escape(repr(order))}"):
            call(order)
