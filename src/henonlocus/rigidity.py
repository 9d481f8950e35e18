"""Exact chart expansions at infinity and the quadratic transition-map defect.

Everything here is formal and exact (see :mod:`henonlocus.series`).  The
map is f(x,y) = (p(x) - a y, x) with p monic, p(x) = x^d + sum q_i x^i,
and the objects computed are the ones the numeric modules approximate:

``phi_series``
    the unit factor h of the reciprocal escape coordinate.  In the chart
    u = 1/x the forward coordinate is  1/phi_plus = u * h_plus(u, y), where
    h_plus = prod_k (1 + s_k)^(-1/d^k) and 1 + s_k = X_k / X_{k-1}^d for the
    rescaled forward orbit X_k(u, y) = u^(d^k) x_k(1/u, y).  In the chart
    v = 1/y the backward coordinate is 1/phi_minus = v * h_minus(x, v) with
    the a-weighted backward orbit V_k = v^(d^k) a^(e_k) y_{-k},
    e_k = (d^k - 1)/(d - 1).

``locus_series``
    the branch y = Y(u) of the critical locus through (u, y) = (0, crit),
    for an order-one critical point crit of p.  The locus is the vanishing
    of w(u,y) = [the wedge of the two foliation differentials] / u^2, which
    takes the form -p'(y) - u * H(u,y); Y is found by a formal Newton
    iteration from Y = crit at doubling precision (rounds at orders 1, 3,
    7, 13 at order 13, as ``TruncSeries.inverse`` runs), followed by one
    check that the residual is exactly zero at the full order; the
    arithmetic is exact and w_y(0, crit) = -p''(crit) is a nonzero
    rational, so that check identifies the branch, and a nonzero residual
    is refused.  One builder forms w together with the chart pieces it
    is made of, h_plus(u, y), A = h_minus(y, au/L) and 1/L with
    L = u p(y) - 1, so the locus and the charts are derived once.

``chart_series`` / ``sigma_series`` / ``rigidity_defect``
    d = 2 only, p = x^2 + c.  chi_plus(u) = u h_plus(u, Y(u)) and
    chi_minus(u) = a^2 u A(u, Y(u)) / L(u, Y(u)) are the two leaf-space
    charts along the locus branch, read off those pieces at y = Y(u);
    sigma = chi_minus o chi_plus^(-1) is their transition.  The defect
    D(z) = sigma_g(beta z) - gamma sigma_f(z), with the f-copy in (a1, c1)
    and the g-copy in (a2, c2), is returned as a series in z and starts

        (gamma a1^2 - beta a2^2) z + (gamma a1^2 c1 - beta^2 a2^2 c2) z^2 + ...

    No denominators are cleared: with these charts the natural Taylor
    coefficients are already polynomial in all six variables.

``check_partial_solution`` / ``verify_table_case``
    the vanishing analysis of D: substituting gamma = (a2^2/a1^2) beta and
    c1 = c2 beta kills the first two coefficients identically, and the four
    constraint cases are certified by exact substitution (cube roots of
    unity live in Q[beta]/(beta^2+beta+1)) plus randomized nonvanishing
    witnesses for everything outside the solution set.  The cases are one
    table, ``_CASES``: each row holds the order checked, the trivial
    solution, the cube-root family (if any) and the draw of its witnesses,
    and every numeric specialization is built by ``_specialization``.  The
    partial solution is certified in the one polynomial coefficient ring of
    :mod:`henonlocus.series` by clearing its denominator a1^2: each D_k is
    of degree at most 1 in gamma, so a1^2 D_k at that gamma is the
    polynomial a1^2 [gamma^0]D_k + a2^2 beta [gamma^1]D_k.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, wraps
from typing import Callable, Sequence, Tuple

from .errors import DegenerateCriticalPoint, SeriesInconsistency, require_integer
from .series import MultiPoly, TruncSeries

CHART_VARS = ("a", "c", "x", "y")
SIGMA_VARS = ("a", "c")
DEFECT_VARS = ("a1", "c1", "a2", "c2", "beta", "gamma")


def quadratic_q() -> Tuple[MultiPoly, MultiPoly]:
    """q-coefficients of p(x) = x^2 + c over the chart ring: (c, 0)."""
    return (MultiPoly.variable("c", CHART_VARS), MultiPoly.zero(CHART_VARS))


def _p_of(q_coeffs: Sequence[MultiPoly], name: str) -> MultiPoly:
    """p(name) = name^d + sum q_i name^i as a chart-ring polynomial."""
    ring = q_coeffs[0].vars
    t = MultiPoly.variable(name, ring)
    p = t ** len(q_coeffs)
    for i, qi in enumerate(q_coeffs):
        if not qi.is_zero():
            p = p + qi * t**i
    return p


# --------------------------------------------------------------- h+ and h-


def phi_series(q_coeffs: Sequence[MultiPoly], side: str, order: int) -> TruncSeries:
    """The unit factor h(+/-) as an exact series in u (plus) or v (minus).

    Telescoping factors are included for every k with d^(k-1) <= order;
    later factors are 1 + O(order+1) and contribute nothing.
    """
    q = tuple(q_coeffs)
    d = len(q)
    if d < 2:
        raise ValueError("p must have degree at least 2")
    ring = q[0].vars
    one = MultiPoly.const(Fraction(1), ring)
    a = MultiPoly.variable("a", ring)
    if side == "plus":
        var = "u"
        w0 = a * MultiPoly.variable("y", ring)
    elif side == "minus":
        var = "v"
        w0 = MultiPoly.variable("x", ring)
    else:
        raise ValueError(f"side must be 'plus' or 'minus', not {side!r}")

    N = order
    e = [0]
    while len(e) < 40:
        e.append(d * e[-1] + 1)  # e_k = (d^k - 1)/(d - 1)

    # X_1 = 1 + sum_i q_i t^(d-i) - w0 t^d  (w0 = a*y forward, x backward)
    first = TruncSeries.from_poly(one, var, N)
    for i, qi in enumerate(q):
        if not qi.is_zero():
            first = first + TruncSeries.monomial(qi, d - i, var, N)
    first = first - TruncSeries.monomial(w0, d, var, N)

    h = first.pow_rational(Fraction(-1, d))
    x_prev2 = TruncSeries.from_poly(one, var, N)  # X_0 = t * (1/t) = 1
    x_prev = first
    k = 2
    while d ** (k - 1) <= N:
        powers = [TruncSeries.from_poly(one, var, N)]
        for _ in range(d):
            powers.append(powers[-1] * x_prev)
        x_k = powers[d]
        for i, qi in enumerate(q):
            expo = d ** (k - 1) * (d - i)
            if qi.is_zero() or expo > N:
                continue
            coeff = qi if side == "plus" else qi * a ** ((d - i) * e[k - 1])
            x_k = x_k + powers[i] * TruncSeries.monomial(coeff, expo, var, N)
        expo = d**k - d ** (k - 2)
        if expo <= N:
            coeff = a if side == "plus" else a ** (d * e[k - 1] - e[k - 2])
            x_k = x_k - x_prev2 * TruncSeries.monomial(coeff, expo, var, N)
        ratio = x_k * powers[d].inverse()
        h = h * ratio.pow_rational(Fraction(-1, d**k))
        x_prev2, x_prev = x_prev, x_k
        k += 1
    return h


# ------------------------------------------------------------ critical locus


def _trim(series: TruncSeries, name: str, budget: int) -> TruncSeries:
    """Weighted truncation: in the locus pipeline the chart variable carries
    valuation 1 (y - crit = O(u)), so the coefficient of u^k only needs
    name-degree up to budget - k.  Products are truncated the same way as
    they are formed, by ``TruncSeries.mul_weighted``; this trims inputs."""
    return TruncSeries(
        series.var,
        series.order,
        [c.truncate_var(name, max(budget - k, 0)) for k, c in enumerate(series.coeffs)],
    )


def _compose_shared(
    outers: Sequence[TruncSeries], inner: TruncSeries, name: str, budget: int
) -> list:
    """outer(inner) with weighted truncation for every outer series, from one
    set of powers of inner.

    The trimmed powers inner^k (k = 0..N) are formed once by
    ``mul_weighted``, and each composition is the sum of c_k inner^k over
    the coefficients c_k of its outer series, each taken as a constant
    series.  Weighted truncation (budget >= 0) drops a monomial ideal, so
    this is the same series as Horner's rule truncated at every step: N
    products by inner in all, where Horner makes N per outer series.
    """
    ring = inner.coeffs[0].vars
    zero = MultiPoly.zero(ring)
    power = TruncSeries.from_poly(MultiPoly.const(1, ring), inner.var, inner.order)
    powers = [power]
    for _ in range(inner.order):
        power = power.mul_weighted(inner, name, budget)
        powers.append(power)
    pieces = []
    for outer in outers:
        total = TruncSeries.from_poly(zero, inner.var, inner.order)
        for c, power in zip(outer.coeffs, powers):
            if not c.is_zero():
                total = total + power.mul_weighted(c, name, budget)
        pieces.append(total)
    return pieces


def _charts(q: Tuple[MultiPoly, ...], crit: MultiPoly, order: int):
    """The locus defining function w(u, y) = (wedge form)/u^2 and the chart
    pieces it is built from, with y measuring the offset from crit.

    Returns (w, h_plus, A, L_inv): w exact through the order; h_plus(u, y),
    A = h_minus(y, a u/L) and 1/L with L = u p(y) - 1 exact through order + 2.
    All are trimmed to weighted degree deg_u + deg_y <= their order.  The
    backward pieces h_minus, d h_minus/dy and d h_minus/dv are composed with
    v~ = a u / L by one ``_compose_shared`` call, from one set of trimmed
    powers of v~, exact for the same reason as every other weighted
    truncation here (it drops a monomial ideal).  crit
    must be an order-one critical point of p (p'(crit) = 0 identically and
    p''(crit) an invertible rational constant), and the order must be at
    least deg p - 1, the y-degree of w(0, y) = -p'(y).
    """
    if order < len(q) - 1:
        raise ValueError(f"locus series order {order} is below deg p - 1 = {len(q) - 1}")
    ring = q[0].vars
    yv = MultiPoly.variable("y", ring)
    recenter = {"y": crit + yv}
    p_y = _p_of(q, "y").substitute(recenter, ring)
    dp_y = p_y.derivative("y")  # p'(crit) + p''(crit) y + ...
    if not dp_y.coeff_of("y", 0).is_zero():
        raise DegenerateCriticalPoint(f"{crit!r} is not a critical point")
    d2p_at = dp_y.coeff_of("y", 1)
    if not (d2p_at.is_constant() and not d2p_at.is_zero()):
        raise DegenerateCriticalPoint(
            f"p''(crit) = {d2p_at!r} is not an invertible constant"
        )

    N = order + 2  # the division by u^2 costs two orders
    one = MultiPoly.const(Fraction(1), ring)
    a = MultiPoly.variable("a", ring)

    hp = phi_series(q, "plus", N).map_coeffs(lambda p: p.substitute(recenter, ring))
    hp = _trim(hp, "y", N)
    hm = phi_series(q, "minus", N)
    # the backward chart is entered through f^{-1}: x~ = y, v~ = a u / L with
    # L = u p(y) - 1; recentring turns the x-dependence into y-dependence
    hm = hm.map_coeffs(lambda p: p.substitute({"x": crit + yv}, ring))
    hm = _trim(hm, "y", N)
    hm_x = hm.map_coeffs(lambda p: p.derivative("y"))
    hm_v = hm.derivative()

    lam = TruncSeries.monomial(p_y, 1, "u", N) - one
    lam_inv = _trim(lam.inverse(), "y", N)
    li2 = lam_inv.mul_weighted(lam_inv, "y", N)
    li3 = li2.mul_weighted(lam_inv, "y", N)
    vtil = (lam_inv * a).shift_up()

    # A = h_minus(y, vtil) and the two partials B_x, B_v at the same point,
    # from one set of powers of vtil
    A, Bx, Bv = _compose_shared((hm, hm_x, hm_v), vtil, "y", N)

    P_u = hp + hp.derivative().shift_up()
    P_y = hp.map_coeffs(lambda p: p.derivative("y")).shift_up()

    # every truncation below is a ring map (it drops a monomial ideal), so
    # sharing the trimmed li2*A and li3*Bv between the terms changes nothing
    li2_A = li2.mul_weighted(A, "y", N)
    li3_Bv = li3.mul_weighted(Bv, "y", N)
    term1 = -(li2_A.mul_weighted(dp_y, "y", N).shift_up().shift_up())
    term2 = lam_inv.mul_weighted(Bx, "y", N).shift_up()
    term3 = -(li3_Bv.mul_weighted(dp_y * a, "y", N).shift_up().shift_up().shift_up())
    g2 = li2_A + li3_Bv.shift_up() * a
    T = P_u.mul_weighted(term1 + term2 + term3, "y", N) + P_y.mul_weighted(g2, "y", N)

    if not (T.coeffs[0].is_zero() and T.coeffs[1].is_zero()):
        raise SeriesInconsistency("wedge form does not vanish to order u^2")
    w = T.shift_down(2).truncate(order)
    if w.coeffs[0] != -dp_y:
        raise SeriesInconsistency("w(0, y) != -p'(y): chart assembly is inconsistent")
    return w, hp, A, lam_inv


def _branch(w: TruncSeries, crit: MultiPoly) -> TruncSeries:
    """The root y = Y(u) of w(u, y - crit) with Y(0) = crit, by formal Newton
    from Y = crit at doubling precision, checked once.

    Z = Y - crit exact through order n - 1 becomes exact through 2n - 1 in
    one Newton step, so round i runs at order min(2 prev + 1, N) (1, 3, 7,
    13 at N = 13) on w and w_y truncated there, with Z extended by zeros.
    w_y(0, crit) = -p''(crit) is a nonzero rational, so w(u, Z) = 0 has one
    root with Z(0) = 0; the arithmetic is exact, so one zero-residual check
    at the full order N identifies it, and anything else is refused."""
    N = w.order
    wy = w.map_coeffs(lambda p_: p_.derivative("y"))
    zero = MultiPoly.zero(crit.vars)
    Z = TruncSeries.from_poly(zero, "u", 0)
    while Z.order < N:
        m = min(2 * Z.order + 1, N)
        Z = TruncSeries("u", m, Z.coeffs + (zero,) * (m - Z.order))
        resid = w.truncate(m).substitute_coeff_var("y", Z)
        Z = Z - resid * wy.truncate(m).substitute_coeff_var("y", Z).inverse()
    if not w.substitute_coeff_var("y", Z).is_zero():
        raise SeriesInconsistency("formal Newton failed to converge")
    return Z + crit


def locus_series(
    q_coeffs: Sequence[MultiPoly], crit: MultiPoly, order: int
) -> TruncSeries:
    """The locus branch y = Y(u) through (0, crit), exact through the order.

    crit must be an order-one critical point of p and the order at least
    deg p - 1 (see ``_charts``, which refuses otherwise).
    """
    return _branch(_charts(tuple(q_coeffs), crit, order)[0], crit)


# ----------------------------------------------------- charts and sigma (d=2)


@dataclass(frozen=True)
class ChartSeries:
    """Leaf-space charts along the locus branch at infinity (d = 2)."""

    chi_plus: TruncSeries
    chi_minus: TruncSeries


def _highest_order_kept(compute):
    """Keep the highest-order series computed in the process and serve every
    lower order as its truncation (only ``rigidity_defect``'s is kept).

    Exact, because every coefficient through order n is independent of the
    truncation order.  A non-integral order is refused (ValueError) before
    any work; orders below 1 (under deg p - 1 for the quadratic family) go
    to compute, which refuses them.  ``cache_clear()`` drops the kept series.
    """
    kept = None  # (order, value)

    @wraps(compute)
    def serve(order):
        nonlocal kept
        require_integer("order", order)
        if kept is not None and 1 <= order <= kept[0]:
            return kept[1] if order == kept[0] else kept[1].truncate(order)
        kept = (order, compute(order))  # a higher order: compute refuses those below 1
        return kept[1]

    def cache_clear():
        nonlocal kept
        kept = None

    serve.cache_clear = cache_clear
    return serve


def chart_series(order: int) -> ChartSeries:
    """chi_plus and chi_minus for the quadratic family p = x^2 + c, in (a, c).

    Built from the locus pieces at crit = 0 along the branch y = Y(u):
    chi_plus = u h_plus(u, Y) and chi_minus = a^2 u A(u, Y) / L(u, Y).  Each
    piece is exact to weighted degree order + 2 and Y = O(u), so truncating
    it to the order and then substituting y = Y(u) is exact.
    """
    crit = MultiPoly.zero(CHART_VARS)
    w, hp, A, lam_inv = _charts(quadratic_q(), crit, order)
    Y = _branch(w, crit)
    a = MultiPoly.variable("a", CHART_VARS)

    def at_Y(series: TruncSeries) -> TruncSeries:
        return series.truncate(order).substitute_coeff_var("y", Y)

    chi_plus = at_Y(hp).shift_up()
    chi_minus = (at_Y(A) * at_Y(lam_inv)).shift_up() * (a * a)

    def project(series: TruncSeries) -> TruncSeries:
        return series.map_coeffs(lambda p_: p_.substitute({}, SIGMA_VARS))

    chi_plus, chi_minus = project(chi_plus), project(chi_minus)
    a2 = MultiPoly.variable("a", SIGMA_VARS) ** 2
    if not (
        chi_plus.coeffs[0].is_zero()
        and chi_plus.coeffs[1] == MultiPoly.const(Fraction(1), SIGMA_VARS)
    ):
        raise SeriesInconsistency("chi_plus does not start u + O(u^2)")
    if not (chi_minus.coeffs[0].is_zero() and chi_minus.coeffs[1] == -a2):
        raise SeriesInconsistency("chi_minus does not start -a^2 u + O(u^2)")
    return ChartSeries(chi_plus=chi_plus, chi_minus=chi_minus)


def sigma_series(order: int) -> TruncSeries:
    """sigma = chi_minus o chi_plus^(-1) for p = x^2 + c, exact through order.

    Solved triangularly from sigma(chi_plus(u)) = chi_minus(u): since
    chi_plus = u + O(u^2), the k-th power of chi_plus is u^k + O(u^(k+1))
    and each coefficient of sigma is determined with no division.  (This is
    the same series as reverting chi_plus and composing; see the test suite
    for the cross-check.)
    """
    chart = chart_series(order)
    zero = MultiPoly.zero(SIGMA_VARS)
    one = MultiPoly.const(Fraction(1), SIGMA_VARS)
    power = TruncSeries.from_poly(one, "u", order)  # chi_plus^k
    powers = [power]
    for _ in range(order):
        power = power * chart.chi_plus
        powers.append(power)
    sigma = [zero] * (order + 1)
    for m in range(1, order + 1):
        acc = chart.chi_minus.coeffs[m]
        for k in range(1, m):
            acc = acc - sigma[k] * powers[k].coeffs[m]
        sigma[m] = acc  # powers[m].coeffs[m] == 1
    return TruncSeries("z", order, sigma)


@_highest_order_kept
def rigidity_defect(order: int) -> TruncSeries:
    """D(z) = sigma_g(beta z) - gamma sigma_f(z), f in (a1,c1), g in (a2,c2)."""
    sig = sigma_series(order)
    ring = DEFECT_VARS
    beta = MultiPoly.variable("beta", ring)
    gamma = MultiPoly.variable("gamma", ring)
    f_map = {"a": MultiPoly.variable("a1", ring), "c": MultiPoly.variable("c1", ring)}
    g_map = {"a": MultiPoly.variable("a2", ring), "c": MultiPoly.variable("c2", ring)}
    coeffs = [MultiPoly.zero(ring)]
    for k in range(1, order + 1):
        sf = sig.coeffs[k].substitute(f_map, ring)
        sg = sig.coeffs[k].substitute(g_map, ring)
        coeffs.append(sg * beta**k - gamma * sf)
    D = TruncSeries("z", order, coeffs)
    if not D.coeffs[0].is_zero():
        raise SeriesInconsistency("the defect has a nonzero constant term")
    return D


# The chart and sigma series are reached only on a defect miss and keep
# nothing; cache_clear stays for callers that clear every stage (perfbench).
chart_series.cache_clear = sigma_series.cache_clear = lambda: None


def defect_coefficients_text(order: int = 13) -> str:
    """Canonical text of the defect coefficients (golden-file format)."""
    D = rigidity_defect(order)
    lines = [f"z^{k}: {D.coeffs[k]}" for k in range(1, order + 1)]
    return "\n".join(lines) + "\n"


# ------------------------------------------------------- vanishing analysis


@dataclass(frozen=True)
class PartialSolutionReport:
    ok: bool
    annihilated: Tuple[int, ...]
    witnesses: int


def _clear_partial(coeff: MultiPoly) -> MultiPoly:
    """a1^2 * coeff at gamma = (a2^2/a1^2) beta and c1 = c2 beta.

    a1^2 is a nonzero polynomial, so the result is zero exactly when the
    substituted coefficient is.
    """
    degree = coeff.max_power("gamma")
    if degree > 1:
        raise SeriesInconsistency(f"a defect coefficient has gamma-degree {degree} > 1")
    ring = DEFECT_VARS
    a1 = MultiPoly.variable("a1", ring)
    a2 = MultiPoly.variable("a2", ring)
    beta = MultiPoly.variable("beta", ring)
    c2 = MultiPoly.variable("c2", ring)
    g0, g1 = coeff.coeff_of("gamma", 0), coeff.coeff_of("gamma", 1)
    cleared = a1**2 * g0 + a2**2 * beta * g1
    return cleared.substitute({"c1": c2 * beta}, ring)


def _nonzero_fraction(rng: random.Random) -> Fraction:
    num = rng.choice([n for n in range(-9, 10) if n])
    return Fraction(num, rng.randrange(1, 5))


def _specialization(a1, a2, beta, c1) -> dict:
    """Values for all six defect variables on the partial solution:
    c2 = c1/beta and gamma = (a2^2/a1^2) beta."""
    return {
        "a1": a1,
        "a2": a2,
        "beta": beta,
        "c1": c1,
        "c2": c1 / beta,
        "gamma": a2**2 * beta / a1**2,
    }


def check_partial_solution() -> PartialSolutionReport:
    """gamma = (a2^2/a1^2) beta and c1 = c2 beta kill coefficients 1 and 2
    of D identically; five random rational specializations with c1 != 0
    witness that coefficient 3 survives."""
    D = rigidity_defect(3)
    z1, z2, z3 = (_clear_partial(D.coeffs[k]) for k in (1, 2, 3))
    ok = z1.is_zero() and z2.is_zero() and not z3.is_zero()

    rng = random.Random(20240817)
    witnesses = 0
    for _ in range(5):
        vals = _specialization(*(_nonzero_fraction(rng) for _ in range(4)))
        if (
            D.coeffs[1].evaluate(vals) == 0
            and D.coeffs[2].evaluate(vals) == 0
            and D.coeffs[3].evaluate(vals) != 0
        ):
            witnesses += 1
    return PartialSolutionReport(
        ok=ok and witnesses == 5, annihilated=(1, 2), witnesses=witnesses
    )


@dataclass(frozen=True)
class CaseReport:
    case_id: str
    order: int
    positive_checks: Tuple[Tuple[str, bool], ...]
    random_trials: int
    violations_detected: int
    ok: bool


_CUBE_RING = ("a1", "beta")


def _cube_root_vanish(D: TruncSeries, n: int, a) -> bool:
    """Substitute a1 = a2 = a, c1 = c2 = 0, gamma = beta and reduce modulo
    beta^2 + beta + 1; True when every coefficient through n dies."""
    m = {
        "a1": a,
        "a2": a,
        "c1": Fraction(0),
        "c2": Fraction(0),
        "gamma": MultiPoly.variable("beta", _CUBE_RING),
    }
    return all(
        D.coeffs[k].substitute(m, _CUBE_RING).reduce_cubic_root("beta").is_zero()
        for k in range(1, n + 1)
    )


def _draw_beta_ratio(rng: random.Random, trial: int) -> dict:
    # beta = (a1^2 - 1)/(a2^2 - 1) with c1 != 0, against the conclusion c1 = 0
    while True:
        a1, a2 = _nonzero_fraction(rng), _nonzero_fraction(rng)
        if a1**2 != 1 and a2**2 != 1 and a1**2 != a2**2:
            break
    return _specialization(a1, a2, (a1**2 - 1) / (a2**2 - 1), _nonzero_fraction(rng))


def _draw_unit_a2(a2: Fraction, rng: random.Random, trial: int) -> dict:
    # a2 = +-1 with c1 != 0, against the conclusion c1 = 0
    a1 = _nonzero_fraction(rng)
    beta = _nonzero_fraction(rng)
    return _specialization(a1, a2, beta, _nonzero_fraction(rng))


def _draw_c1_zero(rng: random.Random, trial: int) -> dict:
    # c1 = 0 against the conclusion "a1 = a2 and beta a cube root of unity":
    # a1 != a2 on even trials, a1 = a2 with rational beta != 1 on odd ones
    if trial % 2 == 0:
        while True:
            a1, a2 = _nonzero_fraction(rng), _nonzero_fraction(rng)
            if a1 != a2:
                break
        beta = _nonzero_fraction(rng)
    else:
        a1 = a2 = _nonzero_fraction(rng)
        while True:
            beta = _nonzero_fraction(rng)
            if beta != 1:
                break
    return _specialization(a1, a2, beta, Fraction(0))


@dataclass(frozen=True)
class _Case:
    """One row of the constraint-case table.

    D is checked through coefficient ``order``.  ``trivial`` is the (a, c)
    of the trivial solution f = g, beta = gamma = 1.  ``cube_root_a`` is the
    common value of a1 = a2 on the cube-root family (a rational, the free
    variable a1, or None when the case claims no such family).
    ``draw(rng, trial)`` returns a specialization on the case constraint and
    the partial solution that violates the case's conclusion.
    """

    order: int
    trivial: Tuple[Fraction, Fraction]
    cube_root_a: object
    draw: Callable[[random.Random, int], dict]


_CASES = {
    "beta_ratio": _Case(7, (Fraction(5, 2), Fraction(3, 7)), None, _draw_beta_ratio),
    "a2_one": _Case(
        8, (Fraction(1), Fraction(-4, 3)), Fraction(1), partial(_draw_unit_a2, Fraction(1))
    ),
    "a2_minus_one": _Case(
        8, (Fraction(-1), Fraction(7, 5)), Fraction(-1), partial(_draw_unit_a2, Fraction(-1))
    ),
    "c1_zero": _Case(
        13, (Fraction(9, 4), Fraction(0)), MultiPoly.variable("a1", _CUBE_RING), _draw_c1_zero
    ),
}


def verify_table_case(case_id: str) -> CaseReport:
    """Certify one row of the constraint-case analysis of D.

    Positive side: the solution set claimed for the case (always containing
    the trivial one, f = g with beta = gamma = 1, and where applicable the
    cube-root family a1 = a2, c1 = c2 = 0, gamma = beta, beta^2+beta+1 = 0)
    annihilates every coefficient through the case's order — exactly, with
    cube roots handled in the quotient ring.  Negative side: 25 random
    rational parameter choices satisfying the case constraint and the
    partial solution but violating the case's conclusion each leave some
    coefficient nonzero.  An unknown case_id raises KeyError.
    """
    case = _CASES[case_id]
    n = case.order
    D = rigidity_defect(n)
    a, c = case.trivial
    trivial = _specialization(a, a, Fraction(1), c)
    positives = [
        ("trivial_solution", all(D.coeffs[k].evaluate(trivial) == 0 for k in range(1, n + 1)))
    ]
    if case.cube_root_a is not None:
        positives.append(("cube_root_solution", _cube_root_vanish(D, n, case.cube_root_a)))

    rng = random.Random(f"table-{case_id}")
    trials = 25
    detected = 0
    for trial in range(trials):
        vals = case.draw(rng, trial)
        if any(D.coeffs[k].evaluate(vals) != 0 for k in range(1, n + 1)):
            detected += 1

    ok = all(flag for _name, flag in positives) and detected == trials
    return CaseReport(
        case_id=case_id,
        order=n,
        positive_checks=tuple(positives),
        random_trials=trials,
        violations_detected=detected,
        ok=ok,
    )
