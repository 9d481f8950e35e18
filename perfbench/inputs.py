"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of the seed and returns plain data
(coefficient tuples, complex numbers, ranges); the library objects are
built from it during set-up.  Every generated map meets the package's
documented preconditions: p is monic of degree 2 or 3 and |a| < R = 0.125,
with some maps at a = 0.

Field tiles cycle through fixed strata and certify maps follow one fixed
sequence; the seed jitters each value by a few percent.  A run is too
short to average over widely varied inputs, so this keeps every seed's mix
of cheap and costly operations the same.  The timed inputs avoid the
regions where the package refuses an op; `known_refusals` lists fixed
inputs from those regions, which a run probes once after timing.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass

R_JACOBIAN = 0.125  # the documented bound |a| < R
GRID = 64  # the CLI's default green-grid size
CHECK_PIXELS = 6  # pixels of each tile recomputed by the scalar path

# (kind, pixel axis, degree, Jacobian is zero): each field cycle renders one
# tile of every stratum, in a seeded order.  green-plus varies along x and
# green-minus along y; the other axis gives near-constant tiles (at a = 0
# forward escape does not depend on y at all), whose cost is all or nothing.
# The seed only jitters each stratum's map and window a little, and the
# cycle length is odd: the median tile then falls inside one stratum's
# block rather than between two strata of different cost.
FIELD_STRATA = (
    ("green-minus", "y", 3, False),
    ("green-minus", "y", 2, False),
    ("green-plus", "x", 3, True),
    ("green-plus", "x", 2, False),
    ("tangency", "x", 2, False),
)

# Certify cycle: period-2-bulb quadratic, main-cardioid quadratic,
# quadratic at a = 0, cubic.  Quadratics keep |a| <= 0.01 because the
# gradient-index certificate (index 1 around |v| = 0.02) only holds there:
# at |a| >= 0.015 the package returns index -1 instead of refusing.
CERTIFY_STRATA = ("bulb", "cardioid", "degenerate", "cubic")
QUAD_A = (0.003, 0.01)
# Cubics x^3 - 3 kappa^2 x alternate between these (kappa, |a|), where every
# certify op passes at every phase of a.
CUBIC_CYCLE = ((0.75, 0.06), (0.9, 0.1))
# Main-cardioid multipliers mu keep their phase within this many turns of
# 1/2 (Re c < 0): local_stable_graph refuses for Re c >~ 0.
CARDIOID_TURNS = (0.36, 0.64)


@dataclass(frozen=True)
class MapSpec:
    coeffs: tuple  # monic p, lowest degree first
    a: complex


@dataclass(frozen=True)
class TileSpec:
    map: MapSpec
    kind: str
    slice_axis: str  # the pixel coordinate; the other one is pinned
    slice_value: complex
    re_range: tuple
    im_range: tuple
    check_pixels: tuple  # (ix, iy) pairs recomputed by the scalar path


@dataclass(frozen=True)
class CertifySpec:
    map: MapSpec
    stratum: str
    c: complex  # critical point whose primary component is certified
    holonomy_alpha_factor: float  # locate at x = factor * alpha
    fixed_point: complex | None  # repelling fixed point (quadratics only)


def _rng(seed: int, stream: str) -> random.Random:
    return random.Random(f"{stream}:{seed}")


def _phase(rng: random.Random) -> complex:
    return cmath.exp(2j * math.pi * rng.random())


def _round(z: complex) -> complex:
    return complex(round(z.real, 6), round(z.imag, 6))


def _jacobian(rng: random.Random, lo: float, hi: float) -> complex:
    return _round(rng.uniform(lo, hi) * _phase(rng))


def _field_map(rng: random.Random, degree: int, degenerate: bool) -> MapSpec:
    if degree == 2:
        c = -0.6 + 0.03 * math.sqrt(rng.random()) * _phase(rng)
        coeffs = (c, 0j, 1 + 0j)
    else:
        b = -1.0 + 0.03 * math.sqrt(rng.random()) * _phase(rng)
        c0 = 0.02 * math.sqrt(rng.random()) * _phase(rng)
        coeffs = (c0, b, 0j, 1 + 0j)
    a = 0j if degenerate else _jacobian(rng, 0.04, 0.05)
    return MapSpec(coeffs, a)


def field_tiles(seed: int, count: int) -> list[TileSpec]:
    """The first `count` tiles of the field workload."""
    rng = _rng(seed, "field")
    tiles = []
    order = []
    for _ in range(count):
        if not order:
            order = list(FIELD_STRATA)
            rng.shuffle(order)
        kind, axis, degree, degenerate = order.pop()
        spec = _field_map(rng, degree, degenerate)
        centre = 0.05 * math.sqrt(rng.random()) * _phase(rng)
        half = rng.uniform(1.47, 1.53)
        pin = 0.1 * math.sqrt(rng.random()) * _phase(rng)
        pixels = tuple(
            (rng.randrange(GRID), rng.randrange(GRID)) for _ in range(CHECK_PIXELS)
        )
        tiles.append(
            TileSpec(
                map=spec,
                kind=kind,
                slice_axis=axis,
                slice_value=pin,
                re_range=(centre.real - half, centre.real + half),
                im_range=(centre.imag - half, centre.imag + half),
                check_pixels=pixels,
            )
        )
    return tiles


def _repelling_fixed_point(c: complex) -> complex:
    # Fixed points of x^2 + c are (1 +- sqrt(1 - 4c))/2; the "+" one has
    # multiplier 1 + sqrt(1 - 4c), of modulus > 1 on both regions used here.
    return (1 + cmath.sqrt(1 - 4 * c)) / 2


def _draw(base: random.Random, rng: random.Random, lo: float, hi: float) -> float:
    """A value in [lo, hi] fixed by `base`, moved by the seed by up to 2% of the range."""
    u = base.random() + 0.02 * (rng.random() - 0.5)
    return lo + (hi - lo) * min(max(u, 0.0), 1.0)


def certify_maps(seed: int, count: int) -> list[CertifySpec]:
    """The first `count` maps of the certify workload.

    A run certifies only about twenty maps, and an op's cost hinges on a
    few parameters (the multiplier for quadratics, |a| for cubics).
    Independent draws would give each seed its own mix of costs, so the
    maps follow one fixed sequence and the seed moves every parameter by
    a few percent.
    """
    base = random.Random("certify-base")
    rng = _rng(seed, "certify")

    def draw(lo, hi):
        return _draw(base, rng, lo, hi)

    def turn():
        return cmath.exp(2j * math.pi * draw(0.0, 1.0))

    out = []
    for i in range(count):
        stratum = CERTIFY_STRATA[i % len(CERTIFY_STRATA)]
        if stratum == "cubic":
            kappa, modulus = CUBIC_CYCLE[(i // len(CERTIFY_STRATA)) % len(CUBIC_CYCLE)]
            kappa *= 1 + 0.02 * (rng.random() - 0.5)
            coeffs = (0j, complex(-3 * kappa * kappa), 0j, 1 + 0j)
            crit = complex(kappa if base.random() < 0.5 else -kappa)
            a = _round(modulus * (1 + 0.02 * (rng.random() - 0.5)) * turn())
            fixed = None
        else:
            if stratum == "bulb" or (stratum == "degenerate" and base.random() < 0.5):
                # attracting 2-cycle: |c + 1| < 1/4
                c = -1 + 0.18 * math.sqrt(draw(0.0, 1.0)) * turn()
            else:
                # attracting fixed point with multiplier mu: c = mu/2 - mu^2/4
                mu = draw(0.3, 0.8) * cmath.exp(2j * math.pi * draw(*CARDIOID_TURNS))
                c = mu / 2 - mu * mu / 4
            coeffs = (_round(c), 0j, 1 + 0j)
            crit = 0j
            a = 0j if stratum == "degenerate" else _round(draw(*QUAD_A) * turn())
            fixed = _repelling_fixed_point(coeffs[0])
        out.append(
            CertifySpec(
                map=MapSpec(coeffs, a),
                stratum=stratum,
                c=crit,
                holonomy_alpha_factor=draw(1.3, 1.8),
                fixed_point=fixed,
            )
        )
    return out


def known_refusals() -> list[tuple[str, str, CertifySpec]]:
    """Certify ops the package refuses today, as (label, op name, spec).

    They are kept out of the timed loop, where every op must pass, and run
    once after it, so each run reports whether they still refuse.  The
    cover op is the first of the map's covers, at radius 2.
    """
    phase = cmath.exp(1j)

    def cubic(kappa, modulus):
        spec = MapSpec((0j, complex(-3 * kappa * kappa), 0j, 1 + 0j), _round(modulus * phase))
        return CertifySpec(spec, "cubic", complex(kappa), 1.5, None)

    c = 0.128 + 0j  # main cardioid, multiplier 0.3
    cardioid = CertifySpec(
        MapSpec((c, 0j, 1 + 0j), _round(0.003 * phase)), "cardioid", 0j, 1.5,
        _repelling_fixed_point(c),
    )
    return [
        ("trace x^3-3x |a|=0.01", "trace", cubic(1.0, 0.01)),
        ("trace x^3-0.75x |a|=0.03", "trace", cubic(0.5, 0.03)),
        ("cover rho=2 x^3-3x |a|=0.01", "cover", cubic(1.0, 0.01)),
        ("manifold c=0.128 |a|=0.003", "manifold", cardioid),
    ]
