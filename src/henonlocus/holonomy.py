"""Normalized escape coordinates psi+/-, leaf membership, and monodromy.

psi+ is phi+ itself; psi- is eta * phi- with eta^(d-1) = 1/a (principal
branch, fixed once per map), which turns the Jacobian-weighted recursion
of phi- into the clean psi- o f^(-1) = psi-^d.

Two points of the plus escape region lie on the same leaf of the plus
foliation iff psi+(z1)/psi+(z2) is a d^n-th root of unity for some n --
a branch-independent criterion, since different determinations of psi+
differ by exactly such roots.  The witness returned is the nearest root
(smallest n first).  The minus side is symmetric.

The monodromy of a primary component H_c is realized concretely: in the
psi+ coordinate, which identifies H_c with the outside of the closed unit
disk, holonomy along plus-foliation leaves acts by z -> omega z with
omega^(d^n) = 1.  monodromy_orbit materializes the orbit of a point by
theta-continuation along H_c (each orbit point re-certified on the locus
by the tangency condition).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import List, Optional

from .dynamics import HenonMap, Point
from .errors import ContinuationFailure, DegenerateJacobian
from .escape import phi_minus, phi_plus
from .locus import CLOSURE_TOL, _theta_continuation

_LEAF_TOL = 1e-6  # |ratio - omega| accepted as a leaf witness
MAX_EXPONENT = 8  # largest n of a d^n-th root witness, and of a monodromy orbit


@dataclass(frozen=True)
class PsiPair:
    psi_plus: complex
    psi_minus: complex
    eta: complex  # eta^(d-1) = 1/a, principal branch


@dataclass(frozen=True)
class RootOfUnityWitness:
    omega: complex
    order_exponent: int  # omega^(d^order_exponent) = 1


def eta_constant(henon: HenonMap) -> complex:
    """Principal a^(-1/(d-1)); undefined at a = 0."""
    if henon.a == 0:
        raise DegenerateJacobian("eta = a^(-1/(d-1)) undefined at a = 0")
    return cmath.exp(-cmath.log(henon.a) / (henon.degree - 1))


def psi_pair(henon: HenonMap, z: Point) -> PsiPair:
    """Both normalized coordinates at z (escape errors propagate)."""
    eta = eta_constant(henon)
    plus = phi_plus(henon, z).value
    minus = eta * phi_minus(henon, z).value
    return PsiPair(psi_plus=plus, psi_minus=minus, eta=eta)


def _nearest_root_witness(ratio: complex, d: int) -> Optional[RootOfUnityWitness]:
    """The d^n-th root of unity within _LEAF_TOL of ratio, n = 0..MAX_EXPONENT minimal."""
    if abs(abs(ratio) - 1.0) > _LEAF_TOL:
        return None
    turns = cmath.phase(ratio) / (2.0 * math.pi)
    for n in range(MAX_EXPONENT + 1):
        order = d**n
        k = round(turns * order)
        omega = cmath.exp(2j * math.pi * k / order)
        if abs(ratio - omega) < _LEAF_TOL:
            return RootOfUnityWitness(omega=omega, order_exponent=n)
    return None


def same_leaf_plus(
    henon: HenonMap, z1: Point, z2: Point
) -> Optional[RootOfUnityWitness]:
    """Witness that z1, z2 share a plus-foliation leaf, or None.

    The psi+ ratio is branch-independent as a member of the root-of-unity
    group, so the kernel's principal determinations suffice; the witness
    is the nearest d^n-th root (n minimal, at most MAX_EXPONENT)."""
    ratio = phi_plus(henon, z1).value / phi_plus(henon, z2).value
    return _nearest_root_witness(ratio, henon.degree)


def require_exponent(n: int) -> None:
    """ValueError unless 0 <= n <= MAX_EXPONENT, checked before any locus work."""
    if not 0 <= n <= MAX_EXPONENT:
        raise ValueError(f"monodromy exponent must be in 0..{MAX_EXPONENT}, got {n}")


def monodromy_orbit(henon: HenonMap, c: complex, z: Point, n: int) -> List[Point]:
    """The d^n monodromy translates of z on the component through c.

    The covering certificate's theta-continuation (a third-order predictor,
    then the 2-D Newton with a chord tangency row) moves the psi+ coordinate
    around the circle through psi+(z), from z itself as the solved theta = 0
    point.  The orbit collects the points over omega * psi+(z) for all omega
    with omega^(d^n) = 1; the 2-D Newton enforces the tangency condition, so
    every returned point is certified on the component.  The continuation
    must return to z within CLOSURE_TOL, else ContinuationFailure.  The orbit
    starts at z itself.  n runs from 0 to MAX_EXPONENT, the largest exponent
    a leaf witness resolves (ValueError otherwise, before any work).
    """
    require_exponent(n)
    z = Point(complex(z[0]), complex(z[1]))
    if n == 0:
        return [z]
    base = phi_plus(henon, z)
    if abs(base.value) <= 1.0:
        raise ValueError("need |psi+(z)| > 1 on the component")
    count = henon.degree**n
    sub = max(8, 64 // count)  # continuation steps between orbit points
    steps = count * sub
    depth = base.depth + 1  # frozen V+ iterate for the branch-free target

    orbit = [z]
    continuation = _theta_continuation(henon, z.x, z.y, base.log_value, steps, depth, 1)
    for j, (x, y, _) in enumerate(continuation, start=1):
        if j % sub == 0 and j < steps:
            orbit.append(Point(x, y))
    closure = abs(x - z.x) + abs(y - z.y)
    if closure > CLOSURE_TOL:
        raise ContinuationFailure(
            f"orbit continuation did not close up (gap {closure:.3e})"
        )
    return orbit
