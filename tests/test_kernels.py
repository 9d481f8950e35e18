"""Reference vs compiled kernel backends agree to rounding noise."""

import os
import pathlib
import random
import subprocess
import sys

import pytest

import henonlocus
from henonlocus._kernel import BACKEND, reference

try:
    from henonlocus._kernel import _fastkernel
except ImportError:
    _fastkernel = None

needs_compiled = pytest.mark.skipif(
    _fastkernel is None, reason="compiled kernel not built"
)

SQUARE = (0j, 0j, 1 + 0j)
BASIC = (-1 + 0j, 0j, 1 + 0j)
CUBIC = (0.1 + 0j, -0.5 + 0j, 0j, 1 + 0j)  # degree 3 exercises d > 2 paths

ALPHA = 3.0
CAP = 200
K = 48


def _plus_points(rng, count):
    pts = []
    for _ in range(count):
        # direct V+ entries, slow entries, and a few bounded orbits
        roll = rng.random()
        if roll < 0.5:
            x = rng.uniform(3.5, 60.0) * _ray(rng)
            y = rng.uniform(0.0, 0.9) * abs(x) * _ray(rng)
        elif roll < 0.85:
            x = rng.uniform(1.2, 2.4) * _ray(rng)
            y = rng.uniform(0.0, 1.0) * _ray(rng)
        else:
            x = rng.uniform(0.0, 0.6) * _ray(rng)
            y = rng.uniform(0.0, 0.6) * _ray(rng)
        pts.append((x, y))
    return pts


def _ray(rng):
    import cmath

    return cmath.exp(2j * cmath.pi * rng.random())


def _assert_close(left, right, tol=5e-13):
    status_l, depth_l, logphi_l, gx_l, gy_l, smax_l = left
    status_r, depth_r, logphi_r, gx_r, gy_r, smax_r = right
    assert status_l == status_r
    assert depth_l == depth_r
    assert abs(logphi_l - logphi_r) <= tol * (1.0 + abs(logphi_r))
    assert abs(gx_l - gx_r) <= tol * (1.0 + abs(gx_r))
    assert abs(gy_l - gy_r) <= tol * (1.0 + abs(gy_r))
    assert abs(smax_l - smax_r) <= tol * (1.0 + smax_r)


@needs_compiled
@pytest.mark.parametrize("coeffs,a", [
    (SQUARE, 0j),
    (SQUARE, 0.05 + 0j),
    (BASIC, 0.01 + 0j),
    (BASIC, 0.02 - 0.01j),
    (CUBIC, 0.03 + 0j),
])
def test_phi_plus_backends_agree(coeffs, a):
    rng = random.Random(hash((len(coeffs), complex(a).real)) & 0xFFFF)
    for x, y in _plus_points(rng, 60):
        ref = reference.phi_plus_eval(coeffs, a, x, y, K, ALPHA, CAP)
        fast = _fastkernel.phi_plus_eval(coeffs, a, x, y, K, ALPHA, CAP)
        _assert_close(fast, ref)


@needs_compiled
@pytest.mark.parametrize("coeffs,a", [
    (SQUARE, 0.05 + 0j),
    (BASIC, 0.01 + 0j),
    (BASIC, 0.02 - 0.01j),
    (CUBIC, 0.03 + 0j),
])
def test_phi_minus_backends_agree(coeffs, a):
    rng = random.Random(len(coeffs) * 31)
    for _ in range(60):
        # direct V- entries plus points that need pulling back
        if rng.random() < 0.6:
            y = rng.uniform(3.5, 60.0) * _ray(rng)
            x = rng.uniform(0.0, 0.9) * abs(y) * _ray(rng)
        else:
            x = rng.uniform(3.5, 8.0) * _ray(rng)
            y = rng.uniform(0.3, 1.4) * _ray(rng)
        ref = reference.phi_minus_eval(coeffs, a, x, y, K, ALPHA, CAP)
        fast = _fastkernel.phi_minus_eval(coeffs, a, x, y, K, ALPHA, CAP)
        _assert_close(fast, ref)


@needs_compiled
def test_no_escape_and_overflow_statuses_agree():
    # bounded orbit: the basilica's superattracting cycle
    ref = reference.phi_plus_eval(BASIC, 0.01 + 0j, 0j, 0j, K, ALPHA, CAP)
    fast = _fastkernel.phi_plus_eval(BASIC, 0.01 + 0j, 0j, 0j, K, ALPHA, CAP)
    assert ref == fast
    assert ref[0] == reference.NO_ESCAPE
    # y huge forces overflow before the plus iteration reaches V+
    big = 1e140
    ref = reference.phi_plus_eval(SQUARE, 1 + 0j, 0j, big + 0j, K, ALPHA, CAP)
    fast = _fastkernel.phi_plus_eval(SQUARE, 1 + 0j, 0j, big + 0j, K, ALPHA, CAP)
    assert ref == fast
    assert ref[0] == reference.OVERFLOW


def test_status_constants_match_reference():
    from henonlocus import _kernel

    assert (_kernel.OK, _kernel.NO_ESCAPE, _kernel.OVERFLOW) == (0, 1, 2)
    if _fastkernel is not None:
        assert (_fastkernel.OK, _fastkernel.NO_ESCAPE, _fastkernel.OVERFLOW) == (0, 1, 2)


def test_backend_reports_its_name():
    assert BACKEND in ("compiled", "reference")
    if _fastkernel is not None and not os.environ.get("HENONLOCUS_PURE"):
        assert BACKEND == "compiled"


def test_pure_env_var_forces_reference_backend():
    code = (
        "import henonlocus._kernel as k; "
        "print(k.BACKEND); "
        "print(k.phi_plus_eval.__module__)"
    )
    src = str(pathlib.Path(henonlocus.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, HENONLOCUS_PURE="1", PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    ).stdout.split()
    assert out[0] == "reference"
    assert out[1] == "henonlocus._kernel.reference"
