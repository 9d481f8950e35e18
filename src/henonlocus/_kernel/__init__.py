"""Kernel backend selection.

The compiled extension (built from _fastkernel.pyx) is used when present;
otherwise the pure-Python reference backend.  Set HENONLOCUS_PURE=1 to force
the reference backend regardless.
"""

import os

from . import reference
from .reference import NO_ESCAPE, OK, OVERFLOW, OVERFLOW_CAP

if os.environ.get("HENONLOCUS_PURE"):
    _impl = reference
    BACKEND = "reference"
else:
    try:
        from . import _fastkernel as _impl  # type: ignore[attr-defined]

        BACKEND = "compiled"
    except ImportError:
        _impl = reference
        BACKEND = "reference"

phi_plus_eval = _impl.phi_plus_eval
phi_minus_eval = _impl.phi_minus_eval
horner = reference.horner
horner_with_deriv = reference.horner_with_deriv
