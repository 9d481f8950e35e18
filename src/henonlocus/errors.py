"""Exception hierarchy shared across the package."""


class HenonLocusError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateJacobian(HenonLocusError):
    """Inverse map requested for a = 0."""


class CoordinateOverflow(HenonLocusError):
    """A point is not finite, or an iterate passed the kernel's overflow
    guard |x| or |y| > OVERFLOW_CAP^(1/d) (`_kernel.OVERFLOW_CAP` = 1e150).

    `step` is the depth of that iterate and `point` the point iterated."""

    def __init__(self, message, step=None, point=None):
        super().__init__(message)
        self.step = step
        self.point = point


class NoAlphaFound(HenonLocusError):
    """Escape-domain radius search exhausted its grid (pathological input)."""


class CertificateViolation(HenonLocusError):
    """The escape result is not certified: a product factor reached |s| >= r,
    so the tail bound does not hold, or the kernel returned a non-finite value."""

    def __init__(self, message, smax=None, r=None, depth=None):
        super().__init__(message)
        self.smax = smax
        self.r = r
        self.depth = depth


class NotInEscapeRegion(HenonLocusError):
    """No iterate reached V+/V- within the iteration cap, or a forward iterate
    entered the certified trap around the attracting cycle."""


class OnDegenerateCurve(HenonLocusError):
    """a = 0 and p(y) = x: the point sits on the collapse curve."""


class NewtonDivergence(HenonLocusError):
    """A Newton correction failed to converge."""


class LeftTube(HenonLocusError):
    """A continuation sample escaped the component tube |y - c| < radius."""

    def __init__(self, message, sample=None):
        super().__init__(message)
        self.sample = sample


class LeafParameterizationFailed(HenonLocusError):
    """Could not parameterize the plus-foliation leaf through the point."""


class ContinuationFailure(HenonLocusError):
    """Predictor-corrector continuation broke down."""


class NotClassified(HenonLocusError):
    """No iterate of the point landed in a primary tube within the cap."""


class NotSimpleCritical(HenonLocusError):
    """p''(c) vanishes; the tangent computation requires a simple critical point."""


class GraphTransformDiverged(HenonLocusError):
    """Stable/unstable graph iteration failed to settle."""


class GradientVanishesOnLoop(HenonLocusError):
    """The restricted gradient of g- vanished on (or too near) an index loop."""


class OrderMismatch(HenonLocusError):
    """Series arithmetic on mismatched variable or truncation order."""


class NotUnitSeries(HenonLocusError):
    """Rational power of a series whose constant term is not 1."""


class DegenerateCriticalPoint(HenonLocusError):
    """Formal locus solve requires p'(c) = 0 with p''(c) invertible."""


class ExponentOverflow(HenonLocusError):
    """An exponent does not fit the packed exponent field of an exact
    polynomial, or a product could carry out of it."""


class SeriesInconsistency(HenonLocusError):
    """An exact series failed an identity the construction guarantees."""


class ConfigError(HenonLocusError):
    """Bad CLI/run configuration."""
