"""Exception types shared across the package."""


class DegenerateEquationError(ValueError):
    """All coefficients of an equation vanish; nothing to solve."""


class AccuracyError(RuntimeError):
    """A numerical routine could not reach the requested tolerance.

    Carries the best estimate obtained so far, so callers can decide
    whether a degraded answer is still usable.
    """

    def __init__(self, message, best_estimate=None, error_estimate=None):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_estimate = error_estimate


class MarginalStabilityError(RuntimeError):
    """A contour passes through (or too close to) the critical point.

    The winding number, and hence the stability classification, is not
    defined for such configurations.
    """


class PoleError(ValueError):
    """Response function evaluated exactly on a pole of the medium."""


class SingularParametrizationError(ValueError):
    """The (eta, xi) map is singular at the requested point (eta = 1)."""


class ZeroSignalError(ValueError):
    """Homodyne readout is orthogonal to the signal quadrature."""


class MediumNotStationaryError(ValueError):
    """Operation requires a stationary gain medium."""
