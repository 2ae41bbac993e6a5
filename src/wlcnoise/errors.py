"""Exception types shared across the package."""


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
