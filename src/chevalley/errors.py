"""Exception types shared across the package."""


class InstanceTooLargeError(ValueError):
    """Requested Gr(k,n) has rank binomial(n,k) above the CLI's --rank-cap."""


class IterationFailureError(RuntimeError):
    """The matrix route's Collatz-Wielandt bracket did not narrow to its
    tolerance within max_iter operator products; carries the last iterate,
    the last bracket's midpoint and the product count."""

    def __init__(self, message, last_value=None, last_vector=None, iterations=None):
        super().__init__(message)
        self.last_value = last_value
        self.last_vector = last_vector
        self.iterations = iterations


class CrossCheckError(RuntimeError):
    """Two independent routes to the same quantity disagree beyond tolerance."""
