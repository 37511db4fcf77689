"""Exception types shared across the package."""


class InstanceTooLargeError(ValueError):
    """Requested Gr(k,n) has rank binomial(n,k) above the CLI's --rank-cap."""


class IterationFailureError(RuntimeError):
    """The matrix route's Collatz-Wielandt bracket did not narrow to its
    tolerance within max_iter operator products."""


class CrossCheckError(RuntimeError):
    """Two independent routes to the same quantity disagree beyond tolerance."""
