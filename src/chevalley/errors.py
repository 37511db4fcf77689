"""Exception types shared across the package."""


class InstanceTooLargeError(ValueError):
    """Requested Gr(k,n) has rank binomial(n,k) above the CLI's --rank-cap."""


class IterationFailureError(RuntimeError):
    """principal_eigenvalue's Collatz-Wielandt bracket did not narrow within
    DEFAULT_MAX_ITER operator products (spectral_report fails `converged`)."""
