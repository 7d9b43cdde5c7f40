"""Exception types shared across the package."""


class KuramotoDampingError(Exception):
    """Base class for numeric and domain failures raised by this package."""


class ConfigError(KuramotoDampingError, ValueError):
    """Invalid experiment configuration (unknown key, bad type, missing field)."""


class Divergent(KuramotoDampingError):
    """A moment or tail integral failed to converge numerically."""


class MassNotCovered(KuramotoDampingError):
    """Quadrature grid could not reach the requested probability mass."""


class DomainError(KuramotoDampingError):
    """Evaluation requested outside the closed lower half plane."""


class MarginalError(KuramotoDampingError):
    """The dispersion curve passes too close to the origin to count windings."""


class NoZeroFound(KuramotoDampingError):
    """No real zero of the boundary criterion was located."""


class RootNotConverged(KuramotoDampingError):
    """Newton iteration for an unstable root did not converge."""


class StepSolveFailure(KuramotoDampingError):
    """The implicit diagonal term of the marching scheme is singular."""


class WindowTooNoisy(KuramotoDampingError):
    """Log-log decay fit residual exceeds the acceptance threshold.

    Carries the rejected fit in ``self.fit`` so callers can still inspect it.
    """

    def __init__(self, message, fit=None):
        super().__init__(message)
        self.fit = fit


class InvalidPerturbation(KuramotoDampingError):
    """Initial perturbation violates mass or positivity constraints."""


class BlowupDetected(KuramotoDampingError):
    """A computed quantity blew up: simulation coefficients exceeded the
    blowup guard, or a kernel or source sampled for a Volterra solve was not
    finite (overflow)."""


class GridTooCoarse(KuramotoDampingError):
    """Finite-difference stencil spans panels with too large a gap ratio."""
