"""Exception and warning types shared across the package."""


class CondwalkError(Exception):
    """Base class for all package-specific errors."""


class NoTiltExists(CondwalkError):
    """The tilted-mean equation has no root in the searchable bracket."""

    def __init__(self, message, bracket=None):
        super().__init__(message)
        self.bracket = bracket


class DomainError(CondwalkError, ValueError):
    """Argument outside the mathematical domain of the function."""


class QuadratureFailure(CondwalkError):
    """Numerical integration did not reach the requested tolerance."""


class DriftedLaw(CondwalkError):
    """A zero-drift estimator was called with a law of nonzero mean."""


class MismatchedTilt(CondwalkError):
    """The supplied tilt was derived from a different base law."""


class StateExplosion(CondwalkError):
    """Exact enumeration exceeded the atom budget."""


class MissingIngredient(CondwalkError):
    """A predictor branch requires an ingredient that was not supplied."""


class UnknownTheorem(CondwalkError):
    """Theorem identifier not in the registry."""


class InsufficientSweep(CondwalkError):
    """A convergence sweep needs at least two horizon values."""


class CensoringExcess(UserWarning):
    """Ladder estimation censored more paths than the reporting threshold."""
