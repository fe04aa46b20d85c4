"""Exception and warning types shared across the package."""


class TorusPTError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(TorusPTError, ValueError):
    """Input lies outside the mathematical domain of an operation."""


class NonConvergence(TorusPTError, RuntimeError):
    """A series or iteration exhausted its budget before converging."""


class ConvergenceFailure(TorusPTError, RuntimeError):
    """An eigenvalue iteration failed to converge."""


class SingularGeometry(TorusPTError, ValueError):
    """The torus profile radius vanishes at the requested point."""


class InvalidVelocity(TorusPTError, ValueError):
    """A Fermi-velocity profile is non-positive where it must be positive."""


class DegenerateMode(TorusPTError, ValueError):
    """The angular wavenumber k = 0 admits only the trivial reduced potential."""


class BlowUp(TorusPTError, RuntimeError):
    """The transform slope g' left (0, inf) inside the requested grid."""


class InconsistentConditions(TorusPTError, ValueError):
    """Solved parameter conditions violate their own consistency constraint."""


class OutOfRange(TorusPTError, ValueError):
    """Level index outside the range where the spectrum formula is valid."""


class GridTooCoarse(TorusPTError, ValueError):
    """Grid has too few points for the requested discrete operator."""


class NonFinitePotential(TorusPTError, ValueError):
    """A potential sample is NaN or infinite."""


class IllPosedPotential(TorusPTError, ValueError):
    """Endpoint 1/x^2 coefficient below the Friedrichs bound -1/4."""


class NormalizationFailure(TorusPTError, RuntimeError):
    """An L2 normalization integral diverges."""


class DegenerateJacobiWarning(UserWarning):
    """Jacobi parameter alpha = -1 makes the polynomial family degenerate."""
