"""Exception types shared across the package.

The CLI maps InputError to exit code 2 and NumericalError to exit code 3.
"""


class InputError(ValueError):
    """Raised when user-supplied data, configuration, or arguments are invalid."""


class NumericalError(RuntimeError):
    """Raised when a numerical routine fails (non-convergence, singular gram, ...)."""


class SingularGramError(NumericalError):
    """Raised when the instrument gram B'B of a candidate is numerically singular, K >= n included."""


class SingularRegressorGramError(NumericalError):
    """Raised when the weighted regressor gram Psi'Omega Psi of a candidate is numerically singular."""


class TiedKnotsError(InputError, NumericalError):
    """Raised when quantile knots are not strictly increasing: exit 2, but a data failure inside a candidate pass."""
