"""Exception types shared across the package, and the one rule that turns an argument into a real float array.

The CLI maps InputError to exit code 2 and NumericalError to exit code 3.
"""

import numpy as np


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


def _real_floats(value, name: str) -> np.ndarray:
    """value as a real float array; one that does not convert, complex values included, is an input error naming it.
    A float64 array is returned as it is: no copy and no pass over its entries."""
    try:
        array = np.asarray(value)
        if array.dtype.kind == "c":  # a cast to float would drop the imaginary parts
            raise TypeError(f"complex {name}")
        return array.astype(float, copy=False)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{name} must be real numbers") from exc


def _columns(value, name: str, ndim: int = 2, matrix: bool = False, finite: bool = False) -> np.ndarray:
    """value as a real float array of 1 to ndim dimensions, a 2-d one with at least one column; a matrix is
    exactly 2-d, with at least one row and column. finite refuses a non-finite entry too, in one pass."""
    array = _real_floats(value, name)
    if matrix:
        if array.ndim != 2 or 0 in array.shape:
            raise InputError(f"{name} must be 2-d with at least one row and column, got shape {array.shape}")
    elif not 1 <= array.ndim <= ndim or 0 in array.shape[1:]:
        rule = "1-d" if ndim == 1 else "1-d, or 2-d with at least one column"
        raise InputError(f"{name} must be {rule}, got shape {array.shape}")
    if finite and not np.all(np.isfinite(array)):
        raise InputError(f"{name} contains non-finite entries")
    return array
