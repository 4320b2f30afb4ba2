"""Exception types shared across the package, and the one rule per kind of argument of every export: arrays
(_columns, on _real_floats), scalars (_number, and _interval for a support), index sets (_indices), named choices
(_choice), spec objects (_instance) and lists (_sequence). A wrong argument is an InputError that names it.

The CLI maps InputError to exit code 2 and NumericalError to exit code 3.
"""

import math
from numbers import Integral, Real

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


def _number(value, name: str, low=None, high=None, integer: bool = False, ends: str = "()", finite: bool = True):
    """value as a plain Python number: an int from a Python or numpy integer where integer is set, else an int or float
    from any real. A bool, text, complex value, array, NaN or infinity (unless finite is False), or a value outside low
    (and high; inclusive for integers, exclusive for reals unless ends closes one, "(]") is an input error naming it."""
    ends, kind = "[]" if integer else ends, type(value)
    plain = kind is int or kind is float and not integer  # taken as it is, without an ABC check
    if plain or kind is not bool and isinstance(value, Integral if integer else Real):
        number = value if plain else int(value) if isinstance(value, Integral) else float(value)
        if ((type(number) is int or not finite or math.isfinite(number))
                and (low is None or (number >= low if ends[0] == "[" else number > low))
                and (high is None or (number <= high if ends[1] == "]" else number < high))):
            return number
    rule = "an integer" if integer else "a finite number" if finite and high is None else "a number"
    if low is not None:
        rule += f" >{'=' * (ends[0] == '[')} {low}" if high is None else f" in {ends[0]}{low}, {high}{ends[1]}"
    raise InputError(f"{name} must be {rule}, got {value!r}")


def _interval(value, name: str) -> tuple:
    """value, a tuple or list (lo, hi) of finite real numbers with lo < hi, as a pair of plain numbers."""
    lo, hi = _sequence(value, name, 2)
    lo = _number(lo, f"{name} lo")
    return lo, _number(hi, f"{name} hi", lo)  # the one rule orders the ends too: hi > lo


def _indices(value, name: str, size: int) -> np.ndarray:
    """value as a 1-d array of integer row indices 0 <= i < size, an empty sequence as the empty set; else an error."""
    try:
        array = np.asarray(value)
        if array.ndim == 1 and (array.size == 0 or array.dtype.kind in "iu" and np.all((array >= 0) & (array < size))):
            return array.astype(np.intp, copy=False)
    except ValueError:  # a ragged sequence
        pass
    raise InputError(f"{name} must be 1-d integer row indices in [0, {size}), got {value!r}")


def _choice(value, name: str, choices: tuple):
    """value, a str in choices; anything else, a list or None included, is an input error naming it."""
    if isinstance(value, str) and value in choices:
        return value
    raise InputError(f"unknown {name} {value!r}; expected one of {choices}")


def _instance(value, cls, name: str):
    """value, an instance of cls (a class or a tuple of classes); else an input error naming it."""
    if isinstance(value, cls):
        return value
    kinds = " or ".join(kind.__name__ for kind in (cls if isinstance(cls, tuple) else (cls,)))
    raise InputError(f"{name} must be a {kinds}, got {type(value).__name__}")


def _sequence(value, name: str, size: int | None = None):
    """value, a list or tuple of size entries, or of at least one where size is None; else an input error."""
    if isinstance(value, (list, tuple)) and (len(value) == size if size else len(value) > 0):
        return value
    raise InputError(f"{name} must be {f'a list of {size} values' if size else 'a non-empty list'}, got {value!r}")
