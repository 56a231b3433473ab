"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: configuration/input problems exit
with 2, numerical failures with 3. :func:`finite` is the one check that an
input array holds only finite numbers.
"""

import numpy as np


class NyridgeError(Exception):
    """Base class for package errors."""


class ConfigError(NyridgeError):
    """Invalid configuration, argument, or input file."""


class DataError(ConfigError):
    """Problem with an input dataset."""


class ParseError(DataError):
    """A file that does not parse as its format."""


class MissingValueError(DataError):
    """A dataset cell that is absent, empty or a missing-value marker such as NA."""


class NonNumericError(DataError):
    """A dataset cell that is not a finite number."""


class NumericalError(NyridgeError):
    """A numerical routine broke down (non-convergence, breakdown, ...)."""


class VacuousBoundError(NumericalError):
    """The rank bound is vacuous because n * R^2 <= delta * lambda."""


def finite(a, what: str, rows=None) -> np.ndarray:
    """``a`` as a float array; DataError unless every entry is finite.

    The message names ``what``, the index of the first non-finite entry and
    its value. ``rows[i]`` stands for row i of ``a`` in that index, so that a
    block of kernel rows K[rows, :] is named by its entry of K.
    """
    a = np.asarray(a, dtype=float)
    ok = np.isfinite(a)
    if not ok.all():
        where = [int(i) for i in np.argwhere(~ok)[0]]
        value = float(a[tuple(where)])
        if rows is not None:
            where[0] = int(rows[where[0]])
        at = where[0] if len(where) == 1 else tuple(where)
        raise DataError(f"{what} entry {at} is {value!r}; it must be finite")
    return a
