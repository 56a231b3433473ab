"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: configuration/input problems exit
with 2, numerical failures with 3. :func:`scalar` is the one rule for a
scalar argument (its type and a ``BOUNDS`` bound), :func:`finite` for an
input array (:func:`shaped` for its shape alone), :func:`generator` for a seed.
An input array is converted by one rule, :func:`floats` (:func:`array` when
it may stay complex): a ragged nesting, a string entry or an entry that is
no real number raises DataError, and a Python int past the float range
reads as +-inf, so that it fails the finiteness test of :func:`scalar` and
:func:`finite` instead of raising OverflowError.
"""

import math
import numbers

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


# bound name -> test; each but "" works entry by entry on arrays, and NaN fails it
BOUNDS = {
    "": lambda x: True,
    ">= 0": lambda x: x >= 0,
    ">= 1": lambda x: x >= 1,
    ">= 2": lambda x: x >= 2,
    "> 0": lambda x: x > 0,
    "> 1": lambda x: x > 1,
    "in (0, 1)": lambda x: (0 < x) & (x < 1),
}

_NOUNS = {int: "an integer", float: "a finite number"}


def _float(value) -> float:
    """``float(value)``, where an int past the float range reads as +-inf; TypeError for a complex number."""
    if isinstance(value, numbers.Complex) and not isinstance(value, numbers.Real):
        raise TypeError(f"{value!r} is complex")  # numpy's complex scalars would drop their imaginary part
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def array(a, what: str) -> np.ndarray:
    """``np.asarray(a)``; DataError naming ``what`` for a ragged nesting or a string entry."""
    try:
        out = np.asarray(a)
        if out.dtype.kind in "SU":  # numpy made every entry a string: find the first that was one
            out = np.asarray(a, dtype=object)
    except (TypeError, ValueError) as exc:
        raise DataError(f"{what} is not an array of numbers: {exc}") from None
    if out.dtype.kind == "O":  # only an object array can hold a string now, so a numeric one pays nothing
        for where, value in np.ndenumerate(out):
            if isinstance(value, (str, bytes)):  # named as finite names an entry
                at = "" if not where else f" entry {where[0] if len(where) == 1 else where}"
                raise DataError(f"{what}{at} is the string {str(value)!r}; it must be a number")
    return out


def floats(a, what: str) -> np.ndarray:
    """:func:`array` as floats: a float ndarray as it is, a Python int past the float range as +-inf.

    DataError naming ``what`` for a complex entry or an entry that is no number.
    """
    a = array(a, what)
    if a.dtype.kind == "c":
        raise DataError(f"{what} is complex; it must be real")
    try:  # an object array (a Python int past the float range, say) converts entry by entry
        return np.vectorize(_float, otypes=[float])(a) if a.dtype.kind == "O" else a.astype(float, copy=False)
    except (TypeError, ValueError) as exc:
        raise DataError(f"{what} is not an array of real numbers: {exc}") from None


def scalar(value, what: str, kind: type = float, bound: str = ""):
    """``value`` as ``kind`` (int or float); ConfigError unless it is one and meets ``bound``.

    ``bound`` is a ``BOUNDS`` name. A bool is never a number, numpy scalars
    are, a float must be finite (an int too large for one is not), and an
    int kind takes a float only without a fractional part.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        ok = False
    elif kind is float:
        value = _float(value)
        ok = math.isfinite(value)
    else:
        ok = isinstance(value, numbers.Integral) or float(value).is_integer()
        value = int(value) if ok else value
    if not ok:
        raise ConfigError(f"{what} must be {_NOUNS[kind]} (got {value!r})")
    if not BOUNDS[bound](value):
        raise ConfigError(f"{what} must be {bound} (got {value!r})")
    return value


def shaped(a, what: str, shape) -> np.ndarray:
    """:func:`array` of ``a``, not empty and of ``shape``: a length per axis (None for any) or "square"."""
    a = array(a, what)
    shape = (a.shape[:1] or (None,)) * 2 if shape == "square" else shape
    if a.size == 0 or a.ndim != len(shape) or any(w not in (None, g) for w, g in zip(shape, a.shape)):
        want = f"{shape[0]} entries" if len(shape) == 1 and shape[0] else f"a non-empty shape {tuple(shape)}"
        raise DataError(f"{what} needs {want} (got shape {a.shape})")
    return a


def finite(a, what: str, rows=None, shape=None, bound: str = "") -> np.ndarray:
    """``a`` as a float array; DataError unless every entry is finite and, given ``shape``, it has that shape.

    Given ``bound`` (a ``BOUNDS`` name), every entry must meet it too. The
    message names ``what``, the index of the first bad entry (none for a 0-d ``a``) and its value.
    ``rows[i]`` stands for row i of ``a`` in that index, so that a block of
    kernel rows K[rows, :] is named by its entry of K.
    """
    a = floats(a, what)
    if shape is not None:
        shaped(a, what, shape)
    ok = np.isfinite(a)
    if bound:
        ok &= BOUNDS[bound](a)
    if not ok.all():
        where = [int(i) for i in np.argwhere(~ok)[0]]
        value = float(a[tuple(where)])
        if rows is not None:
            where[0] = int(rows[where[0]])
        at = "" if not where else f" entry {where[0] if len(where) == 1 else tuple(where)}"
        rule = f"finite and {bound}" if bound else "finite"
        raise DataError(f"{what}{at} is {value!r}; it must be {rule}")
    return a


def generator(seed, *key) -> np.random.Generator:
    """numpy's Generator for ``seed``, or for its stream ``key``; ConfigError for a seed numpy refuses."""
    try:
        return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key) if key else seed)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"seed {seed!r} is refused: {exc}") from None
