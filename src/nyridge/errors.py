"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: configuration/input problems exit
with 2, numerical failures with 3. :func:`scalar` is the one rule for a
scalar argument (its type and a ``BOUNDS`` bound), :func:`finite` for an
input array (:func:`shaped` for its shape alone), :func:`generator` for a seed.
:func:`scalar` and :func:`finite` read a Python int past the float range as
+-inf (:func:`floats`), so that it fails their finiteness test instead of
raising OverflowError.
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
    """``float(value)``, where an int past the float range reads as +-inf."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def floats(a) -> np.ndarray:
    """``np.asarray(a, dtype=float)``, where a Python int past the float range reads as +-inf."""
    try:
        return np.asarray(a, dtype=float)
    except OverflowError:  # only a number past the float range gets here, so a valid array pays nothing
        return np.vectorize(_float, otypes=[float])(np.asarray(a, dtype=object))


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
    """``np.asarray(a)``, not empty and of ``shape``: a length per axis (None for any) or "square"."""
    a = np.asarray(a)
    shape = (a.shape[:1] or (None,)) * 2 if shape == "square" else shape
    if a.size == 0 or a.ndim != len(shape) or any(w not in (None, g) for w, g in zip(shape, a.shape)):
        want = f"{shape[0]} entries" if len(shape) == 1 and shape[0] else f"a non-empty shape {tuple(shape)}"
        raise DataError(f"{what} needs {want} (got shape {a.shape})")
    return a


def finite(a, what: str, rows=None, shape=None, bound: str = "") -> np.ndarray:
    """``a`` as a float array; DataError unless every entry is finite and, given ``shape``, it has that shape.

    Given ``bound`` (a ``BOUNDS`` name), every entry must meet it too. The
    message names ``what``, the index of the first bad entry and its value.
    ``rows[i]`` stands for row i of ``a`` in that index, so that a block of
    kernel rows K[rows, :] is named by its entry of K.
    """
    a = floats(a)
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
        at = where[0] if len(where) == 1 else tuple(where)
        rule = f"finite and {bound}" if bound else "finite"
        raise DataError(f"{what} entry {at} is {value!r}; it must be {rule}")
    return a


def generator(seed, *key) -> np.random.Generator:
    """numpy's Generator for ``seed``, or for its stream ``key``; ConfigError for a seed numpy refuses."""
    try:
        return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key) if key else seed)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"seed {seed!r} is refused: {exc}") from None
