"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: configuration/input problems exit
with 2, numerical failures with 3. :func:`finite` is the one rule for an
input array (:func:`shaped` for its shape alone), :func:`generator` for a seed.
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


def shaped(a, what: str, shape) -> np.ndarray:
    """``np.asarray(a)``, not empty and of ``shape``: a length per axis (None for any) or "square"."""
    a = np.asarray(a)
    shape = (a.shape[:1] or (None,)) * 2 if shape == "square" else shape
    if a.size == 0 or a.ndim != len(shape) or any(w not in (None, g) for w, g in zip(shape, a.shape)):
        want = f"{shape[0]} entries" if len(shape) == 1 and shape[0] else f"a non-empty shape {tuple(shape)}"
        raise DataError(f"{what} needs {want} (got shape {a.shape})")
    return a


def finite(a, what: str, rows=None, shape=None) -> np.ndarray:
    """``a`` as a float array; DataError unless every entry is finite and, given ``shape``, it has that shape.

    The message names ``what``, the index of the first non-finite entry and
    its value. ``rows[i]`` stands for row i of ``a`` in that index, so that a
    block of kernel rows K[rows, :] is named by its entry of K.
    """
    a = np.asarray(a, dtype=float)
    if shape is not None:
        shaped(a, what, shape)
    ok = np.isfinite(a)
    if not ok.all():
        where = [int(i) for i in np.argwhere(~ok)[0]]
        value = float(a[tuple(where)])
        if rows is not None:
            where[0] = int(rows[where[0]])
        at = where[0] if len(where) == 1 else tuple(where)
        raise DataError(f"{what} entry {at} is {value!r}; it must be finite")
    return a


def generator(seed, *key) -> np.random.Generator:
    """numpy's Generator for ``seed``, or for its stream ``key``; ConfigError for a seed numpy refuses."""
    try:
        return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key) if key else seed)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"seed {seed!r} is refused: {exc}") from None
