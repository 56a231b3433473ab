import math
import re

import numpy as np
import pytest

from nyridge.errors import ConfigError, DataError, finite, generator, shaped


def test_finite_returns_a_float_array():
    out = finite([[1, 2], [3, 4]], "points")
    assert out.dtype == float and np.array_equal(out, [[1.0, 2.0], [3.0, 4.0]])
    a = np.ones(3)
    assert finite(a, "signal") is a


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_finite_names_the_first_bad_entry(bad):
    a = np.zeros((3, 4))
    a[2, 3] = a[1, 2] = bad
    with pytest.raises(DataError, match=re.escape(f"factor entry (1, 2) is {bad!r}")):
        finite(a, "factor")
    with pytest.raises(DataError, match=re.escape(f"signal entry 6 is {bad!r}; it must be finite")):
        finite(a.ravel(), "signal")
    # rows relabel the first axis: a block of kernel rows K[[7, 9, 4], :]
    with pytest.raises(DataError, match=re.escape(f"kernel matrix entry (9, 2) is {bad!r}")):
        finite(a, "kernel matrix", rows=np.array([7, 9, 4]))


@pytest.mark.parametrize(
    "a, shape, message",
    [
        (np.ones(3), (4,), "signal needs 4 entries (got shape (3,))"),
        (np.ones((4, 1)), (4,), "signal needs 4 entries (got shape (4, 1))"),
        (np.ones((3, 2)), (4, None), "signal needs a non-empty shape (4, None) (got shape (3, 2))"),
        (np.ones((0, 2)), (None, None), "signal needs a non-empty shape (None, None) (got shape (0, 2))"),
        (np.ones((3, 4)), "square", "signal needs a non-empty shape (3, 3) (got shape (3, 4))"),
        (np.float64(2.0), "square", "signal needs a non-empty shape (None, None) (got shape ())"),
    ],
)
def test_finite_checks_the_shape(a, shape, message):
    with pytest.raises(DataError, match=re.escape(message)):
        finite(a, "signal", shape=shape)
    with pytest.raises(DataError, match=re.escape(message)):
        shaped(a, "signal", shape)


def test_shape_none_takes_any_length_and_shaped_checks_no_entry():
    assert finite(np.ones((2, 5)), "factor", shape=(2, None)).shape == (2, 5)
    assert finite(np.ones((3, 3)), "kernel matrix", shape="square").shape == (3, 3)
    # shaped leaves the entries to a later check: the Cholesky loop reads K's rows one by one
    bad = np.full((2, 2), math.nan)
    assert shaped(bad, "kernel matrix", "square") is bad


@pytest.mark.parametrize("seed, key", [(-1, ()), (-1, (3,)), (1.5, ()), ("seed", (0,))])
def test_generator_refuses_a_seed_numpy_refuses(seed, key):
    with pytest.raises(ConfigError, match="seed .* is refused"):
        generator(seed, *key)


def test_generator_streams():
    g = np.random.default_rng(7)
    assert generator(g) is g
    assert generator(7).random() == np.random.default_rng(7).random()
    want = np.random.default_rng(np.random.SeedSequence(entropy=7, spawn_key=(2, 5))).random()
    assert generator(7, 2, 5).random() == want
