import math
import re

import numpy as np
import pytest

from nyridge.errors import BOUNDS, ConfigError, DataError, finite, generator, scalar, shaped


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


def test_finite_reads_an_int_past_the_float_range_as_infinite():
    # np.asarray(..., dtype=float) raised a bare OverflowError on these
    with pytest.raises(DataError, match=re.escape("x entry 1 is inf; it must be finite")):
        finite([1.0, 10**400], "x")
    with pytest.raises(DataError, match=re.escape("x entry (0, 1) is -inf; it must be finite")):
        finite([[1.0, -(10**400)]], "x")


def test_finite_names_a_0d_value_without_an_index():
    # a 0-d value has no index; it read "x entry () is inf"
    for value, shown in [(math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan"), (10**400, "inf")]:
        with pytest.raises(DataError, match=re.escape(f"x is {shown}; it must be finite")):
            finite(value, "x")
    with pytest.raises(DataError, match=re.escape("x is -1.0; it must be finite and > 0")):
        finite(np.float64(-1.0), "x", bound="> 0")


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


def test_scalar_refuses_bools_and_takes_numpy_numbers():
    for kind in (int, float):
        for flag in (True, np.bool_(False)):
            with pytest.raises(ConfigError, match=f"trials must be an? .* \\(got {flag!r}\\)"):
                scalar(flag, "trials", kind)
    for value in (np.int64(3), np.int8(3), np.float32(3.0), 3.0):
        got = scalar(value, "trials", int, ">= 1")
        assert type(got) is int and got == 3
    got = scalar(np.float32(0.5), "delta", float, "in (0, 1)")
    assert type(got) is float and got == 0.5
    assert scalar(7, "lambda") == 7.0 and type(scalar(7, "lambda")) is float
    for junk in ("3", None, [3], 1j):
        with pytest.raises(ConfigError, match=re.escape(f"n must be an integer (got {junk!r})")):
            scalar(junk, "n", int)


@pytest.mark.parametrize(
    "value, kind, noun",
    [
        (2.5, int, "an integer"),
        (np.float64(-0.5), int, "an integer"),
        (math.nan, int, "an integer"),
        (math.inf, int, "an integer"),
        (math.nan, float, "a finite number"),
        (math.inf, float, "a finite number"),
        (-math.inf, float, "a finite number"),
        (10**400, float, "a finite number"),
        (-(10**400), float, "a finite number"),
    ],
)
def test_scalar_refuses_fractions_infinities_and_ints_past_the_float_range(value, kind, noun):
    with pytest.raises(ConfigError, match=f"^rank must be {noun} \\(got "):
        scalar(value, "rank", kind, ">= 0")


# bound -> (values at its boundary that meet it, values at its boundary that do not)
EDGES = {
    "": ([-1.7e308, 0.0], []),
    ">= 0": ([0.0, 5e-324], [-5e-324]),
    ">= 1": ([1.0, math.nextafter(1.0, 2.0)], [math.nextafter(1.0, 0.0)]),
    ">= 2": ([2.0, math.nextafter(2.0, 3.0)], [math.nextafter(2.0, 0.0)]),
    "> 0": ([5e-324], [0.0, -5e-324]),
    "> 1": ([math.nextafter(1.0, 2.0)], [1.0]),
    "in (0, 1)": ([5e-324, math.nextafter(1.0, 0.0)], [0.0, 1.0]),
}


def test_scalar_bounds_hold_at_their_exact_boundary():
    assert set(EDGES) == set(BOUNDS)
    for bound, (meet, miss) in EDGES.items():
        for x in meet:
            assert scalar(x, "x", float, bound) == x
            assert np.array_equal(finite([x, x], "x", bound=bound), [x, x])
        for x in miss:
            with pytest.raises(ConfigError, match=re.escape(f"x must be {bound} (got {x!r})")):
                scalar(x, "x", float, bound)
            message = f"x entry 1 is {x!r}; it must be finite and {bound}"
            with pytest.raises(DataError, match=re.escape(message)):
                finite([meet[0], x], "x", bound=bound)
        for bad in (math.nan, math.inf):  # no bound lets a non-finite value through
            with pytest.raises(ConfigError, match="must be a finite number"):
                scalar(bad, "x", float, bound)
            with pytest.raises(DataError, match="entry 0 is"):
                finite([bad], "x", bound=bound)
    # the integer bounds at their edge, as ints
    assert scalar(0, "n", int, ">= 0") == 0 and scalar(2, "folds", int, ">= 2") == 2
    with pytest.raises(ConfigError, match=re.escape("folds must be >= 2 (got 1)")):
        scalar(1, "folds", int, ">= 2")
