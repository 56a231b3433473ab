import math
import re

import numpy as np
import pytest

from nyridge.errors import DataError, finite


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
