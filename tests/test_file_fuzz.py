"""The file readers under byte-mutation fuzz.

Each example takes a valid factor file, fit file or dataset CSV and applies
one to three byte mutations: flip a bit, insert a separator, a line break,
a BOM, a non-finite or over-long number or NUL, delete a span, truncate,
duplicate a span, or convert every line break to CRLF. With warnings as
errors, the reader must either raise a NyridgeError or return a result whose
every array is finite; any other exception or a NaN/inf fails the test.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nyridge.datasets import load_dataset, write_dataset_csv
from nyridge.errors import NyridgeError
from nyridge.kernels import KernelSpec, gram
from nyridge.lowrank import load_factor, make_column_oracle, materialized_diag, pivoted_ichol, save_factor
from nyridge.regression import RidgeFit, load_fit, save_fit

INSERTS = [b",", b"\n", b"\r", "\ufeff".encode(), b"nan", b"1e999", b"9" * 400, b"\x00"]

# (name, position, argument): positions are reduced modulo the file length
MUTATION = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 1 << 16), st.integers(0, 7)),
    st.tuples(st.just("insert"), st.integers(0, 1 << 16), st.sampled_from(INSERTS)),
    st.tuples(st.just("delete"), st.integers(0, 1 << 16), st.integers(1, 12)),
    st.tuples(st.just("truncate"), st.integers(0, 1 << 16), st.none()),
    st.tuples(st.just("duplicate"), st.integers(0, 1 << 16), st.integers(1, 40)),
    st.tuples(st.just("crlf"), st.none(), st.none()),
)


def mutate(data: bytes, name: str, pos, arg) -> bytes:
    i = pos % (len(data) + 1) if pos is not None else 0
    if name == "flip":
        i = min(i, len(data) - 1)
        return data[:i] + bytes([data[i] ^ (1 << arg)]) + data[i + 1 :] if data else data
    if name == "insert":
        return data[:i] + arg + data[i:]
    if name == "delete":
        return data[:i] + data[i + arg :]
    if name == "truncate":
        return data[:i]
    if name == "duplicate":
        return data[: i + arg] + data[i : i + arg] + data[i + arg :]
    return data.replace(b"\r\n", b"\n").replace(b"\n", b"\r\n")


def factor_arrays(path):
    F = load_factor(path)
    return [F.phi, F.whitener] + ([] if F.trace_residual_trail is None else [F.trace_residual_trail])


def fit_arrays(path):
    fit = load_fit(path)
    return [np.array([fit.lam]), fit.coef]


def dataset_arrays(path):
    data = load_dataset(path, "target", min_rows=4)
    return [data.features, data.targets]


READERS = {"factor": factor_arrays, "fit": fit_arrays, "dataset": dataset_arrays}


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """The bytes of one valid file per format, and a path to write mutants to."""
    root = tmp_path_factory.mktemp("fuzz")
    x = np.linspace(-1.0, 1.0, 8)[:, None] * np.array([1.0, -0.5])
    K = gram(x, KernelSpec.gaussian(1.0))
    save_factor(root / "factor.csv", pivoted_ichol(make_column_oracle(K), materialized_diag(K), max_rank=4))
    save_fit(root / "fit.csv", RidgeFit(0.25, np.array([1.5, -2.0, 3e-7]), np.array([4, 0, 7])))
    write_dataset_csv(root / "dataset.csv", x + np.array([0.0, 0.1]) * x[::-1], np.sin(3.0 * x[:, 0]))
    return {kind: (root / f"{kind}.csv").read_bytes() for kind in READERS}, root / "mutant.csv"


def test_the_valid_files_read_back(valid_files):
    files, path = valid_files
    for kind, read in READERS.items():
        path.write_bytes(files[kind])
        assert all(np.all(np.isfinite(a)) for a in read(path))


@pytest.mark.parametrize("kind", READERS)
@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
)
@given(edits=st.lists(MUTATION, min_size=1, max_size=3))
def test_a_mutated_file_is_refused_or_read_as_finite(kind, edits, valid_files):
    files, path = valid_files
    data = files[kind]
    for edit in edits:
        data = mutate(data, *edit)
    path.write_bytes(data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            arrays = READERS[kind](path)
        except NyridgeError:
            return
    assert all(np.all(np.isfinite(a)) for a in arrays), data
