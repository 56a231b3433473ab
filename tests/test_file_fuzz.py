"""The file readers and the CLI inputs under byte-mutation fuzz.

Each example takes a valid factor file, fit file or dataset CSV and applies
one to three byte mutations: flip a bit, insert a separator, a line break,
a BOM, a non-finite, huge or over-long number or NUL, delete a span,
truncate, duplicate a span, or convert every line break to CRLF. With
warnings as errors, the reader must either raise a NyridgeError or return a
result whose every array is finite; any other exception or a NaN/inf fails
the test. The inputs of the ``cv`` and ``fit`` commands get the same
mutations (``EDITS`` and ``FUZZ``, shared by both tests): ``cli.main`` must
return 0, 2 or 3, and a CSV written with 0 must hold no NaN or inf.
"""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nyridge import cli
from nyridge.datasets import load_dataset, write_dataset_csv
from nyridge.errors import NyridgeError
from nyridge.kernels import KernelSpec, gram
from nyridge.lowrank import load_factor, make_column_oracle, materialized_diag, pivoted_ichol, save_factor
from nyridge.regression import RidgeFit, load_fit, save_fit

INSERTS = [b",", b"\n", b"\r", "\ufeff".encode(), b"nan", b"1e999", b"1e200", b"9" * 400, b"\x00"]

# (name, position, argument): positions are reduced modulo the file length
MUTATION = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 1 << 16), st.integers(0, 7)),
    st.tuples(st.just("insert"), st.integers(0, 1 << 16), st.sampled_from(INSERTS)),
    st.tuples(st.just("delete"), st.integers(0, 1 << 16), st.integers(1, 12)),
    st.tuples(st.just("truncate"), st.integers(0, 1 << 16), st.none()),
    st.tuples(st.just("duplicate"), st.integers(0, 1 << 16), st.integers(1, 40)),
    st.tuples(st.just("crlf"), st.none(), st.none()),
)
# one to three mutations per example, drawn the same way on every run
EDITS = st.lists(MUTATION, min_size=1, max_size=3)
FUZZ = settings(deadline=None, derandomize=True, database=None)


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


def mutated(data: bytes, edits) -> bytes:
    for edit in edits:
        data = mutate(data, *edit)
    return data


@pytest.mark.parametrize("kind", READERS)
@settings(FUZZ, max_examples=150)
@given(edits=EDITS)
def test_a_mutated_file_is_refused_or_read_as_finite(kind, edits, valid_files):
    files, path = valid_files
    data = mutated(files[kind], edits)
    path.write_bytes(data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            arrays = READERS[kind](path)
        except NyridgeError:
            return
    assert all(np.all(np.isfinite(a)) for a in arrays), data


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """The bytes of a valid ``cv`` input and ``fit`` input, the argv of each, and the output path."""
    root = tmp_path_factory.mktemp("cli-fuzz")
    x = np.round(np.random.default_rng(6).standard_normal((12, 2)), 2)  # short cells: more mutants reach one
    write_dataset_csv(root / "cv.csv", x, np.round(np.sin(2.0 * x[:, 0]), 2))
    rows = "".join(f"{n},{2.5 * n**-0.5!r}\n" for n in (16, 32, 64, 128, 256))
    (root / "fit.csv").write_text("n,value\n" + rows)
    out, path = root / "out.csv", root / "mutant.csv"
    argv = {
        "cv": ["cv", "--input", str(path), "--lambda-points", "6", "--out", str(out)],
        "fit": ["fit", "--input", str(path), "--out", str(out)],
    }
    return {cmd: (root / f"{cmd}.csv").read_bytes() for cmd in argv}, argv, path, out


def test_the_valid_cli_inputs_exit_0(cli_inputs):
    files, argv, path, out = cli_inputs
    for cmd, data in files.items():
        path.write_bytes(data)
        assert cli.main(argv[cmd]) == 0, cmd


@pytest.mark.parametrize("cmd", ["cv", "fit"])
@settings(FUZZ, max_examples=200)
@given(edits=EDITS)
def test_a_mutated_cli_input_exits_0_2_or_3(cmd, edits, cli_inputs):
    files, argv, path, out = cli_inputs
    path.write_bytes(mutated(files[cmd], edits))
    out.unlink(missing_ok=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(argv[cmd])  # any exception leaving main fails the test
    assert code in (0, 2, 3)
    if code == 0:
        text = out.read_text()
        assert not [t for t in re.split(r"[\s,;=]+", text) if _non_finite(t)], text


def _non_finite(token: str) -> bool:
    """True for a token that spells NaN or an infinity, as ``float`` reads it."""
    try:
        return not math.isfinite(float(token))
    except ValueError:
        return False
