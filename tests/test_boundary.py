"""The library boundary: a typed error or a finite result from every entry point.

Every callable in ``nyridge.__all__`` that takes input (the functions and
the validating classes ``ColumnSelection``, ``KernelSpec`` and
``SpectrumSpec``), plus ``prefix_errors``, the four ``Spectrum``
constructors, ``lowrank_bias_variance``, ``lemma_tail`` and ``RankSweeper``, is called
with valid arguments in which one parameter at a time is replaced by a
malformed value:

- an array gets a NaN, +inf or -inf entry at a drawn position, the string
  "x" at a drawn position (in an object array), an empty array of its
  number of axes, one axis more or one fewer, and one row (and, for a
  matrix, one column) fewer;
- a float gets NaN, +inf and -inf, an int -1, 0, 2.5 and NaN;
- a factor, fit, problem or selection gets each malformed value of one of
  its arrays, or a size that does not match; a row oracle returns
  malformed rows.

The record types (``LowRankFactor``, ``RidgeFit``, ``FixedDesignProblem``,
``RateFit``) check nothing themselves: the functions that take them check
their fields, and that is what the tables test.

With warnings as errors, each call must raise a ``NyridgeError`` or return
a result whose every number is finite; a string entry must raise.
"""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import nyridge
from nyridge import (
    ColumnSelection,
    KernelSpec,
    NyridgeError,
    SpectrumSpec,
    approx_error,
    bias_variance,
    dof,
    draw_noise,
    eig_circulant,
    feature_matrix,
    fit_rate,
    gram,
    grid_problem,
    krr_exact,
    krr_lowrank,
    nystrom,
    optimal_lambda,
    pivoted_ichol,
    predict,
    sample_columns,
    theorem_rank_bound,
    verify_theorem,
)
from nyridge.lowrank import make_column_oracle, prefix_errors
from nyridge.stats import RankSweeper, Spectrum, lemma_deviations, lemma_tail, lowrank_bias_variance

N = 6
RNG = np.random.default_rng(26)
X = RNG.standard_normal((N, 2))
GAUSS = KernelSpec.gaussian(1.5)
K = gram(X, GAUSS)
Z = RNG.standard_normal(N)
SEL = sample_columns(N, 3, 0)
FACTOR = nystrom(K, SEL)
FIT, _ = krr_lowrank(FACTOR, Z, 1e-2)
PROBLEM = grid_problem(8, SpectrumSpec(1, 3.0), 0.5)
PSI = RNG.standard_normal((N, 2))
PAIRS = np.array([(n, 2.0 / n) for n in (8, 16, 32, 64, 128, 256)])
BAD = (math.nan, math.inf, -math.inf)


def array_variants(v, draw):
    """Malformed versions of the array ``v``; the non-finite entry's position and value are drawn."""
    v = np.asarray(v)
    bad = np.array(v, dtype=np.result_type(v, float), order="C")  # complex: the bad entry in either part
    flat = (bad.view(float) if np.iscomplexobj(bad) else bad).reshape(-1)
    flat[draw(st.integers(0, flat.size - 1))] = draw(st.sampled_from(BAD))
    strung = np.array(v, dtype=object, order="C")
    strung.reshape(-1)[draw(st.integers(0, v.size - 1))] = "x"
    out = {
        "non-finite entry": bad,
        "string entry": strung,
        "empty": np.empty((0,) * v.ndim, dtype=v.dtype),
        "extra axis": v[..., None],
        "one axis fewer": v[0],
        "one row fewer": v[:-1],
    }
    if v.ndim == 2:
        out["one column fewer"] = v[:, :-1]
    return out


def scalar_variants(v, draw):
    if isinstance(v, float):
        return {repr(b): b for b in BAD}
    return {"-1": -1, "0": 0, "2.5": 2.5, "nan": math.nan}


def oracle_variants(_, draw):
    """Row oracles over K whose rows are malformed as an array would be."""
    rows = make_column_oracle(K)
    variants = array_variants(K, draw)
    bad, strung = variants["non-finite entry"], variants["string entry"]
    return {
        "non-finite row entry": lambda idx: bad[idx],
        "string row entry": lambda idx: strung[idx],
        "rows one entry short": lambda idx: rows(idx)[:, :-1],
        "rows with an extra axis": lambda idx: rows(idx)[..., None],
        "empty rows": lambda idx: rows(idx)[:, :0],
    }


def field_variants(*names):
    """Variants of a record: each malformed value of each named array field."""

    def variants(record, draw):
        return {
            f"{name}: {label}": dataclasses.replace(record, **{name: value})
            for name in names
            for label, value in array_variants(getattr(record, name), draw).items()
        }

    return variants


@dataclasses.dataclass
class Later:
    """An argument made inside the call under test, whose own check may raise."""

    make: object


def selection_variants(sel, draw):
    """Selections made for another n: one with an index past K's rows, one that refuses its own indices."""
    return {
        f"n = {N + 1}": Later(lambda: ColumnSelection(np.append(sel.indices, N), sel.method, N + 1)),
        f"n = {N - 3}": Later(lambda: ColumnSelection(sel.indices, sel.method, N - 3)),
    }


arr, num, fixed = array_variants, scalar_variants, None

# name -> (callable, [(parameter, valid value, variants of it)]); fixed parameters keep their value
ENTRY_POINTS = {
    "approx_error": (approx_error, [("K", K, arr), ("factor", FACTOR.phi, arr)]),
    "bias_variance": (
        bias_variance, [("K", K, arr), ("z", Z, arr), ("sigma2", 0.5, num), ("lam", 1e-2, num)]
    ),
    "dof": (dof, [("K", K, arr), ("lam", 1e-2, num)]),
    "draw_noise": (
        draw_noise, [("n", N, num), ("sigma2", 0.5, num), ("trials", 2, num), ("seed", 3, num)]
    ),
    "eig_circulant": (eig_circulant, [("beta", 2.0, num), ("n", N, num)]),
    "feature_matrix": (
        feature_matrix,
        [("spec", GAUSS, fixed), ("landmarks", X[SEL.indices], arr), ("whitener", FACTOR.whitener, arr),
         ("points", X, arr)],
    ),
    "fit_rate": (fit_rate, [("pairs", PAIRS, arr)]),
    "gram": (gram, [("points", X, arr), ("spec", GAUSS, fixed)]),
    "grid_problem": (
        grid_problem, [("n", 8, num), ("spectrum", SpectrumSpec(1, 3.0), fixed), ("sigma2", 0.5, num)]
    ),
    "krr_exact": (krr_exact, [("K", K, arr), ("y", Z, arr), ("lam", 1e-2, num)]),
    "krr_lowrank": (
        krr_lowrank,
        [("factor", FACTOR, field_variants("phi", "whitener")), ("y", Z, arr), ("lam", 1e-2, num)],
    ),
    "nystrom": (nystrom, [("K", K, arr), ("selection", SEL, selection_variants)]),
    "optimal_lambda": (
        optimal_lambda,
        [("spec", PROBLEM.spectrum, fixed), ("sigma2", 0.5, num), ("grid", np.geomspace(1e-6, 1, 8), arr)],
    ),
    "pivoted_ichol": (
        pivoted_ichol,
        [("kernel_rows", make_column_oracle(K), oracle_variants), ("diag", np.diag(K), arr),
         ("max_rank", 4, num), ("trace_tol", 1e-3, num)],
    ),
    "predict": (
        predict,
        [("fit", FIT, field_variants("coef")), ("points", X, arr), ("spec", GAUSS, fixed),
         ("landmarks", X[SEL.indices], arr)],
    ),
    "sample_columns": (sample_columns, [("n", N, num), ("p", 3, num), ("seed", 3, num)]),
    "theorem_rank_bound": (
        theorem_rank_bound,
        [("d_max", 3.0, num), ("delta", 0.5, num), ("n", N, num), ("r2", 1.0, num), ("lam", 1e-2, num)],
    ),
    "verify_theorem": (
        verify_theorem,
        [("problem", PROBLEM, field_variants("row0", "z")), ("lam", 1e-3, num), ("delta", 0.25, num),
         ("p", 4, num), ("trials", 2, num), ("seed", 3, num)],
    ),
    "ColumnSelection": (
        ColumnSelection, [("indices", SEL.indices, arr), ("method", SEL.method, fixed), ("n", N, num)]
    ),
    "KernelSpec": (KernelSpec, [("kind", "gaussian", fixed), ("param", 1.5, num)]),
    "SpectrumSpec": (SpectrumSpec, [("beta", 1, num), ("delta", 3.0, num)]),
    "prefix_errors": (
        prefix_errors, [("K", K, arr), ("phi", FACTOR.phi, arr), ("ranks", np.array([1, 2, 3]), arr)]
    ),
    "Spectrum.dense": (Spectrum.dense, [("K", K, arr), ("z", Z, arr)]),
    "Spectrum.circulant": (
        Spectrum.circulant, [("row0", PROBLEM.row0, arr), ("zhat", np.fft.rfft(PROBLEM.z), arr)]
    ),
    "Spectrum.lowrank": (Spectrum.lowrank, [("phi", FACTOR.phi, arr), ("z", Z, arr)]),
    "Spectrum.prefixes": (
        lambda phi, z: Spectrum.prefixes(phi, z)(2), [("phi", FACTOR.phi, arr), ("z", Z, arr)]
    ),
    "lowrank_bias_variance": (
        lowrank_bias_variance,
        [("phi", FACTOR.phi.tolist(), arr), ("z", Z, arr), ("sigma2", 0.5, num), ("lam", 1e-2, num)],
    ),
    "lemma_tail": (
        lemma_tail,
        [("psi", PSI, arr), ("p", 3, num), ("t_grid", np.array([0.1, 0.5]), arr),
         ("devs", lemma_deviations([PSI], 3, 4, 0)[0], arr)],
    ),
    "RankSweeper": (
        lambda problem, trials, seed: RankSweeper(problem, trials, seed).sufficient_rank(1e-3, "random"),
        [("problem", PROBLEM, field_variants("row0", "z")), ("trials", 2, num), ("seed", 3, num)],
    ),
}


def is_finite(value) -> bool:
    """True when every number in ``value`` (an array, a tuple or a dataclass of them) is finite."""
    if dataclasses.is_dataclass(value):
        return all(is_finite(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, (tuple, list)):
        return all(is_finite(v) for v in value)
    if isinstance(value, (np.ndarray, float, int, np.number)):
        return bool(np.all(np.isfinite(np.asarray(value, dtype=float))))
    return True


def outcome(call, args, must_raise: bool = False) -> str | None:
    """None for a NyridgeError or (unless ``must_raise``) a finite result; otherwise what went wrong."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = call(*(a.make() if isinstance(a, Later) else a for a in args))
    except NyridgeError:
        return None
    except Exception as exc:  # noqa: BLE001 - any other exception is the failure reported
        return f"{type(exc).__name__}: {exc}"
    if must_raise:
        return f"no error, but the result {result!r}"[:200]
    return None if is_finite(result) else f"non-finite result {result!r}"[:200]


RECORDS = {"LowRankFactor", "RidgeFit", "FixedDesignProblem", "RateFit"}


@settings(derandomize=True, max_examples=3, deadline=None, suppress_health_check=list(HealthCheck))
@given(st.data())
def test_malformed_input_raises_a_typed_error_or_gives_a_finite_result(data):
    exported = {name for name in nyridge.__all__ if callable(getattr(nyridge, name))}
    errors = {name for name in exported if isinstance(getattr(nyridge, name), type)
              and issubclass(getattr(nyridge, name), Exception)}
    assert exported - RECORDS - errors == {name for name in ENTRY_POINTS if name in exported}
    for name, (call, params) in ENTRY_POINTS.items():  # the valid arguments are valid
        assert outcome(call, [v for _, v, _ in params]) is None, name
    failures = []
    for name, (call, params) in ENTRY_POINTS.items():
        for i, (param, valid, variants) in enumerate(params):
            if variants is None:
                continue
            for label, bad in variants(valid, data.draw).items():
                args = [v for _, v, _ in params]
                args[i] = bad
                problem = outcome(call, args, must_raise="string" in label)
                if problem is not None:
                    failures.append(f"{name}({param}: {label}): {problem}")
    assert not failures, "\n".join(failures)
