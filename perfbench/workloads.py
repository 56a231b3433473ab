"""Workload definitions: CLI arguments, seeded inputs and output checks.

Each workload is one seeded ``nyridge`` CLI run. The sizes are cut down
from the CLI defaults so that one child takes a few seconds and a run of
the benchmark can take the median of several children; each still drives
the same code path as the default-sized command:

- ``rates-grid``: ``rates`` at beta=4, delta=8 for n = 64..1024, fitting the
  exponents on the 4 largest sizes. Its time is dense ``eigh`` of the n x n
  grid Gram (twice per n), in ``stats`` and ``synthetic``; ``lowrank``,
  ``regression`` and ``datasets`` never run.
- ``fig1-grid``: ``fig1`` at n=200 with 4 random trials.
  Hundreds of medium-sized spectral calls (``lowrank.approx_error`` and
  ``stats.lowrank_bias_variance``) instead of a few huge ones.
- ``cv-gauss2k``: ``cv`` on a seeded 2048 x 8 Gaussian-feature CSV. The
  real-data path (``datasets``, ``lowrank.pivoted_ichol``,
  ``regression.krr_lowrank``, ``kernels.cross_gram``); no dense n x n
  decomposition runs.

This module uses only the standard library, so the parent process that
times the children never imports numpy; ``write_gauss_csv`` imports it lazily
and runs in a separate set-up process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

OUTPUT = "out.csv"
INPUT = "input.csv"

RATES_N_LIST = (64, 128, 256, 512, 1024)
FIG1_N, FIG1_TRIALS = 200, 4
CV_ROWS, CV_FEATURES, CV_FOLDS, CV_LAMBDAS = 2048, 8, 5, 20


@dataclass
class CsvOutput:
    meta: dict[str, str]
    rows: list[dict[str, str]]


def parse_csv(text: str) -> CsvOutput:
    """Split a nyridge CSV into its ``# key=value`` lines and its rows keyed by the header."""
    meta: dict[str, str] = {}
    lines = []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, val = line[2:].partition("=")
            meta[key] = val
        elif line:
            lines.append(line.split(","))
    header = lines[0] if lines else []
    return CsvOutput(meta, [dict(zip(header, row)) for row in lines[1:]])


def _within(meta: dict, key: str, target: float, tol: float) -> list[str]:
    if key not in meta:
        return [f"missing {key}"]
    val = float(meta[key])
    if not abs(val - target) <= tol:
        return [f"{key}={val} outside {target}+/-{tol}"]
    return []


def check_rates(out: CsvOutput) -> list[str]:
    """Criterion-8 bands on the (4, 8) family; no lambda* saturation."""
    problems = []
    if len(out.rows) != len(RATES_N_LIST):
        problems.append(f"{len(out.rows)} rows, expected {len(RATES_N_LIST)}")
    problems += _within(out.meta, "lambda_exponent", -0.5, 0.15)
    problems += _within(out.meta, "error_exponent", 1 / 16 - 1, 0.15)
    if "saturation" in out.meta or any(r.get("saturated") != "0" for r in out.rows):
        problems.append("lambda* saturated")
    return problems


def _crossing_rank(rows: list[dict], col: str, threshold: float) -> int | None:
    for row in rows:
        if float(row[col]) < threshold:
            return int(row["p"])
    return None


def check_fig1(out: CsvOutput) -> list[str]:
    """Criterion-5 crossing rule 2 p_pred <= p_trace, for both methods."""
    problems = []
    for method in ("random", "pivoted"):
        rows = [r for r in out.rows if r.get("method") == method]
        p_pred = _crossing_rank(rows, "rel_pred_excess", 1e-2)
        p_tr = _crossing_rank(rows, "rel_trace_err", 0.1)
        if p_pred is None or p_tr is None or 2 * p_pred > p_tr:
            problems.append(f"{method}: p_pred={p_pred}, p_trace={p_tr}")
    return problems


def check_cv(out: CsvOutput) -> list[str]:
    """Finite errors, lambda* on the grid and flagged once, one rank per fold."""
    problems = []
    if len(out.rows) != CV_LAMBDAS:
        problems.append(f"{len(out.rows)} rows, expected {CV_LAMBDAS}")
    if not all(math.isfinite(float(r[c])) for r in out.rows for c in ("lambda", "cv_error")):
        problems.append("non-finite lambda or cv_error")
    best = [r["lambda"] for r in out.rows if r.get("is_best") == "1"]
    if best != [out.meta.get("lambda_star")]:
        problems.append(f"lambda_star {out.meta.get('lambda_star')} vs best rows {best}")
    ranks = [t for t in out.meta.get("ranks", "").split(";") if t]
    if len(ranks) != CV_FOLDS or not all(t.isdigit() and int(t) > 0 for t in ranks):
        problems.append(f"ranks {ranks!r}, expected {CV_FOLDS} positive ranks")
    return problems


def write_gauss_csv(seed: int, path: str) -> None:
    """Seeded Gaussian features with a smooth nonlinear target plus noise."""
    import numpy as np

    from nyridge.datasets import write_dataset_csv

    rng = np.random.default_rng(seed)
    X = rng.standard_normal((CV_ROWS, CV_FEATURES))
    y = np.sin(2.0 * X[:, 0]) + 0.5 * X[:, 1] * X[:, 2] + 0.3 * rng.standard_normal(CV_ROWS)
    write_dataset_csv(path, X, y)


@dataclass(frozen=True)
class Workload:
    name: str
    argv: Callable[[int], list[str]]  # CLI arguments for a seed
    check: Callable[[CsvOutput], list[str]]  # problems found in the output
    make_input: Callable[[int, str], None] | None = None  # writes INPUT for a seed


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "rates-grid",
            lambda seed: ["rates", "--seed", str(seed),
                          "--n-list", ",".join(map(str, RATES_N_LIST)), "--drop-smallest", "1"],
            check_rates,
        ),
        Workload(
            "fig1-grid",
            lambda seed: ["fig1", "--seed", str(seed), "--n", str(FIG1_N),
                          "--trials", str(FIG1_TRIALS)],
            check_fig1,
        ),
        Workload(
            "cv-gauss2k",
            lambda seed: ["cv", "--seed", str(seed), "--input", INPUT,
                          "--folds", str(CV_FOLDS), "--lambda-points", str(CV_LAMBDAS)],
            check_cv,
            write_gauss_csv,
        ),
    )
}
