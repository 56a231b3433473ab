"""Experiment drivers and deterministic CSV emission.

Every driver takes a plain config dict (checked against its experiment's
keys in ``CONFIG``), derives all randomness from the master seed through
spawn keys, and returns (meta, header, rows). Rerunning with the same
config yields byte-identical CSV: :mod:`nyridge.csvio` fixes the format
and rows are built in a fixed order.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
from collections import Counter
from typing import NamedTuple

import numpy as np

from . import csvio
from .datasets import cross_validate_lambda, load_dataset
from .errors import ConfigError, NumericalError, VacuousBoundError, generator, scalar
from .kernels import SUPPORTED_BETAS, KernelSpec, median_distance_bandwidth
from .lowrank import prefix_errors
from .stats import (
    FixedDesignProblem,
    RankSweeper,
    Spectrum,
    default_lambda_grid,
    fit_rate,
    lemma_deviations,
    lemma_tail,
    optimal_lambda,
    theorem_rank_bound,
    verify_theorem,
)
from .synthetic import (
    SpectrumSpec,
    grid_problem,
    grid_row,
    residue_tails,
    sigma2_for_snr,
    signal_fourier,
)

logger = logging.getLogger(__name__)


class Key(NamedTuple):
    """One config key: its default, type, bound (an ``errors.BOUNDS`` name) and help line."""

    default: object
    kind: type  # int, float, str, list[int] or list[str]
    bound: str
    help: str

    @property
    def item(self) -> type | None:
        """The element type of a list key, None for a scalar key."""
        return getattr(self.kind, "__args__", (None,))[0]


# keys that several experiments take: name -> (type, bound, help); each
# experiment gives its own default
_SHARED = {
    "n": (int, ">= 1", "number of design points"),
    "beta": (int, "", f"kernel eigenvalue decay i^(-2 beta), beta in {SUPPORTED_BETAS}"),
    "delta": (float, "", "signal coefficient decay i^(-2 delta), delta > 1"),
    "snr": (float, "> 0", "signal-to-noise ratio that sets sigma2 when sigma2 is absent"),
    "sigma2": (float, ">= 0", "noise variance; derived from snr when absent"),
    "trials": (int, ">= 1", "random draws averaged over"),
    "lam": (float, "> 0", "ridge lambda; the optimal lambda on the default grid when absent"),
    "lambda_points": (int, ">= 1", "points on the geometric lambda grid"),
    "input": (str, "", "input CSV path (required)"),
    "seed": (int, ">= 0", "master seed of every random draw"),
}


def _keys(**keys) -> dict[str, Key]:
    """An experiment's keys: a shared key given by its default, any other as a Key."""
    keys["seed"] = 0
    return {name: k if isinstance(k, Key) else Key(k, *_SHARED[name]) for name, k in keys.items()}


# experiment -> its config keys; the CLI flags are generated from this table
CONFIG: dict[str, dict[str, Key]] = {
    "fig1": _keys(n=400, beta=1, delta=3.0, snr=0.7, sigma2=None, trials=10, lam=None),
    "rates": _keys(
        beta=4, delta=8.0, snr=4.0, sigma2=None,
        n_list=Key([64, 128, 256, 512, 1024, 2048, 4096], list[int], ">= 1", "grid sizes, at least 5"),
        drop_smallest=Key(2, int, ">= 0", "smallest sizes left out of the exponent fits"),
    ),
    "rank-ratio": _keys(
        n=400, beta=1, delta=3.0, snr=1.0, sigma2=None, trials=10, lambda_points=10,
        tol=Key(0.01, float, "> 0", "relative excess error a sufficient rank must reach"),
        lambda_lo=Key(3e-3, float, "> 0", "smallest lambda, times tr(K)/n"),
        lambda_hi=Key(4e-2, float, "> 0", "largest lambda, times tr(K)/n"),
    ),
    "verify-theorem": _keys(
        n=400, beta=1, delta=3.0, snr=0.7, sigma2=None, trials=50, lam=None,
        slack=Key(0.25, float, "in (0, 1)", "the bound's delta; the error ratio must be <= 1 + 4 slack"),
        p=Key(None, int, ">= 1", "rank; the theorem's bound capped at n when absent"),
    ),
    "verify-lemma": _keys(
        n=200, trials=10000,
        r=Key(20, int, ">= 1", "columns of each test matrix"),
        p_list=Key([20, 40, 80], list[int], ">= 1", "subsample sizes"),
        t_points=Key(10, int, ">= 1", "points on the deviation grid"),
        families=Key(["gaussian", "decaying", "outlier"], list[str], "", "test matrix families"),
    ),
    "fit": _keys(
        input=None,
        n_column=Key("n", str, "", "column of sizes"),
        value_column=Key("value", str, "", "column of values"),
    ),
    "cv": _keys(
        input=None, lambda_points=20,
        target_column=Key("target", str, "", "column of targets"),
        folds=Key(5, int, ">= 2", "cross-validation folds"),
        lambda_min=Key(1e-8, float, "> 0", "smallest lambda on the grid"),
        lambda_max=Key(1.0, float, "> 0", "largest lambda on the grid"),
        bandwidth=Key(None, float, "> 0", "Gaussian bandwidth; the median-distance rule when absent"),
        trace_rtol=Key(1e-3, float, ">= 0", "relative trace error at which a fold's factor stops"),
        n_cap=Key(8192, int, ">= 1", "rows kept, drawn at random from larger data"),
    ),
}


def _checked(name: str, key: Key, value):
    """``value`` as ``key``'s type if it is one and meets its bound, else ConfigError.

    A number goes through :func:`~nyridge.errors.scalar`; a list must be
    non-empty with every entry of its type.
    """
    if key.item is not None:
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{name} must be a non-empty list (got {value!r})")
        return [_checked(f"every {name} entry", key._replace(kind=key.item), v) for v in value]
    if key.kind is not str:
        return scalar(value, name, key.kind, key.bound)
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a string (got {value!r})")
    return value


def resolve_config(experiment: str, file_cfg: dict | None = None, overrides: dict | None = None) -> dict:
    """Merge defaults, config-file values, and CLI overrides (highest wins).

    Every value is checked against its key in ``CONFIG``; a None value keeps
    the value of the layer below.
    """
    if experiment not in CONFIG:
        raise ConfigError(f"unknown experiment {experiment!r}; choose from {tuple(CONFIG)}")
    keys = CONFIG[experiment]
    cfg = {name: key.default for name, key in keys.items()}
    for layer in file_cfg, overrides:
        if not isinstance(layer, (dict, type(None))):
            raise ConfigError(f"a config file must hold a JSON object (got {layer!r})")
        for name, value in (layer or {}).items():
            if name not in keys:
                raise ConfigError(f"unknown config key {name!r} for {experiment}")
            if value is not None:
                cfg[name] = _checked(name, keys[name], value)
    cfg["experiment"] = experiment
    return cfg


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def render_csv(meta: list[tuple[str, object]], header: list[str], rows: list[tuple]) -> str:
    """The experiment CSV text; NumericalError naming the key or column of a non-finite float."""
    return csvio.render(meta, header, rows)


def write_csv(path, meta, header, rows) -> None:
    """Write :func:`render_csv`'s text; no file is written when a value is rejected."""
    csvio.write(path, meta, header, rows)


def _base_meta(cfg: dict) -> list[tuple[str, object]]:
    return [
        ("experiment", cfg["experiment"]),
        ("config", json.dumps(cfg, sort_keys=True, default=str)),
        ("config_hash", config_hash(cfg)),
        ("seed", cfg.get("seed", 0)),
    ]


def _sigma2(cfg: dict, power: float) -> float:
    """The configured sigma^2, or the one that gives a signal of mean square ``power`` the configured snr."""
    sigma2 = cfg.get("sigma2")
    if sigma2 is None:
        sigma2 = sigma2_for_snr(power, cfg["snr"])
    return scalar(sigma2, "sigma2", float, ">= 0")


def _synthetic_problem(cfg: dict) -> FixedDesignProblem:
    """The configured grid problem, with sigma2 from the config or its snr."""
    spectrum = SpectrumSpec(cfg["beta"], cfg["delta"])
    prob = grid_problem(cfg["n"], spectrum, sigma2=0.0)
    prob.sigma2 = _sigma2(cfg, float(np.mean(np.square(prob.z))))
    return prob


def _optimal_lambda(prob: FixedDesignProblem) -> float:
    """lambda* of the problem on the default grid."""
    return optimal_lambda(prob.spectrum, prob.sigma2, default_lambda_grid(prob.mean_diag)).lambda_star


def _default_p_grid(n: int) -> list[int]:
    """Dense at low rank (where the crossings live), geometric above."""
    dense = range(1, min(64, n) + 1)
    coarse = np.geomspace(64, n, 16).astype(int) if n > 64 else []
    return sorted(set(dense) | set(int(p) for p in coarse))


def run_fig1(cfg: dict):
    """Relative approximation error versus relative prediction excess.

    For each rank p and each selection method, reports the trace- and
    operator-norm relative errors of L and the closed-form relative excess
    prediction error [err(L) - err(K)] / err(K); random selection averages
    over ``trials`` draws, the pivoted path is deterministic. Every rank is
    a prefix of one nested Cholesky factor per draw, so each factor gets one
    thin QR (:meth:`Spectrum.prefixes`, then a p x p ``eigh`` per rank) and
    one pass of :func:`prefix_errors` (running trace error, warm-started
    Lanczos operator norm, at most n matvecs a rank); an n x n residual is
    formed only at ranks whose trace error is rounding, at most
    ``LANCZOS_RTOL`` tr K, which on a full random-order factor is p = n.
    Lanczos stops when the operator norm has converged by the gap theorem,
    not its eigenvector, so ``rel_op_err`` is at full precision except where
    the residual's top two eigenvalues nearly tie, where it is off by at
    most their gap.
    """
    prob = _synthetic_problem(cfg)
    lam = cfg.get("lam")
    if lam is None:
        lam = _optimal_lambda(prob)
    err_full = prob.full_error(lam)
    tr_full = float(np.trace(prob.K))
    op_full = float(np.max(prob.spectrum.eigs))
    ranks = _default_p_grid(prob.n)

    sweeper = RankSweeper(prob, trials=cfg["trials"], seed=cfg["seed"])
    curves = {}  # method -> (rel trace, rel operator, rel excess), each trials x ranks
    for method in ("random", "pivoted"):
        tr_errs, op_errs, excess = [], [], []
        for phi in sweeper.factors(method):
            tr_err, op_err = prefix_errors(prob.K, phi, ranks)
            tr_errs.append(tr_err / tr_full)
            op_errs.append(op_err / op_full)
            prefix = Spectrum.prefixes(phi, prob.z)
            errs = [prefix(p).error(prob.sigma2, lam) for p in ranks]
            excess.append(np.array(errs) - err_full)
        with np.errstate(over="ignore"):  # a relative excess past the float range is refused below
            rel = np.mean([e / err_full for e in excess], axis=0)
        if not np.all(np.isfinite(rel)):
            raise NumericalError(f"the relative excess over err_full={err_full!r} overflows")
        curves[method] = [np.mean(tr_errs, axis=0), np.mean(op_errs, axis=0), rel]
    rows = [
        (p, float(tr[i]), float(op[i]), float(ex[i]), method)
        for i, p in enumerate(ranks)
        for method, (tr, op, ex) in curves.items()
    ]
    meta = _base_meta(cfg) + [
        ("lambda", float(lam)),
        ("lambda_source", "config" if cfg.get("lam") is not None else "optimal-on-default-grid"),
        ("sigma2", prob.sigma2),
        ("err_full", err_full),
    ]
    header = ["p", "rel_trace_err", "rel_op_err", "rel_pred_excess", "method"]
    return meta, header, rows


def _grid_spectrum(spectrum: SpectrumSpec, n: int, cover) -> tuple[float, Spectrum]:
    """tr(K)/n and the half spectrum of the size-n grid problem, with the signal's coefficients.

    ``cover`` is ``(grid_row(beta, N), residue_tails(delta, N))`` for a
    multiple N of n, whose every (N/n)-th entries are this size's own (see
    :func:`grid_row` and :func:`_residue_fold`). The eigenvalues are the real
    FFT of the assembled floating-point first row; the signal's Fourier
    coefficients come from its residue fold (:func:`signal_fourier`), so z
    itself is never formed.
    """
    row, tails = cover
    row0 = row[:: row.size // n]
    return float(row0[0]), Spectrum.circulant(row0, signal_fourier(spectrum.delta, n, tails))


def _rate_row(n: int, mean_diag: float, spec: Spectrum, sigma2: float) -> tuple:
    """One ``rates`` row: n, lambda*, the error at lambda*, d_ave, d_max and whether lambda* saturated."""
    choice = optimal_lambda(spec, sigma2, default_lambda_grid(mean_diag))
    d_max, _, d_ave = spec.dof(choice.lambda_star)
    return (n, choice.lambda_star, choice.error_star, d_ave, d_max, choice.saturated)


def run_rate_check(cfg: dict):
    """Optimal lambda, optimal error, and degrees of freedom across n.

    Each size costs O(n) work, done once (:func:`_grid_spectrum`): one real
    FFT of the assembled floating-point first row of the circulant kernel
    matrix gives the half spectrum a circulant solver sees, whose
    machine-precision floor is exactly what makes the very smooth beta = 8
    family saturate; the signal's coefficients come from its residue fold
    without forming z, and the 52 lambdas of :func:`optimal_lambda` are
    scored in tiles. No n x n matrix is built. The noise level is
    calibrated once at the middle n, by Parseval from that size's
    coefficients, and held fixed. Exponent fits drop the ``drop_smallest``
    smallest sizes and need 4 distinct sizes; fits are refused when the
    sweep saturates or sigma^2 = 0.

    The first row and the Hurwitz zeta tails are computed once per cover,
    the largest size in n_list that a size divides (itself if no larger
    size is a multiple), and each size reads every (N/n)-th entry of its
    cover N's arrays. Those slices are the size's own arrays bit for bit:
    r/n and (r N/n)/N round the same rational to the same float, and the
    kernel and zeta act elementwise. A cover's arrays live until the last
    size that reads them, the cover itself, takes them over.
    """
    n_list = sorted(cfg["n_list"])
    if len(n_list) < 5:
        raise ConfigError(f"rates needs at least 5 sizes in n_list (got {n_list!r})")
    spectrum = SpectrumSpec(cfg["beta"], cfg["delta"])
    sizes = sorted(set(n_list))
    covers = {n: max(N for N in sizes if N % n == 0) for n in sizes}
    readers = Counter(covers.values())
    arrays = {}

    def grid_spectrum(n):
        N = covers[n]
        if N not in arrays:
            arrays[N] = (grid_row(spectrum.beta, N), residue_tails(spectrum.delta, N))
        readers[N] -= 1
        return _grid_spectrum(spectrum, n, arrays[N] if readers[N] else arrays.pop(N))

    mid = n_list[len(n_list) // 2]
    mid_spectrum = grid_spectrum(mid)
    sigma2 = _sigma2(cfg, float(np.sum(mid_spectrum[1].coef2)) / mid)

    # one size's spectrum is alive at a time, beside the middle one's
    found = {n: _rate_row(n, *(mid_spectrum if n == mid else grid_spectrum(n)), sigma2) for n in sizes}
    rows = [found[n] for n in n_list]
    any_saturated = any(r[5] for r in rows)

    meta = _base_meta(cfg) + [("sigma2", sigma2)]
    fit_rows = rows[cfg["drop_smallest"] :]
    if sigma2 == 0.0:
        meta.append(("rate_fit", "refused: sigma2 = 0, lambda* pinned at grid minimum"))
    elif any_saturated:
        meta.append(("rate_fit", "refused: lambda* saturated at machine precision"))
    elif len({r[0] for r in fit_rows}) < 4:
        meta.append(("rate_fit", "refused: fewer than 4 sizes after dropping"))
    else:
        lam_fit = fit_rate([(r[0], r[1]) for r in fit_rows])
        err_fit = fit_rate([(r[0], r[2]) for r in fit_rows])
        dav_fit = fit_rate([(r[0], r[3]) for r in fit_rows])
        meta += [
            ("lambda_exponent", lam_fit.exponent),
            ("lambda_fit_r2", lam_fit.r_squared),
            ("error_exponent", err_fit.exponent),
            ("error_fit_r2", err_fit.r_squared),
            ("dave_exponent", dav_fit.exponent),
            ("dave_fit_r2", dav_fit.r_squared),
        ]
    if any_saturated:
        first = next(r[0] for r in rows if r[5])
        meta.append(("saturation", f"lambda* saturated from n={first}"))
    header = ["n", "lambda_star", "err_star", "d_ave", "d_max", "saturated"]
    return meta, header, rows


def run_rank_ratio(cfg: dict):
    """Sufficient rank over degrees of freedom across a lambda grid."""
    prob = _synthetic_problem(cfg)
    scale = np.geomspace(cfg["lambda_lo"], cfg["lambda_hi"], cfg["lambda_points"])
    top = float(np.max(scale))
    if not prob.mean_diag * top < math.inf:
        raise ConfigError(f"lambda={top!r} times tr(K)/n={prob.mean_diag!r} is not finite")
    lams = prob.mean_diag * scale
    sweeper = RankSweeper(prob, trials=cfg["trials"], seed=cfg["seed"])
    rows = []
    for lam in lams:
        d_max, d_trace, d_ave = prob.spectrum.dof(float(lam))
        if not d_ave > 0:  # d_max >= d_ave
            raise ConfigError(f"lambda={float(lam)!r} leaves no degrees of freedom; lower lambda_hi")
        p_rand = sweeper.sufficient_rank(float(lam), "random", cfg["tol"])
        p_piv = sweeper.sufficient_rank(float(lam), "pivoted", cfg["tol"])
        ratios = (p_rand / d_max, p_piv / d_max, d_max / d_ave)
        rows.append((float(lam), d_max, d_ave, p_rand, p_piv, *ratios))
    meta = _base_meta(cfg) + [("sigma2", prob.sigma2), ("tol", cfg["tol"])]
    header = ["lambda", "d_max", "d_ave", "p_star_random", "p_star_pivoted"]
    header += ["ratio_random", "ratio_pivoted", "dmax_over_dave"]
    return meta, header, rows


def run_verify_theorem(cfg: dict):
    """Error-ratio check of the rank bound at one (lambda, delta, p)."""
    prob = _synthetic_problem(cfg)
    lam = cfg.get("lam")
    if lam is None:
        lam = _optimal_lambda(prob)
    d_max, _, _ = prob.spectrum.dof(lam)
    p = cfg.get("p")
    bound_p = None
    if p is None:
        try:
            # R^2 = max_i K_ii is the constant diagonal of the circulant K
            bound_p = theorem_rank_bound(d_max, cfg["slack"], prob.n, prob.mean_diag, lam)
            p = min(prob.n, bound_p)
        except VacuousBoundError:
            p = prob.n
    check = verify_theorem(prob, lam, cfg["slack"], p, cfg["trials"], cfg["seed"])
    meta = _base_meta(cfg) + [
        ("lambda", lam),
        ("sigma2", prob.sigma2),
        ("d_max", d_max),
        ("bound_p", "n/a" if bound_p is None else bound_p),
    ]
    header = ["p", "trials", "ratio_mean", "bound", "holds", "high_prob_threshold"]
    header += ["frac_above_threshold", "high_prob_bound"]
    rows = [tuple(getattr(check, name) for name in header)]
    return meta, header, rows


LEMMA_FAMILIES = {"gaussian": 0, "decaying": 1, "outlier": 2}


def lemma_family(name: str, n: int, r: int, seed) -> np.ndarray:
    """Test matrices for the subsampled-covariance tail check.

    gaussian: i.i.d. rows; decaying: column scales j^(-1), a smooth
    covariance profile; outlier: a few rows with much larger norm, stressing
    the R^2 dependence of the bound.
    """
    if name not in LEMMA_FAMILIES:
        raise ConfigError(f"unknown lemma family {name!r}")
    n, r = scalar(n, "n", int, ">= 1"), scalar(r, "r", int, ">= 1")
    rng = generator(seed, 1000 + LEMMA_FAMILIES[name])
    psi = rng.standard_normal((n, r))
    if name == "decaying":
        psi = psi * (np.arange(1, r + 1) ** -1.0)[None, :]
    elif name == "outlier":
        psi[: max(1, n // 50)] *= 4.0
    return psi


def run_verify_lemma(cfg: dict):
    """Monte-Carlo tail probabilities against the concentration bound."""
    n, families = cfg["n"], cfg["families"]
    psis = [lemma_family(fam, n, cfg["r"], cfg["seed"]) for fam in families]
    # one subset draw per (p, trial), shared by every family
    devs = {p: lemma_deviations(psis, p, cfg["trials"], cfg["seed"]) for p in cfg["p_list"]}
    rows = []
    for f, (fam, psi) in enumerate(zip(families, psis)):
        lam_max = float(np.linalg.eigvalsh(psi.T @ psi / n)[-1])
        t_grid = lam_max * np.geomspace(0.05, 1.0, cfg["t_points"])
        for p in cfg["p_list"]:
            for tval, emp, bnd in lemma_tail(psi, p, t_grid, devs[p][f]):
                rows.append((fam, p, tval, emp, bnd, emp <= bnd))
    meta = _base_meta(cfg)
    header = ["family", "p", "t", "empirical_prob", "bound", "within_bound"]
    return meta, header, rows


def run_fit(cfg: dict):
    """Log-log rate fit of a (n, value) table from CSV."""
    if not cfg.get("input"):
        raise ConfigError("fit needs input=<csv path>")
    data = load_dataset(
        cfg["input"],
        target_column=cfg["value_column"],
        feature_columns=[cfg["n_column"]],
        standardize=False,
        min_rows=4,
    )
    pairs = list(zip(data.features[:, 0], data.targets))
    fit = fit_rate(pairs)
    meta = _base_meta(cfg)
    header = ["exponent", "intercept", "r_squared", "points"]
    rows = [(fit.exponent, fit.intercept, fit.r_squared, len(pairs))]
    return meta, header, rows


def run_cv(cfg: dict):
    """Cross-validated lambda for a real dataset on the low-rank path."""
    if not cfg.get("input"):
        raise ConfigError("cv needs input=<csv path>")
    data = load_dataset(cfg["input"], target_column=cfg["target_column"])
    rng = generator(cfg["seed"], 0)
    if data.n > cfg["n_cap"]:
        keep = np.sort(rng.choice(data.n, size=cfg["n_cap"], replace=False))
        data.features = data.features[keep]
        data.targets = data.targets[keep]
    bandwidth = cfg.get("bandwidth")
    if bandwidth is None:
        bandwidth = median_distance_bandwidth(data.features, seed=cfg["seed"])
    spec = KernelSpec.gaussian(float(bandwidth))
    lo, hi = cfg["lambda_min"], cfg["lambda_max"]
    if not lo <= hi:
        raise ConfigError(f"cv needs lambda_min <= lambda_max (got {lo!r}, {hi!r})")
    grid = np.geomspace(lo, hi, cfg["lambda_points"])
    result = cross_validate_lambda(
        data,
        spec,
        grid,
        folds=cfg["folds"],
        seed=generator(cfg["seed"], 1),
        trace_rtol=cfg["trace_rtol"],
    )
    if result.lambda_star == result.lambda_grid[0]:
        logger.warning("cv: lambda*=%r is the smallest grid point; the optimum may lie "
                       "below lambda_min", result.lambda_star)
    elif result.lambda_star == result.lambda_grid[-1]:
        logger.warning("cv: lambda*=%r is the largest grid point; the optimum may lie "
                       "above lambda_max", result.lambda_star)
    meta = _base_meta(cfg) + [
        ("bandwidth", float(bandwidth)),
        ("lambda_star", result.lambda_star),
        ("ranks", result.ranks),
    ]
    header = ["lambda", "cv_error", "is_best"]
    rows = [
        (float(lam), float(err), bool(lam == result.lambda_star))
        for lam, err in zip(result.lambda_grid, result.errors)
    ]
    return meta, header, rows


RUNNERS = {
    "fig1": run_fig1,
    "rates": run_rate_check,
    "rank-ratio": run_rank_ratio,
    "verify-theorem": run_verify_theorem,
    "verify-lemma": run_verify_lemma,
    "fit": run_fit,
    "cv": run_cv,
}


def run_experiment(cfg: dict):
    return RUNNERS[cfg["experiment"]](cfg)
