"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete. Budgeted runtimes are asserted against the stated
limits; all tolerances are fixed here, not calibrated.
"""

import math
import time

import numpy as np
import pytest

from nyridge.experiments import (
    render_csv,
    resolve_config,
    run_fig1,
    run_rank_ratio,
    run_rate_check,
    run_verify_lemma,
)
from nyridge.lowrank import (
    make_column_oracle,
    materialized_diag,
    nystrom,
    pivoted_ichol,
    sample_columns,
)
from nyridge.regression import krr_lowrank
from nyridge.stats import (
    bias_variance,
    default_lambda_grid,
    dof,
    optimal_lambda,
    problem_spectrum,
    theorem_rank_bound,
    verify_theorem,
)
from nyridge.errors import VacuousBoundError
from nyridge.synthetic import SpectrumSpec, draw_noise, grid_problem, sigma2_for_snr


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def random_psd(n, rng, cond_floor=1e-6):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    ev = 10.0 ** rng.uniform(np.log10(cond_floor), 0.0, size=n)
    return (q * ev) @ q.T


@pytest.fixture(scope="module")
def suite1_instances():
    rng = np.random.default_rng(20240)
    out = []
    for _ in range(100):
        n = int(rng.integers(4, 65))
        K = random_psd(n, rng)
        p = int(rng.integers(1, n + 1))
        out.append((K, n, p))
    return out


@pytest.fixture(scope="module")
def suite2_instances():
    rng = np.random.default_rng(20241)
    out = []
    for _ in range(50):
        n = int(rng.integers(10, 101))
        K = random_psd(n, rng)
        p = int(rng.integers(1, n + 1))
        lam = 10.0 ** rng.uniform(-6, 0)
        y = rng.normal(size=n)
        out.append((K, n, p, lam, y))
    return out


@pytest.fixture(scope="module")
def shared_problem():
    # the n = 400, beta = 1 configuration shared by criteria 5, 6, and 10
    cfg = resolve_config("fig1")
    prob = grid_problem(cfg["n"], SpectrumSpec(cfg["beta"], cfg["delta"]), 0.0)
    prob.sigma2 = sigma2_for_snr(float(np.mean(np.square(prob.z))), cfg["snr"])
    lam = optimal_lambda(problem_spectrum(prob), prob.sigma2, default_lambda_grid(prob.mean_diag)).lambda_star
    return prob, lam


def test_criterion_1_oracle_equivalence(suite1_instances):
    t0 = time.time()
    worst_ny, worst_ic = 0.0, 0.0
    rng = np.random.default_rng(1)
    for K, n, p in suite1_instances:
        sel = sample_columns(n, p, rng)
        idx = sel.indices
        cols = K[:, idx]
        direct = cols @ np.linalg.pinv(K[np.ix_(idx, idx)], rcond=1e-11) @ cols.T
        built = nystrom(K, sel).gram()
        scale = max(np.linalg.norm(direct), 1e-12)
        worst_ny = max(worst_ny, np.linalg.norm(built - direct) / scale)

        fac = pivoted_ichol(make_column_oracle(K), materialized_diag(K), max_rank=p)
        pidx = fac.selection.indices
        pcols = K[:, pidx]
        pdirect = pcols @ np.linalg.pinv(K[np.ix_(pidx, pidx)], rcond=1e-11) @ pcols.T
        pscale = max(np.linalg.norm(pdirect), 1e-12)
        worst_ic = max(worst_ic, np.linalg.norm(fac.gram() - pdirect) / pscale)
    elapsed = time.time() - t0
    ok = worst_ny <= 1e-8 and worst_ic <= 1e-8 and elapsed < 30
    report(
        1,
        ok,
        f"nystrom vs direct {worst_ny:.2e}, ichol vs direct {worst_ic:.2e} "
        f"(tol 1e-8, {elapsed:.1f}s < 30s)",
    )


def test_criterion_2_smoother_identity(suite2_instances):
    t0 = time.time()
    worst = 0.0
    for K, n, p, lam, y in suite2_instances:
        F = nystrom(K, sample_columns(n, p, n))
        _, zhat = krr_lowrank(F, y, lam)
        L = F.gram()
        oracle = L @ np.linalg.solve(L + n * lam * np.eye(n), y)
        worst = max(worst, np.linalg.norm(zhat - oracle) / max(np.linalg.norm(oracle), 1e-12))
    elapsed = time.time() - t0
    ok = worst <= 1e-8 and elapsed < 10
    report(2, ok, f"max relative deviation {worst:.2e} (tol 1e-8, {elapsed:.1f}s < 10s)")


def test_criterion_3_dof_chain(suite1_instances, suite2_instances):
    rng = np.random.default_rng(3)
    worst_slack = -np.inf
    count = 0
    mats = [(K, n) for K, n, _ in suite1_instances]
    mats += [(K, n) for K, n, _, _, _ in suite2_instances]
    for K, n in mats:
        lam = 10.0 ** rng.uniform(-8, 0)
        d_max, d_trace, d_ave = dof(K, lam)
        worst_slack = max(worst_slack, d_trace - d_max, d_ave - d_trace, -d_ave)
        count += 1
    ok = worst_slack <= 1e-10 * 100
    report(3, ok, f"chain d_max >= d_trace >= d_ave >= 0 on {count} instances "
                  f"(largest chain gap {worst_slack:.2e}; negative means satisfied, "
                  f"slack 1e-10 n)")


def test_criterion_4_bias_variance_monte_carlo():
    t0 = time.time()
    n, trials = 100, 2000
    prob = grid_problem(n, SpectrumSpec(1, 3.0), 0.0)
    prob.sigma2 = sigma2_for_snr(float(np.mean(np.square(prob.z))), 1.0)
    lam_star = optimal_lambda(
        problem_spectrum(prob), prob.sigma2, default_lambda_grid(prob.mean_diag)
    ).lambda_star
    K, z = prob.K, prob.z
    details = []
    ok = True
    for j, lam in enumerate((lam_star / 10, lam_star, lam_star * 10)):
        S = K @ np.linalg.inv(K + n * lam * np.eye(n))
        eps = draw_noise(n, prob.sigma2, trials, seed=100 + j)
        preds = S @ (z[:, None] + eps.T)
        errs = np.mean((preds - z[:, None]) ** 2, axis=0)
        mc_mean = float(errs.mean())
        mc_se = float(errs.std(ddof=1) / np.sqrt(trials))
        b, v = bias_variance(K, z, prob.sigma2, lam)
        gap = abs(b + v - mc_mean)
        ok &= gap <= 3 * mc_se
        details.append(f"lam={lam:.2e}: |closed-MC|={gap:.2e} vs 3SE={3 * mc_se:.2e}")
    elapsed = time.time() - t0
    ok &= elapsed < 20
    report(4, ok, "; ".join(details) + f" ({elapsed:.1f}s < 20s)")


def crossing_rank(rows_for_method, col, threshold):
    for row in rows_for_method:
        if row[col] < threshold:
            return row["p"]
    return None


def test_criterion_5_fig1_crossing_ranks():
    t0 = time.time()
    cfg = resolve_config("fig1")  # n=400, beta=1, 10 trials
    meta, header, rows = run_fig1(cfg)
    idx = {h: i for i, h in enumerate(header)}
    ok = True
    details = []
    for method in ("random", "pivoted"):
        mrows = [
            {h: r[idx[h]] for h in header} for r in rows if r[idx["method"]] == method
        ]
        p_pred = crossing_rank(mrows, "rel_pred_excess", 1e-2)
        p_tr = crossing_rank(mrows, "rel_trace_err", 0.1)
        good = p_pred is not None and p_tr is not None and 2 * p_pred <= p_tr
        ok &= good
        details.append(f"{method}: p_pred={p_pred}, p_trace={p_tr}")
    elapsed = time.time() - t0
    ok &= elapsed < 300
    report(5, ok, "; ".join(details) + f" (need 2 p_pred <= p_trace, {elapsed:.0f}s < 300s)")


def test_criterion_6_theorem_bound(shared_problem):
    t0 = time.time()
    prob, lam = shared_problem
    n = prob.n
    delta = 0.25
    d_max, _, _ = dof(prob.K, lam)
    try:
        bound = theorem_rank_bound(d_max, delta, n, np.max(np.diag(prob.K)), lam)
    except VacuousBoundError:
        bound = n
    p_bound = min(n, bound)
    check = verify_theorem(prob, lam, delta, p_bound, trials=50, seed=6)
    ok = check.ratio_mean <= 2.0
    details = [f"p=min(n,{bound})={p_bound}: mean ratio {check.ratio_mean:.4f} <= 2"]

    worst = 0.0
    p_lo = int(math.ceil(4 * d_max))
    p_grid = sorted(set(np.geomspace(p_lo, n, 12).astype(int)) | {p_lo, n})
    for k, p in enumerate(p_grid):
        c = verify_theorem(prob, lam, delta, int(p), trials=50, seed=60 + k)
        worst = max(worst, c.ratio_mean)
        ok &= c.ratio_mean <= 2.0
    elapsed = time.time() - t0
    ok &= elapsed < 300
    details.append(
        f"all p >= 4 d_max ({p_lo}..{n}): worst mean ratio {worst:.4f} <= 2"
    )
    report(6, ok, "; ".join(details) + f" ({elapsed:.0f}s < 300s)")


def test_criterion_7_lemma_tail_bound():
    t0 = time.time()
    cfg = resolve_config("verify-lemma")  # n=200, r=20, p in {20,40,80}, 1e4 trials
    meta, header, rows = run_verify_lemma(cfg)
    idx = {h: i for i, h in enumerate(header)}
    violations = [
        r for r in rows if r[idx["empirical_prob"]] > r[idx["bound"]] + 1e-12
    ]
    elapsed = time.time() - t0
    ok = not violations and elapsed < 120
    report(
        7,
        ok,
        f"{len(rows)} (family, p, t) cells, {len(violations)} bound violations "
        f"({elapsed:.0f}s < 120s)",
    )


def test_criterion_8_rate_fits():
    t0 = time.time()
    cfg48 = resolve_config("rates", None, {"beta": 4, "delta": 8.0})
    meta48 = dict(run_rate_check(cfg48)[0])
    lam_exp = float(meta48["lambda_exponent"])
    err_exp = float(meta48["error_exponent"])
    cfg12 = resolve_config("rates", None, {"beta": 1, "delta": 2.0})
    meta12 = dict(run_rate_check(cfg12)[0])
    dave_exp = float(meta12["dave_exponent"])
    lam12_exp = float(meta12["lambda_exponent"])
    err12_exp = float(meta12["error_exponent"])
    ok_lam = abs(lam_exp - (-0.5)) <= 0.15
    ok_err = abs(err_exp - (1 / 16 - 1)) <= 0.15
    ok_dave = abs(dave_exp - 0.25) <= 0.1
    # the (1, 2) family sits in the same regime (2 delta < 4 beta + 1), so
    # its lambda* and error exponents face the analogous bands
    ok_12 = abs(lam12_exp - (-0.5)) <= 0.15 and abs(err12_exp - (-0.75)) <= 0.15
    elapsed = time.time() - t0
    ok = ok_lam and ok_err and ok_dave and ok_12 and elapsed < 900
    report(
        8,
        ok,
        f"(b=4,d=8): lambda* exp {lam_exp:.3f} (target -0.5+/-0.15), "
        f"error exp {err_exp:.3f} (target -0.9375+/-0.15); "
        f"(b=1,d=2): d_ave exp {dave_exp:.3f} (target 0.25+/-0.1), "
        f"lambda* exp {lam12_exp:.3f} (-0.5+/-0.15), "
        f"error exp {err12_exp:.3f} (-0.75+/-0.15) "
        f"({elapsed:.0f}s < 900s)",
    )


def test_criterion_9_saturation_regime():
    cfg = resolve_config(
        "rates",
        None,
        {
            "beta": 8,
            "delta": 8.0,
            "sigma2": 1e-13,
            "n_list": [64, 128, 256, 512, 1024, 2048],
        },
    )
    meta, header, rows = run_rate_check(cfg)
    md = dict(meta)
    idx = {h: i for i, h in enumerate(header)}
    flags = [(r[idx["n"]], r[idx["saturated"]]) for r in rows]
    flagged_ns = [n for n, s in flags if s]
    ok = bool(flagged_ns)
    n0 = min(flagged_ns) if flagged_ns else None
    if ok:
        ok &= all(s for n, s in flags if n >= n0)  # saturated for all n >= n0
        ok &= "refused" in md.get("rate_fit", "")
    report(
        9,
        ok,
        f"lambda* saturation flagged from n0={n0} onward "
        f"(flags: {flags}); rate fit refused: {md.get('rate_fit', 'n/a')!r}",
    )


def test_criterion_10_rank_ratio_bands():
    t0 = time.time()
    cfg = resolve_config("rank-ratio")  # n=400, 10-point lambda grid
    meta, header, rows = run_rank_ratio(cfg)
    idx = {h: i for i, h in enumerate(header)}
    rr = [r[idx["ratio_random"]] for r in rows]
    dd = [r[idx["dmax_over_dave"]] for r in rows]
    piv_le_rand = sum(
        1 for r in rows if r[idx["p_star_pivoted"]] <= r[idx["p_star_random"]]
    )
    ok_band = all(0.1 <= v <= 10.0 for v in rr)
    ok_dof = all(v <= 4.0 for v in dd)
    ok_piv = piv_le_rand >= len(rows) / 2
    elapsed = time.time() - t0
    ok = ok_band and ok_dof and ok_piv and elapsed < 600
    report(
        10,
        ok,
        f"p*_random/d_max in [{min(rr):.2f}, {max(rr):.2f}] (band [0.1, 10]); "
        f"d_max/d_ave max {max(dd):.2f} <= 4; pivoted <= random on "
        f"{piv_le_rand}/{len(rows)} grid points ({elapsed:.0f}s < 600s)",
    )


def test_criterion_11_determinism():
    outputs = []
    for cfg, runner in (
        (resolve_config("fig1", None, {"n": 128, "trials": 5, "seed": 17}), run_fig1),
        (
            resolve_config(
                "rank-ratio", None, {"n": 128, "trials": 3, "lambda_points": 5, "seed": 17}
            ),
            run_rank_ratio,
        ),
        (
            resolve_config(
                "verify-lemma", None, {"n": 80, "r": 8, "trials": 500, "seed": 17}
            ),
            run_verify_lemma,
        ),
    ):
        a = render_csv(*runner(cfg))
        b = render_csv(*runner(cfg))
        outputs.append(a == b)
    ok = all(outputs)
    report(11, ok, f"byte-identical reruns for fig1/rank-ratio/verify-lemma: {outputs}")
