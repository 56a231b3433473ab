import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nyridge
from nyridge import cli, experiments, synthetic
from nyridge.datasets import write_dataset_csv
from nyridge.errors import ConfigError, NumericalError
from nyridge.experiments import (
    CONFIG,
    config_hash,
    lemma_family,
    render_csv,
    resolve_config,
    run_experiment,
    run_fig1,
    run_rank_ratio,
    run_rate_check,
    run_verify_lemma,
    run_verify_theorem,
    write_csv,
)
from nyridge.stats import Spectrum, bias_variance, lemma_deviations, lemma_tail, lowrank_bias_variance
from nyridge.synthetic import SpectrumSpec, grid_problem, grid_row, signal_fourier


def rows_by(header, rows, **filters):
    idx = {h: i for i, h in enumerate(header)}
    out = []
    for r in rows:
        if all(r[idx[k]] == v for k, v in filters.items()):
            out.append({h: r[idx[h]] for h in header})
    return out


class TestConfig:
    def test_defaults_plus_overrides(self):
        cfg = resolve_config("fig1", {"n": 100}, {"trials": 3})
        assert cfg["n"] == 100 and cfg["trials"] == 3 and cfg["beta"] == 1

    def test_cli_beats_file(self):
        cfg = resolve_config("fig1", {"n": 100}, {"n": 64})
        assert cfg["n"] == 64

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            resolve_config("fig1", {"bogus": 1})

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError):
            resolve_config("fig9")

    def test_hash_stable_and_sensitive(self):
        a = resolve_config("fig1", None, {"n": 64})
        b = resolve_config("fig1", None, {"n": 64})
        c = resolve_config("fig1", None, {"n": 65})
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash(c)


# Each bad value is given once, by --config file or by flag, with the key the
# message must name (None where the file itself is not a JSON object).
BAD_CONFIGS = [
    (["fig1"], {"n": "abc"}, "n"),
    (["fig1"], {"n": 100.5}, "n"),
    (["fig1"], {"snr": "high"}, "snr"),
    (["rates"], {"n_list": "64,128,256,512,1024"}, "n_list"),
    (["fig1"], [1, 2], None),
    (["fig1"], "x", None),
    (["fig1"], 3, None),
    (["cv", "--n-cap", "-3"], None, "n_cap"),
    (["fig1", "--seed", "-1"], None, "seed"),
    (["fig1"], {"trials": True}, "trials"),
    (["cv"], {"folds": 2.5}, "folds"),
    (["cv"], {"lambda_points": 3.7}, "lambda_points"),
    (["fig1"], {"seed": "x"}, "seed"),
    (["rates", "--drop-smallest", "-1"], None, "drop_smallest"),
    (["verify-lemma"], {"families": "gaussian"}, "families"),
    (["verify-lemma"], {"p_list": "20"}, "p_list"),
    (["cv"], {"input": 5}, "input"),
    (["cv"], {"lambda_max": math.inf}, "lambda_max"),
    (["verify-theorem", "--n", "32", "--trials", "2", "--slack", "nan"], None, "slack"),
    (["fig1", "--delta", "0.8"], None, "delta"),
    (["rates", "--delta", "1"], None, "delta"),
    (["rates", "--beta", "5"], None, "beta"),
]

# Runs whose config is valid but whose numbers are not: each must exit 2 or
# 3 with the given message and write no CSV. The first two once wrote NaN
# CSVs with exit 0; the third ended in an OverflowError traceback and the
# two after it in ZeroDivisionError tracebacks. The next four have a full
# error of 0, or one so small that the relative excess overflows: the
# verify-theorem run ended in a ZeroDivisionError traceback, the fig1 runs
# printed numpy warnings before the writer refused their CSV, and the
# rank-ratio run wrote p* = n, a target (1 + tol) 0 that no rank can meet,
# with exit 0. The whole-
# experiment fuzz found the last three: an overflow warning from n lambda in
# cv and from lambda_hi tr(K)/n in rank-ratio, and an OverflowError
# traceback from an infinite rank bound.
BAD_RUNS = [
    (["fig1", "--n", "16", "--trials", "1", "--lam", "1e308"], 3, "n lambda at lambda=1e+308"),
    (["cv", "--input", "toy.csv", "--bandwidth", "1e-300"], 3, "bandwidth 1e-300"),
    (["cv", "--input", "toy.csv", "--bandwidth", "1e200"], 3, "bandwidth 1e+200"),
    (["fig1", "--n", "16", "--trials", "1", "--snr", "1e-200"], 2, "sigma2 must be"),
    (["rank-ratio", "--n", "16", "--trials", "1", "--lambda-hi", "1e300"], 2, "lambda="),
    (["verify-theorem", "--n", "15", "--trials", "2", "--sigma2", "0", "--lam", "1e-300",
      "--p", "4"], 3, "full-matrix error at lambda=1e-300 is 0.0"),
    (["fig1", "--n", "16", "--trials", "1", "--sigma2", "0", "--lam", "1e-300"],
     3, "full-matrix error at lambda=1e-300 is 0.0"),
    (["rank-ratio", "--n", "16", "--trials", "1", "--sigma2", "0", "--lambda-lo", "1e-300",
      "--lambda-hi", "1e-300", "--lambda-points", "1"],
     3, "full-matrix error at lambda=3.2898681336964525e-300 is 0.0; no ratio to it"),
    (["fig1", "--n", "17", "--trials", "1", "--beta", "2", "--delta", "4.016285629714771",
      "--sigma2", "0", "--lam", "3.58e-162"], 3, "relative excess over err_full="),
    (["cv", "--input", "toy.csv", "--lambda-min", "1e307", "--lambda-max", "1e307",
      "--lambda-points", "1"], 3, "n lambda at lambda=1e+307"),
    (["rank-ratio", "--n", "16", "--trials", "1", "--lambda-hi", "1e308"], 2, "times tr(K)/n="),
    (["verify-theorem", "--n", "14", "--trials", "2", "--sigma2", "1", "--lam", "5e-316"],
     3, "rank bound at lambda=5e-316"),
]

CONFIG_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None)

# small numbers and known names, so that a fair share of draws is valid
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-2, 50), st.floats(), st.floats(-1, 2),
    st.sampled_from([math.nan, math.inf, -math.inf]), st.text(max_size=6),
    st.sampled_from(["gaussian", "outlier"]),
)
JSON_VALUES = st.one_of(
    JSON_SCALARS,
    st.lists(JSON_SCALARS, max_size=4),
    st.lists(st.integers(0, 50), max_size=4),
    st.lists(st.sampled_from(["gaussian", "outlier", "x"]), max_size=3),
    st.lists(st.lists(JSON_SCALARS, max_size=2), max_size=2),
    st.dictionaries(st.text(max_size=3), JSON_SCALARS, max_size=2),
)

def meets(bound: str, x) -> bool:
    """The bound text read independently of ``experiments.BOUNDS``."""
    if bound == "in (0, 1)":
        return 0 < x < 1
    if not bound:
        return True
    op, limit = bound.split()
    return {">=": x >= float(limit), ">": x > float(limit)}[op]


def conforms(value, key) -> bool:
    if value is None:
        return key.default is None
    if key.item is not None:
        entry = key._replace(kind=key.item)
        return type(value) is list and value != [] and all(conforms(v, entry) for v in value)
    if type(value) is not key.kind or (key.kind is float and not math.isfinite(value)):
        return False
    return key.kind is str or meets(key.bound, value)


class TestConfigTable:
    @pytest.mark.parametrize("argv,file_cfg,key", BAD_CONFIGS)
    def test_bad_value_exits_2_naming_its_key(self, argv, file_cfg, key, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        if file_cfg is not None:
            (tmp_path / "c.json").write_text(json.dumps(file_cfg))
            argv = [*argv, "--config", "c.json"]
        assert cli.main([*argv, "--out", "x.csv"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "Traceback" not in err
        assert f"{key} must be" in err if key else "must hold a JSON object" in err
        assert err.rstrip().endswith(")") and "(got " in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("argv,code,message", BAD_RUNS)
    def test_bad_run_exits_without_csv(self, argv, code, message, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        X = np.random.default_rng(1).normal(size=(60, 2))
        write_dataset_csv(tmp_path / "toy.csv", X, X[:, 0] - X[:, 1])
        assert cli.main([*argv, "--out", "x.csv"]) == code
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("exc", [MemoryError("Unable to allocate 20.5 GiB"), MemoryError()])
    def test_memory_error_exits_3_without_csv(self, exc, tmp_path, monkeypatch, capsys):
        def exhausted(cfg):
            raise exc

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "run_experiment", exhausted)
        assert cli.main(["fig1", "--out", "x.csv"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: out of memory (") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["rates", "--config", "bad.json"], "cannot load config bad.json: "),
            (["rates", "--config", "deep.json"], "cannot load config deep.json: maximum recursion"),
            (["cv", "--input", "bad.csv"], "cannot read bad.csv: "),
            (["fit", "--input", "bad.csv"], "cannot read bad.csv: "),
            (["cv", "--input", "big.csv"], "cannot read big.csv: field larger than field limit"),
        ],
    )
    def test_unreadable_input_exits_2_without_csv(self, argv, message, tmp_path, monkeypatch, capsys):
        # a byte that is not UTF-8, JSON nested past the recursion limit and
        # a cell over the csv field limit used to end in a traceback, exit 1
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.json").write_bytes(b'\xff{"n_list": [16, 32, 64, 128]}')
        (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
        rows = "n,value\n" + "".join(f"{2 ** k},{0.5 ** k}\n" for k in range(4, 14))
        (tmp_path / "bad.csv").write_bytes(rows.encode() + b"\xff,1\n")
        cell = '"' + "1" * 200_000 + '"'
        (tmp_path / "big.csv").write_text(f"x0,target\n{cell},1\n" + "1,2\n" * 20)
        assert cli.main([*argv, "--out", "x.csv"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {message}") and "Traceback" not in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("out", ["missing/x.csv", "taken"])
    def test_unwritable_out_exits_2(self, out, tmp_path, monkeypatch, capsys):
        # a missing directory or a directory in place of the file used to
        # end in a traceback with exit 1
        monkeypatch.chdir(tmp_path)
        (tmp_path / "taken").mkdir()
        assert cli.main(["rates", "--n-list", "16,24,32,48,64", "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write {out}: ") and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
        assert not any((tmp_path / "taken").iterdir())

    def test_hash_does_not_depend_on_where_a_value_came_from(self, tmp_path, monkeypatch):
        # an int for a float key is stored as a float, so --delta 8 and a
        # file's "delta": 8 record the same config
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.json").write_text(json.dumps({"delta": 8}))
        sizes = ["--n-list", "16,24,32,48,64"]
        assert cli.main(["rates", *sizes, "--delta", "8", "--out", "flag.csv"]) == 0
        assert cli.main(["rates", *sizes, "--config", "c.json", "--out", "file.csv"]) == 0
        assert (tmp_path / "flag.csv").read_bytes() == (tmp_path / "file.csv").read_bytes()
        assert '"delta": 8.0' in (tmp_path / "file.csv").read_text()

    def test_every_key_has_a_flag(self):
        for cmd, keys in CONFIG.items():
            parser = cli.build_parser(cmd)
            for name in keys:
                args = parser.parse_args([cmd, "--" + name.replace("_", "-"), "7"])
                assert getattr(args, name) == "7"

    def test_families_flag(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = ["verify-lemma", "--n", "40", "--r", "4", "--trials", "20", "--p-list", "8"]
        assert cli.main([*argv, "--families", "outlier,gaussian", "--out", "vl.csv"]) == 0
        rows = (tmp_path / "vl.csv").read_text().splitlines()[-20:]
        assert [r.split(",")[0] for r in rows[::10]] == ["outlier", "gaussian"]

    @pytest.mark.parametrize(
        "experiment,name", [(e, name) for e, keys in CONFIG.items() for name in keys]
    )
    @CONFIG_SETTINGS
    @given(value=JSON_VALUES)
    def test_resolve_returns_typed_values_or_config_error(self, experiment, name, value):
        try:
            cfg = resolve_config(experiment, {name: value})
        except ConfigError:
            return
        keys = CONFIG[experiment]
        assert all(conforms(cfg[k], key) for k, key in keys.items())
        if value is not None:  # an int for a float key is rounded to a float
            assert cfg[name] == (float(value) if keys[name].kind is float else value)


# Whole experiments on drawn configs at small sizes. Floats that scale the
# problem are drawn evenly over their decimal exponent across the whole float
# range (10^-324 rounds to 0, which the config table refuses); delta, which
# must exceed 1, is 1 plus such a float.
POSITIVE = st.floats(-324.0, 308.25).map(lambda e: 10.0**e)
SYNTHETIC = dict(
    beta=st.sampled_from([1, 2, 3, 4, 8]),
    delta=st.floats(-15.0, 308.25).map(lambda e: 1.0 + 10.0**e),
    snr=st.one_of(st.none(), POSITIVE),
    sigma2=st.one_of(st.none(), st.just(0.0), POSITIVE),
    seed=st.integers(0, 3),
)
SIZES = dict(n=st.integers(1, 24), trials=st.integers(1, 2))
FUZZ = {
    "fig1": dict(SYNTHETIC, **SIZES, lam=st.one_of(st.none(), POSITIVE)),
    "rates": dict(
        SYNTHETIC,
        n_list=st.lists(st.integers(1, 80), min_size=5, max_size=5),
        drop_smallest=st.integers(0, 5),
    ),
    "rank-ratio": dict(
        SYNTHETIC, **SIZES, lambda_points=st.integers(1, 3),
        tol=POSITIVE, lambda_lo=POSITIVE, lambda_hi=POSITIVE,
    ),
    "verify-theorem": dict(
        SYNTHETIC, **SIZES, lam=st.one_of(st.none(), POSITIVE),
        slack=st.floats(0.001, 0.999), p=st.one_of(st.none(), st.integers(1, 24)),
    ),
    "verify-lemma": dict(
        n=st.integers(1, 24), trials=st.integers(1, 20), r=st.integers(1, 6),
        p_list=st.lists(st.integers(1, 24), min_size=1, max_size=3), t_points=st.integers(1, 4),
        seed=st.integers(0, 3),
    ),
    "cv": dict(
        folds=st.integers(2, 6), lambda_points=st.integers(1, 4),
        lambda_min=POSITIVE, lambda_max=POSITIVE, bandwidth=st.one_of(st.none(), POSITIVE),
        trace_rtol=st.one_of(st.just(0.0), POSITIVE), n_cap=st.integers(1, 80),
        seed=st.integers(0, 3),
    ),
}
FUZZ_SETTINGS = settings(max_examples=120, deadline=None, derandomize=True, database=None)


def flags(cfg: dict) -> list[str]:
    """CLI flags for the non-None values of ``cfg``; a list is joined with commas."""
    argv = []
    for name, value in cfg.items():
        if value is not None:
            text = ",".join(map(str, value)) if isinstance(value, list) else repr(value)
            argv += ["--" + name.replace("_", "-"), text]
    return argv


def assert_all_finite(text: str) -> None:
    """Every cell of a tagged CSV that reads as a number is finite (the hex hash aside)."""
    for line in text.splitlines():
        if line.startswith("# config_hash="):  # "4240e520" reads as inf
            continue
        for cell in (line.split("=", 1)[1] if line.startswith("# ") else line).split(","):
            try:
                value = float(cell)
            except ValueError:
                continue
            assert math.isfinite(value), line


class TestWholeExperiments:
    @pytest.mark.parametrize("experiment", sorted(FUZZ))
    def test_every_run_keeps_the_exit_contract(self, experiment, tmp_path):
        # exit 0 with a finite CSV, or exit 2 or 3 with none; anything that
        # escapes cli.main fails, a RuntimeWarning included (pytest raises it)
        toy = tmp_path / "toy.csv"
        X = np.random.default_rng(1).normal(size=(60, 2))
        write_dataset_csv(toy, X, X[:, 0] - X[:, 1])
        out = tmp_path / "x.csv"
        extra = ["--input", str(toy)] if experiment == "cv" else []

        @FUZZ_SETTINGS
        @given(cfg=st.fixed_dictionaries(FUZZ[experiment]))
        def run(cfg):
            out.unlink(missing_ok=True)
            code = cli.main([experiment, *flags(cfg), *extra, "--out", str(out)])
            assert code in (0, 2, 3)
            assert out.exists() == (code == 0)
            if code == 0:
                assert_all_finite(out.read_text())

        run()


@pytest.mark.parametrize("experiment, overrides", [
    ("fig1", {"n": 32, "trials": 2}),
    ("rank-ratio", {"n": 32, "trials": 2, "lambda_points": 2}),
    ("verify-theorem", {"n": 40, "trials": 3, "p": 10}),  # built two
])
def test_one_problem_spectrum_per_run(experiment, overrides, monkeypatch):
    circulant, calls = Spectrum.circulant, []

    def counted(row0, zhat=None):
        calls.append(np.size(row0))
        return circulant(row0, zhat)

    monkeypatch.setattr(Spectrum, "circulant", staticmethod(counted))
    run_experiment(resolve_config(experiment, None, overrides))
    assert calls == [overrides["n"]]


class TestCsv:
    def test_render_deterministic(self):
        meta = [("experiment", "x"), ("seed", "0")]
        rows = [(1, 0.5, "random"), (2, 0.25, "pivoted")]
        a = render_csv(meta, ["p", "v", "m"], rows)
        assert a == render_csv(meta, ["p", "v", "m"], rows)
        lines = a.strip().splitlines()
        assert lines[0] == "# experiment=x"
        assert lines[2] == "p,v,m"
        assert lines[3] == "1,0.5,random"

    def test_write(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, [("k", "v")], ["a"], [(1.5,)])
        assert path.read_text() == "# k=v\na\n1.5\n"


class TestFig1:
    def test_small_run_properties(self):
        cfg = resolve_config("fig1", None, {"n": 64, "trials": 3, "seed": 1})
        meta, header, rows = run_fig1(cfg)
        assert header == ["p", "rel_trace_err", "rel_op_err", "rel_pred_excess", "method"]
        # full-rank rows: all error columns at zero
        for row in rows_by(header, rows, p=64):
            assert abs(row["rel_trace_err"]) <= 1e-8
            assert abs(row["rel_op_err"]) <= 1e-8
            assert abs(row["rel_pred_excess"]) <= 1e-8
        # ascending p within each method
        ps = [r["p"] for r in rows_by(header, rows, method="random")]
        assert ps == sorted(ps)

    def test_excess_matches_bias_variance_recompute(self):
        # spot-check the closed-form prediction columns against a direct
        # recomputation on the pivoted path (deterministic)
        cfg = resolve_config("fig1", None, {"n": 48, "trials": 2, "seed": 3})
        meta, header, rows = run_fig1(cfg)
        md = dict(meta)
        lam = float(md["lambda"])
        sigma2 = float(md["sigma2"])
        prob = grid_problem(48, SpectrumSpec(cfg["beta"], cfg["delta"]), sigma2)
        b, v = bias_variance(prob.K, prob.z, sigma2, lam)
        err_full = b + v
        assert err_full == pytest.approx(float(md["err_full"]), rel=1e-10)
        from nyridge.stats import RankSweeper

        sweeper = RankSweeper(prob, trials=2, seed=3)
        piv = sweeper.factors("pivoted")[0]
        for row in rows_by(header, rows, method="pivoted"):
            p = int(row["p"])
            bl, vl = lowrank_bias_variance(piv[:, :p], prob.z, sigma2, lam)
            assert row["rel_pred_excess"] == pytest.approx(
                (bl + vl - err_full) / err_full, rel=1e-8, abs=1e-12
            )

    def test_pivoted_trace_error_never_worse(self):
        cfg = resolve_config("fig1", None, {"n": 64, "trials": 5, "seed": 0})
        _, header, rows = run_fig1(cfg)
        rand = {r["p"]: r["rel_trace_err"] for r in rows_by(header, rows, method="random")}
        piv = {r["p"]: r["rel_trace_err"] for r in rows_by(header, rows, method="pivoted")}
        for p in rand:
            assert piv[p] <= rand[p] + 1e-10


class TestRates:
    def test_sigma_zero_refuses_fit(self):
        cfg = resolve_config(
            "rates",
            None,
            {"n_list": [16, 24, 32, 48, 64], "sigma2": 0.0, "beta": 1, "delta": 2.0},
        )
        meta, header, rows = run_rate_check(cfg)
        md = dict(meta)
        assert "rate_fit" in md and "refused" in md["rate_fit"]
        assert all(r[5] for r in rows)  # every size saturated

    def test_exponent_columns_present_on_clean_family(self):
        cfg = resolve_config(
            "rates", None, {"n_list": [32, 48, 64, 96, 128, 192], "beta": 1, "delta": 2.0}
        )
        meta, header, rows = run_rate_check(cfg)
        md = dict(meta)
        assert "lambda_exponent" in md and "dave_exponent" in md
        assert header == ["n", "lambda_star", "err_star", "d_ave", "d_max", "saturated"]
        ns = [r[0] for r in rows]
        assert ns == sorted(ns)

    def test_too_few_sizes_rejected(self):
        with pytest.raises(ConfigError):
            run_rate_check(resolve_config("rates", None, {"n_list": [16, 32, 64]}))

    @pytest.mark.parametrize(
        "n_list,fitted",
        [([64] * 5, False), ([32, 64, 64, 128, 128], False), ([32, 64, 64, 128, 256], True)],
    )
    def test_fit_counts_distinct_sizes(self, n_list, fitted):
        # five rows at n = 64 once wrote lambda_exponent=-1.03 with r2 = 1.0
        cfg = resolve_config("rates", None, {"n_list": n_list, "drop_smallest": 0})
        meta, _, rows = run_rate_check(cfg)
        md = dict(meta)
        assert [r[0] for r in rows] == n_list
        assert ("lambda_exponent" in md) == fitted
        if not fitted:
            assert md["rate_fit"] == "refused: fewer than 4 sizes after dropping"
        # a repeated size writes the same row each time
        assert rows[1] == rows[2]

    def test_sizes_read_their_covers(self, monkeypatch):
        # 1, 4, 12 and 24 divide the largest size 48, 10 divides 30 and 30
        # divides no larger size: every half spectrum handed out is that
        # size's own, computed alone, bit for bit
        cfg = resolve_config("rates", None, {"n_list": [1, 4, 10, 12, 24, 30, 48], "beta": 2, "delta": 3.5})
        got = {}
        grid_spectrum = experiments._grid_spectrum

        def record(spectrum, n, cover):
            got[n] = grid_spectrum(spectrum, n, cover)
            assert cover[0].size == {10: 30, 30: 30}.get(n, 48)
            return got[n]

        monkeypatch.setattr(experiments, "_grid_spectrum", record)
        run_rate_check(cfg)
        assert sorted(got) == [1, 4, 10, 12, 24, 30, 48]
        for n, (mean_diag, spec) in got.items():
            row = grid_row(2, n)
            alone = Spectrum.circulant(row, signal_fourier(3.5, n))
            assert mean_diag == row[0]
            for name in ("eigs", "coef2", "weight"):
                assert np.array_equal(getattr(spec, name), getattr(alone, name)), (n, name)

    def test_zeta_once_per_cover(self, monkeypatch):
        # 64..512 all divide 1024, so only the 1024 arguments of the largest
        # size are ever evaluated (1984 with one evaluation per size)
        counted = []
        zeta = synthetic.hurwitz_zeta

        def count(s, q):
            counted.append(np.size(q))
            return zeta(s, q)

        monkeypatch.setattr(synthetic, "hurwitz_zeta", count)
        run_rate_check(resolve_config("rates", None, {"n_list": [64, 128, 256, 512, 1024]}))
        assert counted == [1024]

    def test_huge_delta_writes_a_finite_csv(self, tmp_path, monkeypatch):
        # z = 2 cos(2 pi x) there; the fold once took a NaN from scipy's zeta
        # and the command exited 3 with "err_star is not finite"
        monkeypatch.chdir(tmp_path)
        assert cli.main(["rates", "--delta", "1e300", "--sigma2", "0.1", "--out", "r.csv"]) == 0
        assert_all_finite((tmp_path / "r.csv").read_text())

    def test_default_sizes_allocate_no_gram_matrix(self):
        # one 4096 x 4096 float64 matrix alone would be 134 MB
        cfg = resolve_config("rates")
        assert max(cfg["n_list"]) == 4096
        tracemalloc.start()
        try:
            meta, _, rows = run_rate_check(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rows) == 7 and "lambda_exponent" in dict(meta)
        assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"


class TestRankRatio:
    def test_small_sweep_structure(self):
        cfg = resolve_config(
            "rank-ratio", None, {"n": 48, "trials": 3, "lambda_points": 4, "seed": 2}
        )
        meta, header, rows = run_rank_ratio(cfg)
        assert len(rows) == 4
        for row in rows_by(header, rows):
            assert 1 <= row["p_star_random"] <= 48
            assert 1 <= row["p_star_pivoted"] <= 48
            assert row["d_max"] >= row["d_ave"] > 0
            assert row["ratio_random"] == pytest.approx(
                row["p_star_random"] / row["d_max"], rel=1e-12
            )


    def test_huge_lambda_needs_rank_one(self, tmp_path, monkeypatch):
        # every shrinkage n lambda / (eig + n lambda) is 1 at lambda = 1e155, so
        # the bias is ||z||^2 / n for any rank; it once overflowed to NaN
        monkeypatch.chdir(tmp_path)
        argv = ["rank-ratio", "--n", "16", "--trials", "1", "--lambda-lo", "1e155",
                "--lambda-hi", "1e155", "--lambda-points", "1", "--out", "rr.csv"]
        assert cli.main(argv) == 0
        header, row = (tmp_path / "rr.csv").read_text().splitlines()[-2:]
        got = dict(zip(header.split(","), row.split(",")))
        assert got["p_star_random"] == got["p_star_pivoted"] == "1"


class TestVerifyTheorem:
    def test_bound_value_capped_at_n(self):
        cfg = resolve_config("verify-theorem", None, {"n": 40, "trials": 4, "seed": 0})
        meta, header, rows = run_verify_theorem(cfg)
        row = rows_by(header, rows)[0]
        assert row["p"] == 40  # the worked bound far exceeds n at this scale
        assert row["ratio_mean"] == pytest.approx(1.0, abs=1e-8)
        assert row["holds"]

    def test_explicit_p(self):
        cfg = resolve_config(
            "verify-theorem", None, {"n": 40, "trials": 6, "p": 12, "seed": 1}
        )
        _, header, rows = run_verify_theorem(cfg)
        row = rows_by(header, rows)[0]
        assert row["p"] == 12
        assert row["frac_above_threshold"] <= 1.0


class TestVerifyLemma:
    def test_families_distinct_and_deterministic(self):
        a = lemma_family("gaussian", 30, 5, 0)
        b = lemma_family("gaussian", 30, 5, 0)
        c = lemma_family("outlier", 30, 5, 0)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        with pytest.raises(ConfigError):
            lemma_family("weird", 30, 5, 0)

    def test_small_run_within_bounds(self):
        cfg = resolve_config(
            "verify-lemma", None, {"n": 60, "r": 6, "trials": 300, "p_list": [10, 30]}
        )
        meta, header, rows = run_verify_lemma(cfg)
        assert header[-1] == "within_bound"
        assert len(rows) == 3 * 2 * 10  # default families x p_list x t grid
        for row in rows_by(header, rows):
            assert row["empirical_prob"] <= row["bound"] + 1e-12

    def test_shared_draws_match_per_family_draws(self):
        # the subsets are drawn once per (p, trial) and shared by the
        # families; each family's own draws must give the same rows exactly
        cfg = resolve_config(
            "verify-lemma", None, {"n": 40, "r": 5, "trials": 200, "p_list": [8, 20]}
        )
        _, _, rows = run_verify_lemma(cfg)
        expected = []
        for fam in cfg["families"]:
            psi = lemma_family(fam, 40, 5, cfg["seed"])
            lam_max = float(np.linalg.eigvalsh(psi.T @ psi / 40)[-1])
            t_grid = lam_max * np.geomspace(0.05, 1.0, cfg["t_points"])
            for p in cfg["p_list"]:
                devs = lemma_deviations([psi], p, 200, cfg["seed"])[0]
                for tval, emp, bnd in lemma_tail(psi, p, t_grid, devs):
                    expected.append((fam, p, tval, emp, bnd, emp <= bnd))
        assert rows == expected

    def test_empty_family_list_rejected(self):
        # the config table rejects the empty list before the runner is reached
        with pytest.raises(ConfigError, match="families"):
            run_verify_lemma(resolve_config("verify-lemma", None, {"n": 40, "families": []}))


class TestCvGridEdge:
    """cv warns on stderr when lambda* is the first or last grid point, and only then."""

    @pytest.fixture
    def toy(self, tmp_path):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(60, 2))
        targets = {
            "clean": np.sin(X[:, 0]),  # no noise: the smallest lambda on a coarse grid wins
            "noise": rng.standard_normal(60),  # no signal: the largest lambda wins
            "mixed": np.sin(X[:, 0]) + 0.1 * rng.standard_normal(60),
        }
        for name, y in targets.items():
            write_dataset_csv(tmp_path / f"{name}.csv", X, y)
        return tmp_path

    def run(self, toy, name, caplog, **keys):
        cfg = resolve_config("cv", None, {"input": str(toy / f"{name}.csv"), "folds": 3, **keys})
        with caplog.at_level("WARNING", logger="nyridge.experiments"):
            meta, _, rows = run_experiment(cfg)
        return dict(meta)["lambda_star"], [r.getMessage() for r in caplog.records], rows

    def test_smallest_grid_point_warns(self, toy, caplog):
        lam, messages, rows = self.run(toy, "clean", caplog, lambda_min=1e-3, lambda_points=6)
        assert lam == rows[0][0] == 1e-3
        assert messages == [f"cv: lambda*={lam!r} is the smallest grid point; the optimum may "
                            "lie below lambda_min"]

    def test_largest_grid_point_warns(self, toy, caplog):
        lam, messages, rows = self.run(toy, "noise", caplog, lambda_points=6)
        assert lam == rows[-1][0] == 1.0
        assert messages == [f"cv: lambda*={lam!r} is the largest grid point; the optimum may "
                            "lie above lambda_max"]

    def test_interior_optimum_is_silent(self, toy, caplog):
        lam, messages, rows = self.run(toy, "mixed", caplog, lambda_points=6)
        assert rows[0][0] < lam < rows[-1][0]
        assert messages == []

    def test_huge_target_exits_3_before_lambda_is_chosen(self, toy, capsys, caplog):
        # a target of 1e200 overflowed the squared held-out error: a RuntimeWarning,
        # then an edge message chosen from all-inf errors, then exit 3 at the CSV writer
        rng = np.random.default_rng(0)
        y = rng.standard_normal(12)
        y[5] = 1e200
        write_dataset_csv(toy / "huge.csv", rng.normal(size=(12, 2)), y)
        with warnings.catch_warnings(), caplog.at_level("WARNING", logger="nyridge"):
            warnings.simplefilter("error")
            code = cli.main(["cv", "--input", str(toy / "huge.csv"), "--out", str(toy / "cv.csv")])
        assert code == 3
        assert re.search(r"numerical failure: fold \d: held-out error at lambda=1e-08 is inf",
                         capsys.readouterr().err)
        assert caplog.records == []
        assert not (toy / "cv.csv").exists()

    def test_warning_goes_to_stderr_not_the_csv(self, toy, monkeypatch):
        monkeypatch.chdir(toy)
        cfg = resolve_config("cv", None, {"input": "noise.csv", "folds": 3, "lambda_points": 6})
        res = subprocess.run(
            [sys.executable, "-m", "nyridge", "cv", "--input", "noise.csv", "--folds", "3",
             "--lambda-points", "6", "--out", "cv.csv"],
            cwd=toy, env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True,
        )
        assert res.returncode == 0, res.stderr
        assert "is the largest grid point" in res.stderr
        assert (toy / "cv.csv").read_text() == render_csv(*run_experiment(cfg))


class TestDeterminism:
    def test_byte_identical_rerun(self):
        cfg = resolve_config("fig1", None, {"n": 48, "trials": 3, "seed": 5})
        out1 = render_csv(*run_fig1(cfg))
        out2 = render_csv(*run_fig1(cfg))
        assert out1 == out2

    def test_rank_ratio_rerun(self):
        cfg = resolve_config(
            "rank-ratio", None, {"n": 40, "trials": 2, "lambda_points": 3, "seed": 8}
        )
        assert render_csv(*run_rank_ratio(cfg)) == render_csv(*run_rank_ratio(cfg))


# The directory that holds the imported package. The CLI children run with
# cwd=tmp_path, where an inherited relative PYTHONPATH no longer resolves, so
# they get this absolute path first and import the very package under test.
SRC = Path(nyridge.__file__).resolve().parent.parent


class TestCli:
    def run_cli(self, *args, cwd):
        env = dict(os.environ)
        inherited = env.get("PYTHONPATH")
        env["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
        return subprocess.run(
            [sys.executable, "-m", "nyridge", *args],
            capture_output=True,
            text=True,
            cwd=cwd,
            env=env,
        )

    def test_fig1_end_to_end_byte_identical(self, tmp_path):
        a = self.run_cli(
            "fig1", "--n", "32", "--trials", "2", "--out", "a.csv", cwd=tmp_path
        )
        assert a.returncode == 0, a.stderr
        b = self.run_cli(
            "fig1", "--n", "32", "--trials", "2", "--out", "b.csv", cwd=tmp_path
        )
        assert b.returncode == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        text = (tmp_path / "a.csv").read_text()
        assert text.startswith("# experiment=fig1")
        assert "# config_hash=" in text and "# seed=" in text

    def test_config_file_and_override(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"n": 32, "trials": 2}))
        res = self.run_cli(
            "fig1", "--config", str(cfgfile), "--trials", "3", "--out", "c.csv",
            cwd=tmp_path,
        )
        assert res.returncode == 0, res.stderr
        assert '"trials": 3' in (tmp_path / "c.csv").read_text()

    def test_config_error_exit_code(self, tmp_path):
        res = self.run_cli("fit", "--input", "missing.csv", cwd=tmp_path)
        assert res.returncode == 2
        assert "config error" in res.stderr

    def test_bad_config_file_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        res = self.run_cli("fig1", "--config", str(bad), cwd=tmp_path)
        assert res.returncode == 2

    def test_fit_command(self, tmp_path):
        table = tmp_path / "vals.csv"
        lines = ["n,value"] + [f"{n},{2.5 * n ** -0.5!r}" for n in (16, 32, 64, 128, 256)]
        table.write_text("\n".join(lines) + "\n")
        res = self.run_cli("fit", "--input", str(table), "--out", "fit.csv", cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        body = (tmp_path / "fit.csv").read_text().splitlines()
        header = body[-2].split(",")
        row = body[-1].split(",")
        got = dict(zip(header, row))
        assert abs(float(got["exponent"]) + 0.5) <= 1e-10

    def test_fit_refuses_one_repeated_size(self, tmp_path):
        table = tmp_path / "vals.csv"
        table.write_text("n,value\n" + "".join(f"64,{v}\n" for v in (1.0, 1.1, 1.3, 1.2)))
        res = self.run_cli("fit", "--input", str(table), "--out", "fit.csv", cwd=tmp_path)
        assert res.returncode == 2
        assert "config error: rate fit needs at least 2 distinct sizes" in res.stderr
        assert not (tmp_path / "fit.csv").exists()

    def test_fit_reads_rates_output(self, tmp_path):
        res = self.run_cli("rates", "--n-list", "16,32,64,128,256", "--out", "r.csv", cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        res = self.run_cli(
            "fit", "--input", "r.csv", "--value-column", "err_star", "--out", "f.csv", cwd=tmp_path
        )
        assert res.returncode == 0, res.stderr
        assert (tmp_path / "f.csv").read_text().splitlines()[-1].endswith(",5")

    def test_rank_ratio_command(self, tmp_path):
        res = self.run_cli(
            "rank-ratio", "--n", "48", "--trials", "2", "--lambda-points", "3",
            "--out", "rr.csv", cwd=tmp_path,
        )
        assert res.returncode == 0, res.stderr
        lines = (tmp_path / "rr.csv").read_text().splitlines()
        header = [l for l in lines if not l.startswith("#")][0]
        assert header.split(",")[0] == "lambda"

    def test_verify_lemma_command(self, tmp_path):
        res = self.run_cli(
            "verify-lemma", "--n", "50", "--r", "5", "--trials", "200",
            "--p-list", "10,25", "--out", "vl.csv", cwd=tmp_path,
        )
        assert res.returncode == 0, res.stderr
        body = [l for l in (tmp_path / "vl.csv").read_text().splitlines()
                if not l.startswith("#")]
        assert len(body) == 1 + 3 * 2 * 10

    def test_rates_command(self, tmp_path):
        res = self.run_cli(
            "rates", "--n-list", "32,48,64,96,128,192", "--beta", "1",
            "--delta", "2.0", "--out", "rates.csv", cwd=tmp_path,
        )
        assert res.returncode == 0, res.stderr
        text = (tmp_path / "rates.csv").read_text()
        assert "# lambda_exponent=" in text

    def test_verify_theorem_command(self, tmp_path):
        res = self.run_cli(
            "verify-theorem", "--n", "48", "--trials", "4", "--out", "vt.csv",
            cwd=tmp_path,
        )
        assert res.returncode == 0, res.stderr
        assert "ratio_mean" in (tmp_path / "vt.csv").read_text()

    def test_cv_command(self, tmp_path):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(60, 2))
        y = np.sin(X[:, 0]) + 0.1 * rng.standard_normal(60)
        data = tmp_path / "toy.csv"
        write_dataset_csv(data, X, y)
        res = self.run_cli(
            "cv", "--input", str(data), "--folds", "3", "--lambda-points", "6",
            "--out", "cv.csv", cwd=tmp_path,
        )
        assert res.returncode == 0, res.stderr
        text = (tmp_path / "cv.csv").read_text()
        assert "# lambda_star=" in text

    def test_numerical_error_exit_code(self, monkeypatch):
        import nyridge.cli as cli

        def boom(cfg):
            raise NumericalError("synthetic failure")

        monkeypatch.setattr(cli, "run_experiment", boom)
        assert cli.main(["fig1", "--n", "16"]) == 3

    def assert_config_error(self, args, tmp_path):
        res = self.run_cli(*args, "--out", "x.csv", cwd=tmp_path)
        assert res.returncode == 2, (args, res.stderr)
        assert "config error" in res.stderr
        assert "Traceback" not in res.stderr
        assert not (tmp_path / "x.csv").exists()
        return res.stderr

    def test_nonfinite_sigma2_rejected(self, tmp_path):
        for args in (
            ["fig1", "--n", "32", "--trials", "2", "--sigma2", "nan"],
            ["fig1", "--n", "32", "--trials", "2", "--snr", "nan"],
            ["rates", "--n-list", "16,24,32,48,64", "--sigma2", "nan"],
            ["rates", "--n-list", "16,24,32,48,64", "--sigma2", "inf"],
        ):
            self.assert_config_error(args, tmp_path)

    def test_bad_size_list_rejected(self, tmp_path):
        self.assert_config_error(["rates", "--n-list", "a,b"], tmp_path)
        self.assert_config_error(["verify-lemma", "--p-list", "10,x"], tmp_path)

    def test_zero_trials_rejected(self, tmp_path):
        self.assert_config_error(["verify-theorem", "--n", "32", "--trials", "0"], tmp_path)
        self.assert_config_error(["verify-lemma", "--n", "32", "--trials", "0"], tmp_path)
        # fig1 wrote NaN means with exit 0; rank-ratio divided by zero
        self.assert_config_error(["fig1", "--n", "32", "--trials", "0"], tmp_path)
        self.assert_config_error(["rank-ratio", "--n", "32", "--trials", "0"], tmp_path)
        self.assert_config_error(["verify-lemma", "--n", "32", "--r", "0"], tmp_path)

    def test_nonpositive_or_nan_lambda_rejected(self, tmp_path):
        for args in (
            ["fig1", "--n", "32", "--trials", "2", "--lam", "-1"],
            ["fig1", "--n", "32", "--trials", "2", "--lam", "0"],
            ["fig1", "--n", "32", "--trials", "2", "--lam", "nan"],
            ["fig1", "--n", "32", "--trials", "2", "--lam", "inf"],
            ["verify-theorem", "--n", "32", "--trials", "2", "--lam", "-1", "--p", "10"],
            ["verify-theorem", "--n", "32", "--trials", "2", "--lam", "nan"],
        ):
            self.assert_config_error(args, tmp_path)

    def test_non_finite_data_rejected(self, tmp_path):
        rows = ["x0,x1,target"] + [f"{i},{i % 3},{i % 5}" for i in range(20)]
        rows[4] = "3,inf,1"
        (tmp_path / "cv_inf.csv").write_text("\n".join(rows) + "\n")
        self.assert_config_error(["cv", "--input", "cv_inf.csv"], tmp_path)
        table = ["n,value", "16,0.5", "32,inf", "64,0.125", "128,0.06"]
        (tmp_path / "fit_inf.csv").write_text("\n".join(table) + "\n")
        self.assert_config_error(["fit", "--input", "fit_inf.csv"], tmp_path)

    def test_empty_or_bad_lambda_grid_rejected(self, tmp_path):
        rows = ["x0,target"] + [f"{i},{i % 5}" for i in range(20)]
        (tmp_path / "toy.csv").write_text("\n".join(rows) + "\n")
        for args in (
            ["rank-ratio", "--n", "32", "--trials", "2", "--lambda-points", "0"],
            ["rank-ratio", "--n", "32", "--trials", "2", "--lambda-lo", "0"],
            ["rank-ratio", "--n", "32", "--trials", "2", "--lambda-hi", "nan"],
            ["cv", "--input", "toy.csv", "--lambda-points", "0"],
            ["cv", "--input", "toy.csv", "--lambda-min", "0"],
            ["cv", "--input", "toy.csv", "--lambda-min", "1", "--lambda-max", "0.1"],
        ):
            self.assert_config_error(args, tmp_path)

    def test_nan_or_negative_cv_bounds_rejected(self, tmp_path):
        # a NaN or negative trace tolerance used to factor every fold to full
        # rank with exit 0; a NaN bandwidth failed on duplicate pivots
        X = np.random.default_rng(1).normal(size=(60, 2))
        write_dataset_csv(tmp_path / "toy.csv", X, X[:, 0] - X[:, 1])
        for flag, value, name in (
            ("--trace-rtol", "nan", "trace_rtol"),
            ("--trace-rtol", "-1", "trace_rtol"),
            ("--trace-rtol", "inf", "trace_rtol"),
            ("--bandwidth", "nan", "bandwidth"),
        ):
            args = ["cv", "--input", "toy.csv", "--folds", "5", flag, value]
            assert name in self.assert_config_error(args, tmp_path)

    def test_nan_tolerance_and_empty_t_grid_rejected(self, tmp_path):
        rank_ratio = ["rank-ratio", "--n", "64", "--trials", "2"]
        self.assert_config_error([*rank_ratio, "--tol", "nan"], tmp_path)
        self.assert_config_error(["verify-lemma", "--n", "32", "--t-points", "0"], tmp_path)
        self.assert_config_error(["verify-lemma", "--n", "32", "--t-points", "-3"], tmp_path)

    def test_nan_or_infinite_decay_rate_rejected(self, tmp_path):
        # a NaN or infinite delta passed the old `rate <= 0.5` check: fig1
        # and rates wrote NaN rows with exit 0 once sigma2 was given
        for args, bad in (
            (["fig1", "--n", "32", "--trials", "2", "--delta", "nan", "--sigma2", "0.1"], "nan"),
            (["rank-ratio", "--delta", "nan"], "nan"),
            (["fig1", "--n", "32", "--trials", "2", "--delta", "inf", "--sigma2", "0.1"], "inf"),
            (["rates", "--delta", "inf", "--sigma2", "0.1"], "inf"),
        ):
            assert f"(got {bad})" in self.assert_config_error(args, tmp_path)

    def test_unknown_flag_fails_fast(self, tmp_path):
        res = self.run_cli("fig1", "--bogus", "1", cwd=tmp_path)
        assert res.returncode == 2
        assert "unrecognized arguments: --bogus" in res.stderr


def test_run_experiment_dispatch():
    cfg = resolve_config("verify-lemma", None, {"n": 40, "r": 4, "trials": 50, "p_list": [8]})
    meta, header, rows = run_experiment(cfg)
    assert len(rows) == 3 * 1 * 10
