"""Command-line entry point.

Subcommands mirror the experiment drivers: fig1, rates, rank-ratio,
verify-theorem, verify-lemma, fit, cv. Configuration precedence is
CLI flags > --config JSON file > built-in defaults. Exit codes: 0 success,
2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ConfigError, NumericalError
from .experiments import EXPERIMENTS, resolve_config, run_experiment, write_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# CLI flag name -> config key, argument type
_COMMON_FLAGS = [("seed", int)]
_FLAGS: dict[str, list[tuple[str, type]]] = {
    "fig1": [("n", int), ("beta", int), ("delta", float), ("snr", float),
             ("sigma2", float), ("trials", int), ("lam", float)],
    "rates": [("beta", int), ("delta", float), ("snr", float), ("sigma2", float),
              ("drop-smallest", int)],
    "rank-ratio": [("n", int), ("beta", int), ("delta", float), ("snr", float),
                   ("sigma2", float), ("trials", int), ("tol", float),
                   ("lambda-points", int), ("lambda-lo", float), ("lambda-hi", float)],
    "verify-theorem": [("n", int), ("beta", int), ("delta", float), ("snr", float),
                       ("sigma2", float), ("slack", float), ("trials", int),
                       ("lam", float), ("p", int)],
    "verify-lemma": [("n", int), ("r", int), ("trials", int), ("t-points", int)],
    "fit": [("input", str), ("n-column", str), ("value-column", str)],
    "cv": [("input", str), ("target-column", str), ("folds", int),
           ("lambda-points", int), ("lambda-min", float), ("lambda-max", float),
           ("bandwidth", float), ("trace-rtol", float), ("n-cap", int)],
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nyridge",
        description="Column-sampled kernel ridge regression experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in EXPERIMENTS:
        p = sub.add_parser(cmd, help=f"run the {cmd} experiment")
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", default=f"{cmd}.csv", help="output CSV path")
        for flag, typ in _COMMON_FLAGS + _FLAGS[cmd]:
            p.add_argument(f"--{flag}", type=typ, default=None)
    sub.choices["rates"].add_argument(
        "--n-list", default=None, help="comma-separated sizes, e.g. 64,128,256,512,1024"
    )
    sub.choices["verify-lemma"].add_argument(
        "--p-list", default=None, help="comma-separated ranks, e.g. 20,40,80"
    )
    return parser


def _overrides_from_args(cmd: str, args: argparse.Namespace) -> dict:
    over: dict = {}
    for flag, _ in _COMMON_FLAGS + _FLAGS[cmd]:
        key = flag.replace("-", "_")
        val = getattr(args, key, None)
        if val is not None:
            over[key] = val
    for key in ("n_list", "p_list"):
        text = getattr(args, key, None)
        if text:
            over[key] = _int_list(key, text)
    return over


def _int_list(key: str, text: str) -> list[int]:
    """Comma-separated integers, or ConfigError."""
    try:
        return [int(t) for t in str(text).split(",") if t]
    except ValueError:
        flag = "--" + key.replace("_", "-")
        raise ConfigError(f"{flag} needs comma-separated integers, got {text!r}") from None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cmd = args.command
    try:
        file_cfg = None
        if args.config:
            try:
                with open(args.config, "r", encoding="utf-8") as fh:
                    file_cfg = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                raise ConfigError(f"cannot load config {args.config}: {exc}") from exc
        cfg = resolve_config(cmd, file_cfg, _overrides_from_args(cmd, args))
        meta, header, rows = run_experiment(cfg)
        write_csv(args.out, meta, header, rows)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    print(f"wrote {args.out} ({len(rows)} rows)")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
