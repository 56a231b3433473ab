"""Command-line entry point.

One subcommand per experiment in ``experiments.CONFIG``, with one flag per
config key. Configuration precedence is CLI flags > --config JSON file >
built-in defaults. Exit codes: 0 success, 2 configuration error (an
unreadable input or an unwritable ``--out`` included), 3 numerical failure
(running out of memory included).
"""

from __future__ import annotations

import argparse
import json
import locale  # noqa: F401  argparse's gettext imports it on first use
import sys

from .errors import ConfigError, NumericalError
from .experiments import CONFIG, Key, resolve_config, run_experiment, write_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """One subcommand per experiment; ``command`` alone gets its flags.

    Each of its config keys is a flag (``_`` read as ``-``). The other
    subcommands stay flagless, which is all that ``nyridge --help`` shows
    of them, so a call builds only the flags it can parse.
    """
    parser = argparse.ArgumentParser(
        prog="nyridge",
        description="Column-sampled kernel ridge regression experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd, keys in CONFIG.items():
        p = sub.add_parser(cmd, help=f"run the {cmd} experiment")
        if cmd != command:
            continue
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", default=f"{cmd}.csv", help="output CSV path")
        for name, key in keys.items():
            default = "" if key.default is None else f" (default {key.default})"
            p.add_argument("--" + name.replace("_", "-"), help=key.help + default)
    return parser


def _value(key: Key, text: str):
    """Flag text as the JSON value it spells: a list for a list key, split at commas."""
    if key.item is not None:
        return [t if key.item is str else _number(t) for t in text.split(",") if t]
    return text if key.kind is str else _number(text)


def _number(text: str):
    """The int or float that ``text`` spells, else ``text`` itself."""
    for number in (int, float):
        try:
            return number(text)
        except ValueError:
            pass
    return text


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the top-level parser takes no option but -h, so a command comes first
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    cmd = args.command
    try:
        file_cfg = None
        if args.config:
            try:
                with open(args.config, "r", encoding="utf-8") as fh:
                    file_cfg = json.load(fh)
            except (OSError, UnicodeDecodeError, RecursionError, json.JSONDecodeError) as exc:
                raise ConfigError(f"cannot load config {args.config}: {exc}") from exc
        overrides = {
            name: _value(key, getattr(args, name))
            for name, key in CONFIG[cmd].items()
            if getattr(args, name) is not None
        }
        cfg = resolve_config(cmd, file_cfg, overrides)
        meta, header, rows = run_experiment(cfg)
        try:
            write_csv(args.out, meta, header, rows)
        except OSError as exc:
            raise ConfigError(f"cannot write {args.out}: {exc}") from exc
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:
        reason = str(exc) or "allocation failed"
        print(f"numerical failure: out of memory ({reason})", file=sys.stderr)
        return EXIT_NUMERICAL
    print(f"wrote {args.out} ({len(rows)} rows)")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
