"""The one CSV format behind every file nyridge writes or reads.

A file is an optional version line ``# nyridge-<kind> v<number>``, then
``# key=value`` metadata lines (a ``#`` line without ``=`` is a note), an
optional header row and comma-separated rows. Floats are written as the
shortest text that reads back to the same float, bools as 1/0 and a
sequence as its entries joined by ``;``. Every float written or read must
be finite.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError, ParseError


def is_comment(line: str) -> bool:
    return line.startswith("#")


def fmt(value, name: str) -> str:
    """``value`` as written; NumericalError naming ``name`` for a non-finite float."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            raise NumericalError(f"{name} is not finite (got {float(value)!r})")
        return repr(float(value))
    if isinstance(value, (list, tuple, np.ndarray)):
        return ";".join(fmt(v, name) for v in value)
    return str(value)


def render(meta, header, rows, version: tuple[str, int] | None = None) -> str:
    """The file text; ``meta`` holds ``(key, value)`` pairs and note strings."""
    lines = ["# nyridge-%s v%d" % version] if version else []
    lines += [f"# {m}" if isinstance(m, str) else f"# {m[0]}={fmt(m[1], m[0])}" for m in meta]
    lines += [",".join(header)] if header else []
    for row in rows:
        names = header or [f"column {j + 1}" for j in range(len(row))]
        lines.append(",".join(fmt(v, name) for v, name in zip(row, names, strict=True)))
    return "\n".join(lines) + "\n"


def write(path, meta, header, rows, version: tuple[str, int] | None = None) -> None:
    """Write :func:`render`'s text; no file is opened when a value is rejected."""
    text = render(meta, header, rows, version)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _value(text: str, kind):
    """``text`` as ``kind``: str, an int64 or a finite float, or list[int]/list[float] split at ``;``."""
    if kind is str:
        return text
    if kind not in (int, float):
        return np.array([_value(t, kind.__args__[0]) for t in text.split(";")])
    value = kind(text)
    if kind is int and not -(2**63) <= value < 2**63:
        raise ValueError(f"{text!r} is past the int64 range")
    if kind is float and not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def read(path, version: tuple[str, int], kinds: dict, required=(), header=None):
    """``(meta, rows)`` of a file :func:`write` wrote with ``version`` and ``header``.

    ``meta`` holds each ``# key=value`` line whose key is in ``kinds``, read
    as that key's kind; ``rows`` is the 2-d float array of data rows. An
    unreadable file, a wrong first line, a missing ``required`` key, a wrong
    header, unparsable or non-finite numbers and rows of unequal length
    raise ParseError naming the file.
    """
    kind, first = version[0], "# nyridge-%s v%d" % version
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [line for line in map(str.strip, fh) if line]
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {kind} file {path}: {exc}") from exc
    if lines[:1] != [first]:
        raise ParseError(f"{path}: not a {kind} file, first line must be {first!r}")
    pairs = [line[1:].partition("=") for line in lines[1:] if is_comment(line)]
    data = [line for line in lines[1:] if not is_comment(line)]
    try:
        keys = [(k.strip(), v) for k, sep, v in pairs if sep]
        meta = {k: _value(v, kinds[k]) for k, v in keys if k in kinds}
        missing = [key for key in required if key not in meta]
        if missing:
            raise ParseError(f"{path}: missing metadata {missing}")
        if header and data[:1] != [",".join(header)]:
            raise ParseError(f"{path}: the first row must be the header {','.join(header)!r}")
        body = data[1:] if header else data
        rows = [[_value(t, float) for t in line.split(",")] for line in body]
    except ValueError as exc:
        raise ParseError(f"{path}: malformed {kind} file: {exc}") from None
    width = len(header) if header else len(rows[0]) if rows else 0
    if any(len(row) != width for row in rows):
        raise ParseError(f"{path}: every row needs {width} values")
    return meta, np.array(rows, dtype=float).reshape(len(rows), width)
