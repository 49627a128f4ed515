"""The one text format of every report, table and stream the package writes,
and the one place the package opens a file.

Floats carry 17 significant digits, so every double reads back exactly.
Booleans are 1/0 in CSV and true/false in JSON. Lines end in LF, and a CSV
has exactly one header line.
"""

from __future__ import annotations

import json
import math

from .errors import ConfigError


def format_value(value) -> str:
    """One CSV field: 1/0 for booleans, %.17g for floats, str() for the rest."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def csv_text(header, rows) -> str:
    """The header line, then one comma-joined line per row of values."""
    lines = [",".join(header)]
    lines.extend(",".join(format_value(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def stable_dumps(obj, sort_keys: bool = False) -> str:
    """JSON with a fixed 17-significant-digit float format."""
    if isinstance(obj, dict):
        keys = sorted(obj) if sort_keys else list(obj)
        parts = [f"{json.dumps(str(k))}: {stable_dumps(obj[k], sort_keys)}" for k in keys]
        return "{" + ", ".join(parts) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(stable_dumps(v, sort_keys) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return format_value(obj)
    if isinstance(obj, (int, str)) or obj is None:
        return json.dumps(obj)
    raise ConfigError(f"cannot serialize {type(obj).__name__}")


def write_text(path, text: str) -> None:
    """Write `text` as UTF-8 with LF endings; an OSError names the path."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def read_text(path) -> str:
    """The UTF-8 text of `path`, with universal newlines; an OSError names the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc}") from exc


def read_float_csv(path, header: str) -> list:
    """The rows of a CSV with the header line `header`, each a tuple of finite floats.
    Blank lines are skipped but keep their numbers; a bad header or row, a nan or
    inf field among them, raises OSError naming the path and the line."""
    lines = [(lineno, ln.strip()) for lineno, ln in enumerate(read_text(path).split("\n"), 1)
             if ln.strip()]
    if not lines or lines[0][1].lower() != header:
        raise OSError(f"{path}: line {lines[0][0] if lines else 1}: expected header {header!r}")
    width, rows = header.count(",") + 1, []
    for lineno, ln in lines[1:]:
        fields = ln.split(",")
        if len(fields) != width:
            raise OSError(f"{path}: line {lineno}: expected {width} comma-separated fields")
        try:
            row = tuple(map(float, fields))
        except ValueError:
            raise OSError(f"{path}: line {lineno}: cannot parse {ln!r}") from None
        if not all(map(math.isfinite, row)):
            raise OSError(f"{path}: line {lineno}: non-finite field in {ln!r}")
        rows.append(row)
    return rows
