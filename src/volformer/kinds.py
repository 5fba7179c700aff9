"""Typed text input. A ``Kind`` casts raw text to a value and formats it
back; flags are read through one, ``key = value`` files through a key table
(``read_config``: a bad line is a ConfigError) and CSV tables through a
column table (``read_table``: a bad row is a DataError).
"""

from __future__ import annotations

import csv
import math
from typing import Callable, NamedTuple

from .errors import ConfigError, DataError


class Kind(NamedTuple):
    """A value type: ``cast`` turns raw text into a value (ValueError when
    bad), ``format`` writes the value back as text that casts to it again."""

    what: str
    cast: Callable
    format: Callable = str

    def parse(self, raw, name):
        try:
            return self.cast(raw)
        except ValueError:
            raise ConfigError(f"{name} expects {self.what}, got {raw!r}") from None


def _checked(cast, ok):
    def parse(raw):
        value = cast(raw)
        if not ok(value):
            raise ValueError(raw)
        return value
    return parse


def _ints(raw):
    return tuple(int(p) for p in raw.split(","))


def _bool(raw):
    flag = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}
    if raw.lower() not in flag:
        raise ValueError(raw)
    return flag[raw.lower()]


def _dims(n):
    """``n`` positive integers written ``AxB...`` or ``a,b,...``."""
    cast = _checked(lambda raw: _ints(raw.lower().replace("x", ",")),
                    lambda v: len(v) == n and min(v) > 0)
    return Kind(f"{n} positive integers like {'x'.join(['16'] * n)}", cast,
                lambda v: "x".join(map(str, v)))


def int_in(lo, hi):
    return Kind(f"an integer in {lo}..{hi}", _checked(int, lambda v: lo <= v <= hi))


def one_of(*values):
    return Kind(" or ".join(values), _checked(str, lambda v: v in values))


POS_INT = Kind("a positive integer", _checked(int, lambda v: v > 0))
NONNEG_INT = Kind("a non-negative integer", _checked(int, lambda v: v >= 0))
FLOAT = Kind("a finite number", _checked(float, math.isfinite))
PROB = Kind("a probability in 0..1", _checked(float, lambda v: 0 <= v <= 1))
BOOL = Kind("true or false", _bool, lambda v: "true" if v else "false")
INT_LIST = Kind("comma-separated positive integers", _checked(_ints, lambda v: min(v) > 0),
                lambda v: ",".join(map(str, v)))
DIMS = _dims(3)
SHAPE = _dims(2)
STR = Kind("a string", str)
PATH = Kind("a path", str)  # a location, kept out of a manifest's config_hash
NAMES = Kind("comma-separated names",
             lambda raw: tuple(v.strip() for v in raw.split(",") if v.strip()), ",".join)


def read_text(path, what):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def read_config(text, table, source):
    """``{key: (value, line_no)}`` for the ``key = value`` lines of ``text``;
    ``table[key][0]`` is the key's Kind."""
    entries = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        where = f"{source} line {line_no}"
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{where}: expected 'key = value', got {line.rstrip()!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in table:
            raise ConfigError(f"{where}: unknown config key {key!r}")
        if key in entries:
            raise ConfigError(f"{where}: duplicate key {key!r} "
                              f"(first set on line {entries[key][1]})")
        entries[key] = (table[key][0].parse(raw, f"{where}: {key}"), line_no)
    return entries


def read_table(path, columns):
    """``[(line_no, {column: value})]`` for the rows of the UTF-8 CSV file
    at ``path``, whose header names the keys of ``columns`` in order. Blank
    lines are skipped; an empty cell reads as None and every other cell
    through its column's Kind."""
    rows = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = [cell.strip() for cell in next(reader, [])]
            if header != list(columns):
                raise DataError(f"{path}: unexpected header {','.join(header)!r}, "
                                f"expected {','.join(columns)!r}")
            for row in reader:
                where = f"{path} line {reader.line_num}"
                if not any(cell.strip() for cell in row):
                    continue
                if len(row) != len(columns):
                    raise DataError(f"{where}: expected {len(columns)} columns, got {len(row)}")
                values = {}
                for (column, kind), raw in zip(columns.items(), map(str.strip, row)):
                    try:
                        values[column] = kind.cast(raw) if raw else None
                    except ValueError:
                        raise DataError(f"{where}: bad {column} value {raw!r} "
                                        f"(expects {kind.what})") from None
                rows.append((reader.line_num, values))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: unreadable CSV ({exc})") from None
    return rows
