"""Flat ``key = value`` config files (UTF-8, ``#`` comments) read through
typed key tables.

One reader serves the experiment config (``cli.EXPERIMENT_KEYS``) and the
model config (``MODEL_KEYS``). A table maps each key to its type, which
parses a raw value and formats it back, and to a default or a target field.
Unknown and duplicate keys and bad values are hard errors that read
``<source> line N: ...``, so typos cannot silently fall back to defaults.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import Callable, NamedTuple

from .architectures import VIEWS, ModelConfig
from .errors import ConfigError


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


POS_INT = Kind("a positive integer", _checked(int, lambda v: v > 0))
NONNEG_INT = Kind("a non-negative integer", _checked(int, lambda v: v >= 0))
FLOAT = Kind("a finite number", _checked(float, math.isfinite))
BOOL = Kind("true or false", _bool, lambda v: "true" if v else "false")
INT_LIST = Kind("comma-separated positive integers", _checked(_ints, lambda v: min(v) > 0),
                lambda v: ",".join(map(str, v)))
DIMS = _dims(3)
SHAPE = _dims(2)
STR = Kind("a string", str)
NAMES = Kind("comma-separated names",
             lambda raw: tuple(v.strip() for v in raw.split(",") if v.strip()), ",".join)


def read_text(path, what):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
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


# key -> (kind, ModelConfig attribute path). A per-view key reads ``slice_count``
# for every view and ``slice_count.<view>`` for one, which wins.
_PER_VIEW = {"slice_count": POS_INT, "slice_shape": SHAPE}
MODEL_KEYS = {
    "family": (STR, "family"),
    "views": (NAMES, "views"),
    "num_classes": (POS_INT, "num_classes"),
    "init": (STR, "init_mode"),
    "weights_file": (STR, "weights_file"),
    "encoder.in_channels": (POS_INT, "encoder.in_channels"),
    "encoder.stem_width": (POS_INT, "encoder.stem_width"),
    "encoder.stage_widths": (INT_LIST, "encoder.stage_widths"),
    "encoder.blocks_per_stage": (INT_LIST, "encoder.blocks_per_stage"),
    "encoder.stem_kernel": (POS_INT, "encoder.stem_kernel"),
    "encoder.stem_stride": (POS_INT, "encoder.stem_stride"),
    "encoder.stem_pool": (BOOL, "encoder.stem_pool"),
    "agg.model_dim": (POS_INT, "aggregator.model_dim"),
    "agg.blocks": (POS_INT, "aggregator.blocks"),
    "agg.heads": (POS_INT, "aggregator.heads"),
    "agg.mlp_ratio": (FLOAT, "aggregator.mlp_ratio"),
    "agg.dropout": (FLOAT, "aggregator.dropout"),
    "agg.fc_hidden": (POS_INT, "aggregator.fc_hidden"),
    "agg.lstm_hidden": (POS_INT, "aggregator.lstm_hidden"),
    **{base: (kind, base) for base, kind in _PER_VIEW.items()},
    **{f"{base}.{v}": (kind, base) for v in VIEWS for base, kind in _PER_VIEW.items()},
}


def parse_model_config(text, source="model config") -> ModelConfig:
    entries = read_config(text, MODEL_KEYS, source)
    views = entries["views"][0] if "views" in entries else ("sag",)
    cfg = ModelConfig(views=views, slice_count={}, slice_shape={})
    for key, (value, line_no) in entries.items():
        path = MODEL_KEYS[key][1]
        if path in _PER_VIEW:
            per_view = getattr(cfg, path)
            view = key.partition(".")[2]
            if not view:
                for v in views:
                    per_view.setdefault(v, value)
            elif view in views:
                per_view[view] = value
            else:
                raise ConfigError(f"{source} line {line_no}: {key} is for a view not in "
                                  f"views = {','.join(views)}")
        else:
            owner, _, name = path.rpartition(".")
            setattr(attrgetter(owner)(cfg) if owner else cfg, name, value)
    try:
        return cfg.validate()
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from None


def load_model_config(path) -> ModelConfig:
    return parse_model_config(read_text(path, "model config"), str(path))


def format_model_config(cfg: ModelConfig) -> str:
    """Serialize back to the flat file format: the inverse of
    parse_model_config, one line per set field and per view."""
    lines = []
    for key, (kind, path) in MODEL_KEYS.items():
        if path not in _PER_VIEW:
            value = attrgetter(path)(cfg)
            if value is not None and value != "":
                lines.append(f"{key} = {kind.format(value)}")
    for v in cfg.views:
        lines += [f"{base}.{v} = {kind.format(getattr(cfg, base)[v])}"
                  for base, kind in _PER_VIEW.items()]
    return "\n".join(lines) + "\n"
