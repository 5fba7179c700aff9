"""Model architecture files: ``kinds.read_config`` through ``MODEL_KEYS``,
which maps each key to its Kind and its ``ModelConfig`` field, and
``format_model_config``, its inverse."""

from __future__ import annotations

from operator import attrgetter

from .architectures import VIEWS, ModelConfig
from .errors import ConfigError
from .kinds import (BOOL, FLOAT, INT_LIST, NAMES, POS_INT, SHAPE, STR, one_of, read_config,
                    read_text)

# key -> (kind, ModelConfig attribute path). A per-view key reads ``slice_count``
# for every view and ``slice_count.<view>`` for one, which wins.
_PER_VIEW = {"slice_count": POS_INT, "slice_shape": SHAPE}
MODEL_KEYS = {
    "family": (STR, "family"),
    "views": (NAMES, "views"),
    "num_classes": (POS_INT, "num_classes"),
    "init": (one_of("random"), "init_mode"),
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
