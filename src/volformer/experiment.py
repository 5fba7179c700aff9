"""Glue between cohort records, volume files and model-ready sample sets."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .architectures import ModelConfig
from .errors import ConfigError, DataError
from .training import SampleSet
from .volume import Volume, extract_slices, load_volume, preprocess, reproject


def preprocess_views(volume: Volume, views, crop_dims, factors):
    """Run the preprocessing chain once, then reproject per view.

    Returns dict view -> (k, H, W) uint8 slice array.
    """
    base = preprocess(volume, crop_dims, factors)
    out = {}
    for view in views:
        oriented = base if view == "sag" else reproject(base, view)
        out[view] = extract_slices(oriented)
    return out


def assemble_samples(labelled, volumes, views, crop_dims, factors) -> SampleSet:
    """Build a SampleSet from (record, label) pairs and the directory
    ``volumes`` of ``<knee_id>.vvol`` files. All knees must produce
    identical slice shapes.
    """
    knee_ids, labels = [], []
    per_view = {v: [] for v in views}
    for record, label in labelled:
        path = Path(volumes) / f"{record.knee_id}.vvol"
        if not path.exists():
            raise DataError(f"missing volume file {path}")
        stacks = preprocess_views(load_volume(path), views, crop_dims, factors)
        for v in views:
            per_view[v].append(stacks[v])
        knee_ids.append(record.knee_id)
        labels.append(label.progression_class)
    slices = {}
    for v in views:
        try:
            slices[v] = np.stack(per_view[v])
        except ValueError:
            shapes = sorted({a.shape for a in per_view[v]})
            raise DataError(f"view {v!r} produced inconsistent slice shapes: {shapes}") from None
    return SampleSet(knee_ids=knee_ids, labels=np.asarray(labels), slices=slices)


def check_sample_spec(sample_set: SampleSet, cfg: ModelConfig):
    for v in cfg.views:
        if v not in sample_set.slices:
            raise ConfigError(f"sample set lacks view {v!r}")
        k, h, w = sample_set.slices[v].shape[1:]
        if (k, (h, w)) != (cfg.slice_count[v], tuple(cfg.slice_shape[v])):
            raise ConfigError(
                f"view {v!r}: data is {k} slices of {h}x{w}, model expects "
                f"{cfg.slice_count[v]} of {cfg.slice_shape[v][0]}x{cfg.slice_shape[v][1]}")
    return sample_set
