"""Ready-made model configurations.

Full-scale presets describe the reference comparison: 50-layer bottleneck
encoders over 64 sagittal 160x160 slices (coronal/axial reprojections keep
the voxel budget: 160 slices of 116x88), transformer aggregation at width
2048 with 4 blocks of 8 heads. The FC (512) and LSTM (256) hidden sizes are
the smallest powers of two whose totals land within 10% of the reference
parameter counts; the transformer MLP ratio 1 reconciles the same way.

Toy presets keep the identical topology at desk scale for training and CI.
"""

from __future__ import annotations

from .architectures import (
    MULTIVIEW_FAMILIES,
    VOLUMETRIC_FAMILIES,
    AggregatorSpec,
    EncoderSpec,
    ModelConfig,
)
from .errors import ConfigError

FULL_VIEW_SPECS = {
    "sag": (64, (160, 160)),
    "cor": (160, (116, 88)),
    "ax": (160, (116, 88)),
}


def full_scale_config(family, views=None) -> ModelConfig:
    """Reference full-scale configuration for analytic profiling."""
    if family in MULTIVIEW_FAMILIES:
        views = tuple(views or ("sag", "cor", "ax"))
    else:
        views = tuple(views or ("sag",))
    if family in VOLUMETRIC_FAMILIES:
        encoder = EncoderSpec(in_channels=1, stem_pool=False)
        slice_count = {views[0]: FULL_VIEW_SPECS[views[0]][0]}
        slice_shape = {views[0]: FULL_VIEW_SPECS[views[0]][1]}
    else:
        encoder = EncoderSpec()  # canonical: 3ch, 64 stem, (64,128,256,512)x(3,4,6,3)
        slice_count = {v: FULL_VIEW_SPECS[v][0] for v in views}
        slice_shape = {v: FULL_VIEW_SPECS[v][1] for v in views}
    return ModelConfig(
        family=family,
        views=views,
        encoder=encoder,
        aggregator=AggregatorSpec(),
        slice_count=slice_count,
        slice_shape=slice_shape,
    ).validate()


def _toy_encoder(stem_pool):
    """The toy encoder: one channel, 2 bottleneck stages, width <= 32."""
    return EncoderSpec(in_channels=1, stem_width=8, stage_widths=(4, 8), blocks_per_stage=(1, 1),
                       stem_kernel=3, stem_stride=1, stem_pool=stem_pool)


def toy_config(family="2d_trf", slice_count=8, slice_shape=(24, 24), views=None) -> ModelConfig:
    """Small stand-in with the same topology: 2 bottleneck stages, width<=32."""
    if family in VOLUMETRIC_FAMILIES:
        raise ConfigError("use toy_volumetric_config for volumetric families")
    views = tuple(views or (("sag", "cor", "ax") if family in MULTIVIEW_FAMILIES else ("sag",)))
    aggregator = AggregatorSpec(
        model_dim=32, blocks=2, heads=4, mlp_ratio=1.0, dropout=0.1,
        fc_hidden=32, lstm_hidden=16,
    )
    return ModelConfig(
        family=family,
        views=views,
        encoder=_toy_encoder(stem_pool=True),
        aggregator=aggregator,
        slice_count={v: slice_count for v in views},
        slice_shape={v: slice_shape for v in views},
    ).validate()


def toy_volumetric_config(family="conv3d", dims=(8, 32, 32)) -> ModelConfig:
    return ModelConfig(
        family=family,
        views=("sag",),
        encoder=_toy_encoder(stem_pool=False),
        aggregator=AggregatorSpec(model_dim=32, blocks=1, heads=4),
        slice_count={"sag": dims[0]},
        slice_shape={"sag": (dims[1], dims[2])},
    ).validate()


PRESETS = {
    "toy-2d-trf": lambda: toy_config("2d_trf"),
    "toy-2d-fc": lambda: toy_config("2d_fc"),
    "toy-2d-bilstm": lambda: toy_config("2d_bilstm"),
    "toy-multiview-shared": lambda: toy_config("2d_trf_multiview_shared"),
    "toy-multiview-individual": lambda: toy_config("2d_trf_multiview_individual"),
    "toy-conv3d": lambda: toy_volumetric_config("conv3d"),
    "toy-conv2plus1d": lambda: toy_volumetric_config("conv2plus1d"),
    "full-2d-trf": lambda: full_scale_config("2d_trf"),
    "full-2d-trf-cor": lambda: full_scale_config("2d_trf", views=("cor",)),
    "full-2d-trf-ax": lambda: full_scale_config("2d_trf", views=("ax",)),
    "full-2d-fc": lambda: full_scale_config("2d_fc"),
    "full-2d-bilstm": lambda: full_scale_config("2d_bilstm"),
    "full-multiview-shared": lambda: full_scale_config("2d_trf_multiview_shared"),
    "full-multiview-individual": lambda: full_scale_config("2d_trf_multiview_individual"),
}


def preset_config(name) -> ModelConfig:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}")
    return PRESETS[name]()
