"""Analytic MACs / parameter counting over model graphs.

Counts come from one shape-only, eval-mode forward of the real model
(``nn.shape_pass``): only ``conv_nd`` and ``matmul`` cost MACs, taken from
their operand shapes (kernel volume x C_in x C_out per output voxel; the
product of the output extents x the inner extent). Norms, activations and
pooling count as zero. Rows follow the module path, with the slice encoder
under ``encoder@<view>.``; attention splits into ``attn_proj`` (the four
projections) and ``attn_scores`` (the two L x L products), so either
convention is recoverable. Each parameter counts once, in the row where it
is first used, and no parameter value is ever read or made.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from .architectures import AGGREGATORS, ModelGraph
from .errors import ConfigError
from .nn import shape_pass


@dataclass
class CostReport:
    rows: list
    total_macs: int
    total_params: int
    input_spec: dict
    notes: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "rows": [asdict(r) for r in self.rows],
            "total_macs": self.total_macs,
            "total_params": self.total_params,
            "input_spec": {v: list(s) for v, s in self.input_spec.items()},
            "notes": self.notes,
        }


def _reconciliation_notes(graph: ModelGraph):
    sized_by = getattr(AGGREGATORS.get(graph.config.family), "sized_by", ())
    return {
        "macs_convention": "norm/activation/pool layers counted as 0 MACs",
        "attention_rows": "projection and score/value MACs emitted separately",
        **{name: getattr(graph.config.aggregator, name) for name in sized_by},
    }


def count_macs(graph: ModelGraph, input_spec=None) -> CostReport:
    """Per-module multiply-accumulate and parameter counts of one
    shape-only forward at the given input shapes."""
    spec = dict(input_spec) if input_spec else graph.input_spec
    _, rows = shape_pass(graph.module, spec)
    return CostReport(
        rows=rows,
        total_macs=sum(r.macs for r in rows),
        total_params=sum(r.params for r in rows),
        input_spec=spec,
        notes=_reconciliation_notes(graph),
    )


def count_params(graph: ModelGraph) -> CostReport:
    """Trainable parameter totals (tokens and positional tables included)."""
    report = count_macs(graph)
    direct = graph.param_count()
    if direct != report.total_params:
        raise ConfigError(
            f"layer table params {report.total_params} disagree with "
            f"parameter registry {direct}")
    return report
