"""Outside-in span recorder for volformer.

``install()`` wraps the public functions of each layer (autograd ops,
architectures, nn parameter materialisation, training, volume, synth,
experiment, evaluation, checkpoint, manifest, the CLI fold pool) at their
module attributes, so every call records a span (name, parent, start, end,
work). Each autograd op also wraps the ``_backward`` closure of the tensor it
returns, so backward time lands on the op that made it. Spans stay in memory
until ``Recorder.flush`` appends them, one JSON list per line, to
``spans-<pid>.jsonl`` in the trace directory.

``summarize()`` turns the span files of one traced run into the per-layer
metrics listed in BENCHMARK.json. Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time
from pathlib import Path

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"

# autograd ops timed as their own span; relu and global_avg_pool forward to
# clamp_min and tmean, so they show up under those names
AUTOGRAD_OPS = (
    "add", "sub", "mul", "div", "power", "exp", "log", "clamp_min", "sigmoid",
    "tanh", "gelu", "dropout", "tsum", "tmean", "reshape", "transpose", "getitem",
    "concat", "pad_spatial", "matmul", "softmax", "batch_norm", "layer_norm",
    "conv_nd", "max_pool_nd", "avg_pool_nd",
)
# ops reported by name; every other op is folded into autograd.other
NAMED_OPS = ("conv_nd", "batch_norm", "mul", "add", "clamp_min", "max_pool_nd", "matmul")


def conv_macs(x_shape, w_shape, stride=1, padding=0):
    """Multiply-accumulates of one cross-correlation, from operand shapes."""
    n = len(w_shape) - 2
    if len(x_shape) == n + 1:
        x_shape = (1,) + tuple(x_shape)
    stride = (stride,) * n if isinstance(stride, int) else tuple(stride)
    padding = (padding,) * n if isinstance(padding, int) else tuple(padding)
    out = [(d + 2 * p - k) // s + 1
           for d, k, s, p in zip(x_shape[2:], w_shape[2:], stride, padding)]
    return x_shape[0] * math.prod(out) * w_shape[0] * w_shape[1] * math.prod(w_shape[2:])


def matmul_macs(a_shape, b_shape):
    batch = _broadcast(tuple(a_shape[:-2]), tuple(b_shape[:-2]))
    return math.prod(batch) * a_shape[-2] * a_shape[-1] * b_shape[-1]


def _broadcast(a, b):
    n = max(len(a), len(b))
    a, b = (1,) * (n - len(a)) + a, (1,) * (n - len(b)) + b
    return tuple(max(x, y) for x, y in zip(a, b))


def _shape(v):
    return tuple(getattr(v, "shape", ()))


def _needs_grad(v):
    return bool(getattr(v, "requires_grad", False))


def _conv_work(x, w, stride=1, padding=0):
    macs = conv_macs(_shape(x), _shape(w), stride, padding)
    return macs, macs * (_needs_grad(x) + _needs_grad(w))


def _matmul_work(a, b):
    macs = matmul_macs(_shape(a), _shape(b))
    return macs, macs * (_needs_grad(a) + _needs_grad(b))


OP_WORK = {"conv_nd": _conv_work, "matmul": _matmul_work}


class Recorder:
    """In-memory spans of one process: [id, parent, name, t0, t1, work]."""

    def __init__(self, trace_dir):
        self.trace_dir = Path(trace_dir)
        self.enabled = True
        self.spans = []
        self.stack = []
        self.base = 0  # id of spans[0]; ids stay unique across flushes

    def open(self, name, work=0):
        sid = self.base + len(self.spans)
        self.spans.append([sid, self.stack[-1] if self.stack else -1, name,
                           time.monotonic(), 0.0, work])
        self.stack.append(sid)
        return sid

    def close(self, sid):
        self.spans[sid - self.base][4] = time.monotonic()
        self.stack.pop()

    def flush(self):
        """Append closed spans to this process's file; only between spans."""
        if self.stack or not self.spans:
            return
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        with open(self.trace_dir / f"spans-{os.getpid()}.jsonl", "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.base += len(self.spans)
        self.spans = []

    def timed(self, name, fn, work_fn=None):
        """Wrap ``fn`` so each call records a span named ``name``."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = self.open(name, work_fn(*args, **kwargs) if work_fn else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(sid)
        return wrapper

    def op(self, name, fn):
        """Wrap an autograd op and the backward closure of its result."""
        work_fn = OP_WORK.get(name.rsplit(".", 1)[-1])
        bw_name = name + ".bw"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            fw_macs, bw_macs = work_fn(*args, **kwargs) if work_fn else (0, 0)
            sid = self.open(name, fw_macs)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(sid)
            head = out[0] if isinstance(out, tuple) else out
            bw = getattr(head, "_backward", None)
            # a closure already wrapped belongs to a nested op (e.g. reshape)
            if bw is not None and not getattr(bw, "_perfbench", False):
                head._backward = self._backward(bw_name, bw, bw_macs)
            return out
        return wrapper

    def _backward(self, name, bw, macs):
        def traced(out):
            if not self.enabled:
                return bw(out)
            sid = self.open(name, macs)
            try:
                return bw(out)
            finally:
                self.close(sid)
        traced._perfbench = True
        return traced


def rebind(orig, new):
    """Rebind every volformer module attribute that is ``orig``."""
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("volformer"):
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, new)


def _batch_size(self, inputs, ctx=None):
    first = next(iter(inputs.values())) if isinstance(inputs, dict) else inputs
    return int(_shape(first)[0])


def _file_mb(path, *args, **kwargs):
    return os.path.getsize(path) / 1e6


def install(trace_dir):
    """Patch the volformer layers; returns the process's Recorder."""
    import volformer.cli as cli
    from volformer import (architectures, autograd, checkpoint, evaluation,
                           experiment, manifest, synth, training, volume)
    from volformer.nn import layers

    rec = Recorder(trace_dir)
    for name in AUTOGRAD_OPS:
        orig = getattr(autograd, name)
        rebind(orig, rec.op(f"autograd.{name}", orig))
    rebind(autograd.backward, rec.timed("autograd.backward", autograd.backward))

    functions = [
        (architectures, "build_model", None),
        (training, "train_fold", None),
        (training, "adam_step", None),
        (training, "focal_loss", None),
        (training, "predict_proba_batched", None),
        (volume, "augment", None),
        (volume, "load_volume", _file_mb),
        (volume, "preprocess", None),
        (volume, "reproject", None),
        (experiment, "assemble_samples", None),
        (synth, "make_phantom", None),
        (evaluation, "ensemble_predict", None),
        (evaluation, "bootstrap_spread", None),
        (evaluation, "export_curves", None),
        (checkpoint, "save_checkpoint", None),
        (checkpoint, "load_checkpoint", None),
        (manifest, "file_sha256", _file_mb),
    ]
    for mod, attr, work_fn in functions:
        orig = getattr(mod, attr)
        label = "validation" if attr == "predict_proba_batched" else attr
        rebind(orig, rec.timed(f"{mod.__name__.split('.')[-1]}.{label}", orig, work_fn))

    save_volume = volume.save_volume

    def save_and_measure(vol, path):
        sid = rec.open("volume.save_volume") if rec.enabled else None
        try:
            return save_volume(vol, path)
        finally:
            if sid is not None:
                rec.spans[sid - rec.base][5] = os.path.getsize(path) / 1e6
                rec.close(sid)
    rebind(save_volume, functools.wraps(save_volume)(save_and_measure))

    methods = [
        (architectures.ModelGraph, "forward", "training.forward", _batch_size),
        (architectures.SlicewiseModel, "encode_slices", "architectures.encode_slices", None),
        (architectures.TransformerAggregator, "forward", "architectures.aggregator", None),
        (architectures.FcAggregator, "forward", "architectures.aggregator", None),
        (architectures.BiLstmAggregator, "forward", "architectures.aggregator", None),
        (layers.Parameter, "_init_data", "nn.param_materialize", None),
    ]
    for cls, attr, label, work_fn in methods:
        setattr(cls, attr, rec.timed(label, getattr(cls, attr), work_fn))

    # the fold pool: its span runs from creating the workers to joining them
    class TimedPool(cli.ProcessPoolExecutor):
        def __enter__(self):
            self._perfbench_sid = rec.open("cli.fold_pool") if rec.enabled else None
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                if self._perfbench_sid is not None:
                    rec.close(self._perfbench_sid)
    cli.ProcessPoolExecutor = TimedPool

    # a fold worker flushes after each fold, so nothing waits on its exit
    train_one_fold = cli._train_one_fold

    @functools.wraps(train_one_fold)
    def train_one_fold_and_flush(packed):
        try:
            return train_one_fold(packed)
        finally:
            rec.flush()
    cli._train_one_fold = train_one_fold_and_flush
    return rec


# ---------------------------------------------------------------------------
# summary


def load_spans(trace_dir):
    """All spans of a trace directory, keyed by (pid, id)."""
    spans = {}
    for path in sorted(Path(trace_dir).glob("spans-*.jsonl")):
        pid = int(path.stem.split("-", 1)[1])
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                sid, parent, name, t0, t1, work = json.loads(line)
                spans[(pid, sid)] = {"pid": pid, "parent": (pid, parent), "name": name,
                                     "dur": t1 - t0, "work": work, "child": 0.0}
    for span in spans.values():
        parent = spans.get(span["parent"])
        if parent is not None:
            parent["child"] += span["dur"]
    return spans


def write_spans(spans, path):
    """Keep a run's spans: [pid, id, parent id, name, duration s, work]."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for (pid, sid), span in spans.items():
            fh.write(json.dumps([pid, sid, span["parent"][1], span["name"],
                                 span["dur"], span["work"]]) + "\n")


def _ancestors(spans, key, cache):
    if key not in cache:
        span = spans.get(key)
        if span is None:
            cache[key] = frozenset()
        else:
            parent = span["parent"]
            cache[key] = _ancestors(spans, parent, cache) | (
                {spans[parent]["name"]} if parent in spans else set())
    return cache[key]


def _accumulate(table, span):
    acc = table.setdefault(span["name"], {"dur": 0.0, "self": 0.0, "work": 0.0, "calls": 0})
    acc["dur"] += span["dur"]
    acc["self"] += span["dur"] - span["child"]
    acc["work"] += span["work"]
    acc["calls"] += 1


def summarize(spans, unit_anchor, units, per_layer_names):
    """Per-layer metrics of one traced run.

    ``unit_anchor`` names the span under which per-step work is counted
    (``training.train_fold`` or the benchmark's ``bench.infer``) and
    ``units`` how many steps or inferences it holds. Training-step metrics
    leave out the validation pass. Everything else is a total over the
    traced set-up and round.
    """
    cache = {}
    per_unit = {}
    totals = {}
    for key, span in spans.items():
        _accumulate(totals, span)
        anc = _ancestors(spans, key, cache)
        if unit_anchor in anc and "training.validation" not in anc:
            _accumulate(per_unit, span)

    def unit(name, field="dur"):
        return per_unit.get(name, {}).get(field, 0.0)

    def total(name, field="dur"):
        return totals.get(name, {}).get(field, 0.0)

    def ms_per_unit(seconds):
        return 1e3 * seconds / units if units else 0.0

    def gmac_per_s(name):
        seconds = unit(name, "self")
        return unit(name, "work") / seconds / 1e9 if seconds > 0 else 0.0

    m = {}
    other_fw = other_bw = 0.0
    calls = 0
    for key, acc in per_unit.items():
        if not key.startswith("autograd.") or key == "autograd.backward":
            continue
        op = key[len("autograd."):]
        base, is_bw = (op[:-3], True) if op.endswith(".bw") else (op, False)
        if not is_bw:
            calls += acc["calls"]
        if base not in NAMED_OPS:
            if is_bw:
                other_bw += acc["self"]
            else:
                other_fw += acc["self"]
    for op in NAMED_OPS:
        m[f"autograd.{op}.fw_ms"] = ms_per_unit(unit(f"autograd.{op}", "self"))
        m[f"autograd.{op}.bw_ms"] = ms_per_unit(unit(f"autograd.{op}.bw", "self"))
    m["autograd.conv_nd.fw_gmac_per_s"] = gmac_per_s("autograd.conv_nd")
    m["autograd.conv_nd.bw_gmac_per_s"] = gmac_per_s("autograd.conv_nd.bw")
    m["autograd.matmul.fw_gmac_per_s"] = gmac_per_s("autograd.matmul")
    m["autograd.other.fw_ms"] = ms_per_unit(other_fw)
    m["autograd.other.bw_ms"] = ms_per_unit(other_bw)
    m["autograd.backward.walk_ms"] = ms_per_unit(unit("autograd.backward", "self"))
    m["autograd.ops.calls"] = calls / units if units else 0.0
    for name in ("architectures.encode_slices", "architectures.aggregator",
                 "training.forward", "training.adam_step", "training.focal_loss",
                 "volume.augment"):
        m[f"{name}.ms"] = ms_per_unit(unit(name))
    m["training.backward.ms"] = ms_per_unit(unit("autograd.backward"))
    m["training.steps"] = float(total("training.adam_step", "calls"))
    m["training.samples"] = float(total("training.forward", "work"))
    # validation inside train_fold only; evaluate's ensemble reuses the function
    m["training.validation.ms"] = 1e3 * sum(
        s["dur"] for k, s in spans.items()
        if s["name"] == "training.validation"
        and "evaluation.ensemble_predict" not in _ancestors(spans, k, cache))
    for name in ("architectures.build_model", "nn.param_materialize",
                 "experiment.assemble_samples", "volume.load_volume", "volume.preprocess",
                 "volume.reproject", "volume.save_volume", "synth.make_phantom",
                 "evaluation.ensemble_predict", "evaluation.bootstrap_spread",
                 "evaluation.export_curves", "checkpoint.save_checkpoint",
                 "checkpoint.load_checkpoint", "manifest.file_sha256"):
        m[f"{name}.ms"] = 1e3 * total(name)
    m["volume.read_mb"] = total("volume.load_volume", "work")
    m["volume.write_mb"] = total("volume.save_volume", "work")
    m["manifest.hashed_mb"] = total("manifest.file_sha256", "work")
    m["cli.fold_pool.overhead_s"] = _fold_pool_overhead(spans)
    missing = set(per_layer_names) - set(m) - {"trace.overhead_pct", "ref.sgemm_gmac_per_s"}
    if missing:
        raise KeyError(f"summary lacks per-layer metrics {sorted(missing)}")
    return m


def _fold_pool_overhead(spans):
    """The fold pools' lifetime minus the train_fold time of the busiest
    worker: spawning, imports, pickling and checkpoint writing."""
    pools = [s["dur"] for s in spans.values() if s["name"] == "cli.fold_pool"]
    busy = {}
    for s in spans.values():
        if s["name"] == "training.train_fold":
            busy[s["pid"]] = busy.get(s["pid"], 0.0) + s["dur"]
    if not pools:
        return 0.0
    return sum(pools) - max(busy.values(), default=0.0)
