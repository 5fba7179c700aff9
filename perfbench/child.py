"""Program work the benchmark runs in a process of its own, so that its
memory high-water mark is the program's and not the benchmark's.

    python3 perfbench/child.py infer --seed 1 --seconds 10 --out result.json
    python3 perfbench/child.py volumes --seed 1 --out vols/

``infer`` builds ``full-2d-trf`` and runs single-sample ``predict_proba``:
the first call (set-up) materialises the parameters, counts MACs from
operand shapes and keeps part of the stem convolution for checking; later
calls are timed until ``--seconds`` have passed. ``volumes`` writes one
synthetic subject (two knees) at paper scale. With PERFBENCH_TRACE_DIR set,
the span recorder is installed; ``infer`` then times one call untraced and
one traced.
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402
import tracer  # noqa: E402

STEM_SLICES = (0, 21, 42, 63)
STEM_CHANNELS = (0, 17, 42, 63)
# sagittal DESS-like geometry: in-plane 0.365 mm, 0.7 mm slices
PAPER_DIMS = (384, 384, 160)
PAPER_SPACING = (0.365, 0.365, 0.7)


class FirstCall:
    """Counts conv/matmul MACs from operand shapes and keeps the stem
    convolution's operands and output, for one call of the model."""

    def __init__(self, autograd):
        self.ag = autograd
        self.macs = 0
        self.stem = None
        self.orig = (autograd.conv_nd, autograd.matmul)

    def __enter__(self):
        conv_nd, matmul = self.orig

        def counted_conv(x, w, stride=1, padding=0):
            self.macs += tracer.conv_macs(x.shape, w.shape, stride, padding)
            out = conv_nd(x, w, stride, padding)
            if self.stem is None:
                self.stem = (x.data[list(STEM_SLICES)].copy(), w.data.copy(), stride, padding,
                             out.data[list(STEM_SLICES)][:, list(STEM_CHANNELS)].copy())
            return out

        def counted_matmul(a, b):
            self.macs += tracer.matmul_macs(a.shape, b.shape)
            return matmul(a, b)

        tracer.rebind(conv_nd, counted_conv)
        tracer.rebind(matmul, counted_matmul)
        return self

    def __exit__(self, *exc):
        tracer.rebind(self.ag.conv_nd, self.orig[0])
        tracer.rebind(self.ag.matmul, self.orig[1])


def _recorder():
    trace_dir = os.environ.get(tracer.TRACE_DIR_ENV)
    return tracer.install(trace_dir) if trace_dir else None


def infer(args):
    import numpy as np
    rec = _recorder()
    from volformer import autograd
    from volformer.architectures import build_model
    from volformer.presets import preset_config

    cfg = preset_config("full-2d-trf")
    k, h, w = cfg.input_spec()["sag"]
    sample = np.random.default_rng(args.seed).random((k, h, w)).astype(np.float32)
    graph = build_model(cfg, seed=args.seed)
    with FirstCall(autograd) as first:
        first_probs = graph.predict_proba(sample)
    setup_end = time.monotonic()

    times, errors = [], checks.check_probabilities(first_probs)

    def timed_call():
        t0 = time.perf_counter()
        probs = graph.predict_proba(sample)
        times.append(time.perf_counter() - t0)
        if not np.allclose(probs, first_probs, rtol=0, atol=1e-6):
            errors.append("a repeated call returned other probabilities")

    if rec is None:
        t_start = time.perf_counter()
        while not times or time.perf_counter() - t_start < args.seconds:
            timed_call()
    else:
        rec.enabled = False
        timed_call()  # untraced first: the overhead's base
        rec.enabled = True
        sid = rec.open("bench.infer")
        timed_call()
        rec.close(sid)
        rec.flush()

    x, wt, stride, padding, actual = first.stem
    reference = checks.stem_reference(x, wt, stride, padding, range(len(STEM_SLICES)),
                                      STEM_CHANNELS)
    errors += checks.check_stem(actual, reference)
    encoder = graph.module.encoder
    result = {
        "setup_end": setup_end,
        "times": times,
        "macs": first.macs,
        "encoder_params": sum(p.size for _, p in encoder.named_parameters()),
        "errors": errors,
    }
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")


def volumes(args):
    rec = _recorder()
    from volformer.synth import SynthSpec, synth_generate

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    spec = SynthSpec(dims=PAPER_DIMS, spacing=PAPER_SPACING)
    synth_generate(1, args.seed, spec=spec, out_dir=str(out))
    if rec is not None:
        rec.flush()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("infer")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=infer)
    p = sub.add_parser("volumes")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=volumes)
    args = parser.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
