"""Time one full-scale training step and report the memory it holds.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 bench/train_step.py 8

Builds the ``PRESET`` model with ``slice_count`` set to the one positional
argument, and runs one training step on a pseudo-random batch of one sample,
as ``train_fold`` does: forward in training mode, ``focal_loss`` of the
softmax, ``backward`` and one ``adam_step``. The loss stays referenced until
the step ends, as in ``train_fold``. It imports only the model builder, the
loss, the optimiser and ``backward``, so the same file measures any tree
whose ``src`` is on ``PYTHONPATH``. Prints one JSON object: the seconds of
each phase, the MiB of the parameters, their gradients and the Adam moments
(``m`` and ``v`` together), and the process's peak RSS in MB.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import time

import numpy as np

from volformer import autograd as ag
from volformer.architectures import build_model
from volformer.nn import Ctx
from volformer.presets import preset_config
from volformer.training import AdamState, adam_step, focal_loss

PRESET = "full-2d-trf"


def mib(arrays):
    return round(sum(a.nbytes for a in arrays) / 2**20, 1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("slices", type=int, help="slice count of every view")
    args = parser.parse_args(argv)
    cfg = preset_config(PRESET)
    cfg = dataclasses.replace(cfg, slice_count={v: args.slices for v in cfg.views})
    graph = build_model(cfg, seed=0)
    named = [(name, p.tensor) for name, p in graph.module.named_parameters()]
    rng = np.random.default_rng(0)
    inputs = {v: rng.random((1,) + shape, dtype=np.float32)
              for v, shape in graph.input_spec.items()}
    state = AdamState()
    seconds = {}

    def phase(name, fn, *fn_args):
        t0 = time.perf_counter()
        out = fn(*fn_args)
        seconds[name] = round(time.perf_counter() - t0, 3)
        return out

    logits = phase("forward", graph.forward, inputs, Ctx(training=True, rng=rng))
    loss = phase("focal_loss", lambda: focal_loss(ag.softmax(logits, axis=-1), [1]))
    phase("backward", ag.backward, loss)
    phase("adam_step", adam_step, named, state, 1e-4, 1e-4)
    print(json.dumps({
        "preset": PRESET,
        "slices": args.slices,
        "parameters": sum(t.size for _, t in named),
        "seconds": seconds,
        "param_mib": mib(t.data for _, t in named),
        "grad_mib": mib(t.grad for _, t in named),
        "moment_mib": mib([*state.m.values(), *state.v.values()]),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }))


if __name__ == "__main__":
    main()
