"""Time full-scale ``adam_step`` calls and report the memory they hold.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 bench/adam_step.py

Builds the ``PRESET`` model, gives every parameter a fixed pseudo-random
gradient of the parameter's own dtype, and runs ``STEPS`` Adam updates with
decoupled weight decay. It imports only ``build_model``, ``preset_config``,
``AdamState`` and ``adam_step``, so the same file measures any tree whose
``src`` is on ``PYTHONPATH``. Prints one JSON object: the seconds of each
step, the bytes of the parameters, the gradients and the Adam moments
(``m`` and ``v`` together), and the process's peak RSS in MB.
"""

from __future__ import annotations

import json
import resource
import time

import numpy as np

from volformer.architectures import build_model
from volformer.presets import preset_config
from volformer.training import AdamState, adam_step

PRESET = "full-2d-trf"
STEPS = 3  # the first step also touches the fresh moment pages


def mib(arrays):
    return round(sum(a.nbytes for a in arrays) / 2**20, 1)


def main():
    graph = build_model(preset_config(PRESET), seed=0)
    named = [(name, p.tensor) for name, p in graph.module.named_parameters()]
    rng = np.random.default_rng(0)
    for _, tensor in named:
        tensor.grad = rng.standard_normal(tensor.shape, dtype=tensor.dtype)
        tensor.grad *= 1e-3
    state = AdamState()
    seconds = []
    for _ in range(STEPS):
        t0 = time.perf_counter()
        adam_step(named, state, 1e-4, 1e-4)
        seconds.append(round(time.perf_counter() - t0, 3))
    print(json.dumps({
        "preset": PRESET,
        "parameters": sum(t.size for _, t in named),
        "step_s": seconds,
        "param_mib": mib(t.data for _, t in named),
        "grad_mib": mib(t.grad for _, t in named),
        "moment_mib": mib([*state.m.values(), *state.v.values()]),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }))


if __name__ == "__main__":
    main()
