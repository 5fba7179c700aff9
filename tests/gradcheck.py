"""Shared finite-difference gradient oracle (64-bit, step 1e-3).

The oracle perturbs raw numpy buffers directly and re-runs the forward
closure, so it is independent of every analytic backward it checks. It
Richardson-extrapolates central differences at the step and half the step,
so its truncation error is O(step^4): a plain central difference at 1e-3
is off by O(step^2), which through a training BatchNorm reached 2e-4 of
a weight gradient, past the 1e-4 tolerance.
:func:`randomize_norms` gives a module's BatchNorms non-trivial frozen
statistics and affine parameters, for eval-mode checks.
"""

import numpy as np

from volformer import autograd as ag

STEP = 1e-3
TOL = 1e-4


def numeric_grads(loss_fn, tensors, step=STEP):
    grads = []
    for t in tensors:
        flat = t.data.reshape(-1)
        g = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            fp = loss_fn()
            flat[i] = orig - step
            fm = loss_fn()
            flat[i] = orig + step / 2
            hp = loss_fn()
            flat[i] = orig - step / 2
            hm = loss_fn()
            flat[i] = orig
            g[i] = (8.0 * (hp - hm) - (fp - fm)) / (6.0 * step)
        grads.append(g.reshape(t.shape))
    return grads


def max_rel_err(analytic, numeric):
    scale = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / scale))


def assert_grads_match(build_loss, tensors, tol=TOL, step=STEP):
    """build_loss: () -> scalar Tensor; tensors: leaves to check."""
    loss = build_loss()
    for t in tensors:
        t.grad = None
    ag.backward(loss)
    if any(t.grad is None for t in tensors):
        # np.array(None) is nan, which max() below would silently skip
        raise AssertionError("a checked tensor received no gradient")
    analytic = [np.array(t.grad, dtype=np.float64) for t in tensors]
    numeric = numeric_grads(lambda: build_loss().item(), tensors, step)
    worst = max(max_rel_err(a, n) for a, n in zip(analytic, numeric))
    assert worst < tol, f"gradient mismatch: max rel err {worst:.3e} >= {tol}"
    return worst


def randomize_norms(module, rng):
    """Random gamma/beta and running statistics for every BatchNorm in
    ``module``, so eval mode is not the identity it is at init."""
    state = module.state_dict()  # parameters first, then buffers
    for name, arr in state.items():
        if name.endswith("gamma"):
            state[name] = rng.uniform(0.5, 1.5, arr.shape) * rng.choice([-1, 1], arr.shape)
        elif name.endswith("beta"):
            state[name] = rng.uniform(-0.5, 1.0, arr.shape)
        elif name.endswith(("running_mean", "running_var")):
            low = 0.3 if name.endswith("running_var") else -1.0
            state[name] = rng.uniform(low, 2.0, arr.shape)
    module.load_state_dict(state)
