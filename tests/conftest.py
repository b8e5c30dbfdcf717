import pidual  # noqa: F401  (first: numpy must load under the package's BLAS thread default)
import itertools

import numpy as np

from pidual import model as model_mod
from pidual.data import augment_random_pi
from pidual.training import ABLATION_VARIANTS, TrialJob, run_trial

# plain cross-entropy: the architecture of ablate's cross_entropy row
CE_FLAGS = ABLATION_VARIANTS["cross_entropy"][0]


def finite_difference(fn, arrays, h=1e-5):
    """Central-difference gradients of the scalar fn() w.r.t. each array.

    Arrays are perturbed in place and restored; fn must read them afresh on
    every call.
    """
    grads = []
    for arr in arrays:
        grad = np.zeros_like(arr)
        flat, gflat = arr.ravel(), grad.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = fn()
            flat[i] = orig - h
            f_minus = fn()
            flat[i] = orig
            gflat[i] = (f_plus - f_minus) / (2.0 * h)
        grads.append(grad)
    return grads


def trained(ds, model_cfg, cfg):
    """One trial's result, and ``ds`` with the random PI it trained on."""
    outcome = run_trial(TrialJob(0, {}, cfg.seed, ds, cfg, model_cfg))
    assert outcome.status == "ok", outcome.error
    return outcome.result, augment_random_pi(ds, outcome.random_pi)


def rel_err(a, b, floor=1e-6):
    a, b = np.asarray(a), np.asarray(b)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return np.abs(a - b) / denom


def poison_gradient(monkeypatch, name, layer, kind, at_step):
    """Patch ``model.backward_train`` so that its call number ``at_step``
    (from 0) writes NaN into the last entry of the ``kind`` ("weight" or
    "bias") gradient of layer ``layer`` of component ``name``. Patch before
    ``train`` forks; only the training process calls it."""
    real, calls = model_mod.backward_train, itertools.count()

    def poisoned(model, tape):
        grads = real(model, tape)
        if next(calls) == at_step:
            g = grads[name]
            (g.d_weights if kind == "weight" else g.d_biases)[layer].flat[-1] = np.nan
        return grads

    monkeypatch.setattr(model_mod, "backward_train", poisoned)
