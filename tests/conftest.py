import pidual  # noqa: F401  (first: numpy must load under the package's BLAS thread default)
import numpy as np


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


def rel_err(a, b, floor=1e-6):
    a, b = np.asarray(a), np.asarray(b)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return np.abs(a - b) / denom
