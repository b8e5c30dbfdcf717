"""A fixed numpy job that measures how fast the machine runs right now.

Usage: python3 perfbench/calibrate.py

Prints the seconds its timed part took. The job uses no pidual code, so no
change to pidual moves it; only the machine does. Its work resembles
pidual's: many small matrix products at minibatch shape (Python and dispatch
overhead) and a few at full-split shape (BLAS, with the caller's thread
settings). The harness runs it in a fresh interpreter next to every command,
so that its BLAS threads are gone before the command starts.
"""
from __future__ import annotations

import time

import numpy as np


def forward_backward(x: np.ndarray, w1: np.ndarray, w2: np.ndarray, w3: np.ndarray) -> float:
    h1 = np.maximum(x @ w1, 0.0)
    h2 = np.maximum(h1 @ w2, 0.0)
    z = h2 @ w3
    p = np.exp(z - z.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    g2 = (p @ w3.T) * (h2 > 0)
    g1 = (g2 @ w2.T) * (h1 > 0)
    return float((h2.T @ p).sum() + (h1.T @ g2).sum() + (x.T @ g1).sum())


def main() -> None:
    rng = np.random.default_rng(0)
    w1 = rng.standard_normal((8, 128)) * 0.3
    w2 = rng.standard_normal((128, 128)) * 0.1
    w3 = rng.standard_normal((128, 4)) * 0.1
    batch = rng.standard_normal((128, 8))
    split = rng.standard_normal((2800, 8))
    start = time.perf_counter()
    for _ in range(3):
        for _ in range(150):
            forward_backward(batch, w1, w2, w3)
        for _ in range(3):
            forward_backward(split, w1, w2, w3)
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main()
