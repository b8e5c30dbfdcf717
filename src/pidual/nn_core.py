"""Minimal dense-network engine with exact reverse-mode gradients.

Supports the fixed MLP topology family used by the three sub-networks:
stacks of affine layers with ReLU hiddens and an identity or sigmoid output.
Everything is float64 and deterministic; batches are rows of a 2-D array and
single samples are 1-D vectors (promoted internally).

Gradient convention: ``mlp_backward`` returns the gradient of
``sum(output * upstream)``, so a mean-over-batch loss is obtained by passing
per-sample upstream gradients already divided by the batch size.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ContractError, NumericError, ShapeError

RELU = "relu"
IDENTITY = "identity"
SIGMOID = "sigmoid"
_ACTIVATIONS = (RELU, IDENTITY, SIGMOID)


@dataclass
class MlpParams:
    """Layered dense-network parameters.

    ``weights[k]`` has shape (out_k, in_k) with ``in_{k+1} == out_k``;
    ``biases[k]`` has shape (out_k,). ``activations[k]`` is one of
    "relu", "identity", "sigmoid" and is applied after layer k's affine map.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    activations: list[str]

    def __post_init__(self) -> None:
        if not (len(self.weights) == len(self.biases) == len(self.activations)):
            raise ShapeError("weights, biases and activations must align")
        if not self.weights:
            raise ShapeError("an MLP needs at least one layer")
        for k, (w, b, act) in enumerate(zip(self.weights, self.biases, self.activations)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise ShapeError(f"layer {k}: weight {w.shape} and bias {b.shape} do not match")
            if act not in _ACTIVATIONS:
                raise ShapeError(f"layer {k}: unknown activation {act!r}")
            if k > 0 and w.shape[1] != self.weights[k - 1].shape[0]:
                raise ShapeError(
                    f"layer {k} input dim {w.shape[1]} != layer {k - 1} output dim "
                    f"{self.weights[k - 1].shape[0]}"
                )
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise NumericError(f"layer {k}: non-finite parameter entries")

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[0]

    @property
    def num_layers(self) -> int:
        return len(self.weights)

    def copy(self) -> "MlpParams":
        return MlpParams(
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
            list(self.activations),
        )

    def equals(self, other: "MlpParams") -> bool:
        """Exact (bitwise) equality of all weight and bias tensors."""
        return all(np.array_equal(a, b) for a, b in zip(self.weights, other.weights)) and all(
            np.array_equal(a, b) for a, b in zip(self.biases, other.biases)
        )


@dataclass
class Gradients:
    """Per-tensor gradient buffers, shape-congruent with an MlpParams."""

    d_weights: list[np.ndarray]
    d_biases: list[np.ndarray]

    @staticmethod
    def zeros_like(params: MlpParams) -> "Gradients":
        return Gradients(
            [np.zeros_like(w) for w in params.weights],
            [np.zeros_like(b) for b in params.biases],
        )


def init_mlp(dims: list[int], activations: list[str], seed: int) -> MlpParams:
    """He-style fan-in scaled Gaussian weights, zero biases.

    ``dims`` is [in, h1, ..., out]; ``activations`` has one entry per layer.
    """
    if len(dims) < 2 or len(activations) != len(dims) - 1:
        raise ShapeError("dims must list in/out sizes for every layer")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        scale = np.sqrt(2.0 / max(fan_in, 1))
        weights.append(rng.standard_normal((fan_out, fan_in)) * scale)
        biases.append(np.zeros(fan_out))
    return MlpParams(weights, biases, list(activations))


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function; underflows to exactly 0/1 at extremes."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@dataclass
class Tape:
    """Activation cache binding one forward pass to its parameters."""

    params: MlpParams = field(repr=False)
    layer_inputs: list[np.ndarray] = field(repr=False)
    pre_activations: list[np.ndarray] = field(repr=False)
    squeezed: bool = False


def _promote(x: np.ndarray) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        return x[None, :], True
    if x.ndim != 2:
        raise ShapeError(f"expected a vector or a batch of vectors, got ndim={x.ndim}")
    return x, False


def mlp_forward(params: MlpParams, x: np.ndarray) -> tuple[np.ndarray, Tape]:
    """Forward pass; returns (output, tape) where the tape suffices for backward."""
    h, squeezed = _promote(x)
    if h.shape[1] != params.in_dim:
        raise ShapeError(f"input dim {h.shape[1]} != first-layer in-dim {params.in_dim}")
    inputs, pre_acts = [], []
    for w, b, act in zip(params.weights, params.biases, params.activations):
        inputs.append(h)
        z = h @ w.T + b
        pre_acts.append(z)
        if act == RELU:
            h = np.maximum(z, 0.0)
        elif act == SIGMOID:
            h = sigmoid(z)
        else:
            h = z
    tape = Tape(params, inputs, pre_acts, squeezed)
    return (h[0] if squeezed else h), tape


def mlp_backward(
    params: MlpParams, tape: Tape, upstream: np.ndarray
) -> tuple[Gradients, np.ndarray]:
    """Exact reverse-mode gradients of ``sum(output * upstream)``.

    Returns (parameter gradients, gradient w.r.t. the forward input).
    """
    if tape.params is not params:
        raise ContractError("tape was produced by a different parameter set")
    d, promoted = _promote(upstream)
    if promoted != tape.squeezed:
        raise ContractError("upstream batch shape does not match the forward pass")
    if d.shape != (tape.layer_inputs[0].shape[0], params.out_dim):
        raise ShapeError(f"upstream shape {d.shape} does not match network output")
    grads = Gradients.zeros_like(params)
    for k in range(params.num_layers - 1, -1, -1):
        z = tape.pre_activations[k]
        act = params.activations[k]
        if act == RELU:
            dz = d * (z > 0)
        elif act == SIGMOID:
            s = sigmoid(z)
            dz = d * s * (1.0 - s)
        else:
            dz = d
        grads.d_weights[k][...] = dz.T @ tape.layer_inputs[k]
        grads.d_biases[k][...] = dz.sum(axis=0)
        d = dz @ params.weights[k]
    return grads, (d[0] if tape.squeezed else d)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Stable softmax along the last axis (max-subtraction)."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.shape[-1] == 0:
        raise ShapeError("softmax of an empty logit vector")
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_ce(logits: np.ndarray, label: int) -> tuple[float, np.ndarray]:
    """Cross-entropy of one logit vector against a class index.

    Returns (loss, dlogits) with dlogits = softmax(logits) - onehot(label).
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 1 or logits.size == 0:
        raise ShapeError("logits must be a non-empty vector")
    if not 0 <= label < logits.size:
        raise ShapeError(f"label {label} out of range for {logits.size} classes")
    shifted = logits - logits.max()
    log_z = np.log(np.exp(shifted).sum())
    loss = float(log_z - shifted[label])
    dlogits = np.exp(shifted - log_z)
    dlogits[label] -= 1.0
    return loss, dlogits


def softmax_ce_batch(logits: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise cross-entropy; returns unreduced (losses, dlogits)."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    if logits.ndim != 2 or logits.shape[1] == 0:
        raise ShapeError("logits must be a non-empty (batch, classes) array")
    if labels.shape != (logits.shape[0],):
        raise ShapeError("one label per batch row required")
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    rows = np.arange(logits.shape[0])
    losses = log_z - shifted[rows, labels]
    dlogits = np.exp(shifted - log_z[:, None])
    dlogits[rows, labels] -= 1.0
    return losses, dlogits


@dataclass
class OptimizerState:
    """SGD state: Nesterov velocities plus the step schedule.

    The learning rate at epoch e is ``base_lr * decay_factor ** k`` where k
    counts the entries of ``decay_epochs`` with value <= e.
    """

    velocities_w: list[np.ndarray]
    velocities_b: list[np.ndarray]
    step: int
    base_lr: float
    momentum: float
    weight_decay: float
    decay_epochs: list[int]
    decay_factor: float

    def copy(self) -> "OptimizerState":
        return copy.deepcopy(self)


def init_optimizer(
    params: MlpParams,
    base_lr: float,
    momentum: float = 0.9,
    weight_decay: float = 0.0,
    decay_epochs: list[int] | None = None,
    decay_factor: float = 0.2,
) -> OptimizerState:
    if base_lr < 0:
        raise ConfigError("base learning rate must be >= 0")
    if not 0 < decay_factor <= 1:
        raise ConfigError("decay factor must be in (0, 1]")
    return OptimizerState(
        [np.zeros_like(w) for w in params.weights],
        [np.zeros_like(b) for b in params.biases],
        step=0,
        base_lr=float(base_lr),
        momentum=float(momentum),
        weight_decay=float(weight_decay),
        decay_epochs=sorted(decay_epochs or []),
        decay_factor=float(decay_factor),
    )


def current_lr(state: OptimizerState, epoch: int) -> float:
    passed = sum(1 for e in state.decay_epochs if epoch >= e)
    return state.base_lr * state.decay_factor**passed


def sgd_step(
    params: MlpParams,
    grads: Gradients,
    state: OptimizerState,
    epoch: int,
    decay_exempt: bool = False,
) -> None:
    """One in-place Nesterov update: v <- mu*v - lr*g; p <- p + mu*v - lr*g.

    Weight decay is added to the gradient (g <- g + wd*p) unless
    ``decay_exempt``. With zero velocity history, lr=0 or zero gradients and
    zero decay leave the parameters unchanged.
    """
    lr = current_lr(state, epoch)
    mu = state.momentum
    wd = 0.0 if decay_exempt else state.weight_decay
    tensors = (
        list(zip(params.weights, grads.d_weights, state.velocities_w))
        + list(zip(params.biases, grads.d_biases, state.velocities_b))
    )
    for idx, (p, g, v) in enumerate(tensors):
        if p.shape != g.shape:
            raise ShapeError(f"gradient shape {g.shape} != parameter shape {p.shape}")
        if not np.isfinite(g).all():
            n = params.num_layers
            kind = "weight" if idx < n else "bias"
            raise NumericError(f"non-finite gradient in layer {idx % n} {kind}")
        if wd != 0.0:
            g = g + wd * p
        v *= mu
        v -= lr * g
        p += mu * v
        p -= lr * g
    state.step += 1
