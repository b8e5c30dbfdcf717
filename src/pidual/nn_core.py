"""Minimal dense-network engine with exact reverse-mode gradients.

Supports the fixed MLP topology family used by the three sub-networks:
stacks of affine layers with ReLU hiddens and an identity or sigmoid output.
Everything is float64 and deterministic. Inputs are batches, one sample per
row of a 2-D array; a single sample is a batch of one row, ``x[None]``.

Gradient convention: ``mlp_backward`` returns the gradient of
``sum(output * upstream)``, so a mean-over-batch loss is obtained by passing
per-sample upstream gradients already divided by the batch size.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, NumericError, ShapeError

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
    def size(self) -> int:
        """Number of scalar parameters."""
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

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
    """Numerically stable logistic function; underflows to exactly 0/1 at extremes.

    ``1 / (1 + exp(-x))`` where x >= 0 and ``exp(x) / (1 + exp(x))`` elsewhere,
    computed on the whole array: ``minimum(x, -x)`` is -|x| and keeps a nan's
    sign, so every element, nan included, gets the bits of the per-branch form.
    """
    e = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


@dataclass
class Tape:
    """Activation cache binding one forward pass to its parameters.

    ``outputs[0]`` is the input batch and ``outputs[k + 1]`` layer k's
    activated output; backward needs nothing else, because the ReLU mask and
    the sigmoid derivative are both functions of the output.
    """

    params: MlpParams = field(repr=False)
    outputs: list[np.ndarray] = field(repr=False)


def mlp_forward(
    params: MlpParams, x: np.ndarray, out: list[np.ndarray | None] | None = None
) -> tuple[np.ndarray, Tape]:
    """Forward pass; returns (output, tape) where the tape suffices for backward.

    Layer k's product ``h @ W.T`` goes into ``out[k]`` when ``out`` is given
    and that entry is not None, else into a new array; the bias and the ReLU
    are then applied in place, and a sigmoid layer returns a new array. So the
    tape holds the given arrays, whose contents the next pass through them
    overwrites. The arithmetic, and so every bit, is the same either way.
    """
    h = np.asarray(x, dtype=np.float64)
    if h.ndim != 2:
        raise ShapeError(f"expected a batch of vectors (ndim=2), got ndim={h.ndim}")
    if h.shape[1] != params.in_dim:
        raise ShapeError(f"input dim {h.shape[1]} != first-layer in-dim {params.in_dim}")
    if out is not None and len(out) != len(params.weights):
        raise ShapeError(f"{len(out)} output arrays for {len(params.weights)} layers")
    outputs = [h]
    for k, (w, b, act) in enumerate(zip(params.weights, params.biases, params.activations)):
        h = np.matmul(h, w.T, out=None if out is None else out[k])
        h += b
        if act == RELU:
            np.maximum(h, 0.0, out=h)
        elif act == SIGMOID:
            h = sigmoid(h)
        outputs.append(h)
    return h, Tape(params, outputs)


def mlp_backward(
    params: MlpParams,
    tape: Tape,
    upstream: np.ndarray,
    out: Gradients | None = None,
    input_grad: bool = True,
) -> tuple[Gradients, np.ndarray | None]:
    """Exact reverse-mode gradients of ``sum(output * upstream)``.

    Returns (parameter gradients, gradient w.r.t. the forward input). The
    parameter gradients are written into ``out`` when it is given. With
    ``input_grad=False`` the input gradient is not computed and is None.
    """
    if tape.params is not params:
        raise ContractError("tape was produced by a different parameter set")
    d = np.asarray(upstream, dtype=np.float64)
    if d.shape != (tape.outputs[0].shape[0], params.out_dim):
        raise ShapeError(f"upstream shape {d.shape} does not match network output")
    if out is None:
        out = Gradients(
            [np.empty_like(w) for w in params.weights], [np.empty_like(b) for b in params.biases]
        )
    for k in reversed(range(len(params.weights))):
        h = tape.outputs[k + 1]
        act = params.activations[k]
        if act == RELU:
            dz = d * (h > 0)
        elif act == SIGMOID:
            dz = d * h * (1.0 - h)
        else:
            dz = d
        np.matmul(dz.T, tape.outputs[k], out=out.d_weights[k])
        np.sum(dz, axis=0, out=out.d_biases[k])
        if k == 0 and not input_grad:
            return out, None
        w = params.weights[k]
        # one output unit: the product has a single term, so broadcasting is exact
        d = dz * w if w.shape[0] == 1 else dz @ w
    return out, d


def softmax(logits: np.ndarray) -> np.ndarray:
    """Stable softmax along the last axis (max-subtraction)."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.shape[-1] == 0:
        raise ShapeError("softmax of an empty logit vector")
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


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


# ---------------------------------------------------------------------------
# Flat parameter vectors: several named nets whose tensors are views of one
# contiguous float64 vector, laid out net by net, layer by layer, weight
# before bias. One optimizer step then updates every tensor at once.
# ---------------------------------------------------------------------------


def _slots(shapes: dict[str, list[tuple[int, int]]]):
    """(net name, layer, "weight"/"bias", shape, start, stop) of each tensor, in vector order."""
    start = 0
    for name, layers in shapes.items():
        for k, (out, inp) in enumerate(layers):
            for kind, shape, size in (("weight", (out, inp), out * inp), ("bias", (out,), out)):
                yield name, k, kind, shape, start, start + size
                start += size


def flatten(nets: dict[str, MlpParams]) -> np.ndarray:
    """A new vector holding a copy of every tensor of ``nets``, in vector order."""
    return np.concatenate(
        [t.ravel() for net in nets.values() for wb in zip(net.weights, net.biases) for t in wb]
    )


def shaped_views(
    vector: np.ndarray, shapes: dict[str, list[tuple[int, int]]]
) -> dict[str, tuple[list[np.ndarray], list[np.ndarray]]]:
    """(weights, biases) views of ``vector`` per net, whose layers have the weight
    shapes ``shapes[net]``; the shapes and the vector's length are checked before
    any view is made, so shapes read from a file cannot overrun the vector."""
    if not all(type(n) is int and n >= 0 for layers in shapes.values() for s in layers for n in s):
        raise ShapeError("layer widths must be non-negative integers")
    size = sum(out * (inp + 1) for layers in shapes.values() for out, inp in layers)
    if vector.shape != (size,):
        raise ShapeError(f"a vector of shape {vector.shape} does not match {size} parameters")
    views: dict[str, tuple[list, list]] = {name: ([], []) for name in shapes}
    for name, _, kind, shape, start, stop in _slots(shapes):
        weights, biases = views[name]
        (weights if kind == "weight" else biases).append(vector[start:stop].reshape(shape))
    return views


def tensor_views(
    vector: np.ndarray, nets: dict[str, MlpParams]
) -> dict[str, tuple[list[np.ndarray], list[np.ndarray]]]:
    """(weights, biases) views of ``vector`` per net, shaped like the tensors of ``nets``."""
    return shaped_views(vector, {n: [w.shape for w in net.weights] for n, net in nets.items()})


def locate(nets: dict[str, MlpParams], index: int) -> str:
    """Names the tensor of ``nets`` that holds entry ``index`` of their vector."""
    slots = _slots({n: [w.shape for w in net.weights] for n, net in nets.items()})
    return next(f"{n} layer {k} {kind}" for n, k, kind, _, _, stop in slots if index < stop)


@dataclass
class OptimizerState:
    """SGD state for one flat parameter vector: Nesterov velocity plus the schedule.

    The learning rate at epoch e is ``base_lr * decay_factor ** k`` where k
    counts the entries of ``decay_epochs`` with value <= e.
    """

    velocity: np.ndarray
    base_lr: float
    momentum: float
    weight_decay: float
    decay_epochs: list[int]
    decay_factor: float


def init_optimizer(
    params: np.ndarray,
    base_lr: float,
    momentum: float = 0.9,
    weight_decay: float = 0.0,
    decay_epochs: list[int] | None = None,
    decay_factor: float = 0.2,
) -> OptimizerState:
    return OptimizerState(
        np.zeros_like(params), float(base_lr), float(momentum), float(weight_decay),
        sorted(decay_epochs or []), float(decay_factor),
    )


def current_lr(state: OptimizerState, epoch: int) -> float:
    passed = sum(1 for e in state.decay_epochs if epoch >= e)
    return state.base_lr * state.decay_factor**passed


def sgd_step(
    params: np.ndarray, grads: np.ndarray, state: OptimizerState, epoch: int,
    decayed: int | None = None, layout: dict[str, MlpParams] | None = None,
) -> None:
    """One in-place Nesterov update of a flat vector: v <- mu*v - lr*g; p <- p + mu*v - lr*g.

    Weight decay is added to the gradient (g <- g + wd*p) on the first
    ``decayed`` entries only (all of them when None). ``layout`` (nets whose
    tensors are views of ``params``) is read only to name the tensor of a
    non-finite gradient. With zero velocity history, lr=0 or zero gradients
    and zero decay leave the parameters unchanged.
    """
    if grads.shape != params.shape:
        raise ShapeError(f"gradient shape {grads.shape} != parameter shape {params.shape}")
    finite = np.isfinite(grads)
    if not finite.all():
        index = int(np.argmin(finite))
        where = locate(layout, index) if layout else f"entry {index}"
        raise NumericError(f"non-finite gradient in {where}")
    wd = state.weight_decay
    update = grads.copy()
    if wd != 0.0:
        update[:decayed] += wd * params[:decayed]
    update *= current_lr(state, epoch)
    v = state.velocity
    v *= state.momentum
    v -= update
    params += state.momentum * v
    params -= update
