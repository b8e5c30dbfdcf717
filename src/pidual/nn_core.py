"""Minimal dense-network engine with exact reverse-mode gradients.

Supports the fixed MLP topology family used by the three sub-networks:
stacks of affine layers with ReLU hiddens and an identity or sigmoid output.
Everything is float64 and deterministic. Inputs are batches, one sample per
row of a 2-D array; a single sample is a batch of one row, ``x[None]``.

One type holds a network's pass: an ``MlpWorkspace``, the tape of its latest
pass and the arrays its passes reuse; ``mlp_forward`` returns a new one.

Gradient convention: ``mlp_backward`` returns the gradient of
``sum(output * upstream)``, so a mean-over-batch loss is obtained by passing
per-sample upstream gradients already divided by the batch size.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, ShapeError

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
    denominator = 1.0 + e
    return np.where(x >= 0, 1.0 / denominator, e / denominator)


def mlp_forward(params: MlpParams, x: np.ndarray) -> tuple[np.ndarray, MlpWorkspace]:
    """Checked forward pass on new arrays; returns (output, tape), where the
    tape is a new ``MlpWorkspace`` for the batch's rows and suffices for
    backward."""
    h = np.asarray(x, dtype=np.float64)
    if h.ndim != 2:
        raise ShapeError(f"expected a batch of vectors (ndim=2), got ndim={h.ndim}")
    if h.shape[1] != params.in_dim:
        raise ShapeError(f"input dim {h.shape[1]} != first-layer in-dim {params.in_dim}")
    tape = MlpWorkspace(params, h.shape[0])
    return tape.forward(h), tape


def mlp_backward(
    params: MlpParams,
    tape: MlpWorkspace,
    upstream: np.ndarray,
    out: Gradients | None = None,
    input_grad: bool = True,
) -> tuple[Gradients, np.ndarray | None]:
    """Exact reverse-mode gradients of ``sum(output * upstream)`` through ``tape``'s pass.

    Returns (parameter gradients, gradient w.r.t. the forward input). The
    parameter gradients are written into ``out`` when it is given. With
    ``input_grad=False`` the input gradient is not computed and is None.
    Neither the tape nor ``upstream`` is changed.
    """
    if tape.params is not params:
        raise ContractError("tape was produced by a different parameter set")
    if tape.outputs[0] is None:
        raise ContractError("no forward pass has run through this workspace")
    d = np.array(upstream, dtype=np.float64)  # a copy: the layer loop works in it
    if d.shape != (tape.outputs[0].shape[0], params.out_dim):
        raise ShapeError(f"upstream shape {d.shape} does not match network output")
    if out is None:
        out = Gradients(
            [np.empty_like(w) for w in params.weights], [np.empty_like(b) for b in params.biases]
        )
    masks = [np.empty(h.shape, dtype=bool) for h in tape.outputs[1:]]
    deltas = [np.empty(h.shape) for h in tape.outputs[:-1]]
    return out, _backward_layers(params, tape.outputs, d, out, masks, deltas, input_grad)


class MlpWorkspace:
    """The tape of the latest pass through one MLP, and the arrays its passes
    reuse: room for up to ``rows`` rows, of which a batch of m rows uses the
    first m. Each array is made by the first pass that writes it, so a
    network that never runs holds only its transposed-weight views.

    ``outputs[0]`` is the latest pass's input batch and ``outputs[k + 1]``
    layer k's activated output; backward needs nothing else, because the ReLU
    mask and the sigmoid derivative are both functions of the output.
    ``forward`` and ``backward`` check nothing: ``mlp_forward`` and the
    model's passes check the batch at entry.
    """

    __slots__ = ("params", "rows", "weights_t", "outputs", "buffers", "masks", "deltas")

    def __init__(self, params: MlpParams, rows: int) -> None:
        self.params, self.rows = params, rows
        self.weights_t = [w.T for w in params.weights]
        self.outputs = [None] * (len(params.weights) + 1)
        self.buffers = self.masks = self.deltas = None

    def forward(self, h: np.ndarray) -> np.ndarray:
        """Layer k's product goes into ``buffers[k]``, where the bias and the
        ReLU are applied in place; a sigmoid layer makes a new array."""
        if self.buffers is None:
            self.buffers = [np.empty((self.rows, w.shape[0])) for w in self.params.weights]
        m, params, outputs = h.shape[0], self.params, self.outputs
        outputs[0] = h
        for k, (wt, b, act, buf) in enumerate(
            zip(self.weights_t, params.biases, params.activations, self.buffers)
        ):
            h = np.matmul(h, wt, out=buf[:m])
            h += b
            if act == RELU:
                np.maximum(h, 0.0, out=h)
            elif act == SIGMOID:
                h = sigmoid(h)
            outputs[k + 1] = h
        return h

    def backward(
        self, d: np.ndarray, grads: Gradients, input_grad: bool = True
    ) -> np.ndarray | None:
        """Gradients of ``sum(output * d)`` through the latest pass into
        ``grads``; ``d``, which this overwrites, has that pass's rows. The
        first backward pass makes a bool ReLU mask per layer and the first
        layer's input-gradient array; the other layers write their input
        gradients over the hidden outputs, so a pass is backpropagated once."""
        if self.deltas is None:
            self.masks = [
                np.empty(b.shape, dtype=bool) if act == RELU else None
                for b, act in zip(self.buffers, self.params.activations)
            ]
            self.deltas = [np.empty((self.rows, self.params.in_dim)), *self.buffers[:-1]]
        return _backward_layers(
            self.params, self.outputs, d, grads, self.masks, self.deltas, input_grad
        )


def _backward_layers(params, outputs, d, grads, masks, deltas, input_grad):
    """The layer loop of ``mlp_backward`` and ``MlpWorkspace.backward``:
    backpropagates ``d`` through the pass ``outputs`` into ``grads``, and
    checks nothing. A batch of m rows uses the first m rows of each array.

    Works in place: ``d`` becomes the top layer's pre-activation gradient,
    layer k's ReLU mask goes into ``masks[k]`` and its input gradient into
    ``deltas[k]``. ``deltas[k]`` may be the array that holds ``outputs[k]``,
    whose values are spent once layer k's weight gradient and layer k - 1's
    mask are taken; the mask is taken first.
    """
    m = d.shape[0]
    acts = params.activations
    top = len(acts) - 1
    if acts[top] == RELU:
        np.greater(outputs[top + 1], 0.0, out=masks[top][:m])
    for k in range(top, -1, -1):
        act = acts[k]
        if act == RELU:
            np.multiply(d, masks[k][:m], out=d)
        elif act == SIGMOID:
            h = outputs[k + 1]
            np.multiply(d, h, out=d)
            np.multiply(d, 1.0 - h, out=d)
        np.matmul(d.T, outputs[k], out=grads.d_weights[k])
        np.add.reduce(d, axis=0, out=grads.d_biases[k])
        if k == 0 and not input_grad:
            return None
        if k > 0 and acts[k - 1] == RELU:
            np.greater(outputs[k], 0.0, out=masks[k - 1][:m])
        w = params.weights[k]
        # one output unit: the product has a single term, so broadcasting is exact
        d = (np.multiply if w.shape[0] == 1 else np.matmul)(d, w, out=deltas[k][:m])
    return d


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
    return _softmax_ce(logits, labels)


def _softmax_ce(logits: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # the reductions of logits.max and .sum, called without their wrappers
    shifted = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    log_z = np.log(np.add.reduce(np.exp(shifted), axis=1))
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


def locate(shapes: dict[str, list[tuple[int, int]]], index: int) -> str:
    """Names the tensor holding entry ``index`` of a vector laid out as ``shapes``."""
    slots = _slots(shapes)
    return next(f"{n} layer {k} {kind}" for n, k, kind, _, _, stop in slots if index < stop)


@dataclass
class OptimizerState:
    """SGD state for one flat parameter vector: Nesterov velocity plus the schedule.

    The learning rate at epoch e is ``base_lr * decay_factor ** k`` where k
    counts the entries of ``decay_epochs`` with value <= e. ``scratch``, a
    vector like the velocity, holds a step's intermediate products.
    """

    velocity: np.ndarray
    base_lr: float
    momentum: float
    weight_decay: float
    decay_epochs: list[int]
    decay_factor: float
    scratch: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.scratch = np.empty_like(self.velocity)


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
    decayed: int | None = None,
) -> None:
    """One in-place Nesterov update of a flat vector: v <- mu*v - lr*g; p <- p + mu*v - lr*g.

    Weight decay is added to the gradient (g <- g + wd*p) on the first
    ``decayed`` entries only (all of them when None). The update ``lr*g`` is
    computed in ``grads``, which this overwrites, and is not checked for
    non-finite entries (``training.train`` finds them in the parameters). With
    zero velocity history, lr=0 or zero gradients and zero decay leave the
    parameters unchanged.
    """
    if grads.shape != params.shape:
        raise ShapeError(f"gradient shape {grads.shape} != parameter shape {params.shape}")
    update, scratch = grads, state.scratch
    if state.weight_decay != 0.0:
        decay = np.multiply(params[:decayed], state.weight_decay, out=scratch[:decayed])
        update[:decayed] += decay
    update *= current_lr(state, epoch)
    v = state.velocity
    v *= state.momentum
    v -= update
    params += np.multiply(v, state.momentum, out=scratch)
    params -= update
