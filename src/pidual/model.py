"""Gated dual-network architecture.

Training-time output combines a prediction network on the regular features
with a noise network on the privileged information (PI), blended per sample
by a sigmoid gate that also reads the PI:

    combined = (1 - gate) * prediction_logits + gate * noise_logits

The noise network is a three-layer ReLU MLP; the gating network shares the
noise network's first layer (the "pi trunk") by default and adds two more
layers ending in a sigmoid. Inference uses the prediction network alone, so
test-time outputs are provably independent of PI and of the noise/gate
parameters.

Ablation switches: ``use_gate=False`` drops the gate and adds the logits;
``use_noise_net=False`` zeroes the noise logits so only the gate can damp a
sample's loss; ``gate_space="probability"`` mixes softmax outputs instead of
logits (the loss becomes -log of the mixed probability); and
``noise_input="pi_and_x"`` feeds the concatenation [pi, features] to the
noise path, in which case the shared trunk (and therefore the gate) sees the
features too.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import nn_core
from .errors import ContractError, DataFormatError, ShapeError
from .nn_core import (
    IDENTITY,
    RELU,
    SIGMOID,
    Gradients,
    MlpParams,
    Tape,
    init_mlp,
    mlp_backward,
    mlp_forward,
    softmax,
)
from .seeding import derive_seed

GATE_SPACE_LOGIT = "logit"
GATE_SPACE_PROBABILITY = "probability"
NOISE_INPUT_PI = "pi_only"
NOISE_INPUT_PI_AND_X = "pi_and_x"


@dataclass
class AblationFlags:
    use_gate: bool = True
    use_noise_net: bool = True
    gate_space: str = GATE_SPACE_LOGIT
    noise_input: str = NOISE_INPUT_PI

    def __post_init__(self) -> None:
        if self.gate_space not in (GATE_SPACE_LOGIT, GATE_SPACE_PROBABILITY):
            raise ContractError(f"unknown gate space {self.gate_space!r}")
        if self.noise_input not in (NOISE_INPUT_PI, NOISE_INPUT_PI_AND_X):
            raise ContractError(f"unknown noise input {self.noise_input!r}")


def ce_baseline_flags() -> AblationFlags:
    """Plain cross-entropy on the prediction network: no gate, no noise path."""
    return AblationFlags(use_gate=False, use_noise_net=False)


# The component roster: every per-component mapping (parameters, gradients,
# checkpoint entries) is keyed by these names, and the flat parameter vector
# is laid out in this order. ``gate_trunk`` exists only when the gate has its
# own first layer. Everything after ``prediction`` reads the PI and can be
# exempt from weight decay, so the decayed parameters are one prefix of the
# vector.
COMPONENTS = ("prediction", "pi_trunk", "noise_head", "gate_head", "gate_trunk")


@dataclass
class PiDualModel:
    """Parameter bundle for the three sub-networks.

    The noise network is ``noise_head`` stacked on ``pi_trunk``; the gate is
    ``gate_head`` stacked on the shared ``pi_trunk`` (or on its own
    ``gate_trunk`` when ``share_first_layer`` is off). The fields up to
    ``gate_trunk`` are the components, in ``COMPONENTS`` order.

    All parameters live in ``params``, one contiguous vector in roster order
    (see ``nn_core.flatten``); every component tensor is a view of it, so one
    optimizer step on ``params`` updates every component. Construction and
    assigning a component copy the given tensors into a fresh vector.
    A pickle holds the vector and only the layer shapes of the components;
    unpickling (and so ``copy.deepcopy``) rebinds the components to the
    restored vector. ``copy()`` is the cheap way to an independent model.
    """

    prediction: MlpParams
    pi_trunk: MlpParams
    noise_head: MlpParams
    gate_head: MlpParams
    gate_trunk: MlpParams | None
    flags: AblationFlags
    share_first_layer: bool = True
    feature_dim: int = 0
    pi_dim: int = 0
    num_classes: int = 0
    params: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._bind(nn_core.flatten(self.components()))

    def __setattr__(self, name: str, value) -> None:
        super().__setattr__(name, value)
        if name in COMPONENTS and "params" in self.__dict__:
            self.__post_init__()

    def __getstate__(self) -> dict:
        # the component tensors are views of ``params``: pickle their shapes only
        state = dict(self.__dict__)
        for name, net in self.components().items():
            state[name] = ([w.shape for w in net.weights], list(net.activations))
        return state

    def __setstate__(self, state: dict) -> None:
        for name in COMPONENTS:
            if state[name] is not None:
                # zero-stride stand-ins that carry the shapes until _bind makes the views
                shapes, activations = state[name]
                state[name] = MlpParams(
                    [np.broadcast_to(0.0, shape) for shape in shapes],
                    [np.broadcast_to(0.0, shape[:1]) for shape in shapes],
                    activations,
                )
        self.__dict__.update(state)
        self._bind(self.params)

    def _bind(self, params: np.ndarray) -> None:
        """Make ``params`` the vector and rebind every component to views of it."""
        nets = self.components()
        for name, (weights, biases) in nn_core.tensor_views(params, nets).items():
            net = MlpParams(weights, biases, list(nets[name].activations))
            object.__setattr__(self, name, net)
        object.__setattr__(self, "params", params)

    def copy(self) -> "PiDualModel":
        """An independent model: a copy of the vector with components viewing it."""
        return replace(self, flags=replace(self.flags))

    def components(self) -> dict[str, MlpParams]:
        """The present components by roster name, in roster order."""
        nets = {name: getattr(self, name) for name in COMPONENTS}
        return {name: net for name, net in nets.items() if net is not None}


@dataclass
class GradientBuffer:
    """A gradient vector laid out like a model's ``params`` and, per component,
    ``Gradients`` views of it: build it once with ``gradient_buffer`` and let
    every ``backward_train`` of that model write into it."""

    vector: np.ndarray
    grads: dict[str, Gradients]


def gradient_buffer(model: PiDualModel) -> GradientBuffer:
    vector = np.empty_like(model.params)
    views = nn_core.tensor_views(vector, model.components())
    return GradientBuffer(vector, {name: Gradients(*v) for name, v in views.items()})


def build_model(
    feature_dim: int,
    pi_dim: int,
    num_classes: int,
    flags: AblationFlags | None = None,
    pred_hidden: tuple[int, ...] = (64, 64),
    pi_width: int = 64,
    share_first_layer: bool = True,
    seed: int = 0,
) -> PiDualModel:
    flags = flags or AblationFlags()
    noise_in = pi_dim + (feature_dim if flags.noise_input == NOISE_INPUT_PI_AND_X else 0)
    shapes = (  # (layer sizes, activations) per component, in roster order
        ([feature_dim, *pred_hidden, num_classes], [RELU] * len(pred_hidden) + [IDENTITY]),
        ([noise_in, pi_width], [RELU]),
        ([pi_width, pi_width, num_classes], [RELU, IDENTITY]),
        ([pi_width, pi_width, 1], [RELU, SIGMOID]),
        None if share_first_layer else ([noise_in, pi_width], [RELU]),
    )
    nets = {
        name: None if shape is None else init_mlp(*shape, derive_seed(seed, name))
        for name, shape in zip(COMPONENTS, shapes)
    }
    return PiDualModel(
        **nets,
        flags=flags,
        share_first_layer=share_first_layer,
        feature_dim=feature_dim,
        pi_dim=pi_dim,
        num_classes=num_classes,
    )


@dataclass
class ModelConfig:
    """Architecture knobs decoupled from any concrete dataset dimensions."""

    pred_hidden: tuple[int, ...] = (64, 64)
    pi_width: int = 64
    share_first_layer: bool = True
    flags: AblationFlags = field(default_factory=AblationFlags)

    def build(self, feature_dim: int, pi_dim: int, num_classes: int, seed: int) -> "PiDualModel":
        return build_model(
            feature_dim,
            pi_dim,
            num_classes,
            flags=self.flags,
            pred_hidden=tuple(self.pred_hidden),
            pi_width=self.pi_width,
            share_first_layer=self.share_first_layer,
            seed=seed,
        )


@dataclass
class ModelTape:
    """Everything ``backward_train`` needs from one training forward pass."""

    model: PiDualModel = field(repr=False)
    batch_size: int = 0
    # one tape per component that ran, keyed by roster name
    tapes: dict[str, Tape] = field(default_factory=dict, repr=False)
    pred_logits: np.ndarray | None = field(default=None, repr=False)
    noise_logits: np.ndarray | None = field(default=None, repr=False)
    gate: np.ndarray | None = field(default=None, repr=False)
    pred_probs: np.ndarray | None = field(default=None, repr=False)
    noise_probs: np.ndarray | None = field(default=None, repr=False)
    mixed: np.ndarray | None = field(default=None, repr=False)
    # the labels training_loss scored and the softmax-CE gradient it computed
    ce_labels: np.ndarray | None = field(default=None, repr=False)
    ce_grad: np.ndarray | None = field(default=None, repr=False)


def _as_batch(v: np.ndarray) -> np.ndarray:
    return np.atleast_2d(np.asarray(v, dtype=np.float64))


def _forward_pi_side(model: PiDualModel, x: np.ndarray, a: np.ndarray) -> ModelTape:
    """Noise and gate paths of the training forward pass, on a fresh tape.

    The only code that wires the PI side: trunk sharing, the ``pi_and_x``
    input and the ablation zeros. ``forward_train`` adds the prediction
    network and the mix; ``noise_logits`` and ``gate_values`` read it alone.
    """
    x, a = _as_batch(x), _as_batch(a)
    if x.shape[0] != a.shape[0]:
        raise ShapeError("feature and PI batches must have the same length")
    flags = model.flags
    tape = ModelTape(model=model, batch_size=x.shape[0])
    pi_in = np.hstack([a, x]) if flags.noise_input == NOISE_INPUT_PI_AND_X else a

    trunk_out = None
    if flags.use_noise_net or (flags.use_gate and model.share_first_layer):
        trunk_out, tape.tapes["pi_trunk"] = mlp_forward(model.pi_trunk, pi_in)

    if flags.use_noise_net:
        tape.noise_logits, tape.tapes["noise_head"] = mlp_forward(model.noise_head, trunk_out)
    else:
        tape.noise_logits = np.zeros((x.shape[0], model.num_classes))

    if flags.use_gate:
        gate_in = trunk_out
        if not model.share_first_layer:
            gate_in, tape.tapes["gate_trunk"] = mlp_forward(model.gate_trunk, pi_in)
        gate_col, tape.tapes["gate_head"] = mlp_forward(model.gate_head, gate_in)
        tape.gate = gate_col[:, 0]
    return tape


def forward_train(
    model: PiDualModel, x: np.ndarray, a: np.ndarray
) -> tuple[np.ndarray, np.ndarray | None, ModelTape]:
    """Training-time forward pass on a batch.

    Returns (combined, gate, tape). ``combined`` holds logits, except in the
    probability-space variant where it holds the mixed class probabilities.
    ``gate`` is None when the gating network is ablated. The tape also keeps
    the raw prediction and noise logits.
    """
    tape = _forward_pi_side(model, x, a)
    tape.pred_logits, tape.tapes["prediction"] = mlp_forward(model.prediction, _as_batch(x))
    flags = model.flags
    f, eps, g = tape.pred_logits, tape.noise_logits, tape.gate

    if not flags.use_gate:
        combined = f + eps
    elif flags.gate_space == GATE_SPACE_LOGIT:
        combined = (1.0 - g)[:, None] * f + g[:, None] * eps
    else:
        tape.pred_probs = softmax(f)
        tape.noise_probs = softmax(eps)
        combined = (1.0 - g)[:, None] * tape.pred_probs + g[:, None] * tape.noise_probs
    tape.mixed = combined
    return combined, g, tape


def training_loss(tape: ModelTape, labels: np.ndarray) -> float:
    """Mean cross-entropy of the combined output against the noisy labels.

    Keeps the loss's gradient on the tape, for ``backward_train`` on the same
    labels.
    """
    labels = np.asarray(labels)
    if tape.model.flags.use_gate and tape.model.flags.gate_space == GATE_SPACE_PROBABILITY:
        rows = np.arange(labels.shape[0])
        return float(-np.log(tape.mixed[rows, labels]).mean())
    losses, tape.ce_grad = nn_core.softmax_ce_batch(tape.mixed, labels)
    tape.ce_labels = labels.copy()
    return float(losses.mean())


def _ce_grad(tape: ModelTape, labels: np.ndarray) -> np.ndarray:
    """The softmax-CE gradient of the mixed logits: training_loss's, if it scored these labels."""
    if tape.ce_labels is not None and np.array_equal(tape.ce_labels, labels):
        return tape.ce_grad
    return nn_core.softmax_ce_batch(tape.mixed, labels)[1]


def backward_train(
    model: PiDualModel, tape: ModelTape, labels: np.ndarray, out: GradientBuffer | None = None
) -> dict[str, Gradients]:
    """Exact gradients of the mean combined-output cross-entropy.

    Includes the gate path d/dg[(1-g)f + g*eps] = eps - f, and accumulates
    the shared first layer's gradient from both the noise and gate paths.
    Returns one buffer per component, keyed like ``model.components()``;
    components on an ablated path get zero gradients. The buffers are the
    views of ``out`` (see ``gradient_buffer``) when it is given, else of a
    new gradient vector.
    """
    if tape.model is not model:
        raise ContractError("tape was produced by a different model")
    labels = np.asarray(labels)
    b = tape.batch_size
    if labels.shape != (b,):
        raise ShapeError("one label per batch row required")
    flags = model.flags
    f, eps, g = tape.pred_logits, tape.noise_logits, tape.gate
    rows = np.arange(b)

    if not flags.use_gate:
        u = _ce_grad(tape, labels) / b
        d_pred, d_noise_out, d_gate_out = u, u, None
    elif flags.gate_space == GATE_SPACE_LOGIT:
        u = _ce_grad(tape, labels) / b
        d_pred = (1.0 - g)[:, None] * u
        d_noise_out = g[:, None] * u
        d_gate_out = ((eps - f) * u).sum(axis=1)
    else:
        p_f, p_e = tape.pred_probs, tape.noise_probs
        coef = -1.0 / (b * tape.mixed[rows, labels])  # dL/d(mixed prob of the label)
        dpf = np.zeros_like(p_f)
        dpf[rows, labels] = (1.0 - g) * coef
        d_pred = p_f * (dpf - (p_f * dpf).sum(axis=1, keepdims=True))
        dpe = np.zeros_like(p_e)
        dpe[rows, labels] = g * coef
        d_noise_out = p_e * (dpe - (p_e * dpe).sum(axis=1, keepdims=True))
        d_gate_out = coef * (p_e[rows, labels] - p_f[rows, labels])

    nets, tapes = model.components(), tape.tapes
    if out is None:
        out = gradient_buffer(model)
    elif out.grads.keys() != nets.keys() or out.vector.shape != model.params.shape:
        raise ContractError("gradient buffer was built for a different model")
    grads = out.grads
    if tapes.keys() != grads.keys():
        out.vector.fill(0.0)  # ablated components keep these zeros; the rest is overwritten below

    def backprop(name: str, upstream: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        return mlp_backward(nets[name], tapes[name], upstream, grads[name], input_grad)[1]

    # the first layers of prediction, pi_trunk and gate_trunk read data: no input gradient
    backprop("prediction", d_pred, input_grad=False)
    d_trunk_out = np.zeros((b, model.pi_trunk.out_dim))
    if "noise_head" in tapes:
        d_trunk_out += backprop("noise_head", d_noise_out)
    if "gate_head" in tapes:
        d_gate_in = backprop("gate_head", d_gate_out[:, None])
        if model.share_first_layer:
            d_trunk_out += d_gate_in
        else:
            backprop("gate_trunk", d_gate_in, input_grad=False)
    if "pi_trunk" in tapes:
        backprop("pi_trunk", d_trunk_out, input_grad=False)
    return grads


def prediction_logits(model: PiDualModel, x: np.ndarray) -> np.ndarray:
    logits, _ = mlp_forward(model.prediction, np.asarray(x, dtype=np.float64))
    return logits


def forward_infer(model: PiDualModel, x: np.ndarray) -> np.ndarray:
    """Class probabilities from the prediction network alone (no PI)."""
    return softmax(prediction_logits(model, x))


def noise_logits(model: PiDualModel, x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Raw (un-gated) noise-network logits; zeros when that path is ablated."""
    return _forward_pi_side(model, x, a).noise_logits


def gate_values(model: PiDualModel, x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Per-sample gate outputs in (0, 1)."""
    if not model.flags.use_gate:
        raise ContractError("this model variant has no gating network")
    return _forward_pi_side(model, x, a).gate


# ---------------------------------------------------------------------------
# Checkpoints: one JSON document holding every tensor with its shape implied
# by nested lists, plus the ablation flags. Floats are written with repr so
# the round trip is lossless at 64-bit precision.
# ---------------------------------------------------------------------------

_CHECKPOINT_FORMAT = "pidual-checkpoint-v1"


def _net_to_json(net: MlpParams | None) -> list[dict] | None:
    if net is None:
        return None
    return [
        {"weight": w.tolist(), "bias": b.tolist(), "activation": act}
        for w, b, act in zip(net.weights, net.biases, net.activations)
    ]


def _net_from_json(layers: list[dict] | None) -> MlpParams | None:
    if layers is None:
        return None
    return MlpParams(
        [np.asarray(l["weight"], dtype=np.float64) for l in layers],
        [np.asarray(l["bias"], dtype=np.float64) for l in layers],
        [l["activation"] for l in layers],
    )


def save_checkpoint(model: PiDualModel, path: str | Path) -> None:
    doc = {
        "format": _CHECKPOINT_FORMAT,
        "feature_dim": model.feature_dim,
        "pi_dim": model.pi_dim,
        "num_classes": model.num_classes,
        "share_first_layer": model.share_first_layer,
        "flags": asdict(model.flags),
        **{name: _net_to_json(getattr(model, name)) for name in COMPONENTS},
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")


def load_checkpoint(path: str | Path) -> PiDualModel:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise DataFormatError(f"cannot read checkpoint {path}: {exc}") from exc
    if doc.get("format") != _CHECKPOINT_FORMAT:
        raise DataFormatError(f"{path}: not a {_CHECKPOINT_FORMAT} file")
    try:
        return PiDualModel(
            **{name: _net_from_json(doc[name]) for name in COMPONENTS},
            flags=AblationFlags(**doc["flags"]),
            share_first_layer=doc["share_first_layer"],
            feature_dim=doc["feature_dim"],
            pi_dim=doc["pi_dim"],
            num_classes=doc["num_classes"],
        )
    except KeyError as exc:
        raise DataFormatError(f"{path}: checkpoint has no {exc.args[0]!r} entry") from exc
