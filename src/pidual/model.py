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

import base64
import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import nn_core
from .errors import ContractError, DataFormatError, PiDualError, ShapeError
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
GATE_SPACES = (GATE_SPACE_LOGIT, GATE_SPACE_PROBABILITY)
NOISE_INPUTS = (NOISE_INPUT_PI, NOISE_INPUT_PI_AND_X)


@dataclass
class AblationFlags:
    use_gate: bool = True
    use_noise_net: bool = True
    gate_space: str = GATE_SPACE_LOGIT
    noise_input: str = NOISE_INPUT_PI

    def __post_init__(self) -> None:
        if type(self.use_gate) is not bool or type(self.use_noise_net) is not bool:
            raise ContractError("use_gate and use_noise_net must be booleans")
        if self.gate_space not in GATE_SPACES:
            raise ContractError(f"unknown gate space {self.gate_space!r}")
        if self.noise_input not in NOISE_INPUTS:
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
    optimizer step on ``params`` updates every component. Construction checks
    that each component reads and emits the widths its place needs, then
    copies the given tensors into a fresh vector. The components are fixed at
    construction, since an assigned one would not view the vector: a model
    with another component is a new one, ``dataclasses.replace(model,
    prediction=...)``, which runs the same checks and packs its own vector.
    A pickle, like a checkpoint, holds the layout (``_layout``) and the
    vector; unpickling (and so ``copy.deepcopy``) rebuilds the model with
    ``_restore``. ``copy()`` is the cheap way to an independent model.
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
        self._check_widths()
        nets = self.components()
        params = nn_core.flatten(nets)
        for name, (weights, biases) in nn_core.tensor_views(params, nets).items():
            setattr(self, name, MlpParams(weights, biases, list(nets[name].activations)))
        self.params = params

    def __reduce__(self):
        scalars = {key: getattr(self, key) for key in _SCALARS}
        return _restore, (_layout(self), self.params, self.flags, scalars)

    def _check_widths(self) -> None:
        """Each component reads and emits the widths its place in the model needs."""
        needed = COMPONENTS[:-1] if self.share_first_layer else COMPONENTS  # gate_trunk is last
        if self.components().keys() != set(needed):
            raise ShapeError(f"share_first_layer={self.share_first_layer} needs {needed}")
        pi_in = self.pi_dim + self.feature_dim * (self.flags.noise_input == NOISE_INPUT_PI_AND_X)
        trunk = self.pi_trunk.out_dim
        gate_in = trunk if self.share_first_layer else self.gate_trunk.out_dim
        wanted = {  # (input, output) widths; the trunks' output widths are free
            "prediction": (self.feature_dim, self.num_classes),
            "pi_trunk": (pi_in, trunk),
            "noise_head": (trunk, self.num_classes),
            "gate_head": (gate_in, 1),
            "gate_trunk": (pi_in, gate_in),
        }
        for name, net in self.components().items():
            if (net.in_dim, net.out_dim) != wanted[name]:
                expected = "%d to %d" % wanted[name]
                raise ShapeError(f"{name} maps {net.in_dim} to {net.out_dim}, not {expected}")

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


@dataclass
class ModelConfig:
    """Architecture knobs decoupled from any concrete dataset dimensions."""

    pred_hidden: tuple[int, ...] = (64, 64)
    pi_width: int = 64
    share_first_layer: bool = True
    flags: AblationFlags = field(default_factory=AblationFlags)

    def shapes(self, feature_dim: int, pi_dim: int, num_classes: int) -> dict[str, tuple | None]:
        """(layer sizes, activations) per roster component, None for an absent one."""
        hidden, width = tuple(self.pred_hidden), self.pi_width
        noise_in = pi_dim + feature_dim * (self.flags.noise_input == NOISE_INPUT_PI_AND_X)
        shapes = (
            ([feature_dim, *hidden, num_classes], [RELU] * len(hidden) + [IDENTITY]),
            ([noise_in, width], [RELU]),
            ([width, width, num_classes], [RELU, IDENTITY]),
            ([width, width, 1], [RELU, SIGMOID]),
            None if self.share_first_layer else ([noise_in, width], [RELU]),
        )
        return dict(zip(COMPONENTS, shapes))

    def build(self, feature_dim: int, pi_dim: int, num_classes: int, seed: int) -> PiDualModel:
        """A model for these widths; component ``name`` is initialised under
        ``derive_seed(seed, name)``."""
        nets = {
            name: None if shape is None else init_mlp(*shape, derive_seed(seed, name))
            for name, shape in self.shapes(feature_dim, pi_dim, num_classes).items()
        }
        return PiDualModel(
            **nets,
            flags=self.flags,
            share_first_layer=self.share_first_layer,
            feature_dim=feature_dim,
            pi_dim=pi_dim,
            num_classes=num_classes,
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
    # the gradient of the mean loss w.r.t. ``mixed``, written by training_loss
    d_mixed: np.ndarray | None = field(default=None, repr=False)


# Per component, one array (or None) per layer for mlp_forward's ``out``.
ActivationBuffers = dict[str, list[np.ndarray | None]]


def activation_buffers(model: PiDualModel, rows: int) -> ActivationBuffers:
    """Arrays for the hidden layers of ``rows``-row passes of ``model``'s
    components: one (rows, width) array per ReLU layer, None for the identity
    and sigmoid output layers, which are 1 to ``num_classes`` wide and allocate."""
    return {
        name: [
            np.empty((rows, w.shape[0])) if act == RELU else None
            for w, act in zip(net.weights, net.activations)
        ]
        for name, net in model.components().items()
    }


def _forward_pi_side(
    model: PiDualModel, x: np.ndarray, a: np.ndarray, out: ActivationBuffers | None = None
) -> ModelTape:
    """Noise and gate paths of the training forward pass, on a fresh tape.

    The only code that wires the PI side: trunk sharing, the ``pi_and_x``
    input and the ablation zeros. ``forward_train`` adds the prediction
    network and the mix; ``noise_logits`` and ``gate_values`` read it alone.
    """
    x, a = np.asarray(x, dtype=np.float64), np.asarray(a, dtype=np.float64)
    if x.ndim != 2 or a.ndim != 2 or x.shape[0] != a.shape[0]:
        raise ShapeError(f"features {x.shape} and PI {a.shape} are not batches of one length")
    flags = model.flags
    tape = ModelTape(model=model, batch_size=x.shape[0])
    pi_in = np.hstack([a, x]) if flags.noise_input == NOISE_INPUT_PI_AND_X else a

    def run(name: str, h: np.ndarray) -> np.ndarray:
        result, tape.tapes[name] = mlp_forward(getattr(model, name), h, (out or {}).get(name))
        return result

    trunk_out = None
    if flags.use_noise_net or (flags.use_gate and model.share_first_layer):
        trunk_out = run("pi_trunk", pi_in)

    if flags.use_noise_net:
        tape.noise_logits = run("noise_head", trunk_out)
    else:
        tape.noise_logits = np.zeros((x.shape[0], model.num_classes))

    if flags.use_gate:
        gate_in = trunk_out if model.share_first_layer else run("gate_trunk", pi_in)
        tape.gate = run("gate_head", gate_in)[:, 0]
    return tape


def forward_train(
    model: PiDualModel, x: np.ndarray, a: np.ndarray, out: ActivationBuffers | None = None
) -> tuple[np.ndarray, np.ndarray | None, ModelTape]:
    """Training-time forward pass on a batch.

    Returns (combined, gate, tape). ``combined`` holds logits, except in the
    probability-space variant where it holds the mixed class probabilities.
    ``gate`` is None when the gating network is ablated. The tape also keeps
    the raw prediction and noise logits. With ``out`` (see
    ``activation_buffers``) the hidden layers write into its arrays, so the
    tape's hidden outputs last only until the next pass through them; the
    returned arrays are new either way.
    """
    tape = _forward_pi_side(model, x, a, out)
    tape.pred_logits, tape.tapes["prediction"] = mlp_forward(
        model.prediction, x, (out or {}).get("prediction")
    )
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

    Writes ``tape.d_mixed``, the loss's gradient with respect to
    ``tape.mixed``: the one thing ``backward_train`` takes from the labels.
    """
    labels = np.asarray(labels)
    b = tape.batch_size
    if labels.shape != (b,):
        raise ShapeError("one label per batch row required")
    if tape.model.flags.use_gate and tape.model.flags.gate_space == GATE_SPACE_PROBABILITY:
        rows = np.arange(b)
        picked = tape.mixed[rows, labels]  # the mixed probability of each row's label
        tape.d_mixed = np.zeros_like(tape.mixed)
        tape.d_mixed[rows, labels] = -1.0 / (b * picked)
        return float(-np.log(picked).mean())
    losses, tape.d_mixed = nn_core.softmax_ce_batch(tape.mixed, labels)
    tape.d_mixed /= b
    return float(losses.mean())


def backward_train(
    model: PiDualModel, tape: ModelTape, out: GradientBuffer | None = None
) -> dict[str, Gradients]:
    """Exact gradients of the loss ``training_loss`` scored on ``tape``.

    Starts at ``tape.d_mixed`` and includes the gate path
    d/dg[(1-g)f + g*eps] = eps - f, and accumulates the shared first layer's
    gradient from both the noise and gate paths. Returns one buffer per
    component, keyed like ``model.components()``; components on an ablated
    path get zero gradients. The buffers are the views of ``out`` (see
    ``gradient_buffer``) when it is given, else of a new gradient vector.
    """
    if tape.model is not model:
        raise ContractError("tape was produced by a different model")
    if tape.d_mixed is None:
        raise ContractError("no loss has scored this tape: call training_loss first")
    flags, b = model.flags, tape.batch_size
    f, eps, g, u = tape.pred_logits, tape.noise_logits, tape.gate, tape.d_mixed

    if not flags.use_gate:
        d_pred, d_noise_out, d_gate_out = u, u, None
    elif flags.gate_space == GATE_SPACE_LOGIT:
        d_pred = (1.0 - g)[:, None] * u
        d_noise_out = g[:, None] * u
        d_gate_out = ((eps - f) * u).sum(axis=1)
    else:
        p_f, p_e = tape.pred_probs, tape.noise_probs

        def through_softmax(p: np.ndarray, v: np.ndarray) -> np.ndarray:
            return p * (v - (p * v).sum(axis=1, keepdims=True))  # the softmax Jacobian times v

        d_pred = through_softmax(p_f, (1.0 - g)[:, None] * u)
        d_noise_out = through_softmax(p_e, g[:, None] * u)
        d_gate_out = ((p_e - p_f) * u).sum(axis=1)

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


def prediction_logits(
    model: PiDualModel, x: np.ndarray, out: ActivationBuffers | None = None
) -> np.ndarray:
    """The prediction network's logits; its hidden layers write into ``out``'s, if given."""
    logits, _ = mlp_forward(model.prediction, x, (out or {}).get("prediction"))
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
# One codec for pickles and checkpoints: ``_layout`` lists each component's
# layers as [out, in, activation], and ``_restore`` cuts the components from
# the parameter vector by it. A checkpoint is one JSON document: the dims,
# the flags, the layout and the vector as base64 of little-endian float64.
# ---------------------------------------------------------------------------

_CHECKPOINT_FORMAT = "pidual-checkpoint-v2"

# The model's scalar fields, with the JSON type a checkpoint must give each.
_SCALARS = {"feature_dim": int, "pi_dim": int, "num_classes": int, "share_first_layer": bool}


def _layout(model: PiDualModel) -> dict[str, list | None]:
    """[[out, in, activation], ...] per roster component, None for an absent one."""
    nets = {name: getattr(model, name) for name in COMPONENTS}
    return {
        name: None if net is None else [[*w.shape, a] for w, a in zip(net.weights, net.activations)]
        for name, net in nets.items()
    }


def _restore(layout: dict, params: np.ndarray, flags: AblationFlags, scalars: dict) -> PiDualModel:
    """The model ``_layout`` described, owning a copy of ``params``. Each layer
    entry must be [int, int, str]; ``shaped_views`` checks the vector's length
    against the layout before it cuts a tensor; the constructors check
    activations, chaining, finiteness and widths."""
    present = {name: layout[name] for name in COMPONENTS if layout[name] is not None}
    for name, layers in present.items():
        if type(layers) is not list:
            raise DataFormatError(f"layout {name}: expected a list of layers or null")
        for index, layer in enumerate(layers):
            if type(layer) is not list or [type(v) for v in layer] != [int, int, str]:
                raise DataFormatError(f"layout {name} layer {index}: expected [out, in, activation]")
    shapes = {name: [(o, i) for o, i, _ in layers] for name, layers in present.items()}
    nets = dict.fromkeys(COMPONENTS)
    for name, (weights, biases) in nn_core.shaped_views(params, shapes).items():
        nets[name] = MlpParams(weights, biases, [act for *_, act in present[name]])
    return PiDualModel(**nets, flags=flags, **scalars)


def save_checkpoint(model: PiDualModel, path: str | Path) -> None:
    doc = {
        "format": _CHECKPOINT_FORMAT,
        **{key: getattr(model, key) for key in _SCALARS},
        "flags": asdict(model.flags),
        "layout": _layout(model),
        "params": base64.b64encode(model.params.astype("<f8", copy=False).tobytes()).decode(),
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")


def load_checkpoint(path: str | Path) -> PiDualModel:
    """The model ``save_checkpoint`` wrote; a malformed file raises ``DataFormatError``."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(doc, dict) or doc.get("format") != _CHECKPOINT_FORMAT:
            raise DataFormatError(f"not a {_CHECKPOINT_FORMAT} file")
        for key, kind in {**_SCALARS, "flags": dict, "layout": dict, "params": str}.items():
            if type(doc[key]) is not kind:
                raise DataFormatError(f"entry {key!r} is not of type {kind.__name__}")
        params = np.frombuffer(base64.b64decode(doc["params"], validate=True), dtype="<f8")
        scalars = {key: doc[key] for key in _SCALARS}
        return _restore(doc["layout"], params, AblationFlags(**doc["flags"]), scalars)
    except KeyError as exc:
        raise DataFormatError(f"{path}: checkpoint has no {exc.args[0]!r} entry") from exc
    except (OSError, TypeError, ValueError, RecursionError, PiDualError) as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
