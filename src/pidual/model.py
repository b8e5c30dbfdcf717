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
``use_noise_net=False`` drops the noise network, whose logits count as
zeros, so only the gate can damp a sample's loss; ``gate_space="probability"``
mixes softmax outputs instead of logits (the loss becomes -log of the mixed
probability); and ``noise_input="pi_and_x"`` feeds the concatenation [pi,
features] to the noise path, in which case the shared trunk (and therefore
the gate) sees the features too.

The switches and the layer widths form a frozen ``ModelConfig``. A
``PiDualModel`` is that config, the data's three widths and one parameter
vector, from which the config cuts every component the switches run; a
component they never run, such as the whole PI side of plain cross-entropy,
has no parameters, gradient or optimizer update. A checkpoint and a pickle
hold those same things.
"""
from __future__ import annotations

import base64
import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import nn_core
from .errors import ContractError, DataFormatError, NumericError, PiDualError, ShapeError
from .nn_core import (
    IDENTITY,
    RELU,
    SIGMOID,
    Gradients,
    MlpParams,
    init_mlp,
    softmax,
)
from .seeding import derive_seed

GATE_SPACE_LOGIT = "logit"
GATE_SPACE_PROBABILITY = "probability"
NOISE_INPUT_PI = "pi_only"
NOISE_INPUT_PI_AND_X = "pi_and_x"
GATE_SPACES = (GATE_SPACE_LOGIT, GATE_SPACE_PROBABILITY)
NOISE_INPUTS = (NOISE_INPUT_PI, NOISE_INPUT_PI_AND_X)


@dataclass(frozen=True)
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


# The component roster: every per-component mapping (parameters, gradients,
# workspaces) is keyed by these names, and the flat parameter vector
# is laid out in this order. A model holds only the components its flags run
# (see ``ModelConfig.shapes``). Everything after ``prediction`` reads the PI
# and can be exempt from weight decay, so the decayed parameters are one
# prefix of the vector.
COMPONENTS = ("prediction", "pi_trunk", "noise_head", "gate_head", "gate_trunk")


@dataclass(frozen=True)
class ModelConfig:
    """Architecture knobs decoupled from any concrete dataset dimensions.

    Frozen, like its flags, so a model's config cannot drift from the vector
    it cut."""

    pred_hidden: tuple[int, ...] = (64, 64)
    pi_width: int = 64
    share_first_layer: bool = True
    flags: AblationFlags = field(default_factory=AblationFlags)

    def shapes(self, feature_dim: int, pi_dim: int, num_classes: int) -> dict[str, tuple | None]:
        """(layer sizes, activations) per roster component, None for one the flags never run."""
        hidden, width, flags = tuple(self.pred_hidden), self.pi_width, self.flags
        noise_in = pi_dim + feature_dim * (flags.noise_input == NOISE_INPUT_PI_AND_X)
        shared_gate = flags.use_gate and self.share_first_layer
        shapes = (
            ([feature_dim, *hidden, num_classes], [RELU] * len(hidden) + [IDENTITY]),
            ([noise_in, width], [RELU]) if flags.use_noise_net or shared_gate else None,
            ([width, width, num_classes], [RELU, IDENTITY]) if flags.use_noise_net else None,
            ([width, width, 1], [RELU, SIGMOID]) if flags.use_gate else None,
            ([noise_in, width], [RELU]) if flags.use_gate and not shared_gate else None,
        )
        return dict(zip(COMPONENTS, shapes))

    def build(self, feature_dim: int, pi_dim: int, num_classes: int, seed: int) -> PiDualModel:
        """A model for these widths; component ``name`` is initialised under
        ``derive_seed(seed, name)``."""
        nets = {
            name: init_mlp(*shape, derive_seed(seed, name))
            for name, shape in self.shapes(feature_dim, pi_dim, num_classes).items()
            if shape is not None
        }
        return PiDualModel(self, feature_dim, pi_dim, num_classes, nn_core.flatten(nets))


@dataclass
class PiDualModel:
    """A ``ModelConfig`` for given widths, and its parameters in one vector.

    The noise network is ``noise_head`` stacked on ``pi_trunk``; the gate is
    ``gate_head`` stacked on the shared ``pi_trunk`` (or on its own
    ``gate_trunk`` when ``config.share_first_layer`` is off). A component the
    flags never run is None. ``params`` holds every parameter, component by
    component in roster order (see ``nn_core.flatten``). Construction copies
    it and cuts the components from the copy as ``MlpParams`` views, with the
    layer widths ``config.shapes`` gives for ``feature_dim``, ``pi_dim`` and
    ``num_classes``, so one optimizer step on ``params`` updates every
    component, and no component can disagree with the config. A vector of
    another length is a ``ShapeError``; one with a non-finite entry is a
    ``NumericError`` that names the first tensor holding one.

    To craft a model, build one from a config of the wanted widths and write
    into its components' tensors. A pickle, like a checkpoint, holds the
    config, the widths and the vector; ``copy()`` is the cheap way to an
    independent model.
    """

    config: ModelConfig
    feature_dim: int
    pi_dim: int
    num_classes: int
    params: np.ndarray = field(repr=False, compare=False)
    # the components, in roster order: views of params, cut by __post_init__
    prediction: MlpParams = field(init=False, repr=False, compare=False)
    pi_trunk: MlpParams | None = field(init=False, repr=False, compare=False)
    noise_head: MlpParams | None = field(init=False, repr=False, compare=False)
    gate_head: MlpParams | None = field(init=False, repr=False, compare=False)
    gate_trunk: MlpParams | None = field(init=False, repr=False, compare=False)
    # the vector's layout: each present component's weight shapes, in roster order
    layout: dict[str, list[tuple[int, int]]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.params = np.array(self.params, dtype=np.float64)
        shapes = self.config.shapes(self.feature_dim, self.pi_dim, self.num_classes)
        present = {name: shape for name, shape in shapes.items() if shape is not None}
        self.layout = {n: list(zip(s[1:], s[:-1])) for n, (s, _) in present.items()}
        views = self.views(self.params)
        where = self.nonfinite_tensor()
        if where is not None:
            raise NumericError(f"non-finite parameters in {where}")
        for name, shape in shapes.items():
            setattr(self, name, None if shape is None else MlpParams(*views[name], shape[1]))

    def views(self, vector: np.ndarray) -> dict[str, tuple[list, list]]:
        """(weights, biases) per present component of a vector laid out like ``params``."""
        return nn_core.shaped_views(vector, self.layout)

    def nonfinite_tensor(self) -> str | None:
        """The first tensor holding a non-finite parameter, named by
        ``nn_core.locate``; None when every parameter is finite."""
        bad = np.flatnonzero(~np.isfinite(self.params))
        return nn_core.locate(self.layout, int(bad[0])) if bad.size else None

    def __reduce__(self):
        dims = (self.feature_dim, self.pi_dim, self.num_classes)
        return PiDualModel, (self.config, *dims, self.params)

    def copy(self) -> "PiDualModel":
        """An independent model: a copy of the vector with components viewing it."""
        return replace(self)

    def components(self) -> dict[str, MlpParams]:
        """The present components by roster name, in roster order."""
        return {name: getattr(self, name) for name in self.layout}


class Workspace:
    """Arrays for training passes of up to ``rows`` rows through ``model``,
    each made by the first pass that writes it and reused by every later
    pass; also the tape of the latest pass.

    Per present component it holds an ``nn_core.MlpWorkspace``, which makes
    its arrays at the first pass through that component: a workspace holds
    none for a path it never runs, such as the PI side in a prediction-only
    scoring pass, or the prediction network in ``gate_values``. The latest
    ``forward_train`` through it leaves here its ``batch_size`` and the raw
    ``pred_logits``, ``noise_logits`` and ``gate`` (None for an absent
    network), the softmaxed ``pred_probs`` and ``noise_probs`` in the
    probability space, and ``mixed``, its combined output; ``training_loss``
    adds ``d_mixed``, the loss's gradient with respect to ``mixed``. A batch
    of m rows uses the first m rows of every array, so one workspace serves a
    last, shorter minibatch.

    The first ``backward_train`` through it adds ``grad``, a gradient vector
    laid out like ``model.params``, whose views per component, ``grads``, are
    what ``backward_train`` returns; a workspace that only scores, as the
    evaluation process's do, never holds it.
    """

    def __init__(self, model: PiDualModel, rows: int) -> None:
        self.model, self.rows = model, rows
        self.nets = {n: nn_core.MlpWorkspace(net, rows) for n, net in model.components().items()}
        self.pi_in = self.grad = self.grads = self.d_trunk = None
        self.batch_size = 0
        self.pred_logits = self.noise_logits = self.gate = None
        self.pred_probs = self.noise_probs = self.mixed = self.d_mixed = None


def _batch(model: PiDualModel, x, a, out: Workspace | None) -> tuple:
    """(x, a, workspace) of a pass: the inputs as float64 batches of the
    model's widths, and ``out`` if it is ``model``'s and has room for them,
    else a new workspace for their rows. ``a`` is None for a pass of the
    prediction network alone. Every pass checks its inputs here and nowhere
    else."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.feature_dim:
        raise ShapeError(f"features {x.shape} are not a batch of width {model.feature_dim}")
    rows = x.shape[0]
    if a is not None:
        a = np.asarray(a, dtype=np.float64)
        if a.shape != (rows, model.pi_dim):
            raise ShapeError(f"PI {a.shape} is not a batch of {rows} rows of width {model.pi_dim}")
    if out is None:
        return x, a, Workspace(model, rows)
    if out.model is not model:
        raise ContractError("workspace was built for a different model")
    if rows > out.rows:
        raise ShapeError(f"a batch of {rows} rows does not fit a workspace of {out.rows}")
    return x, a, out


def _forward_pi_side(model: PiDualModel, x: np.ndarray, a: np.ndarray, ws: Workspace) -> None:
    """Noise and gate paths of the training forward pass, through ``ws``.

    The only code that wires the PI side: trunk sharing and the ``pi_and_x``
    input, built only when a PI component (any but ``prediction``) runs. It
    runs the components the model holds and leaves ``ws.noise_logits`` and
    ``ws.gate`` None for the rest. ``forward_train`` adds the prediction
    network and the mix;
    ``noise_logits`` and ``gate_values`` read it alone.
    """
    nets, m = ws.nets, x.shape[0]
    ws.batch_size, ws.d_mixed = m, None
    ws.noise_logits = ws.gate = None
    pi_in = a
    if model.config.flags.noise_input == NOISE_INPUT_PI_AND_X and len(nets) > 1:
        if ws.pi_in is None:
            ws.pi_in = np.empty((ws.rows, model.pi_dim + model.feature_dim))
        pi_in = np.concatenate((a, x), axis=1, out=ws.pi_in[:m])

    trunk_out = nets["pi_trunk"].forward(pi_in) if "pi_trunk" in nets else None
    if "noise_head" in nets:
        ws.noise_logits = nets["noise_head"].forward(trunk_out)
    if "gate_head" in nets:
        gate_in = nets["gate_trunk"].forward(pi_in) if "gate_trunk" in nets else trunk_out
        ws.gate = nets["gate_head"].forward(gate_in)[:, 0]


def forward_train(
    model: PiDualModel, x: np.ndarray, a: np.ndarray, out: Workspace | None = None
) -> tuple[np.ndarray, np.ndarray | None, Workspace]:
    """Training-time forward pass on a batch.

    Returns (combined, gate, tape). ``combined`` holds logits, except in the
    probability-space variant where it holds the mixed class probabilities.
    ``gate`` is None when the gating network is ablated. The tape is ``out``,
    a ``Workspace`` of ``model`` with room for the batch, or a new one; it
    also keeps the raw prediction and noise logits. The next pass through
    ``out`` overwrites the layer outputs, the prediction and noise logits
    among them; ``combined`` and ``gate`` are new arrays.
    """
    x, a, ws = _batch(model, x, a, out)
    _forward_pi_side(model, x, a, ws)
    ws.pred_logits = ws.nets["prediction"].forward(x)
    f, eps, g = ws.pred_logits, ws.noise_logits, ws.gate

    if g is None:
        combined = f.copy() if eps is None else f + eps
    elif model.config.flags.gate_space == GATE_SPACE_LOGIT:
        combined = (1.0 - g)[:, None] * f
        if eps is not None:
            combined += g[:, None] * eps
    else:
        ws.pred_probs = softmax(f)
        ws.noise_probs = np.full_like(f, 1.0 / model.num_classes) if eps is None else softmax(eps)
        combined = (1.0 - g)[:, None] * ws.pred_probs + g[:, None] * ws.noise_probs
    ws.mixed = combined
    return combined, g, ws


def training_loss(tape: Workspace, labels: np.ndarray) -> float:
    """Mean cross-entropy of the combined output against the noisy labels.

    Writes ``tape.d_mixed``, the loss's gradient with respect to
    ``tape.mixed``: the one thing ``backward_train`` takes from the labels.
    """
    labels = np.asarray(labels)
    b = tape.batch_size
    if labels.shape != (b,):
        raise ShapeError("one label per batch row required")
    if tape.gate is not None and tape.model.config.flags.gate_space == GATE_SPACE_PROBABILITY:
        rows = np.arange(b)
        picked = tape.mixed[rows, labels]  # the mixed probability of each row's label
        tape.d_mixed = np.zeros_like(tape.mixed)
        tape.d_mixed[rows, labels] = -1.0 / (b * picked)
        return -_mean(np.log(picked))
    losses, tape.d_mixed = nn_core.softmax_ce(tape.mixed, labels)
    tape.d_mixed /= b
    return _mean(losses)


def _mean(v: np.ndarray) -> float:
    """``float(v.mean())`` of a vector, the same arithmetic without its wrapper."""
    return float(np.add.reduce(v) / v.shape[0])


def _through_softmax(p: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The softmax Jacobian at probabilities ``p`` times ``v``, row by row."""
    return p * (v - np.add.reduce(p * v, axis=1, keepdims=True))


def backward_train(model: PiDualModel, tape: Workspace) -> dict[str, Gradients]:
    """Exact gradients of the loss ``training_loss`` scored on ``tape``.

    Starts at ``tape.d_mixed`` and includes the gate path
    d/dg[(1-g)f + g*eps] = eps - f, and accumulates the shared first layer's
    gradient from both the noise and gate paths. Returns ``tape.grads``, one
    ``Gradients`` per component, keyed like ``model.components()`` and views
    of ``tape.grad``; the model holds only components that run, so the pass
    writes every entry and forms none for a component the model lacks. The
    next backward pass through ``tape`` overwrites them, and this one
    overwrites the pass's hidden outputs.
    """
    if tape.model is not model:
        raise ContractError("tape was produced by a different model")
    if tape.d_mixed is None:
        raise ContractError("no loss has scored this tape: call training_loss first")
    if tape.grad is None:  # the first backward pass through the workspace
        tape.grad = np.zeros_like(model.params)
        tape.grads = {name: Gradients(*v) for name, v in model.views(tape.grad).items()}
        if model.pi_trunk is not None:
            tape.d_trunk = np.empty((tape.rows, model.pi_trunk.out_dim))
    m = tape.batch_size
    f, eps, g, u = tape.pred_logits, tape.noise_logits, tape.gate, tape.d_mixed

    if g is None:
        # the prediction and noise output layers are identity layers, which
        # leave their upstream gradient as it is
        d_pred, d_noise_out, d_gate_out = u, u, None
    elif model.config.flags.gate_space == GATE_SPACE_LOGIT:
        d_pred = (1.0 - g)[:, None] * u
        d_noise_out = None if eps is None else g[:, None] * u
        d_gate_out = np.add.reduce((-f if eps is None else eps - f) * u, axis=1)
    else:
        p_f, p_e = tape.pred_probs, tape.noise_probs
        d_pred = _through_softmax(p_f, (1.0 - g)[:, None] * u)
        d_noise_out = None if eps is None else _through_softmax(p_e, g[:, None] * u)
        d_gate_out = np.add.reduce((p_e - p_f) * u, axis=1)

    # the first layers of prediction, pi_trunk and gate_trunk read data: no input gradient
    nets, grads = tape.nets, tape.grads
    nets["prediction"].backward(d_pred, grads["prediction"], input_grad=False)
    d_trunk_out = None if tape.d_trunk is None else tape.d_trunk[:m]
    if d_trunk_out is not None:
        d_trunk_out.fill(0.0)
    if "noise_head" in nets:
        d_trunk_out += nets["noise_head"].backward(d_noise_out, grads["noise_head"])
    if "gate_head" in nets:
        d_gate_in = nets["gate_head"].backward(d_gate_out[:, None], grads["gate_head"])
        if "gate_trunk" in nets:
            nets["gate_trunk"].backward(d_gate_in, grads["gate_trunk"], input_grad=False)
        else:
            d_trunk_out += d_gate_in
    if d_trunk_out is not None:
        nets["pi_trunk"].backward(d_trunk_out, grads["pi_trunk"], input_grad=False)
    return grads


def prediction_logits(
    model: PiDualModel, x: np.ndarray, out: Workspace | None = None
) -> np.ndarray:
    """The prediction network's logits, through ``out`` if given: the PI-free pass."""
    x, _, ws = _batch(model, x, None, out)
    return ws.nets["prediction"].forward(x)


def forward_infer(model: PiDualModel, x: np.ndarray) -> np.ndarray:
    """Class probabilities from the prediction network alone (no PI)."""
    return softmax(prediction_logits(model, x))


def _pi_pass(model: PiDualModel, x, a, head: str, network: str) -> Workspace:
    """The PI side's pass on a batch, for ``head``: ``ContractError`` if the model lacks it."""
    if getattr(model, head) is None:
        raise ContractError(f"this model variant has no {network}")
    x, a, ws = _batch(model, x, a, None)
    _forward_pi_side(model, x, a, ws)
    return ws


def noise_logits(model: PiDualModel, x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Raw (un-gated) noise-network logits; a model without one raises ``ContractError``."""
    return _pi_pass(model, x, a, "noise_head", "noise network").noise_logits


def gate_values(model: PiDualModel, x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Per-sample gate outputs in (0, 1); a model without a gate raises ``ContractError``."""
    return _pi_pass(model, x, a, "gate_head", "gating network").gate


# ---------------------------------------------------------------------------
# A checkpoint is one JSON document: the widths, the config's fields and the
# vector as base64 of little-endian float64. ``PiDualModel`` cuts the
# components its flags run from the vector, so the file holds no layer layout.
# ---------------------------------------------------------------------------

_CHECKPOINT_FORMAT = "pidual-checkpoint-v4"


def save_checkpoint(model: PiDualModel, path: str | Path) -> None:
    doc = {
        "format": _CHECKPOINT_FORMAT,
        "feature_dim": model.feature_dim,
        "pi_dim": model.pi_dim,
        "num_classes": model.num_classes,
        **asdict(model.config),
        "params": base64.b64encode(model.params.astype("<f8", copy=False).tobytes()).decode(),
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")


def load_checkpoint(path: str | Path) -> PiDualModel:
    """The model ``save_checkpoint`` wrote; a malformed file raises ``DataFormatError``.

    Every entry must have its JSON type, each layer width must be a positive
    integer and the flags must name every flag; the model's construction then
    checks the vector's length against the widths and flags before it cuts
    any view, and then the finiteness of every parameter."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(doc, dict) or doc.get("format") != _CHECKPOINT_FORMAT:
            raise DataFormatError(f"not a {_CHECKPOINT_FORMAT} file")
        kinds = {"feature_dim": int, "pi_dim": int, "num_classes": int, "pred_hidden": list,
                 "pi_width": int, "share_first_layer": bool, "flags": dict, "params": str}
        for key, kind in kinds.items():
            if type(doc[key]) is not kind:
                raise DataFormatError(f"entry {key!r} is not of type {kind.__name__}")
        if not all(type(w) is int and w > 0 for w in [*doc["pred_hidden"], doc["pi_width"]]):
            raise DataFormatError("pred_hidden and pi_width must hold positive integers")
        if doc["flags"].keys() != asdict(AblationFlags()).keys():  # no flag may default
            raise DataFormatError(f"flags must name exactly {sorted(asdict(AblationFlags()))}")
        config = ModelConfig(
            pred_hidden=tuple(doc["pred_hidden"]), pi_width=doc["pi_width"],
            share_first_layer=doc["share_first_layer"], flags=AblationFlags(**doc["flags"]),
        )
        params = np.frombuffer(base64.b64decode(doc["params"], validate=True), dtype="<f8")
        return PiDualModel(config, doc["feature_dim"], doc["pi_dim"], doc["num_classes"], params)
    except KeyError as exc:
        raise DataFormatError(f"{path}: checkpoint has no {exc.args[0]!r} entry") from exc
    except (OSError, TypeError, ValueError, RecursionError, PiDualError) as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
