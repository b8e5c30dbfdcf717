import base64
import copy
import itertools
import json
import math
import pickle
from dataclasses import FrozenInstanceError, asdict, fields, replace

import numpy as np
import pytest

from pidual import nn_core
from pidual.errors import ContractError, ShapeError
from pidual.model import (
    AblationFlags,
    GATE_SPACE_LOGIT,
    GATE_SPACE_PROBABILITY,
    NOISE_INPUT_PI,
    NOISE_INPUT_PI_AND_X,
    NOISE_INPUTS,
    ModelConfig,
    PiDualModel,
    backward_train,
    ce_baseline_flags,
    forward_infer,
    forward_train,
    gate_values,
    load_checkpoint,
    noise_logits,
    prediction_logits,
    save_checkpoint,
    training_loss,
    Workspace,
)
from pidual.nn_core import MlpParams
from pidual.training import ABLATION_VARIANTS

from conftest import finite_difference, rel_err


def small_model(flags=None, share=True, seed=0, d=3, p=4, k=3, width=5):
    cfg = ModelConfig(
        pred_hidden=(width,), pi_width=width, share_first_layer=share,
        flags=flags or AblationFlags(),
    )
    return cfg.build(d, p, k, seed=seed)


def one_layer_prediction(seed=0, d=3, p=4, k=3):
    """A model whose prediction network is one identity-activated d-to-k
    layer: ``pred_hidden=()``. Tests write into its tensors."""
    return ModelConfig(pred_hidden=(), pi_width=5).build(d, p, k, seed=seed)


def force_gate(model, bias):
    model.gate_head.biases[-1][0] = bias


def rng_batch(model, n=6, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, model.feature_dim))
    a = rng.standard_normal((n, model.pi_dim))
    labels = rng.integers(0, model.num_classes, n)
    return x, a, labels


def test_gate_zero_reduces_to_prediction_logits():
    model = small_model()
    force_gate(model, -1e9)
    x, a, _ = rng_batch(model)
    combined, g, _ = forward_train(model, x, a)
    pred, _ = nn_core.mlp_forward(model.prediction, x)
    assert np.all(g == 0.0)
    assert np.array_equal(combined, pred)


def test_gate_one_reduces_to_noise_logits():
    model = small_model()
    force_gate(model, 1e9)
    x, a, _ = rng_batch(model)
    combined, g, _ = forward_train(model, x, a)
    assert np.all(g == 1.0)
    from pidual.model import noise_logits

    assert np.array_equal(combined, noise_logits(model, x, a))


def test_halfway_gate_mixes_logits():
    # identity prediction, trunk and noise layers on non-negative inputs; a zero gate
    model = ModelConfig(pred_hidden=(), pi_width=2).build(2, 2, 2, seed=0)
    model.params[:] = 0.0
    for w in (*model.prediction.weights, *model.pi_trunk.weights, *model.noise_head.weights):
        w[...] = np.eye(2)
    combined, g, _ = forward_train(model, np.array([[2.0, 0.0]]), np.array([[0.0, 2.0]]))
    assert np.allclose(g, 0.5)
    assert np.allclose(combined, [[1.0, 1.0]])


def test_inference_independent_of_pi_parameters():
    model = small_model(seed=5)
    x = np.random.default_rng(1).standard_normal((4, model.feature_dim))
    before = forward_infer(model, x)
    for net in (model.pi_trunk, model.noise_head, model.gate_head):
        for w in net.weights:
            w += 123.0
        for b in net.biases:
            b -= 7.0
    after = forward_infer(model, x)
    assert np.array_equal(before, after)


def test_inference_uniform_for_identity_net_at_origin():
    model = one_layer_prediction(d=2, k=2)
    model.prediction.weights[0][...] = np.eye(2)  # biases start at zero
    probs = forward_infer(model, np.array([0.0, 0.0])[None])[0]
    assert np.allclose(probs, [0.5, 0.5])


def test_inference_matches_scalar_softmax():
    logits = np.array([3.0, 1.0, 1.0])
    exps = [math.exp(v) for v in logits]
    expected = np.array([e / sum(exps) for e in exps])
    model = one_layer_prediction(d=3, k=3)
    model.prediction.weights[0][...] = np.eye(3)
    probs = forward_infer(model, logits[None])[0]
    assert np.allclose(probs, expected, atol=1e-12)


def test_frozen_gate_gradients_match_plain_ce():
    gated = small_model(seed=2)
    force_gate(gated, -1e9)
    x, a, labels = rng_batch(gated, seed=3)
    _, _, tape = forward_train(gated, x, a)
    training_loss(tape, labels)
    grads = backward_train(gated, tape)

    ce = small_model(flags=ce_baseline_flags(), seed=2)
    _, _, ce_tape = forward_train(ce, x, a)
    training_loss(ce_tape, labels)
    baseline_grads = backward_train(ce, ce_tape)
    for g1, g2 in zip(grads["prediction"].d_weights, baseline_grads["prediction"].d_weights):
        assert np.array_equal(g1, g2)
    assert all(np.all(g == 0) for g in grads["noise_head"].d_weights)


def test_saturated_correct_labels_give_vanishing_gradients():
    model = one_layer_prediction(seed=4)
    force_gate(model, -1e9)
    x, a, _ = rng_batch(model, n=3, seed=5)
    # make the prediction net output a huge logit on class 0 regardless of x
    model.prediction.weights[0][...] = 0.0
    model.prediction.biases[0][0] = 50.0
    labels = np.zeros(3, dtype=int)
    _, _, tape = forward_train(model, x, a)
    training_loss(tape, labels)
    grads = backward_train(model, tape)
    pred = grads["prediction"]
    total = sum(float(np.abs(g).sum()) for g in pred.d_weights + pred.d_biases)
    assert total < 1e-10


def model_loss(model, x, a, labels):
    _, _, tape = forward_train(model, x, a)
    return training_loss(tape, labels)


def jitter_biases(model, seed, scale=0.3):
    """Move zero-init biases off the ReLU kinks so finite differences are valid."""
    rng = np.random.default_rng(seed)
    for net in model.components().values():
        for b in net.biases:
            b += scale * rng.standard_normal(b.shape)


FLAG_GRID = list(
    itertools.product(
        [True, False],  # use_gate
        [True, False],  # use_noise_net
        [GATE_SPACE_LOGIT, GATE_SPACE_PROBABILITY],
        [NOISE_INPUT_PI, NOISE_INPUT_PI_AND_X],
        [True, False],  # share_first_layer
    )
)


@pytest.mark.parametrize("use_gate,use_noise,space,noise_in,share", FLAG_GRID)
def test_gradients_match_finite_differences_all_flags(use_gate, use_noise, space, noise_in, share):
    flags = AblationFlags(
        use_gate=use_gate, use_noise_net=use_noise, gate_space=space, noise_input=noise_in
    )
    model = small_model(flags=flags, share=share, seed=7)
    jitter_biases(model, seed=21)
    x, a, labels = rng_batch(model, n=5, seed=8)
    _, _, tape = forward_train(model, x, a)
    training_loss(tape, labels)
    analytic = backward_train(model, tape)

    for name, net in model.components().items():
        grads = analytic[name]
        fd = finite_difference(
            lambda: model_loss(model, x, a, labels), net.weights + net.biases
        )
        for a_g, f_g in zip(grads.d_weights + grads.d_biases, fd):
            assert rel_err(a_g, f_g).max() < 1e-4, f"{name} gradient mismatch"


def test_shared_first_layer_sums_both_paths():
    # trunk gradient with both paths active differs from either path alone
    model = small_model(seed=11)
    x, a, labels = rng_batch(model, seed=12)
    _, _, tape = forward_train(model, x, a)
    training_loss(tape, labels)
    full = backward_train(model, tape)["pi_trunk"].d_weights[0].copy()

    # each component is drawn from its own seed: the gateless model holds
    # the full model's other components
    model = small_model(flags=AblationFlags(use_gate=False), seed=11)
    _, _, tape_n = forward_train(model, x, a)
    training_loss(tape_n, labels)
    noise_only = backward_train(model, tape_n)["pi_trunk"].d_weights[0].copy()
    assert not np.allclose(full, noise_only)


def test_gate_range_and_monotonicity():
    model = small_model(seed=13)
    x, a, _ = rng_batch(model, n=20, seed=14)
    biases = np.linspace(-6, 6, 9)
    previous = None
    for b in biases:
        force_gate(model, b)
        g = gate_values(model, x, a)
        assert np.all(g > 0) and np.all(g < 1)
        if previous is not None:
            assert np.all(g > previous)
        previous = g


def test_gate_values_requires_gate():
    model = small_model(flags=ce_baseline_flags())
    with pytest.raises(ContractError):
        gate_values(model, np.zeros((1, 3)), np.zeros((1, 4)))


def test_dimension_mismatch_raises():
    model = small_model()
    with pytest.raises(ShapeError):
        forward_train(model, np.zeros((2, model.feature_dim + 1)), np.zeros((2, model.pi_dim)))
    with pytest.raises(ShapeError):
        forward_train(model, np.zeros((2, model.feature_dim)), np.zeros((3, model.pi_dim)))


def test_backward_rejects_foreign_tape():
    m1, m2 = small_model(seed=1), small_model(seed=2)
    x, a, labels = rng_batch(m1)
    _, _, tape = forward_train(m1, x, a)
    training_loss(tape, labels)
    with pytest.raises(ContractError):
        backward_train(m2, tape)


def test_backward_rejects_a_tape_no_loss_has_scored():
    model = small_model(seed=1)
    x, a, labels = rng_batch(model)
    _, _, tape = forward_train(model, x, a)
    with pytest.raises(ContractError, match="no loss has scored this tape"):
        backward_train(model, tape)
    training_loss(tape, labels)
    assert backward_train(model, tape).keys() == model.components().keys()


@pytest.mark.parametrize("space", [GATE_SPACE_LOGIT, GATE_SPACE_PROBABILITY])
def test_training_loss_needs_one_label_per_row(space):
    model = small_model(flags=AblationFlags(gate_space=space), seed=1)
    x, a, labels = rng_batch(model)
    _, _, tape = forward_train(model, x, a)
    for wrong in (labels[:-1], labels[:, None]):
        with pytest.raises(ShapeError, match="one label per batch row"):
            training_loss(tape, wrong)
    assert tape.d_mixed is None


def test_a_single_sample_is_a_batch_of_one_row():
    model = small_model(seed=1)
    x, a, _ = rng_batch(model, n=1)
    for run in (
        lambda x, a: forward_train(model, x, a),
        lambda x, a: noise_logits(model, x, a),
        lambda x, a: gate_values(model, x, a),
        lambda x, a: prediction_logits(model, x),
        lambda x, a: forward_infer(model, x),
    ):
        run(x, a)  # a batch of one row
        with pytest.raises(ShapeError):
            run(x[0], a[0])


def test_checkpoint_round_trip(tmp_path):
    for share in (True, False):
        model = small_model(
            flags=AblationFlags(gate_space=GATE_SPACE_PROBABILITY), share=share, seed=3
        )
        path = tmp_path / f"ckpt_{share}.json"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        again = tmp_path / f"ckpt_{share}_again.json"
        save_checkpoint(loaded, again)
        assert again.read_bytes() == path.read_bytes()
        for name, net in model.components().items():
            other = loaded.components()[name]
            assert net.equals(other)
            assert net.activations == other.activations
        assert loaded == model  # the config and the widths
        x, a, labels = rng_batch(model)
        assert np.array_equal(
            model_loss(model, x, a, labels), model_loss(loaded, x, a, labels)
        )
        _, _, tape = forward_train(model, x, a)
        training_loss(tape, labels)
        grads = backward_train(model, tape)
        assert set(model.components()) == set(loaded.components()) == set(grads)
        assert ("gate_trunk" in grads) == (not share)


def test_checkpoint_holds_the_vector_as_little_endian_base64(tmp_path):
    model = small_model(share=False, seed=9)
    path = tmp_path / "ckpt.json"
    save_checkpoint(model, path)
    doc = json.loads(path.read_text())
    assert base64.b64decode(doc.pop("params")) == model.params.astype("<f8").tobytes()
    assert doc == {  # the widths and the config, no layer layout
        "format": "pidual-checkpoint-v4", "feature_dim": 3, "pi_dim": 4, "num_classes": 3,
        "pred_hidden": [5], "pi_width": 5, "share_first_layer": False,
        "flags": asdict(AblationFlags()),
    }


def test_a_model_is_its_config_its_widths_and_one_vector():
    assert [f.name for f in fields(PiDualModel) if f.init] == [
        "config", "feature_dim", "pi_dim", "num_classes", "params"
    ]
    for share, noise_in in itertools.product([True, False], NOISE_INPUTS):
        model = small_model(flags=AblationFlags(noise_input=noise_in), share=share)
        pi_in = 4 + 3 * (noise_in == NOISE_INPUT_PI_AND_X)  # 3 features, 4 PI columns, 3 classes
        widths = {name: (net.in_dim, net.out_dim) for name, net in model.components().items()}
        assert widths == {
            "prediction": (3, 3), "pi_trunk": (pi_in, 5), "noise_head": (5, 3),
            "gate_head": (5, 1), **({} if share else {"gate_trunk": (pi_in, 5)}),
        }
        assert model.params.size == sum(net.size for net in model.components().values())
        cfg, params = model.config, model.params
        assert not np.shares_memory(PiDualModel(cfg, 3, 4, 3, params).params, params)
        for dims, vector in [((3, 4, 3), params[:-1]), ((4, 4, 3), params), ((3, 4, 2), params)]:
            with pytest.raises(ShapeError, match="does not match"):
                PiDualModel(cfg, *dims, vector)


def test_model_config_is_frozen():
    model = small_model()
    with pytest.raises(FrozenInstanceError):
        model.config.pi_width = 3
    with pytest.raises(FrozenInstanceError):
        model.config.flags.use_gate = False
    assert model.config.pi_width == 5 and model.pi_trunk.out_dim == 5


def test_copy_owns_its_vector_and_views_it():
    model = small_model(share=False, seed=6)
    before = model.params.copy()
    twin = model.copy()
    twin.params += 1.0
    assert np.array_equal(model.params, before)
    assert np.array_equal(twin.prediction.weights[0], model.prediction.weights[0] + 1.0)
    for net in twin.components().values():
        for t in net.weights + net.biases:
            assert np.shares_memory(t, twin.params)
            assert not np.shares_memory(t, model.params)


def test_a_model_is_crafted_through_the_views_of_its_vector():
    model = one_layer_prediction(d=2, k=2)
    before = model.params.copy()
    model.prediction.weights[0][...] = np.eye(2)
    assert np.array_equal(model.params[:6], [1.0, 0.0, 0.0, 1.0, 0.0, 0.0])
    assert np.array_equal(model.params[6:], before[6:])
    model.params[:4] = 0.0
    assert np.all(model.prediction.weights[0] == 0.0)
    identity = MlpParams([np.eye(2)], [np.zeros(2)], [nn_core.IDENTITY])
    with pytest.raises(ValueError, match="init=False"):  # a component is not a field to set
        replace(model, prediction=identity)


@pytest.mark.parametrize("restore", [lambda m: pickle.loads(pickle.dumps(m)), copy.deepcopy])
def test_unpickled_components_view_the_restored_vector(restore):
    model = small_model(share=False, seed=7)
    twin = restore(model)
    assert np.array_equal(twin.params, model.params)
    assert not np.shares_memory(twin.params, model.params)
    for name, net in twin.components().items():
        assert net.equals(model.components()[name])
        for t in net.weights + net.biases:
            assert np.shares_memory(t, twin.params)
    twin.params[:] = 0.0
    assert np.all(twin.gate_trunk.weights[0] == 0.0)


def test_pickle_holds_the_parameter_vector_once():
    # the benchmark widths: 8 features, 4 classes, 128-128 prediction net, PI width 64
    cfg = ModelConfig(pred_hidden=(128, 128), pi_width=64, share_first_layer=False)
    model = cfg.build(8, 24, 4, seed=0)
    assert len(pickle.dumps(model)) < 1.1 * model.params.nbytes


@pytest.mark.parametrize("share", [True, False])
@pytest.mark.parametrize("restore", [lambda m: pickle.loads(pickle.dumps(m)), copy.deepcopy])
def test_restored_model_equals_the_original(restore, share):
    model = small_model(flags=AblationFlags(gate_space=GATE_SPACE_PROBABILITY), share=share)
    twin = restore(model)
    for attr in ("config", "feature_dim", "pi_dim", "num_classes"):
        assert getattr(twin, attr) == getattr(model, attr), attr
    assert np.array_equal(twin.params, model.params)
    assert twin.components().keys() == model.components().keys()
    for name, net in twin.components().items():
        assert net.equals(model.components()[name])
        assert net.activations == model.components()[name].activations
        for t in net.weights + net.biases:
            assert np.shares_memory(t, twin.params)
            assert not np.shares_memory(t, model.params)


def ablation_models():
    for name, overrides, _ in ABLATION_VARIANTS:
        for share in (True, False):
            flags = AblationFlags(**overrides)
            yield pytest.param(flags, share, id=f"{name}-{'shared' if share else 'own'}")


@pytest.mark.parametrize("flags,share", ablation_models())
def test_a_model_holds_exactly_the_components_its_flags_run(flags, share, tmp_path):
    full = small_model(flags=replace(flags, use_gate=True, use_noise_net=True), share=share, seed=4)
    model = small_model(flags=flags, share=share, seed=4)
    shared_gate = flags.use_gate and share
    runs = {
        "prediction": True,
        "pi_trunk": flags.use_noise_net or shared_gate,
        "noise_head": flags.use_noise_net,
        "gate_head": flags.use_gate,
        "gate_trunk": flags.use_gate and not shared_gate,
    }
    assert list(model.components()) == [name for name, run in runs.items() if run]
    for name, run in runs.items():
        assert (getattr(model, name) is None) == (not run), name
        if run:  # drawn from the component's own seed, as in the full model
            assert getattr(model, name).equals(getattr(full, name)), name
    assert model.params.size == sum(net.size for net in model.components().values())
    x, a, labels = rng_batch(model)
    _, _, tape = forward_train(model, x, a)
    training_loss(tape, labels)
    assert backward_train(model, tape).keys() == model.components().keys()
    assert tape.grad.size == model.params.size
    path = tmp_path / "ckpt.json"
    save_checkpoint(model, path)
    stored = base64.b64decode(json.loads(path.read_text())["params"])
    assert stored == model.params.astype("<f8").tobytes()


def grad_bytes(grads):
    return {
        name: [t.tobytes() for t in g.d_weights + g.d_biases] for name, g in grads.items()
    }


@pytest.mark.parametrize("flags,share", ablation_models())
def test_backward_with_loss_gradient_and_bound_views_equals_a_fresh_call(flags, share):
    model = small_model(flags=flags, share=share, seed=17)
    jitter_biases(model, seed=18)
    x, a, labels = rng_batch(model, n=9, seed=19)

    def fresh(rows):
        _, _, tape = forward_train(model, x[:rows], a[:rows])
        training_loss(tape, labels[:rows])
        return grad_bytes(backward_train(model, tape))

    expected = {rows: fresh(rows) for rows in (9, 4)}
    ws = Workspace(model, 9)
    assert ws.grad is None  # the first backward pass through it makes the gradient arrays
    for rows in (9, 4, 9):  # a short batch uses the leading rows of every array
        _, _, tape = forward_train(model, x[:rows], a[:rows], out=ws)
        assert tape is ws
        training_loss(tape, labels[:rows])
        lean = backward_train(model, tape)
        assert lean is ws.grads
        assert grad_bytes(lean) == expected[rows]
        ws.grad.fill(np.nan)  # stale contents must be overwritten or zeroed

    # the last loss to score a tape sets its gradient
    other = (labels + 1) % model.num_classes
    _, _, tape = forward_train(model, x, a, out=ws)
    training_loss(tape, labels)
    training_loss(tape, other)
    _, _, other_tape = forward_train(model, x, a)
    training_loss(other_tape, other)
    assert grad_bytes(backward_train(model, tape)) == grad_bytes(
        backward_train(model, other_tape)
    )


def test_workspace_of_another_model_or_too_few_rows_is_rejected():
    model = small_model(seed=1)
    x, a, labels = rng_batch(model, n=6)
    twin = Workspace(small_model(seed=1), 6)  # equal widths and parameters, another model
    for run in (
        lambda ws: forward_train(model, x, a, out=ws),
        lambda ws: prediction_logits(model, x, out=ws),
    ):
        with pytest.raises(ContractError, match="built for a different model"):
            run(twin)
        with pytest.raises(ShapeError, match="6 rows does not fit a workspace of 5"):
            run(Workspace(model, 5))
    with pytest.raises(ShapeError, match="not a batch of width 3"):
        prediction_logits(model, x[:, :2], out=Workspace(model, 6))
