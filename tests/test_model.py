import base64
import copy
import itertools
import json
import math
import pickle
from dataclasses import replace

import numpy as np
import pytest

from pidual import nn_core
from pidual.errors import ContractError, ShapeError
from pidual.model import (
    COMPONENTS,
    AblationFlags,
    GATE_SPACE_LOGIT,
    GATE_SPACE_PROBABILITY,
    NOISE_INPUT_PI,
    NOISE_INPUT_PI_AND_X,
    ModelConfig,
    PiDualModel,
    backward_train,
    ce_baseline_flags,
    forward_infer,
    forward_train,
    gate_values,
    gradient_buffer,
    load_checkpoint,
    noise_logits,
    prediction_logits,
    save_checkpoint,
    training_loss,
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
    eye2 = np.eye(2)
    model = PiDualModel(
        prediction=MlpParams([eye2.copy()], [np.zeros(2)], [nn_core.IDENTITY]),
        pi_trunk=MlpParams([eye2.copy()], [np.zeros(2)], [nn_core.RELU]),
        noise_head=MlpParams([eye2.copy()], [np.zeros(2)], [nn_core.IDENTITY]),
        gate_head=MlpParams([np.zeros((1, 2))], [np.zeros(1)], [nn_core.SIGMOID]),
        gate_trunk=None,
        flags=AblationFlags(),
        feature_dim=2,
        pi_dim=2,
        num_classes=2,
    )
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
    model = small_model(d=2, k=2)
    model = replace(model, prediction=MlpParams([np.eye(2)], [np.zeros(2)], [nn_core.IDENTITY]))
    probs = forward_infer(model, np.array([0.0, 0.0])[None])[0]
    assert np.allclose(probs, [0.5, 0.5])


def test_inference_matches_scalar_softmax():
    logits = np.array([3.0, 1.0, 1.0])
    exps = [math.exp(v) for v in logits]
    expected = np.array([e / sum(exps) for e in exps])
    model = small_model(d=3, k=3)
    model = replace(model, prediction=MlpParams([np.eye(3)], [np.zeros(3)], [nn_core.IDENTITY]))
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
    model = small_model(seed=4)
    force_gate(model, -1e9)
    x, a, _ = rng_batch(model, n=3, seed=5)
    # make the prediction net output a huge logit on class 0 regardless of x
    model = replace(model, prediction=MlpParams(
        [np.zeros((model.num_classes, model.feature_dim))],
        [np.array([50.0] + [0.0] * (model.num_classes - 1))],
        [nn_core.IDENTITY],
    ))
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

    model.flags = AblationFlags(use_gate=False)
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
        assert loaded.flags == model.flags
        assert loaded.share_first_layer == model.share_first_layer
        x, a, labels = rng_batch(model)
        assert np.array_equal(
            model_loss(model, x, a, labels), model_loss(loaded, x, a, labels)
        )
        doc = json.loads(path.read_text())
        _, _, tape = forward_train(model, x, a)
        training_loss(tape, labels)
        grads = backward_train(model, tape)
        stored = {name for name in COMPONENTS if doc["layout"][name] is not None}
        assert set(model.components()) == stored == set(grads)
        assert ("gate_trunk" in stored) == (not share)


def test_checkpoint_holds_the_vector_as_little_endian_base64(tmp_path):
    model = small_model(share=False, seed=9)
    path = tmp_path / "ckpt.json"
    save_checkpoint(model, path)
    doc = json.loads(path.read_text())
    assert doc["format"] == "pidual-checkpoint-v2"
    assert base64.b64decode(doc["params"]) == model.params.astype("<f8").tobytes()
    assert doc["layout"]["gate_head"] == [[5, 5, nn_core.RELU], [1, 5, nn_core.SIGMOID]]


def test_construction_checks_the_width_of_every_component():
    model = small_model(share=False)  # 3 features, 4 PI columns, 3 classes
    nets = {name: getattr(model, name) for name in COMPONENTS}
    fits = dict(
        flags=AblationFlags(), share_first_layer=False, feature_dim=3, pi_dim=4, num_classes=3
    )
    PiDualModel(**nets, **fits)
    for key, value in [
        ("feature_dim", 4),
        ("pi_dim", 3),
        ("num_classes", 2),
        ("share_first_layer", True),  # a gate trunk only without sharing
        ("flags", AblationFlags(noise_input=NOISE_INPUT_PI_AND_X)),  # the trunks read PI only
    ]:
        with pytest.raises(ShapeError):
            PiDualModel(**nets, **{**fits, key: value})
    with pytest.raises(ShapeError, match="gate_head maps 5 to 2, not 5 to 1"):
        replace(model, gate_head=MlpParams([np.zeros((2, 5))], [np.zeros(2)], [nn_core.SIGMOID]))
    with pytest.raises(ShapeError, match="noise_head maps 6 to 3, not 5 to 3"):
        replace(model, noise_head=MlpParams([np.zeros((3, 6))], [np.zeros(3)], [nn_core.IDENTITY]))


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


def test_replacing_a_component_packs_a_fresh_vector():
    model = small_model(d=2, k=2)
    before = model.params.copy()
    identity = MlpParams([np.eye(2)], [np.zeros(2)], [nn_core.IDENTITY])
    crafted = replace(model, prediction=identity)
    assert crafted.params.size == sum(net.size for net in crafted.components().values())
    assert np.array_equal(crafted.params[:6], [1.0, 0.0, 0.0, 1.0, 0.0, 0.0])
    assert not np.shares_memory(crafted.params, model.params)
    assert not np.shares_memory(crafted.params, identity.weights[0])
    crafted.params[:4] = 0.0
    assert np.all(crafted.prediction.weights[0] == 0.0)
    assert np.array_equal(model.params, before)  # the original keeps its own vector
    with pytest.raises(ShapeError, match="prediction maps 3 to 2, not 2 to 2"):
        replace(model, prediction=MlpParams([np.eye(2, 3)], [np.zeros(2)], [nn_core.IDENTITY]))


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
    for attr in ("flags", "share_first_layer", "feature_dim", "pi_dim", "num_classes"):
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


def grad_bytes(grads):
    return {
        name: [t.tobytes() for t in g.d_weights + g.d_biases] for name, g in grads.items()
    }


@pytest.mark.parametrize("flags,share", ablation_models())
def test_backward_with_loss_gradient_and_bound_views_equals_a_fresh_call(flags, share):
    model = small_model(flags=flags, share=share, seed=17)
    jitter_biases(model, seed=18)
    x, a, labels = rng_batch(model, n=9, seed=19)

    _, _, fresh_tape = forward_train(model, x, a)
    training_loss(fresh_tape, labels)
    fresh = backward_train(model, fresh_tape)

    buffer = gradient_buffer(model)
    buffer.vector.fill(np.nan)  # stale contents must be overwritten or zeroed
    for _ in range(2):  # the second call reuses the buffer
        _, _, tape = forward_train(model, x, a)
        training_loss(tape, labels)
        lean = backward_train(model, tape, out=buffer)
        assert lean is buffer.grads
        assert grad_bytes(lean) == grad_bytes(fresh)

    # the last loss to score a tape sets its gradient
    other = (labels + 1) % model.num_classes
    _, _, tape = forward_train(model, x, a)
    training_loss(tape, labels)
    training_loss(tape, other)
    _, _, other_tape = forward_train(model, x, a)
    training_loss(other_tape, other)
    assert grad_bytes(backward_train(model, tape, out=buffer)) == grad_bytes(
        backward_train(model, other_tape)
    )


def test_gradient_buffer_of_another_model_is_rejected():
    model = small_model(seed=1)
    x, a, labels = rng_batch(model)
    _, _, tape = forward_train(model, x, a)
    training_loss(tape, labels)
    with pytest.raises(ContractError):
        backward_train(model, tape, out=gradient_buffer(small_model(share=False)))
