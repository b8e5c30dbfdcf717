import concurrent.futures
import multiprocessing
import os
import sys
import threading
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from pidual import data as data_mod
from pidual import detection
from pidual import model as model_mod
from pidual import nn_core
from pidual import training
from pidual.data import PiDataset, SynthConfig, generate_synthetic, split_dataset
from pidual.errors import ContractError, EvaluationError, NumericError
from pidual.model import (
    GATE_SPACE_PROBABILITY,
    NOISE_INPUT_PI_AND_X,
    AblationFlags,
    ModelConfig,
    ce_baseline_flags,
    forward_train,
    gate_values,
    noise_logits,
    prediction_logits,
)
from pidual.config import FIELDS, build_dataset, load_experiment_config
from pidual.model import Workspace
from pidual.seeding import derive_seed
from conftest import poison_gradient
from pidual.training import (
    GRID_AXES,
    RECORD_COLUMNS,
    GridSpec,
    TrainConfig,
    TrainRecord,
    apply_grid_point,
    evaluate,
    run_grid,
    run_trial,
    train,
)


def tiny_dataset(n=200, noise=0.2, seed=0, informativeness=1.0, k=2):
    ds = generate_synthetic(
        SynthConfig(
            n=n, feature_dim=4, num_classes=k, annotators=3, noise_rate=noise,
            pi_informativeness=informativeness, class_separation=3.0, seed=seed,
        )
    )
    return split_dataset(ds, 0.1, 0.2, seed=seed + 1)


def tiny_model(ds, flags=None, seed=0):
    cfg = ModelConfig(pred_hidden=(16,), pi_width=16, flags=flags or AblationFlags())
    return cfg.build(ds.feature_dim, ds.pi_dim, ds.num_classes, seed=seed)


def tiny_cfg(**over):
    base = dict(
        epochs=3, batch_size=32, base_lr=0.1, decay_epochs=[], momentum=0.9,
        weight_decay=0.0, random_pi_length=0, seed=5,
    )
    base.update(over)
    return TrainConfig(**base)


def test_zero_lr_leaves_parameters_unchanged():
    ds = tiny_dataset()
    model = tiny_model(ds)
    before = model.params.copy()
    result = train(model, ds, tiny_cfg(epochs=1, base_lr=0.0))
    assert np.array_equal(model.params, before)
    assert len(result.record) == 1


def test_ce_sanity_run_on_separable_data():
    # clean labels equal the nearest-center rule, so the accuracy ceiling is 1
    ds = tiny_dataset(n=600, noise=0.0, seed=3)
    model = tiny_model(ds, flags=ce_baseline_flags(), seed=3)
    result = train(model, ds, tiny_cfg(epochs=30, batch_size=64))
    assert result.record.clean_test_acc[result.best_epoch] > 0.95


def test_training_deterministic():
    ds = tiny_dataset(seed=4)
    cfg = tiny_cfg(epochs=4)
    m1, m2 = tiny_model(ds, seed=1), tiny_model(ds, seed=1)
    r1, r2 = train(m1, ds, cfg), train(m2, ds, cfg)
    for col in (
        "train_acc_clean", "train_acc_wrong", "noisy_val_acc",
        "clean_test_acc", "mean_gate_clean", "mean_gate_wrong",
    ):
        a, b = getattr(r1.record, col), getattr(r2.record, col)
        assert np.array_equal(a, b, equal_nan=True)
    for name, net in m1.components().items():
        assert net.equals(m2.components()[name])


def reference_step(model, x, a, y):
    """(loss, gradient vector) of one minibatch, composed from nn_core's
    checked calls on fresh arrays, as train composed its step before the
    workspace: the model's wiring written out once more."""
    flags, shared, b = model.config.flags, model.config.share_first_layer, x.shape[0]
    tapes = {}

    def forward(name, h):
        out, tapes[name] = nn_core.mlp_forward(getattr(model, name), h)
        return out

    pi_in = np.hstack([a, x]) if flags.noise_input == NOISE_INPUT_PI_AND_X else a
    trunk = g = None
    if flags.use_noise_net or (flags.use_gate and shared):
        trunk = forward("pi_trunk", pi_in)
    eps = forward("noise_head", trunk) if flags.use_noise_net else np.zeros((b, model.num_classes))
    if flags.use_gate:
        g = forward("gate_head", trunk if shared else forward("gate_trunk", pi_in))[:, 0]
    f = forward("prediction", x)
    probability = flags.use_gate and flags.gate_space == GATE_SPACE_PROBABILITY
    if not flags.use_gate:
        mixed = f + eps
    elif not probability:
        mixed = (1.0 - g)[:, None] * f + g[:, None] * eps
    else:
        p_f, p_e = nn_core.softmax(f), nn_core.softmax(eps)
        mixed = (1.0 - g)[:, None] * p_f + g[:, None] * p_e

    if probability:
        rows = np.arange(b)
        picked = mixed[rows, y]
        u = np.zeros_like(mixed)
        u[rows, y] = -1.0 / (b * picked)
        loss = float(-np.log(picked).mean())
    else:
        losses, u = nn_core.softmax_ce_batch(mixed, y)
        u /= b
        loss = float(losses.mean())

    def jacobian(p, v):
        return p * (v - (p * v).sum(axis=1, keepdims=True))

    if not flags.use_gate:
        d_pred, d_noise, d_gate = u, u, None
    elif not probability:
        d_pred, d_noise = (1.0 - g)[:, None] * u, g[:, None] * u
        d_gate = ((eps - f) * u).sum(axis=1)
    else:
        d_pred = jacobian(p_f, (1.0 - g)[:, None] * u)
        d_noise = jacobian(p_e, g[:, None] * u)
        d_gate = ((p_e - p_f) * u).sum(axis=1)

    nets = model.components()
    grads = {
        name: nn_core.Gradients(
            [np.zeros_like(w) for w in net.weights], [np.zeros_like(v) for v in net.biases]
        )
        for name, net in nets.items()
    }

    def backward(name, d, input_grad=True):
        return nn_core.mlp_backward(nets[name], tapes[name], d, grads[name], input_grad)[1]

    backward("prediction", d_pred, input_grad=False)
    d_trunk = np.zeros((b, model.config.pi_width))
    if "noise_head" in tapes:
        d_trunk += backward("noise_head", d_noise)
    if "gate_head" in tapes:
        d_in = backward("gate_head", d_gate[:, None])
        if shared:
            d_trunk += d_in
        else:
            backward("gate_trunk", d_in, input_grad=False)
    if "pi_trunk" in tapes:
        backward("pi_trunk", d_trunk, input_grad=False)
    vector = np.concatenate(
        [t.ravel() for gr in grads.values() for wb in zip(gr.d_weights, gr.d_biases) for t in wb]
    )
    return loss, vector


def reference_train(model, ds, cfg):
    """(per-step losses, final velocity) of ``cfg.epochs`` epochs of
    reference steps on ``model``, which they train in place."""
    x_tr, a_tr, y_tr = ds.train_arrays()
    n = x_tr.shape[0]
    rng = np.random.default_rng(derive_seed(cfg.seed, "shuffle"))
    state = nn_core.init_optimizer(
        model.params, cfg.base_lr, cfg.momentum, cfg.weight_decay, cfg.decay_epochs,
        cfg.decay_factor,
    )
    decayed = model.prediction.size if cfg.exempt_pi_nets_from_wd else model.params.size
    losses = []
    for epoch in range(cfg.epochs):
        perm = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            loss, grad = reference_step(model, x_tr[idx], a_tr[idx], y_tr[idx])
            losses.append(loss)
            nn_core.sgd_step(model.params, grad, state, epoch, decayed)
    return losses, state.velocity


def recorded_train(monkeypatch, model, ds, cfg):
    """train's result, the loss of each of its steps, and its optimizer state."""
    losses, states = [], []
    real_loss, real_step = model_mod.training_loss, training.sgd_step

    def loss(tape, labels):
        losses.append(real_loss(tape, labels))
        return losses[-1]

    def step(params, grads, state, *args, **kwargs):
        states.append(state)
        return real_step(params, grads, state, *args, **kwargs)

    monkeypatch.setattr(model_mod, "training_loss", loss)
    monkeypatch.setattr(training, "sgd_step", step)
    result = train(model, ds, cfg)
    monkeypatch.undo()
    assert all(s is states[0] for s in states)
    return result, losses, states[0]


STEP_VARIANTS = [
    pytest.param(over, strip, share, id=f"{name}-{'shared' if share else 'own'}")
    for name, over, strip in training.ABLATION_VARIANTS
    for share in (True, False)
]


@pytest.mark.parametrize("over,strip,share", STEP_VARIANTS)
def test_train_steps_are_bitwise_a_reference_composition(monkeypatch, over, strip, share):
    # 140 train rows in batches of 32: each epoch ends on a batch of 12, which
    # uses the leading rows of the workspace; the rate decays after epoch 1,
    # and weight decay reaches the PI components
    ds = tiny_dataset(n=200, noise=0.3, seed=31)
    cfg = tiny_cfg(
        epochs=3, decay_epochs=[2], weight_decay=1e-2, exempt_pi_nets_from_wd=False,
        random_pi_length=3,
    )
    assert ds.split_indices(data_mod.SPLIT_TRAIN).size % cfg.batch_size == 12
    data = data_mod.augment_random_pi(
        data_mod.strip_pi(ds) if strip else ds, training._random_pi(cfg)
    )
    _, model_cfg = apply_grid_point(cfg, ModelConfig(pred_hidden=(16, 16), pi_width=8), over)
    model = replace(model_cfg, share_first_layer=share).build(
        data.feature_dim, data.pi_dim, data.num_classes, seed=3
    )
    reference = model.copy()
    _, losses, state = recorded_train(monkeypatch, model, data, cfg)
    expected_losses, expected_velocity = reference_train(reference, data, cfg)
    assert len(losses) == 3 * 5
    assert losses == expected_losses
    assert state.velocity.tobytes() == expected_velocity.tobytes()
    assert model.params.tobytes() == reference.params.tobytes()


def test_a_batch_size_above_the_train_rows_is_one_batch_of_them(monkeypatch):
    # the config bounds batch_size only from below: the step's workspace must
    # be sized by the train rows, not by the batch size
    ds = tiny_dataset(n=100, seed=32)
    n_train = ds.split_indices(data_mod.SPLIT_TRAIN).size
    made = []

    class Recording(Workspace):
        def __init__(self, model, rows):
            super().__init__(model, rows)
            made.append(rows)

    monkeypatch.setattr(model_mod, "Workspace", Recording)
    huge, exact = tiny_model(ds, seed=4), tiny_model(ds, seed=4)
    r_huge = train(huge, ds, tiny_cfg(epochs=2, batch_size=10**9))
    assert made == [n_train]  # the evaluation process makes its own in its own memory
    r_exact = train(exact, ds, tiny_cfg(epochs=2, batch_size=n_train))
    assert huge.params.tobytes() == exact.params.tobytes()
    for col in RECORD_COLUMNS[1:]:
        got, expected = getattr(r_huge.record, col), getattr(r_exact.record, col)
        assert np.array_equal(got, expected, equal_nan=True), col


def test_early_stopping_selects_argmax_val_epoch():
    ds = tiny_dataset(n=400, noise=0.3, seed=6)
    result = train(tiny_model(ds, seed=2), ds, tiny_cfg(epochs=6))
    rec = result.record
    assert result.best_epoch == int(np.argmax(rec.noisy_val_acc))
    assert result.model_epoch == result.best_epoch
    # re-evaluating the snapshot reproduces the recorded clean-test accuracy
    acc = evaluate(result.model, ds, data_mod.SPLIT_CLEAN_TEST, "clean", "prediction")
    assert acc == rec.clean_test_acc[result.best_epoch]


ABLATION_FLAG_SETS = [
    AblationFlags(),
    AblationFlags(use_gate=False),
    AblationFlags(use_noise_net=False),
    AblationFlags(gate_space=GATE_SPACE_PROBABILITY),
    AblationFlags(noise_input=NOISE_INPUT_PI_AND_X),
]
ABLATION_FLAG_IDS = ["default", "no_gate", "no_noise_net", "probability", "pi_and_x"]


@pytest.mark.parametrize("flags", ABLATION_FLAG_SETS, ids=ABLATION_FLAG_IDS)
def test_record_train_columns_match_separate_heads(flags):
    # the record's train-subset columns come from one forward pass per epoch;
    # recomputing each head on its own must give the same numbers exactly
    ds = tiny_dataset(seed=7)
    model = tiny_model(ds, flags=flags, seed=3)
    result = train(model, ds, tiny_cfg(epochs=2))
    x, a, y = ds.train_arrays()
    wrong = ds.wrong_mask_of(data_mod.SPLIT_TRAIN)
    combined, _, _ = forward_train(model, x, a)
    heads = {
        "train": combined,
        "pred": prediction_logits(model, x),
        "noise": noise_logits(model, x, a),
    }
    expected = {}
    for head, scores in heads.items():
        hits = scores.argmax(axis=1) == y
        expected[f"{head}_acc_clean"] = hits[~wrong].mean()
        expected[f"{head}_acc_wrong"] = hits[wrong].mean()
    gate = gate_values(model, x, a) if flags.use_gate else np.full(y.shape, np.nan)
    expected["mean_gate_clean"] = gate[~wrong].mean()
    expected["mean_gate_wrong"] = gate[wrong].mean()
    for col, value in expected.items():
        assert np.array_equal(getattr(result.record, col)[-1], value, equal_nan=True), col


@pytest.mark.parametrize("flags", ABLATION_FLAG_SETS, ids=ABLATION_FLAG_IDS)
def test_returned_models_reproduce_their_record_rows(flags):
    # each epoch is scored on a copy of its snapshot in another process; the
    # kept snapshot, and the model trained in place, must be the very
    # parameters their rows were scored on. The trial keeps the best epoch
    # under early stopping, else, or without a noisy-val split, the final one.
    ds = tiny_dataset(n=400, noise=0.3, seed=19)
    no_val = split_dataset(ds, 0.0, 0.2, seed=20)  # a new split with no noisy-val rows
    assert no_val.split_indices(data_mod.SPLIT_NOISY_VAL).size == 0
    cfg = tiny_cfg(epochs=5)
    for data, early_stopping in ((ds, True), (ds, False), (no_val, True)):
        model = tiny_model(data, flags=flags, seed=5)
        result = train(model, data, replace(cfg, early_stopping=early_stopping))
        keeps_best = data is ds and early_stopping
        assert result.model_epoch == (result.best_epoch if keeps_best else cfg.epochs - 1)
        rec = result.record
        for trained, epoch in ((result.model, result.model_epoch), (model, cfg.epochs - 1)):
            if data is ds:
                assert evaluate(trained, data, data_mod.SPLIT_NOISY_VAL) == rec.noisy_val_acc[epoch]
            assert (
                evaluate(trained, data, data_mod.SPLIT_CLEAN_TEST, "clean", "prediction")
                == rec.clean_test_acc[epoch]
            )


# Every ablation variant's overrides, and the gate on its own first layer, so
# that gate_trunk and the pi_and_x input go through workspaces too.
BUFFER_OVERRIDES = [over for _, over, _ in training.ABLATION_VARIANTS] + [
    {"share_first_layer": False}
]
BUFFER_OVERRIDE_IDS = [name for name, _, _ in training.ABLATION_VARIANTS] + ["gate_trunk"]


@pytest.mark.parametrize("over", BUFFER_OVERRIDES, ids=BUFFER_OVERRIDE_IDS)
def test_scoring_through_reused_buffers_matches_fresh_passes(over):
    # the evaluation process scores every epoch through one workspace per
    # split; a second parameter vector must leave nothing of the first
    ds = tiny_dataset(n=300, noise=0.3, seed=23)
    base = ModelConfig(pred_hidden=(16, 16), pi_width=16)
    _, model_cfg = apply_grid_point(tiny_cfg(), base, over)
    models = [model_cfg.build(ds.feature_dim, ds.pi_dim, ds.num_classes, seed) for seed in (1, 2)]
    template = models[0].copy()
    x, a, y = ds.train_arrays()
    wrong = ds.wrong_mask_of(data_mod.SPLIT_TRAIN)
    splits = (data_mod.SPLIT_TRAIN, data_mod.SPLIT_NOISY_VAL, data_mod.SPLIT_CLEAN_TEST)
    buffers = {s: Workspace(template, ds.split_indices(s).size) for s in splits}
    passes = [
        (data_mod.SPLIT_NOISY_VAL, "noisy", "combined"),
        (data_mod.SPLIT_CLEAN_TEST, "clean", "prediction"),
        (data_mod.SPLIT_CLEAN_TEST, "clean", "combined"),
    ]
    rows = []
    for model in models:
        template.params[:] = model.params  # as the evaluation process receives each epoch
        train_out = buffers[data_mod.SPLIT_TRAIN]
        got, got_scores = training._train_subset_metrics(template, x, a, y, wrong, train_out)
        expected, expected_scores = training._train_subset_metrics(model, x, a, y, wrong)
        assert got.keys() == expected.keys()
        assert all(np.array_equal(got[k], expected[k], equal_nan=True) for k in got)
        assert got_scores.keys() == expected_scores.keys()
        assert all(np.array_equal(got_scores[k], expected_scores[k]) for k in got_scores)
        for split, labels, head in passes:
            reused = evaluate(template, ds, split, labels, head, out=buffers[split])
            assert reused == evaluate(model, ds, split, labels, head)
        rows.append(got)
    assert rows[0] != rows[1]  # the two vectors do score differently


def test_second_train_split_pass_through_buffers_allocates_no_hidden_activation():
    # configs/benchmark.ini's shapes: 2800 train rows, hidden layers up to 128 wide
    root = Path(__file__).resolve().parents[1]
    cfg = load_experiment_config(root / "configs" / "benchmark.ini")
    ds = data_mod.augment_random_pi(build_dataset(cfg), training._random_pi(cfg.train))
    model = cfg.model.build(ds.feature_dim, ds.pi_dim, ds.num_classes, seed=0)
    x, a, y = ds.train_arrays()
    wrong = ds.wrong_mask_of(data_mod.SPLIT_TRAIN)
    buffers = Workspace(model, x.shape[0])
    one_activation = x.shape[0] * model.prediction.weights[0].shape[0] * 8
    assert one_activation == 2800 * 128 * 8
    training._train_subset_metrics(model, x, a, y, wrong, buffers)  # fills the buffers
    tracemalloc.start()
    try:
        training._train_subset_metrics(model, x, a, y, wrong, buffers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < one_activation, f"{peak} B traced in the second pass"


def test_passes_make_arrays_only_for_the_components_they_run():
    # configs/benchmark.ini's shapes: 2800 train rows and 800 clean-test rows
    root = Path(__file__).resolve().parents[1]
    cfg = load_experiment_config(root / "configs" / "benchmark.ini")
    ds = data_mod.augment_random_pi(build_dataset(cfg), training._random_pi(cfg.train))
    model = cfg.model.build(ds.feature_dim, ds.pi_dim, ds.num_classes, seed=0)

    def layer_outputs(rows, names):  # bytes of every layer output of these components
        return 8 * rows * sum(w.shape[0] for n in names for w in getattr(model, n).weights)

    x, a, _ = ds.train_arrays()
    pi_side = layer_outputs(x.shape[0], ("pi_trunk", "noise_head", "gate_head"))
    tracemalloc.start()
    try:
        gate_values(model, x, a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # beyond the PI side's layer outputs, at most 16 one-column arrays, the
    # gate sigmoid's temporaries among them; the prediction network's layer
    # outputs alone would be 5.8 MB more
    assert peak < pi_side + 16 * 8 * x.shape[0], f"{peak} B traced, {pi_side} B on the PI side"

    # the evaluation process's clean-test workspace after its first pass
    split = data_mod.SPLIT_CLEAN_TEST
    rows = ds.split_indices(split).size
    x_test, _ = ds.eval_inputs(split)
    tracemalloc.start()
    try:
        ws = Workspace(model, rows)
        evaluate(model, ds, split, "clean", training.HEAD_PREDICTION, out=ws)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    prediction = layer_outputs(rows, ("prediction",))
    # the prediction network's layer outputs and the input batch its tape keeps
    assert held < prediction + x_test.nbytes + 16384, f"{held} B held, {prediction} B predicted"
    assert [n for n, net in ws.nets.items() if net.buffers is not None] == ["prediction"]


def test_clean_labels_do_not_change_fitting_or_selection():
    ds = tiny_dataset(n=400, noise=0.3, seed=20)
    full_model, blind_model = tiny_model(ds, seed=6), tiny_model(ds, seed=6)
    full = train(full_model, ds, tiny_cfg(epochs=5))
    blind = train(blind_model, replace(ds, clean_labels=None), tiny_cfg(epochs=5))
    assert blind.best_epoch == full.best_epoch
    assert blind.model_epoch == full.model_epoch
    assert np.array_equal(blind.record.noisy_val_acc, full.record.noisy_val_acc)
    assert np.array_equal(blind_model.params, full_model.params)
    assert np.array_equal(blind.model.params, full.model.params)
    for col in RECORD_COLUMNS[1:]:
        if col != "noisy_val_acc":
            assert np.isnan(getattr(blind.record, col)).all(), col
    assert not np.isnan(full.record.clean_test_acc).any()


def patch_noisy_val_evaluation(monkeypatch, tmp_path, on_call):
    """Make ``training.evaluate`` log its noisy-val passes to a file and call
    ``on_call(n)`` with the running count; returns a reader of the count.

    The patched function runs in the evaluation process, so the count goes
    through a file, not through this process's memory.
    """
    log = tmp_path / "noisy_val_calls"
    real_evaluate = training.evaluate

    def patched(model, ds, split, *args, **kwargs):
        if split == data_mod.SPLIT_NOISY_VAL:
            with log.open("a", encoding="utf-8") as fh:
                fh.write("call\n")
            on_call(len(log.read_text(encoding="utf-8").splitlines()))
        return real_evaluate(model, ds, split, *args, **kwargs)

    monkeypatch.setattr(training, "evaluate", patched)
    return lambda: len(log.read_text(encoding="utf-8").splitlines())


def test_evaluation_failure_raises_in_caller_and_reaps_the_process(monkeypatch, tmp_path):
    def fail_at_epoch_2(calls):
        if calls == 3:
            raise NumericError("evaluation failed at epoch 2")

    ds = tiny_dataset(seed=21)
    calls = patch_noisy_val_evaluation(monkeypatch, tmp_path, fail_at_epoch_2)
    with pytest.raises(NumericError, match="^evaluation failed at epoch 2$"):
        train(tiny_model(ds, seed=1), ds, tiny_cfg(epochs=6))
    assert multiprocessing.active_children() == []
    assert calls() == 3  # no epoch after the failing one was evaluated


class UnpicklableError(Exception):
    def __init__(self, message):
        super().__init__(message)
        self.callback = lambda: None


def test_unpicklable_evaluation_error_arrives_as_its_class_name_and_message(
    monkeypatch, tmp_path
):
    def fail(calls):
        raise UnpicklableError("no pickle for this one")

    ds = tiny_dataset(seed=21)
    patch_noisy_val_evaluation(monkeypatch, tmp_path, fail)
    with pytest.raises(EvaluationError, match="^UnpicklableError: no pickle for this one$"):
        train(tiny_model(ds, seed=1), ds, tiny_cfg(epochs=3))
    assert multiprocessing.active_children() == []


def test_dead_evaluation_process_raises_instead_of_hanging(monkeypatch, tmp_path):
    def die_at_epoch_2(calls):
        if calls == 3:
            os._exit(1)

    ds = tiny_dataset(seed=21)
    patch_noisy_val_evaluation(monkeypatch, tmp_path, die_at_epoch_2)
    raised = []

    def run():
        try:
            train(tiny_model(ds, seed=1), ds, tiny_cfg(epochs=6))
        except Exception as exc:
            raised.append(exc)

    runner = threading.Thread(target=run, daemon=True)  # a hung train must not block exit
    runner.start()
    runner.join(timeout=60)
    assert not runner.is_alive(), "train hung on a dead evaluation process"
    assert len(raised) == 1 and isinstance(raised[0], EvaluationError)
    assert str(raised[0]) == "the evaluation process exited with code 1"
    assert multiprocessing.active_children() == []


def test_concurrent_trains_under_a_short_switch_interval_match_serial():
    # three trainings at once, each forking its evaluation process from a
    # process with four threads, on two cores and with the interpreter
    # switching threads every 10 us: evaluating the live model instead of its
    # snapshot, state shared between calls, or a child forked while another
    # thread holds a lock would change a record or a returned model, or hang
    ds = tiny_dataset(n=300, noise=0.3, seed=22)
    cfg = tiny_cfg(epochs=4)
    reference_model = tiny_model(ds, seed=7)
    reference = train(reference_model, ds, cfg)
    results = [None] * 3

    def run(i):
        model = tiny_model(ds, seed=7)
        results[i] = (model, train(model, ds, cfg))

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(results))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for model, result in results:
        for col in RECORD_COLUMNS[1:]:
            expected = getattr(reference.record, col)
            assert np.array_equal(getattr(result.record, col), expected, equal_nan=True), col
        assert result.best_epoch == reference.best_epoch
        assert np.array_equal(result.model.params, reference.model.params)
        assert np.array_equal(model.params, reference_model.params)


def constant_predictor(ds, cls):
    # pred_hidden=() gives a one-layer prediction network; its zero weights read no feature
    model = ModelConfig(pred_hidden=(), pi_width=16).build(
        ds.feature_dim, ds.pi_dim, ds.num_classes, seed=0
    )
    model.prediction.weights[0][...] = 0.0
    model.prediction.biases[0][cls] = 10.0
    return model


def test_evaluate_constant_predictors():
    ds = tiny_dataset(n=100, noise=0.0, seed=8)
    labels = ds.clean_labels_of(data_mod.SPLIT_CLEAN_TEST)
    frac0 = float((labels == 0).mean())
    assert evaluate(constant_predictor(ds, 0), ds, "clean_test", "clean", "prediction") == frac0
    # a split whose labels are all the predicted class scores 1.0
    all0 = ds.split_indices("clean_test")[labels == 0]
    sub = PiDataset(
        features=ds.features[all0], pi=ds.pi[all0],
        noisy_labels=ds.noisy_labels[all0], clean_labels=ds.clean_labels[all0],
        split=np.zeros(all0.size, dtype=np.int8), num_classes=ds.num_classes,
    )
    assert evaluate(constant_predictor(ds, 0), sub, "train", "clean", "prediction") == 1.0
    assert evaluate(constant_predictor(ds, 1), sub, "train", "clean", "prediction") == 0.0


def test_evaluate_mixed_small_case():
    # 3 of 5 labels match the constant prediction -> 0.6
    features = np.zeros((5, 2))
    ds = PiDataset(
        features=features, pi=np.zeros((5, 1)),
        noisy_labels=np.array([0, 0, 0, 1, 1]), clean_labels=None,
        split=np.zeros(5, dtype=np.int8), num_classes=2,
    )
    model = ModelConfig(pred_hidden=(), pi_width=4).build(2, 1, 2, seed=0)
    model.prediction.weights[0][...] = 0.0
    model.prediction.biases[0][...] = [10.0, 0.0]
    assert evaluate(model, ds, "train", "noisy", "prediction") == 0.6


def test_evaluate_empty_split_raises():
    ds = tiny_dataset(n=50)
    sub = PiDataset(
        features=ds.features, pi=ds.pi, noisy_labels=ds.noisy_labels,
        clean_labels=ds.clean_labels, split=np.zeros(ds.n, dtype=np.int8),
        num_classes=ds.num_classes,
    )
    with pytest.raises(ContractError):
        evaluate(tiny_model(ds), sub, "clean_test", "clean", "prediction")


@pytest.mark.parametrize("dim", ["feature_dim", "pi_dim", "num_classes"])
def test_train_rejects_a_dataset_of_other_widths(dim):
    ds = tiny_dataset(k=3)
    dims = {"feature_dim": ds.feature_dim, "pi_dim": ds.pi_dim, "num_classes": ds.num_classes}
    dims[dim] += 1
    model = ModelConfig(pred_hidden=(4,), pi_width=4).build(**dims, seed=0)
    with pytest.raises(ContractError, match="do not match the dataset"):
        train(model, ds, tiny_cfg(epochs=1))


def test_ce_reduction_bit_identical():
    # no noise net + gate frozen at zero must walk the same path as plain CE
    ds = tiny_dataset(seed=9)
    cfg = tiny_cfg(epochs=1, weight_decay=1e-3, exempt_pi_nets_from_wd=True)

    frozen = tiny_model(ds, flags=AblationFlags(use_noise_net=False), seed=4)
    frozen.gate_head.biases[-1][0] = -1e9
    ce = tiny_model(ds, flags=ce_baseline_flags(), seed=4)

    train(frozen, ds, cfg)
    train(ce, ds, cfg)
    assert frozen.prediction.equals(ce.prediction)
    # the saturated gate passes no gradient, and the PI nets are exempt from
    # decay, so training leaves the gated model's PI side as it was built
    fresh = tiny_model(ds, flags=AblationFlags(use_noise_net=False), seed=4)
    fresh.gate_head.biases[-1][0] = -1e9
    assert frozen.pi_trunk.equals(fresh.pi_trunk)
    assert frozen.gate_head.equals(fresh.gate_head)


class RecordingDataset(PiDataset):
    """Counts accessor calls so tests can audit what the fitting path reads."""

    def __init__(self, ds):
        super().__init__(
            features=ds.features, pi=ds.pi, noisy_labels=ds.noisy_labels,
            clean_labels=ds.clean_labels, split=ds.split, num_classes=ds.num_classes,
        )
        object.__setattr__(self, "calls", [])

    def train_arrays(self):
        self.calls.append("train_arrays")
        return super().train_arrays()

    def eval_inputs(self, split):
        self.calls.append(f"eval_inputs:{split}")
        return super().eval_inputs(split)

    def clean_labels_of(self, split):
        self.calls.append(f"clean_labels_of:{split}")
        return super().clean_labels_of(split)

    def wrong_mask_of(self, split):
        self.calls.append(f"wrong_mask_of:{split}")
        return super().wrong_mask_of(split)


def test_fitting_path_never_reads_clean_labels():
    # without clean labels any read of them raises, in the evaluation process too
    ds = RecordingDataset(replace(tiny_dataset(seed=10), clean_labels=None))
    train(tiny_model(ds, seed=1), ds, tiny_cfg(epochs=2))
    assert "train_arrays" in ds.calls
    assert not any(c.startswith("clean_labels_of") for c in ds.calls)
    assert not any(c.startswith("wrong_mask_of") for c in ds.calls)
    assert not any("clean_test" in c for c in ds.calls)


def test_clean_information_cannot_influence_fitting():
    # poisoning the evaluation-only fields must not move a single parameter
    base = tiny_dataset(seed=11)
    rng = np.random.default_rng(0)
    poisoned_clean = rng.permutation(base.clean_labels)
    features = base.features.copy()
    test_idx = base.split_indices(data_mod.SPLIT_CLEAN_TEST)
    features[test_idx] += rng.standard_normal((test_idx.size, base.feature_dim))
    poisoned = PiDataset(
        features=features, pi=base.pi, noisy_labels=base.noisy_labels,
        clean_labels=poisoned_clean, split=base.split, num_classes=base.num_classes,
    )
    cfg = tiny_cfg(epochs=3)
    m1, m2 = tiny_model(base, seed=2), tiny_model(poisoned, seed=2)
    r1, r2 = train(m1, base, cfg), train(m2, poisoned, cfg)
    assert np.array_equal(r1.record.noisy_val_acc, r2.record.noisy_val_acc)
    assert r1.best_epoch == r2.best_epoch
    for name, net in m1.components().items():
        assert net.equals(m2.components()[name])


def test_record_csv_round_trip(tmp_path):
    ds = tiny_dataset(seed=12)
    result = train(tiny_model(ds, seed=1), ds, tiny_cfg(epochs=2))
    path = tmp_path / "record.csv"
    result.record.to_csv(path)
    loaded = TrainRecord.from_csv(path)
    for col in ("train_acc_clean", "noisy_val_acc", "mean_gate_wrong"):
        assert np.array_equal(
            getattr(result.record, col), getattr(loaded, col), equal_nan=True
        )


def test_run_trial_applies_random_pi():
    ds = tiny_dataset(seed=13)
    result, ds_aug = run_trial(ds, ModelConfig(pred_hidden=(8,), pi_width=8), tiny_cfg(random_pi_length=5))
    assert ds_aug.pi_dim == ds.pi_dim + 5
    assert len(result.record) == 3


def test_single_point_grid_equals_single_train():
    ds = tiny_dataset(seed=14)
    base_cfg = tiny_cfg(epochs=2)
    model_cfg = ModelConfig(pred_hidden=(8,), pi_width=8)
    outcomes = run_grid(GridSpec({"base_lr": [0.1]}), ds, base_cfg, model_cfg)
    assert len(outcomes) == 1 and outcomes[0].status == "ok"

    from dataclasses import replace

    from pidual.seeding import derive_seed

    direct_cfg = replace(base_cfg, base_lr=0.1, seed=derive_seed(base_cfg.seed, "trial", 0))
    direct, _ = run_trial(ds, model_cfg, direct_cfg)
    assert np.array_equal(outcomes[0].result.record.noisy_val_acc, direct.record.noisy_val_acc)


def test_grid_ranking_consistent_with_noisy_val():
    ds = tiny_dataset(n=300, seed=15)
    grid = GridSpec({"base_lr": [0.2, 0.02], "random_pi_length": [0, 4]})
    outcomes = run_grid(grid, ds, tiny_cfg(epochs=2), ModelConfig(pred_hidden=(8,), pi_width=8))
    assert len(outcomes) == 4
    accs = [t.result.scores()["best_noisy_val_acc"] for t in outcomes if t.status == "ok"]
    assert accs == sorted(accs, reverse=True)


def test_grid_reruns_identically_and_failures_are_marked():
    # grid values are range-checked where the config is loaded: a point fails
    # only on what its trial raises, here AblationFlags on an unknown gate space
    ds = tiny_dataset(n=150, seed=16)
    grid = GridSpec({"gate_space": ["logit", "nonsense"]})
    cfg = tiny_cfg(epochs=1)
    model_cfg = ModelConfig(pred_hidden=(8,), pi_width=8)
    first = run_grid(grid, ds, cfg, model_cfg)
    second = run_grid(grid, ds, cfg, model_cfg)
    assert [t.status for t in first] == ["ok", "failed"]
    assert "nonsense" in first[1].error and first[1].result is None
    assert first[0].result.scores() == second[0].result.scores()
    assert first[0].seed == second[0].seed


def test_an_outcome_status_is_whether_it_holds_a_result():
    ds = tiny_dataset(n=150, seed=16)
    result = train(tiny_model(ds, seed=1), ds, tiny_cfg(epochs=1))
    assert training.TrialOutcome(0, {}, 1, result=result).status == "ok"
    assert training.TrialOutcome(0, {}, 1, error="boom").status == "failed"
    with pytest.raises(TypeError, match="status"):
        training.TrialOutcome(0, {}, 1, status="ok")
    with pytest.raises(AttributeError):
        training.TrialOutcome(0, {}, 1).status = "ok"


@pytest.mark.parametrize("early_stopping", [True, False])
def test_outcomes_keep_job_order_and_the_model_of_their_epoch(early_stopping):
    ds = tiny_dataset(n=300, seed=19)
    cfg = tiny_cfg(epochs=4, random_pi_length=3, early_stopping=early_stopping)
    model_cfg = ModelConfig(pred_hidden=(8,), pi_width=8)
    jobs = [
        training.TrialJob(i, params, 7 + i, ds, cfg, model_cfg)
        for i, params in enumerate(({"gate_space": "nonsense"}, {}))
    ]
    failed, ok = training.run_trials(jobs)
    assert (failed.index, failed.status, failed.result) == (0, "failed", None)
    assert "nonsense" in failed.error
    assert (ok.index, ok.seed, ok.status) == (1, 8, "ok")
    result = ok.result
    assert result.model_epoch == (result.best_epoch if early_stopping else cfg.epochs - 1)
    # the spec rebuilds the very PI the trial trained on
    ds_aug = data_mod.augment_random_pi(ds, ok.random_pi)
    _, trained_on = run_trial(ds, model_cfg, replace(cfg, seed=8))
    assert np.array_equal(ds_aug.pi, trained_on.pi)
    rec, row = result.record, result.model_epoch
    assert evaluate(result.model, ds_aug, data_mod.SPLIT_NOISY_VAL) == rec.noisy_val_acc[row]
    clean = evaluate(result.model, ds_aug, data_mod.SPLIT_CLEAN_TEST, "clean", "prediction")
    assert clean == rec.clean_test_acc[row]


@pytest.mark.parametrize(
    "early_stopping,val_fraction,use_gate",
    [(True, 0.1, True), (False, 0.1, True), (True, 0.0, True), (True, 0.1, False)],
    ids=["best-epoch", "final-epoch", "no-noisy-val", "no-gate"],
)
def test_trial_detection_scores_equal_a_forward_pass_of_the_kept_model(
    early_stopping, val_fraction, use_gate
):
    # the scores come from the evaluation process's pass of the kept epoch;
    # detect scores the kept model and the augmented data by a pass of its own
    ds = generate_synthetic(
        SynthConfig(n=300, feature_dim=4, num_classes=3, annotators=3, noise_rate=0.3, seed=21)
    )
    ds = split_dataset(ds, val_fraction, 0.2, seed=22)
    cfg = tiny_cfg(epochs=5, random_pi_length=3, early_stopping=early_stopping)
    model_cfg = ModelConfig(pred_hidden=(8,), pi_width=8, flags=AblationFlags(use_gate=use_gate))
    (outcome,) = training.run_trials([training.TrialJob(0, {}, 11, ds, cfg, model_cfg)])
    assert outcome.status == "ok", outcome.error
    result = outcome.result
    if early_stopping and val_fraction > 0:
        assert result.model_epoch == result.best_epoch
        assert result.model_epoch < cfg.epochs - 1  # not the final epoch: a real test of the choice
    else:
        assert result.model_epoch == cfg.epochs - 1
    methods = ["confidence", "gate"] if use_gate else ["confidence"]
    assert sorted(result.detection_scores) == methods
    wrong = ds.wrong_mask_of(data_mod.SPLIT_TRAIN)
    trained_on = data_mod.augment_random_pi(ds, outcome.random_pi)
    for method in methods:
        got = detection.report(method, result.detection_scores[method], wrong)
        want = detection.detect(result.model, trained_on, method)
        assert got.method == want.method
        assert got.scores.tobytes() == want.scores.tobytes()
        assert got.auc == want.auc
        for name in ("bin_edges", "clean_counts", "wrong_counts"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_grid_axes_each_name_one_config_field():
    # so apply_grid_point routes every [train] and [model] key, and every axis
    owners = [{f.name for f in fields(cls)} for cls in (TrainConfig, ModelConfig, AblationFlags)]
    keys = [*FIELDS["train"], *FIELDS["model"]]
    assert set(GRID_AXES) <= set(keys)
    for key in keys:
        assert sum(key in names for names in owners) == 1, key
    cfg, mcfg = apply_grid_point(
        TrainConfig(), ModelConfig(), {"base_lr": 0.3, "pi_width": 5, "use_gate": False}
    )
    assert (cfg.base_lr, mcfg.pi_width, mcfg.flags.use_gate) == (0.3, 5, False)


def test_grid_parallel_matches_serial():
    ds = tiny_dataset(n=150, seed=17)
    grid = GridSpec({"base_lr": [0.1, 0.02]})
    cfg = tiny_cfg(epochs=1)
    model_cfg = ModelConfig(pred_hidden=(8,), pi_width=8)
    serial = run_grid(grid, ds, cfg, model_cfg, workers=1)
    parallel = run_grid(grid, ds, cfg, model_cfg, workers=2)
    assert [t.index for t in serial] == [t.index for t in parallel]
    for a, b in zip((t.result for t in serial), (t.result for t in parallel)):
        assert a.scores() == b.scores()
        assert np.array_equal(a.record.noisy_val_acc, b.record.noisy_val_acc)
        # the model came back from a worker process pickled: its views are rebound
        assert np.array_equal(a.model.params, b.model.params)
        for name, net in b.model.components().items():
            assert net.equals(a.model.components()[name])
            for t in net.weights + net.biases:
                assert np.shares_memory(t, b.model.params)


def test_grid_pool_never_outnumbers_trials(monkeypatch):
    sizes = []

    class RecordingPool:
        """Stands in for the process pool: records its size, runs jobs inline."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    ds = tiny_dataset(n=150, seed=17)
    cfg = tiny_cfg(epochs=1)
    model_cfg = ModelConfig(pred_hidden=(8,), pi_width=8)
    outcomes = run_grid(GridSpec({"base_lr": [0.1, 0.02]}), ds, cfg, model_cfg, workers=64)
    assert sizes == [2]
    assert [t.status for t in outcomes] == ["ok", "ok"]
    run_grid(GridSpec({"base_lr": [0.1]}), ds, cfg, model_cfg, workers=64)
    assert sizes == [2]  # one trial runs in this process, with no pool


@pytest.mark.parametrize(
    "name,layer,kind",
    [("prediction", 1, "weight"), ("noise_head", 1, "bias"), ("gate_head", 0, "weight")],
)
@pytest.mark.parametrize("last", [False, True], ids=["mid-epoch", "last-step"])
def test_nonfinite_update_is_named_before_the_evaluation_process_sees_it(
    monkeypatch, name, layer, kind, last
):
    # the step does not scan its gradient: a NaN gradient entry in epoch 1 is
    # found by the next step's loss check, or, after the epoch's last step, by
    # its snapshot; either way before its vector is sent to be scored
    ds = tiny_dataset(seed=19)
    cfg = tiny_cfg(epochs=3)
    steps = -(-ds.split_indices(data_mod.SPLIT_TRAIN).size // cfg.batch_size)
    assert steps >= 3
    poison_gradient(monkeypatch, name, layer, kind, steps + (steps - 1 if last else 1))
    sent = []
    real_submit = training._EvaluationProcess.submit

    def submit(self, params):
        sent.append(bool(np.isfinite(params).all()))
        real_submit(self, params)

    monkeypatch.setattr(training._EvaluationProcess, "submit", submit)
    with pytest.raises(NumericError) as exc_info:
        train(tiny_model(ds, seed=2), ds, cfg)
    where = f"with non-finite parameters in {name} layer {layer} {kind}"
    when = "epoch 1 ends" if last else "non-finite loss at epoch 1, batch 2"
    assert str(exc_info.value) == f"{when} {where}"
    assert sent == [True]  # epoch 0's vector; epoch 1's never left this process


def test_nonfinite_loss_aborts_with_diagnostics():
    ds = tiny_dataset(seed=18)
    ds.features[ds.split_indices("train")[0], 0] = np.nan
    from pidual.errors import NumericError

    with pytest.raises(NumericError, match="epoch") as exc_info:
        train(tiny_model(ds, seed=1), ds, tiny_cfg(epochs=2))
    assert "batch" in str(exc_info.value)
