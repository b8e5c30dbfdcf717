"""Acceptance suite: every release criterion at its pinned tolerance.

Each test prints one PASS line with the measured values (run with -s to see
them). The reference benchmark is frozen: n=4000, d=8, K=4, noise_rate=0.4,
informativeness=1, class separation 0.8, feature noise 1.0, prediction net
128x128, PI width 64, random PI length 16, 60 epochs of lr=0.05 SGD with
Nesterov momentum 0.9, decay x0.2 at epochs 30 and 45, weight decay 1e-4 on
the prediction net only, 10% noisy validation, 20% clean test, seeds
(data 51, split 52, train 53).
"""
import itertools
import time
from dataclasses import replace

import numpy as np
import pytest

from pidual.data import SynthConfig, generate_synthetic, split_dataset, strip_pi
from pidual.detection import detect, roc_auc
from pidual.linear_risk import (
    closed_form_risk,
    corrupt_mask,
    make_setup,
    masked_designs,
    masked_fit,
    monte_carlo_risks,
    pi_projector,
    projected_features,
)
from pidual.model import (
    AblationFlags,
    GATE_SPACE_LOGIT,
    GATE_SPACE_PROBABILITY,
    NOISE_INPUT_PI,
    NOISE_INPUT_PI_AND_X,
    ModelConfig,
    backward_train,
    build_model,
    ce_baseline_flags,
    forward_train,
    training_loss,
)
from pidual.training import ABLATION_VARIANTS, TrainConfig, ablation_jobs, run_trial, run_trials

from conftest import finite_difference, rel_err


def report(name, detail):
    print(f"[PASS] {name}: {detail}")


# ---------------------------------------------------------------------------
# Reference benchmark fixtures (shared across the qualitative criteria).
# ---------------------------------------------------------------------------

BENCH_MODEL = ModelConfig(pred_hidden=(128, 128), pi_width=64)
BENCH_TRAIN = TrainConfig(
    epochs=60,
    batch_size=128,
    base_lr=0.05,
    decay_epochs=[30, 45],
    decay_factor=0.2,
    momentum=0.9,
    weight_decay=1e-4,
    exempt_pi_nets_from_wd=True,
    random_pi_length=16,
    early_stopping=True,
    seed=53,
)


def bench_dataset(informativeness):
    ds = generate_synthetic(
        SynthConfig(
            n=4000,
            feature_dim=8,
            num_classes=4,
            annotators=8,
            pi_informativeness=informativeness,
            class_separation=0.8,
            feature_noise=1.0,
            noise_rate=0.4,
            seed=51,
        )
    )
    return split_dataset(ds, 0.1, 0.2, seed=52)


@pytest.fixture(scope="module")
def benchmark_runs():
    started = time.monotonic()
    ds = bench_dataset(1.0)
    ce_cfg = replace(BENCH_MODEL, flags=ce_baseline_flags())
    ce_result, _ = run_trial(ds, ce_cfg, BENCH_TRAIN)
    pidual_result, ds_aug = run_trial(ds, BENCH_MODEL, BENCH_TRAIN)
    return {
        "ds": ds,
        "ds_aug": ds_aug,
        "ce": ce_result,
        "pidual": pidual_result,
        "seconds": time.monotonic() - started,
    }


@pytest.fixture(scope="module")
def low_pi_run():
    ds = bench_dataset(0.0)
    result, ds_aug = run_trial(ds, BENCH_MODEL, BENCH_TRAIN)
    return {"result": result, "ds_aug": ds_aug}


# ---------------------------------------------------------------------------
# Criterion 1: gradient suite.
# ---------------------------------------------------------------------------


def test_criterion_gradient_suite():
    started = time.monotonic()
    combos = list(
        itertools.product(
            [True, False],
            [True, False],
            [GATE_SPACE_LOGIT, GATE_SPACE_PROBABILITY],
            [NOISE_INPUT_PI, NOISE_INPUT_PI_AND_X],
            [True, False],
        )
    )
    instances = 0
    worst = 0.0
    for idx, (use_gate, use_noise, space, noise_in, share) in enumerate(combos):
        flags = AblationFlags(
            use_gate=use_gate, use_noise_net=use_noise,
            gate_space=space, noise_input=noise_in,
        )
        model = build_model(
            3, 4, 3, flags=flags, pred_hidden=(5,), pi_width=5,
            share_first_layer=share, seed=300 + idx,
        )
        rng = np.random.default_rng(600 + idx)
        for net in model.components().values():
            for b in net.biases:
                b += 0.3 * rng.standard_normal(b.shape)  # clear the ReLU kinks
        x = rng.standard_normal((5, 3))
        a = rng.standard_normal((5, 4))
        labels = rng.integers(0, 3, 5)

        def loss():
            _, _, tape = forward_train(model, x, a)
            return training_loss(tape, labels)

        _, _, tape = forward_train(model, x, a)
        analytic = backward_train(model, tape, labels)
        for name, net in model.components().items():
            fd = finite_difference(loss, net.weights + net.biases)
            pairs = zip(analytic[name].d_weights + analytic[name].d_biases, fd)
            for a_g, f_g in pairs:
                err = float(rel_err(a_g, f_g).max()) if a_g.size else 0.0
                worst = max(worst, err)
                assert err < 1e-4, f"{name} gradient off by {err:.2e} (combo {idx})"
        instances += 1
    elapsed = time.monotonic() - started
    assert instances >= 10
    assert elapsed < 10.0
    report(
        "gradient suite",
        f"{instances} instances (all flag combos, both gate spaces, shared and "
        f"own first layers), worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# Criterion 2: closed-form risks match the Monte-Carlo oracle.
# ---------------------------------------------------------------------------


def test_criterion_risk_exactness():
    started = time.monotonic()
    worst_z = 0.0
    for i in range(20):
        setup = make_setup(200, 8, 8, 120, 1.0, seed=1000 + i, pi_coef_scale=3.0)
        mask = corrupt_mask(setup.clean_mask, i % 6, seed=i)
        closed_ols = closed_form_risk(setup, setup.all_rows).total
        closed_pi = closed_form_risk(setup, mask).total
        mc_ols, se_ols = monte_carlo_risks([(setup, setup.all_rows)], 50_000, seed=4000 + i)[0]
        mc_pi, se_pi = monte_carlo_risks([(setup, mask)], 50_000, seed=4500 + i)[0]
        z_ols = abs(mc_ols - closed_ols) / se_ols
        z_pi = abs(mc_pi - closed_pi) / se_pi
        worst_z = max(worst_z, z_ols, z_pi)
        assert z_ols <= 3.0, f"setup {i}: OLS closed form {z_ols:.2f} SEs from MC"
        assert z_pi <= 3.0, f"setup {i}: gated closed form {z_pi:.2f} SEs from MC"

    # zero-bias certificates
    all_clean = make_setup(150, 6, 6, 150, 1.0, seed=77)
    assert closed_form_risk(all_clean, all_clean.all_rows).bias_term <= 1e-10
    mixed = make_setup(150, 6, 6, 90, 1.0, seed=78, pi_coef_scale=3.0)
    assert closed_form_risk(mixed, mixed.clean_mask).bias_term <= 1e-10

    # projector idempotence and left-inverse identity
    proj = pi_projector(mixed, mixed.clean_mask)
    assert np.max(np.abs(proj @ proj - proj)) < 1e-8
    x_proj = projected_features(mixed, mixed.clean_mask)
    x_bar, a_bar = masked_designs(mixed, mixed.clean_mask)
    assert np.max(np.abs((np.eye(mixed.n) - proj) @ a_bar)) < 1e-8
    left_inv, *_ = np.linalg.lstsq(x_proj, x_bar, rcond=None)
    assert np.max(np.abs(left_inv - np.eye(6))) < 1e-8

    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    report(
        "risk exactness",
        f"20 setups x 2 estimators within 3 MC standard errors "
        f"(worst {worst_z:.2f}), zero-bias and projector identities hold, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# Criterion 3: estimator oracles.
# ---------------------------------------------------------------------------


def test_criterion_estimator_oracles():
    worst_joint = 0.0
    for i in range(10):
        setup = make_setup(80, 5, 6, 45, 1.0, seed=200 + i)
        y = setup.sample_targets(np.random.default_rng(300 + i))
        mask = corrupt_mask(setup.clean_mask, 5, seed=i)
        fitted = masked_fit(setup, y, mask)
        x_bar, a_bar = masked_designs(setup, mask)
        design = np.hstack([x_bar, a_bar])
        joint = np.linalg.solve(design.T @ design, design.T @ y)[:5]
        worst_joint = max(worst_joint, float(np.max(np.abs(fitted - joint))))
    assert worst_joint < 1e-8

    noiseless = make_setup(80, 5, 4, 80, 0.0, seed=55)
    recovered = masked_fit(noiseless, noiseless.noiseless_targets(), noiseless.all_rows)
    ols_err = float(np.max(np.abs(recovered - noiseless.feature_coef)))
    assert ols_err < 1e-8
    report(
        "estimator oracles",
        f"joint least-squares max dev {worst_joint:.2e}, "
        f"noiseless OLS recovery err {ols_err:.2e}",
    )


# ---------------------------------------------------------------------------
# Criterion 4: AUC exactness against pair counting.
# ---------------------------------------------------------------------------


def pair_counting_auc(scores, positives):
    pos, neg = scores[positives], scores[~positives]
    wins = sum(float(p > q) + 0.5 * float(p == q) for p in pos for q in neg)
    return wins / (pos.size * neg.size)


def test_criterion_auc_exactness():
    rng = np.random.default_rng(424242)
    checked = 0
    for _ in range(100):
        n = int(rng.integers(3, 201))
        if rng.random() < 0.5:
            scores = np.round(rng.random(n), 1)  # heavy ties
        else:
            scores = rng.standard_normal(n)
        positives = rng.random(n) < rng.uniform(0.2, 0.8)
        if positives.all() or not positives.any():
            positives[0] = True
            positives[-1] = False
        fast = roc_auc(scores, positives)
        slow = pair_counting_auc(scores, positives)
        assert fast == pytest.approx(slow, abs=1e-12)
        checked += 1
    report("auc exactness", f"{checked} random instances (n <= 200, tie-heavy included)")


# ---------------------------------------------------------------------------
# Criterion 5: qualitative benchmark.
# ---------------------------------------------------------------------------


def test_criterion_qualitative_benchmark(benchmark_runs):
    ce, pidual = benchmark_runs["ce"], benchmark_runs["pidual"]
    ce_rec, pi_rec = ce.record, pidual.record
    ce_best = ce_rec.clean_test_acc[ce.best_epoch]
    pi_best = pi_rec.clean_test_acc[pidual.best_epoch]
    gap = pi_best - ce_best
    ce_degrade = ce_best - ce_rec.clean_test_acc[-1]
    pi_degrade = pi_best - pi_rec.clean_test_acc[-1]

    assert gap >= 0.08, f"gap {gap:.4f} below 8 points"
    assert ce_degrade >= 0.05, f"CE degradation {ce_degrade:.4f} below 5 points"
    assert pi_degrade <= 0.01, f"gated model degraded {pi_degrade:.4f}"
    assert benchmark_runs["seconds"] < 180.0

    # training-dynamics separation
    assert pi_rec.pred_acc_wrong[-1] < 0.15
    assert ce_rec.train_acc_wrong[-1] > 0.5
    gate_gap = pi_rec.mean_gate_wrong[-1] - pi_rec.mean_gate_clean[-1]
    assert gate_gap > 0.3
    report(
        "qualitative benchmark",
        f"gap {gap * 100:.1f}pts (CE {ce_best:.4f} vs gated {pi_best:.4f}), "
        f"CE degrades {ce_degrade * 100:.1f}pts, gated {pi_degrade * 100:+.1f}pts, "
        f"pred-net wrong-fit {pi_rec.pred_acc_wrong[-1]:.3f}, "
        f"CE wrong-fit {ce_rec.train_acc_wrong[-1]:.3f}, gate gap {gate_gap:.2f}, "
        f"{benchmark_runs['seconds']:.0f}s",
    )


# ---------------------------------------------------------------------------
# Criterion 6: detection pattern.
# ---------------------------------------------------------------------------


def test_criterion_detection(benchmark_runs, low_pi_run):
    model = benchmark_runs["pidual"].best_model
    ds_aug = benchmark_runs["ds_aug"]
    gate_auc = detect(model, ds_aug, "gate").auc
    conf_auc = detect(model, ds_aug, "confidence").auc
    assert gate_auc >= 0.95
    assert conf_auc >= 0.90

    low_model = low_pi_run["result"].best_model
    low_ds = low_pi_run["ds_aug"]
    low_gate = detect(low_model, low_ds, "gate").auc
    low_conf = detect(low_model, low_ds, "confidence").auc
    assert low_gate < 0.75
    assert low_conf > low_gate
    report(
        "detection",
        f"informative PI: gate {gate_auc:.3f}, confidence {conf_auc:.3f}; "
        f"uninformative PI: gate {low_gate:.3f} < 0.75 and confidence "
        f"{low_conf:.3f} stays above",
    )


# ---------------------------------------------------------------------------
# Criterion 7: ablation ordering.
# ---------------------------------------------------------------------------


def test_criterion_ablation_ordering(benchmark_runs):
    # benchmark_runs trained these two variants with the same configs already
    reused = {"pidual_full": benchmark_runs["pidual"], "cross_entropy": benchmark_runs["ce"]}
    rows = {name: float(r.record.clean_test_acc[r.best_epoch]) for name, r in reused.items()}
    jobs = [
        job
        for job in ablation_jobs(benchmark_runs["ds"], BENCH_TRAIN, BENCH_MODEL)
        if ABLATION_VARIANTS[job.index][0] not in rows
    ]
    for t in run_trials(jobs):
        assert t.status == "ok", t.error
        rows[ABLATION_VARIANTS[t.index][0]] = t.clean_test_at_best

    full, ce = rows["pidual_full"], rows["cross_entropy"]
    for name, acc in rows.items():
        if name in ("pidual_full", "cross_entropy"):
            continue
        assert acc <= full + 1e-12, f"{name} ({acc:.4f}) beats the full model ({full:.4f})"
        assert acc >= ce - 0.02, f"{name} ({acc:.4f}) more than 2pts below CE ({ce:.4f})"
    assert full - rows["only_random_pi"] >= 0.05
    ordered = ", ".join(f"{k}={v:.4f}" for k, v in sorted(rows.items(), key=lambda kv: -kv[1]))
    report(
        "ablation ordering",
        f"{ordered}; identifier-only PI loses "
        f"{(full - rows['only_random_pi']) * 100:.1f}pts",
    )


def test_ablation_equality_without_informative_pi():
    # with nothing but the random identifier in the PI, the full model and the
    # identifier-only variant should coincide (frozen config, length 32)
    ds = bench_dataset(0.0)
    cfg = replace(BENCH_TRAIN, random_pi_length=32)
    full, _ = run_trial(ds, BENCH_MODEL, cfg)
    only, _ = run_trial(strip_pi(ds), BENCH_MODEL, cfg)
    full_acc = full.record.clean_test_acc[full.best_epoch]
    only_acc = only.record.clean_test_acc[only.best_epoch]
    assert abs(full_acc - only_acc) <= 0.02
    report(
        "uninformative-PI equality",
        f"full {full_acc:.4f} vs identifier-only {only_acc:.4f}",
    )


# ---------------------------------------------------------------------------
# Criterion 8: determinism of CLI artifacts.
# ---------------------------------------------------------------------------


def test_criterion_determinism(tmp_path):
    import json

    from pidual.cli import main

    cfg = tmp_path / "exp.ini"
    cfg.write_text(
        "\n".join(
            [
                "[experiment]", "seed = 3",
                "[data]", "n = 400", "feature_dim = 4", "classes = 3",
                "annotators = 3", "noise_rate = 0.3",
                "noisy_val_fraction = 0.1", "test_fraction = 0.2",
                "[model]", "pred_hidden = 16", "pi_width = 16",
                "[train]", "epochs = 3", "batch_size = 64", "base_lr = 0.1",
                "decay_epochs = ", "random_pi_length = 4",
                "[risk]", "n = 60", "d = 3", "m = 3", "n_clean = 40",
                "sigma = 1.0", "resamples = 500",
            ]
        ),
        encoding="utf-8",
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for sub in ("gen", "train", "risk", "ablate"):
        assert main([sub, "--config", str(cfg), "--out", str(out_a)]) == 0
        assert main([sub, "--config", str(cfg), "--out", str(out_b)]) == 0

    compared = 0
    for path_a in sorted(out_a.rglob("*")):
        if not path_a.is_file():
            continue
        path_b = out_b / path_a.relative_to(out_a)
        if path_a.name == "summary.json":
            doc_a = json.loads(path_a.read_text())
            doc_b = json.loads(path_b.read_text())
            doc_a.pop("wall_clock_seconds")
            doc_b.pop("wall_clock_seconds")
            assert doc_a == doc_b, f"{path_a.name} differs"
        else:
            assert path_a.read_bytes() == path_b.read_bytes(), f"{path_a.name} differs"
        compared += 1
    assert compared >= 10
    report("determinism", f"{compared} artifacts byte-identical across reruns")
