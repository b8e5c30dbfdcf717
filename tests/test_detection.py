import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pidual import nn_core
from pidual.cli import _detection_outputs
from pidual.data import SynthConfig, generate_synthetic
from pidual.detection import detect, report, roc_auc, score_histogram
from pidual.errors import ContractError, NumericError
from pidual.model import ModelConfig


def dataset(n=60, seed=0, noise=0.3):
    return generate_synthetic(SynthConfig(n=n, feature_dim=3, num_classes=4, noise_rate=noise, seed=seed))


def model_for(ds, seed=0, pred_hidden=(8,)):
    cfg = ModelConfig(pred_hidden=pred_hidden, pi_width=8)
    return cfg.build(ds.feature_dim, ds.pi_dim, ds.num_classes, seed=seed)


def constant_logits(ds, bias):
    """A model whose one-layer prediction network reads no feature: its
    logits are ``bias`` on every row."""
    model = model_for(ds, pred_hidden=())
    model.prediction.weights[0][...] = 0.0
    model.prediction.biases[0][...] = bias
    return model


def test_confidence_uniform_logits():
    ds = dataset()
    model = constant_logits(ds, 0.0)
    scores = detect(model, ds, "confidence").scores
    assert np.allclose(scores, 1.0 / ds.num_classes)


def test_confidence_saturated_on_observed_label():
    ds = dataset(n=20)
    # a huge logit on whatever label is observed: route features through zero
    # weights and put mass on class 0, then restrict to samples labeled 0
    model = constant_logits(ds, [60.0, 0.0, 0.0, 0.0])
    scores = detect(model, ds, "confidence").scores
    observed = ds.noisy_labels_of("train")
    assert np.all(scores[observed == 0] > 1.0 - 1e-12)


def test_confidence_matches_scalar_recomputation():
    ds = dataset(n=4, seed=3)
    model = model_for(ds, seed=3)
    scores = detect(model, ds, "confidence").scores
    x, _ = ds.eval_inputs("train")
    labels = ds.noisy_labels_of("train")
    for i in range(4):
        logits = nn_core.MlpWorkspace(model.prediction, 1).forward(x[i][None])[0]
        exps = [math.exp(v - max(logits)) for v in logits]
        expected = exps[labels[i]] / sum(exps)
        assert abs(scores[i] - expected) < 1e-12


def test_gate_scores_forced_low_and_symmetric():
    ds = dataset(n=30)
    model = model_for(ds)
    model.gate_head.biases[-1][0] = -20.0
    assert np.all(detect(model, ds, "gate").scores < 1e-6)
    model.gate_head.weights[-1][...] = 0.0  # the gate's output layer reads nothing
    model.gate_head.biases[-1][...] = 0.0
    assert np.allclose(detect(model, ds, "gate").scores, 0.5)


def test_gate_scores_match_scalar_sigmoid():
    ds = dataset(n=5, seed=7)
    model = model_for(ds, seed=7)
    scores = detect(model, ds, "gate").scores
    x, a = ds.eval_inputs("train")
    for i in range(5):
        h = nn_core.MlpWorkspace(model.pi_trunk, 1).forward(a[i][None])
        out = nn_core.MlpWorkspace(model.gate_head, 1).forward(h)
        assert abs(scores[i] - out[0, 0]) < 1e-12


def test_roc_auc_perfect_separation():
    assert roc_auc(np.array([0.9, 0.8, 0.2, 0.1]), np.array([True, True, False, False])) == 1.0


def test_roc_auc_all_ties():
    assert roc_auc(np.full(6, 0.5), np.array([1, 0, 1, 0, 1, 0], dtype=bool)) == 0.5


def brute_force_auc(scores, positives):
    pos = scores[positives]
    neg = scores[~positives]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def loop_rank_auc(scores, positives):
    """The rank-sum AUC with a Python loop over every score: the oracle for
    the vectorised tie grouping in ``roc_auc``."""
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    ranks = np.empty(scores.size, dtype=np.float64)
    i = 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0  # average of 1-based ranks
        i = j + 1
    n_pos = int(positives.sum())
    n_neg = positives.size - n_pos
    u_stat = ranks[positives].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u_stat / (n_pos * n_neg))


@pytest.mark.parametrize(
    "make_scores",
    [
        lambda rng, n: rng.random(n),
        lambda rng, n: np.round(rng.random(n), 1),
        lambda rng, n: rng.integers(0, 3, n).astype(np.float64),
        lambda rng, n: np.full(n, 0.25),
        lambda rng, n: rng.choice([-np.inf, 0.0, np.inf], n),
    ],
    ids=["continuous", "tenths", "three_values", "all_tied", "infinities"],
)
@pytest.mark.parametrize("n", [2, 3, 97, 2880])
def test_roc_auc_equals_loop_oracle_exactly(make_scores, n):
    rng = np.random.default_rng(n)
    scores = make_scores(rng, n)
    positives = rng.random(n) < 0.4
    positives[0], positives[-1] = True, False
    assert roc_auc(scores, positives) == loop_rank_auc(scores, positives)


def test_roc_auc_matches_pair_counting_example():
    scores = np.array([0.6, 0.4, 0.5, 0.3])
    positives = np.array([True, False, True, False])
    assert roc_auc(scores, positives) == brute_force_auc(scores, positives)


@pytest.mark.parametrize("seed", range(10))
def test_roc_auc_equals_pair_counting_on_random_instances(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 200))
    # quantized scores make ties frequent
    scores = np.round(rng.random(n), 1)
    positives = rng.random(n) < 0.4
    if positives.all() or not positives.any():
        positives[0] = True
        positives[-1] = False
    assert roc_auc(scores, positives) == pytest.approx(brute_force_auc(scores, positives), abs=1e-12)
    assert roc_auc(scores, positives) == loop_rank_auc(scores, positives)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_roc_auc_invariant_under_monotone_transform(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 60))
    scores = rng.standard_normal(n)
    positives = rng.random(n) < 0.5
    if positives.all() or not positives.any():
        positives[0] = True
        positives[-1] = False
    base = roc_auc(scores, positives)
    transformed = roc_auc(np.exp(2.0 * scores) + 3.0, positives)
    assert abs(base - transformed) < 1e-12
    # complement symmetry with tie handling
    assert abs(base + roc_auc(scores, ~positives) - 1.0) < 1e-12


def test_roc_auc_degenerate_classes():
    with pytest.raises(ContractError, match="positive"):
        roc_auc(np.array([0.1, 0.2]), np.array([False, False]))
    with pytest.raises(ContractError, match="negative"):
        roc_auc(np.array([0.1, 0.2]), np.array([True, True]))


def test_score_histogram_counts():
    scores = np.array([0.01, 0.99, 0.5, 0.5])
    wrong = np.array([False, True, False, True])
    edges, clean_counts, wrong_counts = score_histogram(scores, wrong)
    assert edges.shape == (21,)
    assert clean_counts.sum() == 2 and wrong_counts.sum() == 2


def test_detect_report_round_trip(tmp_path):
    ds = dataset(n=80, seed=9)
    model = model_for(ds, seed=9)
    for method in ("confidence", "gate"):
        report = detect(model, ds, method)
        assert 0.0 <= report.auc <= 1.0
        assert report.scores.shape[0] == ds.split_indices("train").size
        _detection_outputs(tmp_path, [report])
        doc = json.loads((tmp_path / f"detection_{method}.json").read_text())
        assert doc["method"] == method
        assert doc["auc"] == report.auc
        assert len(doc["clean_counts"]) == 20


@pytest.mark.parametrize("method", ["confidence", "gate"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_report_rejects_a_score_that_is_not_finite(method, bad):
    # an AUC and histograms over the finite scores alone would pass for a result
    wrong = np.array([False, True, False, True])
    message = f"the model's {method} scores on the train split are not all finite"
    with pytest.raises(NumericError, match=message):
        report(method, np.array([0.1, bad, 0.7, 0.9]), wrong)
    assert report(method, np.array([0.1, 0.3, 0.7, 0.9]), wrong).clean_counts.sum() == 2


@pytest.mark.parametrize("wrong_rows", [0, 4])
def test_report_without_clean_or_wrong_rows_has_a_null_auc(tmp_path, wrong_rows):
    # the AUC of a mask with one class does not exist: NaN in the report, null in its JSON
    wrong = np.arange(4) < wrong_rows
    for method in ("confidence", "gate"):
        got = report(method, np.array([0.1, 0.3, 0.7, 0.9]), wrong)
        assert math.isnan(got.auc)
        assert (got.clean_counts.sum(), got.wrong_counts.sum()) == (4 - wrong_rows, wrong_rows)
        _detection_outputs(tmp_path, [got])
        doc = json.loads((tmp_path / f"detection_{method}.json").read_text())
        assert doc["auc"] is None and doc["num_scores"] == 4


def test_detect_unknown_method():
    ds = dataset(n=10)
    with pytest.raises(ContractError):
        detect(model_for(ds), ds, "entropy")
