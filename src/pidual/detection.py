"""Post-training wrong-label detection on the train split.

Two scoring methods: the prediction network's confidence on the observed
noisy label (low confidence suggests a wrong label) and the gate output
(high gate suggests a wrong label). Scores are oriented artifact-wide so
that higher means more likely wrong before computing the ROC-AUC, with ties
contributing one half per pair.

``report`` turns one method's scores into its report. ``detect`` scores a
model by one of its passes over the split first; ``train`` hands ``report``
the scores its evaluation pass of the kept epoch already computed. The
module does no file I/O: ``pidual.cli`` writes a report's JSON and histogram.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model as model_mod
from .data import SPLIT_TRAIN, PiDataset
from .errors import ContractError, NumericError
from .model import PiDualModel
from .nn_core import softmax

HISTOGRAM_BINS = 20
METHODS = ("confidence", "gate")


@dataclass
class DetectionReport:
    method: str
    scores: np.ndarray
    auc: float
    bin_edges: np.ndarray
    clean_counts: np.ndarray
    wrong_counts: np.ndarray


def label_confidence(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """The softmax probability of each row's label under the prediction logits."""
    return softmax(logits)[np.arange(labels.shape[0]), labels]


def roc_auc(scores: np.ndarray, positives: np.ndarray) -> float:
    """Probability a random positive outranks a random negative (ties half).

    Rank-statistic implementation: sort once, average ranks within tied
    groups, O(n log n).
    """
    scores = np.asarray(scores, dtype=np.float64)
    positives = np.asarray(positives, dtype=bool)
    if scores.shape != positives.shape or scores.ndim != 1:
        raise ContractError("scores and positives must be equal-length vectors")
    n_pos = int(positives.sum())
    n_neg = positives.size - n_pos
    if n_pos == 0:
        raise ContractError("no positive samples: AUC undefined")
    if n_neg == 0:
        raise ContractError("no negative samples: AUC undefined")
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    # tie group k spans sorted positions first[k]..last[k]; `!=` keeps equal
    # infinities together, which a difference (inf - inf = nan) would split
    breaks = np.flatnonzero(sorted_scores[1:] != sorted_scores[:-1]) + 1
    first = np.concatenate(([0], breaks))
    last = np.concatenate((breaks, [scores.size])) - 1
    ranks = np.empty(scores.size, dtype=np.float64)
    # the average of the group's 1-based ranks
    ranks[order] = np.repeat(0.5 * (first + last) + 1.0, last - first + 1)
    rank_sum = ranks[positives].sum()
    u_stat = rank_sum - n_pos * (n_pos + 1) / 2.0
    return float(u_stat / (n_pos * n_neg))


def score_histogram(
    scores: np.ndarray, wrong: np.ndarray, bins: int = HISTOGRAM_BINS
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fixed uniform bins on [0, 1], counted separately for clean and wrong."""
    edges = np.linspace(0.0, 1.0, bins + 1)
    clean_counts, _ = np.histogram(scores[~wrong], bins=edges)
    wrong_counts, _ = np.histogram(scores[wrong], bins=edges)
    return edges, clean_counts, wrong_counts


def report(method: str, scores: np.ndarray, wrong: np.ndarray) -> DetectionReport:
    """``method``'s report on per-row ``scores`` against the wrong-label mask
    ``wrong``; a score that is not finite raises ``NumericError``. The AUC is
    NaN when the mask lacks clean or wrong rows, for which it does not exist."""
    if method not in METHODS:
        raise ContractError(f"unknown detection method {method!r}")
    if not np.isfinite(scores).all():
        raise NumericError(f"the model's {method} scores on the train split are not all finite")
    wrongness = 1.0 - scores if method == "confidence" else scores
    auc = roc_auc(wrongness, wrong) if 0 < wrong.sum() < wrong.size else math.nan
    edges, clean_counts, wrong_counts = score_histogram(scores, wrong)
    return DetectionReport(method, scores, auc, edges, clean_counts, wrong_counts)


def detect(model: PiDualModel, ds: PiDataset, method: str) -> DetectionReport:
    """Score the train split by one pass of the model and report AUC against
    the wrong-label ground truth: ``confidence`` is the probability the
    prediction network gives each row's observed label, ``gate`` the gate's
    output, which a model without a gate cannot score (``ContractError``)."""
    x, a = ds.eval_inputs(SPLIT_TRAIN)
    if method == "confidence":
        scores = label_confidence(
            model_mod.prediction_logits(model, x), ds.noisy_labels_of(SPLIT_TRAIN)
        )
    elif method == "gate":
        scores = model_mod.gate_values(model, x, a)
    else:
        raise ContractError(f"unknown detection method {method!r}")
    return report(method, scores, ds.wrong_mask_of(SPLIT_TRAIN))
