"""In-memory spans and the per-layer metrics derived from them.

A span is one call of a wrapped function: ``[name, start, end, parent,
attrs]`` with start and end on the ``time.perf_counter`` clock, ``parent``
the index of the span that was open when the call began (-1 for none) and
``attrs`` a small dict such as ``{"rows": 2800}``. Spans are appended in
call order, so every span's children follow it in the list. Span names are
``<layer>.<function>``, the layer being the pidual module the function
lives in.
"""
from __future__ import annotations

import json
import statistics
import time
from functools import wraps
from pathlib import Path

NAME, START, END, PARENT, ATTRS = range(5)

# Functions that push rows through a network; the rows they see outside the
# minibatch steps are the per-epoch evaluation work.
FORWARDS = frozenset(
    "model." + f
    for f in ("forward_train", "prediction_logits", "noise_logits", "gate_values", "forward_infer")
)
# A minibatch step is a forward_train followed by training_loss, then the
# backward pass and one sgd_step call per model component.
STEP_TAIL = frozenset(("model.backward_train", "nn_core.sgd_step"))


class Tracer:
    """Records a span around every call of the functions it wraps."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, fn, name: str, attrs=None):
        spans, open_ = self.spans, self._open

        @wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1, attrs(*args, **kwargs) if attrs else {}]
            open_.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                open_.pop()

        return traced

    def dump(self, path: Path) -> None:
        Path(path).write_text(json.dumps(self.spans), encoding="utf-8")


def load(path: Path) -> list[list]:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def children_of(spans: list[list]) -> list[list[int]]:
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(i)
    return children


def self_time(spans: list[list], children: list[list[int]], i: int) -> float:
    """Duration of span ``i`` minus the part of it that its children cover."""
    start, end = spans[i][START], spans[i][END]
    covered, reach = 0.0, start
    for c in sorted(children[i], key=lambda c: spans[c][START]):
        lo, hi = max(spans[c][START], reach), min(spans[c][END], end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return (end - start) - covered


def minibatch_steps(spans: list[list], children: list[list[int]]) -> list[list[int]]:
    """The spans of each minibatch step, found among the children of ``train``."""
    steps = []
    for t, span in enumerate(spans):
        if span[NAME] != "training.train":
            continue
        kids = children[t]
        k = 0
        while k < len(kids):
            if (
                spans[kids[k]][NAME] == "model.forward_train"
                and k + 1 < len(kids)
                and spans[kids[k + 1]][NAME] == "model.training_loss"
            ):
                j = k + 1
                while j + 1 < len(kids) and spans[kids[j + 1]][NAME] in STEP_TAIL:
                    j += 1
                steps.append(kids[k : j + 1])
                k = j + 1
            else:
                k += 1
    return steps


def _percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[pct - 1]


def layer_metrics(spans: list[list]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced command, as ``name -> (value, unit)``.

    A layer the command never entered reports 0. The grid metrics appear only
    when the command ran a grid.
    """
    children = children_of(spans)

    def dur(i: int) -> float:
        return spans[i][END] - spans[i][START]

    def named(name: str) -> list[int]:
        return [i for i, span in enumerate(spans) if span[NAME] == name]

    def total(name: str) -> float:
        return sum(dur(i) for i in named(name))

    def mean(name: str) -> float:
        found = named(name)
        return total(name) / len(found) if found else 0.0

    steps = minibatch_steps(spans, children)
    n_steps = len(steps)
    in_step = {i for step in steps for i in step}
    step_durations = [spans[s[-1]][END] - spans[s[0]][START] for s in steps]

    def per_step(name: str) -> float:
        if not n_steps:
            return 0.0
        return sum(dur(i) for i in in_step if spans[i][NAME] == name) / n_steps

    trains = named("training.train")
    train_s = sum(dur(i) for i in trains)
    epochs = sum(spans[i][ATTRS]["epochs"] for i in trains)
    eval_s = train_s - sum(step_durations)

    def inside_train(i: int) -> bool:
        # Outermost forwards only, so a forward called by another is counted once.
        p = spans[i][PARENT]
        while p >= 0:
            if spans[p][NAME] in FORWARDS:
                return False
            if spans[p][NAME] == "training.train":
                return True
            p = spans[p][PARENT]
        return False

    eval_rows = sum(
        spans[i][ATTRS]["rows"]
        for i, span in enumerate(spans)
        if span[NAME] in FORWARDS and i not in in_step and inside_train(i)
    )
    detect_ms = {"gate": 0.0, "confidence": 0.0}
    for i in named("detection.detect"):
        detect_ms[spans[i][ATTRS]["method"]] += 1000.0 * dur(i)
    mc = named("linear_risk.monte_carlo_risk")
    resamples = sum(spans[i][ATTRS]["resamples"] for i in mc)
    loads = named("model.load_checkpoint")
    mains = named("cli.main")
    trial_s = mean("training.run_trial")

    metrics = {
        "data.build_dataset_ms": (1000.0 * total("data.build_dataset"), "ms"),
        "data.augment_random_pi_ms": (1000.0 * total("data.augment_random_pi"), "ms"),
        "nn_core.sgd_step_ms_per_step": (1000.0 * per_step("nn_core.sgd_step"), "ms"),
        "nn_core.sgd_step_calls_per_step": (
            len(named("nn_core.sgd_step")) / n_steps if n_steps else 0.0,
            "calls/step",
        ),
        "model.forward_train_step_ms": (1000.0 * per_step("model.forward_train"), "ms"),
        "model.training_loss_ms": (1000.0 * per_step("model.training_loss"), "ms"),
        "model.backward_train_ms": (1000.0 * per_step("model.backward_train"), "ms"),
        "model.eval_forward_rows_per_epoch": (eval_rows / epochs if epochs else 0.0, "rows/epoch"),
        "model.save_checkpoint_ms": (1000.0 * total("model.save_checkpoint"), "ms"),
        "model.load_checkpoint_ms": (1000.0 * total("model.load_checkpoint"), "ms"),
        "model.checkpoint_bytes": (float(spans[loads[-1]][ATTRS]["bytes"]) if loads else 0.0, "B"),
        "training.step_ms_p50": (1000.0 * _percentile(step_durations, 50), "ms"),
        "training.step_ms_p99": (1000.0 * _percentile(step_durations, 99), "ms"),
        "training.steps": (float(n_steps), "count"),
        "training.epoch_eval_ms": (1000.0 * eval_s / epochs if epochs else 0.0, "ms"),
        "training.eval_share": (eval_s / train_s if train_s else 0.0, "ratio"),
        "training.trial_s": (trial_s, "s"),
        "detection.detect_gate_ms": (detect_ms["gate"], "ms"),
        "detection.detect_confidence_ms": (detect_ms["confidence"], "ms"),
        "detection.roc_auc_ms": (1000.0 * mean("detection.roc_auc"), "ms"),
        "linear_risk.monte_carlo_ms_per_1k": (
            1000.0 * sum(dur(i) for i in mc) / (resamples / 1000.0) if resamples else 0.0,
            "ms",
        ),
        "linear_risk.monte_carlo_calls": (float(len(mc)), "count"),
        "linear_risk.compare_risks_ms": (1000.0 * total("linear_risk.compare_risks"), "ms"),
        "linear_risk.make_setup_ms": (1000.0 * total("linear_risk.make_setup"), "ms"),
        "cli.svg_ms": (1000.0 * (total("svgplot.line_chart") + total("svgplot.paired_histogram")), "ms"),
        "cli.config_ms": (1000.0 * total("config.load_experiment_config"), "ms"),
        "cli.self_s": (sum((self_time(spans, children, i) for i in mains), 0.0), "s"),
    }
    grids = named("training.run_grid")
    if grids:
        # Trials run in worker processes whose spans are not collected, so
        # the parent's serial re-run of the selected trial stands for the
        # cost of one trial.
        run_grid_s = sum(dur(i) for i in grids)
        points = sum(spans[i][ATTRS]["points"] for i in grids)
        metrics["training.run_grid_s"] = (run_grid_s, "s")
        metrics["training.grid_speedup"] = (points * trial_s / run_grid_s, "ratio")
    return metrics
