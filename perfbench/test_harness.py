"""Self-tests of the benchmark harness on tiny configs that run in seconds.

    python3 -m pytest perfbench/test_harness.py -q
"""
from __future__ import annotations

import json
import re
import signal
import sys
import time

import pytest

import run as bench
import spans

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
CONTRACT = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = {
    "train": """
[data]
n = 400
feature_dim = 4
classes = 3
annotators = 4
noise_rate = 0.3
noisy_val_fraction = 0.1
test_fraction = 0.2
[model]
pred_hidden = 16
pi_width = 8
[train]
epochs = 3
batch_size = 64
decay_epochs = 2
random_pi_length = 2
""",
    "risk": """
[risk]
n = 60
d = 4
m = 4
n_clean = 40
resamples = 20000
sweep = corruption
sweep_values = 0,2
""",
}


def _span(name, start, end, parent, **attrs):
    return [name, start, end, parent, attrs]


def test_self_time_subtracts_the_union_of_children():
    trace = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("a.child", 2.0, 3.0, 1),
        _span("b", 3.0, 6.0, 0),  # overlaps a: the union counts once
        _span("c", 9.0, 12.0, 0),  # runs past its parent: clipped
    ]
    children = spans.children_of(trace)
    assert spans.self_time(trace, children, 0) == pytest.approx(10.0 - 5.0 - 1.0)
    assert spans.self_time(trace, children, 1) == pytest.approx(2.0)
    assert spans.self_time(trace, children, 2) == pytest.approx(1.0)
    assert spans.layer_metrics(trace)["cli.self_s"] == (pytest.approx(4.0), "s")


def test_steps_and_evaluation_rows_come_from_the_children_of_train():
    step = ("model.forward_train", "model.training_loss", "model.backward_train", "nn_core.sgd_step", "nn_core.sgd_step")
    trace = [_span("training.train", 0.0, 0.0, -1, epochs=2)]
    t = 0.0
    for epoch in range(2):
        for _ in range(2):
            for name in step:
                trace.append(_span(name, t, t + 1.0, 0, rows=8))
                t += 1.0
        trace.append(_span("training.evaluate", t, t + 0.5, 0))
        trace.append(_span("model.prediction_logits", t, t + 0.5, len(trace) - 1, rows=30))
        t += 0.5
    trace[0][spans.END] = t
    m = spans.layer_metrics(trace)
    assert m["training.steps"][0] == 4
    assert m["nn_core.sgd_step_calls_per_step"][0] == 2
    assert m["nn_core.sgd_step_ms_per_step"][0] == pytest.approx(2000.0)
    assert m["training.step_ms_p50"][0] == pytest.approx(5000.0)
    assert m["model.eval_forward_rows_per_epoch"][0] == 30
    assert m["training.epoch_eval_ms"][0] == pytest.approx(500.0)
    assert m["training.eval_share"][0] == pytest.approx(1.0 / 21.0)


def _check_names(result, contract_key):
    metrics = result["metrics"]
    for name, m in metrics.items():
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(m["unit"]), (name, m)
        assert isinstance(m["value"], float), (name, m)
    assert set(metrics) == {m["name"] for m in CONTRACT[contract_key]}
    for m in CONTRACT[contract_key]:
        assert metrics[m["name"]]["unit"] == m["unit"]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("command", ["train", "risk"])
def test_tiny_workload_is_correct_and_emits_every_metric(tmp_path, command, trace):
    config = tmp_path / f"{command}.ini"
    config.write_text(TINY[command], encoding="utf-8")
    w = bench.Workload(f"tiny_{command}", command, str(config))
    result, report = bench.run_workload(w, 7, 0.1, trace, tmp_path / "work")
    assert (result["correct"], result["failed"], report["problems"]) == (True, 0, [])
    assert result["attempted"] == len(report["runs"]) >= 1 + trace
    _check_names(result, "per_layer" if trace else "end_to_end")
    if not trace:
        # Every command and set-up probe lies between two calibrations.
        assert len(report["speed_factors"]) == len(report["setup_s_runs"]) >= len(report["runs"])
        assert all(f > 0 for f in report["speed_factors"])
    if trace and command == "train":
        assert result["metrics"]["training.steps"]["value"] == 3 * 5  # 280 rows / 64
        assert result["metrics"]["nn_core.sgd_step_calls_per_step"]["value"] > 0


def test_missing_config_is_a_counted_failure(tmp_path):
    w = bench.Workload("missing", "train", str(tmp_path / "absent.ini"))
    result, report = bench.run_workload(w, 7, 0.1, False, tmp_path / "work")
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert report["failed_share"] == 1.0
    assert all(run["exit_code"] == 2 for run in report["runs"])
    _check_names(result, "end_to_end")


def test_a_command_past_its_deadline_is_killed(tmp_path):
    start = time.monotonic()
    _, _, _, code = bench.timed([sys.executable, "-c", "import time; time.sleep(60)"], tmp_path / "log", 0.5)
    assert code == -signal.SIGKILL
    assert time.monotonic() - start < 30
