import base64
import copy
import csv
import functools
import json
import math
import os
import resource
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pidual
from pidual import cli
from pidual import detection
from pidual import model as model_mod
from pidual import training
from pidual.cli import main
from pidual.config import FIELDS, build_dataset, load_experiment_config
from pidual.data import SPLIT_CLEAN_TEST, SPLIT_NOISY_VAL, SPLIT_TRAIN, load_csv
from pidual.model import ModelConfig, load_checkpoint, save_checkpoint
from pidual.errors import ConfigError, DataFormatError
from pidual.linear_risk import MAX_FLOATS
from pidual.training import GRID_AXES, TrainConfig, TrainRecord, evaluate
from conftest import poison_gradient

BASE_SECTIONS = {
    "experiment": {"seed": "11"},
    "data": {
        "n": "240",
        "feature_dim": "4",
        "classes": "3",
        "annotators": "3",
        "noise_rate": "0.3",
        "noisy_val_fraction": "0.1",
        "test_fraction": "0.2",
    },
    "model": {"pred_hidden": "8", "pi_width": "8"},
    "train": {
        "epochs": "2",
        "batch_size": "32",
        "base_lr": "0.1",
        "decay_epochs": "",
        "random_pi_length": "2",
    },
    "risk": {
        "n": "60",
        "d": "3",
        "m": "3",
        "n_clean": "40",
        "sigma": "1.0",
        "resamples": "200",
    },
}


def write_config(tmp_path, overrides=None, name="exp.ini", out=None):
    out_dir = Path(out or (tmp_path / "run"))
    sections = {sec: dict(vals) for sec, vals in BASE_SECTIONS.items()}
    sections["output"] = {"directory": str(out_dir)}
    for sec, vals in (overrides or {}).items():
        sections.setdefault(sec, {}).update(vals)
    lines = []
    for sec, vals in sections.items():
        lines.append(f"[{sec}]")
        lines.extend(f"{k} = {v}" for k, v in vals.items())
        lines.append("")
    path = tmp_path / name
    path.write_text("\n".join(lines), encoding="utf-8")
    return path, out_dir


def read(path):
    return Path(path).read_bytes()


def test_gen_writes_dataset_and_sidecar(tmp_path):
    cfg_path, out = write_config(tmp_path)
    assert main(["gen", "--config", str(cfg_path)]) == 0
    ds = load_csv(out / "dataset.csv")
    assert ds.n == 240 and ds.feature_dim == 4
    meta = json.loads((out / "dataset_meta.json").read_text())
    assert meta["n"] == 240
    assert 0.2 < meta["realized_noise_rate"] < 0.4


def test_gen_byte_identical_reruns(tmp_path):
    cfg_path, out = write_config(tmp_path)
    main(["gen", "--config", str(cfg_path)])
    first = read(out / "dataset.csv"), read(out / "dataset_meta.json")
    main(["gen", "--config", str(cfg_path)])
    second = read(out / "dataset.csv"), read(out / "dataset_meta.json")
    assert first == second


def test_gen_zero_noise_sidecar(tmp_path):
    cfg_path, out = write_config(tmp_path, overrides={"data": {"noise_rate": "0.0"}})
    main(["gen", "--config", str(cfg_path)])
    meta = json.loads((out / "dataset_meta.json").read_text())
    assert meta["realized_noise_rate"] == 0.0


def test_train_smoke_artifacts(tmp_path):
    cfg_path, out = write_config(tmp_path)
    assert main(["train", "--config", str(cfg_path)]) == 0
    record = TrainRecord.from_csv(out / "trial_000_record.csv")
    assert len(record) == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["selected_trial"] == 0
    assert set(summary["detection_auc"]) == {"confidence", "gate"}
    assert (out / "best_checkpoint.json").exists()
    assert (out / "selected_dynamics.svg").read_text().startswith("<svg")
    for method in ("confidence", "gate"):
        doc = json.loads((out / f"detection_{method}.json").read_text())
        assert 0.0 <= doc["auc"] <= 1.0


def test_train_on_a_split_without_wrong_labels_writes_null_aucs(tmp_path, capsys):
    # no wrong label in the train split: the AUCs do not exist, which is null
    # in summary.json and in the detection JSON, not a failure after training
    cfg_path, out = write_config(tmp_path, overrides={"data": {"noise_rate": "0"}})
    assert main(["train", "--config", str(cfg_path)]) == 0, capsys.readouterr().err
    summary = json.loads(
        (out / "summary.json").read_text(), parse_constant=lambda c: pytest.fail(f"{c} in JSON")
    )
    assert summary["detection_auc"] == {"confidence": None, "gate": None}
    for method in ("confidence", "gate"):
        doc = json.loads((out / f"detection_{method}.json").read_text())
        assert doc["auc"] is None and sum(doc["wrong_counts"]) == 0
        assert (out / f"detection_{method}_hist.svg").read_text().startswith("<svg")


def test_train_grid_and_summary_winner(tmp_path):
    grid = {"grid": {"base_lr": "0.1,0.02", "random_pi_length": "0,2"}}
    cfg_path, out = write_config(tmp_path, overrides=grid)
    assert main(["train", "--config", str(cfg_path)]) == 0
    records = sorted(out.glob("trial_*_record.csv"))
    assert len(records) == 4
    summary = json.loads((out / "summary.json").read_text())
    assert len(summary["trials"]) == 4
    ranked = [t["best_noisy_val_acc"] for t in summary["trials"] if t["status"] == "ok"]
    assert ranked == sorted(ranked, reverse=True)
    assert summary["selected_trial"] == summary["trials"][0]["index"]


def test_train_reports_detection_without_a_forward_pass_of_its_own(tmp_path, monkeypatch):
    # the scores come back from the evaluation process; the forked child
    # inherits this patch too, and never calls detect either
    def no_detect(*args, **kwargs):
        raise AssertionError("train called detection.detect")

    monkeypatch.setattr(detection, "detect", no_detect)
    cfg_path, out = write_config(tmp_path)
    assert main(["train", "--config", str(cfg_path)]) == 0
    for method in ("confidence", "gate"):
        doc = json.loads((out / f"detection_{method}.json").read_text())
        assert doc["method"] == method and 0.0 <= doc["auc"] <= 1.0
        assert (out / f"detection_{method}_hist.svg").read_text().startswith("<svg")


def test_train_with_a_score_that_is_not_finite_is_one_numeric_failure_line(
    tmp_path, monkeypatch, capsys
):
    # the evaluation process, forked after this patch, returns one NaN
    # confidence per epoch; train's report must reject it as detect's does
    real = detection.label_confidence

    def one_nan(logits, labels):
        scores = real(logits, labels)
        scores[1] = math.nan
        return scores

    monkeypatch.setattr(detection, "label_confidence", one_nan)
    cfg_path, out = write_config(tmp_path)
    capsys.readouterr()
    assert main(["train", "--config", str(cfg_path)]) == 3
    assert capsys.readouterr().err == (
        "numeric failure: the model's confidence scores on the train split are not all finite\n"
    )
    assert not out.exists()


def test_grid_trains_each_point_once_and_saves_the_winner(tmp_path, monkeypatch):
    calls = []
    real_train = training.train

    def counting_train(*args, **kwargs):
        calls.append(1)
        return real_train(*args, **kwargs)

    monkeypatch.setattr(training, "train", counting_train)
    cfg_path, out = write_config(tmp_path, overrides={"grid": {"base_lr": "0.1,0.02"}})
    assert main(["train", "--config", str(cfg_path)]) == 0
    assert len(calls) == 2
    winner = json.loads((out / "summary.json").read_text())["trials"][0]
    ds = build_dataset(load_experiment_config(cfg_path))
    model = load_checkpoint(out / "best_checkpoint.json")
    acc = evaluate(model, ds, SPLIT_CLEAN_TEST, "clean", "prediction")
    assert acc == winner["clean_test_at_best"]


def test_train_without_early_stopping_reports_the_saved_model(tmp_path, capsys):
    cfg_path, out = write_config(
        tmp_path, overrides={"train": {"epochs": "4", "early_stopping": "false"}}
    )
    assert main(["train", "--config", str(cfg_path)]) == 0
    printed = capsys.readouterr().out.strip()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["selected_epoch"] == 3
    assert printed.endswith("(epoch 3)")
    ds = build_dataset(load_experiment_config(cfg_path))
    model = load_checkpoint(out / "best_checkpoint.json")
    acc = evaluate(model, ds, SPLIT_CLEAN_TEST, "clean", "prediction")
    assert f"clean_test={acc:.4f} " in printed
    assert acc == TrainRecord.from_csv(out / "trial_000_record.csv").clean_test_acc[3]


def test_train_rerun_metrics_identical(tmp_path):
    cfg_path, out = write_config(tmp_path)
    main(["train", "--config", str(cfg_path)])
    first_record = read(out / "trial_000_record.csv")
    first_summary = json.loads((out / "summary.json").read_text())
    main(["train", "--config", str(cfg_path)])
    assert read(out / "trial_000_record.csv") == first_record
    second_summary = json.loads((out / "summary.json").read_text())
    first_summary.pop("wall_clock_seconds")
    second_summary.pop("wall_clock_seconds")
    assert first_summary == second_summary


def label_free_config(tmp_path):
    """A config over gen's dataset without its clean_label and split columns,
    and with no noisy-validation or clean-test split, so every score is NaN."""
    gen_cfg, gen_out = write_config(tmp_path, name="gen.ini", out=tmp_path / "gen")
    assert main(["gen", "--config", str(gen_cfg)]) == 0
    with (gen_out / "dataset.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))
    keep = [i for i, c in enumerate(rows[0]) if c not in ("clean_label", "split")]
    stripped = tmp_path / "label_free.csv"
    with stripped.open("w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([r[i] for i in keep] for r in rows)
    data = {"source": "csv", "path": str(stripped), "noisy_val_fraction": "0", "test_fraction": "0"}
    return write_config(tmp_path, overrides={"data": data})


def strict_json(path):
    """The JSON document at ``path``; NaN and Infinity are not JSON (RFC 8259)."""

    def reject(constant):
        raise ValueError(f"{path.name} holds {constant}")

    return json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)


def test_train_without_clean_labels_or_eval_splits_writes_every_artifact(tmp_path, capsys):
    cfg_path, out = label_free_config(tmp_path)
    capsys.readouterr()
    assert main(["train", "--config", str(cfg_path)]) == 0
    assert capsys.readouterr().err == ""
    artifacts = ["best_checkpoint.json", "selected_dynamics.svg", "summary.json"]
    assert sorted(p.name for p in out.iterdir()) == [*artifacts, "trial_000_record.csv"]
    assert strict_json(out / "summary.json")["trials"][0]["clean_test_final"] is None
    svg = (out / "selected_dynamics.svg").read_text()
    assert "nan" not in svg
    # every series is NaN, and the legend still lists the model's six
    assert svg.count("noise net, ") == 2 and "<polyline" not in svg


def test_train_without_a_noise_net_plots_no_noise_net_series(tmp_path, capsys):
    cfg_path, out = write_config(tmp_path, overrides={"model": {"use_noise_net": "false"}})
    assert main(["train", "--config", str(cfg_path)]) == 0
    svg = (out / "selected_dynamics.svg").read_text()
    assert "noise net" not in svg
    assert svg.count("pred net, ") == 2 and svg.count("<polyline") == 4


def read_ablation(out):
    with (out / "ablation.csv").open(newline="") as fh:
        return list(csv.DictReader(fh))


def test_ablate_summary_is_strict_json_when_the_scores_are_nan(tmp_path, capsys):
    cfg_path, out = label_free_config(tmp_path)
    capsys.readouterr()
    assert main(["ablate", "--config", str(cfg_path)]) == 0
    for variant in strict_json(out / "summary.json")["variants"]:
        assert isinstance(variant["best_epoch"], int)
        for key in ("best_noisy_val_acc", "clean_test_at_best", "clean_test_final"):
            assert variant[key] is None, (variant["variant"], key)
    # no variant has a score to rank by: all are unranked, listed by name
    rows = read_ablation(out)
    names = sorted(training.ABLATION_VARIANTS)
    assert [row["variant"] for row in rows] == names
    assert all(row["rank"] == "" for row in rows)
    printed = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in printed] == names


def test_ablate_trains_its_rows_whatever_the_model_flags_say(tmp_path, capsys):
    # each row is a whole architecture: [model]'s four ablation flags change no
    # record, and only a model with a noise network fills the noise columns
    records = {}
    for name, flags in (("default", {}), ("pi_and_x", {"noise_input": "pi_and_x"}),
                        ("ce", {"use_gate": "false", "use_noise_net": "false"})):
        cfg_path, out = write_config(tmp_path, overrides={"model": flags}, name=f"{name}.ini",
                                     out=tmp_path / name)
        assert main(["ablate", "--config", str(cfg_path)]) == 0
        records[name] = {
            variant: (out / f"ablation_{variant}_record.csv").read_bytes()
            for variant in training.ABLATION_VARIANTS
        }
    # every row trains under the config's one seed: the default flags are
    # pidual_full's, so train's single trial is that row
    assert main(["train", "--config", str(tmp_path / "default.ini"), "--out",
                 str(tmp_path / "train")]) == 0
    capsys.readouterr()
    assert (tmp_path / "train" / "trial_000_record.csv").read_bytes() == (
        records["default"]["pidual_full"]
    )
    assert records["pi_and_x"] == records["default"] == records["ce"]
    assert records["pi_and_x"]["pidual_full"] != records["pi_and_x"]["noise_with_features"]
    for variant, (flags, _) in training.ABLATION_VARIANTS.items():
        record = TrainRecord.from_csv(tmp_path / "default" / f"ablation_{variant}_record.csv")
        noise = np.concatenate((record.noise_acc_clean, record.noise_acc_wrong))
        assert (np.isfinite(noise) if flags.use_noise_net else np.isnan(noise)).all(), variant


def test_ablate_ranks_the_scored_variants_before_the_unscored(tmp_path, monkeypatch, capsys):
    unscored = {"pidual_full": math.nan, "gate_prob_space": math.inf}

    def run_grid(*args, **kwargs):
        outcomes = training.run_grid(*args, **kwargs)
        for t in outcomes:
            if t.params["variant"] in unscored:
                t.result.record.clean_test_acc[t.result.best_epoch] = unscored[t.params["variant"]]
        return outcomes

    monkeypatch.setattr(cli, "run_grid", run_grid)
    cfg_path, out = write_config(tmp_path)
    capsys.readouterr()
    assert main(["ablate", "--config", str(cfg_path)]) == 0
    rows = read_ablation(out)
    scored, last = rows[:5], rows[5:]
    assert [row["rank"] for row in scored] == ["1", "2", "3", "4", "5"]
    scores = [(-float(row["clean_test_at_best"]), row["variant"]) for row in scored]
    assert scores == sorted(scores)
    assert [(row["rank"], row["variant"]) for row in last] == [
        ("", "gate_prob_space"), ("", "pidual_full")
    ]
    printed = capsys.readouterr().out.splitlines()
    assert [line.split(" ")[0] for line in printed] == [
        "1.", "2.", "3.", "4.", "5.", "gate_prob_space:", "pidual_full:"
    ]


def test_detect_cli_and_missing_clean_labels(tmp_path):
    cfg_path, out = write_config(tmp_path)
    main(["gen", "--config", str(cfg_path)])
    main(["train", "--config", str(cfg_path)])
    det_out = tmp_path / "det"
    code = main(
        [
            "detect",
            "--checkpoint", str(out / "best_checkpoint.json"),
            "--data", str(out / "dataset.csv"),
            "--methods", "confidence,gate",
            "--out", str(det_out),
        ]
    )
    # the checkpoint was trained with random PI appended, the raw dataset
    # lacks those columns: gate needs the training-time PI, so detect rejects
    # the input before scoring
    assert code == 4

    stripped = out / "noclean.csv"
    ds = load_csv(out / "dataset.csv")
    lines = (out / "dataset.csv").read_text().splitlines()
    header = lines[0].split(",")
    keep = [i for i, c in enumerate(header) if c != "clean_label"]
    stripped.write_text(
        "\n".join(",".join(l.split(",")[i] for i in keep) for l in lines) + "\n"
    )
    code = main(
        [
            "detect",
            "--checkpoint", str(out / "best_checkpoint.json"),
            "--data", str(stripped),
            "--methods", "confidence",
            "--out", str(det_out),
        ]
    )
    assert code == 2


def run_module(args, env_updates=None, drop=(), **kwargs):
    """``python -m`` in a fresh interpreter that imports pidual from this checkout."""
    src = str(Path(pidual.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env.update(env_updates or {})
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, **kwargs
    )


def test_config_errors_leave_no_output_directory(tmp_path):
    cfg_path, out = write_config(tmp_path, overrides={"train": {"epochs": "0"}})
    proc = run_module(["-m", "pidual", "train", "--config", str(cfg_path)])
    assert proc.returncode == 2
    assert proc.stderr == "config error: train.epochs: must be >= 1, got 0\n"
    assert not out.exists()

    # the dataset is built before the output directory is made
    missing = {"data": {"source": "csv", "path": str(tmp_path / "missing.csv")}}
    csv_cfg, csv_out = write_config(tmp_path, overrides=missing, name="csv.ini")
    for command in ("gen", "train", "ablate"):
        proc = run_module(["-m", "pidual", command, "--config", str(csv_cfg)])
        assert proc.returncode == 4, (command, proc.stderr)
        assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("i/o failure: cannot open")
        assert not csv_out.exists(), command

    good_cfg, good_out = write_config(tmp_path, name="good.ini", out=tmp_path / "good")
    assert main(["gen", "--config", str(good_cfg)]) == 0
    ckpt = tmp_path / "ckpt.json"
    save_checkpoint(ModelConfig(pred_hidden=(4,), pi_width=4).build(4, 3, 3, seed=0), ckpt)
    det_out = tmp_path / "det"
    proc = run_module(
        [
            "-m", "pidual", "detect", "--methods", "confidence,entropy",
            "--checkpoint", str(ckpt),
            "--data", str(good_out / "dataset.csv"),
            "--out", str(det_out),
        ]
    )
    assert proc.returncode == 2
    assert proc.stderr == "config error: unknown detection method 'entropy'\n"
    assert not det_out.exists()


@pytest.mark.parametrize("missing", ["flags", "pred_hidden", "params"])
def test_detect_rejects_checkpoint_missing_a_key(tmp_path, missing):
    cfg_path, out = write_config(tmp_path)
    main(["gen", "--config", str(cfg_path)])
    ckpt = tmp_path / "ckpt.json"
    save_checkpoint(ModelConfig(pred_hidden=(4,), pi_width=4).build(4, 3, 3, seed=0), ckpt)
    doc = json.loads(ckpt.read_text())
    del doc[missing]
    ckpt.write_text(json.dumps(doc))
    proc = run_module(
        [
            "-m", "pidual", "detect",
            "--checkpoint", str(ckpt),
            "--data", str(out / "dataset.csv"),
            "--out", str(tmp_path / "det"),
        ]
    )
    assert proc.returncode == 4
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1 and missing in proc.stderr


@pytest.fixture(scope="module")
def detect_inputs(tmp_path_factory):
    """gen's dataset and a v4 checkpoint document of a model that fits it."""
    tmp = tmp_path_factory.mktemp("detect_inputs")
    cfg_path, out = write_config(tmp)
    assert main(["gen", "--config", str(cfg_path)]) == 0
    ds = load_csv(out / "dataset.csv")
    ckpt = tmp / "ckpt.json"
    model = ModelConfig(pred_hidden=(4,), pi_width=4).build(
        ds.feature_dim, ds.pi_dim, ds.num_classes, seed=0
    )
    save_checkpoint(model, ckpt)
    return out / "dataset.csv", json.loads(ckpt.read_text())


def detect_args(ckpt, data, out):
    return ["detect", "--checkpoint", str(ckpt), "--data", str(data), "--out", str(out)]


def model_of(doc):
    """The model a valid v4 checkpoint document describes."""
    flags = model_mod.AblationFlags(**doc["flags"])
    cfg = ModelConfig(tuple(doc["pred_hidden"]), doc["pi_width"], doc["share_first_layer"], flags)
    params = np.frombuffer(base64.b64decode(doc["params"]), "<f8")
    return model_mod.PiDualModel(cfg, doc["feature_dim"], doc["pi_dim"], doc["num_classes"], params)


def v1_document(doc):
    """The model of a v4 document in a pidual-checkpoint-v1 document: every
    tensor as nested lists next to the flags."""
    model = model_of(doc)
    v1 = {key: doc[key] for key in ("feature_dim", "pi_dim", "num_classes", "share_first_layer")}
    v1.update(format="pidual-checkpoint-v1", flags=doc["flags"])
    for name in model_mod.COMPONENTS:
        net = getattr(model, name)
        v1[name] = None if net is None else [
            {"weight": w.tolist(), "bias": b.tolist(), "activation": act}
            for w, b, act in zip(net.weights, net.biases, net.activations)
        ]
    return v1


def v2_document(doc):
    """The model of a v4 document in a pidual-checkpoint-v2 document: the
    vector with each component's layers as [out, in, activation]."""
    model = model_of(doc)
    v2 = {key: doc[key] for key in ("feature_dim", "pi_dim", "num_classes", "share_first_layer")}
    v2.update(format="pidual-checkpoint-v2", flags=doc["flags"], params=doc["params"], layout={})
    for name in model_mod.COMPONENTS:
        net = getattr(model, name)
        v2["layout"][name] = None if net is None else [
            [*w.shape, act] for w, act in zip(net.weights, net.activations)
        ]
    return v2


def v3_document(doc):
    """A v4 document labelled pidual-checkpoint-v3: the same fields, but a v3
    vector held every component, whichever the flags ran."""
    return {**doc, "format": "pidual-checkpoint-v3"}


def with_param(doc, index, value):
    params = np.frombuffer(base64.b64decode(doc["params"]), "<f8").copy()
    params[index] = value
    doc["params"] = base64.b64encode(params.tobytes()).decode()


def set_in(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


MALFORMED_CHECKPOINTS = {  # each corrupts a valid document, or returns the file's bytes
    "not-json": lambda doc: b'{"format": ',
    "not-utf8": lambda doc: b"\xff\xfe",
    "deep-nesting": lambda doc: b"[" * 100_000 + b"]" * 100_000,
    "json-list": lambda doc: [doc],
    "flags-int": lambda doc: set_in(doc, ["flags"], 5),
    "width-string": lambda doc: set_in(doc, ["pi_width"], "4"),
    "zero-width": lambda doc: set_in(doc, ["pred_hidden", 0], 0),
    "bad-gate-space": lambda doc: set_in(doc, ["flags", "gate_space"], "nonsense"),
    "unknown-flag": lambda doc: set_in(doc, ["flags", "gate_bias"], 1.0),
    # without its key, a flag that changes no width would take its default
    "missing-flag": lambda doc: {
        **doc, "flags": {k: v for k, v in doc["flags"].items() if k != "use_gate"}
    },
    "nan-weight": lambda doc: with_param(doc, 0, math.nan),
    "inf-bias": lambda doc: with_param(doc, -1, -math.inf),
    "dims-disagree-with-vector": lambda doc: set_in(doc, ["feature_dim"], 5),
    "float-dim": lambda doc: set_in(doc, ["num_classes"], float(doc["num_classes"])),
    "int-for-bool": lambda doc: set_in(doc, ["share_first_layer"], 1),
    # a gate trunk of its own needs parameters the vector does not hold
    "own-gate-trunk": lambda doc: set_in(doc, ["share_first_layer"], False),
    "one-parameter-short": lambda doc: set_in(
        doc, ["params"], base64.b64encode(base64.b64decode(doc["params"])[:-8]).decode()
    ),
    "v1-document": v1_document,
    "v2-document": v2_document,
    "v3-document": v3_document,
}


@pytest.mark.parametrize("corrupt", MALFORMED_CHECKPOINTS.values(), ids=MALFORMED_CHECKPOINTS)
def test_detect_rejects_a_malformed_checkpoint_in_one_line(
    tmp_path, detect_inputs, corrupt, capsys
):
    data, valid = detect_inputs
    doc = copy.deepcopy(valid)
    doc = corrupt(doc) or doc
    ckpt = tmp_path / "ckpt.json"
    ckpt.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
    assert main(detect_args(ckpt, data, tmp_path / "det")) == 4
    err = capsys.readouterr().err
    assert err.startswith("i/o failure: ") and err.count("\n") == 1, err
    if corrupt in (v1_document, v2_document, v3_document):
        assert "not a pidual-checkpoint-v4 file" in err, err


def json_paths(node, path=()):
    """The path of every value in a JSON document, the root's () first."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from json_paths(child, path + (key,))


ODD_VALUES = [None, True, 0, -1, 10**6, 2.5, math.nan, "", "x", [], {}, [1, 2, 3], {"a": 1}]
BASE64_CHARS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/=!"


@st.composite
def hostile_checkpoints(draw, valid):
    doc = copy.deepcopy(valid)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["delete", "swap", "truncate", "flip", "nonfinite"]))
        raw = doc.get("params") if isinstance(doc, dict) else None
        if kind in ("delete", "swap") or not isinstance(raw, str) or not raw:
            paths = list(json_paths(doc))[1 if kind == "delete" else 0 :]
            if not paths:
                continue
            path = draw(st.sampled_from(paths))
            odd = copy.deepcopy(draw(st.sampled_from(ODD_VALUES)))  # later mutations may edit it
            if kind == "delete":
                parent = functools.reduce(lambda node, key: node[key], path[:-1], doc)
                del parent[path[-1]]
            elif path:
                set_in(doc, path, odd)
            else:
                doc = odd
        elif kind == "truncate":
            doc["params"] = raw[: draw(st.integers(0, len(raw) - 1))]
        elif kind == "flip":
            i = draw(st.integers(0, len(raw) - 1))
            doc["params"] = raw[:i] + draw(st.sampled_from(BASE64_CHARS)) + raw[i + 1 :]
        else:
            try:
                nbytes = len(base64.b64decode(raw, validate=True))
            except ValueError:
                continue
            if nbytes and nbytes % 8 == 0:
                value = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
                with_param(doc, draw(st.integers(0, nbytes // 8 - 1)), value)
    return doc


@settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_detect_answers_a_hostile_checkpoint_with_a_result_or_one_line(
    tmp_path, detect_inputs, capsys, data
):
    # deleted keys, values of another type, a truncated or flipped base64
    # vector, non-finite parameters: detect scores the model or exits 4 with
    # one line, and never lets an exception out of main. A flipped character
    # can leave a finite parameter large enough to overflow the scores: that
    # is a numeric failure, exit 3
    dataset, valid = detect_inputs
    doc = data.draw(hostile_checkpoints(valid))
    ckpt = tmp_path / "ckpt.json"
    ckpt.write_text(json.dumps(doc))
    code = main(detect_args(ckpt, dataset, tmp_path / "det"))
    err = capsys.readouterr().err
    assert (code, err.count("\n")) in ((0, 0), (3, 1), (4, 1)), err
    assert code != 3 or err.startswith("numeric failure: the model's"), err


@st.composite
def broken_documents(draw, valid):
    """A v4 document with one entry dropped, retyped or mutated so that no
    model fits it: a missing entry, a value of another JSON type, a width
    that is not positive or is too large for the vector, a dimension or
    flag that changes the vector's length, an unknown or a missing flag, or
    a vector of the wrong length."""
    doc = copy.deepcopy(valid)
    kind = draw(st.sampled_from(["drop", "retype", "width", "dim", "layout", "flag", "vector"]))
    if kind == "drop":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif kind == "retype":
        key = draw(st.sampled_from(sorted(doc)))
        doc[key] = draw(st.sampled_from([v for v in ODD_VALUES if type(v) is not type(doc[key])]))
    elif kind == "width":
        bad = st.one_of(st.integers(-(2**40), 0), st.integers(10**6, 10**18))
        if draw(st.booleans()):
            doc["pi_width"] = draw(bad)
        else:
            index = draw(st.integers(0, len(doc["pred_hidden"])))
            doc["pred_hidden"].insert(index, draw(bad))
    elif kind == "dim":
        key = draw(st.sampled_from(["feature_dim", "pi_dim", "num_classes"]))
        doc[key] += draw(st.integers(-5, 5).filter(bool))
    elif kind == "layout":  # a gate trunk of its own, or a trunk that also reads x
        if draw(st.booleans()):
            doc["share_first_layer"] = not doc["share_first_layer"]
        else:
            doc["flags"]["noise_input"] = "pi_and_x"
    elif kind == "flag":  # an unknown flag, or a missing one
        if draw(st.booleans()):
            doc["flags"][draw(st.sampled_from(["gate", "use_gates", "", "x"]))] = True
        else:
            del doc["flags"][draw(st.sampled_from(sorted(doc["flags"])))]
    else:
        raw = base64.b64decode(doc["params"])
        cut = draw(st.integers(1, len(raw) // 8)) * 8
        raw = raw[:-cut] if draw(st.booleans()) else raw + raw[:cut]
        doc["params"] = base64.b64encode(raw).decode()
    return doc


@settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_a_broken_checkpoint_is_a_data_format_error_and_exit_4(
    tmp_path, detect_inputs, capsys, data
):
    dataset, valid = detect_inputs
    assert valid["share_first_layer"] and valid["flags"]["noise_input"] == "pi_only"
    ckpt = tmp_path / "ckpt.json"
    ckpt.write_text(json.dumps(data.draw(broken_documents(valid))))
    with pytest.raises(DataFormatError):
        load_checkpoint(ckpt)
    assert main(detect_args(ckpt, dataset, tmp_path / "det")) == 4
    err = capsys.readouterr().err
    assert err.startswith("i/o failure: ") and err.count("\n") == 1, err


def test_detect_rejects_a_model_with_fewer_classes_than_the_labels(
    tmp_path, detect_inputs, capsys
):
    # widths that match, but the dataset's highest label has no logit
    data, _ = detect_inputs
    ds = load_csv(data)
    ckpt = tmp_path / "ckpt.json"
    model = ModelConfig(pred_hidden=(4,), pi_width=4).build(
        ds.feature_dim, ds.pi_dim, ds.num_classes - 1, seed=0
    )
    save_checkpoint(model, ckpt)
    assert main(detect_args(ckpt, data, tmp_path / "det")) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{ds.num_classes} classes" in err, err
    assert not (tmp_path / "det").exists()


@pytest.mark.parametrize(
    "key, value, where",
    [
        ("pi_width", "4", "entry 'pi_width' is not of type int"),
        ("pred_hidden", [4, "4"], "pred_hidden and pi_width must hold positive integers"),
        ("pred_hidden", [-4], "pred_hidden and pi_width must hold positive integers"),
        ("num_classes", True, "entry 'num_classes' is not of type int"),
    ],
    ids=["string-width", "string-hidden-width", "negative-hidden-width", "bool-dim"],
)
def test_detect_names_the_malformed_entry(tmp_path, detect_inputs, capsys, key, value, where):
    data, valid = detect_inputs
    doc = {**valid, key: value}
    ckpt = tmp_path / "ckpt.json"
    ckpt.write_text(json.dumps(doc))
    assert main(detect_args(ckpt, data, tmp_path / "det")) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and where in err, err


@pytest.mark.parametrize(
    "index, value, tensor",
    [(0, math.nan, "prediction layer 0 weight"), (-1, -math.inf, "gate_head layer 1 bias")],
    ids=["first-entry", "last-entry"],
)
def test_detect_names_the_tensor_of_a_nonfinite_parameter(
    tmp_path, detect_inputs, capsys, index, value, tensor
):
    data, valid = detect_inputs
    doc = copy.deepcopy(valid)
    with_param(doc, index, value)
    ckpt = tmp_path / "ckpt.json"
    ckpt.write_text(json.dumps(doc))
    assert main(detect_args(ckpt, data, tmp_path / "det")) == 4
    assert capsys.readouterr().err == f"i/o failure: {ckpt}: non-finite parameters in {tensor}\n"


def test_detect_rejects_huge_widths_under_a_memory_cap(tmp_path, detect_inputs):
    # a 10^6 x 10^6 layer needs 8 TB: the vector's length rules it out before
    # any array is made, in a process that cannot map more than 2 GiB
    data, doc = detect_inputs
    doc = {**doc, "pred_hidden": [10**6, 10**6], "pi_width": 10**6}
    ckpt = tmp_path / "ckpt.json"
    ckpt.write_text(json.dumps(doc))
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        "from pidual.cli import main\n"
        f"sys.exit(main({detect_args(ckpt, data, tmp_path / 'det')!r}))\n"
    )
    proc = run_module(["-c", script])
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert "parameters" in proc.stderr


def test_detect_replays_the_confidence_detection_of_train(tmp_path):
    # a checkpoint read back in another process scores gen's dataset exactly
    # as train scored the model it saved
    cfg_path, out = write_config(tmp_path)
    assert main(["gen", "--config", str(cfg_path)]) == 0
    assert main(["train", "--config", str(cfg_path)]) == 0
    replay = tmp_path / "replay"
    proc = run_module(
        ["-m", "pidual", *detect_args(out / "best_checkpoint.json", out / "dataset.csv", replay),
         "--methods", "confidence"]
    )
    assert proc.returncode == 0, proc.stderr
    for name in ("detection_confidence.json", "detection_confidence_hist.svg"):
        assert read(replay / name) == read(out / name), name


ODD_CELLS = [b"", b"x", b"nan", b"inf", b"-inf", b"1e400", b"1e308", b"-1", b"3", b"1.5",
             b"99999999999999999999", b'"', b"\x00", b"\xff\xfe", b"train", b"clean_label"]


@st.composite
def mutated_csvs(draw, valid):
    """``valid``'s bytes, one to three times truncated, with a cell set to
    one of ``ODD_CELLS``, with a few bytes replaced, or with a line dropped
    or repeated."""
    data = valid
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["truncate", "cell", "bytes", "line"]))
        lines = data.split(b"\n")
        line = draw(st.integers(0, len(lines) - 1))
        if kind == "truncate":
            data = data[: draw(st.integers(0, len(data)))]
        elif kind == "cell":
            cells = lines[line].split(b",")
            cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(ODD_CELLS))
            lines[line] = b",".join(cells)
            data = b"\n".join(lines)
        elif kind == "bytes":
            start = draw(st.integers(0, len(data)))
            stop = start + draw(st.integers(0, 3))
            data = data[:start] + draw(st.binary(max_size=3)) + data[stop:]
        else:
            lines[line : line + 1] = [] if draw(st.booleans()) else [lines[line]] * 2
            data = b"\n".join(lines)
    return data


@pytest.fixture(scope="module")
def csv_fuzz_inputs(tmp_path_factory):
    """A small dataset CSV, a checkpoint that fits it, and a 1-epoch train
    config that reads the CSV at ``<dir>/data.csv``."""
    tmp = tmp_path_factory.mktemp("csv_fuzz")
    cfg_path, out = write_config(tmp, overrides={"data": {"n": "40"}})
    assert main(["gen", "--config", str(cfg_path)]) == 0
    ds = load_csv(out / "dataset.csv")
    ckpt = tmp / "ckpt.json"
    model = ModelConfig(pred_hidden=(4,), pi_width=4).build(
        ds.feature_dim, ds.pi_dim, ds.num_classes, seed=0
    )
    save_checkpoint(model, ckpt)
    data = {"source": "csv", "path": str(tmp / "data.csv"), "classes": str(ds.num_classes)}
    train_cfg, _ = write_config(
        tmp, name="train.ini", out=tmp / "train",
        overrides={"data": data, "model": {"pred_hidden": "4", "pi_width": "4"},
                   "train": {"epochs": "1", "batch_size": "16", "random_pi_length": "0"}},
    )
    return (out / "dataset.csv").read_bytes(), ckpt, train_cfg


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_detect_and_train_answer_a_mutated_csv_with_a_result_or_one_line(
    csv_fuzz_inputs, capsys, data
):
    # truncated or mutated rows, cells and bytes: every answer is a result,
    # or an exit code of 2, 3 or 4 with one stderr line, and main never
    # lets an exception out
    valid, ckpt, train_cfg = csv_fuzz_inputs
    dataset = train_cfg.parent / "data.csv"
    dataset.write_bytes(data.draw(mutated_csvs(valid)))
    for args in (
        ["detect", "--checkpoint", str(ckpt), "--data", str(dataset),
         "--out", str(train_cfg.parent / "det")],
        ["train", "--config", str(train_cfg)],
    ):
        capsys.readouterr()
        code = main(args)
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4), (args[0], code, err)
        assert err.count("\n") == (code != 0) and "Traceback" not in err, (args[0], err)


@pytest.mark.parametrize("method", ["confidence", "gate"])
def test_detect_on_overflowing_inputs_is_one_numeric_failure_line(csv_fuzz_inputs, method):
    # every feature and PI cell 1e308: the passes overflow to non-finite
    # scores, which detect reports in one line, with no numpy warning
    valid, ckpt, train_cfg = csv_fuzz_inputs
    header, *rows = valid.decode().splitlines()
    huge = train_cfg.parent / f"huge_{method}.csv"
    huge.write_text("\n".join(
        [header, *(",".join(["1e308"] * (len(r.split(",")) - 3) + r.split(",")[-3:]) for r in rows)]
    ) + "\n")
    det = train_cfg.parent / f"det_{method}"
    proc = run_module(
        ["-m", "pidual", *detect_args(ckpt, huge, det), "--methods", method]
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == (
        f"numeric failure: the model's {method} scores on the train split are not all finite\n"
    )
    assert not det.exists()


@pytest.fixture(scope="module")
def ce_run(tmp_path_factory):
    """gen's dataset and train's output directory for plain cross-entropy,
    trained with the random-PI block appended."""
    tmp = tmp_path_factory.mktemp("ce_run")
    ce = {"model": {"use_gate": "false", "use_noise_net": "false"}}
    cfg_path, out = write_config(tmp, overrides=ce)
    assert main(["gen", "--config", str(cfg_path)]) == 0
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp / "train")]) == 0
    return out / "dataset.csv", tmp / "train"


def test_detect_scores_a_model_without_a_gate_on_data_without_the_random_pi_block(
    tmp_path, ce_run, capsys
):
    # the default methods drop the gate, which the model lacks, before the
    # PI width is checked: the confidence reads no PI and replays train's
    dataset, trained = ce_run
    replay = tmp_path / "replay"
    capsys.readouterr()
    assert main(detect_args(trained / "best_checkpoint.json", dataset, replay)) == 0
    assert capsys.readouterr().out.startswith("confidence AUC: ")
    assert sorted(p.name for p in replay.iterdir()) == [
        "detection_confidence.json", "detection_confidence_hist.svg"
    ]
    for name in ("detection_confidence.json", "detection_confidence_hist.svg"):
        assert read(replay / name) == read(trained / name), name


@pytest.mark.parametrize("methods, why", [
    ("gate", "the checkpoint's model has no gate, so "),
    ("", ""),
])
def test_detect_with_nothing_to_score_is_one_config_error_line(
    tmp_path, ce_run, capsys, methods, why
):
    dataset, trained = ce_run
    det = tmp_path / "det"
    capsys.readouterr()
    args = [*detect_args(trained / "best_checkpoint.json", dataset, det), "--methods", methods]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err == f"config error: --methods {methods!r}: {why}there is nothing to score\n"
    assert not det.exists()


@pytest.mark.parametrize("methods", ["confidence,confidence", "gate,confidence,GATE"])
def test_detect_with_a_repeated_method_is_one_config_error_line(
    tmp_path, ce_run, capsys, methods
):
    # a repeat is rejected as given, before the gate this model lacks is dropped
    dataset, trained = ce_run
    det = tmp_path / "det"
    capsys.readouterr()
    args = [*detect_args(trained / "best_checkpoint.json", dataset, det), "--methods", methods]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: must name each detection method once, got [")
    assert err.count("\n") == 1
    assert not det.exists()


def test_detect_rejects_dataset_without_the_random_pi_block(tmp_path):
    # gen's dataset lacks the random-PI columns that train appended before fitting
    cfg_path, out = write_config(tmp_path)
    assert main(["gen", "--config", str(cfg_path)]) == 0
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "train")]) == 0
    proc = run_module(
        [
            "-m", "pidual", "detect", "--methods", "gate",
            "--checkpoint", str(tmp_path / "train" / "best_checkpoint.json"),
            "--data", str(out / "dataset.csv"),
            "--out", str(tmp_path / "det"),
        ]
    )
    assert proc.returncode == 4
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1
    pi_dim = load_csv(out / "dataset.csv").pi_dim  # random_pi_length is 2
    assert f"{pi_dim} PI columns, the checkpoint expects {pi_dim + 2}" in proc.stderr
    assert "random-PI" in proc.stderr


@pytest.mark.parametrize(
    "preset,expected",
    [({}, "1"), ({"OPENBLAS_NUM_THREADS": "3"}, "3"), ({"OMP_NUM_THREADS": "2"}, "unset")],
)
def test_blas_thread_default(preset, expected):
    proc = run_module(
        ["-c", "import os, pidual; print(os.environ.get('OPENBLAS_NUM_THREADS', 'unset'))"],
        env_updates=preset,
        drop=("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == expected


def test_risk_closed_form_only(tmp_path):
    cfg_path, out = write_config(tmp_path, overrides={"risk": {"resamples": "0"}})
    assert main(["risk", "--config", str(cfg_path)]) == 0
    rows = (out / "risk.csv").read_text().splitlines()
    header = rows[0].split(",")
    row = rows[1].split(",")
    assert row[header.index("mc_ols")] == ""
    assert float(row[header.index("pidual_bias")]) <= 1e-10


def test_risk_corruption_sweep(tmp_path):
    extra = {"risk": {"sweep": "corruption", "sweep_values": "0,4,8", "resamples": "0"}}
    cfg_path, out = write_config(tmp_path, overrides=extra)
    assert main(["risk", "--config", str(cfg_path)]) == 0
    rows = (out / "risk.csv").read_text().splitlines()
    assert len(rows) == 4
    header = rows[0].split(",")
    bias_col = header.index("pidual_bias")
    biases = [float(r.split(",")[bias_col]) for r in rows[1:]]
    assert biases[0] <= 1e-10
    assert biases[2] > biases[0]
    assert (out / "risk.svg").exists()


def test_risk_monte_carlo_within_tolerance(tmp_path):
    cfg_path, out = write_config(tmp_path, overrides={"risk": {"resamples": "5000"}})
    assert main(["risk", "--config", str(cfg_path)]) == 0
    rows = (out / "risk.csv").read_text().splitlines()
    header = rows[0].split(",")
    row = rows[1].split(",")
    closed = float(row[header.index("ols_total")])
    mc = float(row[header.index("mc_ols")])
    assert abs(closed - mc) / closed < 0.1


def risk_rows(tmp_path, name, **risk):
    cfg_path, out = write_config(
        tmp_path, overrides={"risk": risk}, name=f"{name}.ini", out=tmp_path / name
    )
    assert main(["risk", "--config", str(cfg_path)]) == 0
    with (out / "risk.csv").open(encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def test_risk_corruption_sweep_estimates_ols_once(tmp_path):
    rows = risk_rows(
        tmp_path, "sweep", sweep="corruption", sweep_values="0,2,4,8", resamples="2000"
    )
    assert len(rows) == 4
    # one setup, so one OLS fit on the shared draws
    assert len({row["mc_ols"] for row in rows}) == 1
    assert len({row["mc_pidual"] for row in rows}) == 4


@pytest.mark.parametrize(
    "sweep,values",
    [("none", ""), ("corruption", "0,2,4"), ("n2", "10,20"), ("sigma", "0.5,1,2")],
)
def test_risk_monte_carlo_tracks_the_closed_form_on_every_sweep(tmp_path, sweep, values):
    rows = risk_rows(tmp_path, sweep, sweep=sweep, sweep_values=values, resamples="4000")
    for row in rows:
        for mc, closed in (("mc_ols", "ols_total"), ("mc_pidual", "pidual_total")):
            gap = abs(float(row[mc]) - float(row[closed])) / float(row[closed])
            assert gap < 0.02, (row["setup_id"], mc, gap)


def test_risk_row_does_not_depend_on_the_other_sweep_points(tmp_path):
    alone = risk_rows(tmp_path, "alone", sweep="corruption", sweep_values="4", resamples="2000")
    swept = risk_rows(tmp_path, "swept", sweep="corruption", sweep_values="0,2,4", resamples="2000")
    assert [row["setup_id"] for row in swept] == ["corrupt_0", "corrupt_2", "corrupt_4"]
    assert alone == swept[2:]


def test_risk_plots_a_value_too_large_to_move_by_one(tmp_path):
    # x + 1 == x at 1e40; with every row clean OLS and the gated fit coincide,
    # and the 5% padding of a zero y span cannot move their risk of 1e80 either
    rows = risk_rows(
        tmp_path, "huge", sweep="sigma", sweep_values="1e40", n_clean="60", resamples="0"
    )
    assert rows[0]["ols_total"] == rows[0]["pidual_total"]
    assert float(rows[0]["ols_total"]) + 0.05 == float(rows[0]["ols_total"])
    assert "nan" not in (tmp_path / "huge" / "risk.svg").read_text()


ODD_RISK_VALUES = ["", "x", "-1", "0", "2.5", "nan", "inf", "-inf", "1e400", "1,2"]
SWEEPS = ["none", "corruption", "n2", "sigma"]


@st.composite
def risk_sections(draw):
    """A [risk] section: mostly values of the right type near the edges of
    their ranges, now and then one of ``ODD_RISK_VALUES``."""

    def field(values):
        if draw(st.integers(0, 9)) == 0:
            return draw(st.sampled_from(ODD_RISK_VALUES))
        return str(draw(values))

    def size(low, high):
        # now and then a size above the cap, which only the cast and the size
        # check may see: any allocation of it would fail at once
        return st.one_of(st.integers(low, high), st.integers(2**48, 2**60))

    n = draw(size(1, 120))
    sigmas = st.one_of(st.floats(-1, 4), st.floats(allow_nan=False, allow_infinity=False))
    sweep = field(st.sampled_from(SWEEPS))
    counts = st.integers(-2, n + 2)
    values = st.lists(sigmas if sweep == "sigma" else counts, max_size=4)
    return {
        "n": field(st.just(n)),
        "d": field(size(0, 12)),
        "m": field(size(0, 12)),
        "n_clean": field(st.integers(-1, n + 1)),
        "resamples": field(size(0, 5000)),
        "sigma": field(sigmas),
        "sweep": sweep,
        "sweep_values": ",".join(field(st.just(v)) for v in draw(values)),
    }


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(section=risk_sections())
def test_risk_answers_a_fuzzed_config_with_a_result_or_one_line(tmp_path, capsys, section):
    cfg_path, _ = write_config(tmp_path, overrides={"risk": section})
    code = main(["risk", "--config", str(cfg_path)])
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4), (code, err)
    assert err.count("\n") <= 1 and "Traceback" not in err, err


ABOVE_THE_CAP = st.integers(2**48, 2**60)  # an allocation of any of these fails at once


@st.composite
def trial_sections(draw):
    """[data], [model] and [train] sizes, and now and then a [grid] axis: each
    small enough for `gen` to run in milliseconds or above the cap, which only
    the cast and the size check may see, or now and then a malformed value."""

    def size(low, high):
        pick = draw(st.integers(0, 9))
        if pick == 0:
            return draw(st.sampled_from(["", "x", "-1", "0", "1e400"]))
        return str(draw(ABOVE_THE_CAP if pick == 1 else st.integers(low, high)))

    hidden = [size(1, 8) for _ in range(draw(st.integers(0, 2)))]
    sections = {
        "data": {
            "n": size(1, 60), "feature_dim": size(0, 5), "classes": size(1, 5),
            "annotators": size(1, 4),
        },
        "model": {
            "pred_hidden": ",".join(hidden), "pi_width": size(1, 8),
            "share_first_layer": draw(st.sampled_from(["true", "false"])),
            "noise_input": draw(st.sampled_from(["pi_only", "pi_and_x"])),
        },
        "train": {"random_pi_length": size(0, 4)},
    }
    axis = draw(st.sampled_from([None, "pi_width", "random_pi_length"]))
    if axis is not None:
        sections["grid"] = {axis: f"2,{size(0, 8)}"}
    return sections


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(sections=trial_sections())
def test_gen_answers_fuzzed_data_and_model_sizes_with_a_result_or_one_line(
    tmp_path, capsys, sections
):
    cfg_path, _ = write_config(tmp_path, overrides=sections)
    code = main(["gen", "--config", str(cfg_path)])
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4), (code, err)
    assert err.count("\n") <= 1 and "Traceback" not in err, err


# [train] values near the edges of their ranges: zero, negative, fractional,
# and now and then not a value of the field's type at all
SCHEDULE_VALUES = st.one_of(
    st.integers(-2, 4).map(str),
    st.floats(-1.5, 1.5).map(repr),
    st.sampled_from(["", "x", "0.5", "1.0", "1e-4", "nan", "inf", "true", "2,1", "1,2"]),
)


@st.composite
def schedule_sections(draw):
    """Drawn values for some [train] fields and some [grid] axes, each axis a
    comma list of one to three drawn values."""
    train_keys = st.sampled_from(sorted(FIELDS["train"]))
    grid_axes = st.sampled_from([*GRID_AXES, "decay_epochs"])  # the last is no axis
    values = st.lists(SCHEDULE_VALUES, min_size=1, max_size=3).map(",".join)
    sections = {"train": draw(st.dictionaries(train_keys, SCHEDULE_VALUES, max_size=3))}
    grid = draw(st.dictionaries(grid_axes, values, max_size=2))
    if grid:
        sections["grid"] = grid
    return sections


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(sections=schedule_sections())
def test_gen_answers_fuzzed_train_and_grid_values_with_a_result_or_one_line(
    tmp_path, capsys, sections
):
    # gen loads every section, so a value that passes is one a trial can run on
    cfg_path, out = write_config(tmp_path, overrides=sections)
    shutil.rmtree(out, ignore_errors=True)
    code = main(["gen", "--config", str(cfg_path)])
    err = capsys.readouterr().err
    assert code in (0, 2), (code, err)
    assert "Traceback" not in err, err
    if code == 2:
        assert err.count("\n") == 1 and err.startswith("config error: "), err
        assert not out.exists()


@pytest.mark.parametrize(
    "overrides,where",
    [
        ({"data": {"n": "10000000000"}}, "data.n"),
        ({"data": {"annotators": str(MAX_FLOATS)}}, "data.annotators"),
        ({"data": {"classes": str(MAX_FLOATS)}}, "data.classes"),
        ({"train": {"random_pi_length": str(MAX_FLOATS)}}, "train.random_pi_length"),
        ({"grid": {"random_pi_length": f"2,{MAX_FLOATS}"}}, "grid.random_pi_length"),
        ({"model": {"pred_hidden": "100000,100000"}}, "model.pred_hidden"),
        ({"grid": {"pi_width": "8,10000"}}, "grid.pi_width"),
        ({"data": {"source": "csv", "path": "x.csv"}, "model": {"pi_width": "10000"}},
         "model.pi_width"),
    ],
    ids=["n", "annotators", "classes", "random-pi", "grid-random-pi", "pred-hidden",
         "grid-pi-width", "csv-pi-width"],
)
def test_gen_rejects_a_data_or_model_size_above_the_cap_before_allocating(
    tmp_path, overrides, where
):
    cfg_path, out = write_config(tmp_path, overrides=overrides)
    proc = run_module(
        ["-m", "pidual", "gen", "--config", str(cfg_path)], preexec_fn=_limit_address_space
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith(f"config error: {where}: ")
    assert f"above the cap of {MAX_FLOATS}" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("axis", ["use_gate", "use_noise_net", "ablate"])
def test_the_size_cap_counts_the_pi_components_a_grid_point_runs(tmp_path, axis):
    # at PI width 10^4 the gate head or the noise head alone holds 10^8 parameters
    ablated = {"model": {"use_gate": "false", "use_noise_net": "false", "pi_width": "10000"}}
    cfg_path, out = write_config(tmp_path, overrides=ablated)
    assert load_experiment_config(cfg_path).model.pi_width == 10000  # no PI component runs
    if axis == "ablate":  # its rows run the PI components whatever [model] says
        proc = run_module(
            ["-m", "pidual", "ablate", "--config", str(cfg_path)],
            preexec_fn=_limit_address_space,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.count("\n") == 1
        assert proc.stderr.startswith("config error: model.pi_width: ")
        assert f"above the cap of {MAX_FLOATS}" in proc.stderr
        assert not out.exists()
        return
    cfg_path, _ = write_config(tmp_path, overrides={**ablated, "grid": {axis: "false,true"}})
    with pytest.raises(
        ConfigError, match=rf"^model\.pi_width: the model's parameters = \d+ floats, above the cap"
    ):
        load_experiment_config(cfg_path)


def test_ablate_neither_runs_nor_size_checks_the_grid(tmp_path, capsys):
    # at PI width 10^4 the grid's second point is above the cap; ablate's rows
    # take [model]'s width, so only the commands that read [grid] reject it
    cfg_path, out = write_config(
        tmp_path, overrides={"data": {"n": "200"}, "grid": {"pi_width": "8,10000"}}
    )
    for command in ("gen", "train"):
        assert main([command, "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err.startswith("config error: grid.pi_width: ")
        assert not out.exists()
    assert main(["ablate", "--config", str(cfg_path)]) == 0
    assert capsys.readouterr().err == ""
    assert len(read_ablation(out)) == len(training.ABLATION_VARIANTS)


def _limit_address_space():
    # a size that slipped past the check then fails its first allocation at
    # once instead of filling the machine's memory
    resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))


@pytest.mark.parametrize(
    "key,value", [("n", 10**9), ("resamples", 10**12), ("n", MAX_FLOATS // 6 + 1)]
)
def test_risk_rejects_a_size_above_the_cap_before_allocating(tmp_path, key, value):
    # BASE_SECTIONS has d = m = 3, so n = MAX_FLOATS // 6 + 1 is the smallest design above the cap
    cfg_path, out = write_config(tmp_path, overrides={"risk": {key: str(value)}})
    proc = run_module(
        ["-m", "pidual", "risk", "--config", str(cfg_path)], preexec_fn=_limit_address_space
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith(f"config error: risk.{key}: ")
    assert f"above the cap of {MAX_FLOATS}" in proc.stderr
    assert not out.exists()


def test_risk_with_many_rows_holds_a_block_of_draws_not_a_chunk(tmp_path):
    # at d = m = 8 a whole chunk of draws, 20000 x 4096 floats, would put the run
    # above the cap; a block of MC_ROWS rows at a time keeps it far below
    overrides = {"risk": {"n": "20000", "d": "8", "m": "8", "n_clean": "12000",
                          "resamples": "4096"}}
    cfg_path, out = write_config(tmp_path, overrides=overrides)
    proc = run_module(
        ["-m", "pidual", "risk", "--config", str(cfg_path)], preexec_fn=_limit_address_space
    )
    assert proc.returncode == 0, proc.stderr
    [row] = list(csv.DictReader((out / "risk.csv").open(encoding="utf-8")))
    # the Monte-Carlo standard errors here are about 1.7e-4 (OLS, bias 0.56) and
    # 5e-6 (the gated fit on the true mask, no bias)
    assert float(row["mc_ols"]) == pytest.approx(float(row["ols_total"]), abs=1e-3)
    assert float(row["mc_pidual"]) == pytest.approx(float(row["pidual_total"]), abs=5e-5)


@pytest.mark.parametrize(
    "overrides,field",
    [
        pytest.param(
            {"risk": {"sweep": "n2", "sweep_values": ""}}, "risk.sweep_values", id="n2-empty"
        ),
        pytest.param(
            {"risk": {"sweep": "corruption", "sweep_values": ""}},
            "risk.sweep_values",
            id="corruption-empty",
        ),
        pytest.param(
            {"risk": {"sweep": "corruption", "sweep_values": "2.5,2"}},
            "risk.sweep_values",
            id="corruption-fractional",
        ),
        pytest.param(
            {"risk": {"sweep": "n2", "sweep_values": "-4"}}, "risk.sweep_values", id="n2-negative"
        ),
        pytest.param({"risk": {"resamples": "-5"}}, "risk.resamples", id="negative-resamples"),
        pytest.param(
            {"risk": {"sweep": "none", "sweep_values": "0,2"}},
            "risk.sweep_values",
            id="none-with-values",
        ),
        pytest.param({"risk": {"d": "0"}}, "risk.d", id="zero-d"),
        pytest.param({"risk": {"m": "0"}}, "risk.m", id="zero-m"),
        pytest.param({"risk": {"sigma": "nan"}}, "risk.sigma", id="nan-sigma"),
        pytest.param({"risk": {"sigma": "inf"}}, "risk.sigma", id="inf-sigma"),
        pytest.param({"risk": {"coef_scale": "inf"}}, "risk.coef_scale", id="inf-coef-scale"),
        pytest.param(
            {"risk": {"pi_coef_scale": "nan"}}, "risk.pi_coef_scale", id="nan-pi-coef-scale"
        ),
        pytest.param(
            {"risk": {"sweep": "sigma", "sweep_values": "0.5,inf"}},
            "risk.sweep_values",
            id="sigma-inf",
        ),
        pytest.param(
            {"risk": {"sweep": "sigma", "sweep_values": "nan"}},
            "risk.sweep_values",
            id="sigma-nan",
        ),
        pytest.param({"risk": {"sigma": "4e77"}}, "risk.sigma", id="huge-sigma"),
        pytest.param(
            {"risk": {"sweep": "sigma", "sweep_values": "1,1e200"}},
            "risk.sweep_values",
            id="sigma-huge",
        ),
        pytest.param({"data": {"error_mode": "bogus"}}, "data.error_mode", id="error-mode"),
        pytest.param({"risk": {"n": "abc"}}, "risk.n", id="risk-n-not-an-int"),
        pytest.param({"train": {"epochs": "abc"}}, "train.epochs", id="epochs-not-an-int"),
        pytest.param({"train": {"batch_size": "2.5"}}, "train.batch_size", id="fractional-batch"),
        pytest.param({"train": {"momentum": "nan"}}, "train.momentum", id="nan-momentum"),
        pytest.param({"model": {"gate_space": "bogus"}}, "model.gate_space", id="gate-space"),
        pytest.param({"model": {"noise_input": "x"}}, "model.noise_input", id="noise-input"),
        pytest.param(
            {"model": {"pred_hidden": "64,-3"}}, "model.pred_hidden", id="negative-width"
        ),
        pytest.param({"model": {"pi_width": "0"}}, "model.pi_width", id="zero-pi-width"),
        pytest.param({"grid": {"pi_width": "64,0"}}, "grid.pi_width", id="grid-zero-pi-width"),
        pytest.param({"grid": {"epochs": "1,x"}}, "grid.epochs", id="grid-epochs"),
        pytest.param(
            {"grid": {"gate_space": "logit,bogus"}}, "grid.gate_space", id="grid-gate-space"
        ),
        pytest.param(
            {"detection": {"methods": "confidence,entropy"}},
            "detection.methods",
            id="detection-method",
        ),
        pytest.param(
            {"detection": {"methods": "confidence,gate,Confidence"}},
            "detection.methods",
            id="detection-methods-repeated",
        ),
        # ranges of single fields
        pytest.param({"data": {"classes": "1"}}, "data.classes", id="one-class"),
        pytest.param({"data": {"feature_dim": "0"}}, "data.feature_dim", id="zero-feature-dim"),
        pytest.param(
            {"data": {"informativeness": "2"}}, "data.informativeness", id="informativeness-2"
        ),
        pytest.param(
            {"data": {"informativeness": "-0.1"}},
            "data.informativeness",
            id="negative-informativeness",
        ),
        pytest.param({"data": {"noise_rate": "1.0"}}, "data.noise_rate", id="noise-rate-1"),
        pytest.param({"data": {"noise_rate": "1.5"}}, "data.noise_rate", id="noise-rate-1.5"),
        pytest.param({"data": {"noise_rate": "-0.1"}}, "data.noise_rate", id="negative-noise"),
        pytest.param(
            {"data": {"reliabilities": "0.7,1.5,0.7"}},
            "data.reliabilities",
            id="reliability-above-1",
        ),
        pytest.param(
            {"data": {"noisy_val_fraction": "-0.1"}},
            "data.noisy_val_fraction",
            id="negative-val-fraction",
        ),
        pytest.param(
            {"data": {"test_fraction": "-0.2"}}, "data.test_fraction", id="negative-test-fraction"
        ),
        pytest.param({"train": {"epochs": "0"}}, "train.epochs", id="zero-epochs"),
        pytest.param({"train": {"batch_size": "0"}}, "train.batch_size", id="zero-batch"),
        pytest.param({"train": {"base_lr": "-0.1"}}, "train.base_lr", id="negative-lr"),
        pytest.param({"train": {"decay_factor": "0"}}, "train.decay_factor", id="zero-decay"),
        pytest.param({"train": {"decay_factor": "1.5"}}, "train.decay_factor", id="decay-1.5"),
        pytest.param(
            {"train": {"decay_epochs": "45,30"}}, "train.decay_epochs", id="unsorted-decay-epochs"
        ),
        pytest.param({"train": {"momentum": "1.0"}}, "train.momentum", id="momentum-1"),
        pytest.param({"train": {"momentum": "1.5"}}, "train.momentum", id="momentum-1.5"),
        pytest.param({"train": {"momentum": "-0.1"}}, "train.momentum", id="negative-momentum"),
        pytest.param({"train": {"weight_decay": "-1"}}, "train.weight_decay", id="negative-wd"),
        pytest.param(
            {"train": {"random_pi_length": "-1"}},
            "train.random_pi_length",
            id="negative-random-pi",
        ),
        pytest.param({"risk": {"sigma": "-1"}}, "risk.sigma", id="negative-sigma"),
        pytest.param({"grid": {"epochs": "0"}}, "grid.epochs", id="grid-zero-epochs"),
        pytest.param({"grid": {"epochs": "0,1"}}, "grid.epochs", id="grid-epochs-0-1"),
        pytest.param({"grid": {"batch_size": "0"}}, "grid.batch_size", id="grid-zero-batch"),
        pytest.param({"grid": {"decay_factor": "0"}}, "grid.decay_factor", id="grid-zero-decay"),
        pytest.param({"grid": {"base_lr": "-1"}}, "grid.base_lr", id="grid-negative-lr"),
        pytest.param({"grid": {"momentum": "0.9,1"}}, "grid.momentum", id="grid-momentum-1"),
        pytest.param({"grid": {"learning": "1"}}, "grid.learning", id="grid-unknown-axis"),
        pytest.param({"grid": {"epochs": ""}}, "grid.epochs", id="grid-empty-axis"),
        # checks across fields
        pytest.param(
            {"data": {"noisy_val_fraction": "0.6", "test_fraction": "0.5"}},
            "data.test_fraction",
            id="split-fractions-sum-above-1",
        ),
        pytest.param({"data": {"test_fraction": "2"}}, "data.test_fraction", id="test-fraction-2"),
        pytest.param(
            {"data": {"reliabilities": "0.7,0.7"}},
            "data.reliabilities",
            id="reliabilities-fewer-than-annotators",
        ),
        pytest.param(
            {"data": {"annotators": "2", "reliabilities": "0.9,0.9", "noise_rate": "0.4"}},
            "data.noise_rate",
            id="unreachable-noise-rate",
        ),
        pytest.param(
            {"risk": {"n": "10", "d": "6", "m": "5", "n_clean": "5"}},
            "risk.n",
            id="underdetermined-risk-design",
        ),
        pytest.param({"risk": {"n_clean": "0"}}, "risk.n_clean", id="zero-n-clean"),
        pytest.param({"risk": {"n_clean": "61"}}, "risk.n_clean", id="n-clean-above-n"),
        pytest.param(
            {"risk": {"sweep": "corruption", "sweep_values": "0,61"}},
            "risk.sweep_values",
            id="corruption-above-n",
        ),
        pytest.param(
            {"risk": {"sweep": "n2", "sweep_values": "0,60"}},
            "risk.sweep_values",
            id="n2-leaves-no-clean-row",
        ),
        pytest.param(
            {"risk": {"sweep": "sigma", "sweep_values": "1,-0.5"}},
            "risk.sweep_values",
            id="sigma-negative",
        ),
        # a risk run's arrays, each below the cap, that pass it together: ten
        # 60-column designs of 2^20 rows, one per point of an n2 or sigma sweep
        pytest.param(
            {"risk": {"n": "1048576", "d": "30", "m": "30", "resamples": "0", "sweep": "n2",
                      "sweep_values": ",".join(map(str, range(1, 11)))}},
            "risk.n",
            id="risk-total-n2-designs",
        ),
        pytest.param(
            {"risk": {"n": "1048576", "d": "30", "m": "30", "resamples": "0", "sweep": "sigma",
                      "sweep_values": ",".join(map(str, range(1, 11)))}},
            "risk.n",
            id="risk-total-sigma-designs",
        ),
        # one design of 6*10^7 floats and two Monte-Carlo maps of 3*10^7 each
        pytest.param(
            {"risk": {"n": "500000", "d": "60", "m": "60", "resamples": "1"}},
            "risk.n",
            id="risk-total-design-and-maps",
        ),
        # the per-draw sums of two fits just below the cap, and a chunk of draws
        pytest.param(
            {"risk": {"resamples": str(MAX_FLOATS // 2 - 1000)}},
            "risk.resamples",
            id="risk-total-sums-and-chunk",
        ),
        # 7 axes of 10 values, and 17 * 241: above the grid-point cap
        pytest.param(
            {"grid": {
                "base_lr": ",".join(f"0.0{i}" for i in range(1, 10)) + ",0.1",
                "weight_decay": ",".join(f"{i}e-5" for i in range(10)),
                "momentum": ",".join(f"0.{i}" for i in range(10)),
                "decay_factor": ",".join(f"0.{i}" for i in range(1, 10)) + ",1",
                "epochs": ",".join(str(i) for i in range(1, 11)),
                "batch_size": ",".join(str(i) for i in range(1, 11)),
                "random_pi_length": ",".join(str(i) for i in range(10)),
            }},
            "grid.base_lr",
            id="grid-ten-million-points",
        ),
        pytest.param(
            {"grid": {
                "base_lr": ",".join(f"0.{i:02d}" for i in range(17)),
                "weight_decay": ",".join(f"{i}e-6" for i in range(241)),
            }},
            "grid.weight_decay",
            id="grid-one-point-above-the-cap",
        ),
    ],
)
def test_config_rejects_malformed_value(tmp_path, overrides, field):
    # gen loads every section of the config before it writes anything
    cfg_path, out = write_config(tmp_path, overrides=overrides)
    proc = run_module(["-m", "pidual", "gen", "--config", str(cfg_path)])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith(f"config error: {field}: ")
    assert not out.exists()


def test_a_grid_at_the_point_cap_loads(tmp_path):
    # 16 * 16 * 16 = 4096 points: the cap itself is allowed
    values = ",".join(f"0.{i:02d}" for i in range(16))
    grid = dict.fromkeys(("base_lr", "momentum", "weight_decay"), values)
    cfg_path, _ = write_config(tmp_path, overrides={"grid": grid})
    assert len(load_experiment_config(cfg_path).grid.points()) == training.MAX_GRID_POINTS


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_train_rejects_workers_below_one(tmp_path, workers):
    cfg_path, out = write_config(tmp_path)
    proc = run_module(["-m", "pidual", "train", "--config", str(cfg_path), "--workers", workers])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1 and "--workers" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen", "risk", "ablate"])
def test_only_train_offers_workers(tmp_path, command, capsys):
    cfg_path, out = write_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(cfg_path), "--workers", "2"])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["risk", "--workers", "2"],
        ["train", "--workers", "abc"],
        ["train", "--no-such-flag"],
    ],
    ids=["flag-of-another-command", "workers-not-an-int", "unknown-flag"],
)
def test_usage_error_is_one_line(tmp_path, args):
    cfg_path, out = write_config(tmp_path)
    proc = run_module(["-m", "pidual", args[0], "--config", str(cfg_path), *args[1:]])
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("usage error: ")
    assert "usage:" not in proc.stderr and args[1] in proc.stderr
    assert not out.exists()


def test_train_rejects_workers_without_a_grid(tmp_path):
    cfg_path, out = write_config(tmp_path)
    proc = run_module(["-m", "pidual", "train", "--config", str(cfg_path), "--workers", "2"])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("config error: ")
    assert "--workers" in proc.stderr and "[grid]" in proc.stderr
    assert not out.exists()
    grid_cfg, _ = write_config(tmp_path, {"grid": {"base_lr": "0.1"}}, name="grid.ini")
    assert main(["train", "--config", str(grid_cfg), "--workers", "2"]) == 0


def test_ablate_smoke(tmp_path):
    cfg_path, out = write_config(tmp_path)
    assert main(["ablate", "--config", str(cfg_path)]) == 0
    rows = (out / "ablation.csv").read_text().splitlines()
    assert len(rows) == 8  # header + 7 variants
    variants = {r.split(",")[1] for r in rows[1:]}
    assert variants == {
        "cross_entropy", "pidual_full", "no_gating", "no_noise_net",
        "gate_prob_space", "only_random_pi", "noise_with_features",
    }
    summary1 = json.loads((out / "summary.json").read_text())
    main(["ablate", "--config", str(cfg_path)])
    summary2 = json.loads((out / "summary.json").read_text())
    ce1 = [v for v in summary1["variants"] if v["variant"] == "cross_entropy"]
    ce2 = [v for v in summary2["variants"] if v["variant"] == "cross_entropy"]
    assert ce1 == ce2


def test_exit_codes(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[data]\nsource = nonsense\n", encoding="utf-8")
    assert main(["gen", "--config", str(bad)]) == 2
    assert main(["gen", "--config", str(tmp_path / "missing.ini")]) == 2
    csv_cfg = tmp_path / "csv.ini"
    csv_cfg.write_text("[data]\nsource = csv\npath = /nonexistent.csv\n", encoding="utf-8")
    assert main(["train", "--config", str(csv_cfg)]) == 4


def test_config_hash_stable_under_reordering(tmp_path):
    a = tmp_path / "a.ini"
    b = tmp_path / "b.ini"
    a.write_text("[train]\nepochs = 5\nbase_lr = 0.2\n[data]\nn = 100\n", encoding="utf-8")
    b.write_text("[data]\nn = 100\n[train]\nbase_lr = 0.2\nepochs = 5\n", encoding="utf-8")
    assert load_experiment_config(a).config_hash() == load_experiment_config(b).config_hash()
    c = tmp_path / "c.ini"
    c.write_text("[train]\nepochs = 6\nbase_lr = 0.2\n[data]\nn = 100\n", encoding="utf-8")
    assert load_experiment_config(a).config_hash() != load_experiment_config(c).config_hash()


def test_seed_override_changes_streams(tmp_path):
    cfg_path, out = write_config(tmp_path)
    cfg_a = load_experiment_config(cfg_path)
    cfg_b = load_experiment_config(cfg_path, seed_override=99)
    assert cfg_a.seed != cfg_b.seed
    assert cfg_a.train.seed != cfg_b.train.seed


@pytest.mark.parametrize(
    "path", sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.ini")),
    ids=lambda p: p.name,
)
def test_shipped_config_loads(path):
    load_experiment_config(path)


def test_config_hash_and_defaults_are_pinned(tmp_path):
    configs = Path(__file__).resolve().parents[1] / "configs"
    pinned = {
        "benchmark.ini": "48267c0707f8d73fe84e870136e4fe72c85e762159c50a3525bec4e6a07d682b",
        "grid.ini": "f73fe7616a744e33e2ebfae4be525b5539ee995ec9b042f58af93405aa1b578d",
        "risk_sweep.ini": "96d6c10d8e4d6b8a3ef7fada3e68993072ac9631d7a1721f15531429a4c3a7e8",
    }
    for name, digest in pinned.items():
        assert load_experiment_config(configs / name).config_hash() == digest, name
    defaults = tmp_path / "defaults.ini"
    defaults.write_text("[experiment]\nseed = 0\n", encoding="utf-8")
    cfg = load_experiment_config(defaults)
    assert cfg.config_hash() == (
        "38f0ee5a54423760efabdf4a6df02e2d43053a220fc09ddb41def8d2b1319ca9"
    )
    # the table's default strings cast to the dataclasses' defaults
    assert replace(cfg.train, seed=TrainConfig().seed) == TrainConfig()
    assert cfg.model == ModelConfig()


def test_unknown_config_key_rejected(tmp_path):
    path = tmp_path / "x.ini"
    path.write_text("[train]\nnum_epochs = 5\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="train.num_epochs"):
        load_experiment_config(path)


def test_exit_code_numeric_failure(tmp_path, capsys):
    cfg_path, out = write_config(tmp_path)
    main(["gen", "--config", str(cfg_path)])
    text = (out / "dataset.csv").read_text().splitlines()
    first = text[1].split(",")
    first[0] = "nan"
    text[1] = ",".join(first)
    poisoned = tmp_path / "poisoned.csv"
    poisoned.write_text("\n".join(text) + "\n", encoding="utf-8")
    csv_cfg, _ = write_config(
        tmp_path,
        overrides={"data": {"source": "csv", "path": str(poisoned), "n": "", "feature_dim": "",
                            "annotators": "", "noise_rate": "", "noisy_val_fraction": "0.1",
                            "test_fraction": "0.2"}},
        name="csv.ini",
    )
    capsys.readouterr()
    assert main(["train", "--config", str(csv_cfg)]) == 3
    assert capsys.readouterr().err == "numeric failure: non-finite loss at epoch 0, batch 3\n"
    assert main(["ablate", "--config", str(csv_cfg)]) == 3
    assert capsys.readouterr().err == (
        "numeric failure: ablation variant cross_entropy failed: "
        "non-finite loss at epoch 0, batch 3\n"
    )


def test_a_grid_whose_every_trial_fails_names_the_first_failure(tmp_path, capsys):
    cfg_path, _ = write_config(tmp_path, overrides={"grid": {"base_lr": "1e300,1e301"}})
    capsys.readouterr()
    assert main(["train", "--config", str(cfg_path)]) == 3
    assert capsys.readouterr().err == (
        "numeric failure: every grid trial failed; trial 0 (base_lr = 1e+300): "
        "non-finite loss at epoch 0, batch 1\n"
    )


DIVERGING = {"train": {"base_lr": "1e300"}}
RANK_DEFICIENT_RISK = {"risk": {"n": "200", "d": "8", "m": "8", "n_clean": "195",
                                "resamples": "0"}}


@pytest.mark.parametrize("command, overrides, why", [
    pytest.param("train", DIVERGING, "non-finite loss at epoch 0, batch 1", id="train"),
    pytest.param("train", {**DIVERGING, "grid": {"base_lr": "1e300,1e301"}},
                 "every grid trial failed; trial 0 (base_lr = 1e+300): "
                 "non-finite loss at epoch 0, batch 1", id="train-grid"),
    pytest.param("ablate", DIVERGING, "ablation variant cross_entropy failed: "
                 "non-finite loss at epoch 0, batch 1", id="ablate"),
    pytest.param("risk", RANK_DEFICIENT_RISK,
                 "masked PI block is rank-deficient (rank 5 < 8)", id="risk"),
])
def test_a_failed_run_is_one_numeric_failure_line_and_leaves_no_directory(
    tmp_path, capsys, command, overrides, why
):
    cfg_path, out = write_config(tmp_path, overrides=overrides)
    capsys.readouterr()
    assert main([command, "--config", str(cfg_path)]) == 3
    assert capsys.readouterr().err == f"numeric failure: {why}\n"
    assert not out.exists()


ROUNDED_AWAY = {"n": "2", "test_fraction": "0.75", "noisy_val_fraction": "0.2"}


@pytest.mark.parametrize("command", ["gen", "train", "ablate"])
def test_fractions_that_round_the_train_split_away_are_one_config_error_line(
    tmp_path, capsys, command
):
    # val + test < 1, but 2 rows round to 2 test rows and 0 noisy-validation rows
    cfg_path, out = write_config(tmp_path, overrides={"data": ROUNDED_AWAY})
    capsys.readouterr()
    assert main([command, "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == (
        "config error: data.test_fraction: 0.75 with noisy_val_fraction 0.2 leaves no "
        "train row of 2 after rounding\n"
    )
    assert not out.exists()


def test_fractions_that_leave_one_train_row_build_a_dataset(tmp_path):
    # 4 rows round to 2 test rows and 1 noisy-validation row: one train row is enough
    data = {"n": "4", "test_fraction": "0.5", "noisy_val_fraction": "0.2"}
    cfg_path, _ = write_config(tmp_path, overrides={"data": data})
    ds = build_dataset(load_experiment_config(cfg_path))
    names = (SPLIT_TRAIN, SPLIT_NOISY_VAL, SPLIT_CLEAN_TEST)
    sizes = {name: ds.split_indices(name).size for name in names}
    assert sizes == {SPLIT_TRAIN: 1, SPLIT_NOISY_VAL: 1, SPLIT_CLEAN_TEST: 2}


def _csv_without_a_train_row(tmp_path):
    """A generated dataset CSV whose split column moves every train row to
    clean_test, and the one line every command gives for it."""
    cfg_path, out = write_config(tmp_path)
    assert main(["gen", "--config", str(cfg_path)]) == 0
    header, *rows = (out / "dataset.csv").read_text().splitlines()
    no_train = tmp_path / "no_train.csv"
    no_train.write_text(
        "\n".join([header] + [row.replace(",train", ",clean_test") for row in rows]) + "\n"
    )
    return no_train, f"i/o failure: {no_train}: the split column holds no 'train' row\n"


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_a_csv_split_column_without_a_train_row_is_one_io_failure_line(
    tmp_path, capsys, command
):
    no_train, why = _csv_without_a_train_row(tmp_path)
    csv_data = {"source": "csv", "path": str(no_train), "n": "", "feature_dim": "",
                "annotators": "", "noise_rate": ""}
    csv_cfg, csv_out = write_config(
        tmp_path, overrides={"data": csv_data}, name="csv.ini", out=tmp_path / "csv_run"
    )
    capsys.readouterr()
    assert main([command, "--config", str(csv_cfg)]) == 4
    assert capsys.readouterr().err == why
    assert not csv_out.exists()


def test_detect_on_a_csv_without_a_train_row_fails_before_making_its_out_directory(
    tmp_path, capsys
):
    no_train, why = _csv_without_a_train_row(tmp_path)
    ckpt = tmp_path / "ckpt.json"
    save_checkpoint(ModelConfig(pred_hidden=(4,), pi_width=4).build(4, 3, 3, seed=0), ckpt)
    det_out = tmp_path / "det"
    args = ["--checkpoint", str(ckpt), "--data", str(no_train), "--out", str(det_out)]
    capsys.readouterr()
    assert main(["detect", "--methods", "confidence", *args]) == 4
    assert capsys.readouterr().err == why
    assert not det_out.exists()


@pytest.mark.parametrize("last", [False, True], ids=["mid-epoch", "last-step"])
def test_nonfinite_update_exits_3_with_one_line(tmp_path, capsys, monkeypatch, last):
    cfg_path, out = write_config(tmp_path)
    cfg = load_experiment_config(cfg_path)
    steps = -(-build_dataset(cfg).split_indices("train").size // cfg.train.batch_size)
    poison_gradient(monkeypatch, "gate_head", 0, "weight", steps - 1 if last else 1)
    capsys.readouterr()
    assert main(["train", "--config", str(cfg_path)]) == 3
    when = "epoch 0 ends" if last else "non-finite loss at epoch 0, batch 2"
    assert capsys.readouterr().err == (
        f"numeric failure: {when} with non-finite parameters in gate_head layer 0 weight\n"
    )
    assert not (out / "best_checkpoint.json").exists()


def test_risk_csv_parses_back(tmp_path):
    cfg_path, out = write_config(tmp_path, overrides={"risk": {"resamples": "100"}})
    assert main(["risk", "--config", str(cfg_path)]) == 0
    with (out / "risk.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    row = rows[0]
    assert int(row["n"]) == 60 and int(row["n1"]) == 40
    total = float(row["ols_bias"]) + float(row["ols_var"]) + float(row["sigma"]) ** 2
    assert total == pytest.approx(float(row["ols_total"]), rel=1e-12)


# README's "Risk CSV" and "Detection JSON" sections
RISK_CSV_HEADER = [
    "setup_id", "n", "n1", "n2", "d", "m", "sigma", "ols_bias", "ols_var",
    "pidual_bias", "pidual_var", "ols_total", "pidual_total", "mc_ols", "mc_pidual",
]
DETECTION_KEYS = {"method", "auc", "bin_edges", "clean_counts", "wrong_counts", "num_scores"}


def test_risk_csv_header_and_detection_json_keys_are_the_documented_ones(tmp_path):
    # without a random-PI block detect scores the gate on gen's dataset too
    cfg_path, out = write_config(tmp_path, overrides={"train": {"random_pi_length": "0"}})
    assert main(["risk", "--config", str(cfg_path)]) == 0
    with (out / "risk.csv").open(encoding="utf-8", newline="") as fh:
        assert next(csv.reader(fh)) == RISK_CSV_HEADER
    assert main(["train", "--config", str(cfg_path)]) == 0
    assert main(["gen", "--config", str(cfg_path)]) == 0
    replay = tmp_path / "replay"
    assert main(["detect", "--checkpoint", str(out / "best_checkpoint.json"),
                 "--data", str(out / "dataset.csv"), "--out", str(replay)]) == 0
    for run in (out, replay):
        for method in detection.METHODS:
            doc = json.loads((run / f"detection_{method}.json").read_text(encoding="utf-8"))
            assert set(doc) == DETECTION_KEYS, (run.name, method)


def test_a_csv_split_column_is_kept_whatever_it_holds(tmp_path):
    # gen with both fractions at 0 writes a split column of train rows alone;
    # the config's fractions keep it, and split the same rows without the column
    cfg_path, out = write_config(
        tmp_path, overrides={"data": {"noisy_val_fraction": "0", "test_fraction": "0"}}
    )
    assert main(["gen", "--config", str(cfg_path)]) == 0
    all_train = out / "dataset.csv"
    no_split = tmp_path / "no_split.csv"
    no_split.write_text(
        "".join(line.rsplit(",", 1)[0] + "\n" for line in all_train.read_text().splitlines()),
        encoding="utf-8",
    )
    for path, train_rows in ((all_train, 240), (no_split, 240 - 24 - 48)):
        data = {"source": "csv", "path": str(path), "classes": "3"}
        csv_cfg, _ = write_config(tmp_path, overrides={"data": data}, name="csv.ini")
        ds = build_dataset(load_experiment_config(csv_cfg))
        assert ds.split_indices(SPLIT_TRAIN).size == train_rows, path.name
