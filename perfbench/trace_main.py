"""Run one pidual CLI command in this interpreter with timing wrappers on.

Usage: python3 perfbench/trace_main.py SPANS_JSON PIDUAL_ARGS...

Each wrapper replaces a module attribute that the CLI or ``training`` looks
up at call time, so no pidual source changes. After the command, the written
checkpoint (if any) is loaded once under its wrapper, because ``train`` never
loads one. The spans are kept in memory and written to SPANS_JSON at the end.
Grid trials run in worker processes whose spans stay there and are not
collected; the metrics derived from the parent's spans say so.
"""
from __future__ import annotations

import os
import sys
from pathlib import Path

from spans import Tracer


def _rows(model, x, *args, **kwargs):
    return {"rows": len(x)}


# (module, attribute, span name, attributes recorded from the call arguments)
TARGETS = (
    ("pidual.cli", "load_experiment_config", "config.load_experiment_config", None),
    ("pidual.cli", "build_dataset", "data.build_dataset", None),
    ("pidual.cli", "run_grid", "training.run_grid", lambda grid, *a, **k: {"points": len(grid.points())}),
    ("pidual.cli", "run_trial", "training.run_trial", None),
    ("pidual.training", "run_trial", "training.run_trial", None),
    ("pidual.training", "augment_random_pi", "data.augment_random_pi", None),
    ("pidual.training", "train", "training.train", lambda model, ds, cfg, *a, **k: {"epochs": cfg.epochs}),
    ("pidual.training", "evaluate", "training.evaluate", None),
    ("pidual.training", "sgd_step", "nn_core.sgd_step", None),
    ("pidual.model", "forward_train", "model.forward_train", _rows),
    ("pidual.model", "training_loss", "model.training_loss", None),
    ("pidual.model", "backward_train", "model.backward_train", None),
    ("pidual.model", "prediction_logits", "model.prediction_logits", _rows),
    ("pidual.model", "noise_logits", "model.noise_logits", _rows),
    ("pidual.model", "gate_values", "model.gate_values", _rows),
    ("pidual.model", "forward_infer", "model.forward_infer", _rows),
    ("pidual.model", "save_checkpoint", "model.save_checkpoint", None),
    ("pidual.model", "load_checkpoint", "model.load_checkpoint", lambda path: {"bytes": os.path.getsize(path)}),
    ("pidual.detection", "detect", "detection.detect", lambda model, ds, method: {"method": method}),
    ("pidual.detection", "roc_auc", "detection.roc_auc", None),
    ("pidual.linear_risk", "make_setup", "linear_risk.make_setup", None),
    ("pidual.linear_risk", "compare_risks", "linear_risk.compare_risks", None),
    (
        "pidual.linear_risk",
        "monte_carlo_risk",
        "linear_risk.monte_carlo_risk",
        lambda setup, estimator, resamples, *a, **k: {"resamples": resamples},
    ),
    ("pidual.svgplot", "line_chart", "svgplot.line_chart", None),
    ("pidual.svgplot", "paired_histogram", "svgplot.paired_histogram", None),
)


def install(tracer: Tracer) -> None:
    for module_name, attr, name, attrs in TARGETS:
        module = sys.modules[module_name]
        setattr(module, attr, tracer.wrap(getattr(module, attr), name, attrs))


def main(argv: list[str]) -> int:
    spans_path, pidual_args = Path(argv[0]), argv[1:]
    import pidual.cli  # noqa: F401  (imports every module TARGETS names)
    import pidual.model

    tracer = Tracer()
    install(tracer)
    code = tracer.wrap(pidual.cli.main, "cli.main")(pidual_args)
    checkpoint = Path(pidual_args[pidual_args.index("--out") + 1]) / "best_checkpoint.json"
    if code == 0 and checkpoint.is_file():
        pidual.model.load_checkpoint(checkpoint)
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
