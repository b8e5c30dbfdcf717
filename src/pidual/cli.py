"""Operator surface: gen / train / detect / risk / ablate subcommands.

Every subcommand reads a sectioned config file (see config.py), writes its
artifacts into a per-run output directory, and is idempotent in output
content for a fixed config + seed. The artifacts the package never reads
back (the JSON documents, the training records, ``risk.csv`` and
``ablation.csv``) go through this module's one JSON writer and one CSV writer;
the formats it reads back (dataset CSV, checkpoint) stay with their readers,
and ``svgplot`` writes the plots. Exit codes: 0 success, 2 config error,
3 numeric failure, 4 I/O failure. The only nondeterministic field anywhere
is ``wall_clock_seconds`` inside summary.json.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import data as data_mod
from . import detection as detect_mod
from . import linear_risk as risk_mod
from . import model as model_mod
from . import svgplot
from .config import ExperimentConfig, build_dataset, load_experiment_config, parse_methods
from .errors import (
    ConfigError,
    ContractError,
    DataFormatError,
    NumericError,
    ShapeError,
)
from .seeding import derive_seed
from .training import (
    ABLATION_VARIANTS,
    RECORD_COLUMNS,
    SCORE_FIELDS,
    GridSpec,
    TrainRecord,
    TrainResult,
    TrialJob,
    TrialOutcome,
    run_grid,
    run_trial,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_csv(path: Path, rows: list[dict]) -> None:
    """A header of the first row's keys, then one line per row; every row has those keys."""
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _record_rows(record: TrainRecord) -> list[dict]:
    """One row per epoch, keyed by ``RECORD_COLUMNS``: the epoch, then each
    field as its float's repr, which parses back bitwise."""
    return [
        {"epoch": str(e), **{c: repr(float(getattr(record, c)[e])) for c in RECORD_COLUMNS[1:]}}
        for e in range(len(record))
    ]


def _out_dir(cfg: ExperimentConfig, override: str | None) -> Path:
    out = Path(override) if override else Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _float_or_none(value: float) -> float | None:
    return float(value) if math.isfinite(value) else None


def cmd_gen(args: argparse.Namespace) -> int:
    cfg = load_experiment_config(args.config, args.seed)
    ds = build_dataset(cfg)
    out = _out_dir(cfg, args.out)
    data_mod.save_csv(ds, out / "dataset.csv")
    meta = {
        "config_hash": cfg.config_hash(),
        "seed": cfg.seed,
        "n": ds.n,
        "feature_dim": ds.feature_dim,
        "pi_dim": ds.pi_dim,
        "num_classes": ds.num_classes,
        "split_sizes": {
            name: int(ds.split_indices(name).size) for name in data_mod.SPLIT_NAMES
        },
    }
    if ds.has_clean_labels:
        meta["realized_noise_rate"] = ds.realized_noise_rate()
    _write_json(out / "dataset_meta.json", meta)
    print(f"wrote {out / 'dataset.csv'} ({ds.n} rows)")
    return EXIT_OK


def _dynamics_plot(out: Path, result: TrainResult) -> None:
    """The kept trial's accuracy curves; the noise net's only when its model has one."""
    record, epochs = result.record, list(range(len(result.record)))
    heads = ["pred"] + (["noise"] if result.model.noise_head is not None else [])
    svgplot.line_chart(
        out / "selected_dynamics.svg",
        "training dynamics",
        "epoch",
        "accuracy",
        [
            *((f"{head} net, {subset} labels", epochs, getattr(record, f"{head}_acc_{subset}"))
              for head in heads for subset in ("clean", "wrong")),
            ("clean test", epochs, record.clean_test_acc),
            ("noisy val", epochs, record.noisy_val_acc),
        ],
        y_range=(0.0, 1.0),
    )


def _detection_outputs(out: Path, reports: list[detect_mod.DetectionReport]) -> dict[str, float]:
    """Write each report's JSON and histogram; returns the AUCs (NaN for none) by method."""
    aucs: dict[str, float] = {}
    for report in reports:
        method = report.method
        doc = {
            "method": method,
            "auc": _float_or_none(report.auc),
            "bin_edges": report.bin_edges.tolist(),
            "clean_counts": report.clean_counts.tolist(),
            "wrong_counts": report.wrong_counts.tolist(),
            "num_scores": int(report.scores.shape[0]),
        }
        _write_json(out / f"detection_{method}.json", doc)
        svgplot.paired_histogram(
            out / f"detection_{method}_hist.svg",
            f"{method} score distribution (train split)",
            f"{method} score",
            report.bin_edges,
            report.clean_counts.tolist(),
            report.wrong_counts.tolist(),
        )
        aucs[method] = report.auc
    return aucs


def _scores(result: TrainResult | None) -> dict:
    """A trial's report scores for JSON. A failed trial (no result) has best
    epoch -1 and null accuracies; an accuracy that is not finite, such as
    that on an empty split, is null too."""
    if result is None:
        return {"best_epoch": -1, **dict.fromkeys(SCORE_FIELDS[1:])}
    return {k: v if k == "best_epoch" else _float_or_none(v) for k, v in result.scores().items()}


def _trial_doc(t: TrialOutcome) -> dict:
    return {
        "index": t.index,
        "params": t.params,
        "seed": t.seed,
        "status": t.status,
        "error": t.error,
        **_scores(t.result),
    }


def cmd_train(args: argparse.Namespace) -> int:
    started = time.monotonic()
    if args.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers}")
    cfg = load_experiment_config(args.config, args.seed)
    if cfg.grid is None and args.workers > 1:
        raise ConfigError(
            f"--workers {args.workers} runs grid trials in parallel, but the config has no [grid]"
        )
    ds = build_dataset(cfg)

    if cfg.grid is not None:
        trials = run_grid(cfg.grid, ds, cfg.train, cfg.model, workers=args.workers)
    else:
        trials = [run_trial(TrialJob(0, {}, cfg.train.seed, ds, cfg.train, cfg.model))]
    winners = [t for t in trials if t.result is not None]
    if not winners:  # run_grid ranks the failed trials last, in point order
        first = trials[0]
        if cfg.grid is None:
            raise NumericError(first.error)
        point = ", ".join(f"{k} = {v}" for k, v in first.params.items())
        raise NumericError(f"every grid trial failed; trial {first.index} ({point}): {first.error}")
    selected = winners[0]
    result = selected.result
    record, epoch = result.record, result.model_epoch
    reports = []
    if ds.has_clean_labels:
        # the scores come from the evaluation pass of the saved model's epoch;
        # a model without a gate has no gate scores
        wrong = ds.wrong_mask_of(data_mod.SPLIT_TRAIN)
        scores = result.detection_scores
        reports = [
            detect_mod.report(method, scores[method], wrong)
            for method in cfg.detection_methods
            if method in scores
        ]

    # a run that fails above leaves no output directory
    out = _out_dir(cfg, args.out)
    for t in winners:
        _write_csv(out / f"trial_{t.index:03d}_record.csv", _record_rows(t.result.record))
    model_mod.save_checkpoint(result.model, out / "best_checkpoint.json")
    _dynamics_plot(out, result)
    aucs = _detection_outputs(out, reports)

    summary = {
        "config_hash": cfg.config_hash(),
        "seed": cfg.seed,
        "seed_streams": {
            "data": derive_seed(cfg.seed, "data"),
            "split": derive_seed(cfg.seed, "split"),
            "train": derive_seed(cfg.seed, "train"),
        },
        "trials": [_trial_doc(t) for t in trials],
        "selected_trial": selected.index,
        "selected_epoch": epoch,
        "early_stopping": cfg.train.early_stopping,
        "detection_auc": {method: _float_or_none(auc) for method, auc in aucs.items()},
        "wall_clock_seconds": round(time.monotonic() - started, 3),
    }
    _write_json(out / "summary.json", summary)
    print(
        f"selected trial {selected.index}: noisy_val={record.noisy_val_acc[epoch]:.4f} "
        f"clean_test={record.clean_test_acc[epoch]:.4f} (epoch {epoch})"
    )
    return EXIT_OK


def cmd_detect(args: argparse.Namespace) -> int:
    model = model_mod.load_checkpoint(args.checkpoint)
    ds = data_mod.load_csv(args.data)
    if not ds.has_clean_labels:
        raise ConfigError(
            "dataset has no clean_label column: detection AUC needs ground truth"
        )
    try:
        methods = parse_methods(args.methods)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    # a model without a gate has no gate scores; the data is checked for the methods left
    gateless = "gate" in methods and model.gate_head is None
    methods = [m for m in methods if m != "gate" or not gateless]
    if not methods:
        why = "the checkpoint's model has no gate, so " if gateless else ""
        raise ConfigError(f"--methods {args.methods!r}: {why}there is nothing to score")
    if ds.feature_dim != model.feature_dim:
        raise DataFormatError(
            f"dataset has {ds.feature_dim} feature columns, the checkpoint expects "
            f"{model.feature_dim}"
        )
    if ds.num_classes > model.num_classes:
        raise DataFormatError(
            f"dataset has labels of {ds.num_classes} classes, the checkpoint predicts "
            f"{model.num_classes}"
        )
    if "gate" in methods and ds.pi_dim != model.pi_dim:
        raise DataFormatError(
            f"dataset has {ds.pi_dim} PI columns, the checkpoint expects {model.pi_dim}: "
            "the random-PI block that `train` appends is not in the dataset, and the "
            "checkpoint does not record it"
        )
    reports = [detect_mod.detect(model, ds, m) for m in methods]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    aucs = _detection_outputs(out, reports)
    for method, auc in aucs.items():
        print(f"{method} AUC: {auc:.4f}")
    return EXIT_OK


def cmd_risk(args: argparse.Namespace) -> int:
    cfg = load_experiment_config(args.config, args.seed)
    r = cfg.risk
    base_seed = derive_seed(cfg.seed, "risk")

    def make_setup(n_clean=r.n_clean, sigma=r.sigma, seed=base_seed):
        return risk_mod.make_setup(
            r.n, r.d, r.m, n_clean, sigma, seed, r.coef_scale, r.pi_coef_scale
        )

    # one (setup_id, sweep value, setup, fit mask) per sweep point
    points = []
    if r.sweep == "none":
        setup = make_setup()
        points.append(("base", 0.0, setup, setup.clean_mask))
    elif r.sweep == "corruption":
        setup = make_setup()
        for flips in r.sweep_values:
            seed = derive_seed(base_seed, "corrupt", flips)
            mask = risk_mod.corrupt_mask(setup.clean_mask, flips, seed)
            points.append((f"corrupt_{flips}", flips, setup, mask))
    elif r.sweep == "n2":
        for n2 in r.sweep_values:
            setup = make_setup(n_clean=r.n - n2, seed=derive_seed(base_seed, "n2", n2))
            points.append((f"n2_{n2}", n2, setup, setup.clean_mask))
    else:  # sigma sweep over a fixed design
        for sigma in r.sweep_values:
            setup = make_setup(sigma=sigma)
            points.append((f"sigma_{sigma:g}", sigma, setup, setup.clean_mask))

    # the distinct (setup, fit mask) pairs of every row's OLS and gated fits:
    # equal pairs, such as OLS on the one setup of a corruption sweep, are
    # solved once, and the Monte-Carlo oracle scores them all on one set of draws
    pairs = {}
    for _, _, setup, fit_mask in points:
        for mask in (setup.all_rows, fit_mask):
            pairs.setdefault((id(setup), mask.tobytes()), (setup, mask))
    mc_means = {}
    if r.resamples > 0:
        stats = risk_mod.monte_carlo_risks(
            list(pairs.values()), r.resamples, derive_seed(base_seed, "monte_carlo")
        )
        mc_means = {key: mean for key, (mean, _) in zip(pairs, stats)}
    closed = {key: risk_mod.closed_form_risk(*pair) for key, pair in pairs.items()}

    def cell(value: float | None) -> str:
        # lossless; a Monte-Carlo mean is None, an empty cell, when resamples = 0
        return "" if value is None else repr(float(value))

    rows = []
    labels = ("OLS closed form", "gated closed form", "OLS Monte Carlo", "gated Monte Carlo")
    curves = {label: [] for label in labels}
    for setup_id, _, setup, fit_mask in points:
        keys = [(id(setup), mask.tobytes()) for mask in (setup.all_rows, fit_mask)]
        ols, gated = (closed[key] for key in keys)
        mc_ols, mc_gated = (mc_means.get(key) for key in keys)
        rows.append({
            "setup_id": setup_id,
            "n": setup.n,
            "n1": setup.n_clean,
            "n2": setup.n_noisy,
            "d": setup.features.shape[1],
            "m": setup.pi.shape[1],
            "sigma": cell(setup.noise_std),
            "ols_bias": cell(ols.bias_term),
            "ols_var": cell(ols.variance_term),
            "pidual_bias": cell(gated.bias_term),
            "pidual_var": cell(gated.variance_term),
            "ols_total": cell(ols.total),
            "pidual_total": cell(gated.total),
            "mc_ols": cell(mc_ols),
            "mc_pidual": cell(mc_gated),
        })
        for ys, y in zip(curves.values(), (ols.total, gated.total, mc_ols, mc_gated)):
            ys.append(y)
    sweep_points = [value for _, value, _, _ in points]

    out = _out_dir(cfg, args.out)
    _write_csv(out / "risk.csv", rows)
    # the Monte-Carlo means are None when resamples = 0, and those curves are left out
    series = [(label, sweep_points, ys) for label, ys in curves.items() if None not in ys]
    svgplot.line_chart(
        out / "risk.svg", "expected risk on clean targets", r.sweep, "risk", series
    )
    print(f"wrote {out / 'risk.csv'} ({len(rows)} rows)")
    return EXIT_OK


def cmd_ablate(args: argparse.Namespace) -> int:
    started = time.monotonic()
    variants = GridSpec({"variant": list(ABLATION_VARIANTS)})
    cfg = load_experiment_config(args.config, args.seed, variants)
    ds = build_dataset(cfg)
    outcomes = run_grid(variants, ds, cfg.train, cfg.model, shared_seed=True)
    failed = [(t.params["variant"], t.error) for t in outcomes if t.result is None]
    if failed:  # run_grid ranks the failed trials last, in table order
        raise NumericError("ablation variant {} failed: {}".format(*failed[0]))
    results = {t.params["variant"]: t.result for t in outcomes}
    scores = {name: result.scores() for name, result in results.items()}

    def order(name: str) -> tuple:
        # by clean test accuracy; a variant without one (no clean test split)
        # is unranked and listed after the others, by name
        acc = scores[name]["clean_test_at_best"]
        return (False, -acc, name) if math.isfinite(acc) else (True, 0.0, name)

    names = sorted(results, key=order)
    ranks = [
        str(i) if math.isfinite(scores[name]["clean_test_at_best"]) else ""
        for i, name in enumerate(names, start=1)
    ]

    out = _out_dir(cfg, args.out)
    _write_csv(
        out / "ablation.csv",
        [
            {"rank": rank, "variant": name, **{k: repr(v) for k, v in scores[name].items()}}
            for rank, name in zip(ranks, names)
        ],
    )
    for name in names:
        _write_csv(out / f"ablation_{name}_record.csv", _record_rows(results[name].record))
    summary = {
        "config_hash": cfg.config_hash(),
        "seed": cfg.seed,
        "variants": [{"variant": name, **_scores(results[name])} for name in names],
        "wall_clock_seconds": round(time.monotonic() - started, 3),
    }
    _write_json(out / "summary.json", summary)
    for rank, name in zip(ranks, names):
        print(
            f"{rank + '. ' if rank else ''}{name}: "
            f"clean_test={scores[name]['clean_test_at_best']:.4f} "
            f"(final {scores[name]['clean_test_final']:.4f})"
        )
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reports a usage error in one stderr line, without the usage block.

    The subcommand parsers are built with this class too.
    """

    def error(self, message: str):
        self.exit(EXIT_CONFIG, f"usage error: {self.prog}: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pidual",
        description="Noisy-label training with privileged information: data "
        "generation, gated dual-network training, wrong-label detection, and "
        "linear risk analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--seed", type=int, default=None, help="override the top-level seed")

    p_gen = sub.add_parser("gen", help="generate a dataset CSV + metadata sidecar")
    common(p_gen)
    p_gen.set_defaults(func=cmd_gen)

    p_train = sub.add_parser("train", help="train a single trial or a grid")
    common(p_train)
    p_train.add_argument(
        "--workers", type=int, default=1,
        help="parallel grid-trial processes (>= 1; above 1 needs a [grid])",
    )
    p_train.set_defaults(func=cmd_train)

    p_detect = sub.add_parser("detect", help="score wrong-label detection on a train split")
    p_detect.add_argument("--checkpoint", required=True)
    p_detect.add_argument("--data", required=True, help="dataset CSV with clean labels")
    p_detect.add_argument(
        "--methods", default=",".join(detect_mod.METHODS),
        help=f"comma list of detection methods: {', '.join(detect_mod.METHODS)}",
    )
    p_detect.add_argument("--out", required=True)
    p_detect.set_defaults(func=cmd_detect)

    p_risk = sub.add_parser("risk", help="closed-form vs Monte-Carlo risk comparison")
    common(p_risk)
    p_risk.set_defaults(func=cmd_risk)

    p_ablate = sub.add_parser(
        "ablate",
        help="train all architecture ablations",
        description="Train the seven ablation rows, each a fixed architecture, on the "
        "config's data under its [train] settings, one shared seed and [model] widths: "
        "the rows are the points of a variant axis, run as one grid. [model]'s four "
        "ablation flags (use_gate, use_noise_net, gate_space, noise_input) do not apply, "
        "and [grid] is neither run nor size-checked. The size cap counts every row.",
    )
    common(p_ablate)
    p_ablate.set_defaults(func=cmd_ablate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # a non-finite result is checked for and reported in one line below,
        # so numpy's overflow and invalid-value warnings would only repeat it
        with np.errstate(all="ignore"):
            return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericError, ShapeError, ContractError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DataFormatError, OSError) as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
