"""Training protocol: minibatch SGD with step decay, per-epoch metric
capture on the clean/wrong train subsets, early stopping at the best
noisy-validation epoch, and one trial runner for single trials, grids and
ablations.

Model selection never touches clean labels: the noisy validation accuracy is
the combined training-time output scored against the held-out noisy labels.
Clean-label metrics are recorded alongside for analysis only; pass
``collect_metrics=False`` to skip them entirely (the fitting path and the
selected model are unaffected).
"""
from __future__ import annotations

import concurrent.futures
import csv
import itertools
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import data as data_mod
from . import model as model_mod
from .data import PiDataset, RandomPiSpec, augment_random_pi
from .errors import ConfigError, ContractError, NumericError
from .model import AblationFlags, ModelConfig, PiDualModel
from .nn_core import init_optimizer, sgd_step
from .seeding import derive_seed

HEAD_COMBINED = "combined"
HEAD_PREDICTION = "prediction"


@dataclass
class TrainConfig:
    epochs: int = 60
    batch_size: int = 128
    base_lr: float = 0.05
    decay_epochs: list[int] = field(default_factory=lambda: [30, 45])
    decay_factor: float = 0.2
    momentum: float = 0.9
    weight_decay: float = 1e-4
    exempt_pi_nets_from_wd: bool = True
    random_pi_length: int = 8
    early_stopping: bool = True
    seed: int = 0

    def validate(self) -> None:
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.base_lr < 0:
            raise ConfigError("base_lr must be >= 0")
        if list(self.decay_epochs) != sorted(self.decay_epochs):
            raise ConfigError("decay_epochs must be sorted ascending")
        if not 0 < self.decay_factor <= 1:
            raise ConfigError("decay_factor must be in (0, 1]")
        if self.random_pi_length < 0:
            raise ConfigError("random_pi_length must be >= 0")


@dataclass
class TrainRecord:
    """Per-epoch metric table; every field is a float array of equal length."""

    train_acc_clean: np.ndarray
    train_acc_wrong: np.ndarray
    pred_acc_clean: np.ndarray
    pred_acc_wrong: np.ndarray
    noise_acc_clean: np.ndarray
    noise_acc_wrong: np.ndarray
    noisy_val_acc: np.ndarray
    clean_test_acc: np.ndarray
    mean_gate_clean: np.ndarray
    mean_gate_wrong: np.ndarray

    def __len__(self) -> int:
        return self.noisy_val_acc.shape[0]

    def to_csv(self, path: str | Path) -> None:
        with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(RECORD_COLUMNS)
            for e in range(len(self)):
                row = [str(e)] + [
                    repr(float(getattr(self, col)[e])) for col in RECORD_COLUMNS[1:]
                ]
                writer.writerow(row)

    @staticmethod
    def from_csv(path: str | Path) -> "TrainRecord":
        with Path(path).open("r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if tuple(header) != RECORD_COLUMNS:
                raise ContractError(f"{path}: unexpected training-record header")
            rows = [[float(v) for v in row] for row in reader]
        arr = np.asarray(rows, dtype=np.float64).reshape(len(rows), len(RECORD_COLUMNS))
        cols = {name: arr[:, i] for i, name in enumerate(RECORD_COLUMNS)}
        cols.pop("epoch")
        return TrainRecord(**cols)


# The record CSV's header: the epoch, then the TrainRecord fields in order.
RECORD_COLUMNS = ("epoch", *(f.name for f in fields(TrainRecord)))


@dataclass
class TrainResult:
    best_model: PiDualModel
    final_model: PiDualModel
    record: TrainRecord
    best_epoch: int


def evaluate(
    model: PiDualModel,
    ds: PiDataset,
    split: str,
    on_labels: str = "noisy",
    head: str = HEAD_COMBINED,
) -> float:
    """Fraction of argmax matches of the chosen head on the chosen labels."""
    x, a = ds.eval_inputs(split)
    if on_labels == "noisy":
        labels = ds.noisy_labels_of(split)
    elif on_labels == "clean":
        labels = ds.clean_labels_of(split)
    else:
        raise ContractError(f"unknown label kind {on_labels!r}")
    if head == HEAD_PREDICTION:
        scores = model_mod.prediction_logits(model, x)
    elif head == HEAD_COMBINED:
        scores, _, _ = model_mod.forward_train(model, x, a)
    else:
        raise ContractError(f"unknown head {head!r}")
    return float((scores.argmax(axis=1) == labels).mean())


def _masked_mean(values: np.ndarray, mask: np.ndarray) -> float:
    if mask.sum() == 0:
        return math.nan
    return float(values[mask].mean())


def _train_subset_metrics(
    model: PiDualModel, x: np.ndarray, a: np.ndarray, y: np.ndarray, wrong: np.ndarray
) -> dict[str, float]:
    """The clean/wrong train-subset columns of the record from one forward pass."""
    combined, gate, tape = model_mod.forward_train(model, x, a)
    heads = {"train": combined, "pred": tape.pred_logits, "noise": tape.noise_logits}
    hits = {head: scores.argmax(axis=1) == y for head, scores in heads.items()}
    row = {}
    for subset, mask in (("clean", ~wrong), ("wrong", wrong)):
        for head, hit in hits.items():
            row[f"{head}_acc_{subset}"] = _masked_mean(hit, mask)
        if gate is not None:
            row[f"mean_gate_{subset}"] = _masked_mean(gate, mask)
    return row


def train(
    model: PiDualModel,
    ds: PiDataset,
    cfg: TrainConfig,
    collect_metrics: bool = True,
) -> TrainResult:
    """Shuffled minibatch SGD over the train split for ``cfg.epochs``.

    Returns the snapshot at the best noisy-validation epoch (ties -> earliest),
    the final model and the per-epoch record. Deterministic given the seed.
    One worker thread evaluates each epoch's snapshot while the next epoch
    trains; it is joined before this returns or raises, and an exception it
    raises is raised here.
    """
    cfg.validate()
    x_tr, a_tr, y_tr = ds.train_arrays()
    if x_tr.shape[0] == 0:
        raise ContractError("train split is empty")
    if x_tr.shape[1] != model.feature_dim or ds.num_classes != model.num_classes:
        raise ContractError("model dimensions do not match the dataset")
    expected_pi = model.pi_trunk.in_dim - (
        model.feature_dim if model.flags.noise_input == model_mod.NOISE_INPUT_PI_AND_X else 0
    )
    if a_tr.shape[1] != expected_pi:
        raise ContractError(
            f"model expects PI width {expected_pi}, dataset has {a_tr.shape[1]}"
        )

    rng = np.random.default_rng(derive_seed(cfg.seed, "shuffle"))
    state = init_optimizer(
        model.params, cfg.base_lr, cfg.momentum, cfg.weight_decay, cfg.decay_epochs,
        cfg.decay_factor,
    )
    # the PI components follow the prediction net in the vector (model.COMPONENTS)
    decayed = model.prediction.size if cfg.exempt_pi_nets_from_wd else model.params.size
    nets = model.components()
    grads = np.empty_like(model.params)

    has_val = ds.split_indices(data_mod.SPLIT_NOISY_VAL).size > 0
    has_clean = ds.has_clean_labels
    has_test = ds.split_indices(data_mod.SPLIT_CLEAN_TEST).size > 0
    wrong_train = (
        ds.wrong_mask_of(data_mod.SPLIT_TRAIN) if (has_clean and collect_metrics) else None
    )

    def epoch_row(snap: PiDualModel) -> dict[str, float]:
        row = {c: math.nan for c in RECORD_COLUMNS[1:]}
        if wrong_train is not None:
            # one train-split pass; its tape is freed before the val and test passes
            row.update(_train_subset_metrics(snap, x_tr, a_tr, y_tr, wrong_train))
        if has_val:
            row["noisy_val_acc"] = evaluate(snap, ds, data_mod.SPLIT_NOISY_VAL)
        if collect_metrics and has_clean and has_test:
            row["clean_test_acc"] = evaluate(
                snap, ds, data_mod.SPLIT_CLEAN_TEST, "clean", HEAD_PREDICTION
            )
        return row

    n = x_tr.shape[0]
    columns: dict[str, list[float]] = {c: [] for c in RECORD_COLUMNS[1:]}
    best_acc = -math.inf
    best_epoch = -1
    best_model: PiDualModel | None = None

    def resolve(epoch: int, snap: PiDualModel, future: concurrent.futures.Future) -> None:
        nonlocal best_acc, best_epoch, best_model
        row = future.result()
        for col, value in row.items():
            columns[col].append(value)
        if has_val and row["noisy_val_acc"] > best_acc:
            best_acc = row["noisy_val_acc"]
            best_epoch = epoch
            best_model = snap

    # Epoch e is evaluated on its own snapshot in a second thread while this one
    # runs the steps of epoch e + 1; evaluation is BLAS work on whole splits,
    # which releases the GIL, and the steps are Python-bound.
    with concurrent.futures.ThreadPoolExecutor(max_workers=1) as pool:
        pending = None
        for epoch in range(cfg.epochs):
            perm = rng.permutation(n)
            for b_idx, start in enumerate(range(0, n, cfg.batch_size)):
                idx = perm[start : start + cfg.batch_size]
                _, _, tape = model_mod.forward_train(model, x_tr[idx], a_tr[idx])
                loss = model_mod.training_loss(tape, y_tr[idx])
                if not math.isfinite(loss):
                    raise NumericError(f"non-finite loss at epoch {epoch}, batch {b_idx}")
                model_mod.backward_train(model, tape, y_tr[idx], out=grads)
                sgd_step(model.params, grads, state, epoch, decayed, layout=nets)

            if pending is not None:
                resolve(*pending)
            snap = model.copy()
            pending = (epoch, snap, pool.submit(epoch_row, snap))
        resolve(*pending)

    if best_model is None:
        best_model = snap
        best_epoch = cfg.epochs - 1
    record = TrainRecord(**{c: np.asarray(v) for c, v in columns.items()})
    return TrainResult(best_model, model, record, best_epoch)


# ---------------------------------------------------------------------------
# Trials: single runs, grids and ablations.
# ---------------------------------------------------------------------------

# The grid axes and the type of their values. Each names a field of exactly one
# of TrainConfig, ModelConfig and AblationFlags, which apply_grid_point
# overrides.
GRID_AXES = {
    "base_lr": float,
    "weight_decay": float,
    "momentum": float,
    "decay_factor": float,
    "epochs": int,
    "batch_size": int,
    "random_pi_length": int,
    "exempt_pi_nets_from_wd": bool,
    "pi_width": int,
    "share_first_layer": bool,
    "use_gate": bool,
    "use_noise_net": bool,
    "gate_space": str,
    "noise_input": str,
}


@dataclass
class GridSpec:
    """Named hyperparameter axes; trials run over the cartesian product."""

    axes: dict[str, list]

    def validate(self) -> None:
        if not self.axes:
            raise ConfigError("grid must have at least one axis")
        for name, values in self.axes.items():
            if name not in GRID_AXES:
                raise ConfigError(f"unknown grid axis {name!r}")
            if not values:
                raise ConfigError(f"grid axis {name!r} has no candidate values")

    def points(self) -> list[dict]:
        names = list(self.axes)
        return [
            dict(zip(names, combo))
            for combo in itertools.product(*(self.axes[n] for n in names))
        ]


@dataclass
class TrialJob:
    """One trial: ``params`` override the base configs (``apply_grid_point``)
    and the trial trains on ``ds`` under ``seed``.

    The overrides are applied when the job runs, so a point with an invalid
    value becomes a failed trial instead of aborting its siblings.
    """

    index: int
    params: dict
    seed: int
    ds: PiDataset
    cfg: TrainConfig
    model_cfg: ModelConfig


@dataclass
class TrialOutcome:
    index: int
    params: dict
    seed: int
    status: str
    error: str = ""
    best_epoch: int = -1
    best_noisy_val_acc: float = math.nan
    clean_test_at_best: float = math.nan
    clean_test_final: float = math.nan
    record: TrainRecord | None = None
    # The model the trial keeps and its epoch: the best-epoch snapshot under
    # early stopping, else the final model.
    model: PiDualModel | None = None
    model_epoch: int = -1
    # augment_random_pi(job.ds, random_pi) is the data the model was trained on.
    random_pi: RandomPiSpec | None = None


def apply_grid_point(
    base_cfg: TrainConfig, model_cfg: ModelConfig, params: dict
) -> tuple[TrainConfig, ModelConfig]:
    def over(cls) -> dict:
        names = {f.name for f in fields(cls)}
        return {k: v for k, v in params.items() if k in names}

    cfg = replace(base_cfg, **over(TrainConfig))
    flags = replace(model_cfg.flags, **over(AblationFlags))
    return cfg, replace(model_cfg, flags=flags, **over(ModelConfig))


def _random_pi(cfg: TrainConfig) -> RandomPiSpec:
    return RandomPiSpec(cfg.random_pi_length, derive_seed(cfg.seed, "random_pi"))


def run_trial(
    ds: PiDataset, model_cfg: ModelConfig, cfg: TrainConfig
) -> tuple[TrainResult, PiDataset]:
    """Augment the PI with the trial's random identifiers, build, train.

    Returns the result together with the augmented dataset (detection needs
    the same PI the model was trained on).
    """
    ds_aug = augment_random_pi(ds, _random_pi(cfg))
    model = model_cfg.build(
        ds_aug.feature_dim, ds_aug.pi_dim, ds_aug.num_classes, derive_seed(cfg.seed, "init")
    )
    return train(model, ds_aug, cfg), ds_aug


def _run_job(job: TrialJob) -> TrialOutcome:
    """Train one job; a failure is recorded in the outcome, not raised."""
    try:
        cfg, model_cfg = apply_grid_point(job.cfg, job.model_cfg, job.params)
        cfg = replace(cfg, seed=job.seed)
        result, _ = run_trial(job.ds, model_cfg, cfg)
    except Exception as exc:  # trial failures must not abort siblings
        return TrialOutcome(job.index, job.params, job.seed, status="failed", error=str(exc))
    rec, best = result.record, result.best_epoch
    if cfg.early_stopping:
        model, model_epoch = result.best_model, best
    else:
        model, model_epoch = result.final_model, len(rec) - 1
    return TrialOutcome(
        job.index,
        job.params,
        job.seed,
        status="ok",
        best_epoch=best,
        best_noisy_val_acc=float(rec.noisy_val_acc[best]),
        clean_test_at_best=float(rec.clean_test_acc[best]),
        clean_test_final=float(rec.clean_test_acc[-1]),
        record=rec,
        model=model,
        model_epoch=model_epoch,
        random_pi=_random_pi(cfg),
    )


def run_trials(jobs: list[TrialJob], workers: int = 1) -> list[TrialOutcome]:
    """One outcome per job, in job order.

    Jobs are independent and run in a process pool when ``workers > 1``. The
    pool never outnumbers the jobs: a process pool forks every worker at its
    first submit, whether or not a job is left for it.
    """
    pool_size = min(workers, len(jobs))
    if pool_size > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=pool_size) as pool:
            return list(pool.map(_run_job, jobs))
    return [_run_job(job) for job in jobs]


def run_grid(
    grid: GridSpec,
    ds: PiDataset,
    base_cfg: TrainConfig,
    model_cfg: ModelConfig,
    workers: int = 1,
) -> list[TrialOutcome]:
    """One trial per grid point with a derived per-trial seed.

    Returns outcomes ranked by best noisy-validation accuracy (failed trials
    last).
    """
    grid.validate()
    jobs = [
        TrialJob(i, params, derive_seed(base_cfg.seed, "trial", i), ds, base_cfg, model_cfg)
        for i, params in enumerate(grid.points())
    ]
    outcomes = run_trials(jobs, workers)
    outcomes.sort(
        key=lambda t: (
            t.status != "ok",
            -(t.best_noisy_val_acc if math.isfinite(t.best_noisy_val_acc) else -math.inf),
            t.index,
        )
    )
    return outcomes


# The ablation table: (variant, overrides, train on the random PI alone). The
# overrides are grid axes, so apply_grid_point routes them to AblationFlags.
ABLATION_VARIANTS = (
    ("cross_entropy", {"use_gate": False, "use_noise_net": False}, False),
    ("pidual_full", {}, False),
    ("no_gating", {"use_gate": False}, False),
    ("no_noise_net", {"use_noise_net": False}, False),
    ("gate_prob_space", {"gate_space": model_mod.GATE_SPACE_PROBABILITY}, False),
    ("only_random_pi", {}, True),
    ("noise_with_features", {"noise_input": model_mod.NOISE_INPUT_PI_AND_X}, False),
)


def ablation_jobs(ds: PiDataset, cfg: TrainConfig, model_cfg: ModelConfig) -> list[TrialJob]:
    """One job per ABLATION_VARIANTS row, in table order, all under ``cfg.seed``."""
    stripped = data_mod.strip_pi(ds)
    return [
        TrialJob(i, over, cfg.seed, stripped if strip else ds, cfg, model_cfg)
        for i, (_, over, strip) in enumerate(ABLATION_VARIANTS)
    ]
