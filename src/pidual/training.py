"""Training protocol: minibatch SGD with step decay, per-epoch metric
capture on the clean/wrong train subsets, early stopping at the best
noisy-validation epoch, and one trial runner for single trials, grids and
ablations, whose rows are the points of a grid over a ``variant`` axis.

Model selection never touches clean labels: the noisy validation accuracy is
the combined training-time output scored against the held-out noisy labels.
Clean-label metrics are recorded alongside for analysis only.
"""
from __future__ import annotations

import concurrent.futures
import functools
import itertools
import math
import pickle
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import data as data_mod
from . import detection
from . import model as model_mod
from .data import PiDataset, RandomPiSpec, augment_random_pi
from .errors import ContractError, EvaluationError, NumericError
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


# The header of the record CSV that cli writes: the epoch, then the TrainRecord
# fields in order.
RECORD_COLUMNS = ("epoch", *(f.name for f in fields(TrainRecord)))


# The scores every trial report lists, in report order (TrainResult.scores).
SCORE_FIELDS = ("best_epoch", "best_noisy_val_acc", "clean_test_at_best", "clean_test_final")


@dataclass
class TrainResult:
    # The snapshot the trial keeps and its epoch, the row of ``record`` it
    # reproduces (see train).
    model: PiDualModel
    model_epoch: int
    record: TrainRecord
    # The best noisy-validation epoch; the final one without a noisy-val split.
    best_epoch: int
    # The kept epoch's train-split detection scores by method; empty without
    # clean labels, and without "gate" for a model with no gate.
    detection_scores: dict[str, np.ndarray]

    def scores(self) -> dict:
        """The ``SCORE_FIELDS``: the best epoch, its noisy-val and clean-test
        accuracies, and the final epoch's clean-test accuracy."""
        rec, best = self.record, self.best_epoch
        values = (rec.noisy_val_acc[best], rec.clean_test_acc[best], rec.clean_test_acc[-1])
        return dict(zip(SCORE_FIELDS, (best, *map(float, values))))


def evaluate(
    model: PiDualModel,
    ds: PiDataset,
    split: str,
    on_labels: str = "noisy",
    head: str = HEAD_COMBINED,
    out: model_mod.Workspace | None = None,
) -> float:
    """Fraction of argmax matches of the chosen head on the chosen labels.

    ``out``, a ``model_mod.Workspace`` of ``model`` for the split's rows,
    takes the layer outputs of the pass."""
    x, a = ds.eval_inputs(split)
    if on_labels == "noisy":
        labels = ds.noisy_labels_of(split)
    elif on_labels == "clean":
        labels = ds.clean_labels_of(split)
    else:
        raise ContractError(f"unknown label kind {on_labels!r}")
    if head == HEAD_PREDICTION:
        scores = model_mod.prediction_logits(model, x, out)
    elif head == HEAD_COMBINED:
        scores, _, _ = model_mod.forward_train(model, x, a, out)
    else:
        raise ContractError(f"unknown head {head!r}")
    return float((scores.argmax(axis=1) == labels).mean())


def _masked_mean(values: np.ndarray, mask: np.ndarray) -> float:
    if mask.sum() == 0:
        return math.nan
    return float(values[mask].mean())


def _train_subset_metrics(
    model: PiDualModel,
    x: np.ndarray,
    a: np.ndarray,
    y: np.ndarray,
    wrong: np.ndarray,
    out: model_mod.Workspace | None = None,
) -> tuple[dict[str, float], dict[str, np.ndarray]]:
    """The clean/wrong train-subset columns of the record and each row's
    detection scores, from one forward pass through ``out`` when it is
    given.

    The scores are keyed by detection method: the prediction network's
    confidence on each row's label, and the gate when the model has one. They
    are the arithmetic of ``detection.detect``'s, which reads them from the
    ``prediction_logits`` and ``gate_values`` passes, so the same bits.
    """
    combined, gate, tape = model_mod.forward_train(model, x, a, out)
    # a model without a noise network has no noise columns: they stay NaN
    heads = {"train": combined, "pred": tape.pred_logits, "noise": tape.noise_logits}
    hits = {head: s.argmax(axis=1) == y for head, s in heads.items() if s is not None}
    row = {}
    for subset, mask in (("clean", ~wrong), ("wrong", wrong)):
        for head, hit in hits.items():
            row[f"{head}_acc_{subset}"] = _masked_mean(hit, mask)
        if gate is not None:
            row[f"mean_gate_{subset}"] = _masked_mean(gate, mask)
    scores = {"confidence": detection.label_confidence(tape.pred_logits, y)}
    if gate is not None:
        scores["gate"] = gate
    return row, scores


class _EvaluationProcess:
    """A forked child that scores one epoch's parameters at a time.

    Through the fork the child inherits ``template``, a model to score on, and
    ``score``. ``submit`` sends a parameter vector through the pipe; the child
    copies the message into ``template.params`` and replies ``score(template)``
    or the exception it raised. An empty message stops the child.

    Between requests the child keeps ``template``, which each request
    overwrites, and what ``score`` keeps in its closure: ``train``'s scorer
    keeps one ``model_mod.Workspace`` of ``template`` per split, made at the
    child's first pass over that split, so later epochs allocate only the
    gate's output column and the per-row results. Its reply is the epoch's
    record row together with the per-row detection scores of its train-split
    pass, so the parent never runs a full-split pass of its own.

    The start method is fork, not spawn, so that the splits and the scoring
    closure reach the child without being pickled. A fork copies only the
    calling thread, so a caller that trains from several threads at once
    relies on no other thread holding, at the fork, a lock the child needs.
    """

    # seconds the child gets to exit after the stop request before it is killed
    STOP_GRACE_S = 10.0

    def __init__(self, template: PiDualModel, score) -> None:
        # imported here: multiprocessing adds about 16 ms to `import pidual`,
        # which the commands that train nothing (gen, detect, risk) would pay
        import multiprocessing.connection

        self._wait = multiprocessing.connection.wait
        ctx = multiprocessing.get_context("fork")
        self._conn, child_conn = ctx.Pipe()
        self._proc = ctx.Process(target=self._serve, args=(child_conn, template, score))
        self._proc.start()
        child_conn.close()

    def _serve(self, conn, template: PiDualModel, score) -> None:
        import signal

        self._conn.close()  # so the parent's exit reads as EOF here
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the parent's to handle
        while conn.recv_bytes_into(template.params):
            try:
                reply = (True, score(template))
            except Exception as exc:
                reply = (False, _sendable(exc))
            conn.send(reply)

    def submit(self, params: np.ndarray) -> None:
        self._conn.send_bytes(params)

    def result(self):
        """The reply to the request in flight; raises what the child raised."""
        ready = self._wait([self._conn, self._proc.sentinel])
        try:
            if self._conn not in ready:
                raise EOFError
            ok, value = self._conn.recv()
        except EOFError:
            self._proc.join()
            raise EvaluationError(
                f"the evaluation process exited with code {self._proc.exitcode}"
            ) from None
        if ok:
            return value
        if isinstance(value, BaseException):
            raise value
        raise EvaluationError(value)

    def __enter__(self) -> "_EvaluationProcess":
        return self

    def __exit__(self, *exc_info) -> None:
        try:
            self._conn.send_bytes(b"")
        except OSError:  # the child is gone
            pass
        self._proc.join(self.STOP_GRACE_S)
        if self._proc.is_alive():
            self._proc.kill()
            self._proc.join()
        self._conn.close()


def _sendable(exc: Exception) -> Exception | str:
    """``exc`` if it survives a pickle round trip, else its class name and message."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return f"{type(exc).__name__}: {exc}"
    return exc


def _numeric_error(model: PiDualModel, what: str) -> NumericError:
    """``what`` as a ``NumericError`` that names the first tensor of
    ``model`` holding a non-finite parameter, if one does."""
    where = model.nonfinite_tensor()
    return NumericError(what + (f" with non-finite parameters in {where}" if where else ""))


def train(model: PiDualModel, ds: PiDataset, cfg: TrainConfig) -> TrainResult:
    """Shuffled minibatch SGD over the train split for ``cfg.epochs``.

    ``model`` is trained in place and ends at the final epoch. The result
    keeps one snapshot, ``TrainResult.model`` of epoch ``model_epoch``: the
    best noisy-validation epoch (ties -> earliest) under ``cfg.early_stopping``,
    else, or without a noisy-val split, the final one. It also holds the
    per-epoch record. Deterministic given the seed.

    A forked child process scores each epoch's snapshot while the next epoch
    trains; it is reaped before this returns or raises, an exception it raises
    is raised here, and its death raises ``EvaluationError``. Needs the fork
    start method (Linux). The child passes each split through one
    ``model_mod.Workspace``, made at its first pass over that split and reused
    every later epoch.

    Every minibatch step runs through one workspace too, made after the fork
    for ``min(cfg.batch_size, train rows)`` rows. The train arrays are
    gathered in each epoch's shuffled order once, so a minibatch, the short
    last one too, is a row slice of them. A step is the four calls
    ``forward_train``, ``training_loss``, ``backward_train`` and ``sgd_step``,
    each looked up on its module at call time, so a wrapper set there sees
    every step; it allocates only the narrow arrays of the loss and the mix.
    A step checks its loss, not its gradient: a non-finite update shows in a
    later loss or, at the latest, in the epoch's snapshot, before that epoch
    is scored, and the ``NumericError`` names the first non-finite tensor.

    With clean labels, the child's train-split pass also returns each row's
    detection scores (``_train_subset_metrics``) with the epoch's row. Those
    of the kept epoch are ``TrainResult.detection_scores``, so wrong-label
    detection needs no second forward pass over the split; dropping that pass
    lowered the peak memory of ``pidual train --config configs/benchmark.ini``
    from 52.0 to 46.9 MB on a 2-vCPU machine.
    """
    x_tr, a_tr, y_tr = ds.train_arrays()
    if x_tr.shape[0] == 0:
        raise ContractError("train split is empty")
    dims = (model.feature_dim, model.pi_dim, model.num_classes)
    widths = (x_tr.shape[1], a_tr.shape[1], ds.num_classes)
    if widths != dims:
        raise ContractError(
            f"the model's (x, PI, classes) {dims} do not match the dataset's {widths}"
        )

    rng = np.random.default_rng(derive_seed(cfg.seed, "shuffle"))
    state = init_optimizer(
        model.params, cfg.base_lr, cfg.momentum, cfg.weight_decay, cfg.decay_epochs,
        cfg.decay_factor,
    )
    # the PI components follow the prediction net in the vector (model.COMPONENTS)
    decayed = model.prediction.size if cfg.exempt_pi_nets_from_wd else model.params.size

    has_val = ds.split_indices(data_mod.SPLIT_NOISY_VAL).size > 0
    has_clean = ds.has_clean_labels
    has_test = ds.split_indices(data_mod.SPLIT_CLEAN_TEST).size > 0
    wrong_train = ds.wrong_mask_of(data_mod.SPLIT_TRAIN) if has_clean else None

    # the evaluation process's copy of the model, which each epoch overwrites
    template = model.copy()

    # made by the evaluation process at its first pass over the split, and
    # overwritten by every later one: the split's row count never changes
    @functools.cache
    def workspace(split: str) -> model_mod.Workspace:
        return model_mod.Workspace(template, ds.split_indices(split).size)

    def epoch_row(snap: PiDualModel) -> tuple[dict[str, float], dict[str, np.ndarray]]:
        row = {c: math.nan for c in RECORD_COLUMNS[1:]}
        scores = {}
        if wrong_train is not None:
            out = workspace(data_mod.SPLIT_TRAIN)
            subset_row, scores = _train_subset_metrics(snap, x_tr, a_tr, y_tr, wrong_train, out)
            row.update(subset_row)
        if has_val:
            split = data_mod.SPLIT_NOISY_VAL
            row["noisy_val_acc"] = evaluate(snap, ds, split, out=workspace(split))
        if has_clean and has_test:
            split = data_mod.SPLIT_CLEAN_TEST
            row["clean_test_acc"] = evaluate(
                snap, ds, split, "clean", HEAD_PREDICTION, out=workspace(split)
            )
        return row, scores

    n, batch = x_tr.shape[0], cfg.batch_size
    columns: dict[str, list[float]] = {c: [] for c in RECORD_COLUMNS[1:]}
    best_acc = -math.inf
    best_epoch = cfg.epochs - 1  # without a noisy-val split, the final epoch
    keep_best = cfg.early_stopping and has_val
    kept = None  # (snapshot, epoch, detection scores) of the epoch the trial keeps

    def resolve(epoch: int, snap: PiDualModel) -> None:
        nonlocal best_acc, best_epoch, kept
        row, scores = evaluator.result()
        for col, value in row.items():
            columns[col].append(value)
        is_best = has_val and row["noisy_val_acc"] > best_acc
        if is_best:
            best_acc = row["noisy_val_acc"]
            best_epoch = epoch
        if is_best or not keep_best:
            kept = (snap, epoch, scores)

    # Epoch e is scored on a copy of its parameters in a child process while
    # this one runs the steps of epoch e + 1, so the steps alone are the
    # critical path; the snapshot itself stays here in case the trial keeps it.
    with _EvaluationProcess(template, epoch_row) as evaluator:
        # made after the fork, so the evaluation process does not hold a copy
        ws = model_mod.Workspace(model, min(batch, n))
        # the train split in the epoch's shuffled order
        x_ep, a_ep, y_ep = shuffled = [np.empty(t.shape, t.dtype) for t in (x_tr, a_tr, y_tr)]
        pending = None
        for epoch in range(cfg.epochs):
            order = rng.permutation(n)
            for src, dst in zip((x_tr, a_tr, y_tr), shuffled):
                # every row index is valid, so "clip" changes none; it spares
                # the copy that take's default mode makes of ``out``
                np.take(src, order, axis=0, out=dst, mode="clip")
            for b_idx, start in enumerate(range(0, n, batch)):
                stop = start + batch
                model_mod.forward_train(model, x_ep[start:stop], a_ep[start:stop], out=ws)
                loss = model_mod.training_loss(ws, y_ep[start:stop])
                if not math.isfinite(loss):
                    raise _numeric_error(model, f"non-finite loss at epoch {epoch}, batch {b_idx}")
                model_mod.backward_train(model, ws)
                sgd_step(model.params, ws.grad, state, epoch, decayed)

            if pending is not None:
                resolve(*pending)
            try:
                snap = model.copy()  # a model rejects non-finite parameters
            except NumericError:
                raise _numeric_error(model, f"epoch {epoch} ends") from None
            evaluator.submit(snap.params)
            pending = (epoch, snap)
        resolve(*pending)

    record = TrainRecord(**{c: np.asarray(v) for c, v in columns.items()})
    snap, model_epoch, scores = kept
    return TrainResult(snap, model_epoch, record, best_epoch, scores)


# ---------------------------------------------------------------------------
# Trials: single runs, grids and ablations.
# ---------------------------------------------------------------------------

# The grid axes. Each names a field of exactly one of TrainConfig, ModelConfig
# and AblationFlags, which apply_grid_point overrides; a config's [grid] parses
# an axis's values as its [train] or [model] field. A point may also name an
# ABLATION_VARIANTS row as its "variant", which ablate does and a [grid] cannot.
GRID_AXES = (
    "base_lr", "weight_decay", "momentum", "decay_factor", "epochs", "batch_size",
    "random_pi_length", "exempt_pi_nets_from_wd", "pi_width", "share_first_layer",
    "use_gate", "use_noise_net", "gate_space", "noise_input",
)
# The most points a grid may have: run_grid makes every point's job before
# the first trial runs, and the config loader rejects a larger [grid].
MAX_GRID_POINTS = 4096

# The ablation table: variant -> (architecture, train on the random PI alone).
# Each row is a whole AblationFlags, so a config's [model] flags do not apply.
ABLATION_VARIANTS = {
    "cross_entropy": (AblationFlags(use_gate=False, use_noise_net=False), False),
    "pidual_full": (AblationFlags(), False),
    "no_gating": (AblationFlags(use_gate=False), False),
    "no_noise_net": (AblationFlags(use_noise_net=False), False),
    "gate_prob_space": (AblationFlags(gate_space=model_mod.GATE_SPACE_PROBABILITY), False),
    "only_random_pi": (AblationFlags(), True),
    "noise_with_features": (AblationFlags(noise_input=model_mod.NOISE_INPUT_PI_AND_X), False),
}


@dataclass
class GridSpec:
    """Named hyperparameter axes; trials run over the cartesian product."""

    axes: dict[str, list]

    def points(self) -> list[dict]:
        names = list(self.axes)
        return [
            dict(zip(names, combo))
            for combo in itertools.product(*(self.axes[n] for n in names))
        ]


@dataclass
class TrialJob:
    """One trial: ``params`` override the base configs (``apply_grid_point``)
    and the trial trains on ``ds`` under ``seed``. Their values are range-checked
    where the config is loaded; a trial that still raises, say on a non-finite
    loss, becomes a failed outcome and its siblings run on."""

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
    error: str = ""
    # What train returned; None for a failed trial.
    result: TrainResult | None = None
    # result.model trained on augment_random_pi(job.ds, random_pi), job.ds put
    # through data.strip_pi first for a variant on the random PI alone.
    random_pi: RandomPiSpec | None = None

    @property
    def status(self) -> str:
        """The trial's status: "ok" exactly when it holds a result, else "failed"."""
        return "failed" if self.result is None else "ok"


def apply_grid_point(
    base_cfg: TrainConfig, model_cfg: ModelConfig, params: dict
) -> tuple[TrainConfig, ModelConfig]:
    def over(cls) -> dict:
        names = {f.name for f in fields(cls)}
        return {k: v for k, v in params.items() if k in names}

    cfg = replace(base_cfg, **over(TrainConfig))
    # a "variant" brings its ABLATION_VARIANTS row's whole flags, which the
    # point's own flag keys then override like every other key
    flags = ABLATION_VARIANTS[params["variant"]][0] if "variant" in params else model_cfg.flags
    flags = replace(flags, **over(AblationFlags))
    return cfg, replace(model_cfg, flags=flags, **over(ModelConfig))


def _random_pi(cfg: TrainConfig) -> RandomPiSpec:
    return RandomPiSpec(cfg.random_pi_length, derive_seed(cfg.seed, "random_pi"))


def run_trial(job: TrialJob) -> TrialOutcome:
    """Apply the job's point, prepare its data, build, train.

    The data is ``job.ds`` with the trial's random-PI identifiers appended
    (``outcome.random_pi``), its own PI stripped first for a variant that
    trains on the random PI alone. A failure is recorded in the outcome, not
    raised, so that the job's siblings run on.
    """
    try:
        cfg, model_cfg = apply_grid_point(job.cfg, job.model_cfg, job.params)
        cfg = replace(cfg, seed=job.seed)
        random_pi = _random_pi(cfg)
        strip = "variant" in job.params and ABLATION_VARIANTS[job.params["variant"]][1]
        ds = augment_random_pi(data_mod.strip_pi(job.ds) if strip else job.ds, random_pi)
        model = model_cfg.build(
            ds.feature_dim, ds.pi_dim, ds.num_classes, derive_seed(cfg.seed, "init")
        )
        result = train(model, ds, cfg)
    except Exception as exc:  # trial failures must not abort siblings
        return TrialOutcome(job.index, job.params, job.seed, error=str(exc))
    return TrialOutcome(job.index, job.params, job.seed, result=result, random_pi=random_pi)


def run_grid(
    grid: GridSpec,
    ds: PiDataset,
    base_cfg: TrainConfig,
    model_cfg: ModelConfig,
    workers: int = 1,
    shared_seed: bool = False,
) -> list[TrialOutcome]:
    """One trial per grid point, trial ``i`` under ``derive_seed(base_cfg.seed,
    "trial", i)``, or every trial under ``base_cfg.seed`` with ``shared_seed``.

    Trials are independent and run in a process pool when ``workers > 1``. The
    pool never outnumbers the trials: a process pool forks every worker at its
    first submit, whether or not a trial is left for it.

    Returns outcomes ranked by best noisy-validation accuracy (failed trials
    last, in point order).
    """
    jobs = [
        TrialJob(
            i, params, base_cfg.seed if shared_seed else derive_seed(base_cfg.seed, "trial", i),
            ds, base_cfg, model_cfg,
        )
        for i, params in enumerate(grid.points())
    ]

    def rank(t: TrialOutcome) -> tuple:
        acc = t.result.scores()["best_noisy_val_acc"] if t.result else math.nan
        return (t.result is None, -acc if math.isfinite(acc) else math.inf, t.index)

    pool_size = min(workers, len(jobs))
    if pool_size > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=pool_size) as pool:
            return sorted(pool.map(run_trial, jobs), key=rank)
    return sorted(map(run_trial, jobs), key=rank)
