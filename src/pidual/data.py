"""Datasets of (features, noisy label; privileged information) triplets.

The synthetic generator draws Gaussian class clusters for the features,
assigns each sample to an annotator, and realizes a per-sample switch that
replaces the clean label with an annotator-dependent wrong one. The PI
vector encodes the annotator one-hot, a reliability channel and a
switch-correlated channel, both exposed to the degree set by the
informativeness dial; an optional block of per-sample random identifier
columns can be appended afterwards.

Clean labels live inside the dataset for evaluation only: fitting code must
go through ``train_arrays`` / ``noisy_labels_of`` and never touch
``clean_labels_of`` / ``wrong_mask_of``.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ContractError, DataFormatError
from .seeding import derive_seed

SPLIT_TRAIN = "train"
SPLIT_NOISY_VAL = "noisy_val"
SPLIT_CLEAN_TEST = "clean_test"
SPLIT_NAMES = (SPLIT_TRAIN, SPLIT_NOISY_VAL, SPLIT_CLEAN_TEST)
_SPLIT_CODE = {name: i for i, name in enumerate(SPLIT_NAMES)}

ERROR_MODE_UNIFORM = "uniform-wrong"
ERROR_MODE_PERMUTATION = "annotator-permutation"
ERROR_MODES = (ERROR_MODE_UNIFORM, ERROR_MODE_PERMUTATION)

UNINFORMATIVE_RELIABILITY = 0.5  # constant the reliability channel collapses to
# The generated PI's columns after the annotator one-hot (SynthConfig.pi_dim).
PI_CHANNELS = ("reliability", "switch")


@dataclass
class SynthConfig:
    """Knobs of the synthetic generator; ``reliabilities=None`` gives every
    annotator the same reliability, 1 - ``noise_rate``. Their ranges are
    checked where a config file is loaded, not here."""

    n: int
    feature_dim: int = 8
    num_classes: int = 4
    annotators: int = 5
    reliabilities: list[float] | None = None
    pi_informativeness: float = 1.0
    class_separation: float = 3.0
    feature_noise: float = 1.0
    error_mode: str = ERROR_MODE_UNIFORM
    noise_rate: float = 0.2
    seed: int = 0

    @property
    def pi_dim(self) -> int:
        """The generated PI's width: the annotator one-hot, then ``PI_CHANNELS``."""
        return self.annotators + len(PI_CHANNELS)


@dataclass
class RandomPiSpec:
    """Width and seed of the appended random-identifier block."""

    length: int
    seed: int = 0


@dataclass
class PiDataset:
    """Features, PI, noisy labels and (evaluation-only) clean labels.

    ``split`` holds int8 codes indexing SPLIT_NAMES; ``split_given`` is True
    when they were read from a CSV's split column, which ``build_dataset``
    keeps as it is. Instances are treated as immutable; augmentation and
    splitting return new datasets.
    """

    features: np.ndarray
    pi: np.ndarray
    noisy_labels: np.ndarray
    clean_labels: np.ndarray | None
    split: np.ndarray
    num_classes: int
    split_given: bool = field(default=False, repr=False)

    def __post_init__(self) -> None:
        n = self.features.shape[0]
        if self.pi.shape[0] != n or self.noisy_labels.shape[0] != n or self.split.shape[0] != n:
            raise ContractError("all per-sample arrays must share the leading dimension")
        if self.noisy_labels.min(initial=0) < 0 or self.noisy_labels.max(initial=0) >= self.num_classes:
            raise ContractError("noisy labels out of class range")
        if self.clean_labels is not None:
            if self.clean_labels.shape[0] != n:
                raise ContractError("clean labels length mismatch")
            if self.clean_labels.min(initial=0) < 0 or self.clean_labels.max(initial=0) >= self.num_classes:
                raise ContractError("clean labels out of class range")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    @property
    def pi_dim(self) -> int:
        return self.pi.shape[1]

    @property
    def has_clean_labels(self) -> bool:
        return self.clean_labels is not None

    def split_indices(self, split: str) -> np.ndarray:
        if split not in _SPLIT_CODE:
            raise ContractError(f"unknown split {split!r}")
        return np.flatnonzero(self.split == _SPLIT_CODE[split])

    # -- training-facing accessors (never expose clean labels) --------------

    def train_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(features, pi, noisy labels) of the train split, for fitting."""
        idx = self.split_indices(SPLIT_TRAIN)
        return self.features[idx], self.pi[idx], self.noisy_labels[idx]

    def eval_inputs(self, split: str) -> tuple[np.ndarray, np.ndarray]:
        idx = self.split_indices(split)
        if idx.size == 0:
            raise ContractError(f"split {split!r} is empty")
        return self.features[idx], self.pi[idx]

    def noisy_labels_of(self, split: str) -> np.ndarray:
        return self.noisy_labels[self.split_indices(split)]

    # -- evaluation-only accessors ------------------------------------------

    def clean_labels_of(self, split: str) -> np.ndarray:
        if self.clean_labels is None:
            raise ContractError("dataset has no clean labels")
        return self.clean_labels[self.split_indices(split)]

    def wrong_mask_of(self, split: str) -> np.ndarray:
        """Boolean mask (over the split) of samples whose noisy label is wrong."""
        if self.clean_labels is None:
            raise ContractError("wrongness requires clean labels")
        idx = self.split_indices(split)
        return self.noisy_labels[idx] != self.clean_labels[idx]

    def realized_noise_rate(self, split: str = SPLIT_TRAIN) -> float:
        mask = self.wrong_mask_of(split)
        if mask.size == 0:
            raise ContractError(f"split {split!r} is empty")
        return float(mask.mean())


def _derangement(rng: np.random.Generator, k: int) -> np.ndarray:
    while True:
        perm = rng.permutation(k)
        if not np.any(perm == np.arange(k)):
            return perm


def generate_synthetic(cfg: SynthConfig) -> PiDataset:
    """Draw a PI-noisy classification dataset from the generative switch model.

    Clean labels are the nearest class center of each feature vector;
    wrong labels are realized per annotator and recorded in the PI channels.
    """
    rng_centers = np.random.default_rng(derive_seed(cfg.seed, "centers"))
    rng_features = np.random.default_rng(derive_seed(cfg.seed, "features"))
    rng_annot = np.random.default_rng(derive_seed(cfg.seed, "annotators"))
    rng_switch = np.random.default_rng(derive_seed(cfg.seed, "switch"))
    rng_errors = np.random.default_rng(derive_seed(cfg.seed, "errors"))

    k, d, n = cfg.num_classes, cfg.feature_dim, cfg.n
    centers = rng_centers.standard_normal((k, d)) * cfg.class_separation
    intended = rng_features.integers(0, k, size=n)
    features = centers[intended] + cfg.feature_noise * rng_features.standard_normal((n, d))
    # Ground truth is the generator's own decision rule: nearest center.
    dist2 = ((features[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    clean = dist2.argmin(axis=1)

    # Homogeneous by default, so annotator identity alone carries no
    # wrongness signal; pass explicit reliabilities for heterogeneous crews.
    default = [1.0 - cfg.noise_rate] * cfg.annotators
    reliabilities = np.asarray(
        default if cfg.reliabilities is None else cfg.reliabilities, dtype=np.float64
    )
    annot = rng_annot.integers(0, cfg.annotators, size=n)
    switch = rng_switch.random(n) < (1.0 - reliabilities[annot])

    noisy = clean.copy()
    wrong_idx = np.flatnonzero(switch)
    if cfg.error_mode == ERROR_MODE_UNIFORM:
        # uniform draw over the k-1 other classes
        offsets = rng_errors.integers(1, k, size=wrong_idx.size)
        noisy[wrong_idx] = (clean[wrong_idx] + offsets) % k
    else:
        perms = np.stack([_derangement(rng_errors, k) for _ in range(cfg.annotators)])
        noisy[wrong_idx] = perms[annot[wrong_idx], clean[wrong_idx]]

    info = cfg.pi_informativeness
    reliability_channel = info * reliabilities[annot] + (1.0 - info) * UNINFORMATIVE_RELIABILITY
    switch_channel = info * switch.astype(np.float64)
    pi = np.zeros((n, cfg.pi_dim))
    pi[np.arange(n), annot] = 1.0  # the annotator one-hot
    pi[:, cfg.annotators :] = np.column_stack([reliability_channel, switch_channel])

    return PiDataset(
        features=features,
        pi=pi,
        noisy_labels=noisy,
        clean_labels=clean,
        split=np.zeros(n, dtype=np.int8),
        num_classes=k,
    )


def augment_random_pi(ds: PiDataset, spec: RandomPiSpec) -> PiDataset:
    """Append ``spec.length`` i.i.d. standard-Gaussian identifier columns."""
    if spec.length == 0:
        return ds
    rng = np.random.default_rng(spec.seed)
    extra = rng.standard_normal((ds.n, spec.length))
    return replace(ds, pi=np.hstack([ds.pi, extra]))


def strip_pi(ds: PiDataset) -> PiDataset:
    """Drop every PI column (used by the only-random-identifier variant)."""
    return replace(ds, pi=np.empty((ds.n, 0)))


def split_dataset(
    ds: PiDataset, noisy_val_fraction: float, test_fraction: float, seed: int
) -> PiDataset:
    """Randomly partition samples into train / noisy_val / clean_test.

    The clean-test block is carved out first; the noisy validation set is
    then drawn from the remaining training pool. The fractions are >= 0 and
    sum to < 1.
    """
    n_test = round(ds.n * test_fraction)
    n_val = round(ds.n * noisy_val_fraction)
    perm = np.random.default_rng(seed).permutation(ds.n)
    split = np.zeros(ds.n, dtype=np.int8)
    split[perm[:n_test]] = _SPLIT_CODE[SPLIT_CLEAN_TEST]
    split[perm[n_test : n_test + n_val]] = _SPLIT_CODE[SPLIT_NOISY_VAL]
    return replace(ds, split=split)


# ---------------------------------------------------------------------------
# CSV serialization.
#
# Exact column order: x0..x{d-1}, a0..a{p-1}, noisy_label,
# clean_label (optional), split (optional). Header row mandatory, UTF-8,
# LF line endings, plain decimal points.
# ---------------------------------------------------------------------------


def _header(d: int, p: int, with_clean: bool, with_split: bool) -> list[str]:
    cols = [f"x{i}" for i in range(d)] + [f"a{i}" for i in range(p)] + ["noisy_label"]
    if with_clean:
        cols.append("clean_label")
    if with_split:
        cols.append("split")
    return cols


def save_csv(ds: PiDataset, path: str | Path) -> None:
    """Write the dataset in the documented column order, losslessly (repr floats),
    always with the split column."""
    path = Path(path)
    with_clean = ds.clean_labels is not None
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_header(ds.feature_dim, ds.pi_dim, with_clean, with_split=True))
        for i in range(ds.n):
            row = [repr(float(v)) for v in ds.features[i]]
            row += [repr(float(v)) for v in ds.pi[i]]
            row.append(str(int(ds.noisy_labels[i])))
            if with_clean:
                row.append(str(int(ds.clean_labels[i])))
            row.append(SPLIT_NAMES[ds.split[i]])
            writer.writerow(row)


def _checked_rows(path: Path, reader):
    """The rows of ``reader``; text that is not UTF-8 or not CSV is a ``DataFormatError``."""
    try:
        yield from reader
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataFormatError(f"{path}: not UTF-8 CSV text ({exc})") from None


def load_csv(path: str | Path, num_classes: int | None = None) -> PiDataset:
    """Parse a dataset CSV; raises DataFormatError with the offending row/column,
    and for a split column without a train row, which no command can use."""
    path = Path(path)
    try:
        fh = path.open("r", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataFormatError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = _checked_rows(path, csv.reader(fh))
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file, header row required") from None
        d = sum(1 for c in header if c.startswith("x") and c[1:].isdigit())
        p = sum(1 for c in header if c.startswith("a") and c[1:].isdigit())
        if "noisy_label" not in header:
            raise DataFormatError(f"{path}: missing required column 'noisy_label'")
        with_clean = "clean_label" in header
        with_split = "split" in header
        expected = _header(d, p, with_clean, with_split)
        if header != expected:
            raise DataFormatError(
                f"{path}: header {header!r} does not match the documented column order"
            )
        width = len(expected)
        feats, pis, noisy, clean, split = [], [], [], [], []
        for row_no, row in enumerate(reader, start=2):
            if len(row) != width:
                raise DataFormatError(f"{path}: row {row_no}: expected {width} cells, got {len(row)}")
            try:
                feats.append([float(v) for v in row[:d]])
                pis.append([float(v) for v in row[d : d + p]])
                noisy.append(np.int64(int(row[d + p])))
                if with_clean:
                    clean.append(np.int64(int(row[d + p + 1])))
            except (ValueError, OverflowError) as exc:
                raise DataFormatError(f"{path}: row {row_no}: non-numeric cell ({exc})") from None
            if with_split:
                name = row[-1]
                if name not in _SPLIT_CODE:
                    raise DataFormatError(f"{path}: row {row_no}: unknown split {name!r}")
                split.append(_SPLIT_CODE[name])
    if not feats:
        raise DataFormatError(f"{path}: no data rows")
    if with_split and _SPLIT_CODE[SPLIT_TRAIN] not in split:
        raise DataFormatError(f"{path}: the split column holds no {SPLIT_TRAIN!r} row")
    noisy_arr = np.asarray(noisy, dtype=np.int64)
    clean_arr = np.asarray(clean, dtype=np.int64) if with_clean else None
    observed_max = int(noisy_arr.max())
    if clean_arr is not None:
        observed_max = max(observed_max, int(clean_arr.max()))
    k = num_classes if num_classes is not None else observed_max + 1
    for name, arr in (("noisy_label", noisy_arr), ("clean_label", clean_arr)):
        if arr is None:
            continue
        bad = np.flatnonzero((arr < 0) | (arr >= k))
        if bad.size:
            raise DataFormatError(
                f"{path}: row {int(bad[0]) + 2}: {name} {int(arr[bad[0]])} out of range for K={k}"
            )
    n = noisy_arr.shape[0]
    split_arr = (
        np.asarray(split, dtype=np.int8) if with_split else np.zeros(n, dtype=np.int8)
    )
    return PiDataset(
        features=np.asarray(feats, dtype=np.float64).reshape(n, d),
        pi=np.asarray(pis, dtype=np.float64).reshape(n, p),
        noisy_labels=noisy_arr,
        clean_labels=clean_arr,
        split=split_arr,
        num_classes=k,
        split_given=with_split,
    )
