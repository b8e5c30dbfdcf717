"""Declarative experiment configs: a single sectioned key-value file.

Standard INI syntax (configparser), sections [experiment], [data], [model],
[train], [grid], [detection], [risk], [output]. Every field has a default;
unknown sections or keys are rejected with their full field path. One table,
``FIELDS``, holds each field's default and its cast, and a value the cast
rejects is a ``ConfigError`` naming the field; a [grid] axis is a [train] or
[model] field, and each of its values is cast as that field. The effective
(defaults-filled) config is canonicalized and hashed so reordering fields
never changes the hash. One top-level seed drives every derived stream: data,
random PI, model init and shuffling.
"""
from __future__ import annotations

import configparser
import hashlib
import json
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

from . import data as data_mod
from .data import ERROR_MODES, SynthConfig
from .detection import METHODS
from .errors import ConfigError
from .linear_risk import MAX_FLOATS, MC_CHUNK
from .model import GATE_SPACES, NOISE_INPUTS, ModelConfig
from .seeding import derive_seed
from .training import GridSpec, TrainConfig, apply_grid_point

# Casts: each turns one raw value into a typed one or raises ValueError.


def _int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"expected an integer, got {raw!r}") from None


def _float(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {raw!r}")
    return value


def _risk_float(raw: str) -> float:
    """A finite number small enough for the risk analysis: its risks are
    squares of these values, and their standard errors square the risks."""
    value = _float(raw)
    if abs(value) > 1e50:
        raise ValueError(f"expected a magnitude of at most 1e50, got {raw!r}")
    return value


def _bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _items(raw: str) -> list[str]:
    return [p.strip() for p in raw.split(",") if p.strip()]


def _list(cast, container=list):
    """A comma list, each item cast with ``cast``."""
    return lambda raw: container(cast(item) for item in _items(raw))


def _choice(options: tuple[str, ...], what: str):
    """One of ``options``, matched without regard to case."""

    def cast(raw: str) -> str:
        value = raw.strip().lower()
        if value not in options:
            raise ValueError(f"unknown {what} {value!r}")
        return value

    return cast


def _at_least(low: int):
    """An integer no smaller than ``low``."""

    def cast(raw: str) -> int:
        value = _int(raw)
        if value < low:
            raise ValueError(f"must be >= {low}, got {value}")
        return value

    return cast


# the cast of [detection] methods and of `detect --methods`
parse_methods = _list(_choice(METHODS, "detection method"))

# section -> key -> (default, cast). A default is the raw text a file would
# give, because the effective config, and so its hash, holds raw text.
FIELDS: dict[str, dict[str, tuple[str, Callable[[str], object]]]] = {
    "experiment": {"seed": ("0", _int)},
    "data": {
        "source": ("synthetic", _choice(("synthetic", "csv"), "data source")),
        "n": ("2000", _int),
        "feature_dim": ("8", _int),
        "classes": ("4", _int),
        "annotators": ("5", _int),
        "reliabilities": ("", _list(_float)),
        "informativeness": ("1.0", _float),
        "class_separation": ("3.0", _float),
        "feature_noise": ("1.0", _float),
        "error_mode": ("uniform-wrong", _choice(ERROR_MODES, "error mode")),
        "noise_rate": ("0.2", _float),
        "noisy_val_fraction": ("0.04", _float),
        "test_fraction": ("0.2", _float),
        "path": ("", str),
    },
    "model": {
        "pred_hidden": ("64,64", _list(_at_least(1), tuple)),
        "pi_width": ("64", _at_least(1)),
        "share_first_layer": ("true", _bool),
        "use_gate": ("true", _bool),
        "use_noise_net": ("true", _bool),
        "gate_space": ("logit", _choice(GATE_SPACES, "gate space")),
        "noise_input": ("pi_only", _choice(NOISE_INPUTS, "noise input")),
    },
    "train": {
        "epochs": ("60", _int),
        "batch_size": ("128", _int),
        "base_lr": ("0.05", _float),
        "decay_epochs": ("30,45", _list(_int)),
        "decay_factor": ("0.2", _float),
        "momentum": ("0.9", _float),
        "weight_decay": ("1e-4", _float),
        "exempt_pi_nets_from_wd": ("true", _bool),
        "random_pi_length": ("8", _int),
        "early_stopping": ("true", _bool),
    },
    "detection": {"methods": (",".join(METHODS), parse_methods)},
    "risk": {
        "n": ("200", _int),
        "d": ("8", _at_least(1)),
        "m": ("8", _at_least(1)),
        "n_clean": ("120", _int),
        "sigma": ("1.0", _risk_float),
        "coef_scale": ("1.0", _risk_float),
        "pi_coef_scale": ("3.0", _risk_float),
        "resamples": ("2000", _at_least(0)),  # 0 = closed form only
        "sweep": ("none", _choice(("none", "corruption", "n2", "sigma"), "sweep")),
        "sweep_values": ("", _list(_risk_float)),
    },
    "output": {"directory": ("runs/out", str)},
}

# the [data] fields a CSV source reads; the others are the synthetic generator's
_CSV_FIELDS = ("source", "classes", "noisy_val_fraction", "test_fraction", "path")


@dataclass
class DataSection:
    source: str
    synth: SynthConfig | None
    csv_path: str
    num_classes: int
    noisy_val_fraction: float
    test_fraction: float


@dataclass
class RiskSection:
    n: int
    d: int
    m: int
    n_clean: int
    sigma: float
    coef_scale: float
    pi_coef_scale: float
    resamples: int
    sweep: str
    sweep_values: list[float] | list[int]  # ints for the corruption and n2 sweeps


@dataclass
class ExperimentConfig:
    seed: int
    data: DataSection
    model: ModelConfig
    train: TrainConfig
    grid: GridSpec | None
    detection_methods: list[str]
    risk: RiskSection
    output_dir: str
    effective: dict = field(repr=False, default_factory=dict)

    def config_hash(self) -> str:
        canonical = json.dumps(self.effective, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _merged_sections(path: Path) -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")
    merged = {
        sec: {key: default for key, (default, _) in keys.items()} for sec, keys in FIELDS.items()
    }
    for sec in parser.sections():
        if sec == "grid":
            merged["grid"] = dict(parser[sec])
            continue
        if sec not in FIELDS:
            raise ConfigError(f"unknown config section [{sec}]")
        for key, value in parser[sec].items():
            if key not in FIELDS[sec]:
                raise ConfigError(f"unknown config field {sec}.{key}")
            merged[sec][key] = value
    return merged


def _cast(where: str, cast, raw: str):
    try:
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _section(merged: dict, section: str, keys=None) -> dict:
    """The section's ``keys`` (all by default), each cast by its ``FIELDS`` entry."""
    return {
        key: _cast(f"{section}.{key}", FIELDS[section][key][1], merged[section][key])
        for key in keys or FIELDS[section]
    }


def _grid(raw_axes: dict[str, str]) -> GridSpec:
    """Each axis's values cast as its [train] or [model] field."""
    grid = GridSpec({axis: _items(raw) for axis, raw in raw_axes.items()})
    grid.validate()  # an unknown or empty axis, before any cast
    for axis, values in grid.axes.items():
        _, cast = FIELDS["train"].get(axis) or FIELDS["model"][axis]
        grid.axes[axis] = [_cast(f"grid.{axis}", cast, value) for value in values]
    return grid


def _check_risk_sizes(risk: dict) -> None:
    """Reject a [risk] section whose largest arrays would pass ``MAX_FLOATS``
    floats, before any is allocated, naming the largest factor's key."""
    n, d, m, resamples = (risk[key] for key in ("n", "d", "m", "resamples"))
    points = len(risk["sweep_values"]) or 1
    for what, floats, factors in (
        ("the design needs n*(d+m)", n * (d + m), {"n": n, "d": d, "m": m}),
        (f"a chunk of draws needs n*min(resamples, {MC_CHUNK})", n * min(resamples, MC_CHUNK),
         {"n": n}),
        ("the per-draw sums need 2*points*resamples", 2 * points * resamples,
         {"resamples": resamples, "sweep_values": points}),
    ):
        if floats > MAX_FLOATS:
            key = max(factors, key=factors.get)
            raise ConfigError(
                f"risk.{key}: {what} = {floats} floats, above the cap of {MAX_FLOATS}"
            )


def load_experiment_config(path: str | Path, seed_override: int | None = None) -> ExperimentConfig:
    path = Path(path)
    merged = _merged_sections(path)
    seed = seed_override if seed_override is not None else _section(merged, "experiment")["seed"]
    merged["experiment"]["seed"] = str(seed)

    dsec = _section(merged, "data", _CSV_FIELDS)
    synth = None
    if dsec["source"] == "csv" and not dsec["path"]:
        raise ConfigError("data.path: required when data.source = csv")
    if dsec["source"] == "synthetic":
        if dsec["path"]:
            raise ConfigError("data.path: only one data source allowed; remove for synthetic")
        dsec = _section(merged, "data")
        synth = SynthConfig(
            n=dsec["n"], feature_dim=dsec["feature_dim"], num_classes=dsec["classes"],
            annotators=dsec["annotators"], reliabilities=dsec["reliabilities"] or None,
            pi_informativeness=dsec["informativeness"],
            class_separation=dsec["class_separation"], feature_noise=dsec["feature_noise"],
            error_mode=dsec["error_mode"], noise_rate=dsec["noise_rate"],
            seed=derive_seed(seed, "data"),
        )
    data_section = DataSection(
        source=dsec["source"], synth=synth, csv_path=dsec["path"], num_classes=dsec["classes"],
        noisy_val_fraction=dsec["noisy_val_fraction"], test_fraction=dsec["test_fraction"],
    )

    # every [train] and [model] key names one field that apply_grid_point routes
    train_cfg, model_cfg = apply_grid_point(
        TrainConfig(seed=derive_seed(seed, "train")),
        ModelConfig(),
        {**_section(merged, "train"), **_section(merged, "model")},
    )
    train_cfg.validate()

    grid = _grid(merged["grid"]) if any(merged.get("grid", {})) else None

    risk = _section(merged, "risk")
    sweep, values = risk["sweep"], risk["sweep_values"]
    raw_values = merged["risk"]["sweep_values"].strip()
    if sweep == "none" and values:
        raise ConfigError(f"risk.sweep_values: sweep = none takes no values, got {raw_values!r}")
    if sweep != "none" and not values:
        raise ConfigError(f"risk.sweep_values: the {sweep} sweep needs at least one value")
    if sweep in ("corruption", "n2"):
        # counts: flipped mask entries, noisy rows
        if not all(v >= 0 and v.is_integer() for v in values):
            raise ConfigError(
                f"risk.sweep_values: the {sweep} sweep takes non-negative integers, "
                f"got {raw_values!r}"
            )
        risk["sweep_values"] = [int(v) for v in values]
    _check_risk_sizes(risk)

    return ExperimentConfig(
        seed=seed,
        data=data_section,
        model=model_cfg,
        train=train_cfg,
        grid=grid,
        detection_methods=_section(merged, "detection")["methods"],
        risk=RiskSection(**risk),
        output_dir=_section(merged, "output")["directory"],
        effective=merged,
    )


def build_dataset(cfg: ExperimentConfig):
    """Generate or load the dataset described by the config and apply splits."""
    if cfg.data.source == "synthetic":
        ds = data_mod.generate_synthetic(cfg.data.synth)
    else:
        ds = data_mod.load_csv(cfg.data.csv_path, num_classes=cfg.data.num_classes)
    already_split = (ds.split != 0).any()
    if not already_split and (cfg.data.noisy_val_fraction > 0 or cfg.data.test_fraction > 0):
        ds = data_mod.split_dataset(
            ds,
            cfg.data.noisy_val_fraction,
            cfg.data.test_fraction,
            derive_seed(cfg.seed, "split"),
        )
    return ds
