"""Declarative experiment configs: a single sectioned key-value file.

Standard INI syntax (configparser), sections [experiment], [data], [model],
[train], [grid], [detection], [risk], [output]. Every field has a default;
unknown sections or keys are rejected with their full field path. The
effective (defaults-filled) config is canonicalized and hashed so reordering
fields never changes the hash. One top-level seed drives every derived
stream: data, random PI, model init and shuffling.
"""
from __future__ import annotations

import configparser
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from . import data as data_mod
from .data import SynthConfig
from .errors import ConfigError
from .model import AblationFlags, ModelConfig
from .seeding import derive_seed
from .training import GRID_AXES, GridSpec, TrainConfig

_DEFAULTS: dict[str, dict[str, str]] = {
    "experiment": {"seed": "0"},
    "data": {
        "source": "synthetic",
        "n": "2000",
        "feature_dim": "8",
        "classes": "4",
        "annotators": "5",
        "reliabilities": "",
        "informativeness": "1.0",
        "class_separation": "3.0",
        "feature_noise": "1.0",
        "error_mode": "uniform-wrong",
        "noise_rate": "0.2",
        "noisy_val_fraction": "0.04",
        "test_fraction": "0.2",
        "path": "",
    },
    "model": {
        "pred_hidden": "64,64",
        "pi_width": "64",
        "share_first_layer": "true",
        "use_gate": "true",
        "use_noise_net": "true",
        "gate_space": "logit",
        "noise_input": "pi_only",
    },
    "train": {
        "epochs": "60",
        "batch_size": "128",
        "base_lr": "0.05",
        "decay_epochs": "30,45",
        "decay_factor": "0.2",
        "momentum": "0.9",
        "weight_decay": "1e-4",
        "exempt_pi_nets_from_wd": "true",
        "random_pi_length": "8",
        "early_stopping": "true",
    },
    "detection": {"methods": "confidence,gate"},
    "risk": {
        "n": "200",
        "d": "8",
        "m": "8",
        "n_clean": "120",
        "sigma": "1.0",
        "coef_scale": "1.0",
        "pi_coef_scale": "3.0",
        "resamples": "2000",
        "sweep": "none",
        "sweep_values": "",
    },
    "output": {"directory": "runs/out"},
}

def _parse_bool(raw: str, where: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"{where}: expected a boolean, got {raw!r}")


def _parse_list(raw: str, cast, where: str) -> list:
    items = [p.strip() for p in raw.split(",") if p.strip()]
    try:
        return [cast(p) for p in items]
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


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
    merged = {sec: dict(values) for sec, values in _DEFAULTS.items()}
    for sec in parser.sections():
        if sec == "grid":
            merged["grid"] = dict(parser[sec])
            continue
        if sec not in _DEFAULTS:
            raise ConfigError(f"unknown config section [{sec}]")
        for key, value in parser[sec].items():
            if key not in _DEFAULTS[sec]:
                raise ConfigError(f"unknown config field {sec}.{key}")
            merged[sec][key] = value
    return merged


def load_experiment_config(path: str | Path, seed_override: int | None = None) -> ExperimentConfig:
    path = Path(path)
    merged = _merged_sections(path)
    seed = seed_override if seed_override is not None else int(merged["experiment"]["seed"])
    merged["experiment"]["seed"] = str(seed)

    dsec = merged["data"]
    source = dsec["source"].strip().lower()
    if source not in ("synthetic", "csv"):
        raise ConfigError(f"data.source: expected 'synthetic' or 'csv', got {source!r}")
    if source == "csv" and not dsec["path"]:
        raise ConfigError("data.path: required when data.source = csv")
    if source == "synthetic" and dsec["path"]:
        raise ConfigError("data.path: only one data source allowed; remove for synthetic")
    try:
        num_classes = int(dsec["classes"])
        synth = None
        if source == "synthetic":
            reliabilities = _parse_list(dsec["reliabilities"], float, "data.reliabilities")
            synth = SynthConfig(
                n=int(dsec["n"]),
                feature_dim=int(dsec["feature_dim"]),
                num_classes=num_classes,
                annotators=int(dsec["annotators"]),
                reliabilities=reliabilities or None,
                pi_informativeness=float(dsec["informativeness"]),
                class_separation=float(dsec["class_separation"]),
                feature_noise=float(dsec["feature_noise"]),
                error_mode=dsec["error_mode"].strip(),
                noise_rate=float(dsec["noise_rate"]),
                seed=derive_seed(seed, "data"),
            )
        data_section = DataSection(
            source=source,
            synth=synth,
            csv_path=dsec["path"],
            num_classes=num_classes,
            noisy_val_fraction=float(dsec["noisy_val_fraction"]),
            test_fraction=float(dsec["test_fraction"]),
        )

        msec = merged["model"]
        model_cfg = ModelConfig(
            pred_hidden=tuple(_parse_list(msec["pred_hidden"], int, "model.pred_hidden")),
            pi_width=int(msec["pi_width"]),
            share_first_layer=_parse_bool(msec["share_first_layer"], "model.share_first_layer"),
            flags=AblationFlags(
                use_gate=_parse_bool(msec["use_gate"], "model.use_gate"),
                use_noise_net=_parse_bool(msec["use_noise_net"], "model.use_noise_net"),
                gate_space=msec["gate_space"].strip(),
                noise_input=msec["noise_input"].strip(),
            ),
        )

        tsec = merged["train"]
        train_cfg = TrainConfig(
            epochs=int(tsec["epochs"]),
            batch_size=int(tsec["batch_size"]),
            base_lr=float(tsec["base_lr"]),
            decay_epochs=_parse_list(tsec["decay_epochs"], int, "train.decay_epochs"),
            decay_factor=float(tsec["decay_factor"]),
            momentum=float(tsec["momentum"]),
            weight_decay=float(tsec["weight_decay"]),
            exempt_pi_nets_from_wd=_parse_bool(
                tsec["exempt_pi_nets_from_wd"], "train.exempt_pi_nets_from_wd"
            ),
            random_pi_length=int(tsec["random_pi_length"]),
            early_stopping=_parse_bool(tsec["early_stopping"], "train.early_stopping"),
            seed=derive_seed(seed, "train"),
        )
        train_cfg.validate()

        grid = None
        if "grid" in merged and any(merged.get("grid", {})):
            axes = {}
            for axis, raw in merged["grid"].items():
                where = f"grid.{axis}"
                if axis not in GRID_AXES:
                    raise ConfigError(f"{where}: unknown axis")
                cast = GRID_AXES[axis]
                if cast is bool:
                    axes[axis] = [_parse_bool(v, where) for v in _parse_list(raw, str, where)]
                else:
                    axes[axis] = _parse_list(raw, cast, where)
            grid = GridSpec(axes)
            grid.validate()

        rsec = merged["risk"]
        sweep = rsec["sweep"].strip().lower()
        if sweep not in ("none", "corruption", "n2", "sigma"):
            raise ConfigError(f"risk.sweep: unknown sweep {sweep!r}")
        sweep_values = _parse_list(rsec["sweep_values"], float, "risk.sweep_values")
        if sweep == "none" and sweep_values:
            raise ConfigError(
                "risk.sweep_values: sweep = none takes no values, "
                f"got {rsec['sweep_values'].strip()!r}"
            )
        if sweep != "none" and not sweep_values:
            raise ConfigError(f"risk.sweep_values: the {sweep} sweep needs at least one value")
        if sweep in ("corruption", "n2"):
            # counts: flipped mask entries, noisy rows
            if not all(v >= 0 and v.is_integer() for v in sweep_values):
                raise ConfigError(
                    f"risk.sweep_values: the {sweep} sweep takes non-negative integers, "
                    f"got {rsec['sweep_values'].strip()!r}"
                )
            sweep_values = [int(v) for v in sweep_values]
        if sweep == "sigma" and not all(math.isfinite(v) for v in sweep_values):
            raise ConfigError(
                f"risk.sweep_values: the sigma sweep takes finite values, "
                f"got {rsec['sweep_values'].strip()!r}"
            )
        resamples = int(rsec["resamples"])
        if resamples < 0:
            raise ConfigError(f"risk.resamples: must be >= 0 (0 = closed form only), got {resamples}")
        dims = {key: int(rsec[key]) for key in ("d", "m")}
        scales = {key: float(rsec[key]) for key in ("sigma", "coef_scale", "pi_coef_scale")}
        for key, value in dims.items():
            if value < 1:
                raise ConfigError(f"risk.{key}: must be >= 1, got {value}")
        for key, value in scales.items():
            if not math.isfinite(value):
                raise ConfigError(f"risk.{key}: must be finite, got {rsec[key].strip()!r}")
        risk_section = RiskSection(
            n=int(rsec["n"]),
            n_clean=int(rsec["n_clean"]),
            resamples=resamples,
            **dims,
            **scales,
            sweep=sweep,
            sweep_values=sweep_values,
        )

        osec = merged["output"]
        methods = [m.strip() for m in merged["detection"]["methods"].split(",") if m.strip()]
        for m in methods:
            if m not in ("confidence", "gate"):
                raise ConfigError(f"detection.methods: unknown method {m!r}")
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    return ExperimentConfig(
        seed=seed,
        data=data_section,
        model=model_cfg,
        train=train_cfg,
        grid=grid,
        detection_methods=methods,
        risk=risk_section,
        output_dir=osec["directory"],
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
