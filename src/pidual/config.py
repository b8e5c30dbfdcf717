"""Declarative experiment configs: a single sectioned key-value file.

Standard INI syntax (configparser), sections [experiment], [data], [model],
[train], [grid], [detection], [risk], [output]. Every field has a default;
unknown sections or keys are rejected with their full field path. One table,
``FIELDS``, holds each field's default and its cast, which also bounds its
range, and a value the cast rejects is a ``ConfigError`` naming the field; a
[grid] axis is a [train] or [model] field, and each of its values is cast as
that field. The loader then checks the fields that bound one another, naming
one. Only this module decides which values are valid: the library functions
downstream take them as given. The effective
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
from .linear_risk import MAX_FLOATS, MC_CHUNK, MC_ROWS
from .model import GATE_SPACES, NOISE_INPUTS, ModelConfig
from .seeding import derive_seed
from .training import GRID_AXES, MAX_GRID_POINTS, GridSpec, TrainConfig, apply_grid_point

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


def _checked(cast, ok, rule: str):
    """A value of ``cast`` that ``ok`` accepts; ``rule`` says what it must do."""

    def checked(raw: str):
        value = cast(raw)
        if not ok(value):
            raise ValueError(f"must {rule}, got {value}")
        return value

    return checked


def _bounded(cast, low, high=math.inf, ends="[)"):
    """A value of ``cast`` from ``low`` to ``high``; ``ends`` holds the
    brackets, "(" or ")" for a bound the value must not reach."""
    above = (lambda v: v > low) if ends[0] == "(" else (lambda v: v >= low)
    below = (lambda v: v < high) if ends[1] == ")" else (lambda v: v <= high)
    rule = (f"lie in {ends[0]}{low}, {high}{ends[1]}" if high < math.inf
            else f"be {'>=' if ends[0] == '[' else '>'} {low}")
    return _checked(cast, lambda v: above(v) and below(v), rule)


# the cast of [detection] methods and of `detect --methods`
parse_methods = _checked(
    _list(_choice(METHODS, "detection method")),
    lambda v: len(set(v)) == len(v),
    "name each detection method once",
)

# section -> key -> (default, cast). A default is the raw text a file would
# give, because the effective config, and so its hash, holds raw text.
FIELDS: dict[str, dict[str, tuple[str, Callable[[str], object]]]] = {
    "experiment": {"seed": ("0", _int)},
    "data": {
        "source": ("synthetic", _choice(("synthetic", "csv"), "data source")),
        "n": ("2000", _bounded(_int, 1)),
        "feature_dim": ("8", _bounded(_int, 1)),
        "classes": ("4", _bounded(_int, 2)),
        "annotators": ("5", _bounded(_int, 1)),
        "reliabilities": ("", _list(_bounded(_float, 0, 1, "[]"))),
        "informativeness": ("1.0", _bounded(_float, 0, 1, "[]")),
        "class_separation": ("3.0", _float),
        "feature_noise": ("1.0", _float),
        "error_mode": ("uniform-wrong", _choice(ERROR_MODES, "error mode")),
        "noise_rate": ("0.2", _bounded(_float, 0, 1)),
        "noisy_val_fraction": ("0.04", _bounded(_float, 0)),
        "test_fraction": ("0.2", _bounded(_float, 0)),
        "path": ("", str),
    },
    "model": {
        "pred_hidden": ("64,64", _list(_bounded(_int, 1), tuple)),
        "pi_width": ("64", _bounded(_int, 1)),
        "share_first_layer": ("true", _bool),
        "use_gate": ("true", _bool),
        "use_noise_net": ("true", _bool),
        "gate_space": ("logit", _choice(GATE_SPACES, "gate space")),
        "noise_input": ("pi_only", _choice(NOISE_INPUTS, "noise input")),
    },
    "train": {
        "epochs": ("60", _bounded(_int, 1)),
        "batch_size": ("128", _bounded(_int, 1)),
        "base_lr": ("0.05", _bounded(_float, 0)),
        "decay_epochs": ("30,45", _checked(_list(_int), lambda v: v == sorted(v), "ascend")),
        "decay_factor": ("0.2", _bounded(_float, 0, 1, "(]")),
        "momentum": ("0.9", _bounded(_float, 0, 1)),
        "weight_decay": ("1e-4", _bounded(_float, 0)),
        "exempt_pi_nets_from_wd": ("true", _bool),
        "random_pi_length": ("8", _bounded(_int, 0)),
        "early_stopping": ("true", _bool),
    },
    "detection": {"methods": (",".join(METHODS), parse_methods)},
    "risk": {
        "n": ("200", _int),
        "d": ("8", _bounded(_int, 1)),
        "m": ("8", _bounded(_int, 1)),
        "n_clean": ("120", _int),
        "sigma": ("1.0", _bounded(_risk_float, 0)),
        "coef_scale": ("1.0", _risk_float),
        "pi_coef_scale": ("3.0", _risk_float),
        "resamples": ("2000", _bounded(_int, 0)),  # 0 = closed form only
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
    """Each axis one of ``GRID_AXES``, its values cast as its [train] or [model]
    field, and at most ``MAX_GRID_POINTS`` points, checked before any is made."""
    axes = {}
    for axis, raw in raw_axes.items():
        if axis not in GRID_AXES:
            raise ConfigError(f"grid.{axis}: unknown axis")
        if not _items(raw):
            raise ConfigError(f"grid.{axis}: no candidate values")
        _, cast = FIELDS["train"].get(axis) or FIELDS["model"][axis]
        axes[axis] = [_cast(f"grid.{axis}", cast, value) for value in _items(raw)]
    points = math.prod(map(len, axes.values()))
    if points > MAX_GRID_POINTS:
        widest = max(axes, key=lambda axis: len(axes[axis]))
        counts = " * ".join(str(len(values)) for values in axes.values())
        raise ConfigError(
            f"grid.{widest}: the grid has {counts} = {points} points, "
            f"above the cap of {MAX_GRID_POINTS}"
        )
    return GridSpec(axes)


def _check_data_ranges(dsec: dict) -> None:
    """Split fractions that leave a train split; explicit reliabilities (synthetic data),
    one per annotator, whose mean error rate is the noise rate (uniform assignment)."""
    val, test, rel = dsec["noisy_val_fraction"], dsec["test_fraction"], dsec.get("reliabilities")
    if val + test >= 1:
        raise ConfigError(
            f"data.test_fraction: must be < 1 - noisy_val_fraction ({val}), got {test}"
        )
    if rel and len(rel) != dsec["annotators"]:
        raise ConfigError(
            f"data.reliabilities: needs one per annotator ({dsec['annotators']}), got {len(rel)}"
        )
    if rel and abs(1.0 - math.fsum(rel) / len(rel) - dsec["noise_rate"]) > 1e-6:
        raise ConfigError(
            f"data.noise_rate: {dsec['noise_rate']} is unreachable: the mean error rate of "
            f"data.reliabilities is {1.0 - math.fsum(rel) / len(rel):.6f}"
        )


def _check_risk_ranges(risk: dict, raw_values: str) -> None:
    """Check the [risk] fields against each other; make the count sweeps' values integers."""
    n, d, m, sweep, values = (risk[key] for key in ("n", "d", "m", "sweep", "sweep_values"))
    if n <= d + m:
        raise ConfigError(f"risk.n: must be > d + m = {d + m}, got {n}")
    if not 1 <= risk["n_clean"] <= n:
        raise ConfigError(f"risk.n_clean: must lie in [1, n] = [1, {n}], got {risk['n_clean']}")
    if sweep == "none" and values:
        raise ConfigError(f"risk.sweep_values: sweep = none takes no values, got {raw_values!r}")
    if sweep != "none" and not values:
        raise ConfigError(f"risk.sweep_values: the {sweep} sweep needs at least one value")
    if min(values, default=0) < 0:
        raise ConfigError(f"risk.sweep_values: must be >= 0, got {raw_values!r}")
    if sweep in ("corruption", "n2"):
        # flipped mask entries, at most every row; noisy rows, leaving one clean
        most = n if sweep == "corruption" else n - 1
        if not all(v <= most and v.is_integer() for v in values):
            raise ConfigError(
                f"risk.sweep_values: the {sweep} sweep takes integers in [0, {most}], "
                f"got {raw_values!r}"
            )
        risk["sweep_values"] = [int(v) for v in values]


def _check_sizes(sizes) -> None:
    """Each of ``sizes`` is (what, floats, {field path: factor}): reject the
    first whose count passes ``MAX_FLOATS``, naming its largest factor's field."""
    for what, floats, factors in sizes:
        if floats > MAX_FLOATS:
            where = max(factors, key=factors.get)
            raise ConfigError(f"{where}: {what} = {floats} floats, above the cap of {MAX_FLOATS}")


def _check_risk_sizes(risk: dict) -> None:
    """Reject a [risk] section whose arrays held at once would pass
    ``MAX_FLOATS`` floats, before any is allocated: the designs (one per
    point of an n2 or sigma sweep, else one), with ``resamples > 0`` a (d, n)
    Monte-Carlo map per distinct fit (OLS once on a corruption sweep's one
    design), one block of ``MC_ROWS`` rows of draws, a (d, chunk) residual per
    fit and the per-draw sums, where a chunk is min(resamples, ``MC_CHUNK``)
    draws."""
    n, d, m, resamples, sweep = (risk[key] for key in ("n", "d", "m", "resamples", "sweep"))
    points = len(risk["sweep_values"]) or 1
    designs = points if sweep in ("n2", "sigma") else 1
    fits = (points + 1 if sweep == "corruption" else 2 * points) if resamples else 0
    chunk = min(resamples, MC_CHUNK)
    total = (designs * n * (d + m) + fits * d * n + (MC_ROWS + fits * d) * chunk
             + fits * resamples)
    _check_sizes(((
        f"a risk run holds {designs}*n*(d+m) + {fits}*d*n + ({MC_ROWS} + {fits}*d)"
        f"*min(resamples, {MC_CHUNK}) + {fits}*resamples",
        total,
        {"risk.n": n, "risk.d": d, "risk.m": m, "risk.resamples": resamples,
         "risk.sweep_values": points},
    ),))


def _check_trial_sizes(cfg: ExperimentConfig, points: list[dict]) -> None:
    """Reject a command whose trials' largest arrays would pass ``MAX_FLOATS``
    floats, before any is allocated: the generator's distance array, then at
    each of ``points``, taken through ``apply_grid_point``, the dataset with
    its random PI, the model's parameters and ``n`` times its widest layer,
    both from ``ModelConfig.shapes``. A factor the point sets is named as its
    [grid] axis. A CSV source's rows and widths are known only once the file
    is read: for one, only the model's layers are counted, with the data's own
    columns taken as 0."""
    synth, classes = cfg.data.synth, cfg.data.num_classes
    n, d, a = (synth.n, synth.feature_dim, synth.annotators) if synth else (0, 0, 0)
    _check_sizes(((
        "the generator's distances need n*classes*feature_dim", n * classes * d,
        {"data.n": n, "data.classes": classes, "data.feature_dim": d},
    ),))
    dataset = (f"the dataset with its random PI needs n*(feature_dim+annotators+"
               f"{len(data_mod.PI_CHANNELS)}+random_pi_length)")
    for point in points:
        train, model = apply_grid_point(cfg.train, cfg.model, point)
        r_key = ("grid." if "random_pi_length" in point else "train.") + "random_pi_length"
        w_key = ("grid." if "pi_width" in point else "model.") + "pi_width"
        r = train.random_pi_length
        pi = r + (synth.pi_dim if synth else 0)  # the generator's PI, then the random PI
        layers = [sizes for sizes, _ in filter(None, model.shapes(d, pi, classes).values())]
        params = sum(o * (i + 1) for sizes in layers for i, o in zip(sizes, sizes[1:]))
        widths = {"model.pred_hidden": max(model.pred_hidden, default=0), w_key: model.pi_width,
                  "data.feature_dim": d, "data.annotators": a, r_key: r, "data.classes": classes}
        _check_sizes((
            (dataset, n * (d + pi),
             {"data.n": n, "data.feature_dim": d, "data.annotators": a, r_key: r}),
            ("the model's parameters", params, widths),
            ("a pass over the data needs n*(widest layer)", n * max(map(max, layers)),
             {"data.n": n, **widths}),
        ))


def load_experiment_config(
    path: str | Path, seed_override: int | None = None, trials: GridSpec | None = None
) -> ExperimentConfig:
    """The config at ``path``; the size cap counts the trials the command runs:
    ``trials`` (``ablate``'s rows), else the [grid] or the config's own trial."""
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
    _check_data_ranges(dsec)
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

    grid = _grid(merged["grid"]) if any(merged.get("grid", {})) else None

    risk = _section(merged, "risk")
    _check_risk_ranges(risk, merged["risk"]["sweep_values"].strip())
    _check_risk_sizes(risk)

    cfg = ExperimentConfig(
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
    _check_trial_sizes(cfg, (trials or grid or GridSpec({})).points())
    return cfg


def build_dataset(cfg: ExperimentConfig):
    """Generate or load the dataset described by the config and apply splits.

    A CSV's own split column is kept, whatever it holds; the split fractions
    split generated data and a CSV without that column. The dataset has a
    train row: ``load_csv`` rejects a CSV split column without one, and this
    rejects split fractions that round it away."""
    if cfg.data.source == "synthetic":
        ds = data_mod.generate_synthetic(cfg.data.synth)
    else:
        ds = data_mod.load_csv(cfg.data.csv_path, num_classes=cfg.data.num_classes)
    val, test = cfg.data.noisy_val_fraction, cfg.data.test_fraction
    if not ds.split_given and (val > 0 or test > 0):
        ds = data_mod.split_dataset(ds, val, test, derive_seed(cfg.seed, "split"))
        if not ds.split_indices(data_mod.SPLIT_TRAIN).size:
            raise ConfigError(
                f"data.test_fraction: {test} with noisy_val_fraction {val} leaves no "
                f"train row of {ds.n} after rounding"
            )
    return ds
