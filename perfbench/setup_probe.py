"""The set-up a workload's command does before its real work, alone.

Usage: python3 perfbench/setup_probe.py {train,risk} CONFIG SEED

Imports pidual, loads the config and builds the dataset (train) or the
linear risk setup (risk), the same way ``pidual.cli`` does, then exits. The
harness times the whole interpreter from spawn to exit.
"""
from __future__ import annotations

import sys

from pidual import linear_risk
from pidual.config import build_dataset, load_experiment_config
from pidual.seeding import derive_seed


def main(kind: str, config: str, seed: str) -> None:
    cfg = load_experiment_config(config, int(seed))
    if kind == "risk":
        r = cfg.risk
        linear_risk.make_setup(
            r.n, r.d, r.m, r.n_clean, r.sigma, derive_seed(cfg.seed, "risk"),
            r.coef_scale, r.pi_coef_scale,
        )
    else:
        build_dataset(cfg)


if __name__ == "__main__":
    main(*sys.argv[1:])
