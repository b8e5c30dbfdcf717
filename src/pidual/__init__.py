"""Noisy-label learning with privileged information.

A gated dual-network architecture separates the learning paths of clean and
wrong labels during training, keeps inference PI-free, detects wrong labels
post-training, and comes with an exactly-solvable linear risk analysis.
"""

import os

# One BLAS thread unless the caller chose a count. The networks are small:
# on 2 cores a second OpenBLAS thread saved no wall time on `pidual train
# --config configs/benchmark.ini` or `pidual risk --config
# configs/risk_sweep.ini` and doubled their CPU time (risk: 2.4 s wall either
# way, 4.6 s vs 2.4 s CPU). Forked `--workers N` grid processes inherit the
# setting. OpenBLAS reads it when numpy loads, so this precedes the imports.
if "OMP_NUM_THREADS" not in os.environ:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .data import (
    PiDataset,
    RandomPiSpec,
    SynthConfig,
    augment_random_pi,
    generate_synthetic,
    load_csv,
    save_csv,
    split_dataset,
)
from .detection import DetectionReport, confidence_scores, detect, gate_scores, roc_auc
from .linear_risk import (
    LinearRiskSetup,
    RiskBreakdown,
    closed_form_risk,
    make_setup,
    masked_fit,
    monte_carlo_risks,
)
from .model import (
    AblationFlags,
    ModelConfig,
    PiDualModel,
    backward_train,
    build_model,
    ce_baseline_flags,
    forward_infer,
    forward_train,
    load_checkpoint,
    save_checkpoint,
)
from .training import (
    GridSpec,
    TrainConfig,
    TrainRecord,
    TrainResult,
    evaluate,
    run_grid,
    run_trial,
    train,
)

__version__ = "0.1.0"
