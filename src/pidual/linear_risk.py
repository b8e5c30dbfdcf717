"""Fixed-design linear risk analysis of the gated estimator versus OLS.

Targets are generated as

    y = clean_mask * (X @ feature_coef) + (1 - clean_mask) * (A @ pi_coef) + noise

with additive Gaussian noise of scale ``noise_std``. Risk is the expected
mean squared error on fresh clean targets, with the design held fixed:

    R(theta) = (1/n1) * ||clean_mask * X @ (theta - feature_coef)||^2 + sigma^2

where n1 counts the clean rows. There is one estimator, the masked gated
fit: rows selected by a fit mask go to the feature path, the rest to the PI
path. OLS is the special case whose mask selects every row
(``LinearRiskSetup.all_rows``), which leaves the PI path empty.

The API is two functions. ``closed_form_risk(setup, fit_mask)`` gives a fit's
expected risk as a ``RiskBreakdown``: a bias term driven by the gap
X@feature_coef - A@pi_coef, a variance trace term and the irreducible
sigma^2. ``monte_carlo_risks(fits, resamples, seed)`` is the independent
oracle it is checked against: the (mean risk, standard error) of each
``(setup, fit_mask)`` pair over resampled training noise, with every pair
scored on the same draws. Both read one map per fit, from one guarded SVD per
fit: full rank, and a condition of at most 1e10 on the Gram matrix.

A risk run holds at once its designs, n x (d + m) floats each: one per
point of an n2 or sigma sweep, else one. With Monte-Carlo draws it also
holds a (d, n) map per distinct fit (up to two per sweep point), one block of
draws, ``MC_ROWS`` x chunk, a (d, chunk) residual per fit, where a chunk is
min(resamples, ``MC_CHUNK``) draws, and the per-draw sums, fits times
resamples. Only the designs and maps grow with n. ``pidual risk`` rejects at
config load a run whose sum of these exceeds ``MAX_FLOATS``.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractError, NumericError
from .seeding import derive_seed

COND_LIMIT = 1e10  # on Gram matrices, i.e. squared design condition
MC_CHUNK = 4096  # Monte-Carlo draws per chunk
MC_ROWS = 16  # rows of a chunk's standard normals drawn at a time
MAX_FLOATS = 2**26  # in floats (512 MiB): the cap on a risk run's arrays, summed


@dataclass
class LinearRiskSetup:
    """Fixed design matrices, ground-truth coefficients, clean mask, noise."""

    features: np.ndarray  # (n, d)
    pi: np.ndarray  # (n, m)
    feature_coef: np.ndarray  # (d,)
    pi_coef: np.ndarray  # (m,)
    clean_mask: np.ndarray  # (n,) bool; True = clean row
    noise_std: float

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def n_clean(self) -> int:
        return int(self.clean_mask.sum())

    @property
    def n_noisy(self) -> int:
        return self.n - self.n_clean

    @property
    def contribution_gap(self) -> np.ndarray:
        """Per-row gap between the feature-path and PI-path contributions."""
        return self.features @ self.feature_coef - self.pi @ self.pi_coef

    @property
    def all_rows(self) -> np.ndarray:
        """The fit mask that puts every row on the feature path: fitting with it is OLS."""
        return np.ones(self.n, dtype=bool)

    def noiseless_targets(self) -> np.ndarray:
        return self.clean_mask * (self.features @ self.feature_coef) + (
            ~self.clean_mask
        ) * (self.pi @ self.pi_coef)

    def sample_targets(self, rng: np.random.Generator) -> np.ndarray:
        return self.noiseless_targets() + self.noise_std * rng.standard_normal(self.n)


@dataclass
class RiskBreakdown:
    bias_term: float
    variance_term: float
    irreducible: float

    @property
    def total(self) -> float:
        return self.bias_term + self.variance_term + self.irreducible


def make_setup(
    n: int,
    d: int,
    m: int,
    n_clean: int,
    noise_std: float,
    seed: int,
    coef_scale: float = 1.0,
    pi_coef_scale: float = 1.0,
) -> LinearRiskSetup:
    """Standard-Gaussian features (n, d) and PI (n, m), one draw each, for
    n > d + m, 1 <= n_clean <= n and noise_std >= 0. The fits reject an
    ill-conditioned design; ``pidual risk`` checks these ranges and caps the
    floats a run holds, its designs included, at ``MAX_FLOATS`` when it loads
    the config."""
    rng = np.random.default_rng(derive_seed(seed, "setup"))
    features = rng.standard_normal((n, d))
    pi = rng.standard_normal((n, m))
    mask = np.zeros(n, dtype=bool)
    mask[:n_clean] = True
    return LinearRiskSetup(
        features=features,
        pi=pi,
        feature_coef=rng.standard_normal(d) * coef_scale,
        pi_coef=rng.standard_normal(m) * pi_coef_scale,
        clean_mask=mask,
        noise_std=float(noise_std),
    )


def corrupt_mask(mask: np.ndarray, flips: int, seed: int) -> np.ndarray:
    """Flip ``flips`` randomly chosen entries of a boolean mask, 0 <= flips <= mask.size."""
    mask = np.asarray(mask, dtype=bool)
    out = mask.copy()
    idx = np.random.default_rng(seed).choice(mask.size, size=flips, replace=False)
    out[idx] = ~out[idx]
    return out


# ---------------------------------------------------------------------------
# Linear algebra helpers (shared by closed forms, estimators and the oracle).
# ---------------------------------------------------------------------------


def _check_singular_values(svals: np.ndarray, shape: tuple[int, int], what: str) -> None:
    """Full-rank and Gram-condition checks on a design's singular values.

    The rank counts the values above ``lstsq``'s default cutoff,
    eps * max(n, d) times the largest one.
    """
    cutoff = np.finfo(np.float64).eps * max(shape) * svals[0]
    rank = int((svals > cutoff).sum())
    if rank < shape[1]:
        raise NumericError(f"{what} is rank-deficient (rank {rank} < {shape[1]})")
    cond_gram = (svals[0] / svals[-1]) ** 2
    if cond_gram > COND_LIMIT:
        raise NumericError(f"{what} Gram matrix condition {cond_gram:.2e} exceeds {COND_LIMIT:.0e}")


def masked_designs(
    setup: LinearRiskSetup, fit_mask: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Row-masked designs: features on selected rows, PI on the complement."""
    fit_mask = np.asarray(fit_mask, dtype=bool)
    if fit_mask.shape != (setup.n,):
        raise ContractError(
            f"fit mask must have one entry per row: shape {fit_mask.shape} for {setup.n} rows"
        )
    x_bar = setup.features * fit_mask[:, None]
    a_bar = setup.pi * (~fit_mask)[:, None]
    return x_bar, a_bar


def pi_projector_basis(a_bar: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the masked-PI column span (empty if all zero)."""
    if not a_bar.any():
        return np.zeros((a_bar.shape[0], 0))
    u, svals, _ = np.linalg.svd(a_bar, full_matrices=False)
    _check_singular_values(svals, a_bar.shape, "masked PI block")
    return u


def pi_projector(setup: LinearRiskSetup, fit_mask: np.ndarray) -> np.ndarray:
    """The orthogonal projector onto the span of the masked PI columns."""
    _, a_bar = masked_designs(setup, fit_mask)
    basis = pi_projector_basis(a_bar)
    return basis @ basis.T


def projected_features(setup: LinearRiskSetup, fit_mask: np.ndarray) -> np.ndarray:
    """Masked features projected onto the orthocomplement of the masked PI span."""
    x_bar, a_bar = masked_designs(setup, fit_mask)
    basis = pi_projector_basis(a_bar)
    return x_bar - basis @ (basis.T @ x_bar)


# ---------------------------------------------------------------------------
# The estimator.
# ---------------------------------------------------------------------------


def masked_fit(setup: LinearRiskSetup, y: np.ndarray, fit_mask: np.ndarray) -> np.ndarray:
    """Feature coefficients of the jointly-fit masked model.

    Rows selected by ``fit_mask`` go to the feature path, the rest to the PI
    path; the feature block is solved after projecting out the masked PI span.
    """
    x_proj = projected_features(setup, fit_mask)
    sol, _, _, svals = np.linalg.lstsq(x_proj, np.asarray(y, dtype=np.float64), rcond=None)
    _check_singular_values(svals, x_proj.shape, "projected feature design")
    return sol


def _fit_map(setup: LinearRiskSetup, fit_mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A fit's clean-row triangular factor R and its (d, n) scored map R @ S.

    S is the pseudo-inverse of the projected design, from one guarded SVD, so
    the fit of targets y is S @ y; R is the QR factor of the clean rows'
    features, so ||R @ v|| = ||clean_mask * X @ v|| for every v.
    """
    design = projected_features(setup, fit_mask)
    u, svals, vt = np.linalg.svd(design, full_matrices=False)
    _check_singular_values(svals, design.shape, "projected feature design")
    clean_r = np.linalg.qr(setup.features[setup.clean_mask], mode="r")
    return clean_r, clean_r @ ((vt.T / svals) @ u.T)


# ---------------------------------------------------------------------------
# Closed-form expected risk.
# ---------------------------------------------------------------------------


def closed_form_risk(setup: LinearRiskSetup, fit_mask: np.ndarray) -> RiskBreakdown:
    """Expected risk of the masked estimator: bias + variance trace + sigma^2.

    The bias scales only with the disagreements between the fit mask and the
    true clean mask; with ``setup.all_rows`` it is the OLS projection leakage
    of the noisy rows' gap. Both terms read the fit's scored map R @ S: the
    bias is ||R @ S @ gap_term||^2 / n1, and since S @ S^T is the inverse
    projected Gram matrix, the variance trace is ||R @ S||_F^2.
    """
    _, scored = _fit_map(setup, fit_mask)
    n1 = setup.n_clean
    disagreement = setup.clean_mask.astype(np.float64) - np.asarray(fit_mask, dtype=np.float64)
    bias_vec = scored @ (disagreement * setup.contribution_gap)
    bias = float(bias_vec @ bias_vec) / n1
    variance = setup.noise_std**2 / n1 * float(np.square(scored).sum())
    return RiskBreakdown(bias, variance, setup.noise_std**2)


# ---------------------------------------------------------------------------
# Monte-Carlo oracle.
# ---------------------------------------------------------------------------


def monte_carlo_risks(
    fits: list[tuple[LinearRiskSetup, np.ndarray]], resamples: int, seed: int
) -> list[tuple[float, float]]:
    """(mean risk, standard error) of each ``(setup, fit_mask)`` fit over
    fresh training-noise draws that every fit shares.

    Each draw refits on resampled targets and scores the clean rows; the
    expectation over fresh evaluation noise enters analytically as +sigma^2.
    The fit is linear in the targets and the clean rows' residual norm equals
    that of their triangular factor R, so each fit is folded once into a
    (d, n) map M = sigma * R @ S, with S its SVD pseudo-inverse, and an offset
    c = R @ S @ noiseless_targets - R @ feature_coef; a draw's standard normals
    xi score ||M @ xi + c||^2 / n1 + sigma^2. Chunks of ``MC_CHUNK`` draws
    come from substreams derived from the chunk index. A chunk draws its
    (n, width) standard normals once and every fit reuses them (common random
    numbers), so every setup must have the same number of rows. A fit's
    result depends only on its setup, its mask, ``resamples`` and ``seed``,
    never on the other fits listed.

    A chunk's standard normals are drawn ``MC_ROWS`` rows at a time into one
    block buffer, continuing the chunk's one stream, and each fit adds its
    map's columns for those rows times the block into its own (d, chunk)
    residual. So a call holds ``MC_ROWS`` x chunk floats of draws, a residual
    per fit and one (fits, resamples) array of per-draw sums, however large
    n is, besides the fits' maps.
    """
    if resamples < 1:
        raise ContractError(f"resamples must be >= 1, got {resamples}")
    if not fits:
        return []
    sizes = sorted({setup.n for setup, _ in fits})
    if len(sizes) > 1:
        raise ContractError(
            f"Monte-Carlo fits share their draws, so their setups need one n, got {sizes}"
        )
    maps = []
    for setup, fit_mask in fits:
        try:
            clean_r, scored = _fit_map(setup, fit_mask)
        except NumericError as exc:
            raise NumericError(f"estimator failed on draws [0, {resamples}): {exc}") from exc
        offset = scored @ setup.noiseless_targets() - clean_r @ setup.feature_coef
        maps.append((setup.noise_std * scored, offset[:, None]))
    n, chunk = sizes[0], min(MC_CHUNK, resamples)
    block_buffer = np.empty(MC_ROWS * chunk)  # each block of a chunk's standard normals, in turn
    residual_buffers = [np.empty(offset.size * chunk) for _, offset in maps]
    risks = np.empty((len(fits), resamples))  # each fit's per-draw residual sums
    for index, start in enumerate(range(0, resamples, MC_CHUNK)):
        width = min(MC_CHUNK, resamples - start)
        residuals = [buffer[: offset.size * width].reshape(offset.size, width)
                     for (_, offset), buffer in zip(maps, residual_buffers)]
        rng = np.random.default_rng(derive_seed(seed, "chunk", index))
        for first in range(0, n, MC_ROWS):
            rows = slice(first, min(first + MC_ROWS, n))
            block = block_buffer[: (rows.stop - first) * width].reshape(-1, width)
            rng.standard_normal(out=block)  # the chunk's one stream, continued row by row
            for (noise_map, _), residual in zip(maps, residuals):
                if first:
                    residual += noise_map[:, rows] @ block
                else:
                    np.matmul(noise_map[:, rows], block, out=residual)
        for f, ((_, offset), residual) in enumerate(zip(maps, residuals)):
            residual += offset
            np.square(residual, out=residual)
            residual.sum(axis=0, out=risks[f, start : start + width])
    stats = []
    for (setup, _), fit_risks in zip(fits, risks):
        risk_draws = fit_risks / setup.n_clean + setup.noise_std**2
        stderr = (
            float(risk_draws.std(ddof=1) / np.sqrt(resamples)) if resamples > 1 else 0.0
        )
        stats.append((float(risk_draws.mean()), stderr))
    return stats


# Trace targets only: perfbench/trace_main.py wraps these two names, and they
# go with that tracer (ROADMAP item 1).
def compare_risks(
    setup: LinearRiskSetup, fit_mask: np.ndarray
) -> tuple[RiskBreakdown, RiskBreakdown]:
    return closed_form_risk(setup, setup.all_rows), closed_form_risk(setup, fit_mask)


def monte_carlo_risk(
    setup: LinearRiskSetup, fit_mask: np.ndarray, resamples: int, seed: int
) -> float:
    return monte_carlo_risks([(setup, fit_mask)], resamples, seed)[0][0]


RISK_CSV_COLUMNS = (
    "setup_id",
    "n",
    "n1",
    "n2",
    "d",
    "m",
    "sigma",
    "ols_bias",
    "ols_var",
    "pidual_bias",
    "pidual_var",
    "ols_total",
    "pidual_total",
    "mc_ols",
    "mc_pidual",
)


def risk_row(
    setup_id: str,
    setup: LinearRiskSetup,
    ols: RiskBreakdown,
    gated: RiskBreakdown,
    mc_ols: float | None,
    mc_pidual: float | None,
) -> list[str]:
    """One CSV row of the risk-comparison export: the closed forms of OLS and
    of the gated fit, then their Monte-Carlo means."""

    def fmt(v: float | None) -> str:
        return "" if v is None else repr(float(v))

    return [
        setup_id,
        str(setup.n),
        str(setup.n_clean),
        str(setup.n_noisy),
        str(setup.features.shape[1]),
        str(setup.pi.shape[1]),
        repr(float(setup.noise_std)),
        fmt(ols.bias_term),
        fmt(ols.variance_term),
        fmt(gated.bias_term),
        fmt(gated.variance_term),
        fmt(ols.total),
        fmt(gated.total),
        fmt(mc_ols),
        fmt(mc_pidual),
    ]


def write_risk_csv(path: str | Path, rows: list[list[str]]) -> None:
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RISK_CSV_COLUMNS)
        writer.writerows(rows)
