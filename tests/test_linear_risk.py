import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pidual.config import load_experiment_config
from pidual.errors import ContractError, NumericError
from pidual.linear_risk import (
    MC_CHUNK,
    MC_ROWS,
    LinearRiskSetup,
    closed_form_risk,
    corrupt_mask,
    make_setup,
    masked_designs,
    masked_fit,
    monte_carlo_risks,
    pi_projector,
    projected_features,
)
from pidual.seeding import derive_seed


def joint_lstsq_oracle(setup, y, fit_mask):
    """Solve the masked two-block least squares jointly and read off the
    feature coefficients (independent route: stacked design + normal eqs)."""
    x_bar, a_bar = masked_designs(setup, fit_mask)
    design = np.hstack([x_bar, a_bar])
    gram = design.T @ design
    rhs = design.T @ y
    sol = np.linalg.solve(gram, rhs)
    return sol[: setup.features.shape[1]]


def test_make_setup_shapes_and_determinism():
    s1 = make_setup(50, 4, 3, 30, 0.5, seed=1)
    s2 = make_setup(50, 4, 3, 30, 0.5, seed=1)
    assert s1.features.shape == (50, 4) and s1.pi.shape == (50, 3)
    assert s1.n_clean == 30 and s1.n_noisy == 20
    assert np.array_equal(s1.features, s2.features)
    assert np.array_equal(s1.pi_coef, s2.pi_coef)


def test_make_setup_all_clean():
    s = make_setup(40, 3, 3, 40, 1.0, seed=2)
    assert s.n_noisy == 0


def test_ols_recovers_noiseless_all_clean():
    s = make_setup(60, 5, 4, 60, 0.0, seed=3)
    y = s.noiseless_targets()
    w = masked_fit(s, y, s.all_rows)
    assert np.max(np.abs(w - s.feature_coef)) < 1e-8


def test_ols_zero_targets():
    s = make_setup(30, 3, 2, 20, 1.0, seed=4)
    assert np.allclose(masked_fit(s, np.zeros(30), s.all_rows), 0.0)


def test_ols_matches_normal_equations_oracle():
    s = make_setup(25, 2, 2, 15, 1.0, seed=5)
    y = s.sample_targets(np.random.default_rng(0))
    w = masked_fit(s, y, s.all_rows)
    x = s.features
    oracle = np.linalg.solve(x.T @ x, x.T @ y)  # LU route, not SVD
    assert np.max(np.abs(w - oracle)) < 1e-10


def test_pidual_recovers_with_true_mask_no_noise():
    s = make_setup(80, 5, 4, 50, 0.0, seed=6)
    y = s.noiseless_targets()
    w = masked_fit(s, y, s.clean_mask)
    assert np.max(np.abs(w - s.feature_coef)) < 1e-8


def test_pidual_with_full_mask_reduces_to_ols():
    s = make_setup(40, 4, 3, 25, 1.0, seed=7)
    y = s.sample_targets(np.random.default_rng(1))
    ols = np.linalg.lstsq(s.features, y, rcond=None)[0]
    assert np.array_equal(masked_fit(s, y, s.all_rows), ols)


@pytest.mark.parametrize("seed", range(5))
def test_pidual_matches_joint_lstsq_oracle(seed):
    s = make_setup(60, 4, 5, 35, 1.0, seed=seed)
    rng = np.random.default_rng(100 + seed)
    y = s.sample_targets(rng)
    mask = corrupt_mask(s.clean_mask, 6, seed=seed)
    w = masked_fit(s, y, mask)
    oracle = joint_lstsq_oracle(s, y, mask)
    assert np.max(np.abs(w - oracle)) < 1e-8


def test_pidual_rank_deficient_mask_rejected():
    s = make_setup(30, 3, 5, 28, 1.0, seed=8)
    # only 2 noisy rows but 5 PI columns: masked PI block cannot be full rank
    with pytest.raises(NumericError):
        masked_fit(s, np.zeros(30), s.clean_mask)


def test_projector_identities():
    s = make_setup(50, 4, 4, 30, 1.0, seed=9)
    mask = s.clean_mask
    proj = pi_projector(s, mask)
    assert np.max(np.abs(proj @ proj - proj)) < 1e-10
    _, a_bar = masked_designs(s, mask)
    assert np.max(np.abs((np.eye(s.n) - proj) @ a_bar)) < 1e-10
    # the fitting operator is a left inverse of the masked features
    x_proj = projected_features(s, mask)
    x_bar, _ = masked_designs(s, mask)
    left_inverse, *_ = np.linalg.lstsq(x_proj, x_bar, rcond=None)
    assert np.max(np.abs(left_inverse - np.eye(4))) < 1e-8


def test_ols_risk_zero_bias_when_all_clean():
    s = make_setup(40, 3, 3, 40, 0.7, seed=10)
    risk = closed_form_risk(s, s.all_rows)
    assert risk.bias_term <= 1e-10
    assert risk.irreducible == pytest.approx(0.49)
    assert risk.total == risk.bias_term + risk.variance_term + risk.irreducible


def test_ols_risk_single_point_symbolic_case():
    # one clean row, unit feature, sigma=1: variance term 1, irreducible 1
    s = LinearRiskSetup(
        features=np.array([[1.0]]),
        pi=np.array([[0.0]]),
        feature_coef=np.array([2.0]),
        pi_coef=np.array([0.0]),
        clean_mask=np.array([True]),
        noise_std=1.0,
    )
    risk = closed_form_risk(s, s.all_rows)
    assert risk.bias_term == pytest.approx(0.0, abs=1e-12)
    assert risk.variance_term == pytest.approx(1.0, abs=1e-12)
    assert risk.irreducible == 1.0
    assert risk.total == pytest.approx(2.0, abs=1e-12)
    mc, se = monte_carlo_risks([(s, s.all_rows)], resamples=50_000, seed=1)[0]
    assert abs(mc - 2.0) < 3.0 * se


def test_ols_bias_scales_quadratically_with_gap():
    s = make_setup(50, 3, 3, 30, 1.0, seed=11)
    base = closed_form_risk(s, s.all_rows).bias_term
    scaled = LinearRiskSetup(
        features=s.features,
        pi=s.pi,
        feature_coef=3.0 * s.feature_coef,
        pi_coef=3.0 * s.pi_coef,
        clean_mask=s.clean_mask,
        noise_std=s.noise_std,
    )
    assert closed_form_risk(scaled, scaled.all_rows).bias_term == pytest.approx(
        9.0 * base, rel=1e-10
    )


def test_pidual_risk_zero_bias_with_true_mask():
    s = make_setup(60, 4, 4, 35, 1.0, seed=12)
    risk = closed_form_risk(s, s.clean_mask)
    assert risk.bias_term <= 1e-10


def test_single_flip_changes_bias_and_variance_consistently():
    s = make_setup(60, 4, 4, 35, 1.0, seed=13)
    base = closed_form_risk(s, s.clean_mask)
    flipped_mask = s.clean_mask.copy()
    flipped_mask[0] = False  # route one clean row to the PI path
    flipped = closed_form_risk(s, flipped_mask)
    assert flipped.bias_term > base.bias_term
    assert flipped.irreducible == base.irreducible
    assert flipped.total == flipped.bias_term + flipped.variance_term + flipped.irreducible


def test_monte_carlo_zero_noise_zero_bias():
    s = make_setup(50, 4, 3, 30, 0.0, seed=14)
    risk, _ = monte_carlo_risks([(s, s.clean_mask)], resamples=3, seed=0)[0]
    assert abs(risk) < 1e-18


def test_monte_carlo_deterministic():
    s = make_setup(50, 4, 3, 30, 1.0, seed=15)
    r1, _ = monte_carlo_risks([(s, s.all_rows)], resamples=1, seed=5)[0]
    r2, _ = monte_carlo_risks([(s, s.all_rows)], resamples=1, seed=5)[0]
    assert r1 == r2


@pytest.mark.parametrize("estimator", ["ols", "pidual"])
def test_monte_carlo_agrees_with_closed_form(estimator):
    s = make_setup(100, 5, 5, 60, 1.0, seed=16, pi_coef_scale=3.0)
    mask = s.all_rows if estimator == "ols" else corrupt_mask(s.clean_mask, 4, seed=2)
    closed = closed_form_risk(s, mask).total
    mc, se = monte_carlo_risks([(s, mask)], resamples=20_000, seed=3)[0]
    assert abs(mc - closed) < 3.0 * se


def test_closed_form_large_gap_prefers_gated_estimator():
    # many noisy rows with a strong PI contribution: OLS bias dominates
    s = make_setup(120, 4, 4, 40, 0.5, seed=17, pi_coef_scale=8.0)
    ols, gated = closed_form_risk(s, s.all_rows), closed_form_risk(s, s.clean_mask)
    assert ols.total > gated.total
    assert ols.bias_term > gated.bias_term


def test_closed_form_all_clean_full_mask_prefers_ols():
    s = make_setup(60, 4, 3, 60, 1.0, seed=18)
    full = np.ones(s.n, dtype=bool)
    ols, gated = closed_form_risk(s, s.all_rows), closed_form_risk(s, full)
    # OLS bias is zero and the variance traces coincide: no strict preference
    assert not ols.total > gated.total
    assert ols.total == pytest.approx(gated.total, rel=1e-12)


def test_variance_traces_ordered():
    # with a negligible gap and large noise, preference is decided by the
    # variance traces, and the OLS trace is never larger
    for seed in range(6):
        s = make_setup(80, 5, 4, 50, 4.0, seed=seed, coef_scale=1e-3, pi_coef_scale=1e-3)
        ols, gated = closed_form_risk(s, s.all_rows), closed_form_risk(s, s.clean_mask)
        n1, sigma = s.n_clean, s.noise_std
        trace_ols, trace_gated = (r.variance_term * n1 / sigma**2 for r in (ols, gated))
        assert trace_ols <= trace_gated + 1e-12
        assert not ols.total > gated.total


def test_bias_grows_with_corruption_on_average():
    s = make_setup(80, 4, 4, 50, 1.0, seed=19, pi_coef_scale=3.0)

    def mean_bias(flips, trials=40):
        total = 0.0
        for t in range(trials):
            mask = corrupt_mask(s.clean_mask, flips, seed=1000 * flips + t)
            total += closed_form_risk(s, mask).bias_term
        return total / trials

    assert mean_bias(1) < mean_bias(4) < mean_bias(8)


def test_monte_carlo_propagates_estimator_failure_with_draw_range():
    s = make_setup(30, 3, 5, 28, 1.0, seed=20)
    # only 2 noisy rows for 5 PI columns: the gated estimator cannot be fit
    with pytest.raises(NumericError, match=r"draws \[0, "):
        monte_carlo_risks([(s, s.clean_mask)], resamples=10, seed=0)


# (n, d, m) of the shared-draw setups: n = 60, and setups at the edges of a
# block of MC_ROWS rows, one with fewer rows than a block (so small d and m keep
# n > d + m) and one whose last block is partial
SIZES = {"n-60": (60, 4, 4), "n-below-block": (MC_ROWS - 3, 2, 2),
         "n-not-a-multiple": (3 * MC_ROWS + 5, 4, 4)}


def shared_draw_fits(n=60, d=4, m=4):
    """Several masks on one setup, plus setups that differ in noise_std and in n_clean."""
    s = make_setup(n, d, m, 2 * n // 3, 1.0, seed=21, pi_coef_scale=3.0)
    noisier = make_setup(n, d, m, 2 * n // 3, 2.5, seed=21, pi_coef_scale=3.0)
    fewer_clean = make_setup(n, d, m, n // 2, 1.0, seed=23, pi_coef_scale=3.0)
    return [
        (s, s.all_rows),
        (s, s.clean_mask),
        (s, corrupt_mask(s.clean_mask, 5 * n // 60 or 1, seed=4)),
        (noisier, noisier.all_rows),
        (noisier, corrupt_mask(noisier.clean_mask, 3 * n // 60 or 1, seed=5)),
        (fewer_clean, fewer_clean.clean_mask),
    ]


def chunkwise_lstsq_refit(setup, fit_mask, resamples, seed):
    """Per-draw risks from refitting each chunk's targets with ``lstsq`` and
    scoring the clean rows directly."""
    design = projected_features(setup, fit_mask)
    clean_x = setup.features[setup.clean_mask]
    risks = []
    for index, start in enumerate(range(0, resamples, 4096)):
        rng = np.random.default_rng(derive_seed(seed, "chunk", index))
        noise = setup.noise_std * rng.standard_normal((setup.n, min(4096, resamples - start)))
        targets = setup.noiseless_targets()[:, None] + noise
        coefs = np.linalg.lstsq(design, targets, rcond=None)[0]
        residual = clean_x @ (coefs - setup.feature_coef[:, None])
        risks.append((residual**2).sum(axis=0) / setup.n_clean)
    return np.concatenate(risks) + setup.noise_std**2


@pytest.mark.parametrize("which, size", [
    pytest.param("ols", "n-60", id="ols"),
    pytest.param("corrupted", "n-60", id="corrupted"),
    pytest.param("every-shared-fit", "n-60", id="every-shared-fit"),
    pytest.param("every-shared-fit", "n-below-block", id="every-shared-fit-n-below-block"),
    pytest.param("every-shared-fit", "n-not-a-multiple", id="every-shared-fit-n-not-a-multiple"),
])
def test_monte_carlo_matches_chunkwise_lstsq_refit(which, size):
    resamples, seed = 5000, 9  # a full 4096-draw chunk and a partial one
    if which == "every-shared-fit":
        # one call over fits that differ in mask, noise_std and n_clean
        fits = shared_draw_fits(*SIZES[size])
    else:
        s = make_setup(60, 4, 4, 40, 1.0, seed=21, pi_coef_scale=3.0)
        mask = s.all_rows if which == "ols" else corrupt_mask(s.clean_mask, 5, seed=4)
        fits = [(s, mask)]
    results = monte_carlo_risks(fits, resamples, seed)
    for (s, mask), (mean, stderr) in zip(fits, results):
        draws = chunkwise_lstsq_refit(s, mask, resamples, seed)
        assert mean == pytest.approx(draws.mean(), rel=1e-12)
        assert stderr == pytest.approx(draws.std(ddof=1) / np.sqrt(resamples), rel=1e-12)


def test_monte_carlo_rejects_ill_conditioned_design_with_draw_range():
    s = make_setup(50, 3, 3, 30, 1.0, seed=22)
    features = s.features.copy()
    features[:, 0] *= 1e6  # Gram condition of order 1e12
    bad = LinearRiskSetup(features, s.pi, s.feature_coef, s.pi_coef, s.clean_mask, s.noise_std)
    with pytest.raises(NumericError, match=r"condition .* exceeds") as exc:
        monte_carlo_risks([(bad, bad.all_rows)], resamples=10, seed=0)
    assert "draws [0, 10)" in str(exc.value)


# a full chunk and a 513-draw one; one draw; a full chunk and a width-1 one,
# also on setups at the edges of a block of rows
@pytest.mark.parametrize("resamples, size", [
    pytest.param(4609, "n-60", id="4609"),
    pytest.param(1, "n-60", id="1"),
    pytest.param(4097, "n-60", id="4097"),
    pytest.param(4097, "n-below-block", id="4097-n-below-block"),
    pytest.param(4097, "n-not-a-multiple", id="4097-n-not-a-multiple"),
])
def test_monte_carlo_risks_equal_each_single_fit(resamples, size):
    fits = shared_draw_fits(*SIZES[size])
    stats = monte_carlo_risks(fits, resamples, seed=9)
    assert stats == [monte_carlo_risks([(s, mask)], resamples, seed=9)[0] for s, mask in fits]
    # a fit's result does not depend on the other fits listed
    assert monte_carlo_risks(fits[::-1], resamples, seed=9) == stats[::-1]


@pytest.mark.parametrize("n", [60, 2000])
def test_monte_carlo_risks_hold_a_block_of_draws_however_large_n_is(n):
    s = make_setup(n, 4, 4, 2 * n // 3, 1.0, seed=21, pi_coef_scale=3.0)
    fits = [(s, s.all_rows), (s, corrupt_mask(s.clean_mask, 5, seed=4))]
    resamples = MC_CHUNK + 7  # a full chunk and a partial one
    monte_carlo_risks(fits, resamples, seed=9)  # numpy's first-call caches stay out of the peak
    tracemalloc.start()
    try:
        monte_carlo_risks(fits, resamples, seed=9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a block of draws, a residual per fit and the per-draw sums are
    # (MC_ROWS + 2 * 4) * MC_CHUNK + 2 * resamples floats at any n (0.85 MB);
    # one block's (4, MC_CHUNK) product adds 0.13 MB, and the fits' (4, n)
    # maps and their set-up about 0.25 MB at n = 2000, where a whole chunk of
    # draws would be 65 MB
    assert peak < 2 * (MC_ROWS + 2 * 4) * MC_CHUNK * 8, peak


def test_monte_carlo_risks_reject_setups_of_different_sizes():
    s = make_setup(60, 4, 4, 40, 1.0, seed=21)
    other = make_setup(61, 4, 4, 40, 1.0, seed=21)
    with pytest.raises(ContractError, match=r"one n, got \[60, 61\]") as exc:
        monte_carlo_risks([(s, s.all_rows), (other, other.all_rows)], resamples=10, seed=0)
    assert "\n" not in str(exc.value)


def test_a_fit_mask_of_the_wrong_length_and_no_resamples_break_preconditions():
    s = make_setup(60, 4, 4, 40, 1.0, seed=21)
    short = s.clean_mask[:-1]
    for call in (lambda: closed_form_risk(s, short), lambda: masked_fit(s, np.zeros(60), short),
                 lambda: monte_carlo_risks([(s, short)], resamples=10, seed=0)):
        with pytest.raises(ContractError, match=r"one entry per row: shape \(59,\) for 60 rows"):
            call()
    for resamples in (0, -1):
        with pytest.raises(ContractError, match=rf"resamples must be >= 1, got {resamples}"):
            monte_carlo_risks([(s, s.all_rows)], resamples=resamples, seed=0)


def test_monte_carlo_risks_name_the_draw_range_of_an_unsolvable_fit():
    s = make_setup(30, 3, 5, 28, 1.0, seed=20)
    # OLS is solvable; the gated fit has 2 noisy rows for 5 PI columns
    with pytest.raises(NumericError, match=r"draws \[0, 10\): masked PI block is rank-deficient"):
        monte_carlo_risks([(s, s.all_rows), (s, s.clean_mask)], resamples=10, seed=0)


def textbook_closed_form(setup, fit_mask):
    """The closed form by its textbook route: the bias from a least-squares
    solve of the disagreement-weighted gap, the variance from the trace of a
    dense solve against the clean rows' Gram matrix."""
    x_proj = projected_features(setup, fit_mask)
    x_clean = setup.features * setup.clean_mask[:, None]
    gap_term = (setup.clean_mask.astype(float) - fit_mask) * setup.contribution_gap
    bias_vec = x_clean @ np.linalg.lstsq(x_proj, gap_term, rcond=None)[0]
    trace = np.trace(np.linalg.solve(x_proj.T @ x_proj, x_clean.T @ x_clean))
    n1 = setup.n_clean
    return float(bias_vec @ bias_vec) / n1, setup.noise_std**2 * trace / n1


SIGMA_SWEEP = """[risk]
n = 200
d = 8
m = 8
n_clean = 120
pi_coef_scale = 3.0
resamples = 20000
sweep = sigma
sweep_values = 0.5,1,2
"""


def sweep_fits(config_path):
    """The distinct (setup, fit mask) pairs of a corruption or sigma sweep,
    built from the config as ``pidual risk`` builds them."""
    cfg = load_experiment_config(config_path)
    r, base_seed = cfg.risk, derive_seed(cfg.seed, "risk")

    def setup(sigma):
        return make_setup(r.n, r.d, r.m, r.n_clean, sigma, base_seed, r.coef_scale,
                          r.pi_coef_scale)

    if r.sweep == "corruption":
        s = setup(r.sigma)
        return [(s, s.all_rows)] + [
            (s, corrupt_mask(s.clean_mask, flips, derive_seed(base_seed, "corrupt", flips)))
            for flips in r.sweep_values
        ]
    return [(s, mask) for s in map(setup, r.sweep_values) for mask in (s.all_rows, s.clean_mask)]


def test_closed_form_matches_the_textbook_route_on_the_shipped_sweeps(tmp_path):
    sigma_config = tmp_path / "risk_sigma.ini"
    sigma_config.write_text(SIGMA_SWEEP)
    corruption = sweep_fits(Path(__file__).parents[1] / "configs" / "risk_sweep.ini")
    sigma = sweep_fits(sigma_config)
    assert (len(corruption), len(sigma)) == (7, 6)
    for setup, mask in corruption + sigma:
        risk = closed_form_risk(setup, mask)
        bias, variance = textbook_closed_form(setup, mask)
        # a true-mask fit has no bias, which both routes give as a numerical zero
        assert risk.bias_term == pytest.approx(bias, rel=1e-12, abs=1e-30)
        assert risk.variance_term == pytest.approx(variance, rel=1e-12)
