"""End-to-end acceptance checks for the packaged decision problem.

Every numbered criterion below prints one PASS/FAIL line per check; run

    pytest tests/test_acceptance.py -v -s

to see them all.  The module re-runs the estimators at their full shipped
settings, so expect a few minutes of wall time.  Reference values for the
implementation-adjusted results were computed independently with a nested
Monte Carlo whose baseline does not share random numbers with the outer
loop; its residual baseline noise is part of the quoted tolerances.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats
from scipy.special import expit, logit

from voi.cli import run_config
from voi.curves import fit_generalized_logistic, fit_variance_curve
from voi.market import CurrentShares, StepShare, assemble_evsi, assemble_evsi_im, market_share
from voi.model import ParameterDraw, prob_cost_effective, sample_prior
from voi.moment_matching import mm_by_n_pipeline, mm_pipeline, rescale
from voi.nmc import nmc_summaries, posterior_summaries
from voi.rng import child_seed
import voi.studies as studies
from voi.studies import Dataset, StudyDesign, StudyKind

SEED = 2026

# Independently computed reference results for the three studies at the
# shipped estimation settings (implementation-adjusted value of each study).
NMC_REFERENCE = {1: 6086.0, 2: 1924.0, 3: 1778.0}
MM_REFERENCE = {1: 6013.0, 2: 1849.0, 3: 1669.0}


def _check(label: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}", flush=True)
    assert ok, f"{label}: {detail}"


def _batch_se(x: np.ndarray, n_batches: int = 25) -> float:
    n = (len(x) // n_batches) * n_batches
    means = x[:n].reshape(n_batches, -1).mean(axis=1)
    return float(means.std(ddof=1) / math.sqrt(n_batches))


@pytest.fixture(scope="module")
def psa10k(priors, fixed):
    return sample_prior(priors, fixed, 10_000, child_seed(SEED, "psa"))


@pytest.fixture(scope="module")
def full_run(case, psa10k):
    """Both estimators on all three studies at the shipped settings."""
    table, mm_results, scans = run_config(case, psa10k)
    rows = {(r.study, r.method): r for r in table.rows}
    return rows, mm_results


# -- criterion 1: prior sample reproduces the decision problem's summaries --

def test_criterion_1_psa_summaries(priors, fixed):
    t0 = time.perf_counter()
    psa = sample_prior(priors, fixed, 10_000, child_seed(SEED, "psa"))
    mean_nb = psa.nb.mean(axis=0)
    p2 = prob_cost_effective(psa)[1]
    elapsed = time.perf_counter() - t0
    _check("criterion 1 standard-of-care mean",
           abs(mean_nb[0] - 2_159_300.0) <= 0.001 * 2_159_300.0,
           f"{mean_nb[0]:,.1f} vs 2,159,300 within 0.1%")
    _check("criterion 1 novel-treatment mean",
           abs(mean_nb[1] - 2_164_900.0) <= 0.001 * 2_164_900.0,
           f"{mean_nb[1]:,.1f} vs 2,164,900 within 0.1%")
    _check("criterion 1 probability cost effective",
           abs(p2 - 0.57) <= 0.02, f"p={p2:.4f} vs 0.57 +/- 0.02")
    _check("criterion 1 runtime", elapsed < 5.0, f"{elapsed:.2f}s < 5s")


# -- criterion 2: both estimators land on the reference values ---------------

@pytest.mark.parametrize("study,method", [
    (1, "nmc"), (1, "mm"), (2, "nmc"), (2, "mm"), (3, "nmc"), (3, "mm"),
])
def test_criterion_2_reference_windows(full_run, study, method):
    rows, _ = full_run
    reference = (NMC_REFERENCE if method == "nmc" else MM_REFERENCE)[study]
    value = rows[(study, method)].evsi_im
    _check(f"criterion 2 study {study} {method}",
           abs(value - reference) <= 0.10 * reference,
           f"evsi_im={value:,.1f} vs {reference:,.0f} within 10%")


@pytest.mark.parametrize("study", [1, 2, 3])
def test_criterion_2_methods_agree(full_run, study):
    rows, _ = full_run
    nmc_value = rows[(study, "nmc")].evsi_im
    mm_value = rows[(study, "mm")].evsi_im
    _check(f"criterion 2 study {study} method agreement",
           abs(nmc_value - mm_value) <= 0.10 * abs(nmc_value),
           f"nmc={nmc_value:,.1f} mm={mm_value:,.1f} within 10%")


# -- criterion 3: moment matching earns its keep -----------------------------

@pytest.mark.parametrize("study", [1, 2, 3])
def test_criterion_3_mm_speedup(full_run, study):
    rows, _ = full_run
    nmc_s = rows[(study, "nmc")].seconds
    mm_s = rows[(study, "mm")].seconds
    _check(f"criterion 3 study {study} wall time",
           mm_s <= nmc_s / 5.0,
           f"mm {mm_s:.2f}s vs nmc {nmc_s:.2f}s ({nmc_s / mm_s:.0f}x faster)")


# -- criterion 4: agreement holds away from the shipped design size ----------

def test_criterion_4_small_study_against_heavy_oracle(psa10k, priors, fixed, market_fn,
                                                      current_shares):
    design = StudyDesign(StudyKind.SIDE_EFFECTS, 10)
    summaries = nmc_summaries(design, priors, fixed, 20_000, 20_000,
                              child_seed(SEED, "oracle-n10"))
    ref = assemble_evsi_im(*summaries.toward(market_fn.target), market_fn, current_shares)
    mm = mm_pipeline(psa10k, priors, fixed, design, market_fn, current_shares,
                     50, 10_000, child_seed(SEED, "mm-n10")).evsi_im
    combined = math.hypot(ref.std_error, mm.std_error)
    _check("criterion 4 ten-patient study",
           abs(ref.value - mm.value) <= 3.0 * combined,
           f"nmc={ref.value:,.1f} mm={mm.value:,.1f} "
           f"diff {abs(ref.value - mm.value):,.1f} <= {3 * combined:,.1f}")


# -- criterion 5: the adjusted estimator nests the plain one -----------------

def test_criterion_5_step_market_identity(priors, fixed):
    design = StudyDesign(StudyKind.SIDE_EFFECTS, 60)
    summaries = nmc_summaries(design, priors, fixed, 300, 500,
                              child_seed(SEED, "step-check"))
    incumbent = CurrentShares((0.0, 1.0)) if summaries.inb.mean() > 0.0 \
        else CurrentShares((1.0, 0.0))
    plain = assemble_evsi(summaries.inb).value
    adjusted = assemble_evsi_im(*summaries.toward(1), StepShare(), incumbent).value
    _check("criterion 5 step-market identity",
           adjusted == plain,
           f"adjusted {adjusted!r} == plain {plain!r} (bit level)")


# -- criterion 6: posterior samplers against analytic and grid oracles -------

def _engine_draws(case, ds: Dataset, n_draws: int, seed: int):
    """The draws the estimators' inner engine evaluates for one dataset, per field."""
    seen = []

    def capture(draw, fixed):
        seen.append(draw)
        return np.zeros(np.shape(draw.p_event))

    posterior_summaries(studies.study_posterior([ds], case.priors), case.priors, case.fixed,
                        n_draws, seed,
                        nb_fns=(capture, lambda draw, _: np.zeros(np.shape(draw.p_event))),
                        shared_fill=False)
    return lambda field: np.concatenate([np.asarray(getattr(d, field))[:, 0] for d in seen])


def test_criterion_6_conjugate_side_effects(case):
    design = StudyDesign(StudyKind.SIDE_EFFECTS, 60)
    ds = Dataset(design=design, events=15)
    p = _engine_draws(case, ds, 10_000, child_seed(SEED, "c6-se"))("p_side_effect")
    ref = stats.beta(18, 54)
    se = ref.std() / math.sqrt(10_000)
    _check("criterion 6 side-effect conjugate",
           abs(p.mean() - ref.mean()) <= 3.0 * se,
           f"sample mean {p.mean():.5f} vs Beta(18,54) mean {ref.mean():.5f}")


def test_criterion_6_conjugate_quality(case):
    design = StudyDesign(StudyKind.QUALITY_OF_LIFE, 100)
    ds = Dataset(design=design, logit_total=55.0)
    z = logit(_engine_draws(case, ds, 10_000, child_seed(SEED, "c6-q"))("qol_after_event"))
    mean = (6.0 * 0.6 + 55.0 / 2.0) / 56.0
    se = math.sqrt(1.0 / 56.0 / 10_000)
    _check("criterion 6 quality conjugate",
           abs(z.mean() - mean) <= 3.0 * se,
           f"sample mean {z.mean():.5f} vs conjugate mean {mean:.5f}")


def _control_rate_given_g(ds: Dataset, g: np.ndarray, priors) -> np.ndarray:
    """E[P_C | g, data] for each draw g, by quadrature over l = logit P_C.

    The nodes on [-12, 6] hold the conditional posterior of l at every g the
    trial's marginal reaches, with negligible mass at either end.
    """
    l = np.linspace(-12.0, 6.0, 3601)
    n = float(ds.design.n)
    out = np.empty_like(g)
    for s in range(0, len(g), 500):
        lp = studies._rct_log_post(l, g[s:s + 500, None], float(ds.control_events), n,
                                   float(ds.treated_events), n, priors)
        w = np.exp(lp - lp.max(axis=1, keepdims=True))
        out[s:s + 500] = (w @ expit(l)) / w.sum(axis=1)
    return out


def _grid_posterior_means(ds: Dataset, priors, n_nodes: int = 200) -> tuple[float, float]:
    """Posterior means of P_C and log OR by a fixed quadrature over the prior's range.

    An independent oracle for the gridded marginal on data the prior
    expects: an ``n_nodes x n_nodes`` grid over the central 99.9% prior
    ranges of (logit P_C, log OR) weights the plain joint density.  The grid
    stops where the prior's range does, so it is no reference for data in
    the prior's tails: at 200 nodes its outermost rows and columns carry
    1e-4 of the posterior weight at 45 control and 20 treated events of 200,
    but 0.99 at 200 and 200.
    """
    q = (0.0005, 0.9995)
    p_lo, p_hi = stats.beta.ppf(q, priors.p_event.alpha, priors.p_event.beta)
    g_lo, g_hi = stats.norm.ppf(q, priors.log_odds_ratio.mean, priors.log_odds_ratio.sd)
    L, G = np.meshgrid(np.linspace(logit(p_lo), logit(p_hi), n_nodes),
                       np.linspace(g_lo, g_hi, n_nodes), indexing="ij")
    n = float(ds.design.n)
    log_post = studies._rct_log_post(L, G, float(ds.control_events), n,
                                     float(ds.treated_events), n, priors)
    w = np.exp(log_post - log_post.max())
    w /= w.sum()
    return float((w * expit(L)).sum()), float((w * G).sum())


@pytest.mark.parametrize("x_control,x_treat", [(30, 9), (45, 20), (18, 3)])
def test_criterion_6_trial_sampler_vs_grid(case, x_control, x_treat):
    design = StudyDesign(StudyKind.EFFECTIVENESS_RCT, 200)
    ds = Dataset(design=design, control_events=x_control, treated_events=x_treat)
    # The estimators' own path: draws of g = log OR from the gridded marginal.
    g = np.log(_engine_draws(case, ds, 10_000, child_seed(SEED, "c6-trial"))("odds_ratio"))
    # Each block comes back sorted, so batch means need the draws shuffled.
    g = np.random.default_rng(child_seed(SEED, "c6-order")).permutation(g)
    # The engine draws no P_C; its joint posterior pairs each g with l | g.
    p_control = _control_rate_given_g(ds, g, case.priors)
    grid_p_control, grid_g = _grid_posterior_means(ds, case.priors)
    for name, draws, target in (("P_C", p_control, grid_p_control),
                                ("log OR", g, grid_g)):
        se = _batch_se(draws)
        _check(f"criterion 6 trial ({x_control},{x_treat}) {name}",
               abs(draws.mean() - target) <= 3.0 * se,
               f"draws {draws.mean():.5f} vs grid {target:.5f} (3se={3 * se:.5f})")


# -- criterion 7: structural properties ---------------------------------------

def test_criterion_7_market_shares_dense_grid(market_fn):
    p = np.linspace(0.0, 1.0, 10_001)
    total = market_share(market_fn, p).sum(axis=-1)
    _check("criterion 7 market shares", bool(np.allclose(total, 1.0, atol=1e-12)),
           "shares sum to 1 across a 10,001-point probability grid")


def test_criterion_7_logistic_range_and_monotonicity():
    rng = np.random.default_rng(77)
    mu = np.linspace(-2.0, 2.0, 40)
    z = (mu - mu.mean()) / mu.std(ddof=1)
    probs = (1.0 + np.exp(-1.2 * z)) ** -0.7 + rng.normal(0.0, 0.01, 40)
    fit = fit_generalized_logistic(mu, np.clip(probs, 0.0, 1.0))
    grid = np.asarray(fit.predict(np.linspace(-1e7, 1e7, 4001)))
    ok = bool(np.all(grid > 0.0) and np.all(grid <= 1.0)
              and np.all(np.diff(grid) >= -1e-12))
    _check("criterion 7 logistic curve", ok,
           "predictions stay in (0, 1] and never decrease")


def test_criterion_7_variance_targets_bounded(psa10k, full_run):
    _, mm_results = full_run
    prior_var = psa10k.nb.var(axis=0, ddof=1)
    ok = all(
        bool(np.all(r.variance_target >= 0.0)
             and np.all(r.variance_target <= prior_var))
        for r in mm_results.values()
    )
    _check("criterion 7 variance targets", ok,
           "every study's target lies within [0, prior variance]")


def test_criterion_7_rescale_precision():
    rng = np.random.default_rng(78)
    g = rng.normal(2.0e6, 3.0e4, (5000, 2))
    target = np.array([1.0e8, 4.0e8])
    out = rescale(g, target)
    ok = bool(np.allclose(out.mean(axis=0), g.mean(axis=0), rtol=1e-9)
              and np.allclose(out.var(axis=0, ddof=1), target, rtol=1e-9))
    _check("criterion 7 rescaling", ok,
           "means preserved and variances hit to relative 1e-9")


def test_criterion_7_zero_information_study(priors, fixed):
    design = StudyDesign(StudyKind.SIDE_EFFECTS, 0)
    summaries = nmc_summaries(design, priors, fixed, 300, 400,
                              child_seed(SEED, "c7-zero"))
    est = assemble_evsi(summaries.inb)
    _check("criterion 7 zero-information study",
           abs(est.value) <= 3.0 * est.std_error + 1e-6,
           f"evsi={est.value:.3g} within 3se={3 * est.std_error:.3g} of zero")


def test_criterion_7_full_run_determinism(case):
    config = case.override(psa_samples=2000, outer_datasets=30,
                           posterior_draws=250, quantile_sets=8, seed=9)
    table_a, _, _ = run_config(config)
    table_b, _, _ = run_config(config)
    same = all(
        (ra.study, ra.method, ra.evsi, ra.evsi_im, ra.std_error)
        == (rb.study, rb.method, rb.evsi, rb.evsi_im, rb.std_error)
        for ra, rb in zip(table_a.rows, table_b.rows)
    )
    _check("criterion 7 determinism",
           same and len(table_a.rows) == 6,
           "repeated runs agree exactly on every estimate")


# -- criterion 8: sample-size extrapolation ----------------------------------

def test_criterion_8_variance_decay_recovery():
    rng = np.random.default_rng(79)
    prior_var = 4.0e8
    floor, half_life = 1.2e8, 40.0
    sizes = np.linspace(5.0, 400.0, 30)
    y = floor + (prior_var - floor) * half_life / (sizes + half_life)
    fit = fit_variance_curve(y * (1.0 + rng.normal(0.0, 0.01, 30)), sizes, prior_var)
    ok = (abs(fit.floor - floor) <= 0.10 * floor
          and abs(fit.half_life - half_life) <= 0.10 * half_life)
    _check("criterion 8 variance decay", ok,
           f"floor {fit.floor:.3g} vs {floor:.3g}, "
           f"half-life {fit.half_life:.1f} vs {half_life:.1f} (10%)")


def test_criterion_8_size_power_recovery():
    rng = np.random.default_rng(80)
    mu = np.tile(np.linspace(-2.0, 2.0, 12), 5)
    sizes = np.repeat([10.0, 25.0, 60.0, 120.0, 250.0], 12)
    z = (mu - mu.mean()) / mu.std(ddof=1)
    truth = (1.0 + np.exp(-0.4 * sizes**0.5 * z)) ** -1.0
    probs = np.clip(truth + rng.normal(0.0, 0.01, mu.size), 0.0, 1.0)
    fit = fit_generalized_logistic(mu, probs, sizes)
    _check("criterion 8 size exponent",
           abs(fit.size_power - 0.5) <= 0.15,
           f"u={fit.size_power:.3f} vs 0.5 within 0.15")


def test_criterion_8_scan_consistent_with_single_size(psa10k, full_run, priors, fixed,
                                                       market_fn, current_shares):
    rows, mm_results = full_run
    scan = mm_by_n_pipeline(psa10k, priors, fixed,
                            StudyDesign(StudyKind.SIDE_EFFECTS, 60),
                            market_fn, current_shares, 50, 10_000,
                            [10, 60, 200], child_seed(SEED, "mm-by-n", 1),
                            cond=mm_results[1].cond)
    at_design = scan.estimates[list(scan.sizes).index(60)]
    single = mm_results[1].evsi_im
    combined = math.hypot(at_design.std_error, single.std_error)
    _check("criterion 8 scan consistency",
           abs(at_design.value - single.value) <= 3.0 * combined,
           f"scan {at_design.value:,.1f} vs single {single.value:,.1f} "
           f"diff {abs(at_design.value - single.value):,.1f} <= {3 * combined:,.1f}")
