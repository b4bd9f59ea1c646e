"""Moment-matching estimator: quantile sweeps, rescaling, and pipelines."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

import voi.moment_matching as moment_matching
from voi.cli import run_config
from voi.config import default_config
from voi.model import DEFAULT_NB_FUNCTIONS
from voi.moment_matching import (
    ConditionalExpectationFit,
    fit_conditional_expectation,
    mm_by_n_pipeline,
    mm_pipeline,
    quantile_datasets,
    quantile_grid,
    rescale,
    variance_reduction_target,
)
from voi.smoothing import fit_pspline
from voi.studies import StudyDesign, StudyKind

SIDE_EFFECTS = StudyDesign(StudyKind.SIDE_EFFECTS, 60)
TRIAL = StudyDesign(StudyKind.EFFECTIVENESS_RCT, 200)


class TestQuantileGrid:
    def test_matches_marginal_quantiles(self, psa):
        grid = quantile_grid(psa, 8)
        probs = (np.arange(1, 9) - 0.5) / 8.0
        np.testing.assert_allclose(
            np.asarray(grid.p_side_effect),
            np.quantile(np.asarray(psa.draws.p_side_effect), probs))
        np.testing.assert_allclose(
            np.asarray(grid.odds_ratio),
            np.quantile(np.asarray(psa.draws.odds_ratio), probs))

    def test_single_point_is_the_median(self, psa):
        grid = quantile_grid(psa, 1)
        assert np.asarray(grid.p_event) == pytest.approx(
            np.median(np.asarray(psa.draws.p_event)))

    def test_grid_is_sorted(self, psa):
        grid = quantile_grid(psa, 16)
        for name in ("p_event", "odds_ratio", "p_side_effect", "qol_after_event"):
            assert np.all(np.diff(np.asarray(getattr(grid, name))) >= 0.0)

    def test_treated_probability_consistent(self, psa):
        from voi.model import derive_pt

        grid = quantile_grid(psa, 16)
        np.testing.assert_allclose(
            np.asarray(grid.p_event_treated),
            derive_pt(np.asarray(grid.p_event), np.asarray(grid.odds_ratio)))

    def test_needs_a_point(self, psa):
        with pytest.raises(ValueError):
            quantile_grid(psa, 0)


class TestQuantileDatasets:
    def test_deterministic(self, psa):
        a = quantile_datasets(psa, SIDE_EFFECTS, 10, 31)
        b = quantile_datasets(psa, SIDE_EFFECTS, 10, 31)
        assert a == b

    def test_sweep_spans_the_side_effect_range(self, psa):
        # Low quantiles of the side-effect risk should tend to produce fewer
        # events than high quantiles; compare the two halves of the sweep.
        datasets = quantile_datasets(psa, SIDE_EFFECTS, 40, 32)
        events = np.array([d.events for d in datasets], dtype=float)
        assert events[:20].mean() < events[20:].mean()

    def test_sizes_override(self, psa):
        sizes = [10, 20, 40, 80, 160, 320]
        datasets = quantile_datasets(psa, SIDE_EFFECTS, 6, 33, sizes=sizes)
        assert [d.design.n for d in datasets] == sizes
        assert all(d.events <= d.design.n for d in datasets)

    def test_sizes_length_checked(self, psa):
        with pytest.raises(ValueError):
            quantile_datasets(psa, SIDE_EFFECTS, 6, 33, sizes=[10, 20])


class TestVarianceTarget:
    def test_no_information_gives_zero(self, psa):
        prior_var = psa.nb.var(axis=0, ddof=1)
        target = variance_reduction_target(psa, np.tile(prior_var, (12, 1)))
        np.testing.assert_allclose(target, 0.0, atol=1e-6)

    def test_perfect_information_gives_prior_variance(self, psa):
        target = variance_reduction_target(psa, np.zeros((12, 2)))
        np.testing.assert_allclose(target, psa.nb.var(axis=0, ddof=1))

    def test_noisy_estimates_stay_clipped(self, psa):
        prior_var = psa.nb.var(axis=0, ddof=1)
        target = variance_reduction_target(psa, np.tile(prior_var * 1.5, (12, 1)))
        np.testing.assert_allclose(target, 0.0)

    def test_real_study_sits_strictly_between(self, psa, priors, fixed):
        from voi.moment_matching import nested_summaries

        datasets = quantile_datasets(psa, SIDE_EFFECTS, 12, 34)
        summaries = nested_summaries(datasets, priors, fixed, 2000, 34)
        target = variance_reduction_target(
            psa, np.stack([s.nb_var for s in summaries]))
        prior_var = psa.nb.var(axis=0, ddof=1)
        # The side-effect study moves the novel arm but not the standard one.
        assert 0.0 < target[1] < prior_var[1]

    def test_shape_checked(self, psa):
        with pytest.raises(ValueError):
            variance_reduction_target(psa, np.zeros((12, 3)))


def _fit(values: np.ndarray) -> ConditionalExpectationFit:
    values = np.asarray(values, dtype=float)
    return ConditionalExpectationFit(
        fitted=values, residual_var=np.zeros(values.shape[1]),
        features=("p_side_effect",))


class TestRescale:
    def test_identity_at_own_variance(self):
        rng = np.random.default_rng(35)
        g = rng.normal(100.0, 5.0, (200, 2))
        out = rescale(_fit(g), g.var(axis=0, ddof=1))
        np.testing.assert_allclose(out, g, rtol=1e-12)

    def test_zero_target_collapses_to_mean(self):
        rng = np.random.default_rng(36)
        g = rng.normal(100.0, 5.0, (200, 2))
        out = rescale(_fit(g), np.zeros(2))
        np.testing.assert_allclose(out, np.tile(g.mean(axis=0), (200, 1)))

    def test_constant_column_stays_at_mean(self):
        g = np.column_stack([np.full(50, 7.0), np.linspace(0.0, 1.0, 50)])
        out = rescale(_fit(g), np.array([4.0, 1.0]))
        np.testing.assert_allclose(out[:, 0], 7.0)

    def test_negative_target_rejected(self):
        g = np.random.default_rng(37).normal(0.0, 1.0, (50, 2))
        with pytest.raises(ValueError):
            rescale(_fit(g), np.array([-1.0, 1.0]))

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=4, max_size=60),
           st.floats(0.0, 1e13))
    def test_moments_hit_exactly(self, values, target):
        g = np.array(values)[:, None]
        assume(g.var(ddof=1) > 1e-12)
        out = rescale(_fit(g), np.array([target]))
        np.testing.assert_allclose(out.mean(), g.mean(), rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(out.var(ddof=1), target, rtol=1e-9, atol=1e-9)


class TestConditionalExpectation:
    def test_smooths_toward_the_informed_parameter(self, psa):
        fit = fit_conditional_expectation(psa, SIDE_EFFECTS)
        assert fit.features == ("p_side_effect",)
        # The novel arm's conditional mean falls as side-effect risk rises.
        rho = stats.spearmanr(np.asarray(psa.draws.p_side_effect),
                              fit.fitted[:, 1]).statistic
        assert rho < -0.99

    def test_conditional_variance_below_total(self, psa):
        for design in (SIDE_EFFECTS, TRIAL,
                       StudyDesign(StudyKind.QUALITY_OF_LIFE, 100)):
            fit = fit_conditional_expectation(psa, design)
            assert np.all(fit.fitted.var(axis=0, ddof=1)
                          <= psa.nb.var(axis=0, ddof=1) * (1.0 + 1e-9))

    def test_trial_uses_both_arm_probabilities(self, psa):
        fit = fit_conditional_expectation(psa, TRIAL)
        assert fit.features == ("p_event", "p_event_treated")

    def test_standard_arm_ignores_side_effects(self, psa):
        # NB of the standard of care does not depend on side-effect risk, so
        # its conditional expectation on that parameter is essentially flat.
        fit = fit_conditional_expectation(psa, SIDE_EFFECTS)
        assert fit.fitted[:, 0].std(ddof=1) < 0.01 * psa.nb[:, 0].std(ddof=1)


@pytest.fixture(scope="module")
def result(psa, priors, fixed, market_fn, current_shares):
    return mm_pipeline(psa, priors, fixed, SIDE_EFFECTS, market_fn,
                       current_shares, n_sets=16, n_inner=2000, seed=38)


@pytest.fixture(scope="module")
def scan(psa, priors, fixed, market_fn, current_shares):
    return mm_by_n_pipeline(psa, priors, fixed, SIDE_EFFECTS, market_fn,
                            current_shares, n_sets=16, n_inner=2000,
                            n_grid=[10, 30, 60, 120, 240], seed=40)


class TestPipeline:
    def test_shapes(self, psa, result):
        assert result.rescaled_mu.shape == (len(psa), 2)
        assert result.inb.shape == (len(psa),)
        assert result.p_target.shape == (len(psa),)
        assert len(result.summaries) == 16

    def test_probabilities_valid(self, result):
        assert np.all(result.p_target > 0.0)
        assert np.all(result.p_target <= 1.0)

    def test_rescaled_variance_hits_target(self, result):
        np.testing.assert_allclose(result.rescaled_mu.var(axis=0, ddof=1),
                                   result.variance_target, rtol=1e-9)

    def test_target_within_prior_variance(self, psa, result):
        prior_var = psa.nb.var(axis=0, ddof=1)
        assert np.all(result.variance_target >= 0.0)
        assert np.all(result.variance_target <= prior_var)

    def test_rescaled_means_match_prior_means(self, psa, result):
        np.testing.assert_allclose(result.rescaled_mu.mean(axis=0),
                                   psa.nb.mean(axis=0), rtol=1e-9)

    def test_evsi_nonnegative(self, result):
        assert result.evsi.value >= -1e-9
        assert result.evsi_im.value >= -3.0 * result.evsi_im.std_error

    def test_deterministic(self, psa, priors, fixed, market_fn, current_shares, result):
        again = mm_pipeline(psa, priors, fixed, SIDE_EFFECTS, market_fn,
                            current_shares, n_sets=16, n_inner=2000, seed=38)
        assert again.evsi_im.value == result.evsi_im.value
        np.testing.assert_array_equal(again.rescaled_mu, result.rescaled_mu)

    def test_trial_pipeline_runs(self, psa, priors, fixed, market_fn, current_shares):
        result = mm_pipeline(psa, priors, fixed, TRIAL, market_fn,
                             current_shares, n_sets=12, n_inner=800, seed=39)
        assert np.isfinite(result.evsi_im.value)
        assert all(s.acceptance_rate is not None for s in result.summaries)


class TestByN:
    def test_grid_echoed(self, scan):
        assert scan.sizes == (10, 30, 60, 120, 240)
        assert len(scan.estimates) == 5

    def test_curves_per_treatment(self, psa, scan):
        assert len(scan.variance_curves) == 2
        prior_var = psa.nb.var(axis=0, ddof=1)
        for curve, v in zip(scan.variance_curves, prior_var):
            assert curve.prior_variance == pytest.approx(v)

    def test_logistic_is_size_indexed(self, scan):
        assert scan.logistic.size_power is not None

    def test_value_grows_with_study_size(self, scan):
        # Larger studies are worth at least as much, up to estimation noise.
        first, last = scan.estimates[0], scan.estimates[-1]
        combined = math.hypot(first.std_error, last.std_error)
        assert last.value >= first.value - 3.0 * combined

    def test_empty_grid(self, psa, priors, fixed, market_fn, current_shares):
        scan = mm_by_n_pipeline(psa, priors, fixed, SIDE_EFFECTS, market_fn,
                                current_shares, n_sets=8, n_inner=500,
                                n_grid=[], seed=41)
        assert scan.sizes == ()
        assert scan.estimates == ()

    def test_bad_sizes_rejected(self, psa, priors, fixed, market_fn, current_shares):
        with pytest.raises(ValueError):
            mm_by_n_pipeline(psa, priors, fixed, SIDE_EFFECTS, market_fn,
                             current_shares, n_sets=8, n_inner=500,
                             n_grid=[0, 10], seed=42)


class TestSharedRegression:
    def test_scan_reuses_the_single_size_regression(self, monkeypatch):
        # mm_pipeline and the by-n scan of a study regress the same PSA on the
        # same features, so run_config fits it once per treatment per study.
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return fit_pspline(*args, **kwargs)

        monkeypatch.setattr(moment_matching, "fit_pspline", counting)
        config = default_config(method="mm", psa_samples=2000, posterior_draws=1000,
                                quantile_sets=8, n_grid=[20, 100], seed=6)
        table, mm_results, scans = run_config(config)
        n_treat = len(DEFAULT_NB_FUNCTIONS)
        assert len(calls) == n_treat * len(config.studies)
        assert sorted(scans) == sorted(mm_results) == [1, 2, 3]
        assert [r.method for r in table.rows] == ["mm"] * 3

    def test_handed_fit_gives_the_same_scan(self, psa, priors, fixed, market_fn,
                                           current_shares):
        own = mm_by_n_pipeline(psa, priors, fixed, SIDE_EFFECTS, market_fn, current_shares,
                               8, 1500, [20, 100], 43)
        handed = mm_by_n_pipeline(psa, priors, fixed, SIDE_EFFECTS, market_fn,
                                  current_shares, 8, 1500, [20, 100], 43,
                                  cond=fit_conditional_expectation(psa, SIDE_EFFECTS))
        assert own.estimates == handed.estimates
