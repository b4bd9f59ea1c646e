"""Moment-matching estimator: quantile sweeps, rescaling, and pipelines."""

import contextlib
import dataclasses
import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

import voi.cli as cli
import voi.moment_matching as moment_matching
from voi.cli import run_config
from voi.moment_matching import (
    fit_conditional_expectation,
    mm_by_n_pipeline,
    mm_pipeline,
    posterior_variances,
    quantile_datasets,
    quantile_grid,
    rescale,
    variance_reduction_target,
)
import voi.nmc as nmc
from voi.nmc import posterior_summaries
from voi.rng import child_seed
from voi.smoothing import fit_pspline
import voi.studies as studies
from voi.studies import StudyDesign, StudyKind, study_posterior

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
        a = quantile_datasets(quantile_grid(psa, 10), SIDE_EFFECTS, 31)
        b = quantile_datasets(quantile_grid(psa, 10), SIDE_EFFECTS, 31)
        assert a == b

    def test_sweep_spans_the_side_effect_range(self, psa):
        # Low quantiles of the side-effect risk should tend to produce fewer
        # events than high quantiles; compare the two halves of the sweep.
        datasets = quantile_datasets(quantile_grid(psa, 40), SIDE_EFFECTS, 32)
        events = np.array([d.events for d in datasets], dtype=float)
        assert events[:20].mean() < events[20:].mean()

    def test_sizes_override(self, psa):
        sizes = [10, 20, 40, 80, 160, 320]
        datasets = quantile_datasets(quantile_grid(psa, 6), SIDE_EFFECTS, 33, sizes=sizes)
        assert [d.design.n for d in datasets] == sizes
        assert all(d.events <= d.design.n for d in datasets)

    def test_sizes_length_checked(self, psa):
        with pytest.raises(ValueError):
            quantile_datasets(quantile_grid(psa, 6), SIDE_EFFECTS, 33, sizes=[10, 20])


def _side_effect_fit(psa):
    return fit_conditional_expectation(psa, "p_side_effect", 1)


class TestVarianceTarget:
    def test_no_information_gives_zero(self, psa):
        cond = _side_effect_fit(psa)
        target = variance_reduction_target(cond, np.full(12, cond.var(ddof=1)))
        assert target == pytest.approx(0.0, abs=1e-6)

    def test_perfect_information_gives_prior_variance(self, psa):
        cond = _side_effect_fit(psa)
        assert variance_reduction_target(cond, np.zeros(12)) == cond.var(ddof=1)

    def test_noisy_estimates_stay_clipped(self, psa):
        cond = _side_effect_fit(psa)
        assert variance_reduction_target(cond, np.full(12, 1.5 * cond.var(ddof=1))) == 0.0

    def test_real_study_sits_strictly_between(self, psa, priors):
        cond = _side_effect_fit(psa)
        posterior = study_posterior(quantile_datasets(quantile_grid(psa, 12), SIDE_EFFECTS, 34),
                                    priors)
        target = variance_reduction_target(cond, posterior_variances(psa, cond, posterior))
        assert 0.0 < target < cond.var(ddof=1)

    def test_one_variance_per_dataset(self, psa, priors):
        # At size 0 every posterior is the prior, so each dataset's posterior
        # variance of g is the prior one, which the PSA's sample variance
        # estimates, and the target is 0.
        cond = _side_effect_fit(psa)
        design = StudyDesign(StudyKind.SIDE_EFFECTS, 0)
        posterior = study_posterior(quantile_datasets(quantile_grid(psa, 7), design, 35),
                                    priors)
        variances = posterior_variances(psa, cond, posterior)
        assert variances.shape == (7,)
        assert np.all(variances == variances[0])
        assert variances[0] == pytest.approx(cond.var(ddof=1), rel=0.05)
        assert variance_reduction_target(cond, variances) <= 0.05 * cond.var(ddof=1)


class TestRescale:
    def test_identity_at_own_variance(self):
        rng = np.random.default_rng(35)
        g = rng.normal(100.0, 5.0, (200, 2))
        out = rescale(g, g.var(axis=0, ddof=1))
        np.testing.assert_allclose(out, g, rtol=1e-12)

    def test_zero_target_collapses_to_mean(self):
        rng = np.random.default_rng(36)
        g = rng.normal(100.0, 5.0, (200, 2))
        out = rescale(g, np.zeros(2))
        np.testing.assert_allclose(out, np.tile(g.mean(axis=0), (200, 1)))

    def test_constant_column_stays_at_mean(self):
        g = np.column_stack([np.full(50, 7.0), np.linspace(0.0, 1.0, 50)])
        out = rescale(g, np.array([4.0, 1.0]))
        np.testing.assert_allclose(out[:, 0], 7.0)

    def test_equals_the_per_column_loop(self):
        # The elementwise form does the loop's arithmetic: math.sqrt and
        # np.sqrt are both correctly rounded, so every value is bit for bit.
        rng = np.random.default_rng(34)
        g = np.column_stack([rng.normal(2.0e6, 3.0e4, 300), np.full(300, 7.0),
                             rng.normal(-5.0, 0.1, 300)])
        target = np.array([1.0e8, 4.0, 0.0])
        means, variances = g.mean(axis=0), g.var(axis=0, ddof=1)
        expected = np.empty_like(g)
        for d in range(3):
            factor = math.sqrt(target[d] / variances[d]) if variances[d] > 0.0 else 0.0
            expected[:, d] = means[d] + (g[:, d] - means[d]) * factor
        assert np.array_equal(rescale(g, target), expected)

    def test_negative_target_rejected(self):
        g = np.random.default_rng(37).normal(0.0, 1.0, (50, 2))
        with pytest.raises(ValueError):
            rescale(g, np.array([-1.0, 1.0]))

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=4, max_size=60),
           st.floats(0.0, 1e13))
    def test_moments_hit_exactly(self, values, target):
        g = np.array(values)[:, None]
        assume(g.var(ddof=1) > 1e-12)
        out = rescale(g, np.array([target]))
        np.testing.assert_allclose(out.mean(), g.mean(), rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(out.var(ddof=1), target, rtol=1e-9, atol=1e-9)


class TestConditionalExpectation:
    def test_smooths_toward_the_informed_parameter(self, psa):
        fit = _side_effect_fit(psa)
        assert fit.shape == (len(psa),)
        # The novel treatment's INB falls as side-effect risk rises.
        rho = stats.spearmanr(np.asarray(psa.draws.p_side_effect), fit).statistic
        assert rho < -0.99

    def test_conditional_variance_below_total(self, psa):
        inb = psa.nb[:, 1] - psa.nb[:, 0]
        for field in ("p_side_effect", "qol_after_event", "odds_ratio"):
            fit = fit_conditional_expectation(psa, field, 1)
            assert fit.var(ddof=1) <= inb.var(ddof=1) * (1.0 + 1e-9)

    def test_either_target_gives_the_same_fit_up_to_sign(self, psa):
        np.testing.assert_allclose(fit_conditional_expectation(psa, "odds_ratio", 0),
                                   -fit_conditional_expectation(psa, "odds_ratio", 1),
                                   rtol=1e-12, atol=1e-6)

    def test_trial_regresses_on_the_odds_ratio(self, psa, priors, fixed, market_fn,
                                               current_shares, monkeypatch):
        features = []

        def recording(x, y):
            features.append(x)
            return fit_pspline(x, y)

        monkeypatch.setattr(moment_matching, "fit_pspline", recording)
        mm_pipeline(psa, priors, fixed, TRIAL, market_fn, current_shares,
                    n_sets=8, n_inner=200, seed=39)
        assert len(features) == 1
        assert np.array_equal(features[0], psa.draws.odds_ratio)

    def test_standard_arm_ignores_side_effects(self, psa, fixed):
        # The standard of care's net benefit does not depend on side-effect
        # risk, so the INB's spread along that parameter is the novel arm's
        # side-effect term alone: B^2 Var(p_side_effect).
        loss = fixed.wtp * fixed.side_effect_qol_loss + fixed.side_effect_cost
        expected = loss**2 * np.asarray(psa.draws.p_side_effect).var(ddof=1)
        assert _side_effect_fit(psa).var(ddof=1) == pytest.approx(expected, rel=0.01)


@pytest.fixture(scope="module")
def result(psa, priors, fixed, market_fn, current_shares):
    return mm_pipeline(psa, priors, fixed, SIDE_EFFECTS, market_fn,
                       current_shares, n_sets=16, n_inner=2000, seed=38,
                       scan=([10, 30, 60, 120, 240], 40))


@pytest.fixture(scope="module")
def scan(psa, market_fn, current_shares, result):
    return mm_by_n_pipeline(psa, market_fn, current_shares, result)


class TestPipeline:
    def test_shapes(self, psa, result):
        assert result.cond.shape == result.inb.shape == (len(psa),)
        assert result.p_target.shape == (len(psa),)
        assert result.summaries.inb.shape == result.summaries.p.shape == (16,)

    def test_probabilities_valid(self, result):
        assert np.all(result.p_target > 0.0)
        assert np.all(result.p_target <= 1.0)

    def test_rescaled_variance_hits_target(self, result):
        assert result.inb.var(ddof=1) == pytest.approx(result.variance_target, rel=1e-9)

    def test_target_within_prior_variance(self, result):
        assert 0.0 < result.variance_target < result.cond.var(ddof=1)

    def test_rescaled_means_match_prior_means(self, psa, result):
        assert result.inb.mean() == pytest.approx((psa.nb[:, 1] - psa.nb[:, 0]).mean(),
                                                  rel=1e-9)

    def test_probability_map_interpolates_the_calibration_pairs(self, result):
        inb, p = result.summaries.toward(1)
        np.testing.assert_array_equal(result.probability_map(inb), p)
        lo, hi = np.argmin(inb), np.argmax(inb)
        assert result.probability_map(inb[lo] - 1e6) == p[lo]
        assert result.probability_map(inb[hi] + 1e6) == p[hi]
        np.testing.assert_array_equal(result.p_target, result.probability_map(result.inb))

    def test_evsi_nonnegative(self, result):
        assert result.evsi.value >= -1e-9
        assert result.evsi_im.value >= -3.0 * result.evsi_im.std_error

    def test_deterministic(self, psa, priors, fixed, market_fn, current_shares, result):
        again = mm_pipeline(psa, priors, fixed, SIDE_EFFECTS, market_fn,
                            current_shares, n_sets=16, n_inner=2000, seed=38)
        assert again.evsi_im.value == result.evsi_im.value
        np.testing.assert_array_equal(again.inb, result.inb)

    def test_trial_pipeline_runs(self, psa, priors, fixed, market_fn, current_shares):
        result = mm_pipeline(psa, priors, fixed, TRIAL, market_fn,
                             current_shares, n_sets=12, n_inner=800, seed=39)
        assert np.isfinite(result.evsi_im.value)


class TestNestedSummaries:
    def test_parallel_matches_serial(self, psa, priors, fixed, cores, monkeypatch):
        # Chunks spread over threads give every summary bit for bit as a
        # plain loop over the same per-chunk streams.
        monkeypatch.setattr(nmc, "CHUNK_SIZE", 4)
        sizes = list(range(10, 110, 10))
        datasets = quantile_datasets(quantile_grid(psa, 10), SIDE_EFFECTS,
                                     child_seed(5, "mm-data"), sizes)
        expected = [posterior_summaries(study_posterior(datasets[start:start + 4], priors),
                                        priors, fixed, 150,
                                        child_seed(child_seed(5, "mm-post"), "post-chunk", start),
                                        shared_fill=False)
                    for start in range(0, 10, 4)]
        [calibration] = moment_matching._calibrate(psa, priors, fixed, SIDE_EFFECTS, 10, 150,
                                                  [(5, sizes)])
        for field in ("inb", "p"):
            assert np.array_equal(getattr(calibration.summaries, field),
                                  np.concatenate([getattr(s, field) for s in expected]))

    def test_each_calibration_grids_a_statistic_once(self, psa, priors, fixed, market_fn,
                                                      current_shares, cores, monkeypatch):
        # The quadrature's posterior and the engine's chunk posteriors share
        # one grid memo: each pass builds one trial row per distinct statistic.
        monkeypatch.setattr(nmc, "CHUNK_SIZE", 5)
        passes = []
        real_datasets = moment_matching.quantile_datasets
        real_rows = studies._grid_rows

        def recording_datasets(*args, **kwargs):
            datasets = real_datasets(*args, **kwargs)
            passes.append(([(d.control_events, d.treated_events, d.design.n) for d in datasets],
                           []))
            return datasets

        def recording_rows(x1, x2, n, prior):
            passes[-1][1].extend(zip(x1.tolist(), x2.tolist(), n.tolist()))
            return real_rows(x1, x2, n, prior)

        monkeypatch.setattr(moment_matching, "quantile_datasets", recording_datasets)
        monkeypatch.setattr(studies, "_grid_rows", recording_rows)
        result = mm_pipeline(psa, priors, fixed, TRIAL, market_fn, current_shares,
                             n_sets=12, n_inner=200, seed=45, scan=((10, 60, 200), 45))
        mm_by_n_pipeline(psa, market_fn, current_shares, result)
        assert len(passes) == 2
        for statistics, gridded in passes:
            assert sorted(gridded) == sorted(set(statistics))


class TestByN:
    def test_grid_echoed(self, scan):
        assert scan.sizes == (10, 30, 60, 120, 240)
        assert len(scan.estimates) == 5

    def test_one_variance_curve_from_var_g(self, psa, scan):
        assert scan.variance_curve.prior_variance == _side_effect_fit(psa).var(ddof=1)

    def test_logistic_is_size_indexed(self, scan):
        assert scan.logistic.size_power is not None

    def test_value_grows_with_study_size(self, scan):
        # Larger studies are worth at least as much, up to estimation noise.
        first, last = scan.estimates[0], scan.estimates[-1]
        combined = math.hypot(first.std_error, last.std_error)
        assert last.value >= first.value - 3.0 * combined

    def test_empty_grid(self, psa, priors, fixed, market_fn, current_shares):
        # run_config scans only a nonempty grid; an empty one is an error.
        with pytest.raises(ValueError):
            mm_pipeline(psa, priors, fixed, SIDE_EFFECTS, market_fn, current_shares,
                        n_sets=8, n_inner=500, seed=41, scan=([], 41))

    def test_bad_sizes_rejected(self, psa, priors, fixed, market_fn, current_shares):
        with pytest.raises(ValueError):
            mm_pipeline(psa, priors, fixed, SIDE_EFFECTS, market_fn, current_shares,
                        n_sets=8, n_inner=500, seed=42, scan=([0, 10], 42))

    def test_needs_a_result_made_with_a_scan(self, psa, market_fn, current_shares,
                                             result):
        alone = dataclasses.replace(result, scan=None)
        with pytest.raises(ValueError, match="without a scan"):
            mm_by_n_pipeline(psa, market_fn, current_shares, alone)

    def test_fits_at_the_simulated_sizes(self, psa, priors, fixed, market_fn,
                                         current_shares, monkeypatch):
        # The variance curve and the sized logistic are fitted at the sizes
        # the calibration datasets were simulated at.
        datasets, seen = [], []
        simulate = moment_matching.quantile_datasets

        def simulating(*args, **kwargs):
            result = simulate(*args, **kwargs)
            datasets.extend(result)
            return result

        def record_sizes(name, position):
            fit = getattr(moment_matching, name)

            def recording(*args, **kwargs):
                seen.append(np.asarray(args[position], dtype=float))
                return fit(*args, **kwargs)

            monkeypatch.setattr(moment_matching, name, recording)

        monkeypatch.setattr(moment_matching, "quantile_datasets", simulating)
        record_sizes("fit_variance_curve", 1)
        record_sizes("fit_generalized_logistic", 2)
        grid = [60, 15, 200]
        result = mm_pipeline(psa, priors, fixed, SIDE_EFFECTS, market_fn, current_shares,
                             n_sets=9, n_inner=300, seed=43, scan=(grid, 43))
        mm_by_n_pipeline(psa, market_fn, current_shares, result)
        expected = np.rint(np.linspace(min(grid), max(grid), 9))
        assert len(seen) == 2  # the variance curve and the logistic
        for sizes in seen:
            np.testing.assert_array_equal(sizes, expected)
            # The scan's datasets follow the single-size pass's in the sweep.
            np.testing.assert_array_equal(sizes, [d.design.n for d in datasets[9:]])


class TestSharedRegression:
    def test_scan_reuses_the_single_size_regression(self, case, monkeypatch):
        # mm_pipeline and the by-n scan of a study regress the same PSA INB
        # on the same parameter, so run_config fits it once per study.
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return fit_pspline(*args, **kwargs)

        monkeypatch.setattr(moment_matching, "fit_pspline", counting)
        config = case.override(method="mm", psa_samples=2000, posterior_draws=1000,
                               quantile_sets=8, n_grid=[20, 100], seed=6)
        table, mm_results, scans = run_config(config)
        assert len(calls) == len(config.studies)
        assert sorted(scans) == sorted(mm_results) == [1, 2, 3]
        assert [r.method for r in table.rows] == ["mm"] * 3


class TestOnePassPerStudy:
    """run_config runs a study's single-size and by-n calibrations in one
    engine map, and gets what each calibration gives when run alone."""

    def test_matches_the_standalone_pipelines(self, case, cores, monkeypatch):
        config = case.override(method="mm", psa_samples=2000, posterior_draws=500,
                               quantile_sets=8, n_grid=[20, 60, 100], seed=9)
        maps = []
        real = nmc._map_in_order

        def counting(fn, items):
            maps.append(len(items))
            return real(fn, items)

        monkeypatch.setattr(nmc, "_map_in_order", counting)
        table, mm_results, scans = run_config(config)
        # One map per study, holding one chunk of each calibration.
        assert maps == [2] * len(config.studies)
        psa = cli._psa(config)
        args = (config.priors, config.fixed)
        sizes = np.rint(np.linspace(20, 100, config.quantile_sets)).astype(int).tolist()
        for (k, design), row in zip(enumerate(config.studies, start=1), table.rows):
            alone = mm_pipeline(psa, *args, design, config.market, config.current_shares,
                                config.quantile_sets, config.posterior_draws,
                                child_seed(config.seed, "mm", k))
            [calibration] = moment_matching._calibrate(
                psa, *args, design, config.quantile_sets, config.posterior_draws,
                [(child_seed(config.seed, "mm-by-n", k), sizes)])
            scan = mm_by_n_pipeline(psa, config.market, config.current_shares,
                                    dataclasses.replace(alone, scan=(config.n_grid, calibration)))
            got = mm_results[k]
            assert (row.evsi, row.evsi_im, row.std_error) == (
                alone.evsi.value, alone.evsi_im.value, alone.evsi_im.std_error)
            for name in ("inb", "p_target", "cond"):
                np.testing.assert_array_equal(getattr(got, name), getattr(alone, name))
            for name in ("inb", "p"):
                np.testing.assert_array_equal(getattr(got.summaries, name),
                                              getattr(alone.summaries, name))
                np.testing.assert_array_equal(getattr(scans[k].summaries, name),
                                              getattr(scan.summaries, name))
            assert scans[k].estimates == scan.estimates


def test_largest_sizes_run_cleanly(case, tmp_path):
    # At n = 2**53 every posterior is a point for the quadrature; the run
    # must still exit 0 with finite values and no floating-point warning.
    out = tmp_path / "out"
    config = case.override(method="mm", psa_samples=2000, posterior_draws=300,
                           quantile_sets=8, seed=5, out_dir=str(out), n_grid=[10, 2**53],
                           studies=[StudyDesign(StudyKind.SIDE_EFFECTS, 2**53),
                                    StudyDesign(StudyKind.EFFECTIVENESS_RCT, 2**53)])
    path = tmp_path / "huge.json"
    path.write_text(config.to_json())
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(["run", "--config", str(path)]) == 0
    for name in ("results.csv", "by_n_study1.csv", "by_n_study2.csv"):
        rows = [line.split(",") for line in (out / name).read_text().splitlines()[2:]]
        values = [float(cell) for row in rows for cell in row if cell not in ("mm",)]
        assert len(rows) == 2 and np.all(np.isfinite(values)), name
