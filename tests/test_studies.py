"""Data simulation and posterior sampling for the three candidate studies."""

import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import logit

import voi.studies as studies
from voi.model import ParameterDraw, expit
from voi.nmc import posterior_summaries
from voi.rng import substream
from voi.studies import (
    Dataset,
    StudyDesign,
    StudyKind,
    quality_posterior,
    quality_posterior_moments,
    rct_marginal_grid,
    side_effect_posterior,
    simulate_dataset,
)

DRAW = ParameterDraw.from_primitives(
    p_event=0.15, odds_ratio=0.2636, p_side_effect=0.25, qol_after_event=0.6405)


def _ks_matches_prior(values: np.ndarray, cdf) -> bool:
    return stats.kstest(values, cdf).pvalue > 0.001


def engine_blocks(datasets, priors, fixed, n_draws: int, seed: int) -> list[ParameterDraw]:
    """Every block of draws the inner engine evaluates, in order."""
    seen = []

    def capture(draw, fixed):
        seen.append(draw)
        return np.zeros(np.shape(draw.p_event))

    posterior_summaries(studies.study_posterior(datasets, priors), priors, fixed, n_draws, seed,
                        nb_fns=(capture, lambda draw, _: np.zeros(np.shape(draw.p_event))),
                        shared_fill=False)
    return seen


def engine_draws(dataset, priors, fixed, n_draws: int, seed: int):
    """The engine's draws of each field for one dataset, as one vector per field."""
    blocks = engine_blocks([dataset], priors, fixed, n_draws, seed)
    return lambda field: np.concatenate([np.asarray(getattr(d, field))[:, 0] for d in blocks])


class TestSimulateDataset:
    def test_deterministic(self):
        design = StudyDesign(StudyKind.SIDE_EFFECTS, 60)
        a = simulate_dataset(design, DRAW, 5)
        b = simulate_dataset(design, DRAW, 5)
        assert a == b

    def test_side_effects_degenerate(self):
        draw = ParameterDraw(0.15, 0.3, 0.0, 0.64, 0.05)
        ds = simulate_dataset(StudyDesign(StudyKind.SIDE_EFFECTS, 60), draw, 1)
        assert ds.events == 0

    def test_side_effects_binomial_moments(self):
        design = StudyDesign(StudyKind.SIDE_EFFECTS, 60)
        xs = np.array([simulate_dataset(design, DRAW, s).events
                       for s in range(5000)], dtype=float)
        assert abs(xs.mean() - 15.0) <= 3.0 * math.sqrt(11.25 / 5000)
        assert xs.var(ddof=1) == pytest.approx(11.25, rel=0.1)

    def test_quality_sum_moments(self):
        design = StudyDesign(StudyKind.QUALITY_OF_LIFE, 100)
        totals = np.array([simulate_dataset(design, DRAW, s).logit_total
                           for s in range(3000)])
        center = 100.0 * logit(0.6405)
        var = 100.0 * 2.0
        assert abs(totals.mean() - center) <= 3.0 * math.sqrt(var / 3000)
        assert totals.var(ddof=1) == pytest.approx(var, rel=0.15)

    def test_trial_null_effect_balances_arms(self):
        draw = ParameterDraw.from_primitives(
            p_event=0.15, odds_ratio=1.0, p_side_effect=0.25, qol_after_event=0.64)
        design = StudyDesign(StudyKind.EFFECTIVENESS_RCT, 200)
        xc, xt = zip(*[(d.control_events, d.treated_events)
                       for d in (simulate_dataset(design, draw, s) for s in range(3000))])
        diff = np.array(xc, dtype=float) - np.array(xt, dtype=float)
        assert abs(diff.mean()) <= 3.0 * math.sqrt(2 * 200 * 0.15 * 0.85 / 3000)

    def test_zero_size_designs_carry_no_data(self):
        for kind in StudyKind:
            ds = simulate_dataset(StudyDesign(kind, 0), DRAW, 2)
            assert ds.design.n == 0

    def test_design_validation(self):
        with pytest.raises(ValueError):
            StudyDesign(StudyKind.SIDE_EFFECTS, -1)
        with pytest.raises(ValueError):
            StudyDesign(StudyKind.SIDE_EFFECTS, 1.5)
        with pytest.raises(ValueError):
            StudyDesign(StudyKind.SIDE_EFFECTS, True)


class TestSideEffectPosterior:
    design = StudyDesign(StudyKind.SIDE_EFFECTS, 60)

    def test_conjugate_update(self, priors, fixed):
        ds = Dataset(design=self.design, events=15)
        p = engine_draws(ds, priors, fixed, 10_000, 3)("p_side_effect")
        # Beta(3 + 15, 9 + 45): mean 0.25.
        ref = stats.beta(18, 54)
        assert abs(p.mean() - 0.25) <= 3.0 * ref.std() / math.sqrt(10_000)
        assert _ks_matches_prior(p, ref.cdf)

    def test_no_events_observed(self, priors, fixed):
        ds = Dataset(design=self.design, events=0)
        p = engine_draws(ds, priors, fixed, 10_000, 3)("p_side_effect")
        ref = stats.beta(3, 69)
        assert abs(p.mean() - 3.0 / 72.0) <= 3.0 * ref.std() / math.sqrt(10_000)

    def test_other_parameters_keep_their_priors(self, priors, fixed):
        ds = Dataset(design=self.design, events=15)
        pooled = engine_draws(ds, priors, fixed, 10_000, 3)
        assert len(pooled("p_event")) == 10_000
        assert _ks_matches_prior(pooled("p_event"), stats.beta(15, 85).cdf)
        assert _ks_matches_prior(np.log(pooled("odds_ratio")),
                                 stats.norm(-1.5, math.sqrt(1 / 3)).cdf)
        assert _ks_matches_prior(logit(pooled("qol_after_event")),
                                 stats.norm(0.6, math.sqrt(1 / 6)).cdf)

    def test_kind_mismatch(self, priors):
        ds = Dataset(design=StudyDesign(StudyKind.QUALITY_OF_LIFE, 100), logit_total=40.0)
        with pytest.raises(ValueError):
            side_effect_posterior([ds], priors)


class TestQualityPosterior:
    design = StudyDesign(StudyKind.QUALITY_OF_LIFE, 100)

    def test_moments_at_centered_data(self, priors):
        # Sample mean of logits equal to the prior mean: posterior stays at
        # 0.6 and the precision becomes 6 + 100/2 = 56.
        mean, var = quality_posterior_moments(100, 60.0, priors)
        assert mean == pytest.approx(0.6)
        assert var == pytest.approx(1.0 / 56.0)

    def test_draws_match_moments(self, priors, fixed):
        ds = Dataset(design=self.design, logit_total=60.0)
        z = logit(engine_draws(ds, priors, fixed, 10_000, 4)("qol_after_event"))
        assert abs(z.mean() - 0.6) <= 3.0 * math.sqrt(1.0 / 56.0 / 10_000)
        assert z.var(ddof=1) == pytest.approx(1.0 / 56.0, rel=0.08)

    def test_empty_survey_returns_prior(self, priors, fixed):
        ds = Dataset(design=StudyDesign(StudyKind.QUALITY_OF_LIFE, 0), logit_total=0.0)
        mean, var = quality_posterior_moments(ds.design.n, ds.logit_total, priors)
        assert (mean, var) == (0.6, pytest.approx(1.0 / 6.0))
        qol = engine_draws(ds, priors, fixed, 10_000, 4)("qol_after_event")
        assert _ks_matches_prior(logit(qol), stats.norm(0.6, math.sqrt(1 / 6)).cdf)

    def test_draws_are_rng_normal_mapped_through_expit(self, priors):
        # Per-dataset parameters on one (512, 32) block: the in-place draw
        # gives the numbers rng.normal(mean, sd, shape) gives.
        totals = np.linspace(-40.0, 140.0, 32)
        post = quality_posterior([Dataset(design=self.design, logit_total=t)
                                  for t in totals], priors)
        expected = expit(substream(3, "q").normal(post.mean, post.sd, (512, 32)))
        np.testing.assert_array_equal(post.draw(substream(3, "q"), 512), expected)

    def test_posterior_tighter_than_prior(self, priors):
        for n in (1, 10, 100, 1000):
            _, var = quality_posterior_moments(n, 0.6 * n, priors)
            assert var < 1.0 / 6.0

    def test_other_parameters_keep_their_priors(self, priors, fixed):
        ds = Dataset(design=self.design, logit_total=55.0)
        pooled = engine_draws(ds, priors, fixed, 10_000, 4)
        assert len(pooled("p_event")) == 10_000
        assert _ks_matches_prior(pooled("p_event"), stats.beta(15, 85).cdf)
        assert _ks_matches_prior(pooled("p_side_effect"), stats.beta(3, 9).cdf)

    def test_kind_mismatch(self, priors):
        ds = Dataset(design=StudyDesign(StudyKind.SIDE_EFFECTS, 60), events=15)
        with pytest.raises(ValueError):
            quality_posterior([ds], priors)


class TestEffectivenessPosterior:
    def test_untouched_parameters_keep_their_priors(self, priors, fixed):
        # Caveat (b): the trial updates only the odds ratio; the estimators
        # redraw the baseline rate and everything else from the prior.
        ds = Dataset(design=StudyDesign(StudyKind.EFFECTIVENESS_RCT, 200),
                     control_events=30, treated_events=9)
        pooled = engine_draws(ds, priors, fixed, 10_000, 13)
        assert len(pooled("p_event")) == 10_000
        assert _ks_matches_prior(pooled("p_event"), stats.beta(15, 85).cdf)
        assert _ks_matches_prior(pooled("p_side_effect"), stats.beta(3, 9).cdf)
        assert _ks_matches_prior(logit(pooled("qol_after_event")),
                                 stats.norm(0.6, math.sqrt(1 / 6)).cdf)


def _trial_datasets(m: int) -> list[Dataset]:
    design = StudyDesign(StudyKind.EFFECTIVENESS_RCT, 200)
    return [Dataset(design=design, control_events=25 + j % 11, treated_events=5 + j % 7)
            for j in range(m)]


class TestTrialLogDensity:
    def test_folded_log_density_matches_plain_formula(self, priors):
        rng = np.random.default_rng(4)
        l, g = rng.normal(-1.7, 2.0, 1000), rng.normal(-1.5, 2.0, 1000)
        x1, x2 = rng.integers(0, 201, (2, 1000)).astype(float)
        n = np.full(1000, 200.0)
        plain = studies._rct_log_post(l, g, x1, n, x2, n, priors)
        folded = studies._rct_log_density(x1, n, x2, n, priors)(np.stack([l, l + g]))
        np.testing.assert_allclose(folded, plain, rtol=1e-12)

    def test_softplus_matches_logaddexp(self):
        x = np.concatenate([np.linspace(-800.0, 800.0, 200_001),
                            [0.0, -0.0, 36.0, -36.0, 708.0, -708.0, 709.5, -709.5, 745.5]])
        reference = np.logaddexp(0.0, x)
        with np.errstate(all="raise"):
            ours = studies._softplus(x)
        normal = reference >= np.finfo(float).tiny
        np.testing.assert_array_max_ulp(ours[normal], reference[normal], maxulp=4)
        # Where logaddexp's answer is subnormal or zero, the floored exponent
        # gives the smallest normal double instead, to within rounding.
        np.testing.assert_allclose(ours[~normal], np.finfo(float).tiny, rtol=1e-12)


def _trial(xc: int, xt: int, n: int) -> Dataset:
    return Dataset(design=StudyDesign(StudyKind.EFFECTIVENESS_RCT, n),
                   control_events=xc, treated_events=xt)


def _wide_quadrature(ds: Dataset, priors) -> tuple[float, float]:
    """Posterior mean and variance of g on 1,601 x 1,601 nodes over a wide box.

    l in [-20, 12] and g in [-15, 15] hold every posterior below, the
    extreme ones included, with negligible mass on the box's edges.
    """
    l = np.linspace(-20.0, 12.0, 1601)
    g = np.linspace(-15.0, 15.0, 1601)
    n = float(ds.design.n)
    lp = studies._rct_log_post(l[:, None], g[None, :], float(ds.control_events), n,
                               float(ds.treated_events), n, priors)
    w = np.exp(lp - lp.max()).sum(axis=0)
    w /= w.sum()
    mean = float(w @ g)
    return mean, float(w @ (g - mean) ** 2)


class TestMarginalGrid:
    CASES = [(0, 0, 200), (200, 200, 200), (0, 200, 200), (200, 0, 200), (0, 0, 0),
             (1, 0, 1), (30, 9, 200), (45, 20, 200), (18, 3, 200), (5, 60, 200),
             (750, 150, 5000)]

    def test_draws_match_wide_quadrature(self, priors):
        datasets = [_trial(*case) for case in self.CASES]
        grid = rct_marginal_grid(datasets, priors)
        draws = grid.quantile(np.random.default_rng(7).random((len(datasets), 200_000)))
        for case, ds, g in zip(self.CASES, datasets, draws):
            mean, var = _wide_quadrature(ds, priors)
            assert abs(g.mean() - mean) <= 0.02 * math.sqrt(var), case
            assert g.var() == pytest.approx(var, rel=0.02), case

    def test_cdf_rows(self, priors):
        grid = rct_marginal_grid([_trial(*case) for case in self.CASES], priors)
        shape = (len(self.CASES), studies._G_NODES)
        assert grid.stacked_cdf.shape == grid.nodes.shape == shape
        cdf = grid.stacked_cdf - 2.0 * np.arange(shape[0])[:, None]
        assert np.all(cdf[:, 0] == 0.0) and np.all(cdf[:, -1] == 1.0)
        assert np.all(np.diff(cdf, axis=1) >= 0.0)
        assert np.all(np.diff(grid.nodes, axis=1) > 0.0)

    def test_draws_stay_with_their_dataset(self, priors):
        # Uniforms at both ends of [0, 1) map inside each row's own nodes.
        grid = rct_marginal_grid([_trial(*case) for case in self.CASES], priors)
        u = np.tile([0.0, 1e-300, 0.5, 1.0 - 2.0 ** -53], (len(self.CASES), 1))
        g = grid.quantile(u)
        assert np.all(g >= grid.nodes[:, :1]) and np.all(g <= grid.nodes[:, -1:])
        assert np.all(np.diff(g, axis=1) >= 0.0)

    def test_rows_do_not_depend_on_their_batch(self, priors):
        # A memo reuses a statistic's row whichever batch gridded it, so each
        # row, with the batched mode search and line search behind it, must
        # be bit for bit the row the statistic gets alone.  The batch holds
        # every case, some twice, shuffled, and ends in a one-row block.
        order = np.random.default_rng(8).permutation(2 * len(self.CASES) + 1) % len(self.CASES)
        cases = [self.CASES[i] for i in order]
        alone = {case: [row[0] for row in studies._grid_rows(*np.array([case], float).T, priors)]
                 for case in self.CASES}
        nodes, cdf = studies._grid_rows(*np.array(cases, float).T, priors)
        grid = rct_marginal_grid([_trial(*case) for case in cases], priors)
        for j, case in enumerate(cases):
            np.testing.assert_array_equal(nodes[j], alone[case][0], err_msg=str(case))
            np.testing.assert_array_equal(cdf[j], alone[case][1], err_msg=str(case))
            np.testing.assert_array_equal(grid.nodes[j], alone[case][0], err_msg=str(case))
            np.testing.assert_array_equal(grid.stacked_cdf[j], alone[case][1] + 2.0 * j,
                                          err_msg=str(case))

    def test_memo_reuses_rows_and_grids_only_new_statistics(self, priors, monkeypatch):
        memo = {}
        first = rct_marginal_grid([_trial(*case) for case in self.CASES[:4]], priors, memo)
        assert set(memo) == {tuple(map(float, case)) for case in self.CASES[:4]}
        gridded = []
        real = studies._grid_rows

        def recording(x1, x2, n, prior):
            gridded.extend(zip(x1.tolist(), x2.tolist(), n.tolist()))
            return real(x1, x2, n, prior)

        monkeypatch.setattr(studies, "_grid_rows", recording)
        cases = self.CASES[2:6] + self.CASES[5:6]
        again = rct_marginal_grid([_trial(*case) for case in cases], priors, memo)
        assert gridded == [tuple(map(float, case)) for case in self.CASES[4:6]]
        np.testing.assert_array_equal(again.nodes[:2], first.nodes[2:4])
        np.testing.assert_array_equal(
            again.stacked_cdf, rct_marginal_grid([_trial(*c) for c in cases], priors).stacked_cdf)

    @pytest.mark.parametrize("m,n_draws", [(1, 5), (3, 20_000), (600, 70)])
    def test_blocks_cover_n_draws_within_budget(self, priors, fixed, m, n_draws):
        # The engine draws each batch's odds ratios a (k, m) block at a time.
        blocks = [np.asarray(d.odds_ratio)
                  for d in engine_blocks(_trial_datasets(m), priors, fixed, n_draws, 5)]
        assert all(b.shape[1] == m and b.size <= max(m, studies.BLOCK_ELEMENTS)
                   for b in blocks)
        assert sum(len(b) for b in blocks) == n_draws
        again = engine_blocks(_trial_datasets(m), priors, fixed, n_draws, 5)
        np.testing.assert_array_equal(np.concatenate(blocks),
                                      np.concatenate([d.odds_ratio for d in again]))

    def test_kind_mismatch(self, priors):
        ds = Dataset(design=StudyDesign(StudyKind.SIDE_EFFECTS, 60), events=15)
        with pytest.raises(ValueError):
            rct_marginal_grid([ds], priors)
        with pytest.raises(ValueError):
            rct_marginal_grid([], priors)


class TestDispatch:
    def test_each_posterior_draws_its_informed_field(self, priors):
        informed = {StudyKind.SIDE_EFFECTS: "p_side_effect",
                    StudyKind.QUALITY_OF_LIFE: "qol_after_event",
                    StudyKind.EFFECTIVENESS_RCT: "odds_ratio"}
        for kind in StudyKind:
            ds = simulate_dataset(StudyDesign(kind, 20), DRAW, 3)
            post = studies.study_posterior([ds, ds], priors)
            assert post.field == informed[kind]
            assert post.draw(np.random.default_rng(0), 7).shape == (7, 2)


# One dataset per kind at size 0 and at its design size.
QUADRATURE_CASES = {
    "side_effects-0": Dataset(StudyDesign(StudyKind.SIDE_EFFECTS, 0), events=0),
    "side_effects-60": Dataset(StudyDesign(StudyKind.SIDE_EFFECTS, 60), events=15),
    "quality_of_life-0": Dataset(StudyDesign(StudyKind.QUALITY_OF_LIFE, 0), logit_total=0.0),
    "quality_of_life-100": Dataset(StudyDesign(StudyKind.QUALITY_OF_LIFE, 100),
                                   logit_total=55.0),
    "effectiveness_rct-0": Dataset(StudyDesign(StudyKind.EFFECTIVENESS_RCT, 0),
                                   control_events=0, treated_events=0),
    "effectiveness_rct-200": Dataset(StudyDesign(StudyKind.EFFECTIVENESS_RCT, 200),
                                     control_events=30, treated_events=9),
}


def _quadrature_moments(posterior, g):
    nodes, weights = posterior.quadrature()
    np.testing.assert_allclose(weights.sum(axis=1), 1.0, rtol=1e-12)
    values = g(nodes)
    mean = np.sum(weights * values, axis=1)
    return mean, np.sum(weights * (values - mean[:, None]) ** 2, axis=1)


class TestQuadrature:
    """Each posterior's quadrature gives the moments of its own draws."""

    @pytest.mark.parametrize("name", sorted(QUADRATURE_CASES))
    def test_smooth_moments_match_the_draws(self, priors, name):
        posterior = studies.study_posterior([QUADRATURE_CASES[name]], priors)
        g = lambda theta: np.sin(4.0 * theta) + theta**2  # noqa: E731
        values = g(posterior.draw(np.random.default_rng(14), 20_000)[:, 0])
        (mean,), (var,) = _quadrature_moments(posterior, g)
        centred = values - values.mean()
        mean_se = values.std(ddof=1) / math.sqrt(values.size)
        var_se = math.sqrt((np.mean(centred**4) - np.mean(centred**2) ** 2) / values.size)
        assert abs(mean - values.mean()) <= 4.0 * mean_se
        assert abs(var - values.var(ddof=1)) <= 4.0 * var_se

    @pytest.mark.parametrize("events,n", [(0, 0), (15, 60), (0, 60), (60, 60)])
    def test_beta_moments_are_closed_form(self, priors, events, n):
        ds = Dataset(StudyDesign(StudyKind.SIDE_EFFECTS, n), events=events)
        (mean,), (var,) = _quadrature_moments(side_effect_posterior([ds], priors),
                                              lambda p: p)
        ref = stats.beta(priors.p_side_effect.alpha + events,
                         priors.p_side_effect.beta + n - events)
        assert mean == pytest.approx(ref.mean(), rel=1e-6)
        assert var == pytest.approx(ref.var(), rel=1e-6)

    @pytest.mark.parametrize("n,total", [(0, 0.0), (100, 55.0), (100, -300.0)])
    def test_logit_normal_moments_are_closed_form(self, priors, n, total):
        ds = Dataset(StudyDesign(StudyKind.QUALITY_OF_LIFE, n), logit_total=total)
        (mean,), (var,) = _quadrature_moments(quality_posterior([ds], priors), logit)
        ref_mean, ref_var = quality_posterior_moments(n, total, priors)
        assert mean == pytest.approx(ref_mean, rel=1e-6)
        assert var == pytest.approx(ref_var, rel=1e-6)

    def test_rows_follow_their_datasets(self, priors):
        # The stacked CDF's row offsets round the weights in the last digit.
        datasets = list(QUADRATURE_CASES.values())[4:]
        together = _quadrature_moments(rct_marginal_grid(datasets, priors), np.log)
        for j, ds in enumerate(datasets):
            alone = _quadrature_moments(rct_marginal_grid([ds], priors), np.log)
            np.testing.assert_allclose([together[0][j], together[1][j]],
                                       [alone[0][0], alone[1][0]], rtol=1e-12)
