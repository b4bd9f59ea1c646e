"""Nested Monte Carlo estimators for study value, with and without adoption."""

import math

import numpy as np
import pytest

from voi.market import CurrentShares, StepShare, ThresholdLinearShare
from voi.model import expected_nb, evpi
from voi.nmc import (
    PosteriorSummary,
    _win_counts,
    nmc_evsi,
    nmc_evsi_im,
    nmc_summaries,
    rct_nb_summaries,
    summarize_nb_matrix,
)
from voi.model import DEFAULT_NB_FUNCTIONS
from voi.studies import Dataset, StudyDesign, StudyKind


@pytest.fixture(scope="module")
def small_summaries(priors, fixed):
    design = StudyDesign(StudyKind.SIDE_EFFECTS, 60)
    return nmc_summaries(design, priors, fixed, 400, 800, 21)


class TestSummarize:
    def test_unanimous_posterior(self):
        nb = np.array([[1.0, 2.0], [0.0, 5.0], [2.0, 3.0]])
        mu, p, var = summarize_nb_matrix(nb)
        np.testing.assert_allclose(mu, [1.0, 10.0 / 3.0])
        np.testing.assert_allclose(p, [0.0, 1.0])
        np.testing.assert_allclose(var, nb.var(axis=0, ddof=1))

    @pytest.mark.parametrize("n_treat", [2, 3])
    def test_matches_argmax_reduction_with_ties(self, n_treat):
        # Values on a coarse grid tie often; every tie goes to the lowest
        # index, as np.argmax breaks them.
        rng = np.random.default_rng(3)
        nb = rng.integers(0, 3, (5000, n_treat)).astype(float)
        nb[:50] = 1.0  # rows tied across every treatment
        mu, p, var = summarize_nb_matrix(nb)
        wins = np.bincount(np.argmax(nb, axis=1), minlength=n_treat) / nb.shape[0]
        np.testing.assert_array_equal(p, wins)
        np.testing.assert_allclose(mu, nb.mean(axis=0), rtol=1e-12)
        np.testing.assert_allclose(var, nb.var(axis=0, ddof=1), rtol=1e-12)

    def test_win_counts_over_a_block(self):
        # Treatments on axis 0, draws on axis 1, datasets after: the shape
        # the trial summaries count wins in.
        rng = np.random.default_rng(4)
        nb = rng.integers(0, 4, (3, 200, 7)).astype(float)
        expected = (np.argmax(nb, axis=0)[None] == np.arange(3)[:, None, None]).sum(axis=1)
        np.testing.assert_array_equal(_win_counts(nb), expected)

    def test_summary_invariants(self, small_summaries):
        for s in small_summaries:
            assert s.p.shape == (2,)
            assert s.p.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(np.isfinite(s.mu))


class TestRctStreaming:
    def test_streamed_summaries_match_direct_reduction(self, priors, fixed):
        # Record every block of net benefits the streaming summary evaluates,
        # then reduce the recorded values directly.
        recorded = [[] for _ in DEFAULT_NB_FUNCTIONS]

        def recording(d, fn):
            def wrapped(draw, fixed_params):
                nb = fn(draw, fixed_params)
                recorded[d].append(np.array(nb))
                return nb
            return wrapped

        nb_fns = tuple(recording(d, fn) for d, fn in enumerate(DEFAULT_NB_FUNCTIONS))
        design = StudyDesign(StudyKind.EFFECTIVENESS_RCT, 200)
        datasets = [Dataset(design=design, n_effective=200, control_events=20 + 3 * j,
                            treated_events=4 + j) for j in range(6)]
        n_draws = 1234
        summaries = rct_nb_summaries(datasets, priors, fixed, n_draws, 31, nb_fns)
        nb = np.stack([np.concatenate(blocks) for blocks in recorded], axis=-1)
        assert nb.shape == (n_draws, len(datasets), 2)
        winners = np.argmax(nb, axis=-1)
        for j, s in enumerate(summaries):
            np.testing.assert_allclose(s.mu, nb[:, j].mean(axis=0), rtol=1e-9)
            np.testing.assert_allclose(s.nb_var, nb[:, j].var(axis=0, ddof=1), rtol=1e-9)
            share = np.bincount(winners[:, j], minlength=2) / n_draws
            np.testing.assert_allclose(s.p, share, rtol=1e-9)
            assert s.n_draws == n_draws and s.dataset_index == j


class TestNmcEvsi:
    def test_zero_information_design(self, priors, fixed):
        design = StudyDesign(StudyKind.SIDE_EFFECTS, 0)
        summaries = nmc_summaries(design, priors, fixed, 300, 400, 22)
        est = nmc_evsi(summaries)
        # The absolute floor absorbs summation-order roundoff at money scale.
        assert est.value == pytest.approx(0.0, abs=3.0 * est.std_error + 1e-6)

    def test_zero_information_posteriors_sit_at_prior(self, priors, fixed, psa):
        design = StudyDesign(StudyKind.QUALITY_OF_LIFE, 0)
        summaries = nmc_summaries(design, priors, fixed, 200, 400, 23)
        mu = np.stack([s.mu for s in summaries])
        prior_mu = expected_nb(psa)
        for d in range(2):
            se = math.sqrt(mu[:, d].var(ddof=1) / mu.shape[0]
                           + psa.nb[:, d].var(ddof=1) / len(psa))
            assert abs(mu[:, d].mean() - prior_mu[d]) <= 3.0 * se

    def test_posterior_means_average_to_prior_means(self, small_summaries, psa):
        # The average posterior mean of the incremental benefit must come back
        # to its prior mean: datasets only redistribute expectation.
        inb_post = np.array([s.mu[1] - s.mu[0] for s in small_summaries])
        inb_prior = psa.nb[:, 1] - psa.nb[:, 0]
        se = math.sqrt(inb_post.var(ddof=1) / inb_post.size
                       + inb_prior.var(ddof=1) / len(psa))
        assert abs(inb_post.mean() - inb_prior.mean()) <= 3.0 * se

    def test_nonnegative_up_to_noise(self, small_summaries):
        est = nmc_evsi(small_summaries)
        assert est.value >= -3.0 * est.std_error

    def test_collapsed_posterior_recovers_perfect_information(self, psa):
        # A posterior that lands exactly on the prior draw is the R -> inf
        # perfect-signal limit, so the estimator must give the full value of
        # eliminating uncertainty.
        summaries = [
            PosteriorSummary(mu=psa.nb[s], p=np.eye(2)[int(np.argmax(psa.nb[s]))],
                             nb_var=np.zeros(2), n_effective=1, dataset_index=s,
                             n_draws=1)
            for s in range(len(psa))
        ]
        assert nmc_evsi(summaries).value == pytest.approx(evpi(psa), rel=1e-12)

    def test_determinism(self, priors, fixed):
        design = StudyDesign(StudyKind.SIDE_EFFECTS, 60)
        a = nmc_summaries(design, priors, fixed, 50, 200, 24)
        b = nmc_summaries(design, priors, fixed, 50, 200, 24)
        np.testing.assert_array_equal(np.stack([s.mu for s in a]),
                                      np.stack([s.mu for s in b]))

    def test_rct_determinism(self, priors, fixed):
        design = StudyDesign(StudyKind.EFFECTIVENESS_RCT, 200)
        a = nmc_summaries(design, priors, fixed, 24, 200, 25)
        b = nmc_summaries(design, priors, fixed, 24, 200, 25)
        np.testing.assert_array_equal(np.stack([s.mu for s in a]),
                                      np.stack([s.mu for s in b]))
        assert all(s.acceptance_rate is not None for s in a)


class TestNmcEvsiIm:
    def test_step_market_reproduces_plain_evsi(self, small_summaries):
        # A market that jumps entirely to the apparent best treatment, from a
        # baseline holding the currently best one, values information exactly
        # like the unadjusted estimator; the two must agree to the last bit.
        grand = np.stack([s.mu for s in small_summaries]).mean(axis=0)
        incumbent = CurrentShares((1.0, 0.0)) if grand[0] >= grand[1] \
            else CurrentShares((0.0, 1.0))
        plain = nmc_evsi(small_summaries)
        adjusted = nmc_evsi_im(small_summaries, StepShare(), incumbent)
        assert adjusted.value == plain.value

    def test_matches_direct_assembly(self, small_summaries, market_fn, current_shares):
        from voi.market import assemble_evsi_im

        est = nmc_evsi_im(small_summaries, market_fn, current_shares)
        mu = np.stack([s.mu for s in small_summaries])
        p = np.stack([s.p for s in small_summaries])
        assert est.value == assemble_evsi_im(mu, p[:, market_fn.target],
                                             market_fn, current_shares)

    def test_threshold_never_reached_is_worthless(self, small_summaries):
        fn = ThresholdLinearShare(threshold=0.999999, saturation_at=1.0, target=1)
        est = nmc_evsi_im(small_summaries, fn, CurrentShares((1.0, 0.0)))
        assert est.value == pytest.approx(0.0, abs=1e-6)

    def test_empty_summaries_rejected(self):
        with pytest.raises(ValueError):
            nmc_evsi([])
