"""Nested Monte Carlo estimators for study value, with and without adoption."""

import math
import threading
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats
from scipy.special import logit

import voi.nmc as nmc
from voi.market import CurrentShares, StepShare, ThresholdLinearShare
from voi.model import NormalPrior, expected_nb, evpi
from voi.nmc import (
    PosteriorSummary,
    _map_in_order,
    _win_counts,
    nmc_evsi,
    nmc_evsi_im,
    nmc_summaries,
    posterior_summaries,
)
from voi.model import DEFAULT_NB_FUNCTIONS
from voi.rng import child_seed, substream
from voi.studies import (
    Dataset,
    StudyDesign,
    StudyKind,
    quality_posterior_moments,
    simulate_dataset,
)


@pytest.fixture(scope="module")
def small_summaries(priors, fixed):
    design = StudyDesign(StudyKind.SIDE_EFFECTS, 60)
    return nmc_summaries(design, priors, fixed, 400, 800, 21)


@pytest.fixture(scope="module")
def engine_reduction(priors, fixed):
    """The engine's reduction of a given R x D net-benefit matrix.

    Each treatment's function hands the engine its column, whatever the
    draws, for one dataset whose R draws fit in one block.
    """
    def reduce(nb: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        assert nb.shape[0] <= nmc.BLOCK_ELEMENTS
        fns = tuple(lambda draw, fixed, col=col: col[:, None] for col in np.asarray(nb, float).T)
        ds = Dataset(design=StudyDesign(StudyKind.SIDE_EFFECTS, 60), n_effective=60, events=15)
        (s,) = posterior_summaries([ds], priors, fixed, nb.shape[0], 0, fns)
        return s.mu, s.p, s.nb_var
    return reduce


class TestSummarize:
    def test_unanimous_posterior(self, engine_reduction):
        nb = np.array([[1.0, 2.0], [0.0, 5.0], [2.0, 3.0]])
        mu, p, var = engine_reduction(nb)
        np.testing.assert_allclose(mu, [1.0, 10.0 / 3.0])
        np.testing.assert_allclose(p, [0.0, 1.0])
        np.testing.assert_allclose(var, nb.var(axis=0, ddof=1))

    @pytest.mark.parametrize("n_treat", [2, 3])
    def test_matches_argmax_reduction_with_ties(self, engine_reduction, n_treat):
        # Values on a coarse grid tie often; every tie goes to the lowest
        # index, as np.argmax breaks them.
        rng = np.random.default_rng(3)
        nb = rng.integers(0, 3, (5000, n_treat)).astype(float)
        nb[:50] = 1.0  # rows tied across every treatment
        mu, p, var = engine_reduction(nb)
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
        summaries = posterior_summaries(datasets, priors, fixed, n_draws, 31, nb_fns)
        nb = np.stack([np.concatenate(blocks) for blocks in recorded], axis=-1)
        assert nb.shape == (n_draws, len(datasets), 2)
        winners = np.argmax(nb, axis=-1)
        for j, s in enumerate(summaries):
            np.testing.assert_allclose(s.mu, nb[:, j].mean(axis=0), rtol=1e-9)
            np.testing.assert_allclose(s.nb_var, nb[:, j].var(axis=0, ddof=1), rtol=1e-9)
            share = np.bincount(winners[:, j], minlength=2) / n_draws
            np.testing.assert_allclose(s.p, share, rtol=1e-9)


# Trials at the edges of the data space: (control events, treated events, n).
EXTREME_TRIALS = [(0, 0, 200), (200, 200, 200), (0, 200, 200), (200, 0, 200),
                  (0, 0, 0), (1, 0, 1)]


class TestRctEngineRobustness:
    @pytest.mark.parametrize("xc,xt,n", EXTREME_TRIALS)
    def test_extreme_trial_gives_finite_summary(self, priors, fixed, xc, xt, n):
        ds = Dataset(design=StudyDesign(StudyKind.EFFECTIVENESS_RCT, n), n_effective=n,
                     control_events=xc, treated_events=xt)
        (s,) = posterior_summaries([ds], priors, fixed, 2000, 41)
        assert np.all(np.isfinite(s.mu)) and np.all(np.isfinite(s.nb_var))
        assert np.all(s.nb_var > 0.0)
        assert np.all((s.p >= 0.0) & (s.p <= 1.0)) and s.p.sum() == pytest.approx(1.0)

    def test_extreme_trials_in_one_batch(self, priors, fixed):
        datasets = [Dataset(design=StudyDesign(StudyKind.EFFECTIVENESS_RCT, n),
                            n_effective=n, control_events=xc, treated_events=xt)
                    for xc, xt, n in EXTREME_TRIALS]
        summaries = posterior_summaries(datasets, priors, fixed, 2000, 42)
        assert all(np.all(np.isfinite(s.mu)) and np.all(np.isfinite(s.nb_var))
                   for s in summaries)

    def test_zero_information_trial_sits_at_prior(self, priors, fixed, psa):
        design = StudyDesign(StudyKind.EFFECTIVENESS_RCT, 0)
        summaries = nmc_summaries(design, priors, fixed, 200, 400, 23)
        mu = np.stack([s.mu for s in summaries])
        prior_mu = expected_nb(psa)
        for d in range(2):
            se = math.sqrt(mu[:, d].var(ddof=1) / mu.shape[0]
                           + psa.nb[:, d].var(ddof=1) / len(psa))
            assert abs(mu[:, d].mean() - prior_mu[d]) <= 3.0 * se


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
                             nb_var=np.zeros(2))
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


def assert_same_summaries(got, expected):
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert np.array_equal(g.mu, e.mu)
        assert np.array_equal(g.p, e.p)
        assert np.array_equal(g.nb_var, e.nb_var)


class TestMapInOrder:
    def test_results_keep_their_order(self, cores):
        main = threading.get_ident()
        threads = set()

        def square(x):
            threads.add(threading.get_ident())
            return x * x

        assert _map_in_order(square, range(40)) == [x * x for x in range(40)]
        # One core runs inline; more run on pool threads, never the caller's.
        assert (threads == {main}) == (cores == 1)

    def test_single_item_runs_inline(self, cores):
        assert _map_in_order(lambda _: threading.get_ident(), [0]) == [threading.get_ident()]

    def test_first_error_propagates(self, cores):
        def fail_on_odd(x):
            if x % 2:
                raise ValueError(f"item {x}")
            return x

        with pytest.raises(ValueError, match="item 1"):
            _map_in_order(fail_on_odd, range(10))


def _chunk_by_chunk(design, priors, fixed, n_outer, n_inner, seed, chunk):
    """The nested summaries as a plain loop over the chunks' own streams."""
    draws = priors.sample(substream(seed, "outer"), n_outer)
    datasets = [simulate_dataset(design, draws.item(s), child_seed(seed, "data", s))
                for s in range(n_outer)]
    expected = []
    for start in range(0, n_outer, chunk):
        expected += posterior_summaries(datasets[start:start + chunk], priors, fixed, n_inner,
                                        child_seed(seed, "post-chunk", start))
    return expected


class TestParallelMatchesSerial:
    """Spreading chunks over threads leaves every summary bit for bit as a plain loop."""

    @pytest.mark.parametrize("kind", [StudyKind.SIDE_EFFECTS, StudyKind.QUALITY_OF_LIFE])
    def test_conjugate(self, priors, fixed, cores, kind, monkeypatch):
        monkeypatch.setattr(nmc, "CHUNK_SIZE", 5)
        design, seed = StudyDesign(kind, 60), 26
        expected = _chunk_by_chunk(design, priors, fixed, 12, 150, seed, 5)
        assert_same_summaries(nmc_summaries(design, priors, fixed, 12, 150, seed), expected)

    def test_trial_over_several_chunks(self, priors, fixed, cores, monkeypatch):
        monkeypatch.setattr(nmc, "CHUNK_SIZE", 3)
        design, seed = StudyDesign(StudyKind.EFFECTIVENESS_RCT, 200), 27
        expected = _chunk_by_chunk(design, priors, fixed, 8, 150, seed, 3)
        assert_same_summaries(nmc_summaries(design, priors, fixed, 8, 150, seed), expected)


def _repeating_trials(m: int) -> list[Dataset]:
    """Trial datasets whose statistics repeat, as they do across an outer loop."""
    design = StudyDesign(StudyKind.EFFECTIVENESS_RCT, 200)
    return [Dataset(design=design, n_effective=200, control_events=25 + j % 3,
                    treated_events=5 + j % 2) for j in range(m)]


class TestGridMemo:
    """The trial's grid memo saves work and changes no summary."""

    def test_memo_backed_summaries_match_memo_free(self, priors, fixed):
        datasets = _repeating_trials(9)
        memo = {}
        posterior_summaries(datasets[:2], priors, fixed, 150, 30, grid_memo=memo)
        assert len(memo) == 2
        got = posterior_summaries(datasets, priors, fixed, 150, 31, grid_memo=memo)
        assert len(memo) == 6
        assert_same_summaries(got, posterior_summaries(datasets, priors, fixed, 150, 31))

    def test_memo_stays_within_one_call(self, priors, fixed, cores, monkeypatch):
        # Two calls on the same statistics under different priors: a memo
        # that outlived its call would hand the second the first's grids.
        monkeypatch.setattr(nmc, "CHUNK_SIZE", 3)
        datasets = _repeating_trials(8)
        vague = replace(priors, log_odds_ratio=NormalPrior(0.0, 4.0))
        results = []
        for prior in (priors, vague, priors):
            got = nmc.chunked_summaries(len(datasets), lambda idx: [datasets[j] for j in idx],
                                        prior, fixed, 150, 32)
            expected = []
            for start in range(0, len(datasets), 3):
                expected += posterior_summaries(datasets[start:start + 3], prior, fixed, 150,
                                                child_seed(32, "post-chunk", start))
            assert_same_summaries(got, expected)
            results.append(got)
        assert not np.array_equal(results[0][0].mu, results[1][0].mu)
        assert_same_summaries(results[2], results[0])


class TestDrawsStayWithTheirDataset:
    """One chunk mixes datasets far apart; each summary matches its own posterior.

    The one net-benefit function returns the informed parameter (for the
    survey, on the logit scale), so each summary's mean and variance are
    that dataset's posterior moments.
    """

    def test_side_effect_extremes(self, priors, fixed):
        design = StudyDesign(StudyKind.SIDE_EFFECTS, 60)
        events = [0, 60, 0, 30, 60, 0]
        datasets = [Dataset(design=design, n_effective=60, events=x) for x in events]
        got = posterior_summaries(datasets, priors, fixed, 4000, 51,
                                  nb_fns=(lambda draw, _: draw.p_side_effect,))
        for x, s in zip(events, got):
            ref = stats.beta(3 + x, 9 + 60 - x)
            assert abs(s.mu[0] - ref.mean()) <= 4.0 * ref.std() / math.sqrt(4000), x
            assert s.nb_var[0] == pytest.approx(ref.var(), rel=0.1), x

    def test_quality_far_apart_totals(self, priors, fixed):
        cases = [(100, -300.0), (100, 300.0), (0, 0.0), (100, -300.0), (5, 40.0)]
        datasets = [Dataset(design=StudyDesign(StudyKind.QUALITY_OF_LIFE, n), n_effective=n,
                            logit_total=total) for n, total in cases]
        got = posterior_summaries(datasets, priors, fixed, 4000, 52,
                                  nb_fns=(lambda draw, _: logit(draw.qol_after_event),))
        for (n, total), s in zip(cases, got):
            mean, var = quality_posterior_moments(n, total, priors)
            assert abs(s.mu[0] - mean) <= 4.0 * math.sqrt(var / 4000), (n, total)
            assert s.nb_var[0] == pytest.approx(var, rel=0.1), (n, total)


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
        value, terms = assemble_evsi_im(mu, p[:, market_fn.target], market_fn, current_shares)
        assert est.value == value
        assert est.std_error == terms.std(ddof=1) / math.sqrt(len(terms))

    def test_threshold_never_reached_is_worthless(self, small_summaries):
        fn = ThresholdLinearShare(threshold=0.999999, saturation_at=1.0, target=1)
        est = nmc_evsi_im(small_summaries, fn, CurrentShares((1.0, 0.0)))
        assert est.value == pytest.approx(0.0, abs=1e-6)

    def test_empty_summaries_rejected(self):
        with pytest.raises(ValueError):
            nmc_evsi([])
