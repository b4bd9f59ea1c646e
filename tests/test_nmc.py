"""Nested Monte Carlo estimators for study value, with and without adoption."""

import math
import threading
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats
from scipy.special import logit

import voi.nmc as nmc
from voi.market import (
    CurrentShares,
    StepShare,
    ThresholdLinearShare,
    assemble_evsi,
    assemble_evsi_im,
)
from voi.model import NormalPrior, PriorSpec, evpi
from voi.nmc import (
    PosteriorSummaries,
    _map_in_order,
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
    study_posterior,
)

from test_model import TREE_NB_FUNCTIONS


@pytest.fixture(scope="module")
def small_summaries(priors, fixed):
    design = StudyDesign(StudyKind.SIDE_EFFECTS, 60)
    return nmc_summaries(design, priors, fixed, 400, 800, 21)


@pytest.fixture(scope="module")
def engine_reduction(priors, fixed):
    """The engine's reduction of a given R x 2 net-benefit matrix.

    Each treatment's function hands the engine its column, whatever the
    draws, for one dataset whose R draws fit in one block.
    """
    def reduce(nb: np.ndarray) -> tuple[float, float]:
        assert nb.shape[0] <= nmc.BLOCK_ELEMENTS
        fns = tuple(lambda draw, fixed, col=col: col[:, None] for col in np.asarray(nb, float).T)
        ds = Dataset(design=StudyDesign(StudyKind.SIDE_EFFECTS, 60), events=15)
        s = posterior_summaries(study_posterior([ds], priors), priors, fixed, nb.shape[0], 0, fns,
                                shared_fill=False)
        return s.inb[0], s.p[0]
    return reduce


def _concat(parts: list[PosteriorSummaries]) -> PosteriorSummaries:
    return PosteriorSummaries(*(np.concatenate([getattr(s, name) for s in parts])
                                for name in ("inb", "p")))


class TestSummarize:
    def test_unanimous_posterior(self, engine_reduction):
        nb = np.array([[1.0, 2.0], [0.0, 5.0], [2.0, 3.0]])
        inb, p = engine_reduction(nb)
        assert inb == pytest.approx(10.0 / 3.0 - 1.0)
        assert p == 1.0

    def test_matches_argmax_reduction_with_ties(self, engine_reduction):
        # Values on a coarse grid tie often; every tie goes to the standard
        # treatment, as np.argmax breaks them.
        rng = np.random.default_rng(3)
        nb = rng.integers(0, 3, (5000, 2)).astype(float)
        nb[:50] = 1.0  # rows tied across both treatments
        inb, p = engine_reduction(nb)
        assert p == np.count_nonzero(np.argmax(nb, axis=1) == 1) / nb.shape[0]
        mu = nb.mean(axis=0)
        assert inb == pytest.approx(mu[1] - mu[0], rel=1e-12)

    def test_summary_invariants(self, small_summaries):
        assert small_summaries.inb.shape == small_summaries.p.shape == (400,)
        assert np.all((small_summaries.p >= 0.0) & (small_summaries.p <= 1.0))
        assert np.all(np.isfinite(small_summaries.inb))

    def test_each_treatments_view_is_exact(self, small_summaries):
        inb, p = small_summaries.toward(1)
        assert inb is small_summaries.inb and p is small_summaries.p
        inb0, p0 = small_summaries.toward(0)
        np.testing.assert_array_equal(inb0, -small_summaries.inb)
        np.testing.assert_array_equal(p0 + small_summaries.p, 1.0)


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
        datasets = [Dataset(design=design, control_events=20 + 3 * j,
                            treated_events=4 + j) for j in range(6)]
        n_draws = 1234
        summaries = posterior_summaries(study_posterior(datasets, priors), priors, fixed, n_draws,
                                        31, nb_fns, shared_fill=False)
        nb = np.stack([np.concatenate(blocks) for blocks in recorded], axis=-1)
        assert nb.shape == (n_draws, len(datasets), 2)
        mu = nb.mean(axis=0)
        np.testing.assert_allclose(summaries.inb, mu[:, 1] - mu[:, 0], rtol=1e-9)
        np.testing.assert_array_equal(summaries.p, (np.argmax(nb, axis=-1) == 1).mean(axis=0))


# Trials at the edges of the data space: (control events, treated events, n).
EXTREME_TRIALS = [(0, 0, 200), (200, 200, 200), (0, 200, 200), (200, 0, 200),
                  (0, 0, 0), (1, 0, 1)]


def assert_inb_averages_to_prior(inb: np.ndarray, psa) -> None:
    """The mean posterior INB comes back to the prior mean INB, within 3 SE."""
    prior = psa.nb[:, 1] - psa.nb[:, 0]
    se = math.sqrt(inb.var(ddof=1) / inb.size + prior.var(ddof=1) / len(psa))
    assert abs(inb.mean() - prior.mean()) <= 3.0 * se


class TestRctEngineRobustness:
    @pytest.mark.parametrize("xc,xt,n", EXTREME_TRIALS)
    def test_extreme_trial_gives_finite_summary(self, priors, fixed, xc, xt, n):
        ds = Dataset(design=StudyDesign(StudyKind.EFFECTIVENESS_RCT, n),
                     control_events=xc, treated_events=xt)
        s = posterior_summaries(study_posterior([ds], priors), priors, fixed, 2000, 41,
                                shared_fill=False)
        assert np.all(np.isfinite(s.inb))
        assert np.all((s.p >= 0.0) & (s.p <= 1.0))

    def test_extreme_trials_in_one_batch(self, priors, fixed):
        datasets = [Dataset(design=StudyDesign(StudyKind.EFFECTIVENESS_RCT, n),
                            control_events=xc, treated_events=xt)
                    for xc, xt, n in EXTREME_TRIALS]
        summaries = posterior_summaries(study_posterior(datasets, priors), priors, fixed, 2000, 42,
                                        shared_fill=False)
        assert np.all(np.isfinite(summaries.inb))

    def test_zero_information_trial_sits_at_prior(self, priors, fixed, psa):
        design = StudyDesign(StudyKind.EFFECTIVENESS_RCT, 0)
        summaries = nmc_summaries(design, priors, fixed, 200, 400, 23)
        assert_inb_averages_to_prior(summaries.inb, psa)


class TestNmcEvsi:
    def test_zero_information_design(self, priors, fixed):
        design = StudyDesign(StudyKind.SIDE_EFFECTS, 0)
        summaries = nmc_summaries(design, priors, fixed, 300, 400, 22)
        est = assemble_evsi(summaries.inb)
        # The absolute floor absorbs summation-order roundoff at money scale.
        assert est.value == pytest.approx(0.0, abs=3.0 * est.std_error + 1e-6)

    def test_zero_information_posteriors_sit_at_prior(self, priors, fixed, psa):
        design = StudyDesign(StudyKind.QUALITY_OF_LIFE, 0)
        summaries = nmc_summaries(design, priors, fixed, 200, 400, 23)
        assert_inb_averages_to_prior(summaries.inb, psa)

    def test_posterior_means_average_to_prior_means(self, small_summaries, psa):
        # The average posterior mean of the incremental benefit must come back
        # to its prior mean: datasets only redistribute expectation.
        assert_inb_averages_to_prior(small_summaries.inb, psa)

    def test_nonnegative_up_to_noise(self, small_summaries):
        est = assemble_evsi(small_summaries.inb)
        assert est.value >= -3.0 * est.std_error

    def test_collapsed_posterior_recovers_perfect_information(self, psa):
        # A posterior that lands exactly on the prior draw is the R -> inf
        # perfect-signal limit, so the estimator must give the full value of
        # eliminating uncertainty.
        summaries = PosteriorSummaries(inb=psa.nb[:, 1] - psa.nb[:, 0],
                                       p=(psa.nb[:, 1] > psa.nb[:, 0]).astype(float))
        assert assemble_evsi(summaries.inb).value == pytest.approx(evpi(psa), rel=1e-12)

    def test_determinism(self, priors, fixed):
        design = StudyDesign(StudyKind.SIDE_EFFECTS, 60)
        a = nmc_summaries(design, priors, fixed, 50, 200, 24)
        b = nmc_summaries(design, priors, fixed, 50, 200, 24)
        assert_same_summaries(a, b)

    def test_rct_determinism(self, priors, fixed):
        design = StudyDesign(StudyKind.EFFECTIVENESS_RCT, 200)
        a = nmc_summaries(design, priors, fixed, 24, 200, 25)
        b = nmc_summaries(design, priors, fixed, 24, 200, 25)
        assert_same_summaries(a, b)


def assert_same_summaries(got, expected):
    assert np.array_equal(got.inb, expected.inb)
    assert np.array_equal(got.p, expected.p)


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
    """The nested summaries as a plain loop over the chunks' own streams,
    each chunk sharing one prior refill, as in ``nmc_summaries``."""
    draws = priors.sample(substream(seed, "outer"), n_outer)
    datasets = [simulate_dataset(design, draws.item(s), child_seed(seed, "data", s))
                for s in range(n_outer)]
    return _concat([posterior_summaries(study_posterior(datasets[start:start + chunk], priors),
                                        priors, fixed, n_inner,
                                        child_seed(seed, "post-chunk", start), shared_fill=True)
                    for start in range(0, n_outer, chunk)])


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


# Each study kind with the one parameter its posterior draws.
INFORMED = [(StudyKind.SIDE_EFFECTS, 60, "p_side_effect"),
            (StudyKind.QUALITY_OF_LIFE, 60, "qol_after_event"),
            (StudyKind.EFFECTIVENESS_RCT, 200, "odds_ratio")]
FIELDS = ("p_event", "odds_ratio", "p_side_effect", "qol_after_event")


class TestSharedFill:
    """The nested estimator's chunks share each inner row's prior refill;
    moment matching's datasets each keep their own."""

    @staticmethod
    def _datasets(priors, kind, n, m):
        draws = priors.sample(substream(60, "outer"), m)
        return [simulate_dataset(StudyDesign(kind, n), draws.item(s), child_seed(60, "data", s))
                for s in range(m)]

    @staticmethod
    def _recording(blocks):
        """Net-benefit functions that keep every block's parameters, as (k, m) arrays."""
        standard, novel = DEFAULT_NB_FUNCTIONS

        def recording(draw, fixed_params):
            values = np.broadcast_arrays(*(getattr(draw, f) for f in FIELDS))
            blocks.append(dict(zip(FIELDS, (np.array(v) for v in values))))
            return standard(draw, fixed_params)

        return recording, novel

    @pytest.mark.parametrize("kind,n", [(kind, n) for kind, n, _ in INFORMED])
    def test_one_dataset_is_the_same_under_either_fill(self, priors, fixed, kind, n):
        # Three blocks, the last one short.
        posterior = study_posterior(self._datasets(priors, kind, n, 1), priors)
        n_draws = 2 * nmc.BLOCK_ELEMENTS + 7
        assert_same_summaries(
            posterior_summaries(posterior, priors, fixed, n_draws, 61, shared_fill=True),
            posterior_summaries(posterior, priors, fixed, n_draws, 61, shared_fill=False))

    @pytest.mark.parametrize("kind,n,field", INFORMED)
    def test_chunk_datasets_share_the_uninformed_columns(self, priors, fixed, kind, n, field,
                                                         monkeypatch):
        monkeypatch.setattr(nmc, "CHUNK_SIZE", 3)
        blocks = []
        nmc_summaries(StudyDesign(kind, n), priors, fixed, 6, 150, 62,
                      nb_fns=self._recording(blocks))
        assert blocks
        for block in blocks:
            assert block[field].shape[1] == 3
            # Every dataset its own posterior draws, every row one refill.
            assert np.all(np.diff(np.sort(block[field], axis=1), axis=1) != 0.0)
            for name in set(FIELDS) - {field}:
                assert np.all(block[name] == block[name][:, :1]), name

    @pytest.mark.parametrize("kind,n,field", INFORMED)
    def test_moment_matching_datasets_keep_their_own_columns(self, priors, fixed, psa, kind, n,
                                                             field, monkeypatch):
        # Moment matching's one engine call, on five quantile datasets, with
        # net-benefit functions that record every block.
        import voi.moment_matching as moment_matching

        blocks = []
        real = moment_matching.chunked_summaries
        monkeypatch.setattr(moment_matching, "chunked_summaries", lambda *args, **kwargs: real(
            *args, nb_fns=self._recording(blocks), **kwargs))
        moment_matching._calibrate(psa, priors, fixed, StudyDesign(kind, n), 5, 150, 63)
        assert blocks
        for block in blocks:
            for name in FIELDS:
                assert block[name].shape[1] == 5
                assert np.all(np.diff(np.sort(block[name], axis=1), axis=1) != 0.0), name

    def test_nmc_refills_one_row_per_inner_draw_per_chunk(self, priors, fixed, monkeypatch):
        # Ten datasets in chunks of four, four and two draw 3 x 150 refill
        # rows of one column each, not 10 x 150 values.
        monkeypatch.setattr(nmc, "CHUNK_SIZE", 4)
        real = PriorSpec.sample
        refills = []

        def counting(self, rng, size, given=None):
            if given is not None:
                refills.append(size)
            return real(self, rng, size, given)

        monkeypatch.setattr(PriorSpec, "sample", counting)
        nmc_summaries(StudyDesign(StudyKind.SIDE_EFFECTS, 60), priors, fixed, 10, 150, 64)
        assert {cols for _, cols in refills} == {1}
        assert sum(rows for rows, _ in refills) == 3 * 150


def _repeating_trials(m: int) -> list[Dataset]:
    """Trial datasets whose statistics repeat, as they do across an outer loop."""
    design = StudyDesign(StudyKind.EFFECTIVENESS_RCT, 200)
    return [Dataset(design=design, control_events=25 + j % 3,
                    treated_events=5 + j % 2) for j in range(m)]


class TestGridMemo:
    """The trial's grid memo saves work and changes no summary."""

    def test_memo_backed_summaries_match_memo_free(self, priors, fixed):
        datasets = _repeating_trials(9)
        memo = {}
        study_posterior(datasets[:2], priors, memo)
        assert len(memo) == 2
        backed = study_posterior(datasets, priors, memo)
        assert len(memo) == 6
        assert_same_summaries(
            posterior_summaries(backed, priors, fixed, 150, 31, shared_fill=False),
            posterior_summaries(study_posterior(datasets, priors), priors, fixed, 150, 31,
                                shared_fill=False))

    def test_memo_stays_within_one_call(self, priors, fixed, cores, monkeypatch):
        # Two nested runs on the same statistics under different priors: a
        # memo that outlived its call would hand the second the first's grids.
        monkeypatch.setattr(nmc, "CHUNK_SIZE", 3)
        datasets = _repeating_trials(8)
        by_seed = {child_seed(32, "data", s): ds for s, ds in enumerate(datasets)}
        monkeypatch.setattr(nmc, "simulate_dataset", lambda design, draw, seed: by_seed[seed])
        vague = replace(priors, log_odds_ratio=NormalPrior(0.0, 4.0))
        results = []
        for prior in (priors, vague, priors):
            got = nmc_summaries(datasets[0].design, prior, fixed, len(datasets), 150, 32)
            expected = _concat([
                posterior_summaries(study_posterior(datasets[start:start + 3], prior), prior,
                                    fixed, 150, child_seed(32, "post-chunk", start),
                                    shared_fill=True)
                for start in range(0, len(datasets), 3)])
            assert_same_summaries(got, expected)
            results.append(got)
        assert results[0].inb[0] != results[1].inb[0]
        assert_same_summaries(results[2], results[0])


def _zero(draw, fixed):
    return np.zeros(np.shape(draw.p_event))


class TestDrawsStayWithTheirDataset:
    """One chunk mixes datasets far apart; each summary matches its own posterior.

    The novel treatment's net-benefit function returns the informed
    parameter (for the survey, on the logit scale), or its square, and the
    standard one's returns zero, so each summary's INB is that dataset's
    posterior first or second moment.
    """

    @staticmethod
    def _moments(datasets, priors, fixed, seed, value):
        posterior = study_posterior(datasets, priors)
        first, second = (posterior_summaries(posterior, priors, fixed, 4000, seed,
                                             nb_fns=(_zero, lambda draw, _: value(draw) ** k),
                                             shared_fill=False).inb
                         for k in (1, 2))
        return first, second - first**2

    def test_side_effect_extremes(self, priors, fixed):
        design = StudyDesign(StudyKind.SIDE_EFFECTS, 60)
        events = [0, 60, 0, 30, 60, 0]
        datasets = [Dataset(design=design, events=x) for x in events]
        means, variances = self._moments(datasets, priors, fixed, 51,
                                         lambda draw: draw.p_side_effect)
        for x, mean, var in zip(events, means, variances):
            ref = stats.beta(3 + x, 9 + 60 - x)
            assert abs(mean - ref.mean()) <= 4.0 * ref.std() / math.sqrt(4000), x
            assert var == pytest.approx(ref.var(), rel=0.1), x

    def test_quality_far_apart_totals(self, priors, fixed):
        cases = [(100, -300.0), (100, 300.0), (0, 0.0), (100, -300.0), (5, 40.0)]
        datasets = [Dataset(design=StudyDesign(StudyKind.QUALITY_OF_LIFE, n),
                            logit_total=total) for n, total in cases]
        means, variances = self._moments(datasets, priors, fixed, 52,
                                         lambda draw: logit(draw.qol_after_event))
        for (n, total), got_mean, got_var in zip(cases, means, variances):
            mean, var = quality_posterior_moments(n, total, priors)
            assert abs(got_mean - mean) <= 4.0 * math.sqrt(var / 4000), (n, total)
            assert got_var == pytest.approx(var, rel=0.1), (n, total)


def _stacked_summaries(datasets, prior, fixed, n_draws, seed, nb_fns=DEFAULT_NB_FUNCTIONS):
    """The engine's fold as first written: each block's net benefits stacked
    into one (k, m, 2) array, then the difference of its columns summed.  The
    reference for the fold through one reused buffer."""
    standard, novel = nb_fns
    posterior = study_posterior(datasets, prior)
    kind = datasets[0].design.kind.value
    rng = substream(seed, "posterior", kind)
    fill_rng = substream(seed, "posterior", kind, "complement")
    m = len(datasets)
    length = max(1, nmc.BLOCK_ELEMENTS // m)
    sums, wins = np.zeros(m), np.zeros(m)
    for start in range(0, n_draws, length):
        x = posterior.draw(rng, min(length, n_draws - start))
        draw = prior.sample(fill_rng, x.shape, {posterior.field: x})
        nb = np.stack([standard(draw, fixed), novel(draw, fixed)], axis=-1)
        sums += (nb[..., 1] - nb[..., 0]).sum(axis=0)
        wins += np.count_nonzero(nb[..., 1] > nb[..., 0], axis=0)
    return PosteriorSummaries(inb=sums / n_draws, p=wins / n_draws)


class TestBlockFold:
    """Folding each block through one reused buffer is the stacked fold, bit for bit."""

    @pytest.mark.parametrize("kind,n", [(StudyKind.SIDE_EFFECTS, 60),
                                        (StudyKind.QUALITY_OF_LIFE, 60),
                                        (StudyKind.EFFECTIVENESS_RCT, 200)])
    # With one dataset each column is summed alone, where numpy's reductions
    # change method; every draw count ends on a block shorter than the others
    # (or than the block length, when it takes one block).
    @pytest.mark.parametrize("m,n_draws", [(1, 16_384 * 2 + 7), (2, 1234), (5, 8191),
                                           (32, 3000), (32, 2)])
    def test_equals_the_stacked_fold(self, priors, fixed, kind, n, m, n_draws):
        draws = priors.sample(substream(40, "outer"), m)
        design = StudyDesign(kind, n)
        datasets = [simulate_dataset(design, draws.item(s), child_seed(40, "data", s))
                    for s in range(m)]
        assert_same_summaries(
            posterior_summaries(study_posterior(datasets, priors), priors, fixed, n_draws, 41,
                                shared_fill=False),
            _stacked_summaries(datasets, priors, fixed, n_draws, 41))

    def test_leaves_the_net_benefit_arrays_alone(self, priors, fixed):
        # Functions that hand back the draws themselves, read-only: a fold
        # that wrote into them would raise.
        def frozen(field):
            def fn(draw, _):
                values = getattr(draw, field)
                values.flags.writeable = False
                return values
            return fn

        design = StudyDesign(StudyKind.SIDE_EFFECTS, 60)
        datasets = [Dataset(design=design, events=x) for x in (0, 20, 60)]
        fns = (frozen("p_event"), frozen("p_side_effect"))
        assert_same_summaries(
            posterior_summaries(study_posterior(datasets, priors), priors, fixed, 5000, 42, fns,
                                shared_fill=False),
            _stacked_summaries(datasets, priors, fixed, 5000, 42, fns))


class TestFactoredNetBenefitInTheEngine:
    """Summaries from the factored net benefits are those of the four-outcome
    tree, to rounding, under either fill."""

    @staticmethod
    def _assert_close(got, tree):
        # inb to a couple of ulps of a 2e6 net benefit; wins are counted on
        # the same draws, and no draw sits within rounding of a tie.
        np.testing.assert_allclose(got.inb, tree.inb, rtol=0.0, atol=1e-9)
        assert np.array_equal(got.p, tree.p)

    @pytest.mark.parametrize("seed", [3, 2026])
    @pytest.mark.parametrize("kind,n", [(kind, n) for kind, n, _ in INFORMED])
    def test_nested_summaries(self, priors, fixed, kind, n, seed):
        design = StudyDesign(kind, n)
        self._assert_close(nmc_summaries(design, priors, fixed, 70, 3000, seed),
                           nmc_summaries(design, priors, fixed, 70, 3000, seed, TREE_NB_FUNCTIONS))

    @pytest.mark.parametrize("seed", [4, 2027])
    @pytest.mark.parametrize("kind,n", [(kind, n) for kind, n, _ in INFORMED])
    def test_per_dataset_fill(self, priors, fixed, kind, n, seed):
        posterior = study_posterior(TestSharedFill._datasets(priors, kind, n, 6), priors)
        self._assert_close(posterior_summaries(posterior, priors, fixed, 5000, seed,
                                               shared_fill=False),
                           posterior_summaries(posterior, priors, fixed, 5000, seed,
                                               TREE_NB_FUNCTIONS, shared_fill=False))


class TestNmcEvsiIm:
    def test_step_market_reproduces_plain_evsi(self, small_summaries):
        # A market that jumps entirely to the apparent best treatment, from a
        # baseline holding the currently best one, values information exactly
        # like the unadjusted estimator; the two must agree to the last bit.
        incumbent = CurrentShares((0.0, 1.0)) if small_summaries.inb.mean() > 0.0 \
            else CurrentShares((1.0, 0.0))
        plain = assemble_evsi(small_summaries.inb)
        adjusted = assemble_evsi_im(*small_summaries.toward(1), StepShare(), incumbent)
        assert adjusted.value == plain.value

    def test_matches_hand_computed_terms(self, small_summaries, market_fn, current_shares):
        # The value is the mean of (share after - share now) * inb and the
        # standard error that of the mean, to the last bit.
        inb, p = small_summaries.toward(market_fn.target)
        est = assemble_evsi_im(inb, p, market_fn, current_shares)
        terms = (market_fn.target_share(p) - current_shares.shares[market_fn.target]) * inb
        assert est.value == np.mean(terms)
        assert est.std_error == terms.std(ddof=1) / math.sqrt(len(terms))

    def test_threshold_never_reached_is_worthless(self, small_summaries):
        fn = ThresholdLinearShare(threshold=0.999999, saturation_at=1.0, target=1)
        est = assemble_evsi_im(*small_summaries.toward(1), fn, CurrentShares((1.0, 0.0)))
        assert est.value == pytest.approx(0.0, abs=1e-6)

    def test_empty_summaries_rejected(self, small_summaries):
        # Fewer than two datasets give no standard error.
        for size in (0, 1):
            few = PosteriorSummaries(small_summaries.inb[:size], small_summaries.p[:size])
            with pytest.raises(ValueError, match="at least two"):
                assemble_evsi(few.inb)
            with pytest.raises(ValueError, match="at least two"):
                assemble_evsi_im(*few.toward(1), StepShare(), CurrentShares((1.0, 0.0)))


class TestRelabelling:
    """Swapping which treatment is called novel changes no value.

    The second run hands the engine the pair (novel, standard), so its INB
    is the novel treatment's with the sign flipped and the market targets
    treatment 0: the path through ``-inb``, ``1 - p`` and the step's ``>=``.
    """

    @pytest.fixture(scope="class")
    def both_labellings(self, priors, fixed):
        design = StudyDesign(StudyKind.QUALITY_OF_LIFE, 100)
        standard, novel = DEFAULT_NB_FUNCTIONS
        return [nmc_summaries(design, priors, fixed, 200, 400, 28, nb_fns=fns)
                for fns in ((standard, novel), (novel, standard))]

    @pytest.mark.parametrize("make_fn", [
        lambda target: ThresholdLinearShare(threshold=0.6, saturation_at=1.0, target=target),
        lambda target: StepShare(target=target),
    ], ids=["threshold-linear", "step"])
    def test_values_agree(self, both_labellings, make_fn):
        as_given, relabelled = both_labellings
        adjusted = [assemble_evsi_im(*as_given.toward(1), make_fn(1), CurrentShares((1.0, 0.0))),
                    assemble_evsi_im(*relabelled.toward(0), make_fn(0),
                                     CurrentShares((0.0, 1.0)))]
        plain = [assemble_evsi(as_given.inb), assemble_evsi(relabelled.inb)]
        for a, b in (adjusted, plain):
            assert a.value > 0.0
            assert b.value == pytest.approx(a.value, rel=1e-12)
            assert b.std_error == pytest.approx(a.std_error, rel=1e-12)
