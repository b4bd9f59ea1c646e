"""Decision-model arithmetic: priors, derived parameters, net benefits, EVPI."""

import math
import warnings

import numpy as np
import pytest
from scipy import special

from voi.model import (
    BetaPrior,
    FixedParams,
    NormalPrior,
    ParameterDraw,
    PriorSpec,
    PsaSample,
    derive_pt,
    evpi,
    expected_nb,
    expit,
    logit,
    net_benefit_novel,
    net_benefit_standard,
    prob_cost_effective,
    sample_prior,
)
from voi.rng import substream

# Point values frozen once from the closed-form net benefit expressions at the
# published rounded parameter means (0.15, 0.0440, 0.25, 0.6405).
ROUNDED_MEANS = ParameterDraw(
    p_event=0.15,
    odds_ratio=0.2608,  # consistent with the rounded treated probability
    p_side_effect=0.25,
    qol_after_event=0.6405,
    p_event_treated=0.0440,
)
NB_STANDARD_AT_MEANS = 2_159_334.375
NB_NOVEL_AT_MEANS = 2_164_654.75


def tree_standard(draw, fixed):
    """The standard arm as an event tree: QALYs over event and no event, then
    costs.  The reference for the factored ``net_benefit_standard``."""
    event_qalys = fixed.life_years * (1.0 + draw.qol_after_event) / 2.0
    qalys = draw.p_event * event_qalys + (1.0 - draw.p_event) * fixed.life_years
    return fixed.wtp * qalys - draw.p_event * fixed.event_cost


def tree_novel(draw, fixed):
    """The novel arm as the paper's four-outcome tree (event x side effect).
    The reference for the factored ``net_benefit_novel``."""
    pt = draw.p_event_treated
    ps = draw.p_side_effect
    event_qalys = fixed.life_years * (1.0 + draw.qol_after_event) / 2.0
    qalys = (
        pt * ps * (event_qalys - fixed.side_effect_qol_loss)
        + pt * (1.0 - ps) * event_qalys
        + (1.0 - pt) * ps * (fixed.life_years - fixed.side_effect_qol_loss)
        + (1.0 - pt) * (1.0 - ps) * fixed.life_years
    )
    costs = fixed.treatment_cost + pt * fixed.event_cost + ps * fixed.side_effect_cost
    return fixed.wtp * qalys - costs


TREE_NB_FUNCTIONS = (tree_standard, tree_novel)


class TestDerivePt:
    def test_null_odds_ratio_is_identity(self):
        assert derive_pt(0.15, 1.0) == pytest.approx(0.15, abs=1e-15)

    def test_published_example(self):
        assert derive_pt(0.15, 0.2636) == pytest.approx(0.04445, abs=1e-5)

    def test_vanishing_odds_ratio_limit(self):
        assert derive_pt(0.15, 1e-12) == pytest.approx(0.0, abs=1e-10)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            derive_pt(0.15, 0.0)
        with pytest.raises(ValueError):
            derive_pt(0.0, 0.5)
        with pytest.raises(ValueError):
            derive_pt(1.0, 0.5)

    def test_broadcasts(self):
        out = derive_pt(np.array([0.1, 0.2]), np.array([0.5, 2.0]))
        assert out.shape == (2,)
        assert out[0] == pytest.approx(0.1 * 0.5 / (0.9 + 0.05))

    @pytest.mark.parametrize("field", ["p_event", "odds_ratio"])
    @pytest.mark.parametrize("shape", [(), (3,)], ids=["scalar", "array"])
    def test_nan_rejected(self, field, shape):
        args = {"p_event": np.full(shape, 0.15), "odds_ratio": np.full(shape, 0.3)}
        args[field][...] = np.nan if shape == () else [0.2, np.nan, 0.4]
        with pytest.raises(ValueError, match=field):
            derive_pt(**args)

    def test_one_product_gives_the_same_bits(self):
        rng = np.random.default_rng(12)
        p, o = rng.uniform(1e-6, 1.0 - 1e-6, 10_000), np.exp(rng.normal(0.0, 3.0, 10_000))
        assert np.array_equal(derive_pt(p, o), p * o / (1.0 - p + p * o))


PRIMITIVES = {"p_event": 0.15, "odds_ratio": 0.3, "p_side_effect": 0.25, "qol_after_event": 0.64}


class TestFromPrimitives:
    @pytest.mark.parametrize("field", sorted(PRIMITIVES))
    @pytest.mark.parametrize("shape", [(), (3,)], ids=["scalar", "array"])
    def test_nan_rejected(self, field, shape):
        args = {name: np.full(shape, value) for name, value in PRIMITIVES.items()}
        args[field][...] = np.nan if shape == () else [args[field][0], np.nan, args[field][0]]
        with pytest.raises(ValueError, match=field):
            ParameterDraw.from_primitives(**args)

    @pytest.mark.parametrize("field", ["p_event", "p_side_effect", "qol_after_event"])
    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, np.inf])
    def test_bounds_rejected(self, field, bad):
        args = {name: np.full(4, value) for name, value in PRIMITIVES.items()}
        args[field][2] = bad
        with pytest.raises(ValueError, match=field):
            ParameterDraw.from_primitives(**args)

    def test_empty_draws_pass(self):
        draw = ParameterDraw.from_primitives(**{name: np.empty(0) for name in PRIMITIVES})
        assert draw.p_event_treated.shape == (0,)


class TestNetBenefits:
    def test_standard_at_rounded_means(self, fixed):
        assert net_benefit_standard(ROUNDED_MEANS, fixed) == pytest.approx(
            NB_STANDARD_AT_MEANS, abs=1e-6)

    def test_novel_at_rounded_means(self, fixed):
        assert net_benefit_novel(ROUNDED_MEANS, fixed) == pytest.approx(
            NB_NOVEL_AT_MEANS, abs=1e-6)

    def test_standard_no_events(self, fixed):
        draw = ParameterDraw(0.0, 1.0, 0.25, 0.5, 0.0)
        assert net_benefit_standard(draw, fixed) == pytest.approx(75_000.0 * 30.0)

    def test_standard_full_recovery_quality(self, fixed):
        # qol = 1 removes the QALY loss; only the event cost remains.
        draw = ParameterDraw(0.15, 1.0, 0.25, 1.0, 0.15)
        expected = 75_000.0 * 30.0 - 0.15 * 200_000.0
        assert net_benefit_standard(draw, fixed) == pytest.approx(expected)

    def test_novel_with_nothing_to_treat(self, fixed):
        draw = ParameterDraw(0.15, 1e-9, 0.0, 0.5, 0.0)
        expected = 75_000.0 * 30.0 - 15_000.0
        assert net_benefit_novel(draw, fixed) == pytest.approx(expected)

    def test_novel_without_side_effects_matches_standard_shifted(self, fixed):
        # With no side-effect risk the novel arm is the standard-of-care model
        # evaluated at the treated event probability, minus the treatment cost.
        pt = derive_pt(0.15, 0.3)
        novel = ParameterDraw(0.15, 0.3, 0.0, 0.6405, pt)
        shifted = ParameterDraw(pt, 1.0, 0.25, 0.6405, pt)
        assert net_benefit_novel(novel, fixed) == pytest.approx(
            net_benefit_standard(shifted, fixed) - fixed.treatment_cost)

    def test_broadcasts_over_vectors(self, fixed):
        draw = ParameterDraw.from_primitives(
            p_event=np.array([0.1, 0.15]),
            odds_ratio=np.array([0.3, 0.3]),
            p_side_effect=np.array([0.2, 0.25]),
            qol_after_event=np.array([0.6, 0.6405]),
        )
        nb = net_benefit_novel(draw, fixed)
        assert nb.shape == (2,)


# Far from the case study: one life year, a fortune per QALY, costs from a
# thousandth to a billion, and a side effect that costs more QALYs than a life.
EXTREME_FIXED = FixedParams(life_years=1.0, event_cost=1e-3, treatment_cost=1e9,
                            side_effect_cost=1e9, side_effect_qol_loss=50.0, wtp=1e7)


def _draws_across_the_domain(n: int, seed: int) -> ParameterDraw:
    """Draws over the whole of each parameter's domain, edges included: each
    probability uniform on half the draws and log-uniform from 1e-12 towards
    either bound on the rest, and a log odds ratio uniform on (-30, 30)."""
    rng = np.random.default_rng(seed)

    def probability():
        edge = 10.0 ** rng.uniform(-12.0, 0.0, n)
        near_one = rng.random(n) < 0.5
        edge[near_one] = 1.0 - edge[near_one]
        p = np.where(rng.random(n) < 0.5, rng.uniform(0.0, 1.0, n), edge)
        return np.clip(p, 1e-12, 1.0 - 1e-12)

    return ParameterDraw.from_primitives(p_event=probability(),
                                         odds_ratio=np.exp(rng.uniform(-30.0, 30.0, n)),
                                         p_side_effect=probability(),
                                         qol_after_event=probability())


class TestFactoredMatchesTree:
    """The factored net benefits are the four-outcome tree, to rounding."""

    @pytest.mark.parametrize("which", ["case", "extreme"])
    @pytest.mark.parametrize("factored,tree", [(net_benefit_standard, tree_standard),
                                               (net_benefit_novel, tree_novel)],
                             ids=["standard", "novel"])
    def test_agrees_with_the_tree(self, fixed, which, factored, tree):
        fixed = fixed if which == "case" else EXTREME_FIXED
        draw = _draws_across_the_domain(120_000, 11)
        # Rounding is relative to the largest term either form adds up.
        largest = (fixed.wtp * max(fixed.life_years, fixed.side_effect_qol_loss)
                   + fixed.treatment_cost + fixed.event_cost + fixed.side_effect_cost)
        np.testing.assert_allclose(factored(draw, fixed), tree(draw, fixed),
                                   rtol=1e-12, atol=1e-12 * largest)

    @pytest.mark.parametrize("informed,standard_cols", [("p_side_effect", 1),
                                                         ("qol_after_event", 5),
                                                         ("odds_ratio", 1)])
    def test_shared_columns_stay_narrow(self, fixed, informed, standard_cols):
        # A batch of 5 datasets sharing (k, 1) refill columns, with the
        # informed parameter drawn per dataset.
        rng = np.random.default_rng(12)
        values = {name: np.full((7, 1), value) for name, value in PRIMITIVES.items()}
        values[informed] = rng.uniform(0.2, 0.8, (7, 5))
        draw = ParameterDraw.from_primitives(**values)
        assert np.shape(net_benefit_standard(draw, fixed)) == (7, standard_cols)
        assert np.shape(net_benefit_novel(draw, fixed)) == (7, 5)


class TestPriors:
    def test_normal_prior_sd(self):
        prior = NormalPrior(-1.5, 1.0 / 3.0)
        assert prior.sd == pytest.approx(math.sqrt(1.0 / 3.0))

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            BetaPrior(0.0, 9.0)
        with pytest.raises(ValueError):
            NormalPrior(0.0, 0.0)


# expit's arguments: a grid over [-745, 745], the log-odds scale of the
# packaged quality prior, and the range where exp(-x) first swamps the 1.
X = np.concatenate([np.linspace(-745.0, 745.0, 400_001),
                    np.random.default_rng(1).normal(0.6, 3.0, 200_000),
                    np.random.default_rng(2).uniform(-40.0, -30.0, 200_000)])
# logit's arguments, 1e-300 to 1 - 1e-16, with scipy's switch points 0.3 and
# 0.65 and two points next to 1/2.
P = np.concatenate([np.logspace(-300.0, -1.0, 100_000), np.linspace(1e-6, 1.0 - 1e-6, 400_001),
                    1.0 - np.logspace(-16.0, -1.0, 50_000), [0.3, 0.65, 0.5 + 1e-9, 0.5 - 1e-9]])
# An 80-bit long double carries 11 more bits than a double, enough for
# reference values exact to a small fraction of a double's ulp.
needs_extended = pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63,
                                    reason="long double is no wider than double here")


class TestLogisticMaps:
    """voi's numpy expit and logit against scipy.special's and against exact values."""

    def test_expit_agrees_with_scipy(self):
        # Same formula; numpy's exp and the C library's each err by up to a
        # unit, in either direction, so the two results can sit 4 ulp apart.
        np.testing.assert_array_max_ulp(expit(X), special.expit(X), maxulp=4)
        # Below x = -709.78 exp(-x) overflows and both return 0.
        assert np.all(expit(X[X < -709.79]) == 0.0)
        assert np.all(special.expit(X[X < -709.79]) == 0.0)

    @needs_extended
    def test_expit_within_three_ulp_of_exact(self):
        x = X[X > -709.7]
        exact = (1.0 / (1.0 + np.exp(-x.astype(np.longdouble)))).astype(float)
        np.testing.assert_array_max_ulp(expit(x), exact, maxulp=3)

    def test_logit_agrees_with_scipy(self):
        np.testing.assert_array_max_ulp(logit(P), special.logit(P), maxulp=2)

    @needs_extended
    def test_logit_within_two_ulp_of_exact(self):
        p = P.astype(np.longdouble)
        mid = (P >= 0.25) & (P <= 0.75)
        # 2p - 1 and 1 - p are exact in extended precision.
        with np.errstate(divide="ignore"):
            exact = np.where(mid, np.log1p((2.0 * p - 1.0) / (1.0 - p)),
                             np.log(p / (1.0 - p))).astype(float)
        np.testing.assert_array_max_ulp(logit(P), exact, maxulp=2)

    def test_expit_saturates_exactly_and_silently(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert expit(np.array([-1000.0, 1000.0])).tolist() == [0.0, 1.0]
            assert expit(-1000.0) == 0.0 and expit(1000.0) == 1.0

    def test_expit_in_place(self):
        x = np.random.default_rng(2).normal(0.0, 2.0, (64, 8))
        expected = expit(x)
        assert expit(x, out=x) is x
        np.testing.assert_array_equal(x, expected)

    def test_scalars_stay_scalars(self):
        assert np.ndim(expit(0.25)) == 0 and np.ndim(logit(0.25)) == 0
        assert logit(expit(0.25)) == pytest.approx(0.25, rel=1e-15)


class TestPriorSample:
    def test_deterministic(self, priors, fixed):
        a = sample_prior(priors, fixed, 50, 7)
        b = sample_prior(priors, fixed, 50, 7)
        np.testing.assert_array_equal(a.nb, b.nb)
        np.testing.assert_array_equal(
            np.asarray(a.draws.p_event), np.asarray(b.draws.p_event))

    def test_marginal_means(self, psa):
        # Each sampled parameter mean within 3 standard errors of its analytic
        # value; the odds ratio is lognormal so its mean picks up exp(var/2).
        n = len(psa)
        checks = [
            (np.asarray(psa.draws.p_event), 0.15,
             math.sqrt(0.15 * 0.85 / 101.0)),
            (np.asarray(psa.draws.p_side_effect), 0.25,
             math.sqrt(0.25 * 0.75 / 13.0)),
            (np.asarray(psa.draws.odds_ratio), math.exp(-1.5 + 1.0 / 6.0),
             math.exp(-1.5 + 1.0 / 6.0) * math.sqrt(math.expm1(1.0 / 3.0))),
        ]
        for values, mean, sd in checks:
            assert abs(values.mean() - mean) <= 3.0 * sd / math.sqrt(n)

    def test_logit_qol_is_normal(self, psa):
        z = np.log(np.asarray(psa.draws.qol_after_event)
                   / (1.0 - np.asarray(psa.draws.qol_after_event)))
        n = len(psa)
        assert abs(z.mean() - 0.6) <= 3.0 * math.sqrt(1.0 / 6.0 / n)
        assert z.var(ddof=1) == pytest.approx(1.0 / 6.0, rel=0.1)

    def test_mean_qol_includes_transform_bias(self, psa):
        # E[expit(Z)] for Z ~ N(0.6, 1/6) by high-order quadrature: 0.6404710.
        sd = np.asarray(psa.draws.qol_after_event).std(ddof=1)
        assert abs(np.asarray(psa.draws.qol_after_event).mean()
                   - 0.6404709926771458) <= 3.0 * sd / math.sqrt(len(psa))

    def test_treated_probability_is_derived(self, psa):
        np.testing.assert_allclose(
            np.asarray(psa.draws.p_event_treated),
            derive_pt(np.asarray(psa.draws.p_event),
                      np.asarray(psa.draws.odds_ratio)),
            rtol=0, atol=1e-14)

    def test_nb_columns_match_functions(self, psa, fixed):
        np.testing.assert_allclose(
            psa.nb[:, 0], net_benefit_standard(psa.draws, fixed), rtol=1e-12)
        np.testing.assert_allclose(
            psa.nb[:, 1], net_benefit_novel(psa.draws, fixed), rtol=1e-12)

    def test_minimum_size_enforced(self, priors, fixed):
        with pytest.raises(ValueError):
            sample_prior(priors, fixed, 1, 0)

    def test_prior_sampler_draws_the_psa(self, priors, fixed):
        psa = sample_prior(priors, fixed, 500, 7)
        draws = priors.sample(substream(7, "prior"), 500)
        for name in ("p_event", "odds_ratio", "p_side_effect", "qol_after_event",
                     "p_event_treated"):
            np.testing.assert_array_equal(getattr(draws, name), getattr(psa.draws, name))

    @pytest.mark.parametrize("given", [None, *PriorSpec.FIELD_ORDER])
    def test_given_fields_pass_through(self, priors, given):
        # The fields not given consume the stream in FIELD_ORDER, each on its
        # prior's scale mapped to the model's.
        size = (3, 5)
        informed = {} if given is None else {given: np.full(size, 0.3)}
        draws = priors.sample(substream(11, "test"), size, informed)
        rng = substream(11, "test")
        for name in PriorSpec.FIELD_ORDER:
            if name in informed:
                assert getattr(draws, name) is informed[name]
                continue
            if name in ("p_event", "p_side_effect"):
                prior = getattr(priors, name)
                expected = rng.beta(prior.alpha, prior.beta, size)
            elif name == "odds_ratio":
                expected = np.exp(rng.normal(priors.log_odds_ratio.mean,
                                             priors.log_odds_ratio.sd, size))
            else:
                expected = expit(rng.normal(priors.logit_qol.mean, priors.logit_qol.sd, size))
            np.testing.assert_array_equal(getattr(draws, name), expected)
        np.testing.assert_array_equal(draws.p_event_treated,
                                      derive_pt(draws.p_event, draws.odds_ratio))


def _toy_psa(nb: np.ndarray) -> PsaSample:
    n = nb.shape[0]
    draws = ParameterDraw.from_primitives(
        p_event=np.full(n, 0.15),
        odds_ratio=np.full(n, 0.3),
        p_side_effect=np.full(n, 0.25),
        qol_after_event=np.full(n, 0.64),
    )
    return PsaSample(draws=draws, nb=np.asarray(nb, dtype=float))


class TestSummaries:
    def test_expected_nb_is_column_means(self):
        psa = _toy_psa(np.array([[1.0, 2.0], [3.0, 6.0]]))
        np.testing.assert_allclose(expected_nb(psa), [2.0, 4.0])

    def test_prob_cost_effective_counts_argmax(self):
        psa = _toy_psa(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 2.0], [5.0, 0.0]]))
        np.testing.assert_allclose(prob_cost_effective(psa), [0.5, 0.5])

    def test_prob_ties_go_to_the_incumbent(self):
        psa = _toy_psa(np.array([[1.0, 1.0], [2.0, 2.0]]))
        np.testing.assert_allclose(prob_cost_effective(psa), [1.0, 0.0])

    def test_probs_sum_to_one(self, psa):
        p = prob_cost_effective(psa)
        assert p.shape == (2,)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(p >= 0.0) and np.all(p <= 1.0)

    def test_evpi_hand_case(self):
        psa = _toy_psa(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert evpi(psa) == pytest.approx(0.5)

    def test_evpi_zero_when_one_option_dominates(self):
        psa = _toy_psa(np.array([[2.0, 1.0], [3.0, 0.0]]))
        assert evpi(psa) == 0.0

    def test_evpi_nonnegative(self, psa):
        assert evpi(psa) >= 0.0


class TestFixedParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            FixedParams(life_years=0.5, event_cost=1.0, treatment_cost=1.0,
                        side_effect_cost=1.0, side_effect_qol_loss=0.0, wtp=1.0)
        with pytest.raises(ValueError):
            FixedParams(life_years=30.0, event_cost=0.0, treatment_cost=1.0,
                        side_effect_cost=1.0, side_effect_qol_loss=0.0, wtp=1.0)
