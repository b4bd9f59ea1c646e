"""Market share maps and the implementation-adjusted value assembly."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voi.market import (
    CurrentShares,
    StepShare,
    TableShare,
    ThresholdLinearShare,
    assemble_evsi_im,
    current_decision_value,
    market_share,
)

LINEAR = ThresholdLinearShare(threshold=0.6, saturation_at=1.0, target=1)


class TestThresholdLinear:
    def test_below_threshold_keeps_incumbent(self):
        np.testing.assert_allclose(market_share(LINEAR, 0.55), [1.0, 0.0])

    def test_threshold_itself_gives_nothing(self):
        # Uptake starts strictly above the evidence threshold.
        np.testing.assert_allclose(market_share(LINEAR, 0.6), [1.0, 0.0])

    def test_halfway_point(self):
        np.testing.assert_allclose(market_share(LINEAR, 0.8), [0.5, 0.5])

    def test_certainty_gives_full_uptake(self):
        np.testing.assert_allclose(market_share(LINEAR, 1.0), [0.0, 1.0])

    def test_early_saturation(self):
        fn = ThresholdLinearShare(threshold=0.2, saturation_at=0.7, target=1)
        np.testing.assert_allclose(market_share(fn, 0.45), [0.5, 0.5])
        np.testing.assert_allclose(market_share(fn, 0.9), [0.0, 1.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            ThresholdLinearShare(threshold=-0.1, saturation_at=1.0, target=1)
        with pytest.raises(ValueError):
            ThresholdLinearShare(threshold=0.6, saturation_at=0.6, target=1)

    def test_probability_domain_checked(self):
        with pytest.raises(ValueError):
            market_share(LINEAR, 1.5)
        with pytest.raises(ValueError):
            market_share(LINEAR, -0.01)

    def test_nan_probability_rejected(self, current_shares):
        p = np.array([0.7, np.nan, 0.9])
        with pytest.raises(ValueError, match="probabilities"):
            market_share(LINEAR, p)
        with pytest.raises(ValueError, match="probabilities"):
            assemble_evsi_im(np.ones(3), p, LINEAR, current_shares)


class TestTableShare:
    fn = TableShare(points=((0.0, 0.0), (0.5, 0.1), (1.0, 0.9)), target=1)

    def test_interpolates(self):
        np.testing.assert_allclose(market_share(self.fn, 0.75), [0.5, 0.5])

    def test_endpoints(self):
        np.testing.assert_allclose(market_share(self.fn, 0.0), [1.0, 0.0])
        np.testing.assert_allclose(market_share(self.fn, 1.0), [0.1, 0.9])

    def test_validation(self):
        with pytest.raises(ValueError):
            TableShare(points=((0.5, 0.1),), target=1)
        with pytest.raises(ValueError):
            TableShare(points=((0.5, 0.1), (0.5, 0.2)), target=1)
        with pytest.raises(ValueError):
            TableShare(points=((0.0, 0.5), (1.0, 0.1)), target=1)

    @pytest.mark.parametrize("points,match", [
        (((0.0, 0.0), (np.nan, 0.5), (1.0, 1.0)), "probabilities"),
        (((np.nan, 0.0), (1.0, 1.0)), "probabilities"),
        (((0.0, 0.0), (0.5, np.nan), (1.0, 1.0)), "shares"),
        (((0.0, 0.0), (1.0, np.nan)), "shares"),
    ])
    def test_nan_breakpoint_rejected(self, points, match):
        with pytest.raises(ValueError, match=match):
            TableShare(points=points, target=1)


class TestStepShare:
    def test_steps_at_even_odds(self):
        fn = StepShare()
        np.testing.assert_allclose(market_share(fn, 0.49), [1.0, 0.0])
        np.testing.assert_allclose(market_share(fn, 0.51), [0.0, 1.0])

    def test_assembly_follows_argmax_of_mu(self):
        # Rows of posterior means (standard, novel); the market moves to
        # whichever is larger, an exact tie to the lower index, as the argmax
        # of the row breaks it.  The tie moves no value, whatever its rule.
        mu = np.array([[2.0, 1.0], [0.0, 3.0], [1.0, 1.0]])
        now = CurrentShares((0.25, 0.75))
        after = np.eye(2)[np.argmax(mu, axis=1)]
        for target in (0, 1):
            inb = mu[:, target] - mu[:, 1 - target]
            est = assemble_evsi_im(inb, None, StepShare(target=target), now)
            terms = np.sum((after - np.array(now.shares)) * mu, axis=1)
            assert est.value == np.mean(terms)
            assert est.std_error == terms.std(ddof=1) / math.sqrt(len(terms))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
def test_shares_are_distributions(probs):
    p = np.array(probs)
    for fn in (LINEAR, StepShare(),
               TableShare(points=((0.0, 0.0), (0.6, 0.0), (1.0, 1.0)), target=1)):
        shares = market_share(fn, p)
        assert shares.shape == p.shape + (2,)
        assert np.all(shares >= 0.0) and np.all(shares <= 1.0)
        np.testing.assert_allclose(shares.sum(axis=-1), 1.0, atol=1e-12)


def test_shares_sum_to_one_on_dense_grid():
    p = np.linspace(0.0, 1.0, 10_001)
    np.testing.assert_allclose(market_share(LINEAR, p).sum(axis=-1), 1.0, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=40))
def test_target_share_monotone_in_probability(probs):
    p = np.sort(np.array(probs))
    target = market_share(LINEAR, p)[:, 1]
    assert np.all(np.diff(target) >= -1e-12)


class TestCurrentShares:
    def test_validation(self):
        with pytest.raises(ValueError):
            CurrentShares((0.7, 0.2))
        with pytest.raises(ValueError):
            CurrentShares((1.2, -0.2))
        with pytest.raises(ValueError):
            CurrentShares((1.0,))

    @pytest.mark.parametrize("shares", [(np.nan, np.nan), (np.nan, 1.0), (0.0, np.nan)])
    def test_nan_rejected(self, shares):
        with pytest.raises(ValueError, match="shares"):
            CurrentShares(shares)


class TestDecisionValue:
    def test_incumbent_only_is_first_column_mean(self, psa):
        value = current_decision_value(psa, CurrentShares((1.0, 0.0)))
        assert value == pytest.approx(psa.nb[:, 0].mean(), rel=1e-12)

    def test_mixed_market_is_weighted_mean(self, psa):
        value = current_decision_value(psa, CurrentShares((0.5, 0.5)))
        assert value == pytest.approx(psa.nb.mean(axis=0) @ [0.5, 0.5], rel=1e-12)


class TestAssembly:
    def test_no_adoption_means_no_value(self, current_shares):
        # Every dataset leaves the evidence below threshold: the market never
        # moves, so the study is worthless no matter what the INB says.
        rng = np.random.default_rng(0)
        inb = rng.normal(0.0, 1.0, 500)
        p = np.full(500, 0.3)
        est = assemble_evsi_im(inb, p, LINEAR, current_shares)
        assert est.value == 0.0
        assert est.std_error == 0.0

    def test_terms_average_to_the_estimate(self, current_shares):
        # The value is the mean of (share after - share now) * inb and the
        # standard error that of the mean, to the last bit.
        rng = np.random.default_rng(1)
        inb = rng.normal(1.0, 2.0, 400)
        p = rng.uniform(0.0, 1.0, 400)
        est = assemble_evsi_im(inb, p, LINEAR, current_shares)
        terms = (LINEAR.target_share(p) - current_shares.shares[1]) * inb
        assert est.value == np.mean(terms)
        assert est.std_error == terms.std(ddof=1) / math.sqrt(400)
        with pytest.raises(ValueError, match="one probability per dataset"):
            assemble_evsi_im(inb, p[:1], LINEAR, current_shares)
        # One dataset gives no standard error.
        with pytest.raises(ValueError, match="at least two"):
            assemble_evsi_im(inb[:1], p[:1], LINEAR, current_shares)

    def test_certain_adoption_hand_case(self):
        mu = np.array([[1.0, 3.0], [3.0, 1.0]])
        inb, p = mu[:, 1] - mu[:, 0], np.array([1.0, 1.0])
        # Full switch to treatment 2 in both rows: mean mu2 - mean mu1 = 0.
        assert assemble_evsi_im(inb, p, LINEAR, CurrentShares((1.0, 0.0))).value == 0.0
        # Against a half-and-half incumbent market the switch gains nothing
        # on average either, but the current value term changes.
        assert assemble_evsi_im(inb, p, LINEAR, CurrentShares((0.5, 0.5))).value == 0.0

    def test_exact_at_the_case_study_scale(self):
        # Net benefits near the case study's 2.2e6 and shares just above the
        # threshold: the value must match an exact rational evaluation of the
        # same terms, (share after - share now) * inb, on the same floats.
        rng = np.random.default_rng(2)
        mu = 2.2e6 + rng.normal(0.0, 2.0e4, (5000, 2)) + [0.0, 3.0e3]
        inb = mu[:, 1] - mu[:, 0]
        p = rng.uniform(0.6, 0.62, inb.size)
        value = assemble_evsi_im(inb, p, LINEAR, CurrentShares((1.0, 0.0))).value
        after = LINEAR.target_share(p)
        exact = sum(Fraction(float(a)) * Fraction(float(x)) for a, x in zip(after, inb))
        assert value == pytest.approx(float(exact / inb.size), rel=1e-12)
