"""Generalized logistic and variance-decay curve fitting."""

import numpy as np
import pytest
from scipy.optimize import minimize

import voi.curves as curves
from voi.curves import (
    FitError,
    LogisticFit,
    _logistic_objective,
    fit_generalized_logistic,
    fit_generalized_logistic_n,
    fit_variance_curve,
)


def _family(mu: np.ndarray, base: float, rate: float, shape: float,
            sizes=None, power: float = 0.0) -> np.ndarray:
    """The curve family evaluated the way the fitter sees it (standardized)."""
    z = (mu - mu.mean()) / mu.std(ddof=1)
    factor = 1.0 if sizes is None else np.asarray(sizes, dtype=float) ** power
    return (base + np.exp(-rate * factor * z)) ** (-shape)


class TestLogisticFit:
    def test_recovers_the_curve(self):
        rng = np.random.default_rng(10)
        mu = np.linspace(-30_000.0, 50_000.0, 60)
        truth = _family(mu, base=1.0, rate=1.3, shape=0.8)
        fit = fit_generalized_logistic(mu, truth + rng.normal(0.0, 0.01, 60))
        assert np.max(np.abs(np.asarray(fit.predict(mu)) - truth)) < 0.02

    def test_symmetric_curve_crosses_half_at_center(self):
        mu = np.linspace(-5.0, 5.0, 50)
        truth = _family(mu, base=1.0, rate=1.0, shape=1.0)
        fit = fit_generalized_logistic(mu, truth)
        assert fit.predict(mu.mean()) == pytest.approx(0.5, abs=0.02)

    def test_predictions_stay_probabilities(self):
        mu = np.linspace(0.0, 1.0, 40)
        truth = _family(mu, base=1.2, rate=2.0, shape=0.5)
        fit = fit_generalized_logistic(mu, truth)
        extreme = np.asarray(fit.predict(np.array([-1e9, 0.5, 1e9])))
        assert np.all(extreme > 0.0) and np.all(extreme <= 1.0)

    def test_monotone_nondecreasing(self):
        rng = np.random.default_rng(11)
        mu = np.sort(rng.normal(0.0, 1.0, 50))
        truth = _family(mu, base=1.5, rate=0.7, shape=2.0)
        fit = fit_generalized_logistic(mu, truth + rng.normal(0.0, 0.02, 50))
        preds = np.asarray(fit.predict(np.linspace(mu.min(), mu.max(), 500)))
        assert np.all(np.diff(preds) >= -1e-12)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fit_generalized_logistic([1.0, 2.0, 3.0], [0.1, 0.2, 0.3])
        with pytest.raises(ValueError):
            fit_generalized_logistic([1.0, 2.0, 3.0, 4.0], [0.1, 0.2, 0.3, 1.2])

    def test_parameter_domain(self):
        with pytest.raises(ValueError):
            LogisticFit(base=0.5, rate=1.0, shape=1.0, resid_sd=0.0,
                        center=0.0, scale=1.0)
        with pytest.raises(ValueError):
            LogisticFit(base=1.0, rate=1.0, shape=1.0, resid_sd=0.0,
                        center=0.0, scale=0.0)


class TestSizedLogisticFit:
    def _synthetic(self, power: float, noise: float, seed: int):
        rng = np.random.default_rng(seed)
        mu = np.tile(np.linspace(-2.0, 2.0, 12), 5)
        sizes = np.repeat([10.0, 25.0, 60.0, 120.0, 250.0], 12)
        truth = _family(mu, base=1.0, rate=0.4, shape=1.0, sizes=sizes, power=power)
        probs = np.clip(truth + rng.normal(0.0, noise, mu.size), 0.0, 1.0)
        return mu, probs, sizes, truth

    def test_recovers_size_power(self):
        mu, probs, sizes, _ = self._synthetic(power=0.5, noise=0.01, seed=12)
        fit = fit_generalized_logistic_n(mu, probs, sizes)
        assert fit.size_power == pytest.approx(0.5, abs=0.15)

    def test_recovers_size_independence(self):
        mu, probs, sizes, _ = self._synthetic(power=0.0, noise=0.01, seed=13)
        fit = fit_generalized_logistic_n(mu, probs, sizes)
        assert fit.size_power == pytest.approx(0.0, abs=0.1)

    def test_more_data_sharpens_the_curve(self):
        mu, probs, sizes, _ = self._synthetic(power=0.5, noise=0.005, seed=14)
        fit = fit_generalized_logistic_n(mu, probs, sizes)
        above = fit.center + fit.scale
        preds = [fit.predict(above, n=n) for n in (10, 50, 200, 1000)]
        assert np.all(np.diff(preds) >= -1e-9)

    def test_sized_fit_requires_n_at_prediction(self):
        mu, probs, sizes, _ = self._synthetic(power=0.5, noise=0.01, seed=15)
        fit = fit_generalized_logistic_n(mu, probs, sizes)
        with pytest.raises(ValueError):
            fit.predict(0.0)

    def test_size_validation(self):
        with pytest.raises(ValueError):
            fit_generalized_logistic_n([0.0, 1.0, 2.0, 3.0],
                                       [0.1, 0.2, 0.3, 0.4],
                                       [10.0, 20.0, 0.5, 40.0])


def _synthetic_single(case: str):
    """The single-size inputs of the TestLogisticFit cases."""
    if case == "recovers":
        rng = np.random.default_rng(10)
        mu = np.linspace(-30_000.0, 50_000.0, 60)
        return mu, _family(mu, base=1.0, rate=1.3, shape=0.8) + rng.normal(0.0, 0.01, 60)
    if case == "symmetric":
        mu = np.linspace(-5.0, 5.0, 50)
        return mu, _family(mu, base=1.0, rate=1.0, shape=1.0)
    if case == "exact":
        mu = np.linspace(0.0, 1.0, 40)
        return mu, _family(mu, base=1.2, rate=2.0, shape=0.5)
    rng = np.random.default_rng(11)
    mu = np.sort(rng.normal(0.0, 1.0, 50))
    return mu, _family(mu, base=1.5, rate=0.7, shape=2.0) + rng.normal(0.0, 0.02, 50)


def _synthetic_sized(power: float, noise: float, seed: int):
    """The TestSizedLogisticFit inputs (mu, probs, sizes)."""
    return TestSizedLogisticFit()._synthetic(power, noise, seed)[:3]


SINGLE_CASES = ["recovers", "symmetric", "exact", "monotone"]
SIZED_CASES = [(0.5, 0.01, 12), (0.0, 0.01, 13), (0.5, 0.005, 14), (0.5, 0.01, 15)]


def _objective_inputs(mu, probs, sizes=None):
    mu = np.asarray(mu, dtype=float)
    mu_std = (mu - mu.mean()) / mu.std(ddof=1)
    log_sizes = None if sizes is None else np.log(np.asarray(sizes, dtype=float))
    return mu_std, np.asarray(probs, dtype=float), log_sizes


@pytest.fixture()
def starts(monkeypatch):
    """Record (start point, result) of every search the logistic fit runs."""
    record = []

    def recording(fun, x0, *args, **kwargs):
        res = minimize(fun, x0, *args, **kwargs)
        record.append((np.array(x0), res))
        return res

    monkeypatch.setattr(curves, "minimize", recording)
    return record


def _best_z(record) -> np.ndarray:
    return min((res for _, res in record if res.success), key=lambda r: r.fun).x


def _central_difference(fun, z: np.ndarray, h: float = 1e-6) -> np.ndarray:
    grad = np.empty_like(z)
    for k in range(z.size):
        step = np.zeros_like(z)
        step[k] = h
        grad[k] = (fun(z + step) - fun(z - step)) / (2.0 * h)
    return grad


class TestLogisticObjective:
    @pytest.mark.parametrize("sized", [False, True], ids=["single", "sized"])
    def test_gradient_matches_central_differences(self, sized):
        if sized:
            mu_std, probs, log_sizes = _objective_inputs(*_synthetic_sized(0.5, 0.01, 12))
        else:
            mu_std, probs, log_sizes = _objective_inputs(*_synthetic_single("monotone"))
        n_params = 4 if sized else 3
        rng = np.random.default_rng(20)
        points = list(rng.normal(0.0, 1.5, (20, n_params)))
        # Steep curves: exp(-rate * mu_std) overflows a double at both ends
        # of the data when evaluated directly.
        for z1 in (7.0, 9.0):
            z = np.zeros(n_params)
            z[1] = z1
            points.append(z)
            assert np.exp(z1) * np.abs(mu_std).max() > np.log(np.finfo(float).max)
        for z in points:
            value, grad = _logistic_objective(z, mu_std, probs, log_sizes)
            fd = _central_difference(
                lambda x: _logistic_objective(x, mu_std, probs, log_sizes)[0], z)
            assert np.isfinite(value)
            assert np.linalg.norm(grad - fd) <= 1e-6 * np.linalg.norm(grad)

    @pytest.mark.parametrize("case", SINGLE_CASES)
    def test_single_fit_matches_nelder_mead(self, case, starts):
        mu, probs = _synthetic_single(case)
        fit_generalized_logistic(mu, probs)
        self._check_against_nelder_mead(starts, _objective_inputs(mu, probs))

    @pytest.mark.parametrize("power,noise,seed", SIZED_CASES)
    def test_sized_fit_matches_nelder_mead(self, power, noise, seed, starts):
        mu, probs, sizes = _synthetic_sized(power, noise, seed)
        fit_generalized_logistic_n(mu, probs, sizes)
        self._check_against_nelder_mead(starts, _objective_inputs(mu, probs, sizes))

    @staticmethod
    def _check_against_nelder_mead(record, inputs):
        # A derivative-free search of the same objective from the same starts
        # lands on the same optimum.
        def value(z):
            return _logistic_objective(z, *inputs)[0]

        reference = min(
            (minimize(value, x0, method="Nelder-Mead",
                      options={"maxiter": 20_000, "xatol": 1e-10, "fatol": 1e-13})
             for x0, _ in record),
            key=lambda r: r.fun)
        assert reference.success
        np.testing.assert_allclose(_best_z(record), reference.x, rtol=0.0, atol=1e-5)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_no_floating_point_warnings(self):
        for case in SINGLE_CASES:
            fit_generalized_logistic(*_synthetic_single(case))
        for args in SIZED_CASES:
            fit_generalized_logistic_n(*_synthetic_sized(*args))
        # A near step at large study sizes drives the search far out.
        mu = np.linspace(-1.0, 1.0, 40)
        step = (mu > 0.0).astype(float)
        fit_generalized_logistic(mu, step)
        fit_generalized_logistic_n(mu, step, np.full(40, 10_000.0))

    def test_single_size_fit_work_is_bounded(self, starts):
        # Seven quasi-Newton searches on the analytic gradient; the
        # derivative-free searches this replaced took about 3,000 evaluations.
        fit_generalized_logistic(*_synthetic_single("recovers"))
        assert len(starts) == 7
        assert all(res.success for _, res in starts)
        assert sum(res.nfev for _, res in starts) <= 600


class TestVarianceCurve:
    def test_recovers_synthetic_decay(self):
        rng = np.random.default_rng(16)
        prior_var = 4.0e8
        floor, half_life = 0.3 * prior_var, 40.0
        sizes = np.linspace(5.0, 400.0, 30)
        y = floor + (prior_var - floor) * half_life / (sizes + half_life)
        y = y * (1.0 + rng.normal(0.0, 0.01, 30))
        fit = fit_variance_curve(y, sizes, prior_var)
        assert fit.floor == pytest.approx(floor, rel=0.1)
        assert fit.half_life == pytest.approx(half_life, rel=0.1)

    def test_zero_size_returns_prior_variance(self):
        fit = fit_variance_curve([3.0, 2.0, 1.5], [10.0, 30.0, 90.0], 4.0)
        assert fit.posterior_variance(0) == pytest.approx(4.0)
        assert fit.variance_reduction(0) == pytest.approx(0.0, abs=1e-9)

    def test_uninformative_study_fits_flat(self):
        sizes = np.array([10.0, 50.0, 100.0, 200.0])
        fit = fit_variance_curve(np.full(4, 2.0), sizes, 2.0)
        np.testing.assert_allclose(fit.posterior_variance(sizes), 2.0, rtol=1e-6)
        np.testing.assert_allclose(fit.variance_reduction(sizes), 0.0, atol=1e-6)

    def test_reduction_clipped_to_prior_range(self):
        fit = fit_variance_curve([3.0, 2.0, 1.0], [10.0, 50.0, 200.0], 4.0)
        red = fit.variance_reduction(np.array([0.0, 10.0, 1e9]))
        assert np.all(red >= 0.0) and np.all(red <= 4.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_variance_curve([1.0, 2.0], [10.0, 20.0], 4.0)
        with pytest.raises(ValueError):
            fit_variance_curve([1.0, 2.0, 3.0], [10.0, 20.0, 30.0], 0.0)
