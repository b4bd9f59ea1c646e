"""Generalized logistic and variance-decay curve fitting."""

import math

import numpy as np
import pytest
from scipy.optimize import least_squares, minimize

import voi.curves as curves
from voi.cli import run_config
from voi.curves import (
    FitError,
    LogisticFit,
    _logistic_value,
    fit_generalized_logistic,
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
        fit = fit_generalized_logistic(mu, probs, sizes)
        assert fit.size_power == pytest.approx(0.5, abs=0.15)

    def test_recovers_size_independence(self):
        mu, probs, sizes, _ = self._synthetic(power=0.0, noise=0.01, seed=13)
        fit = fit_generalized_logistic(mu, probs, sizes)
        assert fit.size_power == pytest.approx(0.0, abs=0.1)

    def test_more_data_sharpens_the_curve(self):
        mu, probs, sizes, _ = self._synthetic(power=0.5, noise=0.005, seed=14)
        fit = fit_generalized_logistic(mu, probs, sizes)
        above = fit.center + fit.scale
        preds = [fit.predict(above, n=n) for n in (10, 50, 200, 1000)]
        assert np.all(np.diff(preds) >= -1e-9)

    def test_sized_fit_requires_n_at_prediction(self):
        mu, probs, sizes, _ = self._synthetic(power=0.5, noise=0.01, seed=15)
        fit = fit_generalized_logistic(mu, probs, sizes)
        with pytest.raises(ValueError):
            fit.predict(0.0)

    def test_size_validation(self):
        with pytest.raises(ValueError):
            fit_generalized_logistic([0.0, 1.0, 2.0, 3.0],
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
def searches(monkeypatch):
    """Record the result of every search the logistic fit runs."""
    record = []
    search = curves.minimize

    def recording(*args, **kwargs):
        record.append(search(*args, **kwargs))
        return record[-1]

    monkeypatch.setattr(curves, "minimize", recording)
    return record


STUDIES = [1, 2, 3]
CALIBRATION_GRID = [10, 60, 100, 150, 200]


@pytest.fixture(scope="module")
def calibration(case):
    """The inputs of every logistic fit that ``voi run --method mm`` makes on
    the shipped config at reduced settings: per form and study, the (INB,
    probability[, size]) pairs of the calibration datasets."""
    config = case.override(method="mm", psa_samples=2000, posterior_draws=1000,
                           quantile_sets=20, n_grid=CALIBRATION_GRID, seed=7)
    _, mm_results, scans = run_config(config)
    target = config.market.target
    sizes = np.rint(np.linspace(min(CALIBRATION_GRID), max(CALIBRATION_GRID),
                                config.quantile_sets))
    pairs = {("single", k): (*r.summaries.toward(target), None) for k, r in mm_results.items()}
    pairs.update({("sized", k): (*scan.summaries.toward(target), sizes)
                  for k, scan in scans.items()})
    return pairs


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
            value, derivatives = _logistic_value(z, mu_std, probs, log_sizes)
            grad = derivatives()[0]
            fd = _central_difference(
                lambda x: _logistic_value(x, mu_std, probs, log_sizes)[0], z)
            assert np.isfinite(value)
            assert np.linalg.norm(grad - fd) <= 1e-6 * np.linalg.norm(grad)

    @pytest.mark.parametrize("sized", [False, True], ids=["single", "sized"])
    def test_hessian_matches_central_differences_at_the_optimum(self, sized, searches):
        # At the fitted optimum the Hessian is positive definite, so the
        # search gets the full one, not its Gauss-Newton part.
        if sized:
            mu, probs, sizes = _synthetic_sized(0.5, 0.01, 12)
            fit_generalized_logistic(mu, probs, sizes)
            inputs = _objective_inputs(mu, probs, sizes)
        else:
            mu, probs = _synthetic_single("monotone")
            fit_generalized_logistic(mu, probs)
            inputs = _objective_inputs(mu, probs)
        (res,) = searches
        z = res.x
        hessian = _logistic_value(z, *inputs)[1]()[1]
        fd = np.column_stack([_central_difference(
            lambda x, k=k: _logistic_value(x, *inputs)[1]()[0][k], z) for k in range(z.size)])
        np.testing.assert_allclose(hessian, fd, rtol=0.0, atol=1e-6 * np.abs(fd).max())

    @pytest.mark.parametrize("case", SINGLE_CASES)
    def test_single_fit_matches_nelder_mead(self, case, searches):
        mu, probs = _synthetic_single(case)
        fit_generalized_logistic(mu, probs)
        self._check_against_nelder_mead(searches, _objective_inputs(mu, probs))

    @pytest.mark.parametrize("power,noise,seed", SIZED_CASES)
    def test_sized_fit_matches_nelder_mead(self, power, noise, seed, searches):
        mu, probs, sizes = _synthetic_sized(power, noise, seed)
        fit_generalized_logistic(mu, probs, sizes)
        self._check_against_nelder_mead(searches, _objective_inputs(mu, probs, sizes))

    @pytest.mark.parametrize("study", STUDIES)
    @pytest.mark.parametrize("form", ["single", "sized"])
    def test_calibration_fit_matches_nelder_mead(self, calibration, form, study, searches):
        mu, probs, sizes = calibration[form, study]
        fit_generalized_logistic(mu, probs, sizes)
        self._check_against_nelder_mead(searches, _objective_inputs(mu, probs, sizes))

    @staticmethod
    def _check_against_nelder_mead(record, inputs):
        # A derivative-free search of the same objective, from the fixed
        # starts of the former multi-start fit (each with two size powers in
        # the sized form) and three random ones, finds the fit's optimum.
        mu_std, probs, log_sizes = inputs
        order = np.argsort(mu_std)
        p_mid = min(max(float(np.interp(0.0, mu_std[order], probs[order])), 0.02), 0.98)
        a0 = math.log(max(1.0 / p_mid - 1.0, 1e-3))
        starts = [[a0, 0.0, 0.0], [a0, math.log(0.5), 0.0], [a0, math.log(2.0), 0.0],
                  [-2.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        if log_sizes is not None:
            starts = [s + [u0] for s in starts for u0 in (0.0, 0.5)]
        starts += list(np.random.default_rng(30).normal(0.0, 1.0, (3, len(starts[0]))))

        def value(z):
            return _logistic_value(z, *inputs)[0]

        reference = min(
            (minimize(value, x0, method="Nelder-Mead",
                      options={"maxiter": 20_000, "xatol": 1e-10, "fatol": 1e-13})
             for x0 in starts),
            key=lambda r: r.fun)
        (res,) = record
        assert reference.success and res.success
        np.testing.assert_allclose(res.x, reference.x, rtol=0.0, atol=1e-5)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_no_floating_point_warnings(self):
        for case in SINGLE_CASES:
            fit_generalized_logistic(*_synthetic_single(case))
        for args in SIZED_CASES:
            fit_generalized_logistic(*_synthetic_sized(*args))
        # A near step at large study sizes drives the search far out.
        mu = np.linspace(-1.0, 1.0, 40)
        step = (mu > 0.0).astype(float)
        fit_generalized_logistic(mu, step)
        fit_generalized_logistic(mu, step, np.full(40, 10_000.0))

    @pytest.mark.parametrize("form", ["single", "sized"])
    def test_fit_is_one_converged_search(self, form, calibration, searches):
        # One Levenberg-Marquardt search on the analytic Hessian from the
        # anchored start; the derivative-free searches this replaced took
        # about 3,000 evaluations.
        if form == "single":
            inputs = [(*_synthetic_single(case), None) for case in SINGLE_CASES]
        else:
            inputs = [_synthetic_sized(*args) for args in SIZED_CASES]
        inputs += [calibration[form, k] for k in STUDIES]
        for mu, probs, sizes in inputs:
            searches.clear()
            fit_generalized_logistic(mu, probs, sizes)
            (res,) = searches
            assert res.success and res.nfev <= 80


def _least_squares_cost(y: np.ndarray, sizes: np.ndarray, prior_var: float) -> float:
    """The best cost of scipy's bounded least squares from the two starts the
    fit once searched from, the usual one and the no-decay curve."""
    def resid(params):
        floor, half_life = params
        return floor + (prior_var - floor) * half_life / (sizes + half_life) - y

    starts = ([min(max(y.min(), 0.0), prior_var), max(float(np.median(sizes)), 1.0)],
              [min(max(y.mean(), 0.0), prior_var), 1e-9])
    return min(least_squares(resid, x0, bounds=([0.0, 1e-9], [prior_var, 1e12]),
                             ftol=1e-12, xtol=1e-12, gtol=1e-12).cost for x0 in starts)


def _variance_cases() -> dict:
    """The TestVarianceCurve inputs, then 20 seeded flat-noise and decaying ones."""
    sizes = np.rint(np.linspace(10.0, 200.0, 50))
    decay_sizes = np.linspace(5.0, 400.0, 30)
    cases = {
        "synthetic_decay": (4.0e8 * (0.3 + 0.7 * 40.0 / (decay_sizes + 40.0))
                            * (1.0 + np.random.default_rng(16).normal(0.0, 0.01, 30)),
                            decay_sizes, 4.0e8),
        "three_points": (np.array([3.0, 2.0, 1.5]), np.array([10.0, 30.0, 90.0]), 4.0),
        "clipped": (np.array([3.0, 2.0, 1.0]), np.array([10.0, 50.0, 200.0]), 4.0),
        "flat": (np.full(4, 2.0), np.array([10.0, 50.0, 100.0, 200.0]), 2.0),
        "flat_noise_271": (4.7e6 * (1.0 + np.random.default_rng(271).normal(0.0, 0.05, 50)),
                           sizes, 4.7e6),
        "biased_noise_97": (4.7e6 * (1.01 + np.random.default_rng(97).normal(0.0, 0.05, 50)),
                            sizes, 4.7e6),
    }
    for seed in range(5):
        cases[f"flat_noise_{seed}"] = (
            4.7e6 * (1.0 + np.random.default_rng(seed).normal(0.0, 0.05, 50)), sizes, 4.7e6)
    for seed in range(100, 110):
        rng = np.random.default_rng(seed)
        cases[f"flat_noise_{seed}"] = (
            4.7e6 * (1.0 + rng.uniform(-0.02, 0.02) + rng.normal(0.0, 0.05, 50)), sizes, 4.7e6)
    for seed in range(200, 210):
        rng = np.random.default_rng(seed)
        floor, half_life = rng.uniform(0.05, 0.9), rng.uniform(2.0, 150.0)
        clean = 1.0e8 * (floor + (1.0 - floor) * half_life / (sizes + half_life))
        cases[f"decaying_{seed}"] = (clean * (1.0 + rng.normal(0.0, 0.03, 50)), sizes, 1.0e8)
    return cases


VARIANCE_CASES = _variance_cases()


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

    def test_flat_noise_fit_ignores_last_digit(self):
        # Posterior variances of an arm the study cannot inform: noise around
        # the prior variance.  On these data a local search from the usual
        # start stops at a decaying curve for one input and at the flat one
        # for the other.
        prior_var = 4.7e6
        sizes = np.rint(np.linspace(10.0, 200.0, 50))
        y = prior_var * (1.0 + np.random.default_rng(271).normal(0.0, 0.05, 50))
        fit = fit_variance_curve(y, sizes, prior_var)
        again = fit_variance_curve(y * (1.0 + 1e-15), sizes, prior_var)
        assert fit.half_life < 1e-8 and again.half_life < 1e-8
        assert fit.floor == pytest.approx(min(y.mean(), prior_var), rel=1e-9)
        assert again.floor == pytest.approx(fit.floor, rel=1e-9)
        assert again.variance_reduction(10.0) == pytest.approx(
            fit.variance_reduction(10.0), rel=1e-6)

    def test_shallow_decaying_minimum_ignores_last_digit(self):
        # Biased flat noise: from the usual start a local search stops at a
        # shallow decaying minimum for one input and far from any for the
        # same input changed in the last digit.
        prior_var = 4.7e6
        sizes = np.rint(np.linspace(10.0, 200.0, 50))
        y = prior_var * (1.01 + np.random.default_rng(97).normal(0.0, 0.05, 50))
        fit = fit_variance_curve(y, sizes, prior_var)
        again = fit_variance_curve(y * (1.0 + 1e-15), sizes, prior_var)
        assert again.variance_reduction(10.0) == pytest.approx(
            fit.variance_reduction(10.0), abs=1e-3 * prior_var)
        # The same decaying minimum (a local search from the usual start ends
        # at half-lives 3.0 and 31,758).
        assert again.half_life == pytest.approx(fit.half_life, rel=0.25)

    def test_shallow_decaying_minimum_settles_in_the_last_digits(self):
        # The same inputs as above: both fits end at the bottom of the
        # decaying minimum, not merely near it.
        prior_var = 4.7e6
        sizes = np.rint(np.linspace(10.0, 200.0, 50))
        y = prior_var * (1.01 + np.random.default_rng(97).normal(0.0, 0.05, 50))
        fit = fit_variance_curve(y, sizes, prior_var)
        again = fit_variance_curve(y * (1.0 + 1e-15), sizes, prior_var)
        assert again.variance_reduction(10.0) == pytest.approx(
            fit.variance_reduction(10.0), abs=1e-5 * prior_var)

    @pytest.mark.parametrize("seed", range(5))
    def test_never_worse_than_no_decay(self, seed):
        prior_var = 4.7e6
        sizes = np.rint(np.linspace(10.0, 200.0, 50))
        y = prior_var * (1.0 + np.random.default_rng(seed).normal(0.0, 0.05, 50))
        fit = fit_variance_curve(y, sizes, prior_var)
        cost = float(np.sum((fit.posterior_variance(sizes) - y) ** 2))
        flat = float(np.sum((min(y.mean(), prior_var) - y) ** 2))
        assert cost <= flat * (1.0 + 1e-9)

    def test_reduction_clipped_to_prior_range(self):
        fit = fit_variance_curve([3.0, 2.0, 1.0], [10.0, 50.0, 200.0], 4.0)
        red = fit.variance_reduction(np.array([0.0, 10.0, 1e9]))
        assert np.all(red >= 0.0) and np.all(red <= 4.0)

    @pytest.mark.parametrize("case", sorted(VARIANCE_CASES))
    def test_cost_no_worse_than_scipy_least_squares(self, case):
        y, sizes, prior_var = VARIANCE_CASES[case]
        fit = fit_variance_curve(y, sizes, prior_var)
        resid = fit.posterior_variance(sizes) - y
        # Both ends sit at the same minimum; the slack is the rounding of a
        # sum of squares, which differs by up to 1.4e-14 relative here.
        assert 0.5 * float(resid @ resid) <= _least_squares_cost(y, sizes, prior_var) * (
            1.0 + 1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_variance_curve([1.0, 2.0], [10.0, 20.0], 4.0)
        with pytest.raises(ValueError):
            fit_variance_curve([1.0, 2.0, 3.0], [10.0, 20.0, 30.0], 0.0)
