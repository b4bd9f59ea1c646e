"""Penalized spline smoother used for conditional expectation estimates."""

import numpy as np
import pytest
from scipy.interpolate import BSpline

from voi.smoothing import _basis_block, fit_pspline


def _r2(fitted: np.ndarray, truth: np.ndarray) -> float:
    resid = truth - fitted
    return 1.0 - resid.var() / truth.var()


def test_recovers_a_line_exactly():
    x = np.linspace(0.0, 1.0, 400)
    y = 2.0 * x + 1.0
    fit = fit_pspline(x, y)
    assert _r2(fit.fitted, y) > 0.9999
    assert fit.residual_var == pytest.approx(0.0, abs=1e-6)


def test_recovers_a_smooth_curve_under_noise():
    rng = np.random.default_rng(3)
    x = rng.uniform(0.0, 1.0, 2000)
    truth = np.sin(2.0 * np.pi * x)
    y = truth + rng.normal(0.0, 0.3, x.size)
    fit = fit_pspline(x, y)
    rmse = np.sqrt(np.mean((fit.fitted - truth) ** 2))
    assert rmse < 0.1
    assert fit.residual_var == pytest.approx(0.09, rel=0.15)


def test_additive_two_feature_surface():
    rng = np.random.default_rng(4)
    x = rng.uniform(0.0, 1.0, (2000, 2))
    truth = x[:, 0] ** 2 + 3.0 * x[:, 1]
    y = truth + rng.normal(0.0, 0.2, 2000)
    fit = fit_pspline(x, y)
    rmse = np.sqrt(np.mean((fit.fitted - truth) ** 2))
    assert rmse < 0.07


def test_constant_feature_returns_the_mean():
    y = np.array([1.0, 2.0, 3.0, 4.0])
    fit = fit_pspline(np.ones(4), y)
    np.testing.assert_allclose(fit.fitted, 2.5)


def test_smoothing_contracts_variance():
    rng = np.random.default_rng(5)
    x = rng.uniform(0.0, 1.0, 1000)
    y = rng.normal(0.0, 1.0, 1000)  # pure noise: nothing to explain
    fit = fit_pspline(x, y)
    assert fit.fitted.var() < 0.2 * y.var()


def test_effective_dof_between_line_and_interpolation():
    rng = np.random.default_rng(6)
    x = rng.uniform(0.0, 1.0, 800)
    y = np.sin(2.0 * np.pi * x) + rng.normal(0.0, 0.1, 800)
    fit = fit_pspline(x, y)
    assert 2.0 < fit.edf < 80.0


def _scipy_design(x: np.ndarray, n_knots: int) -> np.ndarray:
    """The same design from scipy's B-spline, on the same knots."""
    lo, hi = x.min(), x.max()
    interior = np.unique(np.quantile(x, np.linspace(0.0, 1.0, n_knots + 2)[1:-1]))
    interior = interior[(interior > lo) & (interior < hi)]
    t = np.concatenate([np.full(4, lo), interior, np.full(4, hi)])
    return BSpline.design_matrix(x, t, 3, extrapolate=False).toarray()


BASIS_CASES = {
    "random": np.random.default_rng(7).normal(0.0, 1.0, 10_000),
    # Repeated values collapse the 20 quantile knots under np.unique to
    # interior knots 1, ..., 6 and 1, 2, 3, each of them a data point.
    "on_knots": np.repeat(np.arange(8.0), 50),
    "collapsed": np.random.default_rng(8).integers(0, 5, 600).astype(float),
    "two_values": np.array([0.0, 1.0, 0.0, 1.0, 1.0]),
    "few_points": np.random.default_rng(9).uniform(0.0, 1.0, 7),
}


@pytest.mark.parametrize("case", sorted(BASIS_CASES))
def test_basis_matches_scipy_design_matrix(case):
    x = BASIS_CASES[case]
    design = _basis_block(x, 20)
    np.testing.assert_allclose(design, _scipy_design(x, 20), rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(design.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
    # x == lo and x == hi, data points in every case, take the end functions.
    np.testing.assert_allclose(design[x == x.min(), 0], 1.0, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(design[x == x.max(), -1], 1.0, rtol=0.0, atol=1e-12)
    if case in ("on_knots", "collapsed"):
        assert design.shape[1] == len(np.unique(x)) - 2 + 4
