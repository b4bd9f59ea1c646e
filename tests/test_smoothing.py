"""Penalized spline smoother used for conditional expectation estimates."""

import tracemalloc

import numpy as np
import pytest
from scipy.interpolate import BSpline

from voi.smoothing import SmoothFit, _basis_block, fit_pspline


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


def _dense_fit(x: np.ndarray, y: np.ndarray, n_knots: int = 20, n_lambdas: int = 31) -> SmoothFit:
    """The fit as first written: a dense basis block, a centred copy of it,
    and one ``hstack`` with the intercept.  The reference for the in-place design."""
    y = np.asarray(y, dtype=float)
    n = y.size
    y_mean = float(y.mean())
    yc = y - y_mean
    block = _basis_block(np.asarray(x, dtype=float), n_knots)
    if block is None:
        resid = float(yc @ yc / max(n - 1, 1))
        return SmoothFit(fitted=np.full(n, y_mean), residual_var=resid, edf=1.0, lam=0.0)
    design = np.hstack([np.ones((n, 1)), block - block.mean(axis=0)])
    p = design.shape[1]
    penalty = np.zeros((p, p))
    d = np.diff(np.eye(p - 1), n=2, axis=0)
    penalty[1:, 1:] = d.T @ d
    gram = design.T @ design
    rhs = design.T @ yc
    yty = float(yc @ yc)
    ridge = 1e-8 * np.trace(gram) / p * np.eye(p)
    lambdas = np.trace(gram) / max(np.trace(penalty), 1e-12) * np.logspace(-6.0, 6.0, n_lambdas)
    best = None
    for lam in lambdas:
        try:
            inv_chol = np.linalg.inv(np.linalg.cholesky(gram + lam * penalty + ridge))
        except np.linalg.LinAlgError:
            continue
        beta = inv_chol.T @ (inv_chol @ rhs)
        rss = max(yty - 2.0 * float(beta @ rhs) + float(beta @ (gram @ beta)), 0.0)
        edf = float(np.sum((inv_chol @ gram) * inv_chol))
        gcv = n * rss / max(n - edf, 1.0) ** 2
        if best is None or gcv < best[0]:
            best = (gcv, lam, beta, rss, edf)
    _, lam, beta, rss, edf = best
    return SmoothFit(fitted=y_mean + design @ beta, residual_var=float(rss / max(n - edf, 1.0)),
                     edf=edf, lam=float(lam))


def _features(case: str) -> np.ndarray:
    rng = np.random.default_rng(10)
    beta = rng.beta(2.0, 5.0, 10_000)
    return {
        "one": beta,
        "all_constant": np.full(50, 0.4),
        "tied": rng.integers(0, 6, 2000).astype(float),
    }[case]


@pytest.mark.parametrize("case", ["one", "all_constant", "tied"])
def test_in_place_design_equals_the_dense_one(case):
    # Filling and centring the basis in its slice of one design does the
    # dense construction's arithmetic, so every output is bit for bit.
    x = _features(case)
    y = 3.0e4 * np.sin(3.0 * x) + np.random.default_rng(11).normal(0.0, 1.0e3, x.size)
    got, expected = fit_pspline(x, y), _dense_fit(x, y)
    assert np.array_equal(got.fitted, expected.fitted)
    assert (got.edf, got.lam, got.residual_var) == (expected.edf, expected.lam,
                                                     expected.residual_var)


def test_features_come_one_at_a_time():
    x = np.random.default_rng(13).uniform(0.0, 1.0, (100, 2))
    with pytest.raises(ValueError, match="vectors"):
        fit_pspline(x, x[:, 0])


def test_peak_memory_stays_near_the_design():
    # The design is the one large array a fit needs, next to the basis
    # recursion's few temporaries of one value per point; allocation sizes
    # do not depend on timing, so the traced peak is the same on every run.
    x = _features("one")
    y = np.random.default_rng(12).normal(0.0, 1.0, x.size)
    design_bytes = x.size * (1 + _basis_block(x, 20).shape[1]) * 8
    tracemalloc.start()
    try:
        fit_pspline(x, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= design_bytes + 20 * x.nbytes
