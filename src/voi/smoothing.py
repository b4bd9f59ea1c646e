"""Penalized cubic regression splines with GCV-chosen smoothing.

Used to estimate a conditional expectation E[y | x] of one feature over a
Monte Carlo sample.  The feature gets a cubic B-spline basis with knots at
its sample quantiles and a second-order difference penalty on the
coefficients.  The smoothing weight is picked by minimising generalized
cross validation over a logarithmic grid, which only needs one p x p
eigensystem-free solve per grid point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SmoothFit", "fit_pspline"]

_DEGREE = 3
# Interior knots, at sample quantiles.
_N_KNOTS = 20


@dataclass(frozen=True)
class SmoothFit:
    """Fitted values of the penalized regression at the training points."""

    fitted: np.ndarray
    residual_var: float
    edf: float
    lam: float


def _knots(x: np.ndarray, count: int) -> np.ndarray | None:
    """Knot vector of one feature's cubic B-spline basis; None if the feature is constant.

    The interior knots sit at ``count`` sample quantiles, ties merged; each
    end of the range is repeated degree + 1 times.
    """
    lo, hi = float(x.min()), float(x.max())
    if not hi > lo:
        return None
    probs = np.linspace(0.0, 1.0, count + 2)[1:-1]
    interior = np.unique(np.quantile(x, probs))
    interior = interior[(interior > lo) & (interior < hi)]
    return np.concatenate([np.full(_DEGREE + 1, lo), interior, np.full(_DEGREE + 1, hi)])


def _basis_block(x: np.ndarray, knots: int | np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray | None:
    """Cubic B-spline design for one feature, one column per basis function.

    ``knots`` is a knot vector from :func:`_knots`, or the number of interior
    knots to place by it; None if the feature is then constant.  ``out``, an
    (n, basis size) array of zeros, takes the values; without it the block is
    allocated.
    """
    t = _knots(x, knots) if np.ndim(knots) == 0 else knots
    if t is None:
        return None
    n_basis = t.size - _DEGREE - 1
    # Knot span of each point, t[span] <= x < t[span + 1]; x == hi closes the last.
    span = np.clip(np.searchsorted(t, x, side="right") - 1, _DEGREE, n_basis - 1)
    # The degree + 1 functions nonzero on each span, by the Cox-de Boor
    # recursion (Piegl & Tiller, The NURBS Book, algorithm A2.2), each
    # function's values over all points in one row.
    steps = np.arange(1, _DEGREE + 1)[:, None]
    left = x - t[span + 1 - steps]
    right = t[span + steps] - x
    values = np.empty((_DEGREE + 1, x.size))
    values[0] = 1.0
    for j in range(1, _DEGREE + 1):
        saved = 0.0
        for r in range(j):
            temp = values[r] / (right[r] + left[j - 1 - r])
            values[r] = saved + right[r] * temp
            saved = left[j - 1 - r] * temp
        values[j] = saved
    if out is None:
        out = np.zeros((x.size, n_basis))
    rows = np.arange(x.size)
    span -= _DEGREE
    for r in range(_DEGREE + 1):
        out[rows, span + r] = values[r]
    return out


def fit_pspline(x: np.ndarray, y: np.ndarray, n_lambdas: int = 31) -> SmoothFit:
    """Fit a penalized cubic spline of ``y`` on the vector ``x``.

    Returns fitted values at the training points.  With ``x`` constant the
    fit is the sample mean.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    n = y.size
    if x.shape != (n,):
        raise ValueError("x and y must be vectors of the same length")
    y_mean = float(y.mean())
    yc = y - y_mean

    knots = _knots(x, _N_KNOTS)
    if knots is None:
        resid = float(yc @ yc / max(n - 1, 1))
        return SmoothFit(fitted=np.full(n, y_mean), residual_var=resid, edf=1.0, lam=0.0)

    # One design: an intercept, then the basis, centred so that it is
    # orthogonal to the intercept.  Second differences of the basis
    # coefficients are penalized.
    size = knots.size - _DEGREE - 1
    p = 1 + size
    design = np.zeros((n, p))
    design[:, 0] = 1.0
    block = _basis_block(x, knots, out=design[:, 1:])
    block -= block.mean(axis=0)
    penalty = np.zeros((p, p))
    d = np.diff(np.eye(size), n=2, axis=0)  # no rows below three columns
    penalty[1:, 1:] = d.T @ d

    gram = design.T @ design
    rhs = design.T @ yc
    yty = float(yc @ yc)
    # A small ridge removes the null directions shared by the centering and
    # the difference penalty without influencing the fit.
    ridge = 1e-8 * np.trace(gram) / p * np.eye(p)

    scale = np.trace(gram) / max(np.trace(penalty), 1e-12)
    lambdas = scale * np.logspace(-6.0, 6.0, n_lambdas)

    best = None
    for lam in lambdas:
        system = gram + lam * penalty + ridge
        try:
            inv_chol = np.linalg.inv(np.linalg.cholesky(system))
        except np.linalg.LinAlgError:
            continue
        # system^-1 = inv_chol.T @ inv_chol
        beta = inv_chol.T @ (inv_chol @ rhs)
        rss = yty - 2.0 * float(beta @ rhs) + float(beta @ (gram @ beta))
        rss = max(rss, 0.0)
        edf = float(np.sum((inv_chol @ gram) * inv_chol))
        denom = max(n - edf, 1.0)
        gcv = n * rss / denom**2
        if best is None or gcv < best[0]:
            best = (gcv, lam, beta, rss, edf)
    if best is None:
        raise np.linalg.LinAlgError("penalized spline system could not be factorised")

    _, lam, beta, rss, edf = best
    fitted = y_mean + design @ beta
    residual_var = rss / max(n - edf, 1.0)
    return SmoothFit(fitted=fitted, residual_var=float(residual_var), edf=edf, lam=float(lam))
