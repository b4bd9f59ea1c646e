"""Penalized cubic regression splines with GCV-chosen smoothing.

Used to estimate conditional expectations E[y | x] over a Monte Carlo sample.
Each feature gets a cubic B-spline basis with knots at its sample quantiles
and a second-order difference penalty on the coefficients; several features
combine additively.  The smoothing weight is picked by minimising generalized
cross validation over a logarithmic grid, which only needs one p x p
eigensystem-free solve per grid point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SmoothFit", "fit_pspline"]

_DEGREE = 3


@dataclass(frozen=True)
class SmoothFit:
    """Fitted values of the penalized regression at the training points."""

    fitted: np.ndarray
    residual_var: float
    edf: float
    lam: float


def _basis_block(x: np.ndarray, n_knots: int) -> np.ndarray | None:
    """Cubic B-spline design for one feature; None if the feature is constant."""
    lo, hi = float(x.min()), float(x.max())
    if not hi > lo:
        return None
    probs = np.linspace(0.0, 1.0, n_knots + 2)[1:-1]
    interior = np.unique(np.quantile(x, probs))
    interior = interior[(interior > lo) & (interior < hi)]
    t = np.concatenate([np.full(_DEGREE + 1, lo), interior, np.full(_DEGREE + 1, hi)])
    n_basis = t.size - _DEGREE - 1
    # Knot span of each point, t[span] <= x < t[span + 1]; x == hi closes the last.
    span = np.clip(np.searchsorted(t, x, side="right") - 1, _DEGREE, n_basis - 1)
    # The degree + 1 functions nonzero on each span, by the Cox-de Boor
    # recursion (Piegl & Tiller, The NURBS Book, algorithm A2.2).
    steps = np.arange(1, _DEGREE + 1)
    left = x[:, None] - t[span[:, None] + 1 - steps]
    right = t[span[:, None] + steps] - x[:, None]
    values = np.ones((x.size, 1))
    for j in steps:
        lj, rj = left[:, j - 1::-1], right[:, :j]
        temp = values / (rj + lj)
        values = np.pad(rj * temp, ((0, 0), (0, 1))) + np.pad(lj * temp, ((0, 0), (1, 0)))
    design = np.zeros((x.size, n_basis))
    np.put_along_axis(design, span[:, None] - _DEGREE + np.arange(_DEGREE + 1), values, axis=1)
    return design


def fit_pspline(x: np.ndarray, y: np.ndarray, n_knots: int = 20,
                n_lambdas: int = 31) -> SmoothFit:
    """Fit an additive penalized cubic spline of ``y`` on the columns of ``x``.

    ``x`` may be a vector (one feature) or an (n, k) matrix.  Returns fitted
    values at the training points.  With every feature constant the fit is the
    sample mean.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    n = y.size
    if x.shape[0] != n:
        raise ValueError("x and y must have the same number of rows")
    y_mean = float(y.mean())
    yc = y - y_mean

    blocks = [_basis_block(x[:, j], n_knots) for j in range(x.shape[1])]
    blocks = [b for b in blocks if b is not None]
    if not blocks:
        resid = float(yc @ yc / max(n - 1, 1))
        return SmoothFit(fitted=np.full(n, y_mean), residual_var=resid, edf=1.0, lam=0.0)

    # Center each block so the additive pieces are orthogonal to the
    # intercept, then penalize second differences within each block.
    design = np.hstack([np.ones((n, 1))] + [b - b.mean(axis=0) for b in blocks])
    sizes = [b.shape[1] for b in blocks]
    p = design.shape[1]
    penalty = np.zeros((p, p))
    offset = 1
    for size in sizes:
        d = np.diff(np.eye(size), n=2, axis=0)  # no rows below three columns
        penalty[offset:offset + size, offset:offset + size] = d.T @ d
        offset += size

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
