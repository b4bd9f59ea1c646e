"""Parametric curves fitted to nested-simulation summaries.

Two families are fitted here:

* A generalized logistic that maps a posterior mean incremental net benefit
  ``mu`` to the probability that the target treatment is best:

      h(mu) = (base + exp(-rate * mu_std)) ** (-shape)

  with ``mu_std`` the standardized input.  ``base >= 1``, ``rate > 0`` and
  ``shape > 0`` keep predictions inside (0, 1] and monotone nondecreasing.
  An optional across-sample-size form multiplies the exponent by
  ``n ** size_power`` so one curve covers a whole range of study sizes.
  One function, :func:`fit_generalized_logistic`, fits both forms: the
  second when it is given each point's size.  Fitting maximizes the
  Gaussian-residual posterior with Normal(0, 10^2) priors on the
  log-reparameterized coordinates, residual scale profiled out, by one
  bounded Levenberg-Marquardt search on the analytic Hessian (the
  Gauss-Newton one where the full Hessian is not positive definite) from a
  start anchored on the data's mid probability.

* A hyperbolic decay of average posterior variance with sample size,

      w(n) = floor + (prior_variance - floor) * half_life / (n + half_life),

  which equals the prior variance at n = 0 and tends to ``floor``; the
  variance-reduction target at size n is ``prior_variance - w(n)``.  For a
  given half-life the floor is linear least squares, so the fit searches the
  half-life alone, over a grid in its logarithm.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FitError",
    "LogisticFit",
    "VarianceCurveFit",
    "fit_generalized_logistic",
    "fit_variance_curve",
]

_PRIOR_VAR = 100.0  # Normal(0, 10^2) prior on each unconstrained coordinate
# Added to the residual sum of squares per point (a residual SD of 1e-7): it
# keeps the log finite and the objective smooth when the curve fits its
# points exactly, so the search converges there too; on noisy probabilities
# it moves the optimum by far less than the search tolerance.
_RSS_FLOOR = 1e-14
# Every coordinate stays within 5 prior SDs of zero, far beyond any optimum,
# so no exponential the objective forms can overflow; the size power's bound
# is scaled so that n ** size_power stays below exp(_Z_BOUND).
_Z_BOUND = 50.0


# The logistic search stops once no free coordinate's gradient exceeds _GTOL
# or a step lowers the value by less than _FTOL of its size; after _MAX_ITER
# steps it stops unconverged.
_GTOL, _FTOL, _MAX_ITER = 1e-8, 1e-13, 200
SearchResult = namedtuple("SearchResult", "x fun success nfev")


def minimize(fun, x0, args, bounds) -> SearchResult:
    """Levenberg-Marquardt search for a minimum in a box.

    ``fun(x, *args)`` returns the value and a function of no arguments that
    returns its gradient and a positive definite Hessian or an
    approximation; the search asks for them only at accepted points, and
    ``nfev`` counts values.  ``bounds`` has a ``(low, high)`` per coordinate.
    Coordinates at a bound whose gradient points out of the box stay there; the
    rest take the damped Newton step, clipped to the box.  The damping shrinks
    after a step that lowers the value and grows until one does.
    """
    low, high = np.array(bounds, dtype=float).T
    x = np.clip(np.asarray(x0, dtype=float), low, high)
    value, derivatives = fun(x, *args)
    grad, curv = derivatives()
    nfev, damping = 1, 1e-3
    for _ in range(_MAX_ITER):
        free = ~(((x <= low) & (grad > 0.0)) | ((x >= high) & (grad < 0.0)))
        if not np.isfinite(value) or np.max(np.abs(grad[free]), initial=0.0) <= _GTOL:
            break
        sub, g = curv[np.ix_(free, free)], grad[free]
        while damping < 1e16:
            step = np.zeros_like(x)
            step[free] = np.linalg.solve(sub + damping * np.diag(np.diag(sub)), -g)
            trial = np.clip(x + step, low, high)
            t_value, derivatives = fun(trial, *args)
            nfev += 1
            if t_value < value:
                break
            damping *= 8.0
        else:
            # No step lowers the value: x is a minimum to working precision.
            break
        done = value - t_value <= _FTOL * max(abs(value), abs(t_value), 1.0)
        x, value = trial, t_value
        if done:
            break
        grad, curv = derivatives()
        damping = max(damping / 8.0, 1e-12)
    else:
        return SearchResult(x=x, fun=float(value), success=False, nfev=nfev)
    return SearchResult(x=x, fun=float(value), success=bool(np.isfinite(value)), nfev=nfev)


class FitError(RuntimeError):
    """Raised when a curve fit fails to converge."""


@dataclass(frozen=True)
class LogisticFit:
    """A fitted generalized logistic curve.

    ``center`` and ``scale`` record the standardization applied to the inputs
    during fitting; :meth:`predict` applies the same transform.  ``size_power``
    is None for the single-sample-size form.
    """

    base: float
    rate: float
    shape: float
    resid_sd: float
    center: float
    scale: float
    size_power: float | None = None

    def __post_init__(self) -> None:
        if self.base < 1.0 or self.rate <= 0.0 or self.shape <= 0.0:
            raise ValueError("require base >= 1, rate > 0, shape > 0")
        if self.scale <= 0.0:
            raise ValueError("scale must be positive")

    def predict(self, mu, n=None):
        """Probability that the target treatment is best, given mu (and n)."""
        mu_std = (np.asarray(mu, dtype=float) - self.center) / self.scale
        if self.size_power is None:
            factor = 1.0
        else:
            if n is None:
                raise ValueError("this fit is indexed by sample size; pass n")
            factor = np.power(np.asarray(n, dtype=float), self.size_power)
        with np.errstate(over="ignore"):
            prob = (self.base + np.exp(-self.rate * factor * mu_std)) ** (-self.shape)
        prob = np.clip(prob, np.finfo(float).tiny, 1.0)
        if prob.ndim == 0:
            return float(prob)
        return prob


def _curve(z: np.ndarray, mu_std: np.ndarray, log_sizes: np.ndarray | None):
    """The curve at ``z`` with ``log(base + exp(a))`` and ``a``.

    ``z = (log(base - 1), log(rate), log(shape)[, size_power])`` and
    ``a = -rate * n ** size_power * mu_std``.  Evaluating the power through
    ``log(base + exp(a))`` keeps every intermediate finite.
    """
    a = -math.exp(z[1]) * mu_std
    if log_sizes is not None:
        a = a * np.exp(z[3] * log_sizes)
    log_sum = np.logaddexp(math.log1p(math.exp(z[0])), a)
    return np.exp(-math.exp(z[2]) * log_sum), log_sum, a


def _logistic_value(z: np.ndarray, mu_std: np.ndarray, probs: np.ndarray,
                    log_sizes: np.ndarray | None):
    """Negative log posterior of the curve at ``z``, and its derivatives on demand.

    Returns the value and a function of no arguments that returns the
    gradient and Hessian in ``z``, from the value's own intermediates.  The
    Hessian is the full one where that is positive definite, and the
    Gauss-Newton one, which drops the second derivatives of the curve and of
    ``log(rss)``, where it is not.
    """
    pred, log_sum, a = _curve(z, mu_std, log_sizes)
    resid = probs - pred
    n_points = probs.size
    rss = float(resid @ resid) + n_points * _RSS_FLOOR
    value = 0.5 * n_points * math.log(rss) + 0.5 * float(z @ z) / _PRIOR_VAR

    def derivatives():
        # d pred / d z_k = -shape * pred * d_k, with d_k the derivative of
        # log_sum in z_k, except d_2 = log_sum because d shape / d z_2 = shape.
        shape = math.exp(z[2])
        q0, w = np.exp(z[0] - log_sum), np.exp(a - log_sum)
        da = w * a  # d log_sum / d log(rate)
        derivs = [q0, da, log_sum]
        if log_sizes is not None:
            derivs.append(da * log_sizes)
        d = np.stack(derivs, axis=1)
        jac = d * (-shape * pred)[:, None]
        pull = resid @ jac
        grad = -(n_points / rss) * pull + z / _PRIOR_VAR
        gauss_newton = (n_points / rss) * (jac.T @ jac) + np.eye(z.size) / _PRIOR_VAR
        # d2 pred = shape * pred * (shape * d d' - m), with m the derivatives
        # of d: the Hessian of log_sum in (z_0, z_1[, z_3]), and d itself in
        # row and column 2.
        d11 = da * (1.0 + a * (1.0 - w))
        m = np.zeros((n_points, z.size, z.size))
        m[:, 0, 0], m[:, 1, 1] = q0 * (1.0 - q0), d11
        m[:, 0, 1] = m[:, 1, 0] = -q0 * da
        if log_sizes is not None:
            m[:, 0, 3] = m[:, 3, 0] = -q0 * da * log_sizes
            m[:, 1, 3] = m[:, 3, 1] = d11 * log_sizes
            m[:, 3, 3] = d11 * log_sizes**2
        m[:, :, 2] = m[:, 2, :] = d
        weights = resid * pred
        curve_terms = shape * (shape * (d.T * weights) @ d - np.tensordot(weights, m, axes=1))
        hessian = (gauss_newton - (n_points / rss) * curve_terms
                   - (2.0 * n_points / rss**2) * np.outer(pull, pull))
        try:
            np.linalg.cholesky(hessian)
        except np.linalg.LinAlgError:
            return grad, gauss_newton
        return grad, hessian

    return value, derivatives


def _standardize(values: np.ndarray) -> tuple[float, float]:
    center = float(values.mean())
    scale = float(values.std(ddof=1))
    if not scale > 0.0:
        scale = 1.0
    return center, scale


def fit_generalized_logistic(mu_values, probs, sizes=None) -> LogisticFit:
    """Fit the curve to (mu, probability) pairs, or with ``sizes`` to (mu, probability, n).

    Without ``sizes`` the fit is the single-sample-size curve; with one size
    per point it is the across-sample-size form, whose exponent carries
    ``n ** size_power``.  Raises :class:`FitError` when the search does not
    converge.
    """
    mu_values = np.asarray(mu_values, dtype=float)
    probs = np.asarray(probs, dtype=float)
    if mu_values.shape != probs.shape or mu_values.ndim != 1:
        raise ValueError("mu values and probabilities must be matching vectors")
    if mu_values.size < 4:
        raise ValueError("need at least four points to fit the curve")
    if np.any(probs < 0.0) or np.any(probs > 1.0):
        raise ValueError("probabilities must lie in [0, 1]")
    with_size = sizes is not None
    if with_size:
        sizes = np.asarray(sizes, dtype=float)
        if sizes.shape != mu_values.shape:
            raise ValueError("sizes must match mu values")
        if np.any(sizes < 1.0):
            raise ValueError("sample sizes must be at least 1")

    center, scale = _standardize(mu_values)
    mu_std = (mu_values - center) / scale
    n_points = mu_values.size
    log_sizes = np.log(sizes) if with_size else None

    # Heuristic anchor: with rate = shape = 1 the curve crosses
    # (base + 1)^-1 at the center, so match the empirical mid probability.
    order = np.argsort(mu_std)
    p_mid = float(np.interp(0.0, mu_std[order], probs[order]))
    p_mid = min(max(p_mid, 0.02), 0.98)
    a0 = math.log(max(1.0 / p_mid - 1.0, 1e-3))

    start, bounds = [a0, 0.0, 0.0], [(-_Z_BOUND, _Z_BOUND)] * 3
    if with_size:
        u_max = _Z_BOUND / max(1.0, float(log_sizes.max()))
        start, bounds = start + [0.0], bounds + [(-u_max, u_max)]
    res = minimize(_logistic_value, np.array(start), args=(mu_std, probs, log_sizes),
                   bounds=bounds)
    if not res.success:
        raise FitError("generalized logistic fit did not converge")

    z = res.x
    resid = probs - _curve(z, mu_std, log_sizes)[0]
    resid_sd = math.sqrt(float(resid @ resid) / n_points)
    return LogisticFit(
        base=1.0 + math.exp(z[0]),
        rate=math.exp(z[1]),
        shape=math.exp(z[2]),
        resid_sd=resid_sd,
        center=center,
        scale=scale,
        size_power=float(z[3]) if with_size else None,
    )


@dataclass(frozen=True)
class VarianceCurveFit:
    """Hyperbolic decay of average posterior variance with sample size."""

    floor: float
    half_life: float
    prior_variance: float

    def posterior_variance(self, n):
        n = np.asarray(n, dtype=float)
        w = self.floor + (self.prior_variance - self.floor) * self.half_life / (n + self.half_life)
        if w.ndim == 0:
            return float(w)
        return w

    def variance_reduction(self, n):
        """Target variance of the posterior mean net benefit at size n."""
        red = np.clip(self.prior_variance - self.posterior_variance(n), 0.0, self.prior_variance)
        if red.ndim == 0:
            return float(red)
        return red


def fit_variance_curve(posterior_variances, sizes, prior_variance: float) -> VarianceCurveFit:
    """Least-squares fit of the decay curve to per-dataset posterior variances."""
    y = np.asarray(posterior_variances, dtype=float)
    n = np.asarray(sizes, dtype=float)
    if y.shape != n.shape or y.ndim != 1 or y.size < 3:
        raise ValueError("need matching vectors of at least three (variance, size) pairs")
    v = float(prior_variance)
    if v <= 0.0:
        raise ValueError("prior_variance must be positive")

    # For half-life h the curve is floor * keep + v * (1 - keep), keep =
    # n / (n + h), linear in the floor, whose least-squares value is clipped
    # to [0, v].  Zoom in on the best half-life of a grid in log h over
    # [1e-9, 1e12] until the grid's step is far below any digit that matters.
    low, high, points = math.log(1e-9), math.log(1e12), 241
    while True:
        grid = np.linspace(low, high, points)
        h = np.exp(grid)[:, None]
        keep, decayed = n / (n + h), y - v * (h / (n + h))
        floor = np.clip(np.sum(keep * decayed, axis=1)
                        / np.maximum(np.sum(keep * keep, axis=1), 1e-300), 0.0, v)
        k = int(np.argmin(np.sum((floor[:, None] * keep - decayed) ** 2, axis=1)))
        if high - low < 1e-10:
            break
        low, high, points = grid[max(k - 1, 0)], grid[min(k + 1, points - 1)], 17
    return VarianceCurveFit(floor=float(floor[k]), half_life=float(math.exp(grid[k])),
                            prior_variance=v)
