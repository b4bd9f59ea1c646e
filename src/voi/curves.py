"""Parametric curves fitted to nested-simulation summaries.

Two families are fitted here:

* A generalized logistic that maps a posterior mean incremental net benefit
  ``mu`` to the probability that the target treatment is best:

      h(mu) = (base + exp(-rate * mu_std)) ** (-shape)

  with ``mu_std`` the standardized input.  ``base >= 1``, ``rate > 0`` and
  ``shape > 0`` keep predictions inside (0, 1] and monotone nondecreasing.
  An optional across-sample-size form multiplies the exponent by
  ``n ** size_power`` so one curve covers a whole range of study sizes.
  Fitting maximizes the Gaussian-residual posterior with Normal(0, 10^2)
  priors on the log-reparameterized coordinates, residual scale profiled out,
  by a bounded quasi-Newton search (L-BFGS-B) on the analytic gradient from
  several start points.

* A hyperbolic decay of average posterior variance with sample size,

      w(n) = floor + (prior_variance - floor) * half_life / (n + half_life),

  which equals the prior variance at n = 0 and tends to ``floor``; the
  variance-reduction target at size n is ``prior_variance - w(n)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares, minimize

from .rng import substream

__all__ = [
    "FitError",
    "LogisticFit",
    "VarianceCurveFit",
    "fit_generalized_logistic",
    "fit_generalized_logistic_n",
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


class FitError(RuntimeError):
    """Raised when a curve fit fails to converge from every start point."""


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


def _logistic_objective(z: np.ndarray, mu_std: np.ndarray, probs: np.ndarray,
                        log_sizes: np.ndarray | None) -> tuple[float, np.ndarray]:
    """Negative log posterior of the curve at ``z`` and its gradient in ``z``."""
    pred, log_sum, a = _curve(z, mu_std, log_sizes)
    resid = probs - pred
    n_points = probs.size
    rss = float(resid @ resid) + n_points * _RSS_FLOOR
    value = 0.5 * n_points * math.log(rss) + 0.5 * float(z @ z) / _PRIOR_VAR
    # d pred / d z_k = -shape * pred * d_k, with d_k the derivative of
    # log_sum in z_k, except d_2 = log_sum because d shape / d z_2 = shape.
    da = np.exp(a - log_sum) * a  # d log_sum / d log(rate)
    derivs = [np.exp(z[0] - log_sum), da, log_sum]
    if log_sizes is not None:
        derivs.append(da * log_sizes)
    weights = resid * pred
    scale = n_points * math.exp(z[2]) / rss
    grad = scale * np.array([float(weights @ d) for d in derivs])
    return value, grad + z / _PRIOR_VAR


def _standardize(values: np.ndarray) -> tuple[float, float]:
    center = float(values.mean())
    scale = float(values.std(ddof=1))
    if not scale > 0.0:
        scale = 1.0
    return center, scale


def _fit_logistic_core(mu_values, probs, sizes, seed: int, n_starts: int) -> LogisticFit:
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

    starts = [
        [a0, 0.0, 0.0],
        [a0, math.log(0.5), 0.0],
        [a0, math.log(2.0), 0.0],
        [-2.0, 0.0, 0.0],
        [0.0, 0.0, 0.0],
    ]
    bounds = [(-_Z_BOUND, _Z_BOUND)] * 3
    if with_size:
        starts = [s + [u0] for s in starts for u0 in (0.0, 0.5)]
        u_max = _Z_BOUND / max(1.0, float(log_sizes.max()))
        bounds.append((-u_max, u_max))
    rng = substream(seed, "logistic-fit")
    while len(starts) < max(n_starts, 5):
        starts.append(list(rng.normal(0.0, 1.0, len(bounds))))

    best = None
    for x0 in starts:
        res = minimize(_logistic_objective, np.array(x0, dtype=float),
                       args=(mu_std, probs, log_sizes), jac=True, method="L-BFGS-B",
                       bounds=bounds, options={"ftol": 1e-12, "gtol": 1e-8})
        if not res.success:
            continue
        if best is None or res.fun < best.fun:
            best = res
    if best is None:
        raise FitError("generalized logistic fit did not converge from any start")

    z = best.x
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


def fit_generalized_logistic(mu_values, probs, *, seed: int = 0, n_starts: int = 7) -> LogisticFit:
    """Fit the single-sample-size curve to (mu, probability) pairs."""
    return _fit_logistic_core(mu_values, probs, None, seed, n_starts)


def fit_generalized_logistic_n(mu_values, probs, sizes, *, seed: int = 0,
                               n_starts: int = 10) -> LogisticFit:
    """Fit the across-sample-size curve to (mu, probability, n) triples."""
    return _fit_logistic_core(mu_values, probs, sizes, seed, n_starts)


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

    def resid(params):
        floor, half_life = params
        return floor + (v - floor) * half_life / (n + half_life) - y

    x0 = np.array([min(max(float(y.min()), 0.0), v), max(float(np.median(n)), 1.0)])
    res = least_squares(resid, x0, bounds=([0.0, 1e-9], [v, 1e12]))
    if not res.success:
        raise FitError("variance curve fit did not converge")
    floor, half_life = res.x
    return VarianceCurveFit(floor=float(floor), half_life=float(half_life), prior_variance=v)
