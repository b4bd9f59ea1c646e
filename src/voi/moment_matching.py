"""Moment-matching estimation of the value of a study.

Instead of nesting a posterior sample inside every simulated dataset, this
method needs only a handful of carefully chosen datasets:

1. Build Q datasets whose generating parameters sit at the (q - 0.5) / Q
   marginal sample quantiles of the parameters the study informs, so the
   datasets sweep the informative range evenly.
2. Sample each dataset's posterior once and record, per treatment, the
   posterior mean net benefit, the probability of being best, and the
   posterior variance of net benefit.
3. Regress each treatment's net benefit on the informed parameters over the
   PSA sample (penalized splines, GCV smoothing).  The fitted values have the
   right conditional-mean shape but too little spread, so they are linearly
   rescaled to the variance the nested runs say posterior means should have:
   prior variance minus the average posterior variance.
4. The probability of being best is carried along by a generalized logistic
   fitted to the Q pairs of (posterior mean incremental net benefit,
   probability); market shares and the value assembly then proceed exactly as
   in the nested estimator.  The fit is a bounded quasi-Newton search on the
   analytic gradient of its log posterior, from a few fixed start points.

A variant re-uses one set of nested runs across a whole range of study sizes
by spreading the Q datasets over sample sizes, fitting a variance decay curve
per treatment and a sample-size-indexed logistic, and predicting the value at
any size on a grid.  The step-3 regression depends on the PSA and the
study's informed parameters but not on its size, so a single-size pass and a
scan of the same study share one fit.  Steps 3 and 4 assume two treatments
(the incremental net benefit path).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .curves import (
    LogisticFit,
    VarianceCurveFit,
    fit_generalized_logistic,
    fit_generalized_logistic_n,
    fit_variance_curve,
)
from .market import CurrentShares, MarketShareFunction
from .model import DEFAULT_NB_FUNCTIONS, FixedParams, ParameterDraw, PriorSpec, PsaSample
from .nmc import (
    EvsiEstimate,
    PosteriorSummary,
    chunked_summaries,
    evsi_from_mu,
    evsi_im_from_mu,
)
from .rng import child_seed, substream
from .smoothing import fit_pspline
from .studies import Dataset, StudyDesign, StudyKind, simulate_dataset

__all__ = [
    "ConditionalExpectationFit",
    "MomentMatchingResult",
    "SampleSizeScan",
    "quantile_grid",
    "quantile_datasets",
    "nested_summaries",
    "fit_conditional_expectation",
    "variance_reduction_target",
    "rescale",
    "mm_pipeline",
    "mm_by_n_pipeline",
]

_ALL_FIELDS = frozenset(PriorSpec.FIELD_ORDER)


def quantile_grid(psa: PsaSample, n_points: int) -> ParameterDraw:
    """Marginal (q - 0.5) / Q sample quantiles of every model parameter.

    Each field of the result is the quantile vector of the matching PSA
    field, so any subset of parameters is matched at its marginal quantiles;
    the treated event probability is re-derived from the quantile pairs.
    """
    if n_points < 1:
        raise ValueError("n_points must be at least 1")
    probs = (np.arange(1, n_points + 1) - 0.5) / n_points
    return ParameterDraw.from_primitives(
        p_event=np.quantile(np.asarray(psa.draws.p_event), probs),
        odds_ratio=np.quantile(np.asarray(psa.draws.odds_ratio), probs),
        p_side_effect=np.quantile(np.asarray(psa.draws.p_side_effect), probs),
        qol_after_event=np.quantile(np.asarray(psa.draws.qol_after_event), probs),
    )


def quantile_datasets(psa: PsaSample, design: StudyDesign, n_sets: int, seed: int,
                      sizes: Sequence[int] | None = None) -> list[Dataset]:
    """Simulate the Q datasets sweeping the matched parameter quantiles.

    Dataset j is generated from the draw whose primitive parameters all sit
    at their (j + 0.5) / Q marginal quantiles.  Only the parameters the
    study's sampling distribution depends on shape the data, so the sweep
    covers that range evenly; for the trial design the baseline rate and the
    odds ratio move through their quantiles together.

    With ``sizes`` given (one per dataset), dataset j is generated at size
    ``sizes[j]`` and the quantile order is randomly permuted first, so that
    sample size and parameter quantile are not confounded along the sweep.
    """
    grid = quantile_grid(psa, n_sets)
    if sizes is None:
        designs = [design] * n_sets
        order = np.arange(n_sets)
    else:
        if len(sizes) != n_sets:
            raise ValueError("sizes must have one entry per dataset")
        designs = [design.with_n(int(n)) for n in sizes]
        order = substream(seed, "quantile-order").permutation(n_sets)
    return [
        simulate_dataset(designs[j], grid.item(int(order[j])), child_seed(seed, "data", j))
        for j in range(n_sets)
    ]


def nested_summaries(datasets: Sequence[Dataset], prior: PriorSpec, fixed: FixedParams,
                     n_inner: int, seed: int,
                     nb_fns=DEFAULT_NB_FUNCTIONS) -> list[PosteriorSummary]:
    """Posterior summaries for each dataset, through the nested estimator's engine.

    The datasets run in chunks through :func:`voi.nmc.chunked_summaries`, the
    path every nested summary takes, so the result does not depend on the
    number of cores.
    """
    return chunked_summaries(len(datasets), lambda indices: [datasets[j] for j in indices],
                             prior, fixed, n_inner, seed, nb_fns)


@dataclass(frozen=True)
class ConditionalExpectationFit:
    """Per-treatment smooth estimates of E[net benefit | informed parameters]."""

    fitted: np.ndarray        # S x D fitted values at the PSA draws
    residual_var: np.ndarray  # length D
    features: tuple[str, ...]


_REGRESSION_FEATURES = {
    StudyKind.SIDE_EFFECTS: ("p_side_effect",),
    StudyKind.QUALITY_OF_LIFE: ("qol_after_event",),
    # The trial's sampling distribution depends on the baseline rate and the
    # odds ratio; conditioning on the two arm probabilities spans the same
    # information, and in these coordinates each net-benefit column's
    # conditional mean is additive, so the basis needs no interaction terms.
    StudyKind.EFFECTIVENESS_RCT: ("p_event", "p_event_treated"),
}


def fit_conditional_expectation(psa: PsaSample, design: StudyDesign) -> ConditionalExpectationFit:
    """Regress each net-benefit column on the study's informed parameters."""
    if design.informed >= _ALL_FIELDS:
        return ConditionalExpectationFit(
            fitted=psa.nb.copy(),
            residual_var=np.zeros(psa.n_treatments),
            features=tuple(sorted(_ALL_FIELDS)),
        )
    features = _REGRESSION_FEATURES[design.kind]
    x = np.column_stack([np.asarray(getattr(psa.draws, name)) for name in features])
    fitted = np.empty_like(psa.nb)
    resid = np.empty(psa.n_treatments)
    for d in range(psa.n_treatments):
        fit = fit_pspline(x, psa.nb[:, d])
        fitted[:, d] = fit.fitted
        resid[d] = fit.residual_var
    return ConditionalExpectationFit(fitted=fitted, residual_var=resid, features=features)


def variance_reduction_target(psa: PsaSample, posterior_nb_variances) -> np.ndarray:
    """Variance the rescaled posterior means should have, per treatment.

    ``posterior_nb_variances`` is a (Q, D) array of per-dataset posterior
    net-benefit variances.  The target is the prior net-benefit variance
    minus the average posterior variance, clipped into [0, prior variance].
    """
    arr = np.asarray(posterior_nb_variances, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != psa.n_treatments:
        raise ValueError("expected per-dataset variances of shape (Q, D)")
    prior_var = psa.nb.var(axis=0, ddof=1)
    mean_posterior = arr.mean(axis=0)
    return np.clip(prior_var - mean_posterior, 0.0, prior_var)


def _cap_at_fit_variance(target: np.ndarray, fit: ConditionalExpectationFit) -> np.ndarray:
    # A dataset moves a posterior mean only through the parameters the study
    # updates, so Var(E[NB_d | data]) can never exceed the variance of the
    # conditional expectation on those parameters.  Without this ceiling,
    # Monte Carlo noise in the prior-minus-posterior variance difference gets
    # amplified onto a near-flat fit for any treatment the study cannot move.
    return np.minimum(target, fit.fitted.var(axis=0, ddof=1))


def rescale(fit: ConditionalExpectationFit, target: np.ndarray) -> np.ndarray:
    """Affinely rescale the fitted values to the target variance, per column.

    Means are preserved exactly; a zero target collapses the column to its
    mean.  A column whose fit is constant carries no ranking information and
    stays at its mean whatever the target.
    """
    target = np.asarray(target, dtype=float)
    g = fit.fitted
    if target.shape != (g.shape[1],):
        raise ValueError("need one target variance per treatment")
    if np.any(target < 0.0):
        raise ValueError("target variances must be nonnegative")
    means = g.mean(axis=0)
    variances = g.var(axis=0, ddof=1)
    out = np.empty_like(g)
    for d in range(g.shape[1]):
        if variances[d] > 0.0:
            factor = math.sqrt(target[d] / variances[d])
        else:
            factor = 0.0
        out[:, d] = means[d] + (g[:, d] - means[d]) * factor
    return out


@dataclass(frozen=True)
class MomentMatchingResult:
    """Everything the moment-matching pass produces for one study."""

    evsi: EvsiEstimate
    evsi_im: EvsiEstimate
    logistic: LogisticFit
    rescaled_mu: np.ndarray      # S x 2 calibrated posterior means
    inb: np.ndarray              # S incremental net benefits (target minus other)
    p_target: np.ndarray         # S predicted probabilities for the target
    summaries: list[PosteriorSummary]
    variance_target: np.ndarray
    cond: ConditionalExpectationFit


def _incremental(mu: np.ndarray, target: int) -> np.ndarray:
    if mu.shape[1] != 2:
        raise ValueError("the moment-matching probability path needs exactly two treatments")
    return mu[:, target] - mu[:, 1 - target]


def mm_pipeline(psa: PsaSample, prior: PriorSpec, fixed: FixedParams, design: StudyDesign,
                market_fn: MarketShareFunction, current_shares: CurrentShares,
                n_sets: int, n_inner: int, seed: int,
                nb_fns=DEFAULT_NB_FUNCTIONS) -> MomentMatchingResult:
    """Full moment-matching pass for one study at its design sample size."""
    datasets = quantile_datasets(psa, design, n_sets, child_seed(seed, "mm-data"))
    summaries = nested_summaries(datasets, prior, fixed, n_inner,
                                 child_seed(seed, "mm-post"), nb_fns)
    cond = fit_conditional_expectation(psa, design)
    posterior_var = np.stack([s.nb_var for s in summaries])
    target_var = _cap_at_fit_variance(variance_reduction_target(psa, posterior_var), cond)
    mu = rescale(cond, target_var)

    t = market_fn.target
    mu_q = np.stack([s.mu for s in summaries])
    p_q = np.stack([s.p for s in summaries])
    logistic = fit_generalized_logistic(_incremental(mu_q, t), p_q[:, t],
                                        seed=child_seed(seed, "mm-fit"))
    inb = _incremental(mu, t)
    p_target = np.asarray(logistic.predict(inb))

    evsi = evsi_from_mu(mu)
    evsi_im = evsi_im_from_mu(mu, p_target, market_fn, current_shares)
    return MomentMatchingResult(
        evsi=evsi, evsi_im=evsi_im, logistic=logistic, rescaled_mu=mu,
        inb=inb, p_target=p_target, summaries=summaries, variance_target=target_var,
        cond=cond,
    )


@dataclass(frozen=True)
class SampleSizeScan:
    """Moment-matching estimates over a grid of study sizes."""

    sizes: tuple[int, ...]
    estimates: tuple[EvsiEstimate, ...]
    logistic: LogisticFit | None
    variance_curves: tuple[VarianceCurveFit, ...]
    summaries: list[PosteriorSummary]


def mm_by_n_pipeline(psa: PsaSample, prior: PriorSpec, fixed: FixedParams,
                     design: StudyDesign, market_fn: MarketShareFunction,
                     current_shares: CurrentShares, n_sets: int, n_inner: int,
                     n_grid: Sequence[int], seed: int,
                     nb_fns=DEFAULT_NB_FUNCTIONS,
                     cond: ConditionalExpectationFit | None = None) -> SampleSizeScan:
    """Calibrate once across [min(n_grid), max(n_grid)], predict at each size.

    The Q quantile datasets are spread over sample sizes covering the grid's
    range; the nested runs then support a per-treatment variance decay curve
    and a sample-size-indexed logistic, from which the value at every grid
    size follows without further simulation.  The regression on the PSA does
    not depend on the study size, so a single-size pass on the same PSA and
    design can hand over its ``cond``; it is fitted here only when none is
    given.
    """
    sizes = tuple(int(n) for n in n_grid)
    if not sizes:
        return SampleSizeScan(sizes=(), estimates=(), logistic=None,
                              variance_curves=(), summaries=[])
    if any(n < 1 for n in sizes):
        raise ValueError("grid sizes must be at least 1")
    lo, hi = min(sizes), max(sizes)
    calib_sizes = np.rint(np.linspace(lo, hi, n_sets)).astype(int)

    datasets = quantile_datasets(psa, design, n_sets, child_seed(seed, "mm-data"),
                                 sizes=calib_sizes.tolist())
    summaries = nested_summaries(datasets, prior, fixed, n_inner,
                                 child_seed(seed, "mm-post"), nb_fns)
    if cond is None:
        cond = fit_conditional_expectation(psa, design)

    posterior_var = np.stack([s.nb_var for s in summaries])
    realized = np.array([s.n_effective for s in summaries], dtype=float)
    prior_var = psa.nb.var(axis=0, ddof=1)
    curves = tuple(
        fit_variance_curve(posterior_var[:, d], realized, prior_var[d])
        for d in range(psa.n_treatments)
    )

    t = market_fn.target
    mu_q = np.stack([s.mu for s in summaries])
    p_q = np.stack([s.p for s in summaries])
    logistic = fit_generalized_logistic_n(_incremental(mu_q, t), p_q[:, t], realized,
                                          seed=child_seed(seed, "mm-fit"))

    estimates = []
    for n in sizes:
        target_var = np.array([c.variance_reduction(n) for c in curves])
        mu = rescale(cond, _cap_at_fit_variance(target_var, cond))
        p_target = np.asarray(logistic.predict(_incremental(mu, t), n=n))
        estimates.append(evsi_im_from_mu(mu, p_target, market_fn, current_shares))
    return SampleSizeScan(sizes=sizes, estimates=tuple(estimates), logistic=logistic,
                          variance_curves=curves, summaries=summaries)

