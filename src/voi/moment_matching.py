"""Moment-matching estimation of the value of a study.

Instead of nesting a posterior sample inside every simulated dataset, this
method needs only a handful of carefully chosen datasets:

1. Build Q datasets whose generating parameters sit at the (q - 0.5) / Q
   marginal sample quantiles of the parameters the study informs, so the
   datasets sweep the informative range evenly.
2. Sample each dataset's posterior once and record its incremental net
   benefit (INB), the probability that the novel treatment is best, and
   both treatments' posterior variances of net benefit.
3. Regress each treatment's net benefit on the informed parameters over the
   PSA sample (penalized splines, GCV smoothing).  The fitted values have the
   right conditional-mean shape but too little spread, so they are linearly
   rescaled to the variance the nested runs say posterior means should have:
   prior variance minus the average posterior variance.  The rescaled means
   give each PSA draw one INB for the market's target treatment.
4. The probability of being best is carried along by a generalized logistic
   fitted to the Q pairs of (INB, probability), both for the target
   (:func:`voi.curves.fit_generalized_logistic`).  The INB column and these
   probabilities then go to the nested estimator's valuation,
   :func:`voi.market.assemble_evsi_im`, and the INB column alone to
   :func:`voi.market.assemble_evsi`.

A variant re-uses one set of nested runs across a whole range of study sizes
by spreading the Q datasets over sample sizes, fitting a variance decay curve
per treatment and a sample-size-indexed logistic (the same fitter, given
each dataset's size), and predicting the value at any size on a grid.  Both
passes share one calibration (steps 1 and 2, :func:`_calibrate`) and one
valuation (:func:`_value`: cap, rescale, incremental net benefit,
probability, ``evsi_im``).  The step-3 regression depends on the PSA and the
study's informed parameters but not on its size, so a single-size pass and
a scan of the same study share one fit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Sequence

import numpy as np

from .curves import LogisticFit, VarianceCurveFit, fit_generalized_logistic, fit_variance_curve
from .market import (
    CurrentShares,
    EvsiEstimate,
    MarketShareFunction,
    assemble_evsi,
    assemble_evsi_im,
)
from .model import DEFAULT_NB_FUNCTIONS, FixedParams, ParameterDraw, PriorSpec, PsaSample
from .nmc import PosteriorSummaries, chunked_summaries
from .rng import child_seed, substream
from .smoothing import fit_pspline
from .studies import Dataset, StudyDesign, StudyKind, simulate_dataset

__all__ = [
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
        designs = [replace(design, n=int(n)) for n in sizes]
        order = substream(seed, "quantile-order").permutation(n_sets)
    return [
        simulate_dataset(designs[j], grid.item(int(order[j])), child_seed(seed, "data", j))
        for j in range(n_sets)
    ]


def nested_summaries(datasets: Sequence[Dataset], prior: PriorSpec, fixed: FixedParams,
                     n_inner: int, seed: int,
                     nb_fns=DEFAULT_NB_FUNCTIONS) -> PosteriorSummaries:
    """Posterior summaries for each dataset, through the nested estimator's engine.

    The datasets run in chunks through :func:`voi.nmc.chunked_summaries`, the
    path every nested summary takes, so the result does not depend on the
    number of cores.  Each dataset gets its own prior refill: the variance
    target averages these datasets' posterior variances, and a refill shared
    across them would put the same noise into every one.
    """
    return chunked_summaries(len(datasets), lambda indices: [datasets[j] for j in indices],
                             prior, fixed, n_inner, seed, nb_fns, shared_fill=False)


_REGRESSION_FEATURES = {
    StudyKind.SIDE_EFFECTS: ("p_side_effect",),
    StudyKind.QUALITY_OF_LIFE: ("qol_after_event",),
    # The trial's sampling distribution depends on the baseline rate and the
    # odds ratio; conditioning on the two arm probabilities spans the same
    # information, and in these coordinates each net-benefit column's
    # conditional mean is additive, so the basis needs no interaction terms.
    StudyKind.EFFECTIVENESS_RCT: ("p_event", "p_event_treated"),
}


def fit_conditional_expectation(psa: PsaSample, design: StudyDesign) -> np.ndarray:
    """S x D smooth estimates of E[net benefit | the study's informed parameters]."""
    x = np.column_stack([np.asarray(getattr(psa.draws, name))
                         for name in _REGRESSION_FEATURES[design.kind]])
    return np.column_stack([fit_pspline(x, psa.nb[:, d]).fitted
                            for d in range(psa.n_treatments)])


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


def _cap_at_fit_variance(target: np.ndarray, cond: np.ndarray) -> np.ndarray:
    # A dataset moves a posterior mean only through the parameters the study
    # updates, so Var(E[NB_d | data]) can never exceed the variance of the
    # conditional expectation on those parameters.  Without this ceiling,
    # Monte Carlo noise in the prior-minus-posterior variance difference gets
    # amplified onto a near-flat fit for any treatment the study cannot move.
    return np.minimum(target, cond.var(axis=0, ddof=1))


def rescale(cond: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Affinely rescale the S x D fitted values to the target variance, per column.

    Means are preserved exactly; a zero target collapses the column to its
    mean.  A column whose fit is constant carries no ranking information and
    stays at its mean whatever the target.
    """
    target = np.asarray(target, dtype=float)
    if target.shape != (cond.shape[1],):
        raise ValueError("need one target variance per treatment")
    if np.any(target < 0.0):
        raise ValueError("target variances must be nonnegative")
    means = cond.mean(axis=0)
    variances = cond.var(axis=0, ddof=1)
    ratio = np.divide(target, variances, out=np.zeros_like(variances), where=variances > 0.0)
    return means + (cond - means) * np.sqrt(ratio)


@dataclass(frozen=True)
class MomentMatchingResult:
    """Everything the moment-matching pass produces for one study."""

    evsi: EvsiEstimate
    evsi_im: EvsiEstimate
    logistic: LogisticFit
    rescaled_mu: np.ndarray      # S x 2 calibrated posterior means
    inb: np.ndarray              # S incremental net benefits (target minus other)
    p_target: np.ndarray         # S predicted probabilities for the target
    summaries: PosteriorSummaries
    variance_target: np.ndarray
    cond: np.ndarray             # S x 2 fitted E[NB | informed parameters]


def _calibrate(psa: PsaSample, prior: PriorSpec, fixed: FixedParams, design: StudyDesign,
               n_sets: int, n_inner: int, seed: int,
               sizes: list[int] | None = None) -> PosteriorSummaries:
    """Steps 1 and 2: the Q nested runs, at the design size or at ``sizes``."""
    datasets = quantile_datasets(psa, design, n_sets, child_seed(seed, "mm-data"), sizes)
    return nested_summaries(datasets, prior, fixed, n_inner, child_seed(seed, "mm-post"))


def _value(cond: np.ndarray, target_var: np.ndarray, predict,
           market_fn: MarketShareFunction, current_shares: CurrentShares):
    """Steps 3 and 4 from a variance target: calibrated means to ``evsi_im``.

    ``predict`` maps incremental net benefits to target probabilities.
    Returns the capped target, the rescaled means, their incremental net
    benefits and target probabilities, and the ``evsi_im`` estimate.
    """
    capped = _cap_at_fit_variance(target_var, cond)
    mu = rescale(cond, capped)
    inb = mu[:, market_fn.target] - mu[:, 1 - market_fn.target]
    p_target = np.asarray(predict(inb))
    return capped, mu, inb, p_target, assemble_evsi_im(inb, p_target, market_fn, current_shares)


def mm_pipeline(psa: PsaSample, prior: PriorSpec, fixed: FixedParams, design: StudyDesign,
                market_fn: MarketShareFunction, current_shares: CurrentShares,
                n_sets: int, n_inner: int, seed: int) -> MomentMatchingResult:
    """Full moment-matching pass for one study at its design sample size."""
    summaries = _calibrate(psa, prior, fixed, design, n_sets, n_inner, seed)
    cond = fit_conditional_expectation(psa, design)
    logistic = fit_generalized_logistic(*summaries.toward(market_fn.target))
    target_var, mu, inb, p_target, evsi_im = _value(
        cond, variance_reduction_target(psa, summaries.nb_var), logistic.predict,
        market_fn, current_shares)
    return MomentMatchingResult(
        evsi=assemble_evsi(inb), evsi_im=evsi_im, logistic=logistic, rescaled_mu=mu,
        inb=inb, p_target=p_target, summaries=summaries, variance_target=target_var,
        cond=cond,
    )


@dataclass(frozen=True)
class SampleSizeScan:
    """Moment-matching estimates over a grid of study sizes."""

    sizes: tuple[int, ...]
    estimates: tuple[EvsiEstimate, ...]
    logistic: LogisticFit
    variance_curves: tuple[VarianceCurveFit, ...]
    summaries: PosteriorSummaries


def mm_by_n_pipeline(psa: PsaSample, prior: PriorSpec, fixed: FixedParams,
                     design: StudyDesign, market_fn: MarketShareFunction,
                     current_shares: CurrentShares, n_sets: int, n_inner: int,
                     n_grid: Sequence[int], seed: int, *, cond: np.ndarray) -> SampleSizeScan:
    """Calibrate once across [min(n_grid), max(n_grid)], predict at each size.

    The Q quantile datasets are spread over sample sizes covering the grid's
    range; the nested runs then support a per-treatment variance decay curve
    and a sample-size-indexed logistic, from which the value at every grid
    size follows without further simulation.  ``cond`` is the single-size
    pass's regression on the same PSA and design, which does not depend on
    the study size.
    """
    sizes = tuple(int(n) for n in n_grid)
    if not sizes or min(sizes) < 1:
        raise ValueError("the grid needs at least one size, each at least 1")
    calib_sizes = np.rint(np.linspace(min(sizes), max(sizes), n_sets)).astype(int).tolist()
    summaries = _calibrate(psa, prior, fixed, design, n_sets, n_inner, seed, sizes=calib_sizes)
    prior_var = psa.nb.var(axis=0, ddof=1)
    curves = tuple(fit_variance_curve(summaries.nb_var[:, d], calib_sizes, prior_var[d])
                   for d in range(psa.n_treatments))
    logistic = fit_generalized_logistic(*summaries.toward(market_fn.target), calib_sizes)
    estimates = tuple(
        _value(cond, np.array([c.variance_reduction(n) for c in curves]),
               partial(logistic.predict, n=n), market_fn, current_shares)[-1]
        for n in sizes)
    return SampleSizeScan(sizes=sizes, estimates=estimates, logistic=logistic,
                          variance_curves=curves, summaries=summaries)
