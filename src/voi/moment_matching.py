"""Moment-matching estimation of the value of a study.

Instead of nesting a posterior sample inside every simulated dataset, this
method needs only a handful of carefully chosen datasets (Heath,
Manolopoulou & Baio 2018, MDM 38:163):

1. Build Q datasets whose generating parameters sit at the (q - 0.5) / Q
   marginal sample quantiles of the PSA, so the datasets sweep the range of
   the parameter the study informs evenly.
2. Build the Q datasets' exact posteriors, gridding each trial statistic
   once, and run them through the nested engine once, for each dataset's
   incremental net benefit (INB) and the probability that the target
   treatment is best.
3. Regress the PSA's INB of the target on the informed parameter theta
   (one penalized spline, GCV smoothing), giving g(theta) = E[INB | theta].
   A dataset depends on theta alone, so by the law of total variance the
   posterior means E[INB | D] have variance Var(g) - E[Var(g | D)]; the
   target averages Var(g | D_q) over the Q datasets, each computed exactly
   by its posterior's quadrature with g interpolated over the PSA's sorted
   theta.  g is rescaled affinely to that variance: one INB per PSA draw.
4. Each INB is mapped to a probability by linear interpolation through the
   Q (INB, probability) pairs sorted by INB, constant beyond them.  The INB
   column and these probabilities go to the nested estimator's valuation,
   :func:`voi.market.assemble_evsi_im`, and the INB column alone to
   :func:`voi.market.assemble_evsi`.

A variant re-uses one set of nested runs across a whole range of study sizes
by spreading the Q datasets over sample sizes, fitting one decay curve of
Var(g | D) from Var(g) and a sample-size-indexed generalized logistic
(:func:`voi.curves.fit_generalized_logistic`, given each dataset's size),
and predicting the value at any size on a grid.  Both passes share one
calibration (steps 1 and 2, :func:`_calibrate`) and one valuation
(:func:`_value`: rescale, probability, ``evsi_im``).  g depends on the PSA
and the informed parameter but not on the study size, so a single-size pass
and a scan of the same study share one fit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .curves import LogisticFit, VarianceCurveFit, fit_generalized_logistic, fit_variance_curve
from .market import (CurrentShares, EvsiEstimate, MarketShareFunction, assemble_evsi,
                     assemble_evsi_im)
from .model import FixedParams, ParameterDraw, PriorSpec, PsaSample
from .nmc import PosteriorSummaries, chunked_summaries
from .rng import child_seed, substream
from .smoothing import fit_pspline
from .studies import Dataset, StudyDesign, simulate_dataset, study_posterior

__all__ = [
    "MomentMatchingResult",
    "SampleSizeScan",
    "quantile_grid",
    "quantile_datasets",
    "fit_conditional_expectation",
    "posterior_variances",
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
    return ParameterDraw.from_primitives(**{
        name: np.quantile(np.asarray(getattr(psa.draws, name)), probs)
        for name in PriorSpec.FIELD_ORDER})


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


def fit_conditional_expectation(psa: PsaSample, field: str, target: int) -> np.ndarray:
    """g: a smooth estimate of E[INB of treatment ``target`` | ``field``] at every PSA draw."""
    inb = psa.nb[:, target] - psa.nb[:, 1 - target]
    return fit_pspline(np.asarray(getattr(psa.draws, field)), inb).fitted


def posterior_variances(psa: PsaSample, cond: np.ndarray, posterior) -> np.ndarray:
    """Var(g | D) for each dataset behind ``posterior``, by its quadrature.

    g is ``cond`` interpolated linearly over the PSA's sorted values of the
    field the posterior informs, and constant beyond their range.
    """
    theta = np.asarray(getattr(psa.draws, posterior.field))
    order = np.argsort(theta)
    nodes, weights = posterior.quadrature()
    g = np.interp(nodes, theta[order], cond[order])
    mean = np.sum(weights * g, axis=1, keepdims=True)
    return np.sum(weights * (g - mean) ** 2, axis=1)


def variance_reduction_target(cond: np.ndarray, variances) -> float:
    """Var(E[INB | D]): Var(g) minus the mean of the datasets' ``variances`` of g.

    By the law of total variance this is exact for data that depend on the
    informed parameter alone, so it lies within [0, Var(g)]; the clip
    absorbs the PSA's sampling error in Var(g), which shows near size 0.
    """
    total = cond.var(ddof=1)
    return float(np.clip(total - np.mean(variances), 0.0, total))


def rescale(cond: np.ndarray, target) -> np.ndarray:
    """Affinely rescale fitted values to the target variance, per column.

    ``cond`` is a vector with one target, or S x D with one target per
    column.  Means are preserved exactly; a zero target collapses a column
    to its mean.  A column whose fit is constant carries no ranking
    information and stays at its mean whatever the target.
    """
    target = np.asarray(target, dtype=float)
    if target.shape != cond.shape[1:]:
        raise ValueError("need one target variance per column")
    if np.any(target < 0.0):
        raise ValueError("target variances must be nonnegative")
    means = cond.mean(axis=0)
    variances = np.asarray(cond.var(axis=0, ddof=1))
    ratio = np.divide(target, variances, out=np.zeros_like(variances), where=variances > 0.0)
    return means + (cond - means) * np.sqrt(ratio)


@dataclass(frozen=True)
class MomentMatchingResult:
    """Everything the moment-matching pass produces for one study."""

    evsi: EvsiEstimate
    evsi_im: EvsiEstimate
    probability_map: Callable    # INB -> target probability, through the Q pairs
    inb: np.ndarray              # S rescaled INBs of the target treatment
    p_target: np.ndarray         # S predicted probabilities for the target
    summaries: PosteriorSummaries
    variance_target: float
    cond: np.ndarray             # S fitted E[INB | informed parameter]


def _calibrate(psa: PsaSample, prior: PriorSpec, fixed: FixedParams, design: StudyDesign,
               n_sets: int, n_inner: int, seed: int, sizes: list[int] | None = None):
    """Steps 1 and 2 at the design size or at ``sizes``: the Q datasets'
    exact posterior and their nested runs, whose chunks' posteriors come
    through the same grid memo, so the trial grids each statistic once."""
    datasets = quantile_datasets(psa, design, n_sets, child_seed(seed, "mm-data"), sizes)
    grid_memo: dict = {}
    posterior = study_posterior(datasets, prior, grid_memo)
    # One prior refill per dataset: the Q (INB, probability) pairs are the
    # whole probability map, and a refill shared within a chunk would correlate
    # their errors, which so few pairs do not average out (:mod:`voi.nmc`).
    summaries = chunked_summaries(
        n_sets, lambda indices: study_posterior([datasets[j] for j in indices], prior, grid_memo),
        prior, fixed, n_inner, child_seed(seed, "mm-post"), shared_fill=False)
    return posterior, summaries


def _value(cond: np.ndarray, target_var: float, predict,
           market_fn: MarketShareFunction, current_shares: CurrentShares):
    """Steps 3 and 4 from a variance target: rescaled INBs to ``evsi_im``.

    ``predict`` maps INBs to target probabilities.  Returns the INBs, their
    target probabilities and the ``evsi_im`` estimate.
    """
    inb = rescale(cond, target_var)
    p_target = np.asarray(predict(inb))
    return inb, p_target, assemble_evsi_im(inb, p_target, market_fn, current_shares)


def mm_pipeline(psa: PsaSample, prior: PriorSpec, fixed: FixedParams, design: StudyDesign,
                market_fn: MarketShareFunction, current_shares: CurrentShares,
                n_sets: int, n_inner: int, seed: int) -> MomentMatchingResult:
    """Full moment-matching pass for one study at its design sample size."""
    posterior, summaries = _calibrate(psa, prior, fixed, design, n_sets, n_inner, seed)
    cond = fit_conditional_expectation(psa, posterior.field, market_fn.target)
    target_var = variance_reduction_target(cond, posterior_variances(psa, cond, posterior))
    pairs_inb, pairs_p = summaries.toward(market_fn.target)
    order = np.argsort(pairs_inb, kind="stable")
    probability_map = partial(np.interp, xp=pairs_inb[order], fp=pairs_p[order])
    inb, p_target, evsi_im = _value(cond, target_var, probability_map,
                                    market_fn, current_shares)
    return MomentMatchingResult(
        evsi=assemble_evsi(inb), evsi_im=evsi_im, probability_map=probability_map,
        inb=inb, p_target=p_target, summaries=summaries, variance_target=target_var,
        cond=cond,
    )


@dataclass(frozen=True)
class SampleSizeScan:
    """Moment-matching estimates over a grid of study sizes."""

    sizes: tuple[int, ...]
    estimates: tuple[EvsiEstimate, ...]
    logistic: LogisticFit
    variance_curve: VarianceCurveFit
    summaries: PosteriorSummaries


def mm_by_n_pipeline(psa: PsaSample, prior: PriorSpec, fixed: FixedParams,
                     design: StudyDesign, market_fn: MarketShareFunction,
                     current_shares: CurrentShares, n_sets: int, n_inner: int,
                     n_grid: Sequence[int], seed: int, *, cond: np.ndarray) -> SampleSizeScan:
    """Calibrate once across [min(n_grid), max(n_grid)], predict at each size.

    The Q quantile datasets are spread over sample sizes covering the grid's
    range; their exact posterior variances of g support one variance decay
    curve from Var(g), and their nested runs a sample-size-indexed
    logistic, from which the value at every grid size follows without
    further simulation.  ``cond`` is the single-size pass's g on the same
    PSA and design, which does not depend on the study size.
    """
    sizes = tuple(int(n) for n in n_grid)
    if not sizes or min(sizes) < 1:
        raise ValueError("the grid needs at least one size, each at least 1")
    calib_sizes = np.rint(np.linspace(min(sizes), max(sizes), n_sets)).astype(int).tolist()
    posterior, summaries = _calibrate(psa, prior, fixed, design, n_sets, n_inner, seed,
                                      sizes=calib_sizes)
    curve = fit_variance_curve(posterior_variances(psa, cond, posterior), calib_sizes,
                               cond.var(ddof=1))
    logistic = fit_generalized_logistic(*summaries.toward(market_fn.target), calib_sizes)
    estimates = tuple(
        _value(cond, curve.variance_reduction(n), partial(logistic.predict, n=n),
               market_fn, current_shares)[-1]
        for n in sizes)
    return SampleSizeScan(sizes=sizes, estimates=estimates, logistic=logistic,
                          variance_curve=curve, summaries=summaries)
