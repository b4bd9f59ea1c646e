"""Nested Monte Carlo estimation of the value of a study.

The outer loop simulates datasets from the prior predictive: draw parameters,
draw a dataset.  The inner loop samples the posterior given each dataset (a
conjugate draw, or for the trial a draw from the gridded odds-ratio marginal)
and reduces it to a :class:`PosteriorSummary` holding, per treatment, the
posterior mean net benefit ``mu``, the probability ``p`` of attaining the row
maximum, and the posterior variance of net benefit.  The estimators then only
touch summaries:

* unadjusted value: mean over datasets of ``max_d mu`` minus the max over
  treatments of the grand mean of ``mu``;
* implementation-adjusted value: market shares respond to ``p`` through a
  market-share function, and the assembly in :mod:`voi.market` weighs ``mu``
  by those shares.

Both baselines are grand means over the same nested simulations, so the
common noise cancels instead of adding an independent error term.

Datasets (for the trial, chunks of datasets) are independent given their
derived seeds, so their posterior work is spread over one thread per usable
core; numpy's generators release the interpreter lock while they fill
arrays.  Results come back in dataset order and are bit for bit the same
whatever the number of cores.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .market import CurrentShares, MarketShareFunction, assemble_evsi_im
from .model import DEFAULT_NB_FUNCTIONS, FixedParams, PriorSpec
from .rng import child_seed, substream
from .studies import (
    Dataset,
    PosteriorDraws,
    StudyDesign,
    StudyKind,
    posterior_quality,
    posterior_side_effects,
    rct_marginal_grid,
    simulate_dataset,
)

__all__ = [
    "PosteriorSummary",
    "EvsiEstimate",
    "summarize_nb_matrix",
    "posterior_nb_summary",
    "rct_nb_summaries",
    "nmc_summaries",
    "nmc_evsi",
    "nmc_evsi_im",
    "evsi_from_mu",
    "evsi_im_from_mu",
]

# Trial posteriors are gridded and sampled for many datasets at once.  The
# outer loop is cut into fixed-size chunks, each with its own derived stream,
# so results do not depend on how the chunks are scheduled.
RCT_CHUNK_SIZE = 512


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has CPU affinity
        return os.cpu_count() or 1


def _map_in_order(fn: Callable, items: Iterable) -> list:
    """``[fn(x) for x in items]``, run on one thread per usable core.

    With one core or one item the work runs inline.  Results keep the order
    of ``items``, and the first exception raised by ``fn`` (in that order)
    propagates to the caller, so a parallel run is indistinguishable from a
    serial one as long as each call is independent of the others.
    """
    items = list(items)
    workers = min(_usable_cores(), len(items))
    if workers <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


@dataclass(frozen=True)
class PosteriorSummary:
    """Per-dataset reduction of the inner posterior sample.

    mu: posterior mean net benefit per treatment.
    p: probability that each treatment attains the row maximum, ties to the
       lowest index; components sum to exactly 1.
    nb_var: posterior sample variance (ddof=1) of net benefit per treatment.
    """

    mu: np.ndarray
    p: np.ndarray
    nb_var: np.ndarray
    n_effective: int
    dataset_index: int
    n_draws: int


@dataclass(frozen=True)
class EvsiEstimate:
    """A point estimate of the value of a study with its Monte Carlo error."""

    value: float
    std_error: float
    n_outer: int
    n_inner: int
    method: str

    def __post_init__(self) -> None:
        if self.std_error < 0.0:
            raise ValueError("std_error must be nonnegative")


def _win_counts(nb: np.ndarray) -> np.ndarray:
    """How often each treatment attains the maximum, ties to the lowest index.

    ``nb`` holds treatments on axis 0 and draws on axis 1; the counts sum over
    the draws.  This equals counting ``np.argmax`` over axis 0, by comparing
    whole rows instead of scanning every draw's short treatment vector.
    """
    n_treat = nb.shape[0]
    counts = np.empty((n_treat,) + nb.shape[2:])
    for d in range(1, n_treat):
        wins = nb[d] > nb[:d].max(axis=0)
        if d + 1 < n_treat:
            wins &= nb[d] >= nb[d + 1:].max(axis=0)
        counts[d] = np.count_nonzero(wins, axis=0)
    counts[0] = nb.shape[1] - counts[1:].sum(axis=0)
    return counts


def _summarize_rows(nb: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reduce a D x R net-benefit row array to (mu, p, nb_var)."""
    n_draws = nb.shape[1]
    mu = nb.mean(axis=1)
    centred = nb - mu[:, None]
    var = np.einsum("dr,dr->d", centred, centred) / (n_draws - 1)
    p = _win_counts(nb) / n_draws
    p[0] = max(0.0, 1.0 - p[1:].sum())
    return mu, p, var


def summarize_nb_matrix(nb: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reduce an R x D net-benefit matrix to (mu, p, nb_var)."""
    return _summarize_rows(np.ascontiguousarray(np.asarray(nb, dtype=float).T))


def _summary_from_draws(post: PosteriorDraws, fixed: FixedParams, nb_fns,
                        dataset_index: int) -> PosteriorSummary:
    nb = np.stack([fn(post.draws, fixed) for fn in nb_fns])
    mu, p, var = _summarize_rows(nb)
    return PosteriorSummary(
        mu=mu, p=p, nb_var=var,
        n_effective=post.dataset.n_effective,
        dataset_index=dataset_index,
        n_draws=nb.shape[1],
    )


def rct_nb_summaries(
    datasets: Sequence[Dataset],
    prior: PriorSpec,
    fixed: FixedParams,
    n_draws: int,
    seed: int,
    nb_fns=DEFAULT_NB_FUNCTIONS,
    dataset_indices: Sequence[int] | None = None,
) -> list[PosteriorSummary]:
    """Summaries for a batch of trial datasets, reduced block by block.

    Each dataset contributes only draws of the log odds ratio from its
    gridded marginal posterior (:func:`rct_marginal_grid`, the baseline rate
    integrated out); the baseline rate and every other parameter are drawn
    fresh from the prior.  Draws arrive as ``(k, len(datasets))`` blocks,
    and each block is refilled from the prior, evaluated and folded into
    running moments and win counts in one pass.  Moments accumulate relative
    to the first block's first row, which keeps the variance accumulation
    well conditioned at net-benefit magnitudes.
    """
    m = len(datasets)
    if dataset_indices is None:
        dataset_indices = list(range(m))
    n_treat = len(nb_fns)
    fill_rng = substream(seed, "posterior", "effectiveness_rct", "complement")
    sums = np.zeros((m, n_treat))
    sumsq = np.zeros((m, n_treat))
    counts = np.zeros((m, n_treat))
    shift = None
    for g in rct_marginal_grid(datasets, prior).blocks(n_draws, seed):
        draw = prior.sample(fill_rng, g.shape, {"odds_ratio": np.exp(g)})
        nb = np.stack([fn(draw, fixed) for fn in nb_fns], axis=-1)
        if shift is None:
            shift = nb[0].copy()
        delta = nb - shift
        sums += delta.sum(axis=0)
        sumsq += (delta * delta).sum(axis=0)
        counts += _win_counts(np.moveaxis(nb, -1, 0)).T

    mu = shift + sums / n_draws
    var = (sumsq - sums * sums / n_draws) / (n_draws - 1)
    p = counts / n_draws
    p[:, 0] = np.maximum(0.0, 1.0 - p[:, 1:].sum(axis=1))
    out = []
    for j, ds in enumerate(datasets):
        out.append(PosteriorSummary(
            mu=mu[j].copy(), p=p[j].copy(), nb_var=var[j].copy(),
            n_effective=ds.n_effective,
            dataset_index=int(dataset_indices[j]),
            n_draws=n_draws,
        ))
    return out


def posterior_nb_summary(dataset: Dataset, prior: PriorSpec, fixed: FixedParams,
                         n_draws: int, seed: int, nb_fns=DEFAULT_NB_FUNCTIONS,
                         dataset_index: int = 0) -> PosteriorSummary:
    """Posterior sample for one dataset reduced to its summary."""
    kind = dataset.design.kind
    if kind is StudyKind.SIDE_EFFECTS:
        post = posterior_side_effects(dataset, prior, n_draws, seed)
    elif kind is StudyKind.QUALITY_OF_LIFE:
        post = posterior_quality(dataset, prior, n_draws, seed)
    else:
        return rct_nb_summaries([dataset], prior, fixed, n_draws, seed, nb_fns,
                                dataset_indices=[dataset_index])[0]
    return _summary_from_draws(post, fixed, nb_fns, dataset_index)


def nmc_summaries(design: StudyDesign, prior: PriorSpec, fixed: FixedParams,
                  n_outer: int, n_inner: int, seed: int,
                  nb_fns=DEFAULT_NB_FUNCTIONS) -> list[PosteriorSummary]:
    """Outer loop of the nested estimator: one summary per simulated dataset.

    Dataset s is simulated from the prior draw s under the substream
    ``(seed, "data", s)`` and its posterior is sampled under
    ``(seed, "post", s)`` (conjugate designs) or a per-chunk stream (trial
    design).  Datasets, or trial chunks, are spread over threads, one per
    usable core; the result does not depend on the number of cores.
    """
    if n_outer < 2:
        raise ValueError("n_outer must be at least 2")
    if n_inner < 2:
        raise ValueError("n_inner must be at least 2")
    draws = prior.sample(substream(seed, "outer"), n_outer)

    def simulate(s: int) -> Dataset:
        return simulate_dataset(design, draws.item(s), child_seed(seed, "data", s))

    if design.kind is StudyKind.EFFECTIVENESS_RCT:
        def chunk_summaries(start: int) -> list[PosteriorSummary]:
            indices = range(start, min(start + RCT_CHUNK_SIZE, n_outer))
            return rct_nb_summaries([simulate(s) for s in indices], prior, fixed, n_inner,
                                    child_seed(seed, "post-chunk", start), nb_fns,
                                    dataset_indices=indices)

        chunks = _map_in_order(chunk_summaries, range(0, n_outer, RCT_CHUNK_SIZE))
        return [summary for chunk in chunks for summary in chunk]

    def summary(s: int) -> PosteriorSummary:
        return posterior_nb_summary(simulate(s), prior, fixed, n_inner,
                                    child_seed(seed, "post", s), nb_fns, dataset_index=s)

    return _map_in_order(summary, range(n_outer))


def _mu_matrix(summaries: Sequence[PosteriorSummary]) -> np.ndarray:
    if len(summaries) < 2:
        raise ValueError("need at least two posterior summaries")
    return np.stack([s.mu for s in summaries])


def _estimate(value: float, terms: np.ndarray, n_inner: int, method: str) -> EvsiEstimate:
    """The value with the standard error of the mean of its per-dataset terms."""
    se = float(terms.std(ddof=1) / math.sqrt(len(terms)))
    return EvsiEstimate(value=value, std_error=se, n_outer=len(terms), n_inner=n_inner,
                        method=method)


def evsi_from_mu(mu: np.ndarray, n_inner: int, method: str) -> EvsiEstimate:
    """Unadjusted expected value of a study from S x D posterior means ``mu``.

    The baseline is the grand mean of ``mu`` over datasets, so the estimate
    is a mean of per-dataset terms and its standard error follows from their
    spread (the treatment attaining the best grand mean is treated as fixed).
    Both estimators end here.
    """
    grand = mu.mean(axis=0)
    value = float(np.mean(np.max(mu, axis=1))) - float(np.max(grand))
    d_star = int(np.argmax(grand))
    return _estimate(value, np.max(mu, axis=1) - mu[:, d_star], n_inner, method)


def evsi_im_from_mu(mu: np.ndarray, p_target: np.ndarray, market_fn: MarketShareFunction,
                    current_shares: CurrentShares, n_inner: int, method: str) -> EvsiEstimate:
    """Implementation-adjusted expected value of a study from ``mu``.

    Shares after the study respond to each dataset's probability
    ``p_target`` that the target treatment is best; the current market is
    valued on the same grand means, mirroring the unadjusted estimator's
    cancellation of common noise.  Both estimators end here.
    """
    value, terms = assemble_evsi_im(mu, p_target, market_fn, current_shares)
    return _estimate(value, terms, n_inner, method)


def nmc_evsi(summaries: Sequence[PosteriorSummary]) -> EvsiEstimate:
    """Unadjusted expected value of the study from nested summaries."""
    return evsi_from_mu(_mu_matrix(summaries), summaries[0].n_draws, "nmc")


def nmc_evsi_im(summaries: Sequence[PosteriorSummary], market_fn: MarketShareFunction,
                current_shares: CurrentShares) -> EvsiEstimate:
    """Implementation-adjusted expected value of the study from nested summaries."""
    mu = _mu_matrix(summaries)
    p_target = np.array([s.p[market_fn.target] for s in summaries])
    return evsi_im_from_mu(mu, p_target, market_fn, current_shares,
                           summaries[0].n_draws, "nmc")
