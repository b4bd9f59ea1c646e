"""Nested Monte Carlo estimation of the value of a study.

The outer loop simulates datasets from the prior predictive: draw parameters,
draw a dataset.  The inner loop samples the posterior given each dataset and
reduces it to a :class:`PosteriorSummary` holding, per treatment, the
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

One inner engine, :func:`posterior_summaries`, serves every study kind and
both estimators: the study's posterior (:func:`voi.studies.study_posterior`)
draws the one parameter it informs for a batch of datasets, the prior
refills the rest, and each block of draws is folded into running moments and
win counts.  :func:`chunked_summaries` cuts the datasets into chunks of
``CHUNK_SIZE``, each with its own derived streams, and runs the chunks on one
thread per usable core; numpy's generators release the interpreter lock
while they fill arrays.  Results come back in dataset order and are bit for
bit the same whatever the number of cores.
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
from .studies import BLOCK_ELEMENTS, Dataset, StudyDesign, simulate_dataset, study_posterior

__all__ = [
    "PosteriorSummary",
    "EvsiEstimate",
    "CHUNK_SIZE",
    "posterior_summaries",
    "chunked_summaries",
    "nmc_summaries",
    "nmc_evsi",
    "nmc_evsi_im",
    "evsi_from_mu",
    "evsi_im_from_mu",
]

# Datasets per chunk of posterior work.  Each chunk has its own derived
# streams, so results do not depend on how the chunks are scheduled, and
# small chunks keep every core busy on the few datasets moment matching uses.
CHUNK_SIZE = 32


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


@dataclass(frozen=True)
class EvsiEstimate:
    """A point estimate of the value of a study with its Monte Carlo error."""

    value: float
    std_error: float

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


def posterior_summaries(
    datasets: Sequence[Dataset],
    prior: PriorSpec,
    fixed: FixedParams,
    n_draws: int,
    seed: int,
    nb_fns=DEFAULT_NB_FUNCTIONS,
    grid_memo: dict | None = None,
) -> list[PosteriorSummary]:
    """Summaries for a batch of one study kind's datasets, reduced block by block.

    The study's posterior draws its informed parameter for every dataset as
    ``(k, len(datasets))`` blocks of about ``BLOCK_ELEMENTS`` draws from the
    stream ``(seed, "posterior", kind)``; the prior refills every other
    parameter from ``(seed, "posterior", kind, "complement")``.  Each block is
    evaluated and folded into running moments and win counts in one pass.
    Moments accumulate relative to the first block's first row, which keeps
    the variance accumulation well conditioned at net-benefit magnitudes.
    ``grid_memo`` goes to :func:`voi.studies.study_posterior`.
    """
    posterior = study_posterior(datasets, prior, grid_memo)
    kind = datasets[0].design.kind.value
    rng = substream(seed, "posterior", kind)
    fill_rng = substream(seed, "posterior", kind, "complement")
    m, n_treat = len(datasets), len(nb_fns)
    length = max(1, BLOCK_ELEMENTS // m)
    sums = np.zeros((m, n_treat))
    sumsq = np.zeros((m, n_treat))
    counts = np.zeros((m, n_treat))
    shift = None
    for start in range(0, n_draws, length):
        x = posterior.draw(rng, min(length, n_draws - start))
        draw = prior.sample(fill_rng, x.shape, {posterior.field: x})
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
    return [PosteriorSummary(mu=mu[j].copy(), p=p[j].copy(), nb_var=var[j].copy())
            for j in range(m)]


def chunked_summaries(n_datasets: int, datasets_at: Callable[[range], Sequence[Dataset]],
                      prior: PriorSpec, fixed: FixedParams, n_draws: int, seed: int,
                      nb_fns=DEFAULT_NB_FUNCTIONS) -> list[PosteriorSummary]:
    """One summary per dataset, ``CHUNK_SIZE`` datasets at a time.

    The chunk starting at dataset ``start`` gets its datasets from
    ``datasets_at(range(start, stop))``, inside its own task, and its
    posterior streams from ``child_seed(seed, "post-chunk", start)``.  Chunks
    run on one thread per usable core; the result does not depend on the
    number of cores.  The chunks share one grid memo for this call, so the
    trial's posterior grids each distinct statistic about once, whichever
    chunk meets it first; two threads may grid the same statistic, which
    gives the same row.
    """
    grid_memo: dict = {}

    def chunk(start: int) -> list[PosteriorSummary]:
        indices = range(start, min(start + CHUNK_SIZE, n_datasets))
        return posterior_summaries(datasets_at(indices), prior, fixed, n_draws,
                                   child_seed(seed, "post-chunk", start), nb_fns, grid_memo)

    chunks = _map_in_order(chunk, range(0, n_datasets, CHUNK_SIZE))
    return [summary for summaries in chunks for summary in summaries]


def nmc_summaries(design: StudyDesign, prior: PriorSpec, fixed: FixedParams,
                  n_outer: int, n_inner: int, seed: int,
                  nb_fns=DEFAULT_NB_FUNCTIONS) -> list[PosteriorSummary]:
    """Outer loop of the nested estimator: one summary per simulated dataset.

    Dataset s is simulated from the prior draw s under the substream
    ``(seed, "data", s)``, inside its chunk's task, and every chunk's
    posterior work runs through :func:`chunked_summaries`.
    """
    if n_outer < 2:
        raise ValueError("n_outer must be at least 2")
    if n_inner < 2:
        raise ValueError("n_inner must be at least 2")
    draws = prior.sample(substream(seed, "outer"), n_outer)

    def simulate(indices: range) -> list[Dataset]:
        return [simulate_dataset(design, draws.item(s), child_seed(seed, "data", s))
                for s in indices]

    return chunked_summaries(n_outer, simulate, prior, fixed, n_inner, seed, nb_fns)


def _mu_matrix(summaries: Sequence[PosteriorSummary]) -> np.ndarray:
    if len(summaries) < 2:
        raise ValueError("need at least two posterior summaries")
    return np.stack([s.mu for s in summaries])


def _estimate(value: float, terms: np.ndarray) -> EvsiEstimate:
    """The value with the standard error of the mean of its per-dataset terms."""
    return EvsiEstimate(value=value, std_error=float(terms.std(ddof=1) / math.sqrt(len(terms))))


def evsi_from_mu(mu: np.ndarray) -> EvsiEstimate:
    """Unadjusted expected value of a study from S x D posterior means ``mu``.

    The baseline is the grand mean of ``mu`` over datasets, so the estimate
    is a mean of per-dataset terms and its standard error follows from their
    spread (the treatment attaining the best grand mean is treated as fixed).
    Both estimators end here.
    """
    grand = mu.mean(axis=0)
    value = float(np.mean(np.max(mu, axis=1))) - float(np.max(grand))
    d_star = int(np.argmax(grand))
    return _estimate(value, np.max(mu, axis=1) - mu[:, d_star])


def evsi_im_from_mu(mu: np.ndarray, p_target: np.ndarray, market_fn: MarketShareFunction,
                    current_shares: CurrentShares) -> EvsiEstimate:
    """Implementation-adjusted expected value of a study from ``mu``.

    Shares after the study respond to each dataset's probability
    ``p_target`` that the target treatment is best; the current market is
    valued on the same grand means, mirroring the unadjusted estimator's
    cancellation of common noise.  Both estimators end here.
    """
    return _estimate(*assemble_evsi_im(mu, p_target, market_fn, current_shares))


def nmc_evsi(summaries: Sequence[PosteriorSummary]) -> EvsiEstimate:
    """Unadjusted expected value of the study from nested summaries."""
    return evsi_from_mu(_mu_matrix(summaries))


def nmc_evsi_im(summaries: Sequence[PosteriorSummary], market_fn: MarketShareFunction,
                current_shares: CurrentShares) -> EvsiEstimate:
    """Implementation-adjusted expected value of the study from nested summaries."""
    mu = _mu_matrix(summaries)
    p_target = np.array([s.p[market_fn.target] for s in summaries])
    return evsi_im_from_mu(mu, p_target, market_fn, current_shares)
