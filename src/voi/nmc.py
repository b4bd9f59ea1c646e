"""The nested Monte Carlo engine: one posterior summary row per dataset.

The outer loop simulates datasets from the prior predictive: draw parameters,
draw a dataset.  The inner loop samples the posterior given each dataset and
reduces it to a row of :class:`PosteriorSummaries`: the incremental net
benefit ``inb`` (the posterior mean of the novel treatment's net benefit
minus the standard one's) and the probability ``p`` that the novel treatment
is best.  This module stops there: both estimators value the rows through
:mod:`voi.market` (``assemble_evsi_im`` on ``summaries.toward(target)`` for
the adjusted value, ``assemble_evsi`` on ``summaries.inb`` for the
unadjusted one).

One inner engine, :func:`posterior_summaries`, serves every study kind and
both estimators: given the posterior of a batch of datasets
(:func:`voi.studies.study_posterior`), which draws the one parameter the
study informs, it lets the prior refill the rest and folds each block of
draws into a running sum of each draw's net-benefit difference and a count of
the draws the novel treatment wins.  :func:`chunked_summaries` cuts the
datasets into chunks of ``CHUNK_SIZE``, each with the posterior its caller
builds and its own derived streams, and runs the chunks on one thread per
usable core; numpy's generators release the interpreter lock while they fill
arrays.  Results come back in dataset order and are bit for bit the same
whatever the number of cores.

The prior refill is most of the inner work, so the nested estimator draws it
once per inner row of a chunk and lets the chunk's datasets share it (the
*shared fill*).  Each dataset's inner sample is still an independent draw
from its own posterior, so every summary keeps its distribution; only the
inner errors of one chunk's datasets become correlated.  Averaged over the
many chunks of an outer loop that correlation is small: over 30 seeds at
about 500 outer datasets, each estimate moved from its one-fill-per-dataset
value by 0.08-0.24 of its reported SE (SD of the paired shift), and the
across-seed SD stayed at 0.88-1.14 reported SEs (0.85-1.13 before).
Moment matching keeps one fill per dataset.  Its few datasets' (INB, P)
pairs are the whole probability map, so correlated inner errors do not
average out there: over seeds 0-29 a shared fill would more than halve its
engine time, but it shifted each study's estimate with a paired SD of 57,
41 and 45 and raised the across-seed SD of studies 2 and 3 from 108 to 119
and from 125 to 136.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .model import DEFAULT_NB_FUNCTIONS, FixedParams, PriorSpec
from .rng import child_seed, substream
from .studies import BLOCK_ELEMENTS, StudyDesign, simulate_dataset, study_posterior

__all__ = [
    "PosteriorSummaries",
    "CHUNK_SIZE",
    "posterior_summaries",
    "chunked_summaries",
    "nmc_summaries",
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
class PosteriorSummaries:
    """The inner posterior samples of S datasets, each reduced to one row.

    inb: posterior mean of the novel treatment's net benefit minus the
         standard one's, length S.
    p: probability that the novel treatment's net benefit exceeds the
       standard one's (a tie counts for the standard one), length S.
    """

    inb: np.ndarray
    p: np.ndarray

    def toward(self, target: int) -> tuple[np.ndarray, np.ndarray]:
        """``(inb, p)`` for treatment ``target``, exact for either treatment."""
        return (self.inb, self.p) if target == 1 else (-self.inb, 1.0 - self.p)


def posterior_summaries(
    posterior,
    prior: PriorSpec,
    fixed: FixedParams,
    n_draws: int,
    seed: int,
    nb_fns=DEFAULT_NB_FUNCTIONS,
    *,
    shared_fill: bool,
) -> PosteriorSummaries:
    """Summaries for a batch of one study kind's datasets, reduced block by block.

    ``posterior`` (:func:`voi.studies.study_posterior`) draws its informed
    parameter for every dataset as ``(k, len(posterior))`` blocks of about
    ``BLOCK_ELEMENTS`` draws from the stream ``(seed, "posterior", kind)``;
    the prior refills every other parameter from ``(seed, "posterior", kind,
    "complement")``, as a ``(k, len(posterior))`` block or, with
    ``shared_fill``, as one ``(k, 1)`` column that every dataset of the batch
    shares.  With one dataset the two fills are the same numbers.  Each block
    is evaluated by the pair ``nb_fns`` (standard, novel), whose results
    broadcast to ``(k, len(posterior))``; each draw's novel minus standard
    net benefit is summed and its positive values counted.
    """
    standard, novel = nb_fns
    rng = substream(seed, "posterior", posterior.kind)
    fill_rng = substream(seed, "posterior", posterior.kind, "complement")
    m = len(posterior)
    length = max(1, BLOCK_ELEMENTS // m)
    sums = np.zeros(m)
    wins = np.zeros(m)
    # Every block's differences in one array; the net benefits themselves
    # belong to the caller's functions.
    diff = np.empty((min(length, n_draws), m))
    for start in range(0, n_draws, length):
        x = posterior.draw(rng, min(length, n_draws - start))
        fill = (x.shape[0], 1) if shared_fill else x.shape
        draw = prior.sample(fill_rng, fill, {posterior.field: x})
        block = np.subtract(novel(draw, fixed), standard(draw, fixed), out=diff[:x.shape[0]])
        sums += block.sum(axis=0)
        wins += np.count_nonzero(block > 0.0, axis=0)
        # Let this block's draws go before the next block draws its own.
        del x, draw

    return PosteriorSummaries(inb=sums / n_draws, p=wins / n_draws)


def chunked_summaries(n_datasets: int, posterior_at: Callable[[range], object],
                      prior: PriorSpec, fixed: FixedParams, n_draws: int, seed: int,
                      nb_fns=DEFAULT_NB_FUNCTIONS, *, shared_fill: bool) -> PosteriorSummaries:
    """One summary row per dataset, ``CHUNK_SIZE`` datasets at a time.

    The chunk starting at dataset ``start`` gets its datasets' posterior
    from ``posterior_at(range(start, stop))``, inside its own task, and its
    posterior streams from ``child_seed(seed, "post-chunk", start)``.  Chunks
    run on one thread per usable core; the result does not depend on the
    number of cores.  ``shared_fill`` goes to :func:`posterior_summaries`;
    each caller states it.  The chunks' rows are concatenated in dataset order.
    """
    def chunk(start: int) -> PosteriorSummaries:
        indices = range(start, min(start + CHUNK_SIZE, n_datasets))
        return posterior_summaries(posterior_at(indices), prior, fixed, n_draws,
                                   child_seed(seed, "post-chunk", start), nb_fns,
                                   shared_fill=shared_fill)

    chunks = _map_in_order(chunk, range(0, n_datasets, CHUNK_SIZE))
    return PosteriorSummaries(*(np.concatenate([getattr(c, name) for c in chunks])
                                for name in ("inb", "p")))


def nmc_summaries(design: StudyDesign, prior: PriorSpec, fixed: FixedParams,
                  n_outer: int, n_inner: int, seed: int,
                  nb_fns=DEFAULT_NB_FUNCTIONS) -> PosteriorSummaries:
    """Outer loop of the nested estimator: one summary row per simulated dataset.

    Dataset s is simulated from the prior draw s under the substream
    ``(seed, "data", s)``, inside its chunk's task, and every chunk's
    posterior work runs through :func:`chunked_summaries` with the shared
    fill: the chunk's datasets share each inner row's prior refill.  The
    chunks' posteriors share one grid memo for this call, so the trial grids
    each distinct statistic about once, whichever chunk meets it first; two
    threads may grid the same statistic, which gives the same row.
    """
    if n_outer < 2:
        raise ValueError("n_outer must be at least 2")
    if n_inner < 2:
        raise ValueError("n_inner must be at least 2")
    draws = prior.sample(substream(seed, "outer"), n_outer)
    grid_memo: dict = {}

    def posterior_at(indices: range):
        datasets = [simulate_dataset(design, draws.item(s), child_seed(seed, "data", s))
                    for s in indices]
        return study_posterior(datasets, prior, grid_memo)

    return chunked_summaries(n_outer, posterior_at, prior, fixed, n_inner, seed, nb_fns,
                             shared_fill=True)
