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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import expit

from .market import CurrentShares, MarketShareFunction, assemble_evsi_im, evsi_im_terms
from .model import (
    DEFAULT_NB_FUNCTIONS,
    FixedParams,
    ParameterDraw,
    PriorSpec,
    derive_pt,
)
from .rng import child_seed, substream
from .studies import (
    Dataset,
    PosteriorDraws,
    StudyDesign,
    StudyKind,
    posterior_quality,
    posterior_side_effects,
    run_rct_chains,
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
]

# Trial posteriors are sampled for many datasets at once, one Metropolis chain
# per dataset advanced in lockstep.  The outer loop is cut into fixed-size
# chunks, each with its own derived stream, so results do not depend on how
# the chunks are scheduled.
RCT_CHUNK_SIZE = 512


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
    acceptance_rate: float | None = None


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
        acceptance_rate=post.acceptance_rate,
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
    """Summaries for a batch of trial datasets without retaining the chains.

    At every retained Metropolis state the chain contributes only the odds
    ratio (its marginal with the baseline rate integrated out); the baseline
    rate and every other parameter are drawn fresh from the prior.  The
    chains hand over their retained states a block at a time (``k`` states
    of every chain, ``k`` set by the sampler's element budget, see
    :func:`run_rct_chains`), and each block is refilled from the prior,
    evaluated and folded into running moments and win counts in one pass.
    Moments accumulate relative to the first retained value, which keeps the
    variance accumulation well conditioned at net-benefit magnitudes.
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

    def on_retained(l: np.ndarray, g: np.ndarray) -> None:
        nonlocal shift, sums, sumsq, counts
        size = g.shape
        odds_ratio = np.exp(g)
        p_event = prior.p_event.sample(fill_rng, size)
        p_side = prior.p_side_effect.sample(fill_rng, size)
        qol = expit(prior.logit_qol.sample(fill_rng, size))
        draw = ParameterDraw(
            p_event=p_event,
            odds_ratio=odds_ratio,
            p_side_effect=p_side,
            qol_after_event=qol,
            p_event_treated=derive_pt(p_event, odds_ratio),
        )
        nb = np.stack([fn(draw, fixed) for fn in nb_fns], axis=-1)
        if shift is None:
            shift = nb[0].copy()
        delta = nb - shift
        sums += delta.sum(axis=0)
        sumsq += (delta * delta).sum(axis=0)
        counts += _win_counts(np.moveaxis(nb, -1, 0)).T

    _, _, acceptance = run_rct_chains(datasets, prior, n_draws, seed,
                                      on_retained=on_retained, keep_chain=False)

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
            acceptance_rate=float(acceptance[j]),
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


def _prior_parameter_draws(prior: PriorSpec, rng: np.random.Generator, size: int) -> ParameterDraw:
    p_event = prior.p_event.sample(rng, size)
    odds_ratio = np.exp(prior.log_odds_ratio.sample(rng, size))
    p_side = prior.p_side_effect.sample(rng, size)
    qol = expit(prior.logit_qol.sample(rng, size))
    return ParameterDraw.from_primitives(p_event, odds_ratio, p_side, qol)


def nmc_summaries(design: StudyDesign, prior: PriorSpec, fixed: FixedParams,
                  n_outer: int, n_inner: int, seed: int,
                  nb_fns=DEFAULT_NB_FUNCTIONS) -> list[PosteriorSummary]:
    """Outer loop of the nested estimator: one summary per simulated dataset.

    Dataset s is simulated from the prior draw s under the substream
    ``(seed, "data", s)`` and its posterior is sampled under
    ``(seed, "post", s)`` (conjugate designs) or a per-chunk stream (trial
    design), so the result is invariant to how the loop is parallelised.
    """
    if n_outer < 2:
        raise ValueError("n_outer must be at least 2")
    if n_inner < 2:
        raise ValueError("n_inner must be at least 2")
    outer_rng = substream(seed, "outer")
    draws = _prior_parameter_draws(prior, outer_rng, n_outer)
    datasets = [
        simulate_dataset(design, draws.item(s), child_seed(seed, "data", s))
        for s in range(n_outer)
    ]
    if design.kind is StudyKind.EFFECTIVENESS_RCT:
        summaries: list[PosteriorSummary] = []
        for start in range(0, n_outer, RCT_CHUNK_SIZE):
            chunk = datasets[start:start + RCT_CHUNK_SIZE]
            summaries.extend(rct_nb_summaries(
                chunk, prior, fixed, n_inner,
                child_seed(seed, "post-chunk", start),
                nb_fns, dataset_indices=range(start, start + len(chunk)),
            ))
        return summaries
    return [
        posterior_nb_summary(datasets[s], prior, fixed, n_inner,
                             child_seed(seed, "post", s), nb_fns, dataset_index=s)
        for s in range(n_outer)
    ]


def _mu_matrix(summaries: Sequence[PosteriorSummary]) -> np.ndarray:
    if len(summaries) < 2:
        raise ValueError("need at least two posterior summaries")
    return np.stack([s.mu for s in summaries])


def nmc_evsi(summaries: Sequence[PosteriorSummary]) -> EvsiEstimate:
    """Unadjusted expected value of the study from nested summaries.

    The baseline is the grand mean of ``mu`` over datasets, so the estimate
    is a mean of per-dataset terms and its standard error follows from their
    spread (the treatment attaining the best grand mean is treated as fixed).
    """
    mu = _mu_matrix(summaries)
    grand = mu.mean(axis=0)
    value = float(np.mean(np.max(mu, axis=1))) - float(np.max(grand))
    d_star = int(np.argmax(grand))
    terms = np.max(mu, axis=1) - mu[:, d_star]
    se = float(terms.std(ddof=1) / math.sqrt(len(summaries)))
    return EvsiEstimate(value=value, std_error=se, n_outer=len(summaries),
                        n_inner=summaries[0].n_draws, method="nmc")


def nmc_evsi_im(summaries: Sequence[PosteriorSummary], market_fn: MarketShareFunction,
                current_shares: CurrentShares) -> EvsiEstimate:
    """Implementation-adjusted expected value of the study.

    Shares after the study respond to each dataset's probability that the
    target treatment is best; the current market is valued on the same grand
    means, mirroring the unadjusted estimator's cancellation of common noise.
    """
    mu = _mu_matrix(summaries)
    p_target = np.array([s.p[market_fn.target] for s in summaries])
    value = assemble_evsi_im(mu, p_target, market_fn, current_shares)
    terms = evsi_im_terms(mu, p_target, market_fn, current_shares)
    se = float(terms.std(ddof=1) / math.sqrt(len(summaries)))
    return EvsiEstimate(value=value, std_error=se, n_outer=len(summaries),
                        n_inner=summaries[0].n_draws, method="nmc")
