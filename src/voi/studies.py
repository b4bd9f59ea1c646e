"""Study designs, data simulation, and the posterior each study supplies.

Three data collection exercises can inform the decision model:

* ``side_effects``: a single-arm safety study; binomial count of side effects.
* ``quality_of_life``: a survey whose individual responses are normal on the
  logit scale around the true post-event quality of life, with known variance
  ``LOGIT_RESPONSE_VARIANCE``.
* ``effectiveness_rct``: a two-arm trial; binomial event counts under the
  standard of care and under the novel treatment.

Each study informs one model parameter.  For a batch of its datasets, a
study supplies one small posterior object (:func:`study_posterior`, one
table entry per kind) with its study ``kind``, the :class:`ParameterDraw`
``field`` it informs, the batch size as ``len()``, a ``draw(rng, k)`` that
returns ``(k, datasets)`` draws of that field, and a ``quadrature()`` that
returns ``(datasets, K)`` nodes of the field and weights summing to 1 per
row, for exact posterior moments of any function of it.  The inner engine
(:func:`voi.nmc.posterior_summaries`) takes this object and redraws every
other parameter fresh from the prior: they are a priori independent of the
informed one, and the data carry nothing about them.

The first two posteriors are conjugate: a Beta per dataset, integrated over
equal cells of (0, 1), and a Normal on the logit scale, integrated by
Gauss-Hermite.  The trial posterior over ``(logit p_event, log
odds_ratio)`` has no closed form.  Only its log odds ratio marginal feeds
the model, so it is gridded for each dataset, drawn from by inverse-CDF
interpolation and integrated over the grid's cells (:func:`rct_marginal_grid`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from typing import ClassVar, Sequence

import numpy as np

from .model import ParameterDraw, PriorSpec, expit, logit
from .rng import substream

__all__ = [
    "StudyKind",
    "StudyDesign",
    "MAX_STUDY_SIZE",
    "Dataset",
    "LOGIT_RESPONSE_VARIANCE",
    "BLOCK_ELEMENTS",
    "simulate_dataset",
    "study_posterior",
    "SideEffectPosterior",
    "side_effect_posterior",
    "QualityPosterior",
    "quality_posterior",
    "quality_posterior_moments",
    "RctMarginalGrid",
    "rct_marginal_grid",
]

# Known variance of one survey response on the logit scale.
LOGIT_RESPONSE_VARIANCE = 2.0

# Quadrature for the conjugate posteriors' moments: equal cells of the unit
# interval for a Beta, Gauss-Hermite nodes for a Normal on the logit scale.
_BETA_CELLS = 4000
_HERMITE_NODES = 40

# The largest study size: the engine and the by-n scan hold sizes as float64,
# which is exact for every integer up to 2**53.
MAX_STUDY_SIZE = 2**53


class StudyKind(str, Enum):
    SIDE_EFFECTS = "side_effects"
    QUALITY_OF_LIFE = "quality_of_life"
    EFFECTIVENESS_RCT = "effectiveness_rct"


@dataclass(frozen=True)
class StudyDesign:
    """A study kind plus its sample size (per arm for the trial).

    ``n = 0`` is allowed as the degenerate no-information design: the data are
    then independent of the parameters and every posterior equals the prior.
    """

    kind: StudyKind
    n: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", StudyKind(self.kind))
        if (isinstance(self.n, bool) or not isinstance(self.n, (int, np.integer))
                or not 0 <= self.n <= MAX_STUDY_SIZE):
            raise ValueError("n must be an integer from 0 to 2**53")
        object.__setattr__(self, "n", int(self.n))


@dataclass(frozen=True)
class Dataset:
    """A simulated dataset, reduced to its sufficient statistics."""

    design: StudyDesign
    events: int | None = None          # side-effects count
    logit_total: float | None = None   # quality survey: sum of logit responses
    control_events: int | None = None  # trial: events under standard of care
    treated_events: int | None = None  # trial: events under novel treatment


def simulate_dataset(design: StudyDesign, draw: ParameterDraw, seed: int) -> Dataset:
    """Simulate one dataset from the design at the given parameter values."""
    rng = substream(seed, "data", design.kind.value)
    n = design.n
    if design.kind is StudyKind.SIDE_EFFECTS:
        x = int(rng.binomial(n, draw.p_side_effect)) if n > 0 else 0
        return Dataset(design=design, events=x)
    if design.kind is StudyKind.QUALITY_OF_LIFE:
        center = logit(draw.qol_after_event)
        total = float(rng.normal(center, math.sqrt(LOGIT_RESPONSE_VARIANCE), n).sum())
        return Dataset(design=design, logit_total=total)
    xc = int(rng.binomial(n, draw.p_event)) if n > 0 else 0
    xt = int(rng.binomial(n, draw.p_event_treated)) if n > 0 else 0
    return Dataset(design=design, control_events=xc, treated_events=xt)


def _statistics(datasets: Sequence[Dataset], kind: StudyKind, *names: str) -> list[np.ndarray]:
    """The named sufficient statistics of a batch of one kind's datasets, as arrays."""
    if not datasets:
        raise ValueError("need at least one dataset")
    for ds in datasets:
        if ds.design.kind is not kind:
            raise ValueError(f"dataset comes from {ds.design.kind.value!r}, "
                             f"expected {kind.value!r}")
    return [np.array(list(map(attrgetter(name), datasets)), dtype=float) for name in names]


@dataclass(frozen=True)
class SideEffectPosterior:
    """``p_side_effect | x ~ Beta(alpha + x, beta + n - x)``, one per dataset."""

    kind: ClassVar[str] = StudyKind.SIDE_EFFECTS.value
    field: ClassVar[str] = "p_side_effect"
    a: np.ndarray
    b: np.ndarray

    def __len__(self) -> int:
        return self.a.size

    def draw(self, rng: np.random.Generator, k: int) -> np.ndarray:
        """``(k, m)`` draws, column j from dataset j."""
        return rng.beta(self.a, self.b, (k, len(self)))

    def quadrature(self) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and weights, row j for dataset j: the midpoints of
        ``_BETA_CELLS`` equal cells of (0, 1), weighted by the Beta density."""
        p = (np.arange(_BETA_CELLS) + 0.5) / _BETA_CELLS
        log_w = (self.a[:, None] - 1.0) * np.log(p) + (self.b[:, None] - 1.0) * np.log1p(-p)
        w = np.exp(log_w - log_w.max(axis=1, keepdims=True))
        return np.broadcast_to(p, w.shape), w / w.sum(axis=1, keepdims=True)


def side_effect_posterior(datasets: Sequence[Dataset], prior: PriorSpec) -> SideEffectPosterior:
    """Conjugate posteriors for a batch of safety studies."""
    x, n = _statistics(datasets, StudyKind.SIDE_EFFECTS, "events", "design.n")
    return SideEffectPosterior(a=prior.p_side_effect.alpha + x,
                               b=prior.p_side_effect.beta + (n - x))


def quality_posterior_moments(n, logit_total, prior: PriorSpec):
    """Posterior (mean, variance) of logit(qol) for the quality survey.

    Normal-normal update with known response variance: posterior precision is
    the prior precision plus n / LOGIT_RESPONSE_VARIANCE.  Broadcasts over
    arrays of survey sizes and totals.
    """
    prior_prec = 1.0 / prior.logit_qol.variance
    post_prec = prior_prec + np.asarray(n) / LOGIT_RESPONSE_VARIANCE
    post_mean = (prior.logit_qol.mean * prior_prec
                 + np.asarray(logit_total) / LOGIT_RESPONSE_VARIANCE) / post_prec
    return post_mean, 1.0 / post_prec


@dataclass(frozen=True)
class QualityPosterior:
    """``logit(qol) | data ~ Normal(mean, sd^2)``, one per dataset."""

    kind: ClassVar[str] = StudyKind.QUALITY_OF_LIFE.value
    field: ClassVar[str] = "qol_after_event"
    mean: np.ndarray
    sd: np.ndarray

    def __len__(self) -> int:
        return self.mean.size

    def draw(self, rng: np.random.Generator, k: int) -> np.ndarray:
        """``(k, m)`` draws on the model's scale, column j from dataset j."""
        # The same numbers as rng.normal(mean, sd, (k, m)), which takes a
        # slower path for array parameters, scaled and mapped in place.
        x = rng.standard_normal((k, len(self)))
        x *= self.sd
        x += self.mean
        return expit(x, out=x)

    def quadrature(self) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and weights, row j for dataset j: Gauss-Hermite on the logit scale."""
        x, w = np.polynomial.hermite.hermgauss(_HERMITE_NODES)
        z = self.mean[:, None] + math.sqrt(2.0) * self.sd[:, None] * x
        return expit(z), np.broadcast_to(w / math.sqrt(math.pi), z.shape)


def quality_posterior(datasets: Sequence[Dataset], prior: PriorSpec) -> QualityPosterior:
    """Conjugate posteriors for a batch of quality-of-life surveys."""
    total, n = _statistics(datasets, StudyKind.QUALITY_OF_LIFE, "logit_total", "design.n")
    mean, var = quality_posterior_moments(n, total, prior)
    return QualityPosterior(mean=mean, sd=np.sqrt(var))


# ---------------------------------------------------------------------------
# Trial posterior: the log density of (l, g) = (logit p_event, log OR).
# ---------------------------------------------------------------------------

# The trial grid evaluates its log density, and the inner engine draws from
# every posterior, in blocks of about this many elements, so memory stays
# flat however many datasets are batched together.
BLOCK_ELEMENTS = 16_384

# Flooring the exponent at the log of the smallest normal double keeps np.exp
# clear of underflow; it changes only results below that number.
_EXP_FLOOR = math.log(np.finfo(float).tiny)


def _softplus(x: np.ndarray, out: np.ndarray | None = None,
              spare: np.ndarray | None = None) -> np.ndarray:
    """``log(1 + e^x)`` for any finite x, without overflow or underflow.

    The same formula as ``np.logaddexp(0, x)``, at about a sixth of its cost
    on the grid's ``(2, datasets, g nodes, l nodes)`` arrays.  ``out`` and
    ``spare``, arrays of x's shape, take the result and a temporary; without
    them both are allocated.
    """
    out = np.abs(x, out=out)
    np.negative(out, out=out)
    np.maximum(out, _EXP_FLOOR, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    return np.add(np.maximum(x, 0.0, out=spare), out, out=out)


def _rct_log_post(l: np.ndarray, g: np.ndarray, x1, n1, x2, n2, prior: PriorSpec) -> np.ndarray:
    """Unnormalised log posterior density at (l, g) = (logit p_event, log OR).

    The Beta(alpha, beta) prior on p_event becomes, with the Jacobian of the
    logit transform, alpha*l - (alpha+beta)*log(1+e^l) up to a constant, and
    the treated arm has event probability expit(l + g).  Written out plainly,
    apart from the grid's folded form below, as the tests' reference.
    """
    a = prior.p_event.alpha
    b = prior.p_event.beta
    lp = (a + x1) * l - (a + b + n1) * np.logaddexp(0.0, l)
    lp = lp + x2 * (l + g) - n2 * np.logaddexp(0.0, l + g)
    m, v = prior.log_odds_ratio.mean, prior.log_odds_ratio.variance
    lp = lp - 0.5 * (g - m) ** 2 / v
    return lp


def _rct_log_density(x1: np.ndarray, n1: np.ndarray, x2: np.ndarray, n2: np.ndarray,
                     prior: PriorSpec):
    """The grid's form of :func:`_rct_log_post`, one value per dataset.

    Points are given as ``z = (l, l + g)``, the control and treated logits,
    because the density needs the softplus of both: written in z it is
    ``sum_rows(A * z - B * softplus(z)) - (g - m)^2 / 2v`` with ``A = (a +
    x1, x2)`` and ``B = (a + b + n1, n2)``.  The per-dataset constants are
    folded here once; the returned function maps a ``(2, m, ...)`` array of
    points to ``(m, ...)`` log densities, the counts broadcasting against
    the trailing axes.  Its optional ``work``, two arrays of the points'
    shape, holds every intermediate, and the result is a view into the
    second; without it they are allocated.
    """
    a, b = prior.p_event.alpha, prior.p_event.beta
    lin = np.stack([a + x1, x2])
    curv = np.stack([a + b + n1, n2])
    mean, half_prec = prior.log_odds_ratio.mean, 0.5 / prior.log_odds_ratio.variance

    def log_post(z: np.ndarray, work=(None, None)) -> np.ndarray:
        curved, terms = work
        curved = _softplus(z, curved, terms)
        np.multiply(curv, curved, out=curved)
        terms = np.multiply(lin, z, out=terms)
        np.subtract(terms, curved, out=terms)
        # (g - m)^2 / 2v, in the rows of the softplus's spent array.
        d = np.subtract(z[1], z[0], out=curved[0])
        np.subtract(d, mean, out=d)
        penalty = np.multiply(half_prec, d, out=curved[1])
        np.multiply(penalty, d, out=penalty)
        lp = np.add(terms[0], terms[1], out=terms[0])
        return np.subtract(lp, penalty, out=lp)

    return log_post


# ---------------------------------------------------------------------------
# Trial posterior engine: the log odds ratio's marginal on a grid.
# ---------------------------------------------------------------------------

# Grid nodes per dataset: over g = log OR, and over l = logit p_event at each
# g node.  Each axis spans _GRID_SPAN approximate standard deviations either
# side of its centre.
_G_NODES = 256
_L_NODES = 32
_GRID_SPAN = 10.0
_NEWTON_STEPS = 100


def _rct_mode(x1, x2, n, prior: PriorSpec, log_post):
    """Joint posterior mode of (l, g) and the negative Hessian there.

    The log posterior is strictly concave, so Newton's method with step
    halving whenever a step fails to raise it converges from any start.
    Returns ``(l, g, h_ll, h_lg, h_gg)``, one value per dataset.
    """
    a, b = prior.p_event.alpha, prior.p_event.beta
    mean, prec = prior.log_odds_ratio.mean, 1.0 / prior.log_odds_ratio.variance
    l = logit((x1 + a) / (n + a + b))
    g = np.full_like(l, mean)
    value = log_post(np.stack([l, l + g]))
    for _ in range(_NEWTON_STEPS):
        p1, p2 = expit(l), expit(l + g)
        w1, w2 = (a + b + n) * p1 * (1.0 - p1), n * p2 * (1.0 - p2)
        h_ll, h_lg, h_gg = w1 + w2, w2, w2 + prec
        grad_g = x2 - n * p2 - (g - mean) * prec
        grad_l = a + x1 - (a + b + n) * p1 + x2 - n * p2
        det = h_ll * h_gg - h_lg * h_lg
        dl = (h_gg * grad_l - h_lg * grad_g) / det
        dg = (h_ll * grad_g - h_lg * grad_l) / det
        size = np.maximum(np.abs(dl), np.abs(dg))
        moving = size > 1e-8
        if not moving.any():
            break
        t = np.where(moving, 1.0 / np.maximum(size, 1.0), 0.0)
        for _ in range(60):
            cand = log_post(np.stack([l + t * dl, l + t * dl + g + t * dg]))
            worse = cand < value
            if not worse.any():
                break
            t[worse] *= 0.5
        t[worse] = 0.0
        l, g = l + t * dl, g + t * dg
        value = np.maximum(value, cand)
    return l, g, h_ll, h_lg, h_gg


@dataclass(frozen=True)
class RctMarginalGrid:
    """Marginal posteriors of the log odds ratio, one grid row per dataset.

    ``nodes`` holds each dataset's evenly spaced g nodes.  ``stacked_cdf``
    holds the posterior CDF at them, rising from 0 to exactly 1, plus 2j on
    row j: flattened, the rows form one increasing sequence with a gap
    between rows, so one interpolation serves every dataset and no query can
    land in a neighbour's row.  Draws invert the CDF by linear interpolation
    between nodes.
    """

    # The trial's two binomial arms also carry information about the baseline
    # event rate, but only the treatment-effect update (the odds ratio
    # marginal, baseline integrated out) feeds the decision model; the
    # baseline rate is redrawn from the prior like every other parameter the
    # study does not inform.
    kind: ClassVar[str] = StudyKind.EFFECTIVENESS_RCT.value
    field: ClassVar[str] = "odds_ratio"
    nodes: np.ndarray
    stacked_cdf: np.ndarray

    def __len__(self) -> int:
        return self.nodes.shape[0]

    def quantile(self, u: np.ndarray) -> np.ndarray:
        """Map ``(m, k)`` uniforms to log odds ratio draws, row j from dataset j.

        One ``np.interp`` call on the stacked CDFs locates every uniform and
        interpolates between its two nodes; it runs fastest when each row is
        sorted, as the search then walks forward.
        """
        offset = 2.0 * np.arange(u.shape[0])
        return np.interp(u + offset[:, None], self.stacked_cdf.ravel(), self.nodes.ravel())

    def draw(self, rng: np.random.Generator, k: int) -> np.ndarray:
        """``(k, m)`` odds ratio draws, column j from dataset j.

        The uniforms are sorted per dataset first, so each dataset's draws
        come in increasing order.  They are still independent draws, and the
        engine pairs each with independent prior draws, so the order is
        immaterial.
        """
        u = rng.random((len(self), k))
        u.sort(axis=1)
        return np.exp(self.quantile(u)).T

    def quadrature(self) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and weights, row j for dataset j: the odds ratio at the
        midpoint of each cell between g nodes, weighted by the cell's probability."""
        mid = 0.5 * (self.nodes[:, 1:] + self.nodes[:, :-1])
        return np.exp(mid), np.diff(self.stacked_cdf, axis=1)


def _grid_rows(x1: np.ndarray, x2: np.ndarray, n: np.ndarray,
               prior: PriorSpec) -> tuple[np.ndarray, np.ndarray]:
    """Each trial statistic's g nodes and marginal CDF, one row each.

    The grid is laid out by the normal approximation at the joint mode.  Its
    g nodes span ``_GRID_SPAN`` standard deviations of g either side of the
    mode.  At each g node the l nodes are centred on the approximation's
    conditional mean of l given g, which tracks the posterior's ridge, and
    span ``_GRID_SPAN`` conditional standard deviations.  Summing the density
    over the l nodes gives the marginal density of g (the sheared grid has
    the same l spacing at every g node), and a cumulative trapezoid over g
    its CDF, from 0 to exactly 1.  The log density is evaluated a block of
    about ``BLOCK_ELEMENTS`` nodes at a time, in three arrays that every
    block reuses.  Every step works row by row, so a row does not depend on
    the other statistics in the batch.
    """
    log_post = _rct_log_density(x1, n, x2, n, prior)
    l_hat, g_hat, h_ll, h_lg, h_gg = _rct_mode(x1, x2, n, prior, log_post)
    peak = log_post(np.stack([l_hat, l_hat + g_hat]))
    g_sd = np.sqrt(h_ll / (h_ll * h_gg - h_lg * h_lg))
    nodes = g_hat[:, None] + g_sd[:, None] * np.linspace(-_GRID_SPAN, _GRID_SPAN, _G_NODES)
    l_span = np.linspace(-_GRID_SPAN, _GRID_SPAN, _L_NODES)
    slope, l_sd = h_lg / h_ll, 1.0 / np.sqrt(h_ll)

    cdf = np.zeros_like(nodes)
    rows = max(1, BLOCK_ELEMENTS // (_G_NODES * _L_NODES))
    # The block's points (l, l + g) and the log density's two work arrays;
    # each block takes a contiguous prefix of each, the last one a shorter one.
    buffers = np.empty((3, 2 * min(rows, len(n)) * _G_NODES * _L_NODES))
    for s in range(0, len(n), rows):
        blk = slice(s, s + rows)
        col = (blk, None, None)
        shape = (2, min(rows, len(n) - s), _G_NODES, _L_NODES)
        z, *work = (b[:math.prod(shape)].reshape(shape) for b in buffers)
        g = nodes[blk, :, None]
        np.add(l_hat[col] - slope[col] * (g - g_hat[col]), l_sd[col] * l_span, out=z[0])
        np.add(z[0], g, out=z[1])
        lp = _rct_log_density(x1[col], n[col], x2[col], n[col], prior)(z, work)
        # The density relative to its value at the mode, summed over l.
        np.subtract(lp, peak[col], out=lp)
        density = np.exp(lp, out=lp).sum(axis=-1)
        # Cumulative trapezoid; the constant node spacing cancels below.
        np.cumsum(density[:, 1:] + density[:, :-1], axis=1, out=cdf[blk, 1:])
    cdf /= cdf[:, -1:]
    return nodes, cdf


def rct_marginal_grid(datasets: Sequence[Dataset], prior: PriorSpec,
                      grid_memo: dict | None = None) -> RctMarginalGrid:
    """Grid the marginal posterior of g = log OR for each trial dataset.

    Datasets with the same statistic ``(control_events, treated_events, n)``
    share one grid row (:func:`_grid_rows`).  ``grid_memo``, a dict that the
    caller keeps for one prior, maps each statistic gridded so far to its
    nodes and CDF; only the statistics it lacks are gridded, in one batch,
    and added to it.  Rows do not depend on their batch, so the result is
    the same with or without the memo.
    """
    stats = _statistics(datasets, StudyKind.EFFECTIVENESS_RCT,
                        "control_events", "treated_events", "design.n")
    keys = list(zip(*(column.tolist() for column in stats)))
    memo = {} if grid_memo is None else grid_memo
    new = list(dict.fromkeys(key for key in keys if key not in memo))
    if new:
        memo.update(zip(new, zip(*_grid_rows(*np.array(new).T, prior))))
    rows = [memo[key] for key in keys]
    cdf = np.stack([row[1] for row in rows])
    cdf += 2.0 * np.arange(len(rows))[:, None]
    return RctMarginalGrid(nodes=np.stack([row[0] for row in rows]), stacked_cdf=cdf)


# The posterior each conjugate study kind supplies for a batch of its datasets.
_CONJUGATE = {
    StudyKind.SIDE_EFFECTS: side_effect_posterior,
    StudyKind.QUALITY_OF_LIFE: quality_posterior,
}


def study_posterior(datasets: Sequence[Dataset], prior: PriorSpec,
                    grid_memo: dict | None = None):
    """The posterior of the one parameter a batch of datasets informs.

    Every kind's posterior has its study ``kind``, the ``field`` of
    :class:`ParameterDraw` it informs, length ``len(datasets)`` and a
    ``draw(rng, k)`` returning ``(k, len(datasets))`` draws of the field on
    the model's scale, column j from dataset j.  The datasets must all come
    from the same kind of study.  The trial's posterior reuses the grid rows
    in ``grid_memo`` (:func:`rct_marginal_grid`); the conjugate ones ignore it.
    """
    if not datasets:
        raise ValueError("need at least one dataset")
    kind = datasets[0].design.kind
    if kind is StudyKind.EFFECTIVENESS_RCT:
        return rct_marginal_grid(datasets, prior, grid_memo)
    return _CONJUGATE[kind](datasets, prior)
