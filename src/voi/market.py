"""Market-share dynamics and the implementation-adjusted value assembly.

A decision is rarely rolled out wholesale: after a study reports, each
treatment captures only a share of the market.  Shares respond to the evidence
through the probability ``p`` that the target treatment is cost effective.
Three response shapes are supported:

* ``ThresholdLinearShare``: zero uptake below a threshold, then linear growth
  that reaches full uptake at ``saturation_at``.
* ``StepShare``: all-or-nothing adoption of whichever treatment looks best.
  Inside the value assembly this puts the whole market on the treatment with
  the higher posterior mean net benefit, which is exactly what the
  unadjusted value-of-information estimators assume.
* ``TableShare``: piecewise-linear interpolation through user breakpoints.

With two treatments, moving a share of the market to the target treatment
gains that share times the target's incremental net benefit (INB): its
posterior mean net benefit minus the other's.  Both estimators end in this
module: they hand it each dataset's INB (and, for the adjusted value, the
target's probability of being best), and :func:`assemble_evsi_im` averages
``(share after - share now) * inb`` over datasets into an
:class:`EvsiEstimate`, the implementation-adjusted expected value of the
study with the standard error of that mean.  :func:`assemble_evsi` is the
same assembly under a step market: the unadjusted value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import PsaSample

__all__ = [
    "ThresholdLinearShare",
    "StepShare",
    "TableShare",
    "MarketShareFunction",
    "CurrentShares",
    "EvsiEstimate",
    "market_share",
    "current_decision_value",
    "assemble_evsi_im",
    "assemble_evsi",
]


@dataclass(frozen=True)
class ThresholdLinearShare:
    """Uptake 0 below ``threshold``, then linear, saturating at 1.

    ``target`` is the 0-based index of the treatment whose share follows the
    curve; the other treatment receives the complement.
    """

    threshold: float
    saturation_at: float = 1.0
    target: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.threshold < 1.0:
            raise ValueError("threshold must lie in [0, 1)")
        if not self.threshold < self.saturation_at <= 1.0:
            raise ValueError("saturation_at must lie in (threshold, 1]")
        if self.target < 0:
            raise ValueError("target must be a nonnegative treatment index")

    def target_share(self, p):
        p = np.asarray(p, dtype=float)
        raw = (p - self.threshold) / (self.saturation_at - self.threshold)
        share = np.clip(raw, 0.0, 1.0)
        if share.ndim == 0:
            return float(share)
        return share


@dataclass(frozen=True)
class StepShare:
    """Whole market to the apparently best treatment.

    Applied to a probability alone the step sits at 1/2 (ties keep the
    incumbent); applied inside the assembly it follows the sign of the
    incremental net benefit, ties to the lower-indexed treatment.
    """

    target: int = 1

    def target_share(self, p):
        p = np.asarray(p, dtype=float)
        share = (p > 0.5).astype(float)
        if share.ndim == 0:
            return float(share)
        return share


@dataclass(frozen=True)
class TableShare:
    """Piecewise-linear uptake through (probability, share) breakpoints."""

    points: tuple[tuple[float, float], ...]
    target: int = 1

    def __post_init__(self) -> None:
        pts = tuple((float(p), float(s)) for p, s in self.points)
        object.__setattr__(self, "points", pts)
        if len(pts) < 2:
            raise ValueError("need at least two breakpoints")
        ps = np.array([p for p, _ in pts])
        ss = np.array([s for _, s in pts])
        # Bounds on the minimum and maximum, which NaN fails.
        if not (ps.min() >= 0.0 and ps.max() <= 1.0 and np.diff(ps).min() > 0.0):
            raise ValueError("breakpoint probabilities must be strictly increasing within [0, 1]")
        if not (ss.min() >= 0.0 and ss.max() <= 1.0 and np.diff(ss).min() >= 0.0):
            raise ValueError("breakpoint shares must be nondecreasing within [0, 1]")

    def target_share(self, p):
        p = np.asarray(p, dtype=float)
        ps = np.array([q for q, _ in self.points])
        ss = np.array([s for _, s in self.points])
        share = np.interp(p, ps, ss)
        if share.ndim == 0:
            return float(share)
        return share


MarketShareFunction = ThresholdLinearShare | StepShare | TableShare


@dataclass(frozen=True)
class CurrentShares:
    """How the market is split before the study reports."""

    shares: tuple[float, ...]

    def __post_init__(self) -> None:
        shares = tuple(float(s) for s in self.shares)
        object.__setattr__(self, "shares", shares)
        arr = np.array(shares)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("need one share per treatment, at least two treatments")
        if not (arr.min() >= 0.0 and arr.max() <= 1.0):
            raise ValueError("shares must lie in [0, 1]")
        if abs(arr.sum() - 1.0) > 1e-9:
            raise ValueError("shares must sum to 1")


@dataclass(frozen=True)
class EvsiEstimate:
    """A point estimate of the value of a study with its Monte Carlo error."""

    value: float
    std_error: float

    def __post_init__(self) -> None:
        if self.std_error < 0.0:
            raise ValueError("std_error must be nonnegative")


def market_share(fn: MarketShareFunction, p) -> np.ndarray:
    """Both treatments' market shares given the probability for the target.

    Two-treatment rule: the target treatment takes ``fn.target_share(p)``, the
    other one the complement.  Components always sum to exactly 1.
    """
    p = np.asarray(p, dtype=float)
    if p.size and not (p.min() >= 0.0 and p.max() <= 1.0):
        raise ValueError("probabilities must lie in [0, 1]")
    s = np.asarray(fn.target_share(p))
    if fn.target not in (0, 1):
        raise ValueError("probability-driven shares are defined for two treatments")
    out = np.empty(p.shape + (2,))
    out[..., fn.target] = s
    out[..., 1 - fn.target] = 1.0 - s
    return out


def current_decision_value(psa: PsaSample, shares: CurrentShares) -> float:
    """Expected net benefit of the market as currently split."""
    m = np.array(shares.shares)
    means = psa.nb.mean(axis=0)
    if m.size != means.size:
        raise ValueError("share vector length must match the number of treatments")
    return float(np.sum(m * means))


def assemble_evsi_im(inb: np.ndarray, p_target: np.ndarray | None, fn: MarketShareFunction,
                     shares: CurrentShares) -> EvsiEstimate:
    """Implementation-adjusted expected value of a study, with its standard error.

    ``inb`` and ``p_target`` are each dataset's incremental net benefit of
    the target treatment ``fn.target`` and probability that it is best.  Term
    s is ``(target share after - target share now) * inb[s]``: what the
    market gains once shares respond to dataset s, with today's split valued
    on the same posterior means, so the common simulation noise cancels.
    The value is the mean of the terms and the standard error that of their
    mean, so at least two datasets are needed.  ``StepShare`` ignores
    ``p_target`` and moves the whole market to the higher posterior mean,
    ties to the lower index (``inb > 0`` for target 1, ``inb >= 0`` for
    target 0).
    """
    inb = np.asarray(inb, dtype=float)
    if len(inb) < 2:
        raise ValueError("need at least two posterior summaries")
    if isinstance(fn, StepShare):
        after = (inb > 0.0) if fn.target == 1 else (inb >= 0.0)
    elif np.shape(p_target) != inb.shape:
        raise ValueError("p_target must have one probability per dataset")
    else:
        after = market_share(fn, p_target)[..., fn.target]
    terms = (after - shares.shares[fn.target]) * inb
    return EvsiEstimate(value=float(np.mean(terms)),
                        std_error=float(terms.std(ddof=1) / math.sqrt(len(terms))))


def assemble_evsi(inb: np.ndarray) -> EvsiEstimate:
    """Unadjusted expected value of a study from its INB column.

    The classical value is :func:`assemble_evsi_im` under a step market,
    starting from the treatment with the better grand mean (treated as fixed
    for the standard error).  Either treatment's view of ``inb`` gives the
    same value.
    """
    now = CurrentShares((0.0, 1.0) if np.sum(inb) > 0.0 else (1.0, 0.0))
    return assemble_evsi_im(inb, None, StepShare(), now)
