"""Two-treatment decision model and probabilistic sensitivity analysis.

The model concerns patients at risk of a critical health event.  Under the
standard of care a patient experiences the event with probability ``p_event``;
a novel treatment lowers the odds of the event by a factor ``odds_ratio`` but
can cause a side effect with probability ``p_side_effect``.  A patient who has
the event lives the rest of their life at a reduced quality of life
``qol_after_event`` relative to full health; the decline is modelled as linear,
so the event costs ``(1 - qol_after_event) / 2`` QALYs per remaining life year
on average.  The side effect removes a fixed number of QALYs.

Net benefit is measured in money at a fixed willingness to pay per QALY.  Both
net-benefit functions are pure and broadcast over numpy arrays, so a single
call evaluates a whole probabilistic sensitivity analysis (PSA) sample; each
term is only as wide as the draws it reads, so shared ``(k, 1)`` columns stay narrow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .rng import substream

__all__ = [
    "FixedParams",
    "BetaPrior",
    "NormalPrior",
    "PriorSpec",
    "ParameterDraw",
    "PsaSample",
    "derive_pt",
    "net_benefit_standard",
    "net_benefit_novel",
    "DEFAULT_NB_FUNCTIONS",
    "sample_prior",
    "expected_nb",
    "prob_cost_effective",
    "evpi",
    "expit",
    "logit",
]


@dataclass(frozen=True)
class FixedParams:
    """Known quantities of the decision model.

    life_years: remaining life expectancy of a treated patient, in years.
    event_cost: cost of treating the critical event.
    treatment_cost: cost of the novel treatment itself.
    side_effect_cost: cost of managing the side effect.
    side_effect_qol_loss: QALYs lost to the side effect.
    wtp: willingness to pay per QALY.
    """

    life_years: float
    event_cost: float
    treatment_cost: float
    side_effect_cost: float
    side_effect_qol_loss: float
    wtp: float

    def __post_init__(self) -> None:
        if self.life_years < 1.0:
            raise ValueError("life_years must be at least 1")
        for name in ("event_cost", "treatment_cost", "side_effect_cost", "wtp"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.side_effect_qol_loss < 0.0:
            raise ValueError("side_effect_qol_loss must be nonnegative")


@dataclass(frozen=True)
class BetaPrior:
    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if self.alpha <= 0.0 or self.beta <= 0.0:
            raise ValueError("Beta prior requires positive shape parameters")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.beta(self.alpha, self.beta, size)


@dataclass(frozen=True)
class NormalPrior:
    """Normal prior given as (mean, variance)."""

    mean: float
    variance: float

    def __post_init__(self) -> None:
        if self.variance <= 0.0:
            raise ValueError("Normal prior requires positive variance")

    @property
    def sd(self) -> float:
        return math.sqrt(self.variance)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        # The same numbers as rng.normal(mean, sd, size), scaled in place.
        x = rng.standard_normal(size)
        x *= self.sd
        x += self.mean
        return x


@dataclass(frozen=True)
class PriorSpec:
    """Priors over the four uncertain model parameters.

    ``log_odds_ratio`` and ``logit_qol`` are priors on transformed scales; the
    sampler maps them back through exp and the logistic function.
    """

    p_event: BetaPrior
    log_odds_ratio: NormalPrior
    p_side_effect: BetaPrior
    logit_qol: NormalPrior

    # Canonical sampling order of the ParameterDraw fields.  Keeping one
    # order makes streams reproducible.
    FIELD_ORDER = ("p_event", "odds_ratio", "p_side_effect", "qol_after_event")

    def sample(self, rng: np.random.Generator, size, given: dict | None = None) -> "ParameterDraw":
        """Draw every parameter not in ``given`` from its prior.

        The one prior sampler: fields are drawn from ``rng`` in
        ``FIELD_ORDER``, so the stream is consumed the same way wherever it is
        used, and the values in ``given`` (posterior draws of the parameters
        a study informs) pass through unchanged.  ``size`` is an int or a
        shape.
        """
        values = dict(given or {})
        for name in self.FIELD_ORDER:
            if name not in values:
                prior, to_model_scale = _PRIOR_OF[name]
                x = getattr(self, prior).sample(rng, size)
                values[name] = x if to_model_scale is None else to_model_scale(x, out=x)
        return ParameterDraw.from_primitives(**values)


def expit(x, out=None):
    """The logistic function ``1 / (1 + exp(-x))``, elementwise.

    scipy.special.expit's formula in numpy: below x = -709.78 ``exp(-x)``
    overflows and the result is exactly 0, without a warning.  ``out`` may be
    ``x`` itself.
    """
    x = np.asarray(x, dtype=float)
    if out is None:
        out = np.empty_like(x)
    with np.errstate(over="ignore"):
        np.exp(np.negative(x, out=out), out=out)
    out += 1.0
    np.reciprocal(out, out=out)
    return out if out.ndim else out[()]


def logit(p):
    """The log odds ``log(p / (1 - p))``, elementwise.

    Near p = 1/2 the ratio's log would lose digits, so on [0.3, 0.65], where
    scipy.special.logit also switches form, it is ``2 artanh(2p - 1)``, whose
    argument is exact for p >= 1/4.
    """
    p = np.asarray(p, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where((p < 0.3) | (p > 0.65), np.log(p / (1.0 - p)),
                       2.0 * np.arctanh(2.0 * p - 1.0))
    return out if out.ndim else out[()]


# The prior behind each sampled ParameterDraw field, and the map from the
# prior's scale back to the model's.
_PRIOR_OF = {
    "p_event": ("p_event", None),
    "odds_ratio": ("log_odds_ratio", np.exp),
    "p_side_effect": ("p_side_effect", None),
    "qol_after_event": ("logit_qol", expit),
}


def _inside_unit_interval(name: str, value) -> np.ndarray:
    """``value`` as a float array, checked to lie strictly inside (0, 1).

    The bounds are checked on the minimum and maximum, which are NaN if any
    value is, so NaN fails them too.
    """
    v = np.asarray(value, dtype=float)
    if v.size and not (v.min() > 0.0 and v.max() < 1.0):
        raise ValueError(f"{name} must lie strictly inside (0, 1)")
    return v


def derive_pt(p_event, odds_ratio):
    """Probability of the event under the novel treatment.

    Applies the odds-ratio reduction to the baseline probability:
    ``p * or / (1 - p + p * or)``.  Broadcasts over arrays.
    """
    p = _inside_unit_interval("p_event", p_event)
    o = np.asarray(odds_ratio, dtype=float)
    if o.size and not o.min() > 0.0:
        raise ValueError("odds_ratio must be positive")
    po = p * o
    out = po / ((1.0 - p) + po)
    if out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class ParameterDraw:
    """One parameter set (or a whole vector of them; fields broadcast).

    ``p_event_treated`` is derived, never sampled: it must equal
    ``derive_pt(p_event, odds_ratio)``.  Use :meth:`from_primitives` to build
    validated draws from the four sampled quantities.
    """

    p_event: float | np.ndarray
    odds_ratio: float | np.ndarray
    p_side_effect: float | np.ndarray
    qol_after_event: float | np.ndarray
    p_event_treated: float | np.ndarray

    @classmethod
    def from_primitives(cls, p_event, odds_ratio, p_side_effect, qol_after_event) -> "ParameterDraw":
        _inside_unit_interval("p_side_effect", p_side_effect)
        _inside_unit_interval("qol_after_event", qol_after_event)
        return cls(
            p_event=p_event,
            odds_ratio=odds_ratio,
            p_side_effect=p_side_effect,
            qol_after_event=qol_after_event,
            p_event_treated=derive_pt(p_event, odds_ratio),
        )

    def item(self, i: int) -> "ParameterDraw":
        """Scalar draw at index ``i`` of vector-valued fields."""
        return ParameterDraw(
            p_event=float(np.asarray(self.p_event)[i]),
            odds_ratio=float(np.asarray(self.odds_ratio)[i]),
            p_side_effect=float(np.asarray(self.p_side_effect)[i]),
            qol_after_event=float(np.asarray(self.qol_after_event)[i]),
            p_event_treated=float(np.asarray(self.p_event_treated)[i]),
        )


def _event_loss(qol_after_event, fixed: FixedParams):
    """Money lost to one event: ``wtp * life_years * (1 - qol) / 2 + event_cost``."""
    return (0.5 * fixed.wtp * fixed.life_years) * (1.0 - qol_after_event) + fixed.event_cost


def net_benefit_standard(draw: ParameterDraw, fixed: FixedParams):
    """Monetary net benefit of the standard of care.

    QALYs: an event patient gets ``life_years * (1 + qol) / 2`` (linear decline
    to ``qol``), everyone else gets full ``life_years``.  Costs: treating the
    event.  Collected: full health less ``p_event`` times the event's loss.
    """
    return fixed.wtp * fixed.life_years - draw.p_event * _event_loss(draw.qol_after_event, fixed)


def net_benefit_novel(draw: ParameterDraw, fixed: FixedParams):
    """Monetary net benefit of the novel treatment.

    Averages QALYs over the four event-by-side-effect outcomes at the treated
    event probability, and charges the treatment cost plus expected event and
    side-effect management costs.  Collected: full health less the treatment
    cost, ``p_event_treated`` times the event's loss and ``p_side_effect``
    times the side effect's, ``wtp * side_effect_qol_loss + side_effect_cost``.
    """
    side_effect_loss = fixed.wtp * fixed.side_effect_qol_loss + fixed.side_effect_cost
    return (fixed.wtp * fixed.life_years - fixed.treatment_cost
            - draw.p_event_treated * _event_loss(draw.qol_after_event, fixed)
            - draw.p_side_effect * side_effect_loss)


DEFAULT_NB_FUNCTIONS = (net_benefit_standard, net_benefit_novel)


@dataclass(frozen=True)
class PsaSample:
    """A probabilistic sensitivity analysis sample.

    ``draws`` holds length-S arrays in each field; ``nb`` is the S x D matrix
    whose row i evaluates every treatment's net benefit at draw i.  Treatment
    columns are ordered (standard, novel) for the default model.
    """

    draws: ParameterDraw
    nb: np.ndarray

    def __post_init__(self) -> None:
        nb = np.asarray(self.nb)
        if nb.ndim != 2 or nb.shape[0] < 2 or nb.shape[1] < 2:
            raise ValueError("nb must be an S x D matrix with S >= 2 and D >= 2")
        if not np.all(np.isfinite(nb)):
            raise ValueError("nb contains non-finite values")

    def __len__(self) -> int:
        return self.nb.shape[0]

    @property
    def n_treatments(self) -> int:
        return self.nb.shape[1]


def sample_prior(spec: PriorSpec, fixed: FixedParams, n_samples: int, seed: int) -> PsaSample:
    """Draw a PSA sample of size ``n_samples`` from the prior.

    All draws come from the single substream ``(seed, "prior")`` through
    :meth:`PriorSpec.sample`, so the result is a bit-reproducible function of
    ``(spec, fixed, n_samples, seed)``.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    draws = spec.sample(substream(seed, "prior"), n_samples)
    nb = np.column_stack([fn(draws, fixed) for fn in DEFAULT_NB_FUNCTIONS])
    return PsaSample(draws=draws, nb=nb)


def expected_nb(psa: PsaSample) -> np.ndarray:
    """Mean net benefit per treatment (length D)."""
    return psa.nb.mean(axis=0)


def prob_cost_effective(psa: PsaSample) -> np.ndarray:
    """Probability that each treatment attains the row maximum of ``nb``.

    Ties go to the lowest treatment index.  The first component is defined as
    one minus the rest so the vector sums to exactly 1.0.
    """
    winner = np.argmax(psa.nb, axis=1)
    counts = np.bincount(winner, minlength=psa.n_treatments)
    p = counts / len(psa)
    p[0] = max(0.0, 1.0 - p[1:].sum())
    return p


def evpi(psa: PsaSample) -> float:
    """Expected value of perfect information for the PSA sample."""
    value = float(np.mean(np.max(psa.nb, axis=1)) - np.max(psa.nb.mean(axis=0)))
    return max(0.0, value)
