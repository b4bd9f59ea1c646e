"""Value-of-information estimation for two-treatment adoption decisions.

The package estimates how much a proposed study is worth when the decision
it informs is taken by a market of adopters rather than a single rational
payer.  Two estimators are provided: a nested Monte Carlo reference
(:mod:`voi.nmc`) and a fast moment-matching approximation
(:mod:`voi.moment_matching`).  :mod:`voi.critical_event` packages the worked
decision problem used throughout the tests, and :mod:`voi.cli` exposes the
``voi`` command.
"""

from .config import ConfigError, RunConfig, default_config
from .critical_event import CURRENT_SHARES, FIXED, MARKET, PRIORS, STUDIES
from .curves import (
    FitError,
    LogisticFit,
    VarianceCurveFit,
    fit_generalized_logistic,
    fit_generalized_logistic_n,
    fit_variance_curve,
)
from .market import (
    CurrentShares,
    StepShare,
    TableShare,
    ThresholdLinearShare,
    assemble_evsi_im,
    current_decision_value,
    market_share,
    share_matrix,
)
from .model import (
    BetaPrior,
    FixedParams,
    NormalPrior,
    ParameterDraw,
    PriorSpec,
    PsaSample,
    derive_pt,
    evpi,
    expected_nb,
    net_benefit_novel,
    net_benefit_standard,
    prob_cost_effective,
    sample_prior,
)
from .moment_matching import (
    MomentMatchingResult,
    SampleSizeScan,
    mm_by_n_pipeline,
    mm_pipeline,
    quantile_datasets,
    quantile_grid,
)
from .nmc import EvsiEstimate, PosteriorSummary, nmc_evsi, nmc_evsi_im, nmc_summaries
from .rng import child_seed, substream
from .studies import (
    Dataset,
    StudyDesign,
    StudyKind,
    simulate_dataset,
)

__version__ = "0.1.0"

__all__ = [
    "BetaPrior",
    "ConfigError",
    "CurrentShares",
    "CURRENT_SHARES",
    "Dataset",
    "EvsiEstimate",
    "FIXED",
    "FitError",
    "FixedParams",
    "LogisticFit",
    "MARKET",
    "MomentMatchingResult",
    "NormalPrior",
    "ParameterDraw",
    "PosteriorSummary",
    "PRIORS",
    "PriorSpec",
    "PsaSample",
    "RunConfig",
    "SampleSizeScan",
    "StepShare",
    "STUDIES",
    "StudyDesign",
    "StudyKind",
    "TableShare",
    "ThresholdLinearShare",
    "VarianceCurveFit",
    "assemble_evsi_im",
    "child_seed",
    "current_decision_value",
    "default_config",
    "derive_pt",
    "evpi",
    "expected_nb",
    "fit_generalized_logistic",
    "fit_generalized_logistic_n",
    "fit_variance_curve",
    "market_share",
    "mm_by_n_pipeline",
    "mm_pipeline",
    "net_benefit_novel",
    "net_benefit_standard",
    "nmc_evsi",
    "nmc_evsi_im",
    "nmc_summaries",
    "prob_cost_effective",
    "quantile_datasets",
    "quantile_grid",
    "sample_prior",
    "simulate_dataset",
    "substream",
    "__version__",
]
