"""Run configuration: JSON parsing, validation, and canonical serialization.

The JSON schema (all keys required unless marked optional):

    {
      "seed": 2026,
      "method": "both",                 // "nmc" | "mm" | "both"
      "psa_samples": 10000,             // PSA size under current information
      "outer_datasets": 5000,           // nested MC outer loop size
      "posterior_draws": 10000,         // posterior sample size per dataset
      "quantile_sets": 50,              // moment matching: datasets per study
      "out_dir": "results",             // optional, default "results"
      "n_grid": [20, 60, 100],          // optional: sample-size scan
      "model": {
        "fixed": {"life_years": ..., "event_cost": ..., "treatment_cost": ...,
                   "side_effect_cost": ..., "side_effect_qol_loss": ..., "wtp": ...},
        "priors": {
          "p_event":        {"dist": "beta", "alpha": ..., "beta": ...},
          "log_odds_ratio": {"dist": "normal", "mean": ..., "variance": ...},
          "p_side_effect":  {"dist": "beta", "alpha": ..., "beta": ...},
          "logit_qol":      {"dist": "normal", "mean": ..., "variance": ...}
        }
      },
      "studies": [{"kind": "side_effects", "n": 60}, ...],
      "market_share": {"kind": "threshold_linear", "threshold": 0.6,
                        "saturation_at": 1.0, "target_treatment": 2},
      "current_shares": [1.0, 0.0]
    }

``target_treatment`` is 1-based in the file (treatments are numbered 1, 2)
and 0-based inside the package.  ``market_share.kind`` may also be
"step_at_argmax" (no further keys) or "table" with
``"points": [[p, share], ...]``.  Parsing and emitting round-trip losslessly.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .market import (
    CurrentShares,
    MarketShareFunction,
    StepShare,
    TableShare,
    ThresholdLinearShare,
)
from .model import DEFAULT_NB_FUNCTIONS, BetaPrior, FixedParams, NormalPrior, PriorSpec
from .studies import StudyDesign, StudyKind
from . import critical_event

__all__ = ["ConfigError", "RunConfig", "default_config"]

METHODS = ("nmc", "mm", "both")
N_TREATMENTS = len(DEFAULT_NB_FUNCTIONS)


class ConfigError(ValueError):
    """A configuration problem, tagged with the offending field."""

    def __init__(self, field: str, message: str):
        super().__init__(f"field '{field}': {message}")
        self.field = field


@dataclass(frozen=True)
class RunConfig:
    fixed: FixedParams
    priors: PriorSpec
    studies: tuple[StudyDesign, ...]
    market: MarketShareFunction
    current_shares: CurrentShares
    method: str = "both"
    psa_samples: int = 10_000
    outer_datasets: int = 5_000
    posterior_draws: int = 10_000
    quantile_sets: int = 50
    n_grid: tuple[int, ...] | None = None
    seed: int = 1
    out_dir: str = "results"

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ConfigError("method", f"must be one of {METHODS}")
        for name, minimum in (("psa_samples", 2), ("outer_datasets", 2),
                              ("posterior_draws", 2), ("quantile_sets", 4)):
            value = getattr(self, name)
            if not isinstance(value, int) or value < minimum:
                raise ConfigError(name, f"must be an integer >= {minimum}")
        if not self.studies:
            raise ConfigError("studies", "must list at least one study")
        if self.n_grid is not None:
            if any(n < 1 for n in self.n_grid):
                raise ConfigError("n_grid", "sizes must be at least 1")
            object.__setattr__(self, "n_grid", tuple(int(n) for n in self.n_grid))
        if not isinstance(self.seed, int):
            raise ConfigError("seed", "must be an integer")
        for field, value in self._numbers():
            if not np.all(np.isfinite(np.asarray(value, dtype=float))):
                raise ConfigError(field, "must be finite")
        if len(self.current_shares.shares) != N_TREATMENTS:
            raise ConfigError("current_shares",
                              f"must hold one share per treatment ({N_TREATMENTS})")
        if self.market.target >= N_TREATMENTS:
            raise ConfigError("market_share.target_treatment",
                              f"must be at most the number of treatments ({N_TREATMENTS})")

    def _numbers(self):
        """(config path, value) for every real-valued input, named as in the file."""
        yield from ((f"model.fixed.{f.name}", getattr(self.fixed, f.name))
                    for f in fields(self.fixed))
        for f in fields(self.priors):
            prior = getattr(self.priors, f.name)
            yield from ((f"model.priors.{f.name}.{g.name}", getattr(prior, g.name))
                        for g in fields(prior))
        yield from ((f"market_share.{f.name}", getattr(self.market, f.name))
                    for f in fields(self.market) if f.name != "target")
        yield "current_shares", self.current_shares.shares

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        market: dict = {}
        if isinstance(self.market, ThresholdLinearShare):
            market = {"kind": "threshold_linear", "threshold": self.market.threshold,
                      "saturation_at": self.market.saturation_at}
        elif isinstance(self.market, StepShare):
            market = {"kind": "step_at_argmax"}
        elif isinstance(self.market, TableShare):
            market = {"kind": "table", "points": [list(p) for p in self.market.points]}
        market["target_treatment"] = self.market.target + 1
        out = {
            "seed": self.seed,
            "method": self.method,
            "psa_samples": self.psa_samples,
            "outer_datasets": self.outer_datasets,
            "posterior_draws": self.posterior_draws,
            "quantile_sets": self.quantile_sets,
            "out_dir": self.out_dir,
            "model": {
                "fixed": {
                    "life_years": self.fixed.life_years,
                    "event_cost": self.fixed.event_cost,
                    "treatment_cost": self.fixed.treatment_cost,
                    "side_effect_cost": self.fixed.side_effect_cost,
                    "side_effect_qol_loss": self.fixed.side_effect_qol_loss,
                    "wtp": self.fixed.wtp,
                },
                "priors": {
                    "p_event": {"dist": "beta", "alpha": self.priors.p_event.alpha,
                                "beta": self.priors.p_event.beta},
                    "log_odds_ratio": {"dist": "normal",
                                       "mean": self.priors.log_odds_ratio.mean,
                                       "variance": self.priors.log_odds_ratio.variance},
                    "p_side_effect": {"dist": "beta", "alpha": self.priors.p_side_effect.alpha,
                                      "beta": self.priors.p_side_effect.beta},
                    "logit_qol": {"dist": "normal", "mean": self.priors.logit_qol.mean,
                                  "variance": self.priors.logit_qol.variance},
                },
            },
            "studies": [{"kind": s.kind.value, "n": s.n} for s in self.studies],
            "market_share": market,
            "current_shares": list(self.current_shares.shares),
        }
        if self.n_grid is not None:
            out["n_grid"] = list(self.n_grid)
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def config_hash(self) -> str:
        """Fingerprint of the estimation inputs.

        The seed is reported next to the hash in every output, and the output
        directory has no bearing on the numbers, so neither contributes.
        """
        content = self.to_dict()
        del content["seed"]
        del content["out_dir"]
        canonical = json.dumps(content, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    def override(self, **kwargs) -> "RunConfig":
        return replace(self, **kwargs)

    # -- parsing -----------------------------------------------------------

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError("<root>", "configuration must be a JSON object")

        def number(field: str, value) -> float:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(field, "must be a number")
            return float(value)

        def get(field: str, expected, *, default=_MISSING):
            if field.split(".")[-1] not in _leaf(raw, field):
                if default is not _MISSING:
                    return default
                raise ConfigError(field, "is required")
            value = _leaf(raw, field)[field.split(".")[-1]]
            if expected is float:
                return number(field, value)
            if expected is int:
                if isinstance(value, bool) or not isinstance(value, int):
                    raise ConfigError(field, "must be an integer")
                return value
            if not isinstance(value, expected):
                raise ConfigError(field, f"must be of type {expected.__name__}")
            return value

        def _leaf(node: dict, field: str) -> dict:
            parts = field.split(".")
            for part in parts[:-1]:
                node = node.get(part)
                if not isinstance(node, dict):
                    raise ConfigError(".".join(parts[: parts.index(part) + 1]),
                                      "must be an object")
            return node

        method = get("method", str, default="both")
        if method not in METHODS:
            raise ConfigError("method", f"must be one of {METHODS}")

        def prior(field: str, kind: str):
            spec = get(field, dict)
            dist = spec.get("dist")
            if dist != kind:
                raise ConfigError(field + ".dist", f"must be '{kind}'")
            try:
                if kind == "beta":
                    return BetaPrior(number(field + ".alpha", spec["alpha"]),
                                     number(field + ".beta", spec["beta"]))
                return NormalPrior(number(field + ".mean", spec["mean"]),
                                   number(field + ".variance", spec["variance"]))
            except ConfigError:
                raise
            except KeyError as exc:
                raise ConfigError(field, f"missing key {exc}") from exc
            except (TypeError, ValueError) as exc:
                raise ConfigError(field, str(exc)) from exc

        try:
            fixed = FixedParams(
                life_years=get("model.fixed.life_years", float),
                event_cost=get("model.fixed.event_cost", float),
                treatment_cost=get("model.fixed.treatment_cost", float),
                side_effect_cost=get("model.fixed.side_effect_cost", float),
                side_effect_qol_loss=get("model.fixed.side_effect_qol_loss", float),
                wtp=get("model.fixed.wtp", float),
            )
        except ValueError as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError("model.fixed", str(exc)) from exc

        priors = PriorSpec(
            p_event=prior("model.priors.p_event", "beta"),
            log_odds_ratio=prior("model.priors.log_odds_ratio", "normal"),
            p_side_effect=prior("model.priors.p_side_effect", "beta"),
            logit_qol=prior("model.priors.logit_qol", "normal"),
        )

        raw_studies = get("studies", list)
        studies = []
        for i, entry in enumerate(raw_studies):
            field = f"studies[{i}]"
            if not isinstance(entry, dict) or "kind" not in entry or "n" not in entry:
                raise ConfigError(field, "must be an object with 'kind' and 'n'")
            try:
                studies.append(StudyDesign(StudyKind(entry["kind"]), entry["n"]))
            except ValueError as exc:
                raise ConfigError(field, str(exc)) from exc

        market_raw = get("market_share", dict)
        target = market_raw.get("target_treatment", 2)
        if isinstance(target, bool) or not isinstance(target, int) or target < 1:
            raise ConfigError("market_share.target_treatment", "must be a 1-based treatment number")
        kind = market_raw.get("kind")
        try:
            if kind == "threshold_linear":
                market: MarketShareFunction = ThresholdLinearShare(
                    threshold=number("market_share.threshold", market_raw["threshold"]),
                    saturation_at=number("market_share.saturation_at",
                                         market_raw.get("saturation_at", 1.0)),
                    target=target - 1,
                )
            elif kind == "step_at_argmax":
                market = StepShare(target=target - 1)
            elif kind == "table":
                points = tuple(tuple(number("market_share.points", v) for v in p)
                               for p in market_raw["points"])
                market = TableShare(points=points, target=target - 1)
            else:
                raise ConfigError("market_share.kind",
                                  "must be 'threshold_linear', 'step_at_argmax' or 'table'")
        except ConfigError:
            raise
        except KeyError as exc:
            raise ConfigError("market_share", f"missing key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError("market_share", str(exc)) from exc

        shares_raw = get("current_shares", list)
        try:
            shares = CurrentShares(tuple(number(f"current_shares[{i}]", s)
                                         for i, s in enumerate(shares_raw)))
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError("current_shares", str(exc)) from exc

        n_grid_raw = raw.get("n_grid")
        n_grid = None
        if n_grid_raw is not None:
            if not isinstance(n_grid_raw, list) or not all(
                    isinstance(n, int) and not isinstance(n, bool) for n in n_grid_raw):
                raise ConfigError("n_grid", "must be a list of integers")
            n_grid = tuple(n_grid_raw)

        return cls(
            fixed=fixed,
            priors=priors,
            studies=tuple(studies),
            market=market,
            current_shares=shares,
            method=method,
            psa_samples=get("psa_samples", int, default=10_000),
            outer_datasets=get("outer_datasets", int, default=5_000),
            posterior_draws=get("posterior_draws", int, default=10_000),
            quantile_sets=get("quantile_sets", int, default=50),
            n_grid=n_grid,
            seed=get("seed", int, default=1),
            out_dir=get("out_dir", str, default="results"),
        )

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError("<root>", f"invalid JSON: {exc}") from exc
        return cls.from_dict(raw)

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        path = Path(path)
        if not path.exists():
            raise ConfigError("<file>", f"no such config file: {path}")
        return cls.from_json(path.read_text())


class _Missing:
    pass


_MISSING = _Missing()


def default_config(**overrides) -> RunConfig:
    """The packaged example problem at its headline run settings."""
    cfg = RunConfig(
        fixed=critical_event.FIXED,
        priors=critical_event.PRIORS,
        studies=critical_event.STUDIES,
        market=critical_event.MARKET,
        current_shares=critical_event.CURRENT_SHARES,
        method="both",
        psa_samples=10_000,
        outer_datasets=5_000,
        posterior_draws=10_000,
        quantile_sets=50,
        seed=2026,
        out_dir="results",
    )
    if overrides:
        cfg = cfg.override(**overrides)
    return cfg
