"""Run configuration: JSON parsing, validation, and canonical serialization.

The JSON schema, with the shipped case study's run settings:

    {
      "seed": 2026,
      "method": "both",                 // "nmc" | "mm" | "both"
      "psa_samples": 10000,             // PSA size under current information
      "outer_datasets": 5000,           // nested MC outer loop size
      "posterior_draws": 10000,         // posterior sample size per dataset
      "quantile_sets": 50,              // moment matching: datasets per study
      "out_dir": "results",
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

The seven run settings (``seed`` to ``out_dir``) are optional, and so are the
market keys whose fields have defaults (``saturation_at``,
``target_treatment``): an absent one takes its dataclass field's default.
Every other key is required, and a key the schema does not name, at any
level, is an error.
``target_treatment`` is 1-based in the file (treatments are numbered 1, 2)
and 0-based inside the package.  ``market_share.kind`` may also be
"step_at_argmax" (no further keys) or "table" with
``"points": [[p, share], ...]``.  Parsing and emitting round-trip losslessly.
"""

from __future__ import annotations

import hashlib
import json
import math
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path
from typing import get_origin, get_type_hints

import numpy as np

from .market import (
    CurrentShares,
    MarketShareFunction,
    StepShare,
    TableShare,
    ThresholdLinearShare,
)
from .model import DEFAULT_NB_FUNCTIONS, BetaPrior, FixedParams, NormalPrior, PriorSpec
from .studies import MAX_STUDY_SIZE, StudyDesign, StudyKind

__all__ = ["METHODS", "ConfigError", "RunConfig"]

METHODS = ("nmc", "mm", "both")
N_TREATMENTS = len(DEFAULT_NB_FUNCTIONS)
# Each prior type's "dist" in the file; its other keys are the prior's fields.
_DIST_NAMES = {BetaPrior: "beta", NormalPrior: "normal"}
# Each market type's "kind" in the file; its other keys are the type's fields,
# with the 0-based ``target`` written as the 1-based ``target_treatment``.
_MARKET_KINDS = {"threshold_linear": ThresholdLinearShare, "step_at_argmax": StepShare,
                 "table": TableShare}


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
            if any(not 1 <= n <= MAX_STUDY_SIZE for n in self.n_grid):
                raise ConfigError("n_grid", "sizes must be integers from 1 to 2**53")
            object.__setattr__(self, "n_grid", tuple(int(n) for n in self.n_grid))
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError("seed", "must be a non-negative integer")
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
        market = self.market
        out = {
            **{f.name: getattr(self, f.name) for f in _run_settings()},
            "model": {
                "fixed": {f.name: getattr(self.fixed, f.name) for f in fields(self.fixed)},
                "priors": {f.name: _prior_dict(getattr(self.priors, f.name))
                           for f in fields(self.priors)},
            },
            "studies": [{"kind": s.kind.value, "n": s.n} for s in self.studies],
            "market_share": {
                "kind": next(k for k, c in _MARKET_KINDS.items() if c is type(market)),
                **{f.name: _plain(getattr(market, f.name))
                   for f in fields(market) if f.name != "target"},
                "target_treatment": market.target + 1,
            },
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
        _known_keys(raw, "", [f.name for f in _run_settings()]
                    + ["n_grid", "model", "studies", "market_share", "current_shares"])

        def get(field: str, expected, default=MISSING):
            """The value at dotted path ``field``, of type ``expected``; ``default`` if absent."""
            *parents, key = field.split(".")
            node = raw
            for depth, part in enumerate(parents, start=1):
                node = node.get(part)
                if not isinstance(node, dict):
                    raise ConfigError(".".join(parents[:depth]), "must be an object")
            if key not in node:
                if default is MISSING:
                    raise ConfigError(field, "is required")
                return default
            value = node[key]
            if expected is float:
                return _number(field, value)
            if get_origin(expected) is tuple:  # a table's rows of numbers
                return tuple(tuple(_number(field, v) for v in row) for row in value)
            if expected is int:
                if isinstance(value, bool) or not isinstance(value, int):
                    raise ConfigError(field, "must be an integer")
            elif not isinstance(value, expected):
                raise ConfigError(field, f"must be of type {expected.__name__}")
            return value

        def values(field: str, kind, skip=(), extra=()) -> dict:
            """``kind``'s fields from the object at ``field``, defaults where it has none.

            The object may hold no keys but those fields and ``extra``.
            """
            hints = get_type_hints(kind)
            wanted = [f for f in fields(kind) if f.name not in skip]
            _known_keys(get(field, dict), field, [f.name for f in wanted] + list(extra))
            return {f.name: get(f"{field}.{f.name}", hints[f.name], f.default) for f in wanted}

        def prior(field: str, kind):
            dist = _DIST_NAMES[kind]
            if get(field, dict).get("dist") != dist:
                raise ConfigError(field + ".dist", f"must be '{dist}'")
            with _blamed_on(field):
                return kind(**values(field, kind, extra=("dist",)))

        _known_keys(get("model", dict), "model", ("fixed", "priors"))
        with _blamed_on("model.fixed"):
            fixed = FixedParams(**values("model.fixed", FixedParams))

        _known_keys(get("model.priors", dict), "model.priors",
                    [f.name for f in fields(PriorSpec)])
        prior_types = get_type_hints(PriorSpec)
        priors = PriorSpec(**{f.name: prior(f"model.priors.{f.name}", prior_types[f.name])
                              for f in fields(PriorSpec)})

        raw_studies = get("studies", list)
        studies = []
        for i, entry in enumerate(raw_studies):
            field = f"studies[{i}]"
            if not isinstance(entry, dict) or "kind" not in entry or "n" not in entry:
                raise ConfigError(field, "must be an object with 'kind' and 'n'")
            _known_keys(entry, field, ("kind", "n"))
            with _blamed_on(field):
                studies.append(StudyDesign(StudyKind(entry["kind"]), entry["n"]))

        market_raw = get("market_share", dict)
        kind = get("market_share.kind", str)
        if kind not in _MARKET_KINDS:
            raise ConfigError("market_share.kind", f"must be one of {tuple(_MARKET_KINDS)}")
        with _blamed_on("market_share"):
            market_args = values("market_share", _MARKET_KINDS[kind], skip=("target",),
                                 extra=("kind", "target_treatment"))
            if "target_treatment" in market_raw:
                target = get("market_share.target_treatment", int)
                if target < 1:
                    raise ConfigError("market_share.target_treatment",
                                      "must be a 1-based treatment number")
                market_args["target"] = target - 1
            market = _MARKET_KINDS[kind](**market_args)

        shares_raw = get("current_shares", list)
        with _blamed_on("current_shares"):
            shares = CurrentShares(tuple(_number(f"current_shares[{i}]", s)
                                         for i, s in enumerate(shares_raw)))

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
            n_grid=n_grid,
            **{f.name: get(f.name, type(f.default), f.default) for f in _run_settings()},
        )

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        try:
            raw = json.loads(text)
        # A RecursionError is JSON nested deeper than the parser can follow.
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ConfigError("<root>", f"invalid JSON: {exc}") from exc
        return cls.from_dict(raw)

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        path = Path(path)
        if not path.exists():
            raise ConfigError("<file>", f"no such config file: {path}")
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError("<file>", f"not UTF-8 text: {exc}") from exc
        return cls.from_json(text)


def _run_settings():
    """RunConfig's scalar run settings: the fields whose default is a number or a string."""
    return [f for f in fields(RunConfig) if isinstance(f.default, (int, str))]


def _known_keys(node: dict, field: str, known) -> None:
    """Refuse the first key of the object at ``field`` that is not in ``known``."""
    for key in node:
        if key not in known:
            raise ConfigError(f"{field}.{key}" if field else str(key), "is not a known key")


def _number(field: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(field, "must be a number")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    # Checked here, before a constructor's range check can blame the whole object.
    if not math.isfinite(number):
        raise ConfigError(field, "must be finite")
    return number


def _plain(value):
    """``value`` with its tuples as lists, the way JSON reads it back."""
    return [_plain(v) for v in value] if isinstance(value, tuple) else value


def _prior_dict(prior: BetaPrior | NormalPrior) -> dict:
    return {"dist": _DIST_NAMES[type(prior)], **{f.name: getattr(prior, f.name)
                                                 for f in fields(prior)}}


@contextmanager
def _blamed_on(field: str):
    """Report a constructor's TypeError or ValueError as a ConfigError on ``field``."""
    try:
        yield
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(field, str(exc)) from exc
