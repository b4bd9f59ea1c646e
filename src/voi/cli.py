"""Command-line interface.

Three subcommands:

* ``voi run --config cfg.json [--method nmc|mm|both] [--seed N] [--out DIR]``
  estimates the value of every configured study and writes ``results.csv``
  (plus ``by_n_study<k>.csv`` per study when the config has an ``n_grid``).
* ``voi trend --config cfg.json --study K [--seed N] [--out DIR]`` writes the
  fitted probability trend ``trend_study<k>.csv`` (512 grid rows) and the
  incremental net benefit sample ``inb_density_study<k>.csv``.
* ``voi validate --config cfg.json`` parses and checks the configuration.

Exit codes: 0 on success, 1 for configuration problems, 2 when estimation
fails (sampler diagnostics, curve fits or any other ``ValueError``).  Every
output file embeds the config hash and seed in a leading ``#`` comment line;
rerunning with the same config and seed reproduces the same estimates (the
``seconds`` column is wall time and naturally varies).
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .config import ConfigError, RunConfig
from .curves import FitError, LogisticFit
from .market import current_decision_value
from .model import PsaSample, prob_cost_effective, sample_prior
from .moment_matching import MomentMatchingResult, mm_by_n_pipeline, mm_pipeline
from .nmc import nmc_evsi, nmc_evsi_im, nmc_summaries
from .rng import child_seed
from .studies import SamplerError

__all__ = ["ResultRow", "ResultTable", "run_config", "emit_trend_curve", "main"]

TREND_GRID_POINTS = 512


@dataclass(frozen=True)
class ResultRow:
    study: int
    method: str
    evsi: float
    evsi_im: float
    std_error: float
    seconds: float


@dataclass(frozen=True)
class ResultTable:
    rows: tuple[ResultRow, ...]
    config_hash: str
    seed: int

    def to_csv(self, path: Path) -> None:
        lines = [f"# config={self.config_hash} seed={self.seed}",
                 "study,method,evsi,evsi_im,std_error,seconds"]
        for r in self.rows:
            lines.append(f"{r.study},{r.method},{r.evsi!r},{r.evsi_im!r},"
                         f"{r.std_error!r},{r.seconds:.3f}")
        path.write_text("\n".join(lines) + "\n")


def _psa(config: RunConfig) -> PsaSample:
    return sample_prior(config.priors, config.fixed, config.psa_samples,
                        child_seed(config.seed, "psa"))


def run_config(config: RunConfig, psa: PsaSample | None = None):
    """Run the configured estimations.

    Returns ``(table, mm_results, scans)``: the result table, the per-study
    moment-matching details (for trend emission), and the per-study
    sample-size scans when the config requests them.
    """
    if psa is None:
        psa = _psa(config)
    rows: list[ResultRow] = []
    mm_results: dict[int, MomentMatchingResult] = {}
    scans = {}
    for k, design in enumerate(config.studies, start=1):
        if config.method in ("nmc", "both"):
            t0 = time.perf_counter()
            summaries = nmc_summaries(design, config.priors, config.fixed,
                                      config.outer_datasets, config.posterior_draws,
                                      child_seed(config.seed, "nmc", k))
            est = nmc_evsi(summaries)
            est_im = nmc_evsi_im(summaries, config.market, config.current_shares)
            rows.append(ResultRow(k, "nmc", est.value, est_im.value,
                                  est_im.std_error, time.perf_counter() - t0))
        if config.method in ("mm", "both"):
            t0 = time.perf_counter()
            result = mm_pipeline(psa, config.priors, config.fixed, design,
                                 config.market, config.current_shares,
                                 config.quantile_sets, config.posterior_draws,
                                 child_seed(config.seed, "mm", k))
            mm_results[k] = result
            rows.append(ResultRow(k, "mm", result.evsi.value, result.evsi_im.value,
                                  result.evsi_im.std_error, time.perf_counter() - t0))
            if config.n_grid:
                scans[k] = mm_by_n_pipeline(psa, config.priors, config.fixed, design,
                                            config.market, config.current_shares,
                                            config.quantile_sets, config.posterior_draws,
                                            config.n_grid,
                                            child_seed(config.seed, "mm-by-n", k),
                                            cond=result.cond)
    table = ResultTable(rows=tuple(rows), config_hash=config.config_hash(),
                        seed=config.seed)
    return table, mm_results, scans


def emit_trend_curve(fit: LogisticFit, inb_samples: np.ndarray, curve_path: Path,
                     density_path: Path, meta: str) -> None:
    """Write the fitted probability trend and the incremental benefit sample.

    The curve file holds ``TREND_GRID_POINTS`` rows over a strictly increasing
    grid spanning the sample range; the density file holds the sample itself.
    """
    inb = np.asarray(inb_samples, dtype=float)
    lo, hi = float(inb.min()), float(inb.max())
    if not hi > lo:
        hi = lo + 1.0
    grid = np.linspace(lo, hi, TREND_GRID_POINTS)
    probs = np.asarray(fit.predict(grid))
    lines = [f"# {meta}", "inb,probability"]
    lines += [f"{float(x)!r},{float(p)!r}" for x, p in zip(grid, probs)]
    curve_path.write_text("\n".join(lines) + "\n")
    lines = [f"# {meta}", "inb"]
    lines += [f"{float(x)!r}" for x in inb]
    density_path.write_text("\n".join(lines) + "\n")


def _write_outputs(config: RunConfig, table: ResultTable, scans: dict) -> Path:
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    table.to_csv(out / "results.csv")
    for k, scan in scans.items():
        lines = [f"# config={table.config_hash} seed={config.seed} study={k}",
                 "n,evsi_im,std_error"]
        for n, est in zip(scan.sizes, scan.estimates):
            lines.append(f"{n},{est.value!r},{est.std_error!r}")
        (out / f"by_n_study{k}.csv").write_text("\n".join(lines) + "\n")
    return out


def _cmd_run(args) -> int:
    config = RunConfig.from_file(args.config)
    overrides = {}
    if args.method:
        overrides["method"] = args.method
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out:
        overrides["out_dir"] = args.out
    if overrides:
        config = config.override(**overrides)
    psa = _psa(config)
    value_now = current_decision_value(psa, config.current_shares)
    prob = prob_cost_effective(psa)
    table, _, scans = run_config(config, psa)
    out = _write_outputs(config, table, scans)
    print(f"current decision value: {value_now:,.0f}")
    print(f"probability novel treatment is cost effective: {prob[-1]:.3f}")
    for row in table.rows:
        print(f"study {row.study} [{row.method}] evsi={row.evsi:,.1f} "
              f"evsi_im={row.evsi_im:,.1f} se={row.std_error:,.1f} "
              f"({row.seconds:.1f}s)")
    print(f"wrote {out / 'results.csv'}")
    return 0


def _cmd_trend(args) -> int:
    config = RunConfig.from_file(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out:
        overrides["out_dir"] = args.out
    if overrides:
        config = config.override(**overrides)
    k = args.study
    if not 1 <= k <= len(config.studies):
        raise ConfigError("study", f"must be between 1 and {len(config.studies)}")
    psa = _psa(config)
    result = mm_pipeline(psa, config.priors, config.fixed, config.studies[k - 1],
                         config.market, config.current_shares,
                         config.quantile_sets, config.posterior_draws,
                         child_seed(config.seed, "mm", k))
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    meta = f"config={config.config_hash()} seed={config.seed} study={k}"
    emit_trend_curve(result.logistic, result.inb,
                     out / f"trend_study{k}.csv",
                     out / f"inb_density_study{k}.csv", meta)
    print(f"wrote {out / f'trend_study{k}.csv'} and {out / f'inb_density_study{k}.csv'}")
    return 0


def _cmd_validate(args) -> int:
    config = RunConfig.from_file(args.config)
    print(f"config ok: {len(config.studies)} studies, method={config.method}, "
          f"seed={config.seed}, hash={config.config_hash()}")
    return 0


class _Parser(argparse.ArgumentParser):
    # Usage problems are configuration problems: exit 1, not argparse's 2.
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="voi", description="Value-of-information estimation")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="estimate the value of every configured study")
    run.add_argument("--config", required=True)
    run.add_argument("--method", choices=("nmc", "mm", "both"))
    run.add_argument("--seed", type=int)
    run.add_argument("--out")
    run.set_defaults(fn=_cmd_run)

    trend = sub.add_parser("trend", help="emit the fitted probability trend for one study")
    trend.add_argument("--config", required=True)
    trend.add_argument("--study", type=int, required=True)
    trend.add_argument("--seed", type=int)
    trend.add_argument("--out")
    trend.set_defaults(fn=_cmd_trend)

    validate = sub.add_parser("validate", help="check a configuration file")
    validate.add_argument("--config", required=True)
    validate.set_defaults(fn=_cmd_validate)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    # After ConfigError, which is a ValueError too: any other ValueError comes
    # from estimation.
    except (SamplerError, FitError, ValueError) as exc:
        print(f"estimation error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
