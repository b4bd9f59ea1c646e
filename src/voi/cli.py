"""Command-line interface.

Two subcommands:

* ``voi run --config cfg.json [--method nmc|mm|both] [--seed N] [--out DIR]``
  estimates the value of every configured study and writes ``results.csv``
  (plus ``by_n_study<k>.csv`` per study when the config has an ``n_grid``).
  Whenever moment matching runs it also writes, per study, the probability
  map its value used, ``trend_study<k>.csv`` (512 grid rows), and the
  incremental net benefit sample ``inb_density_study<k>.csv``.  It first
  deletes the per-study files an earlier run left in the output directory.
  It prints each estimate, then the prior sample's summary: every
  treatment's expected net benefit and probability of being best, the EVPI
  and the value of the market as it stands.
* ``voi validate --config cfg.json`` parses and checks the configuration.

Exit codes: 0 on success, 1 for configuration problems, 2 when estimation
fails (curve fits, any other ``ValueError`` or an array too large to
allocate).  Every output file embeds the config hash and seed in a leading
``#`` comment line; rerunning with the same config and seed reproduces the
same estimates (the ``seconds`` column is wall time and naturally varies).
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .config import METHODS, ConfigError, RunConfig
from .curves import FitError
from .market import assemble_evsi, assemble_evsi_im, current_decision_value
from .model import PsaSample, evpi, expected_nb, prob_cost_effective, sample_prior
from .moment_matching import MomentMatchingResult, mm_by_n_pipeline, mm_pipeline
from .nmc import nmc_summaries
from .rng import child_seed

__all__ = ["ResultRow", "ResultTable", "run_config", "main"]

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
            est = assemble_evsi(summaries.inb)
            est_im = assemble_evsi_im(*summaries.toward(config.market.target),
                                      config.market, config.current_shares)
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


def _write_csv(path: Path, table: ResultTable, header: str, columns,
               study: int | None = None) -> None:
    """One output file: a ``#`` line with the config hash and seed, the column
    names, then one line per row of ``columns``.

    A column of floats is written with ``repr``, so it reads back exactly;
    any other column with ``str``.
    """
    meta = f"# config={table.config_hash} seed={table.seed}"
    if study is not None:
        meta += f" study={study}"
    cells = [map(repr, map(float, c)) if isinstance(c[0], float) else map(str, c)
             for c in columns]
    path.write_text("\n".join([meta, header, *map(",".join, zip(*cells))]) + "\n")


def _write_outputs(config: RunConfig, table: ResultTable,
                   mm_results: dict[int, MomentMatchingResult], scans: dict) -> Path:
    out = Path(config.out_dir)
    # The directory holds only this run's files: a per-study file that an
    # earlier run left would sit beside results.csv under another seed.
    for pattern in ("by_n_study*.csv", "trend_study*.csv", "inb_density_study*.csv"):
        for stale in out.glob(pattern):
            stale.unlink()
    _write_csv(out / "results.csv", table, "study,method,evsi,evsi_im,std_error,seconds",
               zip(*[(r.study, r.method, r.evsi, r.evsi_im, r.std_error, f"{r.seconds:.3f}")
                     for r in table.rows]))
    for k, scan in scans.items():
        _write_csv(out / f"by_n_study{k}.csv", table, "n,evsi_im,std_error",
                   [scan.sizes, [est.value for est in scan.estimates],
                    [est.std_error for est in scan.estimates]], study=k)
    for k, result in mm_results.items():
        # The probability map on a strictly increasing grid spanning the
        # incremental net benefit sample, then the sample itself.
        lo, hi = float(result.inb.min()), float(result.inb.max())
        grid = np.linspace(lo, hi if hi > lo else lo + 1.0, TREND_GRID_POINTS)
        probs = np.asarray(result.probability_map(grid), dtype=float)
        _write_csv(out / f"trend_study{k}.csv", table, "inb,probability",
                   [grid.tolist(), probs.tolist()], study=k)
        _write_csv(out / f"inb_density_study{k}.csv", table, "inb",
                   [result.inb.tolist()], study=k)
    return out


def _cmd_run(args) -> int:
    # The config file with whichever of --method, --seed and --out is given.
    config = RunConfig.from_file(args.config)
    overrides = {"method": args.method, "seed": args.seed, "out_dir": args.out or None}
    overrides = {k: v for k, v in overrides.items() if v is not None}
    if overrides:
        config = config.override(**overrides)
    # An unusable output directory is a config error: report it before the
    # estimators run, not after.
    Path(config.out_dir).mkdir(parents=True, exist_ok=True)
    psa = _psa(config)
    value_now = current_decision_value(psa, config.current_shares)
    means, probs, value_perfect = expected_nb(psa), prob_cost_effective(psa), evpi(psa)
    table, mm_results, scans = run_config(config, psa)
    out = _write_outputs(config, table, mm_results, scans)
    for row in table.rows:
        print(f"study {row.study} [{row.method}] evsi={row.evsi:,.1f} "
              f"evsi_im={row.evsi_im:,.1f} se={row.std_error:,.1f} "
              f"({row.seconds:.1f}s)")
    print(f"PSA ({len(psa)} samples)")
    for d, (mean, prob) in enumerate(zip(means, probs), start=1):
        print(f"  treatment {d}: E[NB] = {mean:,.0f}   P(best) = {prob:.3f}")
    print(f"  EVPI = {value_perfect:,.0f}")
    print(f"  current decision value = {value_now:,.0f}")
    print(f"wrote {out / 'results.csv'}")
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
    run.add_argument("--method", choices=METHODS)
    run.add_argument("--seed", type=int)
    run.add_argument("--out")
    run.set_defaults(fn=_cmd_run)

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
    # from estimation, as does a sample or study too large to allocate.
    except (FitError, ValueError, MemoryError) as exc:
        print(f"estimation error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
