"""Reproduce the worked case study end to end.

Runs the probabilistic sensitivity analysis and both estimators for the three
candidate studies, printing the headline numbers.  At the default settings
(10k PSA samples, 5k outer datasets with 10k posterior draws each for nested
Monte Carlo, 50 quantile datasets for moment matching) the full run takes
25 to 28 s on two cores, almost all of it in the nested Monte Carlo runs,
7 to 9 s per study.

Usage:
    python3 scripts/run_critical_event.py [--fast] [--seed N] [--out DIR]

``--fast`` shrinks every run setting for a quick end-to-end check.
"""

from __future__ import annotations

import argparse

from voi.cli import _write_outputs, run_config
from voi.config import default_config
from voi.market import current_decision_value
from voi.model import evpi, expected_nb, prob_cost_effective, sample_prior
from voi.rng import child_seed


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fast", action="store_true",
                        help="small run settings for a quick check")
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--out", default="results")
    args = parser.parse_args()

    overrides = {"seed": args.seed, "out_dir": args.out}
    if args.fast:
        overrides.update(psa_samples=2000, outer_datasets=200,
                         posterior_draws=1000, quantile_sets=16)
    config = default_config(**overrides)

    psa = sample_prior(config.priors, config.fixed, config.psa_samples,
                       child_seed(config.seed, "psa"))
    means = expected_nb(psa)
    probs = prob_cost_effective(psa)
    print(f"PSA ({len(psa)} samples)")
    for d, (m, p) in enumerate(zip(means, probs), start=1):
        print(f"  treatment {d}: E[NB] = {m:,.0f}   P(best) = {p:.3f}")
    print(f"  EVPI = {evpi(psa):,.0f}")
    print(f"  current decision value = "
          f"{current_decision_value(psa, config.current_shares):,.0f}")
    print()

    table, _, scans = run_config(config, psa)
    for row in table.rows:
        print(f"study {row.study} [{row.method:>3}] evsi = {row.evsi:>9,.1f}   "
              f"evsi_im = {row.evsi_im:>9,.1f}   se = {row.std_error:>7,.1f}   "
              f"{row.seconds:6.1f}s")
    out = _write_outputs(config, table, scans)
    print(f"\nwrote {out / 'results.csv'}")


if __name__ == "__main__":
    main()
