"""Benchmark for voi: three workloads run through ``voi run``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]
    python3 perfbench/run.py --replicate [--workloads A,B] [--seeds 0-9] [--write-pins]

A run generates the workload's config from ``configs/critical_event.json``
plus the workload's overrides and the seed, then starts fresh worker
processes (``worker.py``), one ``voi run`` pass each, until ``--seconds`` is
spent.  Each pass's outputs are checked; metrics are medians over passes.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json``, or with ``--trace 1`` its per-layer metrics from traced
passes alternated with untraced ones.  Everything else the run measures is
printed above that line as ``name value unit``.  Passes run one at a time,
each in one single-threaded Python process with BLAS threads capped at the
number of usable cores.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASE_CONFIG = ROOT / "configs" / "critical_event.json"
PINS = HERE / "pins.json"
WORK = ROOT / ".perfbench_work"

# Each workload: which shipped studies it keeps and what it overrides.
WORKLOADS = {
    "nmc-conjugate": {"studies": ("side_effects", "quality_of_life"),
                      "overrides": {"method": "nmc", "outer_datasets": 500}},
    "nmc-trial": {"studies": ("effectiveness_rct",),
                  "overrides": {"method": "nmc", "outer_datasets": 512}},
    "mm-scan": {"studies": ("side_effects", "quality_of_life", "effectiveness_rct"),
                "overrides": {"method": "mm", "n_grid": [10, 60, 100, 150, 200]}},
}

# An estimate passes when it lands within this many errors of the mean of the
# pinned seeds.  The error is the estimate's reported SE for ``nmc`` rows,
# whose SEs match their across-seed SD, and the pinned across-seed SD for
# ``mm`` rows, whose SEs understate it; either is combined with the error of
# the pinned mean.
PIN_TOLERANCE = 4.0
# The by-n estimate at the design size must agree with the single-size one
# within this many combined reported SEs (acceptance criterion 8), or within
# PIN_TOLERANCE across-seed SDs of their gap.
SCAN_TOLERANCE = 3.0
# Each pass may take this long; with at most MAX_SECONDS of passes a run
# ends within three minutes even when its last pass hangs.
PASS_TIMEOUT_S = 110.0
MAX_SECONDS = 60.0

# Units of the metrics printed but not named in BENCHMARK.json; ``study_s.*``
# is one per study.
UNGATED_UNITS = {"s_to_1pct_se": "s", "study_s": "s", "single_s": "s", "scan_s": "s",
                 "fail_share": "ratio", "scan_criterion8_miss_share": "ratio",
                 "pin_exact_share": "ratio"}


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def benchmark_names(section: str) -> list[str]:
    return [m["name"] for m in benchmark_spec()[section]]


def unit_of(name: str) -> str:
    spec = benchmark_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return units.get(name) or UNGATED_UNITS[name.partition(".")[0]]


# -- workload generation -----------------------------------------------------

def make_config(workload: str, seed: int, out_dir: Path) -> dict:
    """The workload's config: the shipped one, its overrides, the seed."""
    spec = WORKLOADS[workload]
    config = json.loads(BASE_CONFIG.read_text())
    config["studies"] = [s for s in config["studies"] if s["kind"] in spec["studies"]]
    config.update(spec["overrides"], seed=seed, out_dir=str(out_dir))
    return config


# -- one pass ----------------------------------------------------------------

def worker_env() -> dict:
    threads = str(len(os.sched_getaffinity(0)))
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS=threads,
                OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)


def run_pass(config_path: Path, pass_dir: Path, traced: bool, timeout: float) -> dict:
    """Run ``voi run`` once in a fresh worker process and return its record."""
    record_path = pass_dir / "record.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--config", str(config_path),
           "--record", str(record_path)]
    if traced:
        cmd += ["--trace", str(pass_dir / "spans.json")]
    with open(pass_dir / "worker.log", "w") as log:
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd + ["--spawned", repr(spawned)], cwd=ROOT,
                                  env=worker_env(), stdout=log, stderr=subprocess.STDOUT,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"error": f"timed out after {timeout:.0f}s"}
    if proc.returncode != 0 or not record_path.exists():
        return {"error": f"worker exited with {proc.returncode}; see {pass_dir / 'worker.log'}"}
    return json.loads(record_path.read_text())


def read_csv(path: Path) -> list[dict]:
    lines = [l for l in path.read_text().splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, l.split(","))) for l in lines[1:]]


def read_estimates(config: dict, out_dir: Path) -> dict:
    """Estimates from the program's output files, keyed ``kind/method``."""
    kinds = [s["kind"] for s in config["studies"]]
    out = {}
    for row in read_csv(out_dir / "results.csv"):
        k = int(row["study"])
        key = f"{kinds[k - 1]}/{row['method']}"
        out[key] = {f: float(row[f]) for f in ("evsi", "evsi_im", "std_error")}
        by_n = out_dir / f"by_n_study{k}.csv"
        if row["method"] == "mm" and by_n.exists():
            out[key]["by_n"] = {int(r["n"]): (float(r["evsi_im"]), float(r["std_error"]))
                                for r in read_csv(by_n)}
    return out


def expected_keys(config: dict) -> list[str]:
    methods = ("nmc", "mm") if config["method"] == "both" else (config["method"],)
    return [f"{s['kind']}/{m}" for s in config["studies"] for m in methods]


def scan_gap(key: str, est: dict, config: dict) -> tuple[float, float] | None:
    """(by-n minus single-size evsi_im at the design size, combined reported SE)."""
    by_n = est.get("by_n")
    n = next(s["n"] for s in config["studies"] if key.startswith(s["kind"] + "/"))
    if by_n is None or n not in by_n:
        return None
    value, se = by_n[n]
    return value - est["evsi_im"], math.hypot(se, est["std_error"])


def pin_error(key: str, std_error: float, ref: dict) -> float:
    """Error of an estimate's distance from the pinned mean (see PIN_TOLERANCE)."""
    spread = std_error if key.endswith("/nmc") else ref["sd"]
    return math.hypot(spread, ref["sd"] / math.sqrt(ref["n_seeds"]))


def pin_reproduced(key: str, est: dict, config: dict, pins: dict) -> bool | None:
    """Whether the estimate equals its pin exactly; None at an unpinned seed."""
    pinned = pins.get("seeds", {}).get(str(config["seed"]), {}).get(key)
    return None if pinned is None else [est["evsi_im"], est["std_error"]] == pinned


def check_estimate(key: str, est: dict | None, config: dict, pins: dict,
                   first: dict | None) -> str | None:
    """Why the estimate fails the benchmark's correctness check, or None."""
    if est is None:
        return "missing from results.csv"
    values = (est["evsi"], est["evsi_im"], est["std_error"])
    if not all(math.isfinite(v) for v in values) or not est["std_error"] > 0.0:
        return f"non-finite value or SE not positive: {values}"
    if first is not None and {k: est[k] for k in first} != first:
        return "differs from the first pass at the same seed"
    by_n = est.get("by_n")
    if config.get("n_grid") and key.endswith("/mm"):
        if by_n is None or scan_gap(key, est, config) is None:
            return "by-n scan missing or without a row at the design size"
        # A size at which the market never moves is valued at exactly 0 +/- 0.
        if not all(math.isfinite(v) and se >= 0.0 for v, se in by_n.values()):
            return "by-n scan has a non-finite value or a negative SE"
    ref = pins.get("ref", {}).get(key)
    if ref is None:
        return f"no pinned reference for {key}"
    err = pin_error(key, est["std_error"], ref)
    if abs(est["evsi_im"] - ref["mean"]) > PIN_TOLERANCE * err:
        return (f"evsi_im {est['evsi_im']:.1f} outside {ref['mean']:.1f} "
                f"+/- {PIN_TOLERANCE:g} x {err:.1f}")
    gap = scan_gap(key, est, config)
    if gap is not None:
        # Criterion 8's rule, or the same gap measured in across-seed SDs of
        # the gap at the pinned commit, where reported SEs understate it.
        diff, se = abs(gap[0]), gap[1]
        sd = ref.get("scan_gap_sd", 0.0)
        if diff > SCAN_TOLERANCE * se and diff > PIN_TOLERANCE * sd:
            return (f"by-n minus single {gap[0]:.1f} beyond {SCAN_TOLERANCE:g} x SE {se:.1f} "
                    f"and {PIN_TOLERANCE:g} x across-seed SD {sd:.1f}")
    return None


def pass_metrics(config: dict, record: dict, estimates: dict, pins: dict) -> dict:
    """End-to-end metrics of one untraced pass."""
    seconds = {}
    datasets = 0
    s_to_target = 0.0
    for row in record["rows"]:
        kind = config["studies"][row["study"] - 1]["kind"]
        key = f"{kind}/{row['method']}"
        seconds[key] = row["seconds"]
        datasets += config["outer_datasets"] if row["method"] == "nmc" else config["quantile_sets"]
        ref = pins.get("ref", {}).get(key, {}).get("mean") or estimates[key]["evsi_im"]
        s_to_target += row["seconds"] * (estimates[key]["std_error"] / (0.01 * ref)) ** 2
    if record["scan_s"] > 0.0:
        datasets += config["quantile_sets"] * sum(k.endswith("/mm") for k in seconds)
    m = {"setup_s": record["setup_s"], "wall_s": record["wall_s"],
         "datasets_per_s": datasets / (sum(seconds.values()) + record["scan_s"]),
         "s_to_1pct_se": s_to_target, "peak_rss_mb": record["peak_rss_mb"]}
    for key, s in seconds.items():
        m[f"study_s.{key.split('/')[0]}"] = s
    if config["method"] == "mm":
        m["single_s"] = sum(seconds.values())
        m["scan_s"] = record["scan_s"]
    return m


# -- one run -----------------------------------------------------------------

def load_pins(workload: str) -> dict:
    return json.loads(PINS.read_text()).get(workload, {}) if PINS.exists() else {}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 pins: dict | None = None, max_rounds: int | None = None) -> dict:
    """Run passes of one workload for ``seconds`` and check every estimate."""
    pins = load_pins(workload) if pins is None else pins
    run_dir = WORK / workload / f"seed{seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    out_dir = run_dir / "out"
    config = make_config(workload, seed, out_dir)
    config_path = run_dir / "config.json"
    config_path.write_text(json.dumps(config, indent=2))
    # Compile and cache the package's bytecode and warm the file cache
    # before timing; users pay that once, not on every run.
    subprocess.run([sys.executable, "-c", "import voi.cli"], cwd=ROOT, env=worker_env(),
                   check=True, timeout=PASS_TIMEOUT_S)

    start = time.monotonic()
    passes, attempted, failures, first = [], 0, [], None
    rounds = 0
    while True:
        for traced in ((False, True) if trace else (False,)):
            pass_dir = run_dir / f"pass{len(passes)}"
            pass_dir.mkdir()
            shutil.rmtree(out_dir, ignore_errors=True)
            record = run_pass(config_path, pass_dir, traced, PASS_TIMEOUT_S)
            keys = expected_keys(config)
            attempted += len(keys)
            if "error" in record:
                failures += [f"{k}: {record['error']}" for k in keys]
                passes.append(record)
                continue
            estimates = read_estimates(config, out_dir)
            for key in keys:
                why = check_estimate(key, estimates.get(key), config, pins,
                                     None if first is None else first.get(key))
                if why is not None:
                    failures.append(f"{key}: {why}")
            if first is None:
                first = {k: {f: v for f, v in e.items() if f != "by_n"}
                         for k, e in estimates.items()}
            record["traced"] = traced
            record["estimates"] = estimates
            if not traced:
                record["metrics"] = pass_metrics(config, record, estimates, pins)
            passes.append(record)
        rounds += 1
        elapsed = time.monotonic() - start
        if (max_rounds is not None and rounds >= max_rounds) \
                or elapsed + elapsed / rounds > seconds:
            break
    return {"workload": workload, "seed": seed, "config": config, "pins": pins,
            "passes": passes, "attempted": attempted, "failures": failures,
            "elapsed_s": elapsed}


def median_metrics(passes: list[dict], field: str) -> dict:
    names = dict.fromkeys(name for p in passes for name in p[field])
    return {name: statistics.median(p[field][name] for p in passes if name in p[field])
            for name in names}


def summarize(run: dict, trace: bool) -> tuple[dict, dict]:
    """(metrics printed as the last line, every metric measured)."""
    untraced = [p for p in run["passes"] if "metrics" in p]
    full = median_metrics(untraced, "metrics")
    full["fail_share"] = len(run["failures"]) / run["attempted"]
    gaps = [scan_gap(k, e, run["config"]) for p in run["passes"]
            for k, e in p.get("estimates", {}).items()]
    gaps = [g for g in gaps if g is not None]
    if gaps:
        # Criterion 8's rule on reported SEs alone, kept as a diagnostic.
        full["scan_criterion8_miss_share"] = (
            sum(abs(g) > SCAN_TOLERANCE * se for g, se in gaps) / len(gaps))
    exact = [pin_reproduced(k, e, run["config"], run["pins"]) for p in run["passes"]
             for k, e in p.get("estimates", {}).items()]
    exact = [x for x in exact if x is not None]
    if exact:
        # At a pinned seed: the share of estimates that repeat the pin exactly.
        full["pin_exact_share"] = sum(exact) / len(exact)
    if not trace:
        return {n: full[n] for n in benchmark_names("end_to_end") if n in full}, full
    traced = [p for p in run["passes"] if p.get("traced") and "layers" in p]
    layers = median_metrics(traced, "layers")
    if traced and untraced:
        layers["trace.wall_s"] = statistics.median(p["wall_s"] for p in traced)
        layers["trace.untraced_wall_s"] = full["wall_s"]
        layers["trace.overhead_s"] = layers["trace.wall_s"] - full["wall_s"]
    return {n: layers[n] for n in benchmark_names("per_layer") if n in layers}, {**full, **layers}


def print_run(run: dict, every: dict) -> None:
    print(f"# workload {run['workload']} seed {run['seed']}: {len(run['passes'])} passes "
          f"in {run['elapsed_s']:.1f} s, {len(run['failures'])} of {run['attempted']} "
          f"estimates failed")
    for why in run["failures"]:
        print(f"# FAILED {why}")
    first = next((p for p in run["passes"] if "estimates" in p), None)
    if first is not None:
        for key, e in first["estimates"].items():
            exact = pin_reproduced(key, e, run["config"], run["pins"])
            pin = "" if exact is None else f" pin={'exact' if exact else 'differs'}"
            print(f"# estimate {key} evsi={e['evsi']:.1f} evsi_im={e['evsi_im']:.1f} "
                  f"se={e['std_error']:.1f}{pin}")
        print(f"# machine {json.dumps(first['machine'], sort_keys=True)}")
    for name, value in every.items():
        print(f"{name} {value!r} {unit_of(name)}")


def result_line(run: dict, metrics: dict) -> str:
    return json.dumps({
        "correct": not run["failures"],
        "attempted": run["attempted"],
        "failed": len(run["failures"]),
        "metrics": {n: {"value": v, "unit": unit_of(n)} for n, v in metrics.items()},
    })


def write_record(run: dict, every: dict) -> None:
    """Keep the run record (timings, estimates, machine facts) in the work dir."""
    path = WORK / run["workload"] / f"seed{run['seed']}" / "run_record.json"
    path.write_text(json.dumps({**{k: run[k] for k in ("workload", "seed", "attempted",
                                                        "failures", "passes")},
                                "metrics": every}, indent=1))


# -- replication and pins ----------------------------------------------------

def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def replicate(workloads: list[str], seeds: list[int], write_pins: bool) -> int:
    """Rerun workloads over seeds, one pass each; report SD against mean SE."""
    pins_all = json.loads(PINS.read_text()) if PINS.exists() else {}
    for workload in workloads:
        per_seed = {}
        for seed in seeds:
            # Pins are what is being measured, so skip the pin check only.
            run = run_workload(workload, seed, 0.0, False, pins={}, max_rounds=1)
            failures = [f for f in run["failures"] if "no pinned reference" not in f]
            if failures:
                print("\n".join(f"# FAILED seed {seed} {f}" for f in failures))
                return 1
            per_seed[seed] = run["passes"][0]["estimates"]
        print(f"# replication {workload}: {len(seeds)} seeds {seeds[0]}-{seeds[-1]}")
        print(f"{'estimate':24s} {'mean evsi_im':>12s} {'across-seed SD':>14s} "
              f"{'mean SE':>8s} {'SD/SE':>6s} {'gap SD':>7s} {'gap SE':>7s} {'gap>3SE':>7s}")
        ref = {}
        for key in per_seed[seeds[0]]:
            values = [per_seed[s][key]["evsi_im"] for s in seeds]
            ses = [per_seed[s][key]["std_error"] for s in seeds]
            r = ref[key] = {"mean": statistics.fmean(values), "sd": statistics.stdev(values),
                            "mean_se": statistics.fmean(ses), "n_seeds": len(seeds)}
            line = (f"{key:24s} {r['mean']:12.1f} {r['sd']:14.1f} {r['mean_se']:8.1f} "
                    f"{r['sd'] / r['mean_se']:6.2f}")
            gaps = [scan_gap(key, per_seed[s][key], run["config"]) for s in seeds]
            if None not in gaps:
                r["scan_gap_sd"] = statistics.stdev(g for g, _ in gaps)
                misses = sum(abs(g) > SCAN_TOLERANCE * se for g, se in gaps)
                line += (f" {r['scan_gap_sd']:7.1f} {statistics.fmean(se for _, se in gaps):7.1f}"
                         f" {misses:4d}/{len(seeds)}")
            print(line)
        if write_pins:
            pins_all[workload] = {
                "ref": ref,
                "seeds": {str(s): {k: [e["evsi_im"], e["std_error"]]
                                   for k, e in per_seed[s].items()} for s in seeds},
            }
            PINS.write_text(json.dumps(pins_all, indent=1, sort_keys=True) + "\n")
    return 0


# -- entry point -------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--replicate", action="store_true")
    parser.add_argument("--workloads", default="nmc-conjugate,mm-scan")
    parser.add_argument("--seeds", default="0-4")
    parser.add_argument("--write-pins", action="store_true")
    args = parser.parse_args(argv)
    if not 0.0 < args.seconds <= MAX_SECONDS:
        parser.error(f"--seconds must lie in (0, {MAX_SECONDS:g}]")

    missing = [p for p in (ROOT / "src" / "voi" / "cli.py", BASE_CONFIG) if not p.exists()]
    if missing:
        print(f"perfbench: not a voi checkout, missing {missing[0]}", file=sys.stderr)
        return 2

    if args.replicate:
        return replicate(args.workloads.split(","), parse_seeds(args.seeds), args.write_pins)
    if args.all:
        for workload in WORKLOADS:
            run = run_workload(workload, args.seed, args.seconds, bool(args.trace))
            _, every = summarize(run, bool(args.trace))
            print_run(run, every)
            write_record(run, every)
        return 0
    if args.workload is None:
        parser.error("give --workload, --all or --replicate")
    run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics, every = summarize(run, bool(args.trace))
    print_run(run, every)
    write_record(run, every)
    print(result_line(run, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
