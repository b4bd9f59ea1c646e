"""Self-test of the benchmark at tiny sizes (about half a minute).

    python3 perfbench/selftest.py

Checks that every metric prints with its name and unit, that a rerun at a
pinned seed repeats the pin exactly, that traced spans nest with self times
between zero and their span, that counts repeat exactly at a fixed seed, that
the wrappers are gone after a traced pass, and that the benchmark refuses an
over-long run and any run outside a voi checkout.  Exits 0 when every check
passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys

import run
from tracing import _TARGETS, Tracer, _resolve

TINY = {"studies": ("side_effects", "quality_of_life", "effectiveness_rct"),
        "overrides": {"method": "both", "psa_samples": 2000, "outer_datasets": 6,
                      "posterior_draws": 1000, "quantile_sets": 30, "n_grid": [20, 60, 100, 200]}}
REPEATED_COUNTS = ("rng.calls", "studies.mh_chain_steps", "curves.logistic_nfev",
                   "studies.simulate_calls", "smoothing.fit_calls")

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"[{'ok' if ok else 'FAIL'}] {what}")
    if not ok:
        failures.append(what)


def check_spans(spans: list[dict]) -> None:
    own = [s["end"] - s["start"] for s in spans]
    nested = True
    for s in spans:
        p = s["parent"]
        if p >= 0:
            own[p] -= s["end"] - s["start"]
            parent = spans[p]
            nested &= parent["start"] <= s["start"] <= s["end"] <= parent["end"]
    check(nested, "every span lies inside its parent")
    check(all(-1e-9 <= t <= s["end"] - s["start"] + 1e-9 for t, s in zip(own, spans)),
          "every self time is >= 0 and <= its span")
    roots = [s for s in spans if s["parent"] < 0]
    check(len(roots) == 1 and abs(sum(own) - (roots[0]["end"] - roots[0]["start"])) < 1e-6,
          "self times add up to the single root span")


def check_wrappers_removed() -> None:
    sys.path.insert(0, str(run.ROOT / "src"))
    import voi.cli
    import voi.nmc
    import voi.studies
    before = {(p, a): vars(_resolve(p)).get(a) for p, a, _ in _TARGETS}
    tracer = Tracer()
    tracer.install()
    check(not tracer.missing, f"every traced function exists (missing: {tracer.missing})")
    check(voi.nmc.simulate_dataset is not voi.studies.simulate_dataset,
          "tracing replaces voi.nmc.simulate_dataset")
    tracer.uninstall()
    after = {(p, a): vars(_resolve(p)).get(a) for p, a, _ in _TARGETS}
    check(before == after and voi.nmc.simulate_dataset is voi.studies.simulate_dataset,
          "after uninstall every caller sees the original functions")
    check(voi.cli.RunConfig.__dict__["from_file"] is before[("voi.config:RunConfig", "from_file")],
          "after uninstall RunConfig.from_file is the original classmethod")


def main() -> int:
    run.WORKLOADS["tiny"] = TINY
    end_to_end = run.benchmark_names("end_to_end")
    per_layer = run.benchmark_names("per_layer")

    first = run.run_workload("tiny", 7, 0.0, False, pins={}, max_rounds=1)
    estimates = first["passes"][0].get("estimates", {})
    check(len(estimates) == 6, "tiny run gives an estimate per study and method")
    pins = {"ref": {k: {"mean": e["evsi_im"], "sd": e["std_error"], "n_seeds": 1}
                    for k, e in estimates.items()},
            "seeds": {"7": {k: [e["evsi_im"], e["std_error"]] for k, e in estimates.items()}}}
    traced = run.run_workload("tiny", 7, 1e9, True, pins=pins, max_rounds=2)
    # At these sizes the estimates are too noisy for the statistical checks
    # (pins, by-n agreement); every other check must pass.
    statistical = ("outside", "beyond")
    check(all(any(w in f for w in statistical) for f in traced["failures"]),
          f"tiny traced run passes its deterministic checks {traced['failures']}")
    metrics, every = run.summarize(traced, True)
    untraced_metrics, _ = run.summarize(traced, False)
    check(set(untraced_metrics) == set(end_to_end), "every end-to-end metric is measured")
    check(set(metrics) == set(per_layer), "every per-layer metric is measured")

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.print_run(traced, every)
        print(run.result_line(traced, metrics))
    lines = [l for l in out.getvalue().splitlines() if not l.startswith("#")]
    printed = {l.split()[0]: l.split()[2] for l in lines[:-1]}
    check(all(len(l.split()) == 3 for l in lines[:-1]), "metric lines read 'name value unit'")
    check(all(printed.get(n) == run.unit_of(n) for n in end_to_end + per_layer),
          "every metric prints with its name and unit")
    check(every.get("pin_exact_share") == 1.0, "a rerun at a pinned seed repeats the pin exactly")
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}
          and result["correct"] == (result["failed"] == 0) and result["attempted"] == 6 * len(traced["passes"]),
          "the last line is the JSON result")

    records = [p for p in traced["passes"] if p.get("traced")]
    work = run.WORK / "tiny" / "seed7"
    spans = json.loads((work / f"pass{traced['passes'].index(records[0])}" / "spans.json").read_text())
    check_spans(spans)
    check(len(records) == 2 and all(records[0]["layers"][c] == records[1]["layers"][c]
                                    for c in REPEATED_COUNTS),
          f"counts repeat exactly at a fixed seed: {', '.join(REPEATED_COUNTS)}")
    check_wrappers_removed()

    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            run.main(["--workload", "mm-scan", "--seconds", str(run.MAX_SECONDS + 1)])
        refused = False
    except SystemExit as e:
        refused = e.code != 0
    check(refused, "a run longer than --seconds allows is refused")

    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mm-scan",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    check(proc.returncode != 0 and not proc.stdout,
          "outside a voi checkout the benchmark exits non-zero without a result")
    shutil.rmtree(bare)

    print(f"selftest: {len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
