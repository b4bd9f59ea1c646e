"""voi imports only what a step needs: no command and no estimator loads
scipy, and the nested engine loads no valuation.

Each check runs in a fresh interpreter, since this test process has long
imported scipy and every voi module itself.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import voi

SRC = Path(voi.__file__).resolve().parents[1]
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

PRELUDE = """
import json, sys
def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
"""


def _run(script: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-c", PRELUDE + script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_nested_engine_imports_no_valuation():
    # voi.nmc stops at the posterior summaries; voi.market values them.
    seen = _run("""
import voi.nmc
print(json.dumps(sorted(m for m in sys.modules if m.startswith("voi."))))
""")
    assert "voi.nmc" in seen and "voi.market" not in seen


@pytest.fixture()
def tiny_config(case, tmp_path) -> str:
    config = case.override(psa_samples=2000, outer_datasets=20, posterior_draws=200,
                           quantile_sets=8, seed=5, out_dir=str(tmp_path / "out"))
    path = tmp_path / "tiny.json"
    path.write_text(config.to_json())
    return str(path)


def test_nested_runs_import_no_scipy(tiny_config):
    seen = _run(f"""
import contextlib, io
seen = {{}}
import voi
seen["import voi"] = scipy_modules()
from voi.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["validate", "--config", {tiny_config!r}]) == 0
    seen["voi validate"] = scipy_modules()
    assert main(["run", "--config", {tiny_config!r}, "--method", "nmc"]) == 0
seen["voi run --method nmc"] = scipy_modules()
print(json.dumps(seen))
""")
    assert seen == {"import voi": [], "voi validate": [], "voi run --method nmc": []}


@pytest.fixture()
def tiny_scan_config(case, tmp_path) -> str:
    config = case.override(psa_samples=2000, outer_datasets=20, posterior_draws=200,
                           quantile_sets=8, seed=5, out_dir=str(tmp_path / "out"),
                           n_grid=(10, 60))
    path = tmp_path / "tiny_scan.json"
    path.write_text(config.to_json())
    return str(path)


def test_moment_matching_runs_import_no_scipy(tiny_scan_config):
    # Every fitter runs: the spline, the across-size logistic and the
    # variance curve of the by-n scan; so does every
    # writer: the by-n, trend and density files.
    seen = _run(f"""
import contextlib, io
from pathlib import Path
from voi.cli import main
seen = {{}}
with contextlib.redirect_stdout(io.StringIO()):
    for method in ("mm", "both"):
        assert main(["run", "--config", {tiny_scan_config!r}, "--method", method]) == 0
        seen[f"voi run --method {{method}}"] = scipy_modules()
seen["per-study files"] = sorted(
    p.name for p in Path({tiny_scan_config!r}).parent.glob("out/*_study*.csv"))
print(json.dumps(seen))
""")
    assert seen == {"voi run --method mm": [], "voi run --method both": [],
                    "per-study files": [f"{kind}_study{k}.csv"
                                        for kind in ("by_n", "inb_density", "trend")
                                        for k in (1, 2, 3)]}


def test_traced_pass_still_wraps_the_logistic_search(tiny_scan_config):
    # The benchmark's tracer patches voi.curves.minimize by name; the search
    # must stay a module-level function that every fit calls.  The by-n
    # scan fits the logistic; the single-size pass interpolates.
    seen = _run(f"""
import contextlib, io
sys.path.insert(0, {str(PERFBENCH)!r})
from tracing import Tracer
import voi.cli as cli
tracer = Tracer(only=None)
with contextlib.redirect_stderr(io.StringIO()):
    tracer.install()
try:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["run", "--config", {tiny_scan_config!r}, "--method", "mm"]) == 0
finally:
    tracer.uninstall()
print(json.dumps({{"missing": tracer.missing,
                  "nfev": tracer.counts["curves.logistic_nfev"]}}))
""")
    assert "voi.curves.minimize" not in seen["missing"]
    assert seen["nfev"] > 0
