"""Nested runs import numpy only; scipy loads for moment matching, before timing.

Each check runs in a fresh interpreter, since this test process has long
imported scipy itself.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import voi
from voi.config import default_config

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


@pytest.fixture()
def tiny_config(tmp_path) -> str:
    config = default_config(psa_samples=2000, outer_datasets=20, posterior_draws=200,
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


def test_moment_matching_loads_scipy_before_its_first_study(tiny_config):
    seen = _run(f"""
import contextlib, io
import voi.cli as cli
loaded = []
pipeline = cli.mm_pipeline
def first_call_sees(*args, **kwargs):
    if not loaded:
        loaded.append(scipy_modules())
    return pipeline(*args, **kwargs)
cli.mm_pipeline = first_call_sees
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["run", "--config", {tiny_config!r}, "--method", "mm"]) == 0
print(json.dumps(loaded[0]))
""")
    assert {"scipy.optimize", "scipy.interpolate", "scipy.linalg"} <= set(seen)


def test_traced_pass_still_wraps_the_logistic_search(tiny_config):
    # The benchmark's tracer patches voi.curves.minimize by name; the lazy
    # loader must stay a module-level function that every fit calls.
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
        assert cli.main(["run", "--config", {tiny_config!r}, "--method", "mm"]) == 0
finally:
    tracer.uninstall()
print(json.dumps({{"missing": tracer.missing,
                  "nfev": tracer.counts["curves.logistic_nfev"]}}))
""")
    assert "voi.curves.minimize" not in seen["missing"]
    assert seen["nfev"] > 0
