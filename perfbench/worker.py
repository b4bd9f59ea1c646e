"""One benchmark pass: ``voi run`` on a generated config in this fresh process.

    python3 perfbench/worker.py --config CFG.json --record REC.json \
        --spawned MONOTONIC [--trace SPANS.json]

``--spawned`` is the parent's ``time.monotonic()`` just before it started
this process, so set-up time covers interpreter start, ``import voi``, config
parsing and the prior (PSA) draw, up to the first estimator call.  Wall time
runs from that call until ``voi run`` has written every output file.  Every
pass wraps the few ``voi.cli`` calls these times need (``PROBE_SPANS``); with
``--trace`` it wraps every function ``tracing.py`` lists, writes the spans to
the given file and puts per-layer metrics in the record.
"""

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Spans every pass records: the estimator calls, whose first start ends
# set-up time, the by-n scans, and the output writer, which hands over the
# result table.
ESTIMATORS = ("nmc.nmc_summaries", "moment_matching.mm_pipeline")
SCAN = "moment_matching.mm_by_n_pipeline"
PROBE_SPANS = ESTIMATORS + (SCAN, "cli.write_outputs")


def blas_threads():
    """Thread count reported by the OpenBLAS library bundled with numpy, if any."""
    import ctypes
    import numpy
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def machine_facts() -> dict:
    import platform
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--record", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--trace")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import voi.cli
    from tracing import Tracer

    # Spans are timed with perf_counter; set-up time is measured against the
    # parent's monotonic clock.
    to_monotonic = time.monotonic() - time.perf_counter()
    tracer = Tracer(only=None if args.trace else PROBE_SPANS)
    tracer.install()
    try:
        code = voi.cli.main(["run", "--config", args.config])
        t_end = time.perf_counter()
    finally:
        tracer.uninstall()

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record = {"exit_code": code, "peak_rss_mb": peak_rss_mb, "scan_s": tracer.total(SCAN),
              "machine": machine_facts(), "trace_missing": tracer.missing}
    first_call = tracer.first_start(ESTIMATORS)
    if first_call is None or tracer.table is None:
        print("perfbench: no estimator call or result table seen", file=sys.stderr)
        return 4
    record["setup_s"] = first_call + to_monotonic - args.spawned
    record["wall_s"] = t_end - first_call
    record["rows"] = [{"study": r.study, "method": r.method, "seconds": r.seconds}
                      for r in tracer.table.rows]
    if args.trace:
        record["layers"] = tracer.layer_metrics()
        Path(args.trace).write_text(json.dumps(tracer.spans_json()))
    Path(args.record).write_text(json.dumps(record))
    return 0 if code == 0 else 3


if __name__ == "__main__":
    sys.exit(main())
