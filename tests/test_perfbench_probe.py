"""The benchmark's untraced passes wrap a few ``voi.cli`` names; they must exist.

``perfbench/worker.py`` times every pass through the spans in its
``PROBE_SPANS``, which ``perfbench/tracing.py``'s ``_TARGETS`` map to
functions in ``voi.cli``.  A pass that cannot wrap one of them exits 4, and
the benchmark fails, so a rename in ``voi.cli`` must show up here first.
The worker also ends set-up time at the first estimator call and times the
by-n scan as the ``mm_by_n_pipeline`` span, so the engine work must stay
inside the estimator calls and out of the scan's.
"""

import importlib.util
import inspect
import typing
from pathlib import Path

import voi.cli as cli
import voi.nmc as nmc

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_probe_spans_wrap_existing_cli_functions():
    probes = set(_load("worker").PROBE_SPANS)
    targets = [(path, attr) for path, attr, name in _load("tracing")._TARGETS if name in probes]
    assert len(targets) == len(probes)
    assert {"nmc_summaries", "mm_pipeline", "mm_by_n_pipeline", "_write_outputs"} <= {
        attr for _, attr in targets}
    for path, attr in targets:
        assert path == "voi.cli"
        assert callable(vars(cli).get(attr)), attr


def test_engine_maps_run_inside_the_estimator_calls(case, monkeypatch):
    probed = ("nmc_summaries", "mm_pipeline", "mm_by_n_pipeline")
    calls, open_calls, maps = [], [], []

    def probe(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            open_calls.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                open_calls.pop()
        return wrapped

    def mapping(fn, items, real=nmc._map_in_order):
        maps.append(tuple(open_calls))
        return real(fn, items)

    for name in probed:
        monkeypatch.setattr(cli, name, probe(name, getattr(cli, name)))
    monkeypatch.setattr(nmc, "_map_in_order", mapping)
    config = case.override(method="both", psa_samples=500, outer_datasets=40,
                           posterior_draws=200, quantile_sets=8, n_grid=[20, 60], seed=3)
    cli.run_config(config)
    assert calls == list(probed) * len(config.studies)
    assert maps and all(len(stack) == 1 and stack[0] in probed[:2] for stack in maps)


def test_write_outputs_takes_the_table_second():
    # The probe reads the result table from the writer's second argument.
    second = list(inspect.signature(cli._write_outputs).parameters)[1]
    assert typing.get_type_hints(cli._write_outputs)[second] is cli.ResultTable


# Traced names that no longer exist: the functions were deleted or renamed
# after the tracer was written, so a traced pass skips them.  A refactor that
# drops another traced name shows up here; repairing the tracer empties it.
STALE_TARGETS = {
    *(f"voi.nmc.{name}" for name in (
        "posterior_side_effects", "posterior_quality", "run_rct_chains",
        "posterior_nb_summary", "rct_nb_summaries", "evsi_im_terms")),
    *(f"voi.moment_matching.{name}" for name in (
        "posterior_nb_summary", "rct_nb_summaries", "evsi_im_terms")),
    # The logistic fit searches from one fixed start and draws no random ones.
    "voi.curves.substream",
    # Both estimators value their summaries through voi.market, and the
    # nested engine imports none of it; one function fits both logistic forms.
    "voi.cli.nmc_evsi", "voi.cli.nmc_evsi_im", "voi.nmc.assemble_evsi_im",
    "voi.moment_matching.fit_generalized_logistic_n",
    # Moment matching's variance target cannot exceed Var(g) by construction.
    "voi.moment_matching._cap_at_fit_variance",
    # Moment matching calls the chunked engine itself, with the posteriors it
    # already built for its variance target.
    "voi.moment_matching.nested_summaries",
}


def test_only_the_known_stale_tracer_targets_are_unresolved():
    # Resolved as Tracer.install resolves them.
    tracing = _load("tracing")
    unresolved = {f"{path}.{attr}" for path, attr, _ in tracing._TARGETS
                  if vars(tracing._resolve(path)).get(attr) is None}
    assert unresolved == STALE_TARGETS
