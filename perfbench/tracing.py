"""Span recorder and call wrappers for the traced benchmark pass.

The traced pass times calls into each ``voi`` module from outside the
package.  Every wrapped function is replaced, in the namespace of the module
that calls it (``voi.nmc.simulate_dataset``, ``voi.moment_matching.fit_pspline``,
``voi.curves.minimize``, ...), by a wrapper that opens a span, calls the
original and closes the span.  Spans are ``[name, start, end, parent]`` lists
kept in memory; :meth:`Tracer.spans_json` writes them out at the end.  A
span's self time is its duration minus its children's durations, and
:meth:`Tracer.layer_metrics` sums self times and counters into the per-layer
metrics.  :meth:`Tracer.uninstall` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

# Span names that belong to each timed per-layer metric.  Every wrapped
# function's span name appears in exactly one entry, so the self times of the
# metrics below plus ``cli.self_s`` add up to the root span.
SELF_TIME_METRICS = {
    "config.parse_s": ("config.from_file", "config.override"),
    "model.sample_prior_s": ("model.sample_prior",),
    "rng.s": ("rng.child_seed", "rng.substream"),
    "studies.simulate_s": ("studies.simulate_dataset",),
    "studies.conjugate_s": ("studies.posterior_side_effects", "studies.posterior_quality"),
    "studies.mh_s": ("studies.run_rct_chains",),
    "nmc.summary_s": ("nmc.posterior_nb_summary", "nmc.rct_nb_summaries"),
    "nmc.refill_s": ("nmc.on_retained",),
    "nmc.outer_s": ("nmc.nmc_summaries",),
    "nmc.estimate_s": ("nmc.nmc_evsi", "nmc.nmc_evsi_im"),
    "moment_matching.pipeline_s": ("moment_matching.mm_pipeline",
                                   "moment_matching.mm_by_n_pipeline",
                                   "moment_matching.cap_at_fit_variance"),
    "moment_matching.quantile_datasets_s": ("moment_matching.quantile_datasets",),
    "moment_matching.nested_summaries_s": ("moment_matching.nested_summaries",),
    "moment_matching.cond_fit_s": ("moment_matching.fit_conditional_expectation",),
    "moment_matching.rescale_s": ("moment_matching.rescale",),
    "smoothing.fit_s": ("smoothing.fit_pspline",),
    "curves.logistic_s": ("curves.fit_generalized_logistic",
                          "curves.fit_generalized_logistic_n", "curves.minimize"),
    "curves.variance_curve_s": ("curves.fit_variance_curve",),
    "market.assemble_s": ("market.assemble_evsi_im", "market.evsi_im_terms",
                          "market.current_decision_value"),
    "cli.write_s": ("cli.write_outputs",),
    "cli.self_s": ("cli.main", "cli.run_config"),
}

# Per-layer metrics that count spans.
CALL_COUNT_METRICS = {
    "rng.calls": SELF_TIME_METRICS["rng.s"],
    "studies.simulate_calls": SELF_TIME_METRICS["studies.simulate_s"],
    "studies.conjugate_calls": SELF_TIME_METRICS["studies.conjugate_s"],
    "nmc.refill_calls": SELF_TIME_METRICS["nmc.refill_s"],
    "smoothing.fit_calls": SELF_TIME_METRICS["smoothing.fit_s"],
    "curves.logistic_calls": ("curves.fit_generalized_logistic",
                              "curves.fit_generalized_logistic_n"),
    "curves.logistic_starts": ("curves.minimize",),
    "market.assemble_calls": SELF_TIME_METRICS["market.assemble_s"],
}

# The GCV grid in ``voi.smoothing.fit_pspline`` spans twelve decades
# (``logspace(-6, 6)`` times a data scale), so its two end points differ by
# this factor.
_GCV_GRID_SPAN = 1e12

_RNG = ("child_seed", "substream")
_MARKET = ("assemble_evsi_im", "evsi_im_terms")

# (module, attribute, span name); the module is the caller whose global the
# wrapper replaces; ``module:Class`` patches a method on the class.
_TARGETS = (
    [("voi.cli", "main", "cli.main"),
     ("voi.cli", "run_config", "cli.run_config"),
     ("voi.cli", "_write_outputs", "cli.write_outputs"),
     ("voi.config:RunConfig", "from_file", "config.from_file"),
     ("voi.config:RunConfig", "override", "config.override"),
     ("voi.cli", "sample_prior", "model.sample_prior"),
     ("voi.cli", "current_decision_value", "market.current_decision_value"),
     ("voi.cli", "nmc_summaries", "nmc.nmc_summaries"),
     ("voi.cli", "nmc_evsi", "nmc.nmc_evsi"),
     ("voi.cli", "nmc_evsi_im", "nmc.nmc_evsi_im"),
     ("voi.cli", "mm_pipeline", "moment_matching.mm_pipeline"),
     ("voi.cli", "mm_by_n_pipeline", "moment_matching.mm_by_n_pipeline"),
     ("voi.nmc", "simulate_dataset", "studies.simulate_dataset"),
     ("voi.nmc", "posterior_side_effects", "studies.posterior_side_effects"),
     ("voi.nmc", "posterior_quality", "studies.posterior_quality"),
     ("voi.nmc", "run_rct_chains", "studies.run_rct_chains"),
     ("voi.nmc", "posterior_nb_summary", "nmc.posterior_nb_summary"),
     ("voi.nmc", "rct_nb_summaries", "nmc.rct_nb_summaries"),
     ("voi.moment_matching", "simulate_dataset", "studies.simulate_dataset"),
     ("voi.moment_matching", "posterior_nb_summary", "nmc.posterior_nb_summary"),
     ("voi.moment_matching", "rct_nb_summaries", "nmc.rct_nb_summaries"),
     ("voi.moment_matching", "quantile_datasets", "moment_matching.quantile_datasets"),
     ("voi.moment_matching", "nested_summaries", "moment_matching.nested_summaries"),
     ("voi.moment_matching", "fit_conditional_expectation",
      "moment_matching.fit_conditional_expectation"),
     ("voi.moment_matching", "rescale", "moment_matching.rescale"),
     ("voi.moment_matching", "_cap_at_fit_variance", "moment_matching.cap_at_fit_variance"),
     ("voi.moment_matching", "fit_pspline", "smoothing.fit_pspline"),
     ("voi.moment_matching", "fit_generalized_logistic", "curves.fit_generalized_logistic"),
     ("voi.moment_matching", "fit_generalized_logistic_n", "curves.fit_generalized_logistic_n"),
     ("voi.moment_matching", "fit_variance_curve", "curves.fit_variance_curve"),
     ("voi.curves", "minimize", "curves.minimize")]
    + [("voi.cli", "child_seed", "rng.child_seed")]
    + [(m, f, f"rng.{f}") for m in ("voi.nmc", "voi.moment_matching") for f in _RNG]
    + [(m, "substream", "rng.substream") for m in ("voi.studies", "voi.curves", "voi.model")]
    + [(m, f, f"market.{f}") for m in ("voi.nmc", "voi.moment_matching") for f in _MARKET]
)


def _resolve(path: str):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    """Wraps ``voi`` functions at their call sites and records spans."""

    def __init__(self, only: tuple[str, ...] | None = None) -> None:
        """Trace every target, or with ``only`` just the spans of those names."""
        self.only = only
        self.table = None               # the ResultTable that ``voi run`` wrote
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.extremes: dict[str, list[float]] = defaultdict(list)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._stats: set[str] = set()
        self._spline_calls: list[tuple[object, tuple, dict, float]] = []

    # -- recording -------------------------------------------------------

    def wrap(self, name: str, fn, observe=None):
        """Return ``fn`` wrapped in a span; ``observe(args, kwargs, result)`` runs after it."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Replace every target in the namespace of the module that calls it."""
        for path, attr, name in _TARGETS:
            if self.only is not None and name not in self.only:
                continue
            owner = _resolve(path)
            raw = vars(owner).get(attr)
            if raw is None:
                self.missing.append(f"{path}.{attr}")
                print(f"perfbench: {path}.{attr} not found; not traced", file=sys.stderr)
                continue
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            wrapped = self._wrapper_for(name, fn)
            setattr(owner, attr, classmethod(wrapped) if isinstance(raw, classmethod) else wrapped)
            self._patches.append((owner, attr, raw))

    def uninstall(self) -> None:
        """Put back every original function, last patch first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def _wrapper_for(self, name: str, fn):
        observe = {
            "model.sample_prior": self._observe_prior,
            "studies.simulate_dataset": self._observe_dataset,
            "moment_matching.cap_at_fit_variance": self._observe_cap,
            "smoothing.fit_pspline": functools.partial(self._observe_spline, fn),
            "curves.fit_generalized_logistic": self._observe_logistic,
            "curves.fit_generalized_logistic_n": self._observe_logistic,
            "curves.minimize": self._observe_minimize,
            "cli.write_outputs": self._observe_write,
        }.get(name)
        if name == "studies.run_rct_chains":
            return self._wrap_chains(fn)
        return self.wrap(name, fn, observe)

    def _wrap_chains(self, fn):
        signature = inspect.signature(fn)

        def observe(args, kwargs, result):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            chains = len(a["datasets"])
            self.counts["studies.mh_chains"] += chains
            steps = a["n_adapt"] + a["n_burn_in"] + a["n_draws"] * a["thin"]
            self.counts["studies.mh_chain_steps"] += chains * steps
            acceptance = result[2]
            self.extremes["studies.mh_accept_min"].append(float(min(acceptance)))
            self.extremes["studies.mh_accept_max"].append(float(max(acceptance)))

        traced = self.wrap("studies.run_rct_chains", fn, observe)

        @functools.wraps(fn)
        def run_rct_chains(*args, **kwargs):
            if kwargs.get("on_retained") is not None:
                kwargs["on_retained"] = self.wrap("nmc.on_retained", kwargs["on_retained"])
            return traced(*args, **kwargs)

        return run_rct_chains

    def _observe_prior(self, args, kwargs, result):
        self.counts["model.psa_draws"] += len(result)

    def _observe_dataset(self, args, kwargs, result):
        self.counts["studies.datasets"] += 1
        self._stats.add(repr(result))

    def _observe_cap(self, args, kwargs, result):
        target = args[0] if args else kwargs["target"]
        self.counts["moment_matching.cap_bound"] += int(sum(
            float(r) < float(t) for r, t in zip(result, target)))

    def _observe_spline(self, fn, args, kwargs, result):
        self.extremes["smoothing.edf_max"].append(float(result.edf))
        self._spline_calls.append((fn, args, kwargs, float(result.lam)))

    def _observe_logistic(self, args, kwargs, result):
        self.extremes["curves.logistic_resid_sd_max"].append(float(result.resid_sd))

    def _observe_minimize(self, args, kwargs, result):
        self.counts["curves.logistic_nfev"] += int(result.nfev)
        self.counts["curves.logistic_converged"] += int(bool(result.success))

    def _observe_write(self, args, kwargs, result):
        self.table = args[1]
        self.counts["cli.bytes_written"] += sum(
            p.stat().st_size for p in Path(result).iterdir() if p.is_file())

    # -- reduction -------------------------------------------------------

    def first_start(self, names: tuple[str, ...]) -> float | None:
        """Start of the first span with one of ``names``."""
        return next((s for n, s, _, _ in self.spans if n in names), None)

    def total(self, name: str) -> float:
        """Summed duration of the spans called ``name``."""
        return sum(e - s for n, s, e, _ in self.spans if n == name)

    def self_times(self) -> list[float]:
        """Self time of every span: its duration minus its children's."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def _lam_at_grid_edge(self) -> int:
        # Refit each smoothing call on a two-point grid, which holds exactly
        # the end points of the full grid; run after the timed pass.
        edges = 0
        for fn, args, kwargs, lam in self._spline_calls:
            bound = inspect.signature(fn).bind(*args, **kwargs)
            bound.arguments["n_lambdas"] = 2
            end_point = fn(*bound.args, **bound.kwargs).lam
            if any(math.isclose(lam, end_point * f, rel_tol=1e-9)
                   for f in (1.0, _GCV_GRID_SPAN, 1.0 / _GCV_GRID_SPAN)):
                edges += 1
        return edges

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics from the recorded spans and counters."""
        own = self.self_times()
        by_name: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for (name, *_), t in zip(self.spans, own):
            by_name[name] += t
            calls[name] += 1
        out: dict[str, float] = {}
        for metric, names in SELF_TIME_METRICS.items():
            out[metric] = sum(by_name[n] for n in names)
        for metric, names in CALL_COUNT_METRICS.items():
            out[metric] = sum(calls[n] for n in names)
        for metric in ("model.psa_draws", "studies.mh_chains", "studies.mh_chain_steps",
                       "moment_matching.cap_bound", "curves.logistic_nfev",
                       "cli.bytes_written"):
            out[metric] = self.counts[metric]
        datasets = self.counts["studies.datasets"]
        out["studies.stat_distinct_share"] = len(self._stats) / datasets if datasets else 0.0
        starts = out["curves.logistic_starts"]
        out["curves.logistic_converged_share"] = (
            self.counts["curves.logistic_converged"] / starts if starts else 0.0)
        ext = self.extremes
        out["studies.mh_accept_min"] = min(ext["studies.mh_accept_min"], default=0.0)
        out["studies.mh_accept_max"] = max(ext["studies.mh_accept_max"], default=0.0)
        out["smoothing.edf_max"] = max(ext["smoothing.edf_max"], default=0.0)
        out["curves.logistic_resid_sd_max"] = max(ext["curves.logistic_resid_sd_max"],
                                                  default=0.0)
        out["smoothing.lam_at_grid_edge"] = self._lam_at_grid_edge()
        out["trace.spans"] = len(self.spans)
        return out

    def spans_json(self) -> list[dict]:
        """Spans as records with times relative to the first span's start."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return [{"name": n, "start": s - t0, "end": e - t0, "parent": p}
                for n, s, e, p in self.spans]
