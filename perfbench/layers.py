"""The snratio functions the traced run times, and the per-layer metrics.

A layer is one package module.  Every traced function is patched under each
module attribute that names it, because callers resolve it there: for
example ``snratio.simulate.run_counting_chunks`` is the name the simulator
calls, and ``snratio.delivery.reciprocal_gamma`` the name the series form
calls.  The chunk callbacks handed to ``mc`` are wrapped too, so every
chunk of trials is a span of its own (layer ``simulate``, because the chunk
body is simulator code) whose parent is the ``mc`` call that ran it.
"""

from __future__ import annotations

import snratio
from snratio import delivery, experiments, mc, popularity, shotnoise, simulate, stable
from snratio.errors import SeriesDivergenceError
from snratio.mc import Estimate

from tracer import Tracer, ancestors, busy, self_times

MODULES = (snratio, stable, shotnoise, popularity, delivery, mc, simulate, experiments)

#: Trial-running simulator entry points, grouped by the SIR model they sample.
SIM_KINDS = {
    "aligned": ("simulate_total_aligned", "simulate_sir_aligned", "sir_samples_aligned"),
    "baseline": ("simulate_total_baseline", "simulate_sir_baseline", "sir_samples_baseline"),
    "ratio": ("ratio_ccdf_estimates", "empirical_ratio_ccdf", "window_doubling_probe",
              "ratio_samples"),
    "shot": ("shot_noise_samples",),
}


def _n_files(args):
    return {"n_files": args["scenario"].n_files}


def _fading_cells_total(args):
    scenario, method = args["scenario"], args["method"]
    one_pass = method in ("expectation", "alpha4") and scenario.n_files > 1
    cells = args["batch"].sample_count * scenario.n_files if one_pass else 0
    return {"method": method, "fading_cells": cells}


def _fading_cells_conditional(args):
    scenario = args["scenario"]
    n = scenario.n_files
    return {"fading_cells": args["batch"].sample_count * n if n > 1 else 0}


def _fading_cells_moments(args):
    return {"fading_cells": args["batch"].sample_count * args["profile"].n_files}


def _fading_cells_lower(args):
    return {"fading_cells": args["batch"].sample_count if args["a_k"] < 1.0 else 0}


def _partitions(args):
    return {"partitions": args["partitions"]}


def _resampled(result):
    """Largest ``resampled`` count among the estimates a call returned."""
    found = result if isinstance(result, (list, tuple)) else (result,)
    counts = [e.resampled for e in found if isinstance(e, Estimate)]
    return {"resampled": max(counts)} if counts else {}


def _chunk_adapter(tracer: Tracer, param: str):
    """Wrap the chunk callback of an ``mc`` call so each chunk is one span."""

    def adapt(span, arguments):
        chunk_fn = arguments[param]

        def timed_chunk(rng, n):
            # Chunks may run on mc's worker threads, so name the parent.
            return tracer.timed(chunk_fn, "simulate.chunk", "simulate", (rng, n),
                                attrs={"trials": n}, parent=span.id)

        arguments[param] = timed_chunk

    return adapt


def _traced_functions(tracer: Tracer):
    """(layer, function name, describe, adapt, summarize) for every traced function."""
    table = [
        ("stable", "zero_crossing_prob", None, None, None),
        ("shotnoise", "ratio_ccdf", None, None, None),
        ("shotnoise", "ratio_ccdf_via_stable", None, None, None),
        ("shotnoise", "shot_noise_pdf", None, None, None),
        ("shotnoise", "reciprocal_gamma", None, None, None),
        ("popularity", "zipf", None, None, None),
        ("popularity", "decompose_densities", None, None, None),
        ("delivery", "total_delivery_prob", _fading_cells_total, None, None),
        ("delivery", "conditional_delivery_prob", _fading_cells_conditional, None, None),
        ("delivery", "conditional_delivery_prob_alpha4", _fading_cells_conditional, None, None),
        ("delivery", "conditional_delivery_prob_series", None, None, None),
        ("delivery", "inverse_g_moments", _fading_cells_moments, None, None),
        ("delivery", "delivery_lower_bound", _fading_cells_lower, None, None),
        ("delivery", "alpha4_bounds", None, None, None),
        ("delivery", "mu_integral", None, None, None),
        ("mc", "run_counting_chunks", _partitions, _chunk_adapter(tracer, "chunk_fn"), None),
        ("mc", "gather_chunked_samples", None, _chunk_adapter(tracer, "sample_fn"), None),
        ("experiments", "run_figure5", None, None, None),
        ("experiments", "validate", None, None, None),
    ]
    for names in SIM_KINDS.values():
        for name in names:
            describe = _n_files if name.startswith("simulate_total") else None
            table.append(("simulate", name, describe, None, _resampled))
    return table


def install(tracer: Tracer) -> None:
    """Patch every module attribute that resolves to a traced function."""
    modules = {m.__name__.rsplit(".", 1)[-1]: m for m in MODULES}
    for layer, name, describe, adapt, summarize in _traced_functions(tracer):
        original = getattr(modules[layer], name)
        wrapper = tracer.wrap(original, f"{layer}.{name}", layer, describe=describe,
                              adapt=adapt, summarize=summarize)
        for module in MODULES:
            if getattr(module, name, None) is original:
                tracer.patch(module, name, wrapper)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

#: Per-layer metric names and units, in the order they are reported.
UNITS = {
    "experiments.run_figure5.busy_s": "s",
    "experiments.validate.busy_s": "s",
    "experiments.self_s": "s",
    "simulate.total_aligned.N5.busy_s": "s",
    "simulate.total_aligned.N500.busy_s": "s",
    "simulate.total_baseline.N5.busy_s": "s",
    "simulate.total_baseline.N500.busy_s": "s",
    "simulate.ratio_ccdf_estimates.busy_s": "s",
    "simulate.window_doubling_probe.busy_s": "s",
    "simulate.sir_samples_aligned.busy_s": "s",
    "simulate.shot_noise_samples.busy_s": "s",
    "simulate.chunk_s": "s",
    "simulate.trials": "count",
    "simulate.resampled": "count",
    "simulate.resample_frac": "ratio",
    "simulate.aligned.trials_per_s": "1/s",
    "simulate.baseline.trials_per_s": "1/s",
    "simulate.ratio.trials_per_s": "1/s",
    "simulate.self_s": "s",
    "mc.run_counting_chunks.calls": "count",
    "mc.gather_chunked_samples.calls": "count",
    "mc.chunks": "count",
    "mc.chunk_trials_mean": "count",
    "mc.chunk_p50_ms": "ms",
    "mc.chunk_p99_ms": "ms",
    "mc.self_s": "s",
    "mc.parallel_efficiency": "ratio",
    "delivery.total.expectation.busy_s": "s",
    "delivery.total.alpha4.busy_s": "s",
    "delivery.total.series.busy_s": "s",
    "delivery.total.lower.busy_s": "s",
    "delivery.total.upper.busy_s": "s",
    "delivery.total.baseline.busy_s": "s",
    "delivery.inverse_g_moments.calls": "count",
    "delivery.inverse_g_moments.busy_s": "s",
    "delivery.conditional_delivery_prob_series.calls": "count",
    "delivery.delivery_lower_bound.calls": "count",
    "delivery.mu_integral.calls": "count",
    "delivery.mu_integral.busy_s": "s",
    "delivery.alpha4_bounds.calls": "count",
    "delivery.fading_passes": "count",
    "delivery.fading_cells": "count",
    "delivery.series.diverged": "count",
    "delivery.series.moment_warnings": "count",
    "delivery.self_s": "s",
    "shotnoise.ratio_ccdf.calls": "count",
    "shotnoise.ratio_ccdf.busy_s": "s",
    "shotnoise.ratio_ccdf_via_stable.busy_s": "s",
    "shotnoise.shot_noise_pdf.busy_s": "s",
    "shotnoise.reciprocal_gamma.calls": "count",
    "shotnoise.self_s": "s",
    "stable.zero_crossing_prob.calls": "count",
    "stable.self_s": "s",
    "popularity.zipf.calls": "count",
    "popularity.decompose_densities.calls": "count",
    "popularity.self_s": "s",
    "trace.overhead_frac": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _quantile(values, q: float) -> float:
    """Nearest-rank quantile; 0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q * len(ordered)) - 1))]


def layer_metrics(spans, moment_warnings: int, overhead_frac: float) -> dict[str, float]:
    """Every metric in :data:`UNITS`, computed from one traced repeat."""
    by_id = {s.id: s for s in spans}
    own = self_times(spans)

    def named(name, **attrs):
        return [s for s in spans if s.name == name
                and all(s.attrs.get(k) == v for k, v in attrs.items())]

    def layer_self(layer):
        return sum(own[s.id] for s in spans if s.layer == layer)

    chunks = named("simulate.chunk")
    mc_runs = [s for s in spans if s.layer == "mc"]
    sim_entry = {f"simulate.{n}": kind for kind, names in SIM_KINDS.items() for n in names}
    outermost_sim = [s for s in spans if s.name in sim_entry
                     and not any(a.name in sim_entry for a in ancestors(s, by_id))]
    trials = sum(c.attrs["trials"] for c in chunks)
    resampled = sum(s.attrs.get("resampled", 0) for s in outermost_sim)

    def trials_per_s(kind):
        entries = [s for s in outermost_sim if sim_entry[s.name] == kind]
        ids = {s.id for s in entries}
        done = sum(c.attrs["trials"] for c in chunks
                   if any(a.id in ids for a in ancestors(c, by_id)))
        return _ratio(done, busy(entries))

    chunk_ms = [c.duration * 1e3 for c in chunks]
    passes = [s for s in spans if s.attrs.get("fading_cells") and "error" not in s.attrs]

    m = {
        "experiments.run_figure5.busy_s": busy(named("experiments.run_figure5")),
        "experiments.validate.busy_s": busy(named("experiments.validate")),
        "experiments.self_s": layer_self("experiments"),
        "simulate.ratio_ccdf_estimates.busy_s": busy(named("simulate.ratio_ccdf_estimates")),
        "simulate.window_doubling_probe.busy_s": busy(named("simulate.window_doubling_probe")),
        "simulate.sir_samples_aligned.busy_s": busy(named("simulate.sir_samples_aligned")),
        "simulate.shot_noise_samples.busy_s": busy(named("simulate.shot_noise_samples")),
        "simulate.chunk_s": sum(c.duration for c in chunks),
        "simulate.trials": trials,
        "simulate.resampled": resampled,
        "simulate.resample_frac": _ratio(resampled, trials),
        "simulate.self_s": layer_self("simulate"),
        "mc.run_counting_chunks.calls": len(named("mc.run_counting_chunks")),
        "mc.gather_chunked_samples.calls": len(named("mc.gather_chunked_samples")),
        "mc.chunks": len(chunks),
        "mc.chunk_trials_mean": _ratio(trials, len(chunks)),
        "mc.chunk_p50_ms": _quantile(chunk_ms, 0.50),
        "mc.chunk_p99_ms": _quantile(chunk_ms, 0.99),
        "mc.self_s": layer_self("mc"),
        "mc.parallel_efficiency": _ratio(
            sum(c.duration for c in chunks),
            sum(s.attrs.get("partitions", 1) * s.duration for s in mc_runs)),
        "delivery.inverse_g_moments.calls": len(named("delivery.inverse_g_moments")),
        "delivery.inverse_g_moments.busy_s": busy(named("delivery.inverse_g_moments")),
        "delivery.conditional_delivery_prob_series.calls":
            len(named("delivery.conditional_delivery_prob_series")),
        "delivery.delivery_lower_bound.calls": len(named("delivery.delivery_lower_bound")),
        "delivery.mu_integral.calls": len(named("delivery.mu_integral")),
        "delivery.mu_integral.busy_s": busy(named("delivery.mu_integral")),
        "delivery.alpha4_bounds.calls": len(named("delivery.alpha4_bounds")),
        "delivery.fading_passes": len(passes),
        "delivery.fading_cells": sum(s.attrs["fading_cells"] for s in passes),
        "delivery.series.diverged": len(named("delivery.total_delivery_prob", method="series",
                                              error=SeriesDivergenceError.__name__)),
        "delivery.series.moment_warnings": moment_warnings,
        "delivery.self_s": layer_self("delivery"),
        "shotnoise.ratio_ccdf.calls": len(named("shotnoise.ratio_ccdf")),
        "shotnoise.ratio_ccdf.busy_s": busy(named("shotnoise.ratio_ccdf")),
        "shotnoise.ratio_ccdf_via_stable.busy_s": busy(named("shotnoise.ratio_ccdf_via_stable")),
        "shotnoise.shot_noise_pdf.busy_s": busy(named("shotnoise.shot_noise_pdf")),
        "shotnoise.reciprocal_gamma.calls": len(named("shotnoise.reciprocal_gamma")),
        "shotnoise.self_s": layer_self("shotnoise"),
        "stable.zero_crossing_prob.calls": len(named("stable.zero_crossing_prob")),
        "stable.self_s": layer_self("stable"),
        "popularity.zipf.calls": len(named("popularity.zipf")),
        "popularity.decompose_densities.calls": len(named("popularity.decompose_densities")),
        "popularity.self_s": layer_self("popularity"),
        "trace.overhead_frac": overhead_frac,
    }
    for model in ("aligned", "baseline"):
        for n in (5, 500):
            m[f"simulate.total_{model}.N{n}.busy_s"] = busy(
                named(f"simulate.simulate_total_{model}", n_files=n))
    for kind in ("aligned", "baseline", "ratio"):
        m[f"simulate.{kind}.trials_per_s"] = trials_per_s(kind)
    for method in delivery.TOTAL_METHODS:
        m[f"delivery.total.{method}.busy_s"] = busy(
            named("delivery.total_delivery_prob", method=method))
    return {name: m[name] for name in UNITS}
