"""Where the traced run wraps epifield, and the per-layer metrics it derives.

Each wrapper sits at the name its caller resolves: `ModelContext` methods
are looked up on the class, `fit_mfvi` finds `mle_fit` and
`elbo_grad_reparam` in `epifield.vi`, the CLI finds `sample_ppt`, `crps`
and the surveillance functions in `epifield.cli`, and the benchmark itself
calls the package-level `epifield.fit_mfvi`, `mle_fit` and `run_amcmc`.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

import epifield
import epifield.cli
import epifield.likelihood
import epifield.model
import epifield.posterior
import epifield.vi

from .stats import median
from .tracing import nearest_ancestor, self_times

CLI_COMMANDS = ("forecast", "detect", "exceedance", "cluster", "crps")


def _nonfinite(result):
    parts = result if isinstance(result, tuple) else (result,)
    return not all(np.all(np.isfinite(p)) for p in parts)


def _n_samples(args, kwargs):
    return {"n_samples": kwargs.get("n_samples", args[3] if len(args) > 3 else 100)}


def _size_of_first(args, kwargs):
    return int(np.size(args[0]))


def targets(rec):
    """(owner, attribute, wrapper factory) for every traced boundary."""
    Ctx = epifield.posterior.ModelContext

    def span(name, **kw):
        return lambda fn: rec.wrap(fn, name, **kw)

    return [
        (Ctx, "predictions_and_grad", span("model.predictions_and_grad")),
        (Ctx, "predictions", span("model.predictions")),
        (Ctx, "logpost_and_grad", span("posterior.logpost_and_grad", failed_if=_nonfinite)),
        (Ctx, "logpost", span("posterior.logpost", failed_if=_nonfinite)),
        (epifield.model, "incubation_cdf",
         lambda fn: rec.counting(fn, "incubation_cdf.grad_elements", "model.predictions_and_grad", _size_of_first)),
        (epifield.likelihood, "precision_inverse",
         lambda fn: rec.counting(fn, "precision_inverse.grad_calls", "posterior.logpost_and_grad")),
        (epifield.posterior, "log_likelihood", span("likelihood.log_likelihood")),
        (epifield.posterior, "log_likelihood_grad", span("likelihood.log_likelihood_grad")),
        (epifield.vi, "mle_fit", span("vi.mle_fit")),
        (epifield.vi, "elbo_grad_reparam", span("vi.elbo_grad_reparam")),
        (epifield, "mle_fit", span("vi.mle_fit")),
        (epifield, "fit_mfvi", span("vi.fit_mfvi")),
        (epifield, "run_amcmc", span("mcmc.run_amcmc")),
        (epifield.cli, "sample_ppt", span("forecast.sample_ppt", note=_n_samples)),
        (epifield.cli, "crps", span("forecast.crps")),
        (epifield.cli, "detect", span("surveillance.detect")),
        (epifield.cli, "exceedance", span("surveillance.exceedance")),
        (epifield.cli, "cluster_regions", span("surveillance.cluster_regions")),
        (epifield.cli, "ingest_cases", span("data.ingest_cases")),
        (epifield.cli, "smooth", span("data.smooth")),
    ]


# name -> (unit, better); the order is the report order.
LAYER_METRICS = {}


def _declare(name, unit, better):
    LAYER_METRICS[name] = (unit, better)


for _layer in ("model.predictions_and_grad", "model.predictions",
               "likelihood.log_likelihood", "likelihood.log_likelihood_grad"):
    _declare(f"{_layer}.calls", "count", "lower")
    _declare(f"{_layer}.ms_p50", "ms", "lower")
    _declare(f"{_layer}.busy_s", "s", "lower")
_declare("model.incubation_cdf.evals_per_call", "count", "lower")
_declare("likelihood.precision_inverse.calls_per_eval", "count", "lower")
for _layer in ("posterior.logpost_and_grad", "posterior.logpost", "vi.elbo_grad_reparam"):
    _declare(f"{_layer}.calls", "count", "lower")
    _declare(f"{_layer}.ms_p50", "ms", "lower")
    _declare(f"{_layer}.self_s", "s", "lower")
_declare("vi.mle_fit.s", "s", "lower")
_declare("vi.mle_fit.evals", "count", "lower")
_declare("vi.mle_fit.failed_evals", "count", "lower")
_declare("vi.mle_fit.useful_ratio", "ratio", "higher")
_declare("vi.fit_mfvi.self_s", "s", "lower")
_declare("mcmc.run_amcmc.s", "s", "lower")
_declare("mcmc.run_amcmc.self_s", "s", "lower")
_declare("forecast.sample_ppt.calls_per_pipeline", "count", "lower")
_declare("forecast.sample_ppt.busy_s", "s", "lower")
_declare("forecast.sample_ppt.draw_attempts", "count", "lower")
_declare("forecast.sample_ppt.accept_ratio", "ratio", "higher")
_declare("forecast.crps.busy_s", "s", "lower")
for _fn in ("detect", "exceedance", "cluster_regions"):
    _declare(f"surveillance.{_fn}.busy_s", "s", "lower")
_declare("data.ingest_cases.calls", "count", "lower")
_declare("data.ingest_cases.busy_s", "s", "lower")
_declare("data.smooth.busy_s", "s", "lower")
for _cmd in CLI_COMMANDS:
    _declare(f"cli.{_cmd}.s", "s", "lower")
_declare("cli.self_s", "s", "lower")
_declare("bench.trace_overhead_frac", "ratio", "lower")


def layer_metrics(rec, n_ops, overhead_frac):
    """Per-layer metrics from the spans of n_ops traced operations.

    Counts and busy/self times are per operation; ms_p50 and `.s` values
    are medians per call.  A layer that did no work reads 0.
    """
    spans = rec.spans
    by_id = {sp.id: sp for sp in spans}
    own = self_times(spans)
    by_name = defaultdict(list)
    for sp in spans:
        by_name[sp.name].append(sp)

    def calls(name):
        return len(by_name[name]) / n_ops

    def busy(name):
        return sum(sp.duration for sp in by_name[name]) / n_ops

    def self_s(name):
        return sum(own[sp.id] for sp in by_name[name]) / n_ops

    def p50_ms(name):
        return 1e3 * median([sp.duration for sp in by_name[name]]) if by_name[name] else 0.0

    def per_call_s(name):
        return median([sp.duration for sp in by_name[name]]) if by_name[name] else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for layer in ("model.predictions_and_grad", "model.predictions",
                  "likelihood.log_likelihood", "likelihood.log_likelihood_grad"):
        out[f"{layer}.calls"] = calls(layer)
        out[f"{layer}.ms_p50"] = p50_ms(layer)
        out[f"{layer}.busy_s"] = busy(layer)
    n_grad = len(by_name["model.predictions_and_grad"])
    out["model.incubation_cdf.evals_per_call"] = ratio(rec.counters["incubation_cdf.grad_elements"], n_grad)
    out["likelihood.precision_inverse.calls_per_eval"] = ratio(
        rec.counters["precision_inverse.grad_calls"], len(by_name["posterior.logpost_and_grad"]))
    for layer in ("posterior.logpost_and_grad", "posterior.logpost", "vi.elbo_grad_reparam"):
        out[f"{layer}.calls"] = calls(layer)
        out[f"{layer}.ms_p50"] = p50_ms(layer)
        out[f"{layer}.self_s"] = self_s(layer)

    mle_evals = [sp for sp in by_name["posterior.logpost_and_grad"]
                 if nearest_ancestor(by_id, sp, "vi.mle_fit") is not None]
    n_mle = len(by_name["vi.mle_fit"])
    n_failed = sum(sp.failed for sp in mle_evals)
    out["vi.mle_fit.s"] = per_call_s("vi.mle_fit")
    out["vi.mle_fit.evals"] = ratio(len(mle_evals), n_mle)
    out["vi.mle_fit.failed_evals"] = ratio(n_failed, n_mle)
    out["vi.mle_fit.useful_ratio"] = ratio(len(mle_evals) - n_failed, len(mle_evals))
    out["vi.fit_mfvi.self_s"] = self_s("vi.fit_mfvi")
    out["mcmc.run_amcmc.s"] = per_call_s("mcmc.run_amcmc")
    out["mcmc.run_amcmc.self_s"] = ratio(sum(own[sp.id] for sp in by_name["mcmc.run_amcmc"]),
                                         len(by_name["mcmc.run_amcmc"]))

    ppt = by_name["forecast.sample_ppt"]
    attempts = sum(1 for sp in by_name["model.predictions"]
                   if nearest_ancestor(by_id, sp, "forecast.sample_ppt") is not None)
    out["forecast.sample_ppt.calls_per_pipeline"] = calls("forecast.sample_ppt")
    out["forecast.sample_ppt.busy_s"] = busy("forecast.sample_ppt")
    out["forecast.sample_ppt.draw_attempts"] = ratio(attempts, len(ppt))
    out["forecast.sample_ppt.accept_ratio"] = ratio(sum(sp.note["n_samples"] for sp in ppt), attempts)
    out["forecast.crps.busy_s"] = busy("forecast.crps")
    for fn in ("detect", "exceedance", "cluster_regions"):
        out[f"surveillance.{fn}.busy_s"] = busy(f"surveillance.{fn}")
    out["data.ingest_cases.calls"] = calls("data.ingest_cases")
    out["data.ingest_cases.busy_s"] = busy("data.ingest_cases")
    out["data.smooth.busy_s"] = busy("data.smooth")
    for cmd in CLI_COMMANDS:
        out[f"cli.{cmd}.s"] = busy(f"cli.{cmd}")
    out["cli.self_s"] = sum(self_s(f"cli.{cmd}") for cmd in CLI_COMMANDS)
    out["bench.trace_overhead_frac"] = overhead_frac

    # Forward model + likelihood busy time plus log-posterior self time,
    # over the log-posterior gradient busy time: 1 when the spans nest.
    inside = sum(sp.duration for name in ("model.predictions_and_grad", "likelihood.log_likelihood",
                                          "likelihood.log_likelihood_grad")
                 for sp in by_name[name] if nearest_ancestor(by_id, sp, "posterior.logpost_and_grad"))
    lpg = by_name["posterior.logpost_and_grad"]
    layer_sum_frac = ratio(inside + sum(own[sp.id] for sp in lpg), sum(sp.duration for sp in lpg))
    return out, layer_sum_frac
