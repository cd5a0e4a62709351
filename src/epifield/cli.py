"""Command-line pipeline: simulate / fit / forecast / detect / score / cluster.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import datetime as dt
import json
import os
import sys
import traceback
import zipfile
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import checks, plots
from .config import ENSEMBLE_FIELDS, FIT_FIELDS, RunConfig, content_hash
from .data import CaseData, ingest_cases, smooth, synthetic_counts, write_cases_csv
from .forecast import DRAW_SCHEME, ForecastEnsemble, crps, crps_ratio_and_fit, sample_ppt
from .graph import RegionGraph, load_region_graph
from .likelihood import NoiseParams
from .mcmc import run_amcmc
from .model import RegionParams
from .params import ParamVector, param_names
from .posterior import ModelContext, predict_regions
from .surveillance import cluster_regions, detect, exceedance
from .vi import DivergenceError, VariationalState, default_initial_guess, fit_mfvi, mle_fit


class UsageError(Exception):
    pass


class StuckChainError(RuntimeError):
    """The sampler accepted no proposal, so its draws say nothing about the posterior."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{message}\n{self.format_usage().rstrip()}")

    def parse_known_args(self, args=None, namespace=None):
        # Unknown flags are refused by the (sub)parser that was given them, so the error shows its usage.
        args, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return args, extra


def _build_parser():
    parser = _Parser(prog="epifield", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default="config.json", help="run configuration JSON")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the configured seed")
        if name in ("fit", "forecast"):
            p.add_argument("--plot", action="store_true", help="also emit SVG plots")
        if name != "simulate":
            p.add_argument("--raw", action="store_true", help="disable smoothing (sets smoothing_window to 1)")
        p.add_argument("--regions", default=None, help="comma-separated region-id subset")
        if name == "simulate":
            p.add_argument("--second-wave", type=float, default=0.0, metavar="AMP",
                           help="inject a second wave of AMP x the baseline size at the fit end")
    return parser


def _load_config(args):
    cfg = RunConfig.load(args.config)
    if args.seed is not None:
        cfg = cfg.with_overrides(seed=args.seed)
    if args.regions:
        cfg = cfg.with_overrides(regions=tuple(args.regions.split(",")))
    if getattr(args, "raw", False):
        cfg = cfg.with_overrides(smoothing_window=1)
    return cfg


def _load_graph(cfg):
    graph = load_region_graph(cfg.regions_csv, cfg.edges_csv)
    if cfg.regions:
        graph = graph.subgraph(cfg.regions)
    return graph


class _Inputs(NamedTuple):
    """A command's inputs, read once: the graph, the fitted (smoothed) series, the fit window,
    and the hash that binds fit.json to them."""

    graph: RegionGraph
    series: CaseData
    ctx: ModelContext
    window: CaseData
    data_hash: str


def _inputs(cfg):
    # The config's FIT_FIELDS and the bytes of the input files, hashed before they are parsed.
    files = [Path(p).read_bytes() for p in (cfg.cases_csv, cfg.regions_csv, cfg.edges_csv)]
    data_hash = content_hash(cfg, *files, fields=FIT_FIELDS)
    graph = _load_graph(cfg)
    raw = ingest_cases(cfg.cases_csv, graph)
    if raw.dates[0] > cfg.fit_start_date or raw.dates[-1] < cfg.fit_end_date:
        raise ValueError(f"the fit window {cfg.fit_start} to {cfg.fit_end} is not covered by {cfg.cases_csv}, "
                         f"which holds {raw.dates[0]} to {raw.dates[-1]}")
    series = smooth(raw, cfg.smoothing_window)
    window = series.window(cfg.fit_start_date, cfg.fit_end_date)
    ctx = ModelContext(graph=graph, day_grid=window.day_offsets(cfg.fit_start_date), y_obs=window.counts,
                       incubation=cfg.incubation, prior=cfg.prior, quad_nodes=cfg.quad_nodes)
    return _Inputs(graph, series, ctx, window, data_hash)


def _load_fit(inputs, args):
    """The fitted state and the bytes of the fit.json it came from."""
    fit_bytes = (Path(args.out) / "fit.json").read_bytes()
    doc = json.loads(fit_bytes)
    if doc["config_hash"] != inputs.data_hash:
        raise ValueError("fit.json was produced from different fit settings, smoothing or dataset; re-run fit")
    return VariationalState(mu=np.array(doc["mu"]), rho=np.array(doc["rho"])), fit_bytes


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _forecast_observations(cfg, series):
    """The observed days of series after the fit window, at most forecast_days of them."""
    if series.dates[-1] <= cfg.fit_end_date:
        raise ValueError(f"{cfg.cases_csv} holds no day after the fit window (it ends {series.dates[-1]}), "
                         "so there is nothing to compare the forecast with")
    return series.window(cfg.fit_end_date + dt.timedelta(days=1),
                         cfg.fit_end_date + dt.timedelta(days=cfg.forecast_days))


def _mle_start(inputs, cfg):
    """The MLE point that fit and mcmc start from; prints how its L-BFGS-B run ended."""
    x0, res = mle_fit(inputs.ctx, cfg.optimizer)
    line = f"MLE start: {res.message} (status {res.status}, nit {res.nit}, nfev {res.nfev})"
    if res.status == 1:
        line += f"; the iteration bound max_iters = {cfg.max_iters} stopped it"
    print(line)
    return x0


def cmd_fit(args, cfg):
    inputs = _inputs(cfg)
    state, trace = fit_mfvi(inputs.ctx, cfg.optimizer, mu0=_mle_start(inputs, cfg))
    outdir = Path(args.out)
    _write_csv(outdir / "trace.csv", ["iteration", "elbo", "grad_norm", "seconds", "n_samples"],
               zip(trace.iterations, trace.elbo, trace.grad_norm, trace.wall_time, trace.n_samples))
    doc = {
        "mu": state.mu.tolist(),
        "rho": state.rho.tolist(),
        "region_ids": list(inputs.graph.region_ids),
        "config_hash": inputs.data_hash,
    }
    (outdir / "fit.json").write_text(json.dumps(doc, indent=2))
    if args.plot:
        (outdir / "trace.svg").write_text(
            plots.trace_svg(trace.iterations, trace.elbo, title="ELBO convergence", ylabel="negative ELBO")
        )
    print(f"fit written to {outdir / 'fit.json'} ({len(trace.iterations)} iterations)")
    return 0


def _write_ensemble_npz(ensemble: ForecastEnsemble, key, path):
    """Store an ensemble with the key of its inputs; the file appears whole or not at all."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        np.savez(fh, allow_pickle=False, samples=ensemble.samples, pushforward=ensemble.pushforward,
                 day_grid=ensemble.day_grid, resampled=np.array(ensemble.resampled), key=np.array(key))
    os.replace(tmp, path)


def _read_ensemble_npz(path, key):
    """The ensemble stored at path, or None if it is missing, unreadable (a file without the
    resample count, say), has another key or holds a non-finite value (ForecastEnsemble refuses one)."""
    try:
        with np.load(path, allow_pickle=False) as doc:
            if str(doc["key"]) != key:
                return None
            return ForecastEnsemble(samples=doc["samples"], pushforward=doc["pushforward"],
                                    day_grid=doc["day_grid"], resampled=int(doc["resampled"]))
    except (OSError, ValueError, KeyError, zipfile.BadZipFile):
        return None


def _ensemble_for(cfg, args, inputs, reuse=True):
    """The posterior-predictive ensemble of a downstream command.

    The ensemble spans the fit window and the forecast_days after it.  It is
    read from <out>/ensemble.npz when its key (the config's ENSEMBLE_FIELDS,
    fit.json's bytes and `forecast.DRAW_SCHEME`) matches, and otherwise drawn
    and written there; `reuse=False` always draws.
    """
    state, fit_bytes = _load_fit(inputs, args)
    grid = np.arange(inputs.window.n_days + cfg.forecast_days, dtype=float)
    path = Path(args.out) / "ensemble.npz"
    key = content_hash(cfg, fit_bytes, DRAW_SCHEME, fields=ENSEMBLE_FIELDS)
    ensemble = _read_ensemble_npz(path, key) if reuse else None
    if ensemble is None:
        ensemble = sample_ppt(state, inputs.ctx, grid, n_samples=cfg.ppt_samples, seed=cfg.seed)
        _write_ensemble_npz(ensemble, key, path)
    return ensemble


def cmd_forecast(args, cfg):
    inputs = _inputs(cfg)
    ensemble = _ensemble_for(cfg, args, inputs, reuse=False)
    outdir = Path(args.out)
    dates = [(cfg.fit_start_date + dt.timedelta(days=int(d))).isoformat() for d in ensemble.day_grid]
    bands = ensemble.bands()
    # (N_days, R, 6): the noisy-sample bands, then the push-forward median.
    columns = np.stack([*bands.values(), np.percentile(ensemble.pushforward, 50, axis=0)], axis=-1)
    _write_csv(outdir / "forecast.csv", ["region_id", "date", *bands, "pf_p50"],
               ([rid, date, *(f"{v:.9g}" for v in columns[i, r])]
                for r, rid in enumerate(inputs.graph.region_ids) for i, date in enumerate(dates)))
    if args.plot:
        window = inputs.window
        for r, rid in enumerate(inputs.graph.region_ids):
            obs = np.full(ensemble.day_grid.size, np.nan)
            obs[: window.n_days] = window.counts[:, r]
            region_bands = {k: v[:, r] for k, v in bands.items()}
            svg = plots.fantail_svg(ensemble.day_grid, region_bands, observations=obs,
                                    fit_end=float(inputs.ctx.day_grid[-1]), title=str(rid))
            (outdir / f"fantail_{rid}.svg").write_text(svg)
    print(f"forecast written to {outdir / 'forecast.csv'}; {ensemble.resampled} failed draw(s) resampled "
          f"for its {ensemble.samples.shape[0]} members")
    return 0


def cmd_detect(args, cfg):
    inputs = _inputs(cfg)
    obs = _forecast_observations(cfg, inputs.series)
    ensemble = _ensemble_for(cfg, args, inputs)
    result = detect(ensemble, obs.counts, forecast_start=inputs.window.n_days)
    outdir = Path(args.out)
    _write_csv(outdir / "alarms.csv", ["region_id", "alarm_date", "run_length"],
               ([inputs.graph.region_ids[r], obs.dates[day].isoformat(), run] for r, day, run in result.alarms))
    print(f"{len(result.alarms)} alarm(s) written to {outdir / 'alarms.csv'}")
    return 0


def _exceedance_map(cfg, args):
    """The graph and the exceedance map over the first n_smooth observed forecast days, whose count it prints."""
    inputs = _inputs(cfg)
    obs = _forecast_observations(cfg, inputs.series)
    ensemble = _ensemble_for(cfg, args, inputs)
    emap = exceedance(ensemble, obs.counts, forecast_start=inputs.window.n_days, n_smooth=cfg.n_smooth)
    n_days = int(emap.days[0] + emap.excluded_days[0])
    print(f"exceedance ratios averaged over the first {n_days} observed forecast day(s) (n_smooth {cfg.n_smooth})")
    return inputs.graph, emap


def cmd_exceedance(args, cfg):
    graph, emap = _exceedance_map(cfg, args)
    _write_csv(Path(args.out) / "exceedance.csv", ["region_id", "mean_exceedance", "excluded_days", "days"],
               ([rid, f"{m:.9g}", int(n), int(d)]
                for rid, m, n, d in zip(graph.region_ids, emap.mean_exceedance, emap.excluded_days, emap.days)))
    print(f"exceedance written to {Path(args.out) / 'exceedance.csv'}")
    return 0


def cmd_cluster(args, cfg):
    graph, emap = _exceedance_map(cfg, args)
    features = np.column_stack([graph.centroids, emap.mean_exceedance])
    labels, merges = cluster_regions(features, cut=cfg.cluster_cut)
    outdir = Path(args.out)
    _write_csv(outdir / "clusters.csv", ["region_id", "cluster_label"],
               ([rid, int(label)] for rid, label in zip(graph.region_ids, labels)))
    merge_list = [{"left": int(left), "right": int(right), "height": float(h)} for left, right, h, _ in merges]
    (outdir / "dendrogram.json").write_text(json.dumps({"merges": merge_list}, indent=2))
    print(f"{labels.max()} cluster(s) written to {outdir / 'clusters.csv'}")
    return 0


def cmd_crps(args, cfg):
    inputs = _inputs(cfg)
    ensemble = _ensemble_for(cfg, args, inputs)
    c, C = crps(ensemble, inputs.window.counts)
    T = inputs.window.counts.sum(axis=0)
    fit = crps_ratio_and_fit(C, T)
    _write_csv(Path(args.out) / "crps.csv", ["region_id", "crps", "total_cases", "rho"],
               ([rid, *(f"{v:.9g}" for v in values)]
                for rid, values in zip(inputs.graph.region_ids, np.column_stack([C, T, fit["rho"]]))))
    excluded = [rid for rid, rho in zip(inputs.graph.region_ids, fit["rho"]) if np.isnan(rho)]
    if excluded:
        print(f"excluded {len(excluded)} region(s) with no cases in the fit window: {', '.join(excluded)}")
    if fit["not_fitted"]:
        print(f"crps written; log-rho vs log-T slope not fitted: {fit['not_fitted']}")
    else:
        print(f"crps written; log-rho vs log-T slope {fit['slope']:.3f}, intercept {fit['intercept']:.3f}")
    return 0


def cmd_mcmc(args, cfg):
    inputs = _inputs(cfg)
    chain = run_amcmc(inputs.ctx, _mle_start(inputs, cfg), cfg.amcmc)
    if chain.acceptance_rate == 0:
        raise StuckChainError("the chain accepted no proposal: acceptance rate 0.000 over "
                              f"mcmc_draws = {cfg.mcmc_draws}; raise mcmc_draws")
    # Summarised in model space, the space that param_names name.
    draws = np.array([inputs.ctx.transforms.forward(x) for x in chain.samples])
    q05, q50, q95 = np.percentile(draws, [5, 50, 95], axis=0)
    _write_csv(Path(args.out) / "chain_summary.csv", ["parameter", "mean", "sd", "q05", "q50", "q95"],
               zip(param_names(inputs.graph.n_regions), draws.mean(axis=0), draws.std(axis=0, ddof=1),
                   q05, q50, q95))
    print(f"chain summary written; acceptance rate {chain.acceptance_rate:.3f}")
    return 0


def cmd_simulate(args, cfg):
    graph = _load_graph(cfg)
    end_off = (cfg.fit_end_date - cfg.fit_start_date).days
    day_grid = np.arange(end_off + cfg.forecast_days + 1, dtype=float)
    regions = []
    for r in range(graph.n_regions):
        pop = graph.populations[r] if graph.populations.size else 50000.0
        regions.append(RegionParams(t0=-10.0, N=max(200.0, 0.01 * pop), k=3.0, theta=7.0))
    truth = ParamVector.from_parts(regions, NoiseParams(tau_phi=1.0, lambda_phi=0.5, sigma_a=1.0, sigma_m=0.1))
    counts, _ = synthetic_counts(truth, graph, cfg.incubation, day_grid, seed=cfg.seed, quad_nodes=cfg.quad_nodes)
    second_wave = None
    if args.second_wave > 0:
        # The wave starts on the first forecast day so the fit window stays clean.
        waves = [RegionParams(t0=float(end_off), N=args.second_wave * p.N, k=2.0, theta=3.0) for p in regions]
        counts = counts + predict_regions(ParamVector.from_parts(waves, truth.noise), cfg.incubation, day_grid,
                                          cfg.quadrature)
        second_wave = {"amplitude": args.second_wave, "t0": float(end_off), "k": 2.0, "theta": 3.0}
    dates = tuple(cfg.fit_start_date + dt.timedelta(days=int(d)) for d in day_grid)
    outdir = Path(args.out)
    write_cases_csv(CaseData(dates=dates, counts=counts, region_ids=graph.region_ids), outdir / "cases.csv")
    truth_doc = {
        "values": truth.values.tolist(),
        "names": param_names(graph.n_regions),
        "seed": cfg.seed,
        "second_wave": second_wave,
    }
    (outdir / "truth.json").write_text(json.dumps(truth_doc, indent=2))
    print(f"synthetic dataset written to {outdir / 'cases.csv'}")
    return 0


def cmd_gradcheck(args, cfg):
    ctx = _inputs(cfg).ctx
    rng = np.random.default_rng(cfg.seed)
    xhat = default_initial_guess(ctx) + 0.05 * rng.standard_normal(ctx.dim)
    loglik_err = checks.loglik_gradient_max_relerr(ctx, xhat)
    state = VariationalState.around(xhat, sigma=0.05)
    elbo_err = checks.elbo_gradient_max_relerr(ctx, state, n_samples=4, seed=cfg.seed)
    print(f"max relative error, log-likelihood gradient: {loglik_err:.3e}")
    print(f"max relative error, ELBO gradient (CRN):     {elbo_err:.3e}")
    ok = loglik_err < 1e-5 and elbo_err < 1e-4
    print("gradcheck " + ("PASSED" if ok else "FAILED"))
    return 0 if ok else 3


_COMMANDS = {
    "fit": cmd_fit,
    "forecast": cmd_forecast,
    "detect": cmd_detect,
    "exceedance": cmd_exceedance,
    "cluster": cmd_cluster,
    "crps": cmd_crps,
    "mcmc": cmd_mcmc,
    "simulate": cmd_simulate,
    "gradcheck": cmd_gradcheck,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        cfg = _load_config(args)
        Path(args.out).mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](args, cfg)
    # LinAlgError subclasses ValueError, so the numerical clause comes first.
    except (DivergenceError, StuckChainError, np.linalg.LinAlgError, FloatingPointError) as exc:
        diag = Path(args.out) / "diagnostics.txt"
        text = traceback.format_exc()
        if isinstance(exc, DivergenceError):
            rows = zip(exc.trace.iterations[-10:], exc.trace.elbo[-10:], exc.trace.grad_norm[-10:])
            text += "\nlast trace rows: iteration,elbo,grad_norm\n" + "".join(f"{i},{e},{g}\n" for i, e, g in rows)
        try:
            diag.write_text(text)
        except OSError:
            pass
        print(f"numerical failure: {exc} (diagnostics in {diag})", file=sys.stderr)
        return 3
    except (OSError, ValueError, KeyError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
