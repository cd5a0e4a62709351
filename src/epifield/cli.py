"""Command-line pipeline: simulate / fit / forecast / detect / score / cluster.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import datetime as dt
import json
import sys
import traceback
from pathlib import Path

import numpy as np

from . import checks, plots
from .config import ENSEMBLE_FIELDS, FIT_FIELDS, RunConfig, content_hash
from .data import CaseData, generate_synthetic, ingest_cases, smooth, write_cases_csv
from .forecast import (
    crps,
    crps_ratio_and_fit,
    read_ensemble_npz,
    sample_ppt,
    write_crps_csv,
    write_ensemble_npz,
    write_forecast_csv,
)
from .graph import load_region_graph
from .likelihood import NoiseParams
from .mcmc import AmcmcConfig, run_amcmc, write_chain_summary
from .model import QuadratureRule, RegionParams, predict_daily
from .params import ParamVector, param_names
from .posterior import ModelContext
from .surveillance import (
    cluster_regions,
    detect,
    exceedance,
    write_alarms_csv,
    write_clusters,
    write_exceedance_csv,
)
from .vi import DivergenceError, VariationalState, default_initial_guess, fit_mfvi, mle_fit


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser():
    parser = _Parser(prog="epifield", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    for name in ("fit", "forecast", "detect", "exceedance", "cluster", "crps", "mcmc", "simulate", "gradcheck"):
        p = sub.add_parser(name)
        p.add_argument("--config", default="config.json", help="run configuration JSON")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the configured seed")
        p.add_argument("--plot", action="store_true", help="also emit SVG plots")
        p.add_argument("--raw", action="store_true", help="disable smoothing")
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
    return cfg


def _load_graph(cfg):
    graph = load_region_graph(cfg.regions_csv, cfg.edges_csv)
    if cfg.regions:
        graph = graph.subgraph(cfg.regions)
    return graph


def _load_series(cfg, graph, raw=False):
    data = ingest_cases(cfg.cases_csv, graph)
    if raw or cfg.smoothing_window <= 1:
        return data
    return smooth(data, cfg.smoothing_window)


def _fit_context(cfg, graph, series):
    window = series.window(cfg.fit_start_date, cfg.fit_end_date)
    day_grid = window.day_offsets(cfg.reference)
    return ModelContext(
        graph=graph,
        day_grid=day_grid,
        y_obs=window.counts,
        incubation=cfg.incubation,
        prior=cfg.prior,
        quad_nodes=cfg.quad_nodes,
        include_jacobian=cfg.include_jacobian_entropy,
    ), window


def _data_hash(cfg, raw):
    """Hash of the config's FIT_FIELDS, whether --raw turned smoothing off, and the three input files' bytes."""
    inputs = [Path(p).read_bytes() for p in (cfg.cases_csv, cfg.regions_csv, cfg.edges_csv)]
    smoothing = b"raw" if raw or cfg.smoothing_window <= 1 else b"smoothed"
    return content_hash(cfg, smoothing, *inputs, fields=FIT_FIELDS)


def _load_fit(cfg, args):
    """The fitted state and the bytes of the fit.json it came from."""
    fit_bytes = (Path(args.out) / "fit.json").read_bytes()
    doc = json.loads(fit_bytes)
    if doc["config_hash"] != _data_hash(cfg, args.raw):
        raise ValueError("fit.json was produced from different fit settings, dataset or --raw setting; re-run fit")
    return VariationalState(mu=np.array(doc["mu"]), rho=np.array(doc["rho"])), fit_bytes


def _forecast_grid(cfg, series, ctx):
    """Fit-window day grid extended by the available forecast days."""
    last = series.dates[-1]
    n_fc = min(cfg.forecast_days, (last - cfg.fit_end_date).days)
    extra = ctx.day_grid[-1] + 1 + np.arange(max(n_fc, 0))
    return np.concatenate([ctx.day_grid, extra]), n_fc


def _forecast_observations(cfg, series, n_days):
    start = cfg.fit_end_date + dt.timedelta(days=1)
    end = cfg.fit_end_date + dt.timedelta(days=n_days)
    return series.window(start, end)


def cmd_fit(args, cfg):
    graph = _load_graph(cfg)
    series = _load_series(cfg, graph, raw=args.raw)
    ctx, _ = _fit_context(cfg, graph, series)
    state, trace = fit_mfvi(ctx, cfg.optimizer)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    trace_csv = outdir / "trace.csv"
    trace.write_csv(trace_csv)
    doc = {
        "mu": state.mu.tolist(),
        "rho": state.rho.tolist(),
        "region_ids": list(graph.region_ids),
        "config_hash": _data_hash(cfg, args.raw),
        "trace_csv": str(trace_csv),
    }
    (outdir / "fit.json").write_text(json.dumps(doc, indent=2))
    if args.plot:
        (outdir / "trace.svg").write_text(
            plots.trace_svg(trace.iterations, trace.elbo, title="ELBO convergence", ylabel="negative ELBO")
        )
    print(f"fit written to {outdir / 'fit.json'} ({len(trace.iterations)} iterations)")
    return 0


def _ensemble_for(cfg, args, need_forecast=True, reuse=True):
    """Inputs and the posterior-predictive ensemble of a downstream command.

    The ensemble is read from <out>/ensemble.npz when its key (the config's
    ENSEMBLE_FIELDS and fit.json's bytes) matches, and otherwise drawn and
    written there; `reuse=False` always draws.
    """
    graph = _load_graph(cfg)
    series = _load_series(cfg, graph, raw=args.raw)
    ctx, window = _fit_context(cfg, graph, series)
    state, fit_bytes = _load_fit(cfg, args)
    grid, n_fc = _forecast_grid(cfg, series, ctx)
    if need_forecast and n_fc <= 0:
        raise ValueError("no observations beyond the fit window; cannot forecast/detect")
    path = Path(args.out) / "ensemble.npz"
    key = content_hash(cfg, fit_bytes, fields=ENSEMBLE_FIELDS)
    ensemble = read_ensemble_npz(path, key) if reuse else None
    if ensemble is None:
        ensemble = sample_ppt(state, ctx, grid, n_samples=cfg.ppt_samples, seed=cfg.seed)
        write_ensemble_npz(ensemble, key, path)
    return graph, series, ctx, window, ensemble, n_fc


def cmd_forecast(args, cfg):
    graph, series, ctx, window, ensemble, _ = _ensemble_for(cfg, args, need_forecast=False, reuse=False)
    outdir = Path(args.out)
    dates = [cfg.reference + dt.timedelta(days=int(d)) for d in ensemble.day_grid]
    write_forecast_csv(ensemble, graph.region_ids, [d.isoformat() for d in dates], outdir / "forecast.csv")
    if args.plot:
        bands = ensemble.bands()
        fit_end_off = float(ctx.day_grid[-1])
        for r, rid in enumerate(graph.region_ids):
            obs = np.full(ensemble.day_grid.size, np.nan)
            obs[: window.n_days] = window.counts[:, r]
            region_bands = {k: v[:, r] for k, v in bands.items()}
            svg = plots.fantail_svg(ensemble.day_grid, region_bands, observations=obs,
                                    fit_end=fit_end_off, title=str(rid))
            (outdir / f"fantail_{rid}.svg").write_text(svg)
    print(f"forecast written to {outdir / 'forecast.csv'}")
    return 0


def cmd_detect(args, cfg):
    graph, series, ctx, window, ensemble, n_fc = _ensemble_for(cfg, args)
    obs_series = _load_series(cfg, graph, raw=True) if cfg.detect_on_raw and not args.raw else series
    obs = _forecast_observations(cfg, obs_series, n_fc)
    result = detect(ensemble, obs.counts, forecast_start=window.n_days)
    outdir = Path(args.out)
    write_alarms_csv(result, graph.region_ids, [d.isoformat() for d in obs.dates], outdir / "alarms.csv")
    print(f"{len(result.alarms)} alarm(s) written to {outdir / 'alarms.csv'}")
    return 0


def cmd_exceedance(args, cfg):
    graph, series, ctx, window, ensemble, n_fc = _ensemble_for(cfg, args)
    n_smooth = min(cfg.n_smooth, n_fc)
    obs = _forecast_observations(cfg, series, n_smooth)
    emap = exceedance(ensemble, obs.counts, start=window.n_days, n_smooth=n_smooth)
    write_exceedance_csv(emap, graph.region_ids, Path(args.out) / "exceedance.csv")
    print(f"exceedance written to {Path(args.out) / 'exceedance.csv'}")
    return 0


def cmd_cluster(args, cfg):
    graph, series, ctx, window, ensemble, n_fc = _ensemble_for(cfg, args)
    n_smooth = min(cfg.n_smooth, n_fc)
    obs = _forecast_observations(cfg, series, n_smooth)
    emap = exceedance(ensemble, obs.counts, start=window.n_days, n_smooth=n_smooth)
    features = np.column_stack([graph.centroids, emap.mean_exceedance])
    labels, merges = cluster_regions(
        features, cut=cfg.cluster_cut, linkage=cfg.cluster_linkage, cut_mode=cfg.cluster_cut_mode
    )
    outdir = Path(args.out)
    write_clusters(labels, merges, graph.region_ids, outdir / "clusters.csv", outdir / "dendrogram.json")
    print(f"{labels.max()} cluster(s) written to {outdir / 'clusters.csv'}")
    return 0


def cmd_crps(args, cfg):
    graph, series, ctx, window, ensemble, _ = _ensemble_for(cfg, args, need_forecast=False)
    scored = window.counts
    if cfg.crps_on_raw:
        raw = _load_series(cfg, graph, raw=True).window(cfg.fit_start_date, cfg.fit_end_date)
        scored = raw.counts
    c, C = crps(ensemble, scored, day_slice=slice(0, window.n_days))
    T = window.counts.sum(axis=0)
    fit = crps_ratio_and_fit(C, T)
    write_crps_csv(graph.region_ids, C, T, fit["rho"], Path(args.out) / "crps.csv")
    print(f"crps written; log-rho vs log-T slope {fit['slope']:.3f}, intercept {fit['intercept']:.3f}")
    return 0


def cmd_mcmc(args, cfg):
    graph = _load_graph(cfg)
    series = _load_series(cfg, graph, raw=args.raw)
    ctx, _ = _fit_context(cfg, graph, series)
    x0, _ = mle_fit(ctx, cfg.optimizer)
    chain = run_amcmc(ctx, x0, AmcmcConfig(n_total=cfg.mcmc_draws, seed=cfg.seed))
    write_chain_summary(chain, Path(args.out) / "chain_summary.csv", names=param_names(graph.n_regions))
    print(f"chain summary written; acceptance rate {chain.acceptance_rate:.3f}")
    return 0


def cmd_simulate(args, cfg):
    graph = _load_graph(cfg)
    start_off = (cfg.fit_start_date - cfg.reference).days
    end_off = (cfg.fit_end_date - cfg.reference).days
    day_grid = np.arange(start_off, end_off + cfg.forecast_days + 1, dtype=float)
    regions = []
    for r in range(graph.n_regions):
        pop = graph.populations[r] if graph.populations.size else 50000.0
        regions.append(RegionParams(t0=start_off - 10.0, N=max(200.0, 0.01 * pop), k=3.0, theta=7.0))
    truth = ParamVector.from_parts(regions, NoiseParams(tau_phi=1.0, lambda_phi=0.5, sigma_a=1.0, sigma_m=0.1))
    data = generate_synthetic(truth, graph, cfg.incubation, cfg.reference, day_grid,
                              seed=cfg.seed, quad_nodes=cfg.quad_nodes)
    second_wave = None
    if args.second_wave > 0:
        quad = QuadratureRule.gauss_legendre(cfg.quad_nodes)
        counts = data.counts.copy()
        # The wave starts on the first forecast day so the fit window stays clean.
        for r in range(graph.n_regions):
            wave = RegionParams(t0=float(end_off), N=args.second_wave * regions[r].N, k=2.0, theta=3.0)
            counts[:, r] += predict_daily(wave, cfg.incubation, day_grid, quad)
        data = CaseData(dates=data.dates, counts=counts, region_ids=data.region_ids)
        second_wave = {"amplitude": args.second_wave, "t0": float(end_off), "k": 2.0, "theta": 3.0}
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    write_cases_csv(data, outdir / "cases.csv")
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
    graph = _load_graph(cfg)
    series = _load_series(cfg, graph, raw=args.raw)
    ctx, _ = _fit_context(cfg, graph, series)
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
        parser.print_usage(sys.stderr)
        return 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        cfg = _load_config(args)
        Path(args.out).mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](args, cfg)
    # LinAlgError subclasses ValueError, so the numerical clause comes first.
    except (DivergenceError, np.linalg.LinAlgError, FloatingPointError) as exc:
        diag = Path(args.out) / "diagnostics.txt"
        try:
            diag.write_text(traceback.format_exc())
        except OSError:
            pass
        print(f"numerical failure: {exc} (diagnostics in {diag})", file=sys.stderr)
        return 3
    except (OSError, ValueError, KeyError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
