"""The three workloads: inputs made from the seed, one operation, output checks.

Every workload has a `setup` (timed and repeated by the runner), an
untimed `verify` that runs once after set-up, and an `operation` that the
runner repeats in a closed loop with one caller.  An operation times only
its calls into epifield and checks their outputs afterwards.  It returns
its time (`op_s`), its step latencies and the quality figures for the
record, or None when a part failed.  Each part is attempted through the
Tally, so a raise or a failed check counts as a failed operation.
"""

from __future__ import annotations

import contextlib
import csv
import datetime as dt
import importlib.resources
import io
import json
import time
from pathlib import Path

import numpy as np

import epifield
import epifield.cli
from epifield import checks

from .stats import require

# Gradient check threshold, the same as `epifield gradcheck`.
GRADCHECK_TOL = 1e-5
# Loose recovery guard: median over regions of |N_hat - N| / N.
PARAM_REL_ERR_MAX = 0.25
# Days after the fit end by which the injected second wave must alarm.
ALARM_WITHIN_DAYS = 7


def _finite(*arrays):
    return all(np.all(np.isfinite(np.asarray(a, dtype=float))) for a in arrays)


def _rounded(values):
    """Values to 6 significant digits, for the output digest."""
    return ",".join(f"{float(v):.6g}" for v in np.ravel(values))


def _param_rel_err(ctx, state, truth):
    est = ctx.transforms.forward(state.mu)
    n_slots = slice(1, 4 * ctx.n_regions, 4)
    return float(np.median(np.abs(est[n_slots] - truth[n_slots]) / truth[n_slots]))


def _gradcheck(ctx, truth, rng):
    """Log-posterior gradient vs central differences near the truth."""
    xhat = ctx.transforms.inverse(truth) + 0.05 * rng.standard_normal(ctx.dim)
    err = checks.loglik_gradient_max_relerr(ctx, xhat)
    require(err < GRADCHECK_TOL, f"log-posterior gradient rel err {err:.3e} >= {GRADCHECK_TOL}")
    return err


def _adam_steps_ms(trace):
    """Per-iteration latencies from the cumulative ElboTrace.wall_time."""
    wall = np.asarray(trace.wall_time)
    return [float(x) for x in 1e3 * np.diff(wall, prepend=0.0)]


def _fit(ctx, optimizer, truth):
    """One timed fit_mfvi, then its output checks; returns (state, record)."""
    t = time.perf_counter()
    state, trace = epifield.fit_mfvi(ctx, optimizer)
    fit_s = time.perf_counter() - t
    require(_finite(state.mu, state.rho), "fitted variational state is not finite")
    require(_finite(trace.elbo), "ELBO trace is not finite")
    err = _param_rel_err(ctx, state, truth)
    require(err < PARAM_REL_ERR_MAX, f"param_rel_err {err:.3f} >= {PARAM_REL_ERR_MAX}")
    evals_per_s = sum(trace.n_samples) / trace.wall_time[-1]
    default = epifield.OptimizerConfig()
    return state, {
        "fit_s": fit_s,
        "steps_ms": _adam_steps_ms(trace),
        "param_rel_err": err,
        "fit_h_default": default.max_iters * default.n_samples / evals_per_s / 3600.0,
    }


def _fixture(name):
    return str(importlib.resources.files("epifield") / "fixtures" / name)


def _cli(*argv):
    """Run one CLI command in-process; its console output is dropped."""
    with contextlib.redirect_stdout(io.StringIO()):
        return epifield.cli.main(list(argv))


class Nm33:
    """Shared inputs of the NM-fixture workloads: `simulate` output on disk."""

    def __init__(self, workdir, seed):
        self.workdir = Path(workdir)
        self.seed = seed

    def write_inputs(self, second_wave, **overrides):
        """Write config.json and run `simulate`; returns the RunConfig."""
        cfg = epifield.RunConfig(
            cases_csv=str(self.workdir / "cases.csv"),
            regions_csv=_fixture("nm_regions.csv"),
            edges_csv=_fixture("nm_edges.csv"),
            seed=self.seed,
            **overrides,
        )
        self.config_path = self.workdir / "config.json"
        self.config_path.write_text(cfg.to_json())
        args = ["simulate", "--config", str(self.config_path), "--out", str(self.workdir)]
        if second_wave:
            args += ["--second-wave", str(second_wave)]
        require(_cli(*args) == 0, "simulate exited non-zero")
        self.truth = np.array(json.loads((self.workdir / "truth.json").read_text())["values"])
        return cfg


class Nm33Fit:
    """fit_mfvi on the 33-county NM graph, 107-day window, bounded budget."""

    name = "nm33-fit"
    MAX_ITERS = 10
    N_SAMPLES = 10

    def setup(self, workdir, seeds):
        inputs = Nm33(workdir, seeds["data"])
        cfg = inputs.write_inputs(0.0)
        graph = epifield.load_region_graph(cfg.regions_csv, cfg.edges_csv)
        series = epifield.smooth(epifield.ingest_cases(cfg.cases_csv, graph), cfg.smoothing_window)
        window = series.window(cfg.fit_start_date, cfg.fit_end_date)
        self.ctx = epifield.ModelContext(
            graph=graph, day_grid=window.day_offsets(cfg.reference), y_obs=window.counts,
            incubation=cfg.incubation, prior=cfg.prior, quad_nodes=cfg.quad_nodes,
        )
        self.truth = inputs.truth
        self.optimizer = epifield.OptimizerConfig(max_iters=self.MAX_ITERS, n_samples=self.N_SAMPLES,
                                                  seed=seeds["fit"])
        self.ctx.logpost_and_grad(self.ctx.transforms.inverse(self.truth))
        self.rng = np.random.default_rng(seeds["check"])

    def verify(self, tally):
        tally.attempt("gradcheck", _gradcheck, self.ctx, self.truth, self.rng)

    def operation(self, tally, recorder=None):
        ok, out = tally.attempt("fit_mfvi", _fit, self.ctx, self.optimizer, self.truth)
        if not ok:
            return None
        state, rec = out
        rec.update(op_s=rec["fit_s"], digest=_rounded(np.concatenate([state.mu, state.rho])))
        return rec


class Path3Accept:
    """The acceptance-suite regime: 3-region path graph over 60 days.

    fit_mfvi at n_samples=10, then an MLE start point and a short AMCMC
    chain, as in acceptance criterion 5.
    """

    name = "path3-accept"
    MAX_ITERS = 100
    N_SAMPLES = 10
    STEP_SIZE = 0.015
    CHAIN_DRAWS = 1500
    REGIONS = (
        epifield.RegionParams(t0=-12.0, N=6000.0, k=3.0, theta=7.0),
        epifield.RegionParams(t0=-8.0, N=3000.0, k=2.5, theta=9.0),
        epifield.RegionParams(t0=-10.0, N=1500.0, k=3.5, theta=6.0),
    )
    NOISE = epifield.NoiseParams(tau_phi=1.0, lambda_phi=0.5, sigma_a=1.0, sigma_m=0.1)

    def setup(self, workdir, seeds):
        graph = epifield.path_graph(("r0", "r1", "r2"))
        grid = np.arange(1.0, 61.0)
        truth = epifield.ParamVector.from_parts(self.REGIONS, self.NOISE)
        inc = epifield.IncubationParams()
        obs, _ = epifield.synthetic_counts(truth, graph, inc, grid, seed=seeds["data"])
        self.ctx = epifield.ModelContext(graph=graph, day_grid=grid, y_obs=obs, incubation=inc,
                                         prior=epifield.PriorSpec())
        self.truth = truth.values
        self.optimizer = epifield.OptimizerConfig(step_size=self.STEP_SIZE, max_iters=self.MAX_ITERS,
                                                  n_samples=self.N_SAMPLES, seed=seeds["fit"])
        self.chain_config = epifield.AmcmcConfig(n_total=self.CHAIN_DRAWS, seed=seeds["chain"])
        self.ctx.logpost_and_grad(self.ctx.transforms.inverse(self.truth))
        self.ctx.logpost(self.ctx.transforms.inverse(self.truth))
        self.rng = np.random.default_rng(seeds["check"])

    def verify(self, tally):
        tally.attempt("gradcheck", _gradcheck, self.ctx, self.truth, self.rng)

    def _chain(self):
        """Timed mle_fit + run_amcmc, then the chain checks; returns (chain, mle s, chain s)."""
        t = time.perf_counter()
        x0, _ = epifield.mle_fit(self.ctx, self.optimizer)
        t_chain = time.perf_counter()
        chain = epifield.run_amcmc(self.ctx, x0, self.chain_config)
        t_end = time.perf_counter()
        require(_finite(chain.samples, chain.log_posts), "chain holds non-finite draws")
        require(0.0 < chain.acceptance_rate < 1.0, f"acceptance rate {chain.acceptance_rate}")
        return chain, t_chain - t, t_end - t_chain

    def operation(self, tally, recorder=None):
        ok, out = tally.attempt("fit_mfvi", _fit, self.ctx, self.optimizer, self.truth)
        ok_chain, chained = tally.attempt("mle_fit+run_amcmc", self._chain)
        if not (ok and ok_chain):
            return None
        state, rec = out
        chain, mle_s, chain_s = chained
        rec.update(op_s=rec["fit_s"] + mle_s + chain_s, mcmc_draws_per_s=self.chain_config.n_total / chain_s,
                   digest=_rounded(np.concatenate([state.mu, state.rho, chain.samples.mean(axis=0)])))
        return rec


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class Nm33Pipeline:
    """forecast -> detect -> exceedance -> cluster -> crps through epifield.cli.main.

    Inputs are `simulate --second-wave 3.0` output on the NM fixture; the
    fit.json the commands read is written during set-up with a tiny budget.
    """

    name = "nm33-pipeline"
    SECOND_WAVE = 3.0
    SETUP_MAX_ITERS = 5
    SETUP_N_SAMPLES = 2
    COMMANDS = ("forecast", "detect", "exceedance", "cluster", "crps")

    def setup(self, workdir, seeds):
        inputs = Nm33(workdir, seeds["data"])
        self.cfg = inputs.write_inputs(self.SECOND_WAVE, max_iters=self.SETUP_MAX_ITERS,
                                       n_samples=self.SETUP_N_SAMPLES)
        self.out = Path(workdir)
        self.config_path = inputs.config_path
        require(self._run("fit") == 0, "fit exited non-zero")
        self.region_ids = epifield.load_region_graph(self.cfg.regions_csv, self.cfg.edges_csv).region_ids

    def verify(self, tally):
        pass

    def _run(self, command):
        return _cli(command, "--config", str(self.config_path), "--out", str(self.out))

    def _check_forecast(self):
        rows = _read_csv(self.out / "forecast.csv")
        n_days = (self.cfg.fit_end_date - self.cfg.fit_start_date).days + 1 + self.cfg.forecast_days
        require(len(rows) == len(self.region_ids) * n_days, f"forecast.csv has {len(rows)} rows")
        bands = np.array([[float(r[k]) for k in ("p05", "p25", "p50", "p75", "p95", "pf_p50")] for r in rows])
        require(_finite(bands), "forecast.csv holds non-finite values")
        require(np.all(np.diff(bands[:, :5], axis=1) >= 0), "forecast bands are not ordered")
        return bands

    def _check_detect(self):
        rows = _read_csv(self.out / "alarms.csv")
        last = self.cfg.fit_end_date + dt.timedelta(days=ALARM_WITHIN_DAYS)
        early = [r for r in rows if dt.date.fromisoformat(r["alarm_date"]) <= last]
        require(early, f"no alarm within {ALARM_WITHIN_DAYS} forecast days of the second wave")
        return [(r["region_id"], r["alarm_date"], int(r["run_length"])) for r in rows]

    def _check_exceedance(self):
        rows = _read_csv(self.out / "exceedance.csv")
        require([r["region_id"] for r in rows] == list(self.region_ids), "exceedance.csv region order")
        values = np.array([float(r["mean_exceedance"]) for r in rows])
        require(_finite(values), "exceedance.csv holds non-finite values")
        return values

    def _check_cluster(self):
        rows = _read_csv(self.out / "clusters.csv")
        require([r["region_id"] for r in rows] == list(self.region_ids), "clusters.csv region order")
        labels = [int(r["cluster_label"]) for r in rows]
        require(min(labels) >= 1, "cluster labels must be positive")
        merges = json.loads((self.out / "dendrogram.json").read_text())["merges"]
        require(len(merges) == len(self.region_ids) - 1, "dendrogram must hold R - 1 merges")
        return labels

    def _check_crps(self):
        rows = _read_csv(self.out / "crps.csv")
        require([r["region_id"] for r in rows] == list(self.region_ids), "crps.csv region order")
        values = np.array([[float(r["crps"]), float(r["total_cases"])] for r in rows])
        require(_finite(values) and np.all(values >= 0), "crps.csv holds negative or non-finite values")
        return values

    def _command(self, command, recorder):
        """One timed CLI command, then its exit code and output checks."""
        span = recorder.span(f"cli.{command}") if recorder else contextlib.nullcontext()
        t = time.perf_counter()
        with span:
            rc = self._run(command)
        seconds = time.perf_counter() - t
        require(rc == 0, f"{command} exited {rc}")
        return seconds, getattr(self, f"_check_{command}")()

    def operation(self, tally, recorder=None):
        steps, outputs = [], {}
        for command in self.COMMANDS:
            ok, out = tally.attempt(command, self._command, command, recorder)
            if not ok:
                return None
            steps.append(out[0])
            outputs[command] = out[1]
        return {
            "op_s": sum(steps),
            "steps_ms": [1e3 * s for s in steps],
            "crps_mean": float(np.mean(outputs["crps"][:, 0])),
            "alarms": len(outputs["detect"]),
            "digest": ";".join([_rounded(outputs["forecast"]), repr(outputs["detect"]),
                                _rounded(outputs["exceedance"]), repr(outputs["cluster"]),
                                _rounded(outputs["crps"])]),
        }


WORKLOADS = {w.name: w for w in (Nm33Fit, Path3Accept, Nm33Pipeline)}

