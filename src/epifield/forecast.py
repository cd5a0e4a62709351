"""Posterior-predictive ensembles, percentile bands and CRPS scoring."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .likelihood import _batched_covariances
from .mcmc import ChainState
from .params import ParamVector
from .posterior import ModelContext
from .vi import VariationalState

PERCENTILES = (5, 25, 50, 75, 95)


@dataclass(frozen=True)
class ForecastEnsemble:
    """J noisy trajectories per region with matching noise-free push-forwards.

    Noisy samples keep their Gaussian noise unclipped, so they (and the low
    percentile bands) may dip below zero near small predictions.
    """

    samples: np.ndarray  # (J, N_days, R)
    pushforward: np.ndarray  # (J, N_days, R)
    day_grid: np.ndarray

    def __post_init__(self):
        if self.samples.shape != self.pushforward.shape:
            raise ValueError("samples and pushforward shapes must agree")
        if self.samples.shape[1] != np.asarray(self.day_grid).size:
            raise ValueError("day axis mismatch")

    @property
    def n_samples(self):
        return self.samples.shape[0]

    def bands(self, pushforward=False):
        """Percentile bands {p05, p25, p50, p75, p95}, each (N_days, R)."""
        source = self.pushforward if pushforward else self.samples
        values = np.percentile(source, PERCENTILES, axis=0)
        return {f"p{p:02d}": values[i] for i, p in enumerate(PERCENTILES)}

    def boundary(self, q=99.0):
        """Per region-day outlier boundary: the q-th percentile of noisy samples."""
        return np.percentile(self.samples, q, axis=0)


def _draw_unconstrained(source, n, rng):
    if isinstance(source, VariationalState):
        eps = rng.standard_normal((n, source.dim))
        return source.mu[None, :] + source.sigma[None, :] * eps
    if isinstance(source, ChainState):
        idx = rng.integers(0, source.samples.shape[0], size=n)
        return source.samples[idx]
    raise TypeError(f"cannot draw posterior samples from {type(source).__name__}")


def sample_ppt(source, ctx: ModelContext, day_grid, n_samples=100, seed=0, max_retries=10):
    """Posterior predictive test ensemble over day_grid.

    Each draw maps a posterior sample to constrained parameters, computes
    the daily predictions, and adds day-wise noise correlated across
    regions through the fitted covariance.  Draws whose covariance fails
    to factor are resampled, up to max_retries in a row.
    """
    if n_samples < 2:
        raise ValueError("at least 2 ensemble members required")
    rng = np.random.default_rng(seed)
    day_grid = np.asarray(day_grid, dtype=float)
    tf = ctx.transforms
    samples = np.empty((n_samples, day_grid.size, ctx.n_regions))
    pushforward = np.empty_like(samples)
    j = 0
    retries = 0
    while j < n_samples:
        xhat = _draw_unconstrained(source, 1, rng)[0]
        try:
            theta = ParamVector(values=tf.forward(xhat), n_regions=ctx.n_regions)
            y = ctx.predictions(theta, day_grid=day_grid)
            _, chol, _ = _batched_covariances(ctx.graph, theta.noise, y)
        except (ValueError, np.linalg.LinAlgError):
            retries += 1
            if retries > max_retries:
                raise np.linalg.LinAlgError(f"covariance factorization failed {retries} times in a row")
            continue
        retries = 0
        z = rng.standard_normal((day_grid.size, ctx.n_regions))
        noise = np.einsum("irs,is->ir", chol, z)
        pushforward[j] = y
        samples[j] = y + noise
        j += 1
    return ForecastEnsemble(samples=samples, pushforward=pushforward, day_grid=day_grid)


def crps_samples(samples, y_obs):
    """Exact CRPS of the empirical CDF of `samples` against a scalar observation.

    Uses the energy form E|X - y| - 0.5 E|X - X'| with X uniform over the
    sample set, which equals the integrated squared difference between the
    empirical CDF step function and the observation indicator.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    term1 = np.mean(np.abs(x - y_obs))
    # sum_{i<j} (x_j - x_i) via sorted prefix weights
    i = np.arange(1, n + 1)
    pair_sum = 2.0 * np.sum((2 * i - n - 1) * x)
    return float(term1 - 0.5 * pair_sum / n**2)


def crps(ensemble: ForecastEnsemble, observations, day_slice=None):
    """Per-day CRPS c[i, r] and per-region means C_r over the scored window."""
    obs = np.asarray(observations, dtype=float)
    samples = ensemble.samples
    if day_slice is not None:
        samples = samples[:, day_slice, :]
    if obs.shape != samples.shape[1:]:
        raise ValueError("observation shape must match the scored window")
    n_days, n_regions = obs.shape
    c = np.empty((n_days, n_regions))
    for i in range(n_days):
        for r in range(n_regions):
            c[i, r] = crps_samples(samples[:, i, r], obs[i, r])
    return c, c.mean(axis=0)


def crps_ratio_and_fit(C, T):
    """Ratios rho_r = C_r / T_r and the OLS fit of log(rho) on log(T).

    Regions with zero case totals are excluded (with a warning count in
    the result).  Returns a dict with slope, intercept, rho, and the
    quartile thresholds of rho used for region classification.
    """
    C = np.asarray(C, dtype=float)
    T = np.asarray(T, dtype=float)
    keep = T > 0
    rho = np.full(C.shape, np.nan)
    rho[keep] = C[keep] / T[keep]
    logT = np.log(T[keep])
    logrho = np.log(rho[keep])
    if keep.sum() >= 2 and np.ptp(logT) > 0:
        slope, intercept = np.polyfit(logT, logrho, 1)
    else:
        slope, intercept = 0.0, float(np.mean(logrho))
    q1, q3 = np.percentile(rho[keep], [25, 75])
    return {
        "rho": rho,
        "slope": float(slope),
        "intercept": float(intercept),
        "rho_q1": float(q1),
        "rho_q3": float(q3),
        "n_excluded": int((~keep).sum()),
    }


def write_forecast_csv(ensemble: ForecastEnsemble, region_ids, dates, path):
    """forecast.csv: region_id, date, p05..p95 and the push-forward median."""
    bands = ensemble.bands()
    pf_med = ensemble.bands(pushforward=True)["p50"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["region_id", "date", "p05", "p25", "p50", "p75", "p95", "pf_p50"])
        for r, rid in enumerate(region_ids):
            for i, date in enumerate(dates):
                writer.writerow(
                    [rid, date]
                    + [f"{bands[f'p{p:02d}'][i, r]:.9g}" for p in PERCENTILES]
                    + [f"{pf_med[i, r]:.9g}"]
                )


def write_crps_csv(region_ids, C, T, rho, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["region_id", "crps", "total_cases", "rho"])
        for r, rid in enumerate(region_ids):
            writer.writerow([rid, f"{C[r]:.9g}", f"{T[r]:.9g}", f"{rho[r]:.9g}"])
