"""Posterior-predictive ensembles, percentile bands and CRPS scoring."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .likelihood import correlated_noise
from .mcmc import ChainState
from .model import _checked_day_grid
from .params import ParamVector
from .posterior import ModelContext
from .vi import VariationalState

PERCENTILES = (5, 25, 50, 75, 95)
# Draws in a row whose covariance may fail to factor before sample_ppt gives up.
MAX_RETRIES = 10


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

    def bands(self):
        """Percentile bands {p05, p25, p50, p75, p95} of the noisy samples, each (N_days, R)."""
        values = np.percentile(self.samples, PERCENTILES, axis=0)
        return {f"p{p:02d}": values[i] for i, p in enumerate(PERCENTILES)}

    def samples_for(self, observations, start=0):
        """The noisy samples (J, n, R) on the n rows that observations (n, R) cover from row `start`.

        Observations that run past the last row, or whose region count differs, are refused.
        """
        shape = np.shape(observations)
        n_days, n_regions = self.samples.shape[1:]
        if len(shape) != 2 or shape[1] != n_regions:
            raise ValueError(f"observations of shape {shape} do not have the ensemble's {n_regions} region(s)")
        if start < 0 or start + shape[0] > n_days:
            raise ValueError(f"{shape[0]} observed day(s) from row {start} run past the ensemble's {n_days} rows")
        return self.samples[:, start : start + shape[0]]


def _draw_unconstrained(source, rng):
    """One unconstrained posterior sample from a variational state or an MCMC chain."""
    if isinstance(source, VariationalState):
        return source.mu + source.sigma * rng.standard_normal(source.dim)
    if isinstance(source, ChainState):
        return source.samples[rng.integers(0, source.samples.shape[0])]
    raise TypeError(f"cannot draw posterior samples from {type(source).__name__}")


def sample_ppt(source, ctx: ModelContext, day_grid, n_samples=100, seed=0):
    """Posterior predictive test ensemble over day_grid.

    Each draw maps a posterior sample to constrained parameters, computes
    the daily predictions, and adds day-wise noise correlated across
    regions through the fitted covariance.  Draws whose covariance fails
    to factor are resampled, up to MAX_RETRIES in a row.
    """
    if n_samples < 2:
        raise ValueError("at least 2 ensemble members required")
    rng = np.random.default_rng(seed)
    # Checked before the draws, so the retries below only ever see numerical failures.
    day_grid = _checked_day_grid(day_grid)
    tf = ctx.transforms
    samples = np.empty((n_samples, day_grid.size, ctx.n_regions))
    pushforward = np.empty_like(samples)
    j = 0
    retries = 0
    while j < n_samples:
        xhat = _draw_unconstrained(source, rng)
        try:
            theta = ParamVector(values=tf.forward(xhat), n_regions=ctx.n_regions)
            y = ctx.predictions(theta, day_grid=day_grid)
            noise = correlated_noise(ctx.graph, theta.noise, y, rng)
        except (ValueError, np.linalg.LinAlgError):
            retries += 1
            if retries > MAX_RETRIES:
                raise np.linalg.LinAlgError(f"covariance factorization failed {retries} times in a row")
            continue
        retries = 0
        pushforward[j] = y
        samples[j] = y + noise
        j += 1
    return ForecastEnsemble(samples=samples, pushforward=pushforward, day_grid=day_grid)


def _crps_energy(samples, obs):
    """CRPS of the ensemble along axis 0 of `samples` against obs (its other axes).

    Uses the energy form E|X - y| - 0.5 E|X - X'| with X uniform over the
    members, which equals the integrated squared difference between the
    empirical CDF step function and the observation indicator.  Sorting the
    members turns sum_{i<j} (x_j - x_i) into prefix weights 2i - n - 1.
    """
    x = np.sort(samples, axis=0)
    n = x.shape[0]
    i = np.arange(1, n + 1)
    pair_sum = 2.0 * np.tensordot(2 * i - n - 1, x, axes=(0, 0))
    # |x - y| in place: the sorted copy is the only ensemble-sized temporary.
    x -= obs
    term1 = np.mean(np.abs(x, out=x), axis=0)
    return term1 - 0.5 * pair_sum / n**2


def crps_samples(samples, y_obs):
    """Exact CRPS of the empirical CDF of `samples` against a scalar observation."""
    return float(_crps_energy(np.asarray(samples, dtype=float), y_obs))


def crps(ensemble: ForecastEnsemble, observations):
    """Per-day CRPS c[i, r] and per-region means C_r of observations (n, R) against ensemble rows 0 to n - 1."""
    obs = np.asarray(observations, dtype=float)
    c = _crps_energy(ensemble.samples_for(obs), obs)
    return c, c.mean(axis=0)


def crps_ratio_and_fit(C, T):
    """Ratios rho_r = C_r / T_r and the OLS fit of log(rho) on log(T).

    Regions with zero case totals are excluded: their rho is NaN.  Returns
    a dict with rho, slope, intercept and `not_fitted`: None, or why there
    was no fit (fewer than 2 distinct positive totals), in which case slope
    and intercept are None.
    Raises ValueError when no region has a positive total.
    """
    C = np.asarray(C, dtype=float)
    T = np.asarray(T, dtype=float)
    keep = T > 0
    if not keep.any():
        raise ValueError("no region has a positive case total to score against")
    rho = np.full(C.shape, np.nan)
    rho[keep] = C[keep] / T[keep]
    logT = np.log(T[keep])
    if np.ptp(logT) > 0:
        slope, intercept = map(float, np.polyfit(logT, np.log(rho[keep]), 1))
        not_fitted = None
    else:
        slope = intercept = None
        not_fitted = f"fewer than 2 distinct case totals among the {int(keep.sum())} region(s) with cases"
    return {
        "rho": rho,
        "slope": slope,
        "intercept": intercept,
        "not_fitted": not_fitted,
    }
