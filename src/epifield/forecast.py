"""Posterior-predictive ensembles, percentile bands and CRPS scoring."""

from __future__ import annotations

import mmap
from dataclasses import dataclass

import numpy as np

from .helpers import Helpers, helper_count
from .likelihood import correlated_noise
from .mcmc import ChainState
from .model import _checked_day_grid
from .params import ParamVector
from .posterior import ModelContext
from .vi import VariationalState

PERCENTILES = (5, 25, 50, 75, 95)
# Times in a row one member may be drawn again; sample_ppt raises at the failure after the last.
MAX_RETRIES = 10
# Names how sample_ppt turns its seed into draws.  The CLI keys stored ensembles with it, so a
# file drawn under another scheme is drawn again: change it whenever the draws change.
DRAW_SCHEME = b"sample_ppt: one SeedSequence(seed).spawn stream per member"


@dataclass(frozen=True)
class ForecastEnsemble:
    """J noisy trajectories per region with matching noise-free push-forwards.

    Noisy samples keep their Gaussian noise unclipped, so they (and the low
    percentile bands) may dip below zero near small predictions.  Every
    value is finite: a non-finite one is refused, so no band, score or
    boundary is computed from one.
    """

    samples: np.ndarray  # (J, N_days, R)
    pushforward: np.ndarray  # (J, N_days, R)
    day_grid: np.ndarray
    resampled: int = 0  # draws that failed and were drawn again

    def __post_init__(self):
        if self.samples.shape != self.pushforward.shape:
            raise ValueError("samples and pushforward shapes must agree")
        if self.samples.shape[1] != np.asarray(self.day_grid).size:
            raise ValueError("day axis mismatch")
        for name in ("samples", "pushforward"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"a non-finite value in the ensemble's {name}")

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


def _draw_member(source, ctx: ModelContext, day_grid, rng):
    """One ensemble member (push-forward, noisy sample) drawn from rng, or None when the draw failed:
    its covariance did not factor, or its predictions or noise are not finite."""
    xhat = _draw_unconstrained(source, rng)
    # An overflow here is caught as a non-finite draw below, not warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            theta = ParamVector(values=ctx.transforms.forward(xhat), n_regions=ctx.n_regions)
            y = ctx.predictions(theta, day_grid=day_grid)
            noise = correlated_noise(ctx.graph, theta.noise, y, rng)
        except (ValueError, np.linalg.LinAlgError):
            return None
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(noise))):
        return None
    return y, y + noise


def sample_ppt(source, ctx: ModelContext, day_grid, n_samples=100, seed=0):
    """Posterior predictive test ensemble over day_grid.

    Each draw maps a posterior sample to constrained parameters, computes
    the daily predictions, and adds day-wise noise correlated across
    regions through the fitted covariance.  Member j is drawn from its own
    generator, seeded by child j of `np.random.SeedSequence(seed).spawn(n_samples)`.
    A draw whose covariance fails to factor, or whose predictions or noise
    are not finite, is drawn again from that member's generator (the
    ensemble's `resampled` counts these); after MAX_RETRIES + 1 failed
    draws in a row for one member it raises LinAlgError.

    The members are split into `helpers.helper_count(n_samples) + 1`
    contiguous blocks: block 0 is drawn here and block b by forked helper
    b.  Since no member's draws depend on another's, the ensemble is
    bit-identical however the members are split, and to drawing every
    member here, as happens with one usable CPU.  Both arrays live in one
    shared anonymous mmap, which the helpers fill in place: only member
    indices and resample counts cross their pipes.
    """
    if n_samples < 2:
        raise ValueError("at least 2 ensemble members required")
    # Checked before the draws, so the retries below only ever see numerical failures.
    day_grid = _checked_day_grid(day_grid)
    shape = (n_samples, day_grid.size, ctx.n_regions)
    # Shared with the helpers forked below, which fill their members in place.
    buffer = mmap.mmap(-1, 2 * int(np.prod(shape)) * np.dtype(float).itemsize)
    pushforward, samples = np.frombuffer(buffer, dtype=float).reshape((2, *shape))
    streams = np.random.SeedSequence(seed).spawn(n_samples)

    def draw_block(members):
        """Draw the given members in place; returns how many of their draws failed and were drawn again."""
        resampled = 0
        for j in members:
            rng = np.random.default_rng(streams[j])
            failed = 0
            while (member := _draw_member(source, ctx, day_grid, rng)) is None:
                failed += 1
                if failed > MAX_RETRIES:
                    raise np.linalg.LinAlgError(f"the covariance failed to factor, or the draw was not finite, "
                                                f"{failed} times in a row")
            resampled += failed
            pushforward[j], samples[j] = member
        return resampled

    with Helpers(draw_block, helper_count(n_samples)) as helpers:
        resampled = sum(helpers.map(range(n_samples)))
    return ForecastEnsemble(samples=samples, pushforward=pushforward, day_grid=day_grid, resampled=resampled)


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
