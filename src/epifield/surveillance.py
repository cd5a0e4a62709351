"""Outbreak detection: outlier boundary alarms, exceedance maps, clustering."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.cluster import hierarchy

from .forecast import ForecastEnsemble

ALARM_RUN_LENGTH = 3
BOUNDARY_PERCENTILE = 99.0


@dataclass(frozen=True)
class DetectionResult:
    """Outliers and alarms per region over the forecast window.

    An alarm fires on the day a run of consecutive outliers reaches length
    three; one alarm per run, dated at its third outlier day.
    """

    outliers: np.ndarray  # boolean (N_days, R)
    alarms: tuple  # of (region_index, day_index, run_length)


@dataclass(frozen=True)
class ExceedanceMap:
    mean_exceedance: np.ndarray  # (R,)
    excluded_days: np.ndarray  # (R,) count of days dropped from the mean
    days: np.ndarray  # (R,) count of days averaged


def detect(ensemble: ForecastEnsemble, observations, forecast_start=0):
    """Flag observed days above the 99th-percentile forecast boundary.

    `observations` are the first observed forecast days, compared with rows
    forecast_start, forecast_start + 1, ... of the ensemble's day axis.
    """
    obs = np.asarray(observations, dtype=float)
    outliers = obs > np.percentile(ensemble.samples_for(obs, forecast_start), BOUNDARY_PERCENTILE, axis=0)
    # +1 marks a run's first day, -1 the day after its last; nonzero() lists
    # both region by region in day order, so the k-th start and end pair up.
    padded = np.zeros((obs.shape[0] + 2, obs.shape[1]), dtype=np.int8)
    padded[1:-1] = outliers
    edges = np.diff(padded, axis=0).T
    regions, starts = np.nonzero(edges == 1)
    lengths = np.nonzero(edges == -1)[1] - starts
    alarms = tuple(
        (int(r), int(i) + ALARM_RUN_LENGTH - 1, int(n))
        for r, i, n in zip(regions, starts, lengths)
        if n >= ALARM_RUN_LENGTH
    )
    return DetectionResult(outliers=outliers, alarms=alarms)


def exceedance(ensemble: ForecastEnsemble, observations, forecast_start=0, *, n_smooth):
    """Per region, the mean of the exceedance ratio observed / boundary over
    the first n_smooth observed days, or all of them when fewer were observed.

    The observed days line up with the ensemble rows as in `detect`.  Days
    with a nonpositive boundary (possible when negative noise percentiles
    meet near-zero predictions) are excluded from the mean and counted per
    region.
    """
    obs = np.asarray(observations, dtype=float)[:n_smooth]
    boundary = np.percentile(ensemble.samples_for(obs, forecast_start), BOUNDARY_PERCENTILE, axis=0)
    usable = boundary > 0
    gamma = np.where(usable, obs / np.where(usable, boundary, 1.0), np.nan)
    counts = usable.sum(axis=0)
    mean = np.where(counts > 0, np.nansum(gamma, axis=0) / np.maximum(counts, 1), np.nan)
    return ExceedanceMap(mean_exceedance=mean, excluded_days=(~usable).sum(axis=0), days=counts)


def zscore_features(features):
    """Column-wise Z-scores; zero-variance columns are dropped with a warning."""
    X = np.asarray(features, dtype=float)
    mean = X.mean(axis=0)
    sd = X.std(axis=0)
    keep = sd > 0
    if not keep.all():
        warnings.warn(f"dropping {int((~keep).sum())} zero-variance feature column(s)", stacklevel=2)
    return (X[:, keep] - mean[keep]) / sd[keep]


def cluster_regions(features, cut):
    """Complete-linkage clustering of Z-scored region features.

    The tree is cut at cut * (maximum merge height).  Returns (labels,
    merges) where merges rows are (left, right, height, size).
    """
    X = np.asarray(features, dtype=float)
    if X.shape[0] < 2:
        raise ValueError("clustering needs at least 2 regions")
    scored = zscore_features(X)
    if scored.shape[1] == 0:
        # All features identical: every merge happens at height zero.
        scored = np.zeros((X.shape[0], 1))
    Z = hierarchy.linkage(scored, method="complete", metric="euclidean")
    labels = hierarchy.fcluster(Z, t=cut * Z[:, 2].max(), criterion="distance")
    return labels, Z
