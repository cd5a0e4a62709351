"""Case-count ingestion, smoothing and synthetic data generation."""

from __future__ import annotations

import csv
import datetime as dt
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .graph import RegionGraph, _csv_rows, _not_a_number
from .likelihood import correlated_noise
from .model import DEFAULT_QUAD_NODES, IncubationParams, QuadratureRule
from .params import ParamVector
from .posterior import predict_regions


@dataclass(frozen=True)
class CaseData:
    """Daily case counts on a contiguous date axis, columns in graph order."""

    dates: tuple  # of datetime.date
    counts: np.ndarray  # (N_d, R)
    region_ids: tuple

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=float)
        dates = tuple(self.dates)
        if counts.shape != (len(dates), len(self.region_ids)):
            raise ValueError("counts must be (len(dates), len(region_ids))")
        if np.any(counts < 0):
            raise ValueError("counts must be nonnegative")
        for a, b in zip(dates, dates[1:]):
            if (b - a).days != 1:
                raise ValueError(f"date axis must be contiguous daily; gap at {a} -> {b}")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "dates", dates)
        object.__setattr__(self, "region_ids", tuple(self.region_ids))

    @property
    def n_days(self):
        return len(self.dates)

    def day_offsets(self, day0):
        """Integer day offsets of the date axis from the date day0."""
        return np.array([(d - day0).days for d in self.dates], dtype=float)

    def window(self, start, end):
        """Rows with start <= date <= end."""
        idx = [i for i, d in enumerate(self.dates) if start <= d <= end]
        if not idx:
            raise ValueError(f"no dates in [{start}, {end}]")
        return CaseData(
            dates=tuple(self.dates[i] for i in idx),
            counts=self.counts[idx],
            region_ids=self.region_ids,
        )


def ingest_cases(path, graph: RegionGraph):
    """Read a date,region_id,count CSV into graph region order.

    Missing (date, region) cells are filled with zero (a warning reports
    how many); duplicates, unknown regions and negative or non-finite
    counts are errors.  Counts must be daily new cases, not cumulative.
    """
    region_index = {rid: r for r, rid in enumerate(graph.region_ids)}
    codes, parsed = {}, []  # each distinct date text's code, and its date by code
    row_dates, row_regions, row_counts = [], [], []
    unknown = set()
    for line, (date_text, rid, count_text) in _csv_rows(path, ("date", "region_id", "count")):
        code = codes.get(date_text)
        if code is None:
            try:
                parsed.append(dt.date.fromisoformat(date_text))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"bad date {date_text!r} ({exc}; line {line} of {path})") from None
            code = codes[date_text] = len(parsed) - 1
        try:
            count = float(count_text)
        except (TypeError, ValueError):
            raise _not_a_number("count", count_text, f"for {rid} on {parsed[code]}", line, path) from None
        if not 0.0 <= count < math.inf:
            problem = "negative count" if math.isfinite(count) else f"non-finite count {count_text!r}"
            raise ValueError(f"{problem} for {rid} on {parsed[code]} (line {line} of {path})")
        r = region_index.get(rid)
        if r is None:
            unknown.add(rid)
        row_dates.append(code)
        row_regions.append(r)
        row_counts.append(count)
    if unknown:
        raise ValueError(f"unknown region ids in {path}: {', '.join(sorted(unknown))}")
    if not row_counts:
        raise ValueError(f"no case rows in {path}")

    first = min(parsed)
    dates = tuple(first + dt.timedelta(days=i) for i in range((max(parsed) - first).days + 1))
    days = np.array([(date - first).days for date in parsed])[row_dates]
    cells = days * graph.n_regions + np.array(row_regions)  # the flat (day, region) index of each row
    first_rows = np.unique(cells, return_index=True)[1]
    if first_rows.size < cells.size:
        repeated = np.ones(cells.size, dtype=bool)
        repeated[first_rows] = False
        i = int(np.argmax(repeated))  # the first row whose cell an earlier row filled
        raise ValueError(f"duplicate row for ({dates[days[i]]}, {graph.region_ids[row_regions[i]]})")
    counts = np.full((len(dates), graph.n_regions), np.nan)
    counts.reshape(-1)[cells] = row_counts
    n_missing = int(np.isnan(counts).sum())
    if n_missing:
        warnings.warn(f"{n_missing} missing (date, region) cell(s) filled with 0", stacklevel=2)
        counts = np.nan_to_num(counts, nan=0.0)
    return CaseData(dates=dates, counts=counts, region_ids=graph.region_ids)


def smooth(data: CaseData, window):
    """smooth_counts() over the date axis of a CaseData."""
    if window % 2 == 0:
        raise ValueError("smoothing window must be odd")
    if window > data.n_days:
        raise ValueError(f"window {window} exceeds series length {data.n_days}")
    return CaseData(dates=data.dates, counts=smooth_counts(data.counts, window), region_ids=data.region_ids)


def smooth_counts(counts, window):
    """Centered moving average along axis 0; truncated window mean at the edges."""
    counts = np.atleast_2d(np.asarray(counts, dtype=float))
    half = window // 2
    out = np.empty_like(counts)
    for i in range(counts.shape[0]):
        lo, hi = max(0, i - half), min(counts.shape[0], i + half + 1)
        out[i] = counts[lo:hi].mean(axis=0)
    return out


def synthetic_counts(truth: ParamVector, graph: RegionGraph, inc: IncubationParams, day_grid, seed=0,
                     quad_nodes=DEFAULT_QUAD_NODES):
    """Noisy synthetic observations y = prediction + correlated noise, floored at 0.

    Returns (observations, noise-free predictions), both (N_d, R).
    """
    y = predict_regions(truth, inc, day_grid, QuadratureRule.gauss_legendre(quad_nodes))
    eta = truth.noise
    if eta.tau_phi == 0 and eta.sigma_a == 0 and eta.sigma_m == 0:
        return y.copy(), y
    return np.maximum(y + correlated_noise(graph, eta, y, np.random.default_rng(seed)), 0.0), y


def write_cases_csv(data: CaseData, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "region_id", "count"])
        for i, date in enumerate(data.dates):
            for r, rid in enumerate(data.region_ids):
                writer.writerow([date.isoformat(), rid, f"{data.counts[i, r]:.9g}"])
