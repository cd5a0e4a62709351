"""Adjacency structure and metadata for the areal units being modeled."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np


@dataclass(frozen=True)
class RegionGraph:
    """Symmetric 0/1 adjacency over an ordered list of regions.

    Metadata (centroid, population) rides along for simulation and
    clustering; it never enters the likelihood.
    """

    region_ids: tuple
    W: np.ndarray
    centroids: np.ndarray = field(default_factory=lambda: np.zeros((0, 2)))
    populations: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        W = np.asarray(self.W, dtype=float)
        R = len(self.region_ids)
        if len(set(self.region_ids)) != R:
            duplicates = sorted({str(r) for r in self.region_ids if self.region_ids.count(r) > 1})
            raise ValueError(f"duplicate region ids: {', '.join(duplicates)}")
        if W.shape != (R, R):
            raise ValueError(f"adjacency must be {R}x{R}, got {W.shape}")
        if not np.array_equal(W, W.T):
            raise ValueError("adjacency must be symmetric")
        if np.any(np.diag(W) != 0):
            raise ValueError("adjacency diagonal must be zero")
        if not np.isin(W, (0.0, 1.0)).all():
            raise ValueError("adjacency entries must be 0 or 1")
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "region_ids", tuple(self.region_ids))

    @property
    def n_regions(self):
        return len(self.region_ids)

    @property
    def degrees(self):
        return self.W.sum(axis=1)

    def index_of(self, region_id):
        return self.region_ids.index(region_id)

    def subgraph(self, region_ids):
        """Induced subgraph preserving the requested ordering."""
        unknown = [str(r) for r in region_ids if r not in self.region_ids]
        if unknown:
            raise ValueError(f"unknown region ids: {', '.join(unknown)}")
        idx = np.array([self.index_of(r) for r in region_ids])
        return RegionGraph(
            region_ids=tuple(region_ids),
            W=self.W[np.ix_(idx, idx)],
            centroids=self.centroids[idx] if self.centroids.size else self.centroids,
            populations=self.populations[idx] if self.populations.size else self.populations,
        )


def path_graph(region_ids):
    """Chain adjacency, mostly for tests and small synthetic studies."""
    R = len(region_ids)
    W = np.zeros((R, R))
    for i in range(R - 1):
        W[i, i + 1] = W[i + 1, i] = 1.0
    return RegionGraph(region_ids=tuple(region_ids), W=W)


def _csv_rows(path, columns):
    """(line number, cells) for each nonblank row of the CSV at path, whose header must name every one of columns.

    cells holds the row's values of columns, in order; a short row reads None past its end.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [name for name in columns if name not in header]
        if missing:
            raise ValueError(f"{path} has no {', '.join(missing)} column (it needs {', '.join(columns)})")
        position = {name: i for i, name in enumerate(header)}  # the last of a repeated name, as csv.DictReader
        pick = itemgetter(*(position[name] for name in columns))
        width = max(position[name] for name in columns) + 1
        for row in reader:
            if row:
                if len(row) < width:
                    row += [None] * (width - len(row))
                yield reader.line_num, pick(row)


def _not_a_number(name, text, whose, line, path):
    return ValueError(f"{name} {text!r} {whose} is not a number (line {line} of {path})")


def _number(text, name, whose, line, path):
    """float(text); else the ValueError of `_not_a_number`."""
    try:
        return float(text)
    except (TypeError, ValueError):
        raise _not_a_number(name, text, whose, line, path) from None


def load_region_graph(regions_csv, edges_csv):
    """Build a RegionGraph from regions.csv and edges.csv.

    regions.csv columns: region_id, lat, lon, population; others (such as name) are ignored.
    edges.csv columns: region_a, region_b (one undirected edge per row).
    """
    ids, cents, pops = [], [], []
    for line, (rid, lat, lon, pop) in _csv_rows(regions_csv, ("region_id", "lat", "lon", "population")):
        whose = f"of region {rid!r}"
        ids.append(rid)
        cents.append((_number(lat, "lat", whose, line, regions_csv), _number(lon, "lon", whose, line, regions_csv)))
        pops.append(_number(pop, "population", whose, line, regions_csv))
    index = {rid: i for i, rid in enumerate(ids)}
    W = np.zeros((len(ids), len(ids)))
    for line, (a, b) in _csv_rows(edges_csv, ("region_a", "region_b")):
        if a not in index or b not in index:
            raise ValueError(f"edge references unknown region: {a!r}-{b!r} (line {line} of {edges_csv})")
        if a == b:
            raise ValueError(f"edge joins region {a!r} to itself (line {line} of {edges_csv})")
        W[index[a], index[b]] = W[index[b], index[a]] = 1.0
    return RegionGraph(
        region_ids=tuple(ids),
        W=W,
        centroids=np.array(cents),
        populations=np.array(pops),
    )
