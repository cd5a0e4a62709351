"""Adjacency structure and metadata for the areal units being modeled."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class RegionGraph:
    """Symmetric 0/1 adjacency over an ordered list of regions.

    Metadata (name, centroid, population) rides along for reporting and
    clustering; it never enters the likelihood.
    """

    region_ids: tuple
    W: np.ndarray
    names: tuple = ()
    centroids: np.ndarray = field(default_factory=lambda: np.zeros((0, 2)))
    populations: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        W = np.asarray(self.W, dtype=float)
        R = len(self.region_ids)
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
        if not self.names:
            object.__setattr__(self, "names", tuple(self.region_ids))

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
        idx = np.array([self.index_of(r) for r in region_ids])
        return RegionGraph(
            region_ids=tuple(region_ids),
            W=self.W[np.ix_(idx, idx)],
            names=tuple(self.names[i] for i in idx),
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


def load_region_graph(regions_csv, edges_csv):
    """Build a RegionGraph from regions.csv and edges.csv.

    regions.csv columns: region_id, name, lat, lon, population.
    edges.csv columns: region_a, region_b (one undirected edge per row).
    """
    ids, names, cents, pops = [], [], [], []
    with open(regions_csv, newline="") as fh:
        for row in csv.DictReader(fh):
            ids.append(row["region_id"])
            names.append(row["name"])
            cents.append((float(row["lat"]), float(row["lon"])))
            pops.append(float(row["population"]))
    index = {rid: i for i, rid in enumerate(ids)}
    W = np.zeros((len(ids), len(ids)))
    with open(edges_csv, newline="") as fh:
        for row in csv.DictReader(fh):
            a, b = row["region_a"], row["region_b"]
            if a not in index or b not in index:
                raise ValueError(f"edge references unknown region: {a!r}-{b!r}")
            W[index[a], index[b]] = W[index[b], index[a]] = 1.0
    return RegionGraph(
        region_ids=tuple(ids),
        W=W,
        names=tuple(names),
        centroids=np.array(cents),
        populations=np.array(pops),
    )
