import os

import numpy as np
import pytest

import epifield.helpers
from epifield import (
    IncubationParams,
    ModelContext,
    NoiseParams,
    ParamVector,
    PriorSpec,
    RegionParams,
    path_graph,
    synthetic_counts,
)


def random_region(rng, day_start=0.0):
    return RegionParams(
        t0=day_start - rng.uniform(3.0, 15.0),
        N=rng.uniform(200.0, 2000.0),
        k=rng.uniform(2.1, 6.0),
        theta=rng.uniform(3.0, 15.0),
    )


def random_noise(rng):
    return NoiseParams(
        tau_phi=rng.uniform(0.5, 3.0),
        lambda_phi=rng.uniform(0.1, 0.9),
        sigma_a=rng.uniform(0.5, 2.0),
        sigma_m=rng.uniform(0.05, 0.3),
    )


def random_paramvector(rng, n_regions, day_start=0.0):
    return ParamVector.from_parts(
        [random_region(rng, day_start) for _ in range(n_regions)], random_noise(rng)
    )


def make_context(n_regions=3, n_days=40, seed=0, truth=None):
    """Synthetic fit context with observations drawn from the model itself."""
    rng = np.random.default_rng(seed)
    graph = path_graph(tuple(f"r{i}" for i in range(n_regions)))
    day_grid = np.arange(1.0, n_days + 1.0)
    if truth is None:
        truth = random_paramvector(rng, n_regions, day_start=day_grid[0])
    obs, _ = synthetic_counts(truth, graph, IncubationParams(), day_grid, seed=seed)
    ctx = ModelContext(
        graph=graph,
        day_grid=day_grid,
        y_obs=obs,
        incubation=IncubationParams(),
        prior=PriorSpec(),
    )
    return ctx, truth


@pytest.fixture
def cpus(monkeypatch):
    """cpus(n) makes n CPUs usable: os.sched_getaffinity reports n, and no cgroup CPU quota is found."""

    def usable(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
        monkeypatch.setattr(epifield.helpers, "PROC_CGROUP", os.devnull)

    return usable


@pytest.fixture
def ctx3():
    return make_context(n_regions=3, n_days=40, seed=11)[0]


# The acceptance criteria that run long fits: most of the suite's wall time.
SLOW_TESTS = {
    "test_criterion_4_synthetic_recovery",
    "test_criterion_5_mfvi_vs_amcmc",
    "test_criterion_7_detection_performance",
}


def pytest_collection_modifyitems(config, items):
    """Mark SLOW_TESTS `slow`, so that `pytest -m "not slow"` is a quick edit-test loop."""
    for item in items:
        if item.name in SLOW_TESTS:
            item.add_marker(pytest.mark.slow)
