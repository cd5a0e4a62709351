"""Run configuration: one JSON document drives the whole pipeline."""

from __future__ import annotations

import datetime as dt
import hashlib
import json
from dataclasses import asdict, dataclass, replace

from .model import DEFAULT_INCUBATION_MU, DEFAULT_INCUBATION_SIGMA, DEFAULT_QUAD_NODES, IncubationParams
from .transforms import PriorSpec
from .vi import OptimizerConfig


@dataclass(frozen=True)
class RunConfig:
    # Inputs
    cases_csv: str = "cases.csv"
    regions_csv: str = "regions.csv"
    edges_csv: str = "edges.csv"
    # Time axis
    reference_date: str = "2020-06-01"
    fit_start: str = "2020-06-01"
    fit_end: str = "2020-09-15"
    forecast_days: int = 14
    # Preprocessing
    smoothing_window: int = 7
    # Model
    quad_nodes: int = DEFAULT_QUAD_NODES
    incubation_mu: float = DEFAULT_INCUBATION_MU
    incubation_sigma: float = DEFAULT_INCUBATION_SIGMA
    prior_t0_mean: float = -10.0
    prior_t0_sd: float = 30.0
    # Optimizer
    step_size: float = 1e-2
    beta1: float = 0.9
    beta2: float = 0.999
    eps_adam: float = 1e-8
    max_iters: int = 5000
    n_samples: int = 200
    grad_tol: float = 0.0
    seed: int = 0
    # Prediction / surveillance
    ppt_samples: int = 100
    n_smooth: int = 14
    mcmc_draws: int = 20000
    # Mode flags
    include_jacobian_entropy: bool = True
    crps_on_raw: bool = False
    detect_on_raw: bool = False
    cluster_linkage: str = "complete"
    cluster_cut: float = 0.6
    cluster_cut_mode: str = "fraction"
    # Region subset (empty = all)
    regions: tuple = ()

    def __post_init__(self):
        if self.fit_start_date >= self.fit_end_date:
            raise ValueError("fit_start must precede fit_end")

    @property
    def reference(self) -> dt.date:
        return dt.date.fromisoformat(self.reference_date)

    @property
    def fit_start_date(self) -> dt.date:
        return dt.date.fromisoformat(self.fit_start)

    @property
    def fit_end_date(self) -> dt.date:
        return dt.date.fromisoformat(self.fit_end)

    @property
    def incubation(self) -> IncubationParams:
        return IncubationParams(mu=self.incubation_mu, sigma=self.incubation_sigma)

    @property
    def prior(self) -> PriorSpec:
        return PriorSpec(t0_mean=self.prior_t0_mean, t0_sd=self.prior_t0_sd)

    @property
    def optimizer(self) -> OptimizerConfig:
        return OptimizerConfig(
            step_size=self.step_size,
            beta1=self.beta1,
            beta2=self.beta2,
            eps_adam=self.eps_adam,
            max_iters=self.max_iters,
            n_samples=self.n_samples,
            grad_tol=self.grad_tol,
            seed=self.seed,
        )

    def to_json(self):
        doc = asdict(self)
        doc["regions"] = list(self.regions)
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        doc = json.loads(text)
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
        if "regions" in doc:
            doc["regions"] = tuple(doc["regions"])
        return cls(**doc)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_json(fh.read())

    def with_overrides(self, **kwargs):
        return replace(self, **kwargs)


def content_hash(config: RunConfig, *inputs: bytes) -> str:
    """Hash binding an artifact to its configuration and the bytes of its inputs."""
    h = hashlib.sha256()
    h.update(config.to_json().encode())
    for data in inputs:
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)
    return h.hexdigest()
