"""Run configuration: one JSON document drives the whole pipeline."""

from __future__ import annotations

import datetime as dt
import hashlib
import json
from dataclasses import asdict, dataclass, replace

from .mcmc import AmcmcConfig
from .model import (DEFAULT_INCUBATION_MU, DEFAULT_INCUBATION_SIGMA, DEFAULT_QUAD_NODES, IncubationParams,
                    QuadratureRule)
from .params import PriorSpec
from .vi import OptimizerConfig


# The RunConfig fields that make up its OptimizerConfig.
OPTIMIZER_FIELDS = ("step_size", "max_iters", "n_samples", "seed")

# The settings objects a RunConfig builds at load: attribute, owner and the
# config key that feeds each of the owner's fields.  The owners check their
# own values; RunConfig names the keys when they refuse.
_PARTS = (
    ("incubation", IncubationParams, {"mu": "incubation_mu", "sigma": "incubation_sigma"}),
    ("quadrature", QuadratureRule.gauss_legendre, {"n": "quad_nodes"}),
    ("prior", PriorSpec, {"t0_mean": "prior_t0_mean", "t0_sd": "prior_t0_sd"}),
    ("optimizer", OptimizerConfig, {name: name for name in OPTIMIZER_FIELDS}),
    ("amcmc", AmcmcConfig, {"n_total": "mcmc_draws", "seed": "seed"}),
)


# The JSON type each kind of config key takes, as refusals name it.
_JSON_TYPES = {str: "a string", int: "an integer", float: "a number", tuple: "a list of strings"}


@dataclass(frozen=True)
class RunConfig:
    """The pipeline's settings; `fit_start_date`, `fit_end_date`, `incubation`, `quadrature`, `prior`,
    `optimizer` and `amcmc` are built from them at load."""

    # Inputs
    cases_csv: str = "cases.csv"
    regions_csv: str = "regions.csv"
    edges_csv: str = "edges.csv"
    # Time axis: day 0 is fit_start
    fit_start: str = "2020-06-01"
    fit_end: str = "2020-09-15"
    forecast_days: int = 14
    # Preprocessing
    smoothing_window: int = 7
    # Model
    quad_nodes: int = DEFAULT_QUAD_NODES
    incubation_mu: float = DEFAULT_INCUBATION_MU
    incubation_sigma: float = DEFAULT_INCUBATION_SIGMA
    prior_t0_mean: float = PriorSpec.t0_mean
    prior_t0_sd: float = PriorSpec.t0_sd
    # Optimizer
    step_size: float = OptimizerConfig.step_size
    max_iters: int = OptimizerConfig.max_iters
    n_samples: int = OptimizerConfig.n_samples
    seed: int = OptimizerConfig.seed
    # Prediction / surveillance
    ppt_samples: int = 100
    n_smooth: int = 14
    mcmc_draws: int = 20000
    cluster_cut: float = 0.6
    # Region subset (empty = all)
    regions: tuple = ()

    def __post_init__(self):
        for key in ("fit_start", "fit_end"):
            try:
                object.__setattr__(self, f"{key}_date", dt.date.fromisoformat(getattr(self, key)))
            except ValueError as exc:
                raise ValueError(f"config key {key} must be a YYYY-MM-DD date, got {getattr(self, key)!r} "
                                 f"({exc})") from None
        if self.fit_start_date >= self.fit_end_date:
            raise ValueError("fit_start must precede fit_end")
        if self.smoothing_window < 1 or self.smoothing_window % 2 == 0:
            raise ValueError(f"smoothing_window must be an odd number >= 1, got {self.smoothing_window}")
        if self.n_smooth < 1:
            raise ValueError(f"n_smooth must be >= 1, got {self.n_smooth}")
        if self.forecast_days < 1:
            raise ValueError(f"forecast_days must be >= 1, got {self.forecast_days}")
        if self.ppt_samples < 2:
            raise ValueError(f"ppt_samples must be >= 2, got {self.ppt_samples}")
        if not 0 < self.cluster_cut <= 1:
            raise ValueError(f"cluster_cut must lie in (0, 1], got {self.cluster_cut}")
        for name, owner, keys in _PARTS:
            try:
                part = owner(**{arg: getattr(self, key) for arg, key in keys.items()})
            except ValueError as exc:
                raise ValueError(f"{exc} (config keys: {', '.join(keys.values())})") from None
            object.__setattr__(self, name, part)

    @property
    def reference(self) -> dt.date:
        """The date of day 0: the fit start."""
        return self.fit_start_date

    def to_json(self, fields=None):
        """The config as JSON; `fields` keeps only those keys."""
        doc = asdict(self)
        doc["regions"] = list(self.regions)
        if fields is not None:
            doc = {name: doc[name] for name in fields}
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        doc = json.loads(text)
        fields = cls.__dataclass_fields__
        unknown = set(doc) - set(fields)
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
        for key, value in doc.items():
            # Each key takes its default's JSON type: a float key also takes an int, and no key a bool.
            kind = type(fields[key].default)
            if kind is tuple:
                ok = isinstance(value, list) and all(isinstance(v, str) for v in value)
            else:
                ok = isinstance(value, (int, float) if kind is float else kind) and not isinstance(value, bool)
            if not ok:
                raise ValueError(f"config key {key} must be {_JSON_TYPES[kind]}, got {json.dumps(value)}")
        if "regions" in doc:
            doc["regions"] = tuple(doc["regions"])
        return cls(**doc)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_json(fh.read())

    def with_overrides(self, **kwargs):
        return replace(self, **kwargs)


# The fields a fit depends on: the time axis, smoothing, the model and prior,
# the optimizer (seed included) and the region subset.  Forecast,
# surveillance and scoring knobs are not among them, so editing those keeps fit.json.
FIT_FIELDS = (
    "fit_start", "fit_end",
    "smoothing_window",
    "quad_nodes", "incubation_mu", "incubation_sigma", "prior_t0_mean", "prior_t0_sd",
    *OPTIMIZER_FIELDS,
    "regions",
)


# The fields the posterior-predictive ensemble reads beyond the fit: its length and size.
# Its key binds these and fit.json's bytes, which bind the rest, the draw seed among them.
ENSEMBLE_FIELDS = ("forecast_days", "ppt_samples")


def content_hash(config: RunConfig, *inputs: bytes, fields=None) -> str:
    """Hash binding an artifact to its configuration (or those `fields` of it) and the bytes of its inputs."""
    h = hashlib.sha256()
    h.update(config.to_json(fields).encode())
    for data in inputs:
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)
    return h.hexdigest()
