"""Latent infection-rate field estimation from noisy daily case counts.

Fits per-region gamma infection pulses convolved with a lognormal
incubation delay to observed daily counts under spatially correlated
Gaussian noise, using mean-field variational inference with analytic
reparametrization gradients.  Downstream tools cover posterior-predictive
forecasting, CRPS scoring, outlier-boundary outbreak detection,
exceedance mapping and hierarchical region clustering.
"""

from .config import RunConfig, content_hash
from .data import CaseData, generate_synthetic, ingest_cases, smooth, synthetic_counts
from .forecast import (
    ForecastEnsemble,
    crps,
    crps_ratio_and_fit,
    crps_samples,
    sample_ppt,
)
from .graph import RegionGraph, load_region_graph, path_graph
from .likelihood import NoiseParams, build_precision, log_likelihood, log_likelihood_and_grad
from .mcmc import AmcmcConfig, ChainState, compare_posteriors, run_amcmc
from .model import (
    IncubationParams,
    QuadratureRule,
    RegionParams,
    incubation_cdf,
    infection_rate,
    predict_daily,
    predict_daily_grad,
)
from .params import ParamVector, dim_for, param_names
from .posterior import ModelContext, log_posterior, log_posterior_and_grad
from .surveillance import (
    DetectionResult,
    ExceedanceMap,
    cluster_regions,
    detect,
    exceedance,
    zscore_features,
)
from .transforms import PriorSpec, TransformSpec
from .vi import (
    DivergenceError,
    OptimizerConfig,
    VariationalState,
    elbo_estimate,
    elbo_grad_reparam,
    elbo_grad_score,
    fit_mfvi,
    mle_fit,
)

__version__ = "0.1.0"

__all__ = [
    "AmcmcConfig",
    "CaseData",
    "ChainState",
    "DetectionResult",
    "DivergenceError",
    "ExceedanceMap",
    "ForecastEnsemble",
    "IncubationParams",
    "ModelContext",
    "NoiseParams",
    "OptimizerConfig",
    "ParamVector",
    "PriorSpec",
    "QuadratureRule",
    "RegionGraph",
    "RegionParams",
    "RunConfig",
    "TransformSpec",
    "VariationalState",
    "build_precision",
    "cluster_regions",
    "compare_posteriors",
    "content_hash",
    "crps",
    "crps_ratio_and_fit",
    "crps_samples",
    "detect",
    "dim_for",
    "elbo_estimate",
    "elbo_grad_reparam",
    "elbo_grad_score",
    "exceedance",
    "fit_mfvi",
    "generate_synthetic",
    "incubation_cdf",
    "infection_rate",
    "ingest_cases",
    "load_region_graph",
    "log_likelihood",
    "log_likelihood_and_grad",
    "log_posterior",
    "log_posterior_and_grad",
    "mle_fit",
    "param_names",
    "path_graph",
    "predict_daily",
    "predict_daily_grad",
    "run_amcmc",
    "sample_ppt",
    "smooth",
    "synthetic_counts",
    "zscore_features",
]
