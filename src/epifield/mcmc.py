"""Adaptive-Metropolis sampler over the unconstrained posterior.

Serves as a small-instance ground truth against which the mean-field
approximation is measured.  The proposal covariance follows the classic
Haario adaptation: after a warm-up it is (2.38^2 / d) times the running
empirical covariance of the chain, plus a small ridge.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .transforms import softplus


@dataclass(frozen=True)
class AmcmcConfig:
    n_total: int = 20000
    burn_in: int | None = None  # default: half of n_total
    thin: int = 10
    adapt_start: int = 500
    scale: float = 0.1  # pre-adaptation isotropic proposal scale
    seed: int = 0
    ridge: float = 1e-8

    def __post_init__(self):
        if self.thin < 1:
            raise ValueError("thin must be at least 1")
        kept = (self.n_total - self.effective_burn_in) // self.thin
        if kept < 2:
            raise ValueError(f"{self.n_total} draws with burn-in {self.effective_burn_in} and thin {self.thin} "
                             f"keep {max(kept, 0)}; at least 2 are needed")

    @property
    def effective_burn_in(self):
        return self.n_total // 2 if self.burn_in is None else self.burn_in


@dataclass(frozen=True)
class ChainState:
    samples: np.ndarray  # n_kept x d, unconstrained
    log_posts: np.ndarray
    acceptance_rate: float
    proposal_cov: np.ndarray

    @property
    def dim(self):
        return self.samples.shape[1]


def run_amcmc(target, x0, config: AmcmcConfig | None = None):
    """Sample target.logpost starting at unconstrained x0.

    Recommended for d <= 16 (about 3 regions); larger problems trigger a
    warning, not an error.
    """
    config = config or AmcmcConfig()
    x = np.array(x0, dtype=float)
    d = x.size
    if d > 16:
        warnings.warn(f"AMCMC over d={d} parameters; adaptation may be slow", stacklevel=2)
    lp = target.logpost(x)
    if not np.isfinite(lp):
        raise ValueError(f"non-finite log-posterior {lp} at the chain start")

    rng = np.random.default_rng(config.seed)
    sd = 2.38**2 / d
    mean = x.copy()
    cov_accum = np.zeros((d, d))
    cov = config.scale**2 * np.eye(d)
    chol = np.linalg.cholesky(cov)

    kept, kept_lp = [], []
    n_accept = 0
    for t in range(1, config.n_total + 1):
        prop = x + chol @ rng.standard_normal(d)
        lp_prop = target.logpost(prop)
        if np.log(rng.uniform()) < lp_prop - lp:
            x, lp = prop, lp_prop
            n_accept += 1

        # Running mean/covariance of the full history (Haario 2001).
        delta = x - mean
        mean += delta / t
        cov_accum += np.outer(delta, x - mean)
        if t >= config.adapt_start:
            cov = sd * cov_accum / (t - 1) + config.ridge * np.eye(d)
            chol = np.linalg.cholesky(cov)

        if t > config.effective_burn_in and (t - config.effective_burn_in) % config.thin == 0:
            kept.append(x.copy())
            kept_lp.append(lp)

    return ChainState(
        samples=np.array(kept),
        log_posts=np.array(kept_lp),
        acceptance_rate=n_accept / config.n_total,
        proposal_cov=cov,
    )


def compare_posteriors(chain: ChainState, vi, names=None):
    """Per-parameter moment comparison of an MCMC chain and a VI state.

    VI marginals come analytically from (mu, sigma) in unconstrained
    space; gaps are reported in units of the MCMC posterior sd.
    """
    mcmc_mean = chain.samples.mean(axis=0)
    mcmc_sd = chain.samples.std(axis=0, ddof=1)
    vi_mean = np.asarray(vi.mu, dtype=float)
    vi_sd = softplus(np.asarray(vi.rho, dtype=float))
    if vi_mean.size != chain.dim:
        raise ValueError("chain and variational state layouts differ")
    if names is None:
        names = [f"x[{i}]" for i in range(chain.dim)]
    rows = []
    for i in range(chain.dim):
        rows.append(
            {
                "parameter": names[i],
                "mcmc_mean": float(mcmc_mean[i]),
                "mcmc_sd": float(mcmc_sd[i]),
                "vi_mean": float(vi_mean[i]),
                "vi_sd": float(vi_sd[i]),
                "mean_gap_in_mcmc_sd": float(abs(vi_mean[i] - mcmc_mean[i]) / mcmc_sd[i]),
            }
        )
    return rows


def write_chain_summary(chain: ChainState, path, names=None):
    """Chain summary CSV: parameter, mean, sd, q05, q50, q95."""
    if names is None:
        names = [f"x[{i}]" for i in range(chain.dim)]
    q05, q50, q95 = np.percentile(chain.samples, [5, 50, 95], axis=0)
    mean = chain.samples.mean(axis=0)
    sd = chain.samples.std(axis=0, ddof=1)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["parameter", "mean", "sd", "q05", "q50", "q95"])
        for i, name in enumerate(names):
            writer.writerow([name, mean[i], sd[i], q05[i], q50[i], q95[i]])
