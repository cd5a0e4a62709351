"""Adaptive-Metropolis sampler over the unconstrained posterior.

Serves as a small-instance ground truth against which the mean-field
approximation is measured.  The proposal covariance follows the classic
Haario adaptation: after a warm-up it is (2.38^2 / d) times the running
empirical covariance of the chain, plus a small ridge.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

# Draws kept: every THIN-th after the first half of the chain (the burn-in).
THIN = 10
# The proposal adapts from this draw on; before it, it is isotropic with sd INITIAL_SCALE.
ADAPT_START = 500
INITIAL_SCALE = 0.1
# Added to the adapted proposal covariance's diagonal so it stays positive definite.
RIDGE = 1e-8


@dataclass(frozen=True)
class AmcmcConfig:
    n_total: int = 20000
    seed: int = 0

    def __post_init__(self):
        kept = (self.n_total - self.effective_burn_in) // THIN
        if kept < 2:
            raise ValueError(f"{self.n_total} draws with burn-in {self.effective_burn_in} and thin {THIN} "
                             f"keep {max(kept, 0)}; at least 2 are needed")

    @property
    def effective_burn_in(self):
        return self.n_total // 2


@dataclass(frozen=True)
class ChainState:
    samples: np.ndarray  # n_kept x d, unconstrained
    log_posts: np.ndarray
    acceptance_rate: float


def run_amcmc(target, x0, config: AmcmcConfig | None = None):
    """Sample target.logpost starting at unconstrained x0.

    The first half of the n_total draws is burn-in; of the rest every
    THIN-th (10th) draw is kept.  The proposal is isotropic with sd
    INITIAL_SCALE until draw ADAPT_START (500), and adapts from there on.
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
    cov = INITIAL_SCALE**2 * np.eye(d)
    chol = np.linalg.cholesky(cov)

    n_burn = config.effective_burn_in
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
        if t >= ADAPT_START:
            cov = sd * cov_accum / (t - 1) + RIDGE * np.eye(d)
            chol = np.linalg.cholesky(cov)

        if t > n_burn and (t - n_burn) % THIN == 0:
            kept.append(x.copy())
            kept_lp.append(lp)

    return ChainState(
        samples=np.array(kept),
        log_posts=np.array(kept_lp),
        acceptance_rate=n_accept / config.n_total,
    )
