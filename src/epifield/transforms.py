"""Constraint transforms between model parameters and unconstrained variables.

Every constrained parameter theta_i is written as theta_i = f_i(x_i) with
f_i strictly increasing and differentiable, so the optimizer works on all
of R^d.  Slot kinds: identity (t0), exp (N, tau, sigma_a, sigma_m),
shifted softplus (k, theta) and scaled logistic (lambda).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit, logit

# Slot kind codes
IDENTITY = 0
EXP = 1
SOFTPLUS = 2  # offset + softplus(x)
LOGISTIC = 3  # upper * expit(x)

K_MIN = 2.0
EPS_THETA = 1e-2
EPS_LAMBDA = 1e-3

# Beyond this softplus(x) ~ x and expm1 underflows; branch for stability.
_BIG = 30.0


def softplus(x):
    return np.logaddexp(0.0, x)


def softplus_inv(y):
    y = np.asarray(y, dtype=float)
    small = y < _BIG
    out = np.where(small, np.log(np.expm1(np.where(small, y, 1.0))), y)
    return out


@dataclass(frozen=True)
class PriorSpec:
    """Gaussian prior on the outbreak start day; flat on everything else."""

    t0_mean: float = -10.0
    t0_sd: float = 30.0

    def __post_init__(self):
        if self.t0_sd <= 0:
            raise ValueError("t0_sd must be positive")


@dataclass(frozen=True)
class TransformSpec:
    """Per-slot transform table for a parameter vector of length 4R + 4."""

    kinds: np.ndarray
    offsets: np.ndarray
    uppers: np.ndarray

    @classmethod
    def for_regions(cls, n_regions):
        """Standard layout [t0, N, k, theta] per region then (tau, lambda, sigma_a, sigma_m)."""
        kinds = np.tile([IDENTITY, EXP, SOFTPLUS, SOFTPLUS], n_regions)
        kinds = np.concatenate([kinds, [EXP, LOGISTIC, EXP, EXP]])
        offsets = np.zeros(kinds.shape)
        offsets[np.arange(n_regions) * 4 + 2] = K_MIN
        offsets[np.arange(n_regions) * 4 + 3] = EPS_THETA
        uppers = np.ones(kinds.shape)
        uppers[4 * n_regions + 1] = 1.0 - EPS_LAMBDA
        return cls(kinds=kinds, offsets=offsets, uppers=uppers)

    @property
    def dim(self):
        return self.kinds.size

    def forward(self, xhat):
        """Map unconstrained xhat to constrained parameters (from_unconstrained)."""
        xhat = np.asarray(xhat, dtype=float)
        out = np.empty_like(xhat)
        m = self.kinds == IDENTITY
        out[m] = xhat[m]
        m = self.kinds == EXP
        out[m] = np.exp(xhat[m])
        m = self.kinds == SOFTPLUS
        out[m] = self.offsets[m] + softplus(xhat[m])
        m = self.kinds == LOGISTIC
        out[m] = self.uppers[m] * expit(xhat[m])
        return out

    def inverse(self, theta):
        """Map constrained parameters to unconstrained space (to_unconstrained).

        Raises ValueError for values on or outside the open constraint domain.
        """
        theta = np.asarray(theta, dtype=float)
        out = np.empty_like(theta)
        m = self.kinds == IDENTITY
        out[m] = theta[m]
        m = self.kinds == EXP
        if np.any(theta[m] <= 0):
            raise ValueError("exp-slot value must be strictly positive")
        out[m] = np.log(theta[m])
        m = self.kinds == SOFTPLUS
        shifted = theta[m] - self.offsets[m]
        if np.any(shifted <= 0):
            raise ValueError("softplus-slot value must exceed its offset")
        out[m] = softplus_inv(shifted)
        m = self.kinds == LOGISTIC
        frac = theta[m] / self.uppers[m]
        if np.any((frac <= 0) | (frac >= 1)):
            raise ValueError("logistic-slot value must lie strictly inside (0, upper)")
        out[m] = logit(frac)
        return out

    def fprime(self, xhat):
        """Per-slot derivative f_i'(x_i); strictly positive everywhere."""
        xhat = np.asarray(xhat, dtype=float)
        out = np.ones_like(xhat)
        m = self.kinds == EXP
        out[m] = np.exp(xhat[m])
        m = self.kinds == SOFTPLUS
        out[m] = expit(xhat[m])
        m = self.kinds == LOGISTIC
        s = expit(xhat[m])
        out[m] = self.uppers[m] * s * (1.0 - s)
        return out

    def log_jacobian(self, xhat):
        """sum_i log f_i'(x_i)."""
        xhat = np.asarray(xhat, dtype=float)
        logs = np.zeros_like(xhat)
        m = self.kinds == EXP
        logs[m] = xhat[m]
        m = self.kinds == SOFTPLUS
        logs[m] = -softplus(-xhat[m])
        m = self.kinds == LOGISTIC
        logs[m] = np.log(self.uppers[m]) - softplus(-xhat[m]) - softplus(xhat[m])
        return float(np.sum(logs))

    def log_jacobian_grad(self, xhat):
        """d/dx_i of log f_i'(x_i), per slot."""
        xhat = np.asarray(xhat, dtype=float)
        out = np.zeros_like(xhat)
        m = self.kinds == EXP
        out[m] = 1.0
        m = self.kinds == SOFTPLUS
        out[m] = expit(-xhat[m])
        m = self.kinds == LOGISTIC
        out[m] = 1.0 - 2.0 * expit(xhat[m])
        return out


def t0_slots(n_regions):
    return np.arange(n_regions) * 4


def log_prior(theta, prior: PriorSpec, n_regions):
    """Gaussian log-prior over the t0 slots; flat elsewhere.

    Returns (value, gradient w.r.t. the constrained vector).
    """
    theta = np.asarray(theta, dtype=float)
    idx = t0_slots(n_regions)
    z = (theta[idx] - prior.t0_mean) / prior.t0_sd
    value = float(-0.5 * np.sum(z**2) - idx.size * (0.5 * np.log(2.0 * np.pi) + np.log(prior.t0_sd)))
    grad = np.zeros_like(theta)
    grad[idx] = -z / prior.t0_sd
    return value, grad
