"""The flat parameter vector: its layout, its names and its constraint transforms.

The layout is [t0, N, k, theta] per region, then the noise parameters
(tau, lambda, sigma_a, sigma_m).  Each constrained slot is theta_i = f_i(x_i)
with f_i strictly increasing and differentiable, so the optimizer works on
all of R^d; `TransformSpec.jacobian` gives f_i' and log f_i' in one walk over the slot groups:

- exp: N of every region, tau, sigma_a and sigma_m;
- shifted softplus: k above `K_MIN` and theta above `EPS_THETA`;
- scaled logistic: lambda in (0, 1 - `EPS_LAMBDA`);
- identity: every other slot, i.e. t0, which alone carries a (Gaussian) prior.

The bounds belong to the parameters they bound (`model.RegionParams`,
`likelihood.NoiseParams`); this module only maps onto them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit, logit

from .likelihood import EPS_LAMBDA, NoiseParams
from .model import EPS_THETA, K_MIN, RegionParams

NOISE_NAMES = ("tau_phi", "lambda_phi", "sigma_a", "sigma_m")
REGION_NAMES = ("t0", "N", "k", "theta")
# Slots per region; the noise slots follow the last region's.
_STRIDE = len(REGION_NAMES)

# Beyond this softplus(x) ~ x and expm1 underflows; branch for stability.
_BIG = 30.0

# Floors of the softplus pair (k, theta) and the upper end of lambda's range.
_SOFTPLUS_FLOOR = np.array([K_MIN, EPS_THETA])
_LAMBDA_MAX = 1.0 - EPS_LAMBDA


def dim_for(n_regions):
    return _STRIDE * n_regions + len(NOISE_NAMES)


def slots(n_regions, *names):
    """Indices of the named slots, in the order named: one per region for a region name, one for a noise name."""
    return np.concatenate([_STRIDE * np.arange(n_regions) + REGION_NAMES.index(name) if name in REGION_NAMES
                           else [_STRIDE * n_regions + NOISE_NAMES.index(name)] for name in names])


def param_names(n_regions):
    return [f"{name}[{r}]" for r in range(n_regions) for name in REGION_NAMES] + list(NOISE_NAMES)


@dataclass(frozen=True)
class ParamVector:
    """Constrained model parameters for all regions plus the global noise."""

    values: np.ndarray
    n_regions: int

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (dim_for(self.n_regions),):
            raise ValueError(f"expected {dim_for(self.n_regions)} values, got {values.shape}")
        object.__setattr__(self, "values", values)

    @classmethod
    def from_parts(cls, regions, noise: NoiseParams):
        vals = [getattr(p, name) for p in regions for name in REGION_NAMES]
        return cls(values=np.array([*vals, *noise.as_array()]), n_regions=len(regions))

    @property
    def regions(self):
        """The (n_regions, 4) view of the region slots, one row (t0, N, k, theta) per region."""
        return self.values[: _STRIDE * self.n_regions].reshape(self.n_regions, _STRIDE)

    def region(self, r) -> RegionParams:
        return RegionParams(*self.regions[r])

    @property
    def noise(self) -> NoiseParams:
        return NoiseParams(*self.values[_STRIDE * self.n_regions :])


def softplus(x):
    return np.logaddexp(0.0, x)


def softplus_inv(y):
    y = np.asarray(y, dtype=float)
    small = y < _BIG
    return np.where(small, np.log(np.expm1(np.where(small, y, 1.0))), y)


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
    """The slot transforms of the parameter vector of `n_regions` regions."""

    n_regions: int

    def __post_init__(self):
        # Slot indices per group, in ascending order; the softplus slots as (R, 2) rows of (k, theta).
        R = self.n_regions
        object.__setattr__(self, "_exp", slots(R, "N", "tau_phi", "sigma_a", "sigma_m"))
        object.__setattr__(self, "_softplus", np.column_stack([slots(R, "k"), slots(R, "theta")]))
        object.__setattr__(self, "_logistic", slots(R, "lambda_phi"))

    def forward(self, xhat):
        """Map unconstrained xhat to constrained parameters (from_unconstrained)."""
        xhat = np.asarray(xhat, dtype=float)
        out = xhat.copy()
        out[self._exp] = np.exp(xhat[self._exp])
        out[self._softplus] = _SOFTPLUS_FLOOR + softplus(xhat[self._softplus])
        out[self._logistic] = _LAMBDA_MAX * expit(xhat[self._logistic])
        return out

    def inverse(self, theta):
        """Map constrained parameters to unconstrained space (to_unconstrained).

        Raises ValueError for values on or outside the open constraint domain.
        """
        theta = np.asarray(theta, dtype=float)
        out = theta.copy()
        positive = theta[self._exp]
        if np.any(positive <= 0):
            raise ValueError("N, tau_phi, sigma_a and sigma_m must be strictly positive")
        out[self._exp] = np.log(positive)
        shifted = theta[self._softplus] - _SOFTPLUS_FLOOR
        if np.any(shifted <= 0):
            raise ValueError(f"k must exceed {K_MIN} and theta {EPS_THETA}")
        out[self._softplus] = softplus_inv(shifted)
        frac = theta[self._logistic] / _LAMBDA_MAX
        if np.any((frac <= 0) | (frac >= 1)):
            raise ValueError(f"lambda_phi must lie strictly inside (0, {_LAMBDA_MAX})")
        out[self._logistic] = logit(frac)
        return out

    def jacobian(self, xhat):
        """(f_i'(x_i) per slot, strictly positive; sum_i log f_i'(x_i); d/dx_i log f_i'(x_i) per slot)."""
        xhat = np.asarray(xhat, dtype=float)
        fprime, logs, grad = np.ones_like(xhat), np.zeros_like(xhat), np.zeros_like(xhat)
        x = xhat[self._exp]
        fprime[self._exp] = np.exp(x)
        logs[self._exp] = x
        grad[self._exp] = 1.0
        x = xhat[self._softplus]
        fprime[self._softplus] = expit(x)
        logs[self._softplus] = -softplus(-x)
        grad[self._softplus] = expit(-x)
        x = xhat[self._logistic]
        s = expit(x)
        fprime[self._logistic] = _LAMBDA_MAX * s * (1.0 - s)
        logs[self._logistic] = np.log(_LAMBDA_MAX) - softplus(-x) - softplus(x)
        grad[self._logistic] = 1.0 - 2.0 * s
        return fprime, float(np.sum(logs)), grad


def log_prior(theta, prior: PriorSpec, n_regions):
    """Gaussian log-prior over the t0 slots; flat elsewhere.

    Returns (value, gradient w.r.t. the constrained vector).
    """
    theta = np.asarray(theta, dtype=float)
    t0 = slice(0, _STRIDE * n_regions, _STRIDE)  # t0 leads each region's slots
    z = (theta[t0] - prior.t0_mean) / prior.t0_sd
    value = float(-0.5 * np.sum(z**2) - n_regions * (0.5 * np.log(2.0 * np.pi) + np.log(prior.t0_sd)))
    grad = np.zeros_like(theta)
    grad[t0] = -z / prior.t0_sd
    return value, grad
