"""Single-region forward epidemic model.

A Gamma-shaped infection-rate pulse convolved against a lognormal
incubation CDF gives the expected number of people turning symptomatic
each day.  The convolution and its parameter derivatives are evaluated by
Gauss-Legendre quadrature mapped onto [t0, t_i] for each day.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import digamma, erfc, gammaln

from .transforms import EPS_THETA, K_MIN

DEFAULT_QUAD_NODES = 64

# Lognormal incubation fit for COVID-19 (Lauer et al. 2020), log-days.
DEFAULT_INCUBATION_MU = 1.621
DEFAULT_INCUBATION_SIGMA = 0.418


@dataclass(frozen=True)
class RegionParams:
    """Gamma infection-rate pulse parameters for one region."""

    t0: float
    N: float
    k: float
    theta: float

    def __post_init__(self):
        if not self.N > 0:
            raise ValueError(f"N must be positive, got {self.N}")
        if self.k < K_MIN:
            raise ValueError(f"k must be >= {K_MIN}, got {self.k}")
        if self.theta < EPS_THETA:
            raise ValueError(f"theta must be >= {EPS_THETA}, got {self.theta}")


@dataclass(frozen=True)
class IncubationParams:
    mu: float = DEFAULT_INCUBATION_MU
    sigma: float = DEFAULT_INCUBATION_SIGMA

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError("incubation sigma must be positive")


@lru_cache(maxsize=None)
def _leggauss(n):
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return nodes, weights


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights on an integration interval."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if self.nodes.shape != self.weights.shape:
            raise ValueError("nodes and weights must have matching shape")

    @classmethod
    def gauss_legendre(cls, n=DEFAULT_QUAD_NODES):
        """Reference rule on [-1, 1]."""
        if n < 16:
            raise ValueError("at least 16 quadrature nodes required")
        nodes, weights = _leggauss(n)
        return cls(nodes=nodes, weights=weights)


def _gamma_rate(t, p: RegionParams):
    """(u, log u, f) at time t: u = t - t0, set to 1 where f is zero (t <= t0)."""
    u = np.asarray(t, dtype=float) - p.t0
    pos = u > 0
    u = np.where(pos, u, 1.0)
    log_u = np.log(u)
    log_f = -p.k * np.log(p.theta) + (p.k - 1.0) * log_u - u / p.theta - gammaln(p.k)
    return u, log_u, np.where(pos, np.exp(log_f), 0.0)


def _gamma_partials(u, log_u, f, p: RegionParams):
    """Partials of the rate f w.r.t. (t0, k, theta) at fixed t; zero where f is."""
    df_dt0 = f * (1.0 / p.theta - (p.k - 1.0) / u)
    df_dk = f * (log_u - np.log(p.theta) - digamma(p.k))
    df_dtheta = f * (u / p.theta**2 - p.k / p.theta)
    return df_dt0, df_dk, df_dtheta


def infection_rate(t, p: RegionParams):
    """Gamma infection-rate density at time t; zero for t <= t0."""
    f = _gamma_rate(t, p)[2]
    return f if f.ndim else float(f)


def infection_rate_grad(t, p: RegionParams):
    """Partials of infection_rate w.r.t. (t0, k, theta), and the rate itself.

    Returns (f, df_dt0, df_dk, df_dtheta); with k >= 2 the t0 partial is
    finite down to t = t0 where all quantities vanish.
    """
    u, log_u, f = _gamma_rate(t, p)
    return (f, *_gamma_partials(u, log_u, f, p))


def incubation_cdf(t, inc: IncubationParams):
    """Lognormal incubation CDF; zero for t <= 0, monotone nondecreasing."""
    t = np.asarray(t, dtype=float)
    pos = t > 0
    ts = np.where(pos, t, 1.0)
    cdf = 0.5 * erfc(-(np.log(ts) - inc.mu) / (inc.sigma * np.sqrt(2.0)))
    out = np.where(pos, cdf, 0.0)
    return out if out.ndim else float(out)


def incubation_pdf(t, inc: IncubationParams):
    t = np.asarray(t, dtype=float)
    pos = t > 0
    ts = np.where(pos, t, 1.0)
    z = (np.log(ts) - inc.mu) / inc.sigma
    pdf = np.exp(-0.5 * z**2) / (ts * inc.sigma * np.sqrt(2.0 * np.pi))
    out = np.where(pos, pdf, 0.0)
    return out if out.ndim else float(out)


def _day_quadrature(p: RegionParams, day_grid, quad: QuadratureRule):
    """Each day's rule on [t0, t_i] as (tau, half, c, active).

    Nodes tau[i, j] = t0 + c_j (t_i - t0), weights half[i] * quad.weights, so
    a node sum is half * (X @ quad.weights).  Inactive days get [t0, t0 + 1].
    """
    day_grid = np.asarray(day_grid, dtype=float)
    if day_grid.ndim != 1 or np.any(np.diff(day_grid) <= 0):
        raise ValueError("day_grid must be a strictly increasing 1-D array")
    active = day_grid > p.t0
    half = 0.5 * (np.where(active, day_grid, p.t0 + 1.0) - p.t0)
    tau = p.t0 + half[:, None] * (quad.nodes + 1.0)  # (N_d, n)
    return tau, half, 0.5 * (quad.nodes + 1.0), active


def _incubation_window(tau, day_grid, inc: IncubationParams):
    """F_inc(t_i - tau) - F_inc(t_{i-1} - tau) with t_{i-1} = t_i - 1."""
    day = np.asarray(day_grid, dtype=float)[:, None]
    return incubation_cdf(day - tau, inc) - incubation_cdf(day - 1.0 - tau, inc)


def _convolve(p: RegionParams, inc: IncubationParams, day_grid, quad: QuadratureRule, with_grad):
    """The daily convolution y, and with_grad its partials: y or (y, grad)."""
    day_grid = np.asarray(day_grid, dtype=float)
    tau, half, c, active = _day_quadrature(p, day_grid, quad)
    u, log_u, f = _gamma_rate(tau, p)
    window = _incubation_window(tau, day_grid, inc)
    w = quad.weights
    s = (f * window) @ w
    y = np.where(active, np.maximum(p.N * half * s, 0.0), 0.0)
    if not with_grad:
        return y

    df_dt0, df_dk, df_dtheta = _gamma_partials(u, log_u, f, p)
    day = day_grid[:, None]
    dwindow_dtau = incubation_pdf(day - 1.0 - tau, inc) - incubation_pdf(day - tau, inc)
    grad = np.empty((day_grid.size, 4))
    # With t0 the half-width moves by -1/2 and the nodes by dtau/dt0 = 1 - c;
    # the rate f(tau - t0) then moves by df/dtau (1 - c) + df/dt0 = c df/dt0.
    grad[:, 0] = p.N * (half * ((c * df_dt0 * window + (1.0 - c) * f * dwindow_dtau) @ w) - 0.5 * s)
    grad[:, 1] = half * s
    grad[:, 2] = p.N * half * ((df_dk * window) @ w)
    grad[:, 3] = p.N * half * ((df_dtheta * window) @ w)
    grad[~active] = 0.0
    return y, grad


def predict_daily(p: RegionParams, inc: IncubationParams, day_grid, quad: QuadratureRule):
    """Expected daily symptomatic counts on each day of day_grid.

    Days at or before t0 contribute zero; all outputs are nonnegative.
    """
    return _convolve(p, inc, day_grid, quad, with_grad=False)


def predict_daily_grad(p: RegionParams, inc: IncubationParams, day_grid, quad: QuadratureRule):
    """Daily predictions and their partials w.r.t. (t0, N, k, theta).

    The gradient differentiates the discrete quadrature sum itself, so the
    t0 case also tracks the motion of the mapped nodes and weights with the
    lower integration limit.  The Leibniz boundary term -f_inf(t0) is
    identically zero because k >= 2.

    Returns (y, grad) with grad of shape (len(day_grid), 4) in the order
    (t0, N, k, theta); y equals predict_daily exactly.
    """
    return _convolve(p, inc, day_grid, quad, with_grad=True)
