"""Single-region forward epidemic model.

A Gamma-shaped infection-rate pulse convolved against a lognormal
incubation CDF gives the expected number of people turning symptomatic
each day.  The convolution and its parameter derivatives are evaluated by
Gauss-Legendre quadrature mapped onto [t0, t_i] for each day.

The incubation window G(r) = F_inc(r) - F_inc(r - 1) depends only on the
incubation parameters, so it is tabulated once per `IncubationParams` (from
`incubation_cdf` below the incubation median, the survival function above it,
and `incubation_pdf`) and evaluated by cubic-Hermite lookup; the gradient
differentiates that interpolant.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import digamma, erfc, gammaln

from .transforms import EPS_THETA, K_MIN

DEFAULT_QUAD_NODES = 64

# Incubation-window table: cells per day (step h = 1/32) and the largest table built.
_WINDOW_CELLS_PER_DAY = 32
_WINDOW_MAX_CELLS = 2**20

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


def _incubation_sf(t, inc: IncubationParams):
    """1 - F_inc(t) as 0.5 erfc(+z), which keeps its relative precision in the upper tail; 1 for t <= 0."""
    pos = t > 0
    ts = np.where(pos, t, 1.0)
    return np.where(pos, 0.5 * erfc((np.log(ts) - inc.mu) / (inc.sigma * np.sqrt(2.0))), 1.0)


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


@lru_cache(maxsize=8)
def _window_table(inc: IncubationParams):
    """Cubic-Hermite coefficients of G(r) = F_inc(r) - F_inc(r - 1), shape (4, n + 1).

    G is tabulated from the CDF up to the incubation median exp(mu) and as
    S(r - 1) - S(r), with the survival function S = 1 - F_inc (`_incubation_sf`),
    beyond it, so neither tail loses digits; G' = dG/dr comes from `incubation_pdf`.

    Cell j covers [j h, (j + 1) h) with h = 1/32 day; on it G = a0 + a1 s +
    a2 s^2 + a3 s^3 at s = r/h - j, with row k holding a_k.  The table ends
    at r_max = exp(mu + 8.5 sigma) + 1, rounded up to a whole cell, where the
    lognormal tail is below 1e-17; the extra last cell is all zero, so
    r >= r_max gives G = 0.  Raises ValueError above 2^20 cells.
    """
    r_max = np.exp(inc.mu + 8.5 * inc.sigma) + 1.0
    if not r_max * _WINDOW_CELLS_PER_DAY <= _WINDOW_MAX_CELLS:
        raise ValueError(
            f"incubation window table would span {r_max:.4g} days, more than the limit of "
            f"{_WINDOW_MAX_CELLS} cells ({_WINDOW_MAX_CELLS // _WINDOW_CELLS_PER_DAY} days); "
            f"reduce incubation mu or sigma"
        )
    n = int(np.ceil(r_max * _WINDOW_CELLS_PER_DAY))
    r = np.arange(n + 1) / _WINDOW_CELLS_PER_DAY
    # Past the median the CDF form would cancel two values near 1, where G is far
    # smaller than either; the survival form would do the same below it.
    g = np.where(r <= np.exp(inc.mu), incubation_cdf(r, inc) - incubation_cdf(r - 1.0, inc),
                 _incubation_sf(r - 1.0, inc) - _incubation_sf(r, inc))
    dg = (incubation_pdf(r, inc) - incubation_pdf(r - 1.0, inc)) / _WINDOW_CELLS_PER_DAY  # dG/ds
    coef = np.zeros((4, n + 1))
    coef[0, :n] = g[:-1]
    coef[1, :n] = dg[:-1]
    coef[2, :n] = 3.0 * (g[1:] - g[:-1]) - 2.0 * dg[:-1] - dg[1:]
    coef[3, :n] = 2.0 * (g[:-1] - g[1:]) + dg[:-1] + dg[1:]
    coef.flags.writeable = False
    return coef


def _incubation_window(tau, day_grid, inc: IncubationParams, with_grad):
    """(G, dG/dr) at r = t_i - tau; dG/dr is None unless with_grad.

    Both come from the cubic in `_window_table`; r <= 0 (G(0) = G'(0) = 0)
    and r >= r_max land on exact zeros.
    """
    coef = _window_table(inc)
    x = np.asarray(day_grid, dtype=float)[:, None] - tau
    x *= _WINDOW_CELLS_PER_DAY
    np.fmax(x, 0.0, out=x)  # fmax/fmin, unlike clip, also send NaN to the zero at r = 0
    np.fmin(x, coef.shape[1] - 1, out=x)
    cell = x.astype(np.intp)
    x -= cell  # the offset s in [0, 1)
    a3, a2, a1 = coef[3].take(cell), coef[2].take(cell), coef[1].take(cell)
    g = a3 * x
    g += a2
    g *= x
    g += a1
    g *= x
    g += coef[0].take(cell)
    if not with_grad:
        return g, None
    a3 *= 3.0 * x
    a3 += 2.0 * a2
    a3 *= x
    a3 += a1
    a3 *= _WINDOW_CELLS_PER_DAY
    return g, a3


def _convolve(p: RegionParams, inc: IncubationParams, day_grid, quad: QuadratureRule, with_grad):
    """The daily convolution y, and with_grad its partials: y or (y, grad).

    The window G and dG/dr come from the tabulated cubic (`_incubation_window`),
    so the partials are exact derivatives of the interpolated model.
    """
    day_grid = np.asarray(day_grid, dtype=float)
    tau, half, c, active = _day_quadrature(p, day_grid, quad)
    u, log_u, f = _gamma_rate(tau, p)
    window, dwindow_dr = _incubation_window(tau, day_grid, inc, with_grad)
    w = quad.weights
    s = (f * window) @ w
    y = np.where(active, np.maximum(p.N * half * s, 0.0), 0.0)
    if not with_grad:
        return y

    df_dt0, df_dk, df_dtheta = _gamma_partials(u, log_u, f, p)
    grad = np.empty((day_grid.size, 4))
    # With t0 the half-width moves by -1/2 and the nodes by dtau/dt0 = 1 - c;
    # the rate f(tau - t0) then moves by df/dtau (1 - c) + df/dt0 = c df/dt0,
    # and the window G(t_i - tau) by -dG/dr (1 - c).
    grad[:, 0] = p.N * (half * ((c * df_dt0 * window - (1.0 - c) * f * dwindow_dr) @ w) - 0.5 * s)
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
    identically zero because k >= 2.  The incubation window is the
    cubic-Hermite interpolant of its table, and the t0 partial differentiates
    that interpolant, so finite differences of predict_daily agree with it.

    Returns (y, grad) with grad of shape (len(day_grid), 4) in the order
    (t0, N, k, theta); y equals predict_daily exactly.
    """
    return _convolve(p, inc, day_grid, quad, with_grad=True)
