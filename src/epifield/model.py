"""Forward epidemic model of every region.

A Gamma-shaped infection-rate pulse convolved against a lognormal
incubation CDF gives the expected number of people turning symptomatic
each day.  The convolution and its parameter derivatives are evaluated by
Gauss-Legendre quadrature mapped onto [t0, t_i] for each day.  The mapped
rule is separable: with d_i = t_i - t0 and unit nodes c_j = (x_j + 1)/2,
node j of day i lies c_j d_i after onset and d_i (1 - c_j) before t_i.  So
the (days x nodes) arrays of the kernel are small matrix products of a
per-day factor and a constant per-node factor: the log of the Gamma rate is
(N_d x 3) @ (3 x n) with node rows [c; log c; 1], and the window argument is
(N_d x 2) @ (2 x n) with node rows [1 - c; 0].  One exp per node gives the
rate, and the parameter partials reduce to mat-vecs of the same node products
against node-weight vectors (see `_convolve`).

`_convolve` takes all regions at once, as an (R, 4) block of rows
(t0, N, k, theta): the per-day algebra, the bounds check and the partials'
assembly run once on (R, N_d) arrays, and only the node work loops over
regions.  `predict_daily[_grad]` pass it one row, and
`posterior.predict_regions` every region's.

The incubation window G(r) = F_inc(r) - F_inc(r - 1) depends only on the
incubation parameters, so it is tabulated once per `IncubationParams` (from
`incubation_cdf` below the incubation median, the survival function above it,
and `incubation_pdf`) and evaluated by cubic-Hermite lookup; the gradient
differentiates that interpolant.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.special import digamma, erfc, gammaln

DEFAULT_QUAD_NODES = 64
# QuadratureRule.gauss_legendre's rules by node count.
_GAUSS_LEGENDRE = {}

# Incubation-window table: cells per day (step h = 1/32) and the largest table built.
_WINDOW_CELLS_PER_DAY = 32
_WINDOW_MAX_CELLS = 2**20

# Lognormal incubation fit for COVID-19 (Lauer et al. 2020), log-days.
DEFAULT_INCUBATION_MU = 1.621
DEFAULT_INCUBATION_SIGMA = 0.418

# Lower bounds of a region's Gamma shape k and scale theta.
K_MIN = 2.0
EPS_THETA = 1e-2


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
        """Reference rule on [-1, 1]: one shared instance per node count, with read-only arrays."""
        if n < 16:
            raise ValueError(f"at least 16 quadrature nodes required, got {n}")
        if n not in _GAUSS_LEGENDRE:
            rule = cls(*np.polynomial.legendre.leggauss(n))
            for a in (rule.nodes, rule.weights, *rule._node_terms):
                a.flags.writeable = False
            _GAUSS_LEGENDRE[n] = rule
        return _GAUSS_LEGENDRE[n]

    @cached_property
    def _node_terms(self):
        """The factors of `_convolve` that depend on the nodes alone, with c = (x + 1)/2 in (0, 1):
        the (3, n) rows [c; log c; 1] of log f, the (2, n) rows [1 - c; 0] of the window
        argument, the (n, 2) columns [w log c, w c] and w (1 - c)."""
        c = 0.5 * (self.nodes + 1.0)
        w = self.weights
        log_c = np.log(c)
        return (np.vstack([c, log_c, np.ones_like(c)]), np.vstack([1.0 - c, np.zeros_like(c)]),
                np.column_stack([w * log_c, w * c]), w * (1.0 - c))


def infection_rate(t, p: RegionParams):
    """Gamma infection-rate density at time t; zero for t <= t0."""
    u = np.asarray(t, dtype=float) - p.t0
    pos = u > 0
    u = np.where(pos, u, 1.0)
    log_f = -p.k * np.log(p.theta) + (p.k - 1.0) * np.log(u) - u / p.theta - gammaln(p.k)
    f = np.where(pos, np.exp(log_f), 0.0)
    return f if f.ndim else float(f)


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


def _checked_day_grid(day_grid):
    """day_grid as a float array; ValueError unless it is 1-D and strictly increasing."""
    grid = np.asarray(day_grid, dtype=float)
    if grid.ndim != 1 or not np.all(grid[1:] > grid[:-1]):
        raise ValueError("day_grid must be a strictly increasing 1-D array")
    return grid


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


def _incubation_window(r, inc: IncubationParams, with_grad):
    """(G, dG/dr) at r; dG/dr is None unless with_grad.

    Both come from the cubic in `_window_table`; r <= 0 (G(0) = G'(0) = 0),
    NaN and r >= r_max land on exact zeros.
    """
    return _window_lookup(np.asarray(r, dtype=float) * _WINDOW_CELLS_PER_DAY, _window_table(inc), with_grad)


def _window_lookup(x, coef, with_grad):
    """(G, dG/dr) at r = x / 32 from the table coef of `_window_table`, with x in cells.

    x is a float array that is overwritten.  x <= 0, NaN and x at or past
    the table's last cell land on exact zeros.
    """
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


def _convolve(regions, table, day_grid, quad: QuadratureRule, with_grad):
    """Every region's daily convolution y (N_d, R), and with_grad its partials: y or (y, grad (N_d, R, 4)).

    regions is an (R, 4) array of rows (t0, N, k, theta), table the
    incubation window's `_window_table`, and day_grid a float array that
    `_checked_day_grid` has passed.  A row that `RegionParams` would refuse
    raises its ValueError (the first such row's).

    Day i's rule on [t0, t_i] has nodes t0 + c_j d_i and weights d_i w_j / 2,
    with d_i = t_i - t0 and c_j = (x_j + 1)/2; inactive days (t_i <= t0) get
    d_i = 1.  The kernel is separable in day and node: node j of day i sits at
    offset u_ij = c_j d_i after onset and window argument r_ij = d_i (1 - c_j).
    The log of the rate is

        log f_ij = (d_i / -theta) c_j + (k - 1) log c_j + alpha_i,
        alpha_i = -k log theta - lgamma(k) + (k - 1) log d_i,

    one (N_d, 3) @ (3, n) product of the day rows [d_i / -theta, k - 1, alpha_i]
    against the node rows [c; log c; 1] of `QuadratureRule._node_terms`, and
    one exp per node.  The window argument, in the table's 1/32-day cells, is
    the product [32 d_i, 0] @ [1 - c; 0]: an inner dimension of 2, because
    numpy's matmul is slow at 1, and the padding adds an exact zero.  The day
    column is 0 on inactive days, so r = 0 there, where G(0) = G'(0) = 0, and
    their y and partials come out as exact zeros.

    With F = f G and s = F @ w the prediction is y = N (d/2) s.  The gradient
    needs one more product, f G', and mat-vecs of F and f G' against
    node-weight vectors: the rate partials are f times terms linear in log c_j
    or c_j.  alpha stays inside the exp because exp(alpha) alone overflows at
    large k log d where f does not.

    The per-day algebra runs once on (R, N_d) arrays and only the (N_d, n)
    node work loops over regions, so that each region's working set stays in
    cache.  Each element takes the operations of a one-region call in the
    same order, so a region's columns do not depend on the other rows.

    The window G and dG/dr come from the tabulated cubic (`_window_lookup`),
    so the partials are exact derivatives of the interpolated model.

    Accuracy limit of the default 64 nodes: against a 2048-node rule, the
    relative error (floored at 1e-9 of the peak) is at most 2.4e-9 on days
    1-40 with t0 in [-15, -2], but reaches 9.3e-6 on days 1-107 with t0 in
    [-60, -2].
    """
    # y and the partials before the temporaries: allocated last, they let glibc trim the heap's
    # top after every call, and the next call faulted its pages in again.
    n_regions, n_days = len(regions), day_grid.size
    y = np.empty((n_days, n_regions))
    grad = np.empty((n_days, n_regions, 4)) if with_grad else None
    for row in regions.tolist():
        if not row[1] > 0 or row[2] < K_MIN or row[3] < EPS_THETA:
            RegionParams(*row)
    t0, N, k, theta = regions.T[:, :, None]  # (R, 1) columns
    rate_rows, window_rows, w_logc_c, w_one_minus_c = quad._node_terms
    active = day_grid > t0
    d = np.where(active, day_grid - t0, 1.0)
    log_d = np.log(d)
    k_minus_1 = k - 1.0
    day_rows = np.empty((n_regions, n_days, 3))
    day_rows[..., 0] = d / -theta
    day_rows[..., 1] = k_minus_1
    log_theta = np.log(theta)
    day_rows[..., 2] = k_minus_1 * log_d - k * log_theta - gammaln(k)
    cells = np.zeros((n_regions, n_days, 2))
    cells[..., 0] = _WINDOW_CELLS_PER_DAY * d * active
    # Per region: s = F @ w, and with_grad F @ [w log c, w c] and f G' @ w (1 - c).
    sums = np.empty((4 if with_grad else 1, n_regions, n_days))
    for r in range(n_regions):
        f = day_rows[r] @ rate_rows
        np.exp(f, out=f)
        F, dwindow_dr = _window_lookup(cells[r] @ window_rows, table, with_grad)
        F *= f
        sums[0, r] = F @ quad.weights
        if with_grad:
            sums[1:3, r] = (F @ w_logc_c).T
            f *= dwindow_dr
            sums[3, r] = f @ w_one_minus_c
    s = sums[0]
    half = 0.5 * d
    np.maximum(N * half * s, 0.0, out=y.T)
    if not with_grad:
        return y

    s_logc, s_c, s_window = sums[1:]
    # theta**2 by the C library's pow, as for a scalar theta: numpy's array square rounds some differently.
    theta_sq = np.array([[t ** 2] for t in regions[:, 3].tolist()])
    # dy/dt0 = -dy/dd for y = N (d/2) sum_j w_j f(c_j d) G(d (1 - c_j)),
    # where c f'(c d) = f ((k - 1)/d - c/theta).
    grad[..., 0] = (N * (half * (s_c / theta - k_minus_1 / d * s - s_window) - 0.5 * s)).T
    grad[..., 1] = (half * s).T
    grad[..., 2] = (N * half * (s_logc + (log_d - log_theta - digamma(k)) * s)).T
    grad[..., 3] = (N * half * (d / theta_sq * s_c - k / theta * s)).T
    return y, grad


def predict_daily(p: RegionParams, inc: IncubationParams, day_grid, quad: QuadratureRule):
    """Expected daily symptomatic counts on each day of day_grid.

    Days at or before t0 contribute zero; all outputs are nonnegative.
    """
    row = np.array([[p.t0, p.N, p.k, p.theta]])
    return _convolve(row, _window_table(inc), _checked_day_grid(day_grid), quad, with_grad=False)[:, 0]


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
    row = np.array([[p.t0, p.N, p.k, p.theta]])
    y, grad = _convolve(row, _window_table(inc), _checked_day_grid(day_grid), quad, with_grad=True)
    return y[:, 0], grad[:, 0]
