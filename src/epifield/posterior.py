"""Unconstrained log-posterior assembly.

Bundles the forward model, spatial likelihood, prior and constraint
transforms into a single callable surface: value and gradient of

    log p(data | f(x)) + log p(f(x)) [+ sum_i log f_i'(x_i)]

as a function of the unconstrained vector x.  The Jacobian term makes the
target the density of the push-forward surrogate; it is on by default and
can be dropped to match a pure-Gaussian objective.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import RegionGraph
from .likelihood import log_likelihood, log_likelihood_and_grad
from .model import DEFAULT_QUAD_NODES, IncubationParams, QuadratureRule, predict_daily, predict_daily_grad
from .params import ParamVector, dim_for
from .transforms import PriorSpec, TransformSpec, log_prior


@dataclass(frozen=True)
class ModelContext:
    """Everything needed to evaluate the posterior for one fit window."""

    graph: RegionGraph
    day_grid: np.ndarray
    y_obs: np.ndarray
    incubation: IncubationParams = field(default_factory=IncubationParams)
    prior: PriorSpec = field(default_factory=PriorSpec)
    quad_nodes: int = DEFAULT_QUAD_NODES
    include_jacobian: bool = True

    def __post_init__(self):
        day_grid = np.asarray(self.day_grid, dtype=float)
        y_obs = np.asarray(self.y_obs, dtype=float)
        if y_obs.shape != (day_grid.size, self.graph.n_regions):
            raise ValueError("y_obs must be (len(day_grid), n_regions)")
        object.__setattr__(self, "day_grid", day_grid)
        object.__setattr__(self, "y_obs", y_obs)

    @property
    def n_regions(self):
        return self.graph.n_regions

    @property
    def dim(self):
        return dim_for(self.n_regions)

    @property
    def transforms(self) -> TransformSpec:
        return TransformSpec.for_regions(self.n_regions)

    @property
    def quad(self) -> QuadratureRule:
        return QuadratureRule.gauss_legendre(self.quad_nodes)

    def logpost(self, xhat, include_jacobian=None):
        return log_posterior(self, xhat, include_jacobian)

    def logpost_and_grad(self, xhat, include_jacobian=None):
        return log_posterior_and_grad(self, xhat, include_jacobian)

    def predictions(self, theta: ParamVector, day_grid=None):
        """Model predictions (N_d, R) at constrained parameters theta."""
        grid = self.day_grid if day_grid is None else np.asarray(day_grid, dtype=float)
        quad = self.quad
        y = np.empty((grid.size, self.n_regions))
        for r in range(self.n_regions):
            y[:, r] = predict_daily(theta.region(r), self.incubation, grid, quad)
        return y

    def predictions_and_grad(self, theta: ParamVector):
        quad = self.quad
        y = np.empty((self.day_grid.size, self.n_regions))
        g = np.empty((self.day_grid.size, self.n_regions, 4))
        for r in range(self.n_regions):
            y[:, r], g[:, r, :] = predict_daily_grad(theta.region(r), self.incubation, self.day_grid, quad)
        return y, g


def log_posterior(ctx: ModelContext, xhat, include_jacobian=None):
    """Value of the unconstrained log-posterior at xhat."""
    tf = ctx.transforms
    theta = ParamVector(values=tf.forward(xhat), n_regions=ctx.n_regions)
    y = ctx.predictions(theta)
    value = log_likelihood(ctx.y_obs, y, ctx.graph, theta.noise)
    value += log_prior(theta.values, ctx.prior, ctx.n_regions)[0]
    use_jac = ctx.include_jacobian if include_jacobian is None else include_jacobian
    if use_jac:
        value += tf.log_jacobian(xhat)
    return value


def log_posterior_and_grad(ctx: ModelContext, xhat, include_jacobian=None):
    """Value and gradient of the unconstrained log-posterior at xhat."""
    tf = ctx.transforms
    xhat = np.asarray(xhat, dtype=float)
    theta = ParamVector(values=tf.forward(xhat), n_regions=ctx.n_regions)
    y, y_grad = ctx.predictions_and_grad(theta)
    value, grad_model, grad_eta = log_likelihood_and_grad(ctx.y_obs, y, y_grad, ctx.graph, theta.noise)
    grad_constrained = np.concatenate([grad_model.ravel(), grad_eta])

    pv, pg = log_prior(theta.values, ctx.prior, ctx.n_regions)
    value += pv
    grad_constrained += pg

    grad = grad_constrained * tf.fprime(xhat)
    use_jac = ctx.include_jacobian if include_jacobian is None else include_jacobian
    if use_jac:
        value += tf.log_jacobian(xhat)
        grad += tf.log_jacobian_grad(xhat)
    return value, grad

