"""Unconstrained log-posterior assembly.

Bundles the forward model, spatial likelihood, prior and constraint
transforms into a single callable surface: value and gradient of

    log p(data | f(x)) + log p(f(x)) [+ sum_i log f_i'(x_i)]

as a function of the unconstrained vector x.  The Jacobian term makes the
target the density of the push-forward surrogate, which variational
inference fits; `include_jacobian=False` drops it for the MAP in
constrained space that `vi.mle_fit` computes.

`_log_posterior` is the one assembly behind `ModelContext.logpost` and `.logpost_and_grad`, with one
`TransformSpec.jacobian` call each; `predict_regions` is the one forward-model call for all regions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .graph import RegionGraph
from .likelihood import log_likelihood, log_likelihood_and_grad
from .model import DEFAULT_QUAD_NODES, IncubationParams, QuadratureRule, _checked_day_grid, _convolve, _window_table
from .params import ParamVector, PriorSpec, TransformSpec, dim_for, log_prior


@dataclass(frozen=True)
class ModelContext:
    """Everything needed to evaluate the posterior for one fit window.

    `logpost(x, include_jacobian=True)` and `logpost_and_grad(x, include_jacobian=True)`
    evaluate the log-posterior at the unconstrained x, with the transform's
    log-Jacobian unless `include_jacobian` is False.  `quad` is the shared
    Gauss-Legendre rule of `quad_nodes` nodes.
    """

    graph: RegionGraph
    day_grid: np.ndarray
    y_obs: np.ndarray
    incubation: IncubationParams = field(default_factory=IncubationParams)
    prior: PriorSpec = field(default_factory=PriorSpec)
    quad_nodes: int = DEFAULT_QUAD_NODES

    def __post_init__(self):
        # Bad inputs are refused here, not as a penalty point inside an optimizer: the day grid,
        # y_obs's shape, the quadrature rule and the size of the shared incubation-window table.
        day_grid = _checked_day_grid(self.day_grid)
        y_obs = np.asarray(self.y_obs, dtype=float)
        if y_obs.shape != (day_grid.size, self.graph.n_regions):
            raise ValueError("y_obs must be (len(day_grid), n_regions)")
        object.__setattr__(self, "day_grid", day_grid)
        object.__setattr__(self, "y_obs", y_obs)
        object.__setattr__(self, "quad", QuadratureRule.gauss_legendre(self.quad_nodes))
        _window_table(self.incubation)

    @property
    def n_regions(self):
        return self.graph.n_regions

    @property
    def dim(self):
        return dim_for(self.n_regions)

    @cached_property
    def transforms(self) -> TransformSpec:
        return TransformSpec(self.n_regions)

    def logpost(self, xhat, include_jacobian=True):
        return _log_posterior(self, xhat, include_jacobian, with_grad=False)

    def logpost_and_grad(self, xhat, include_jacobian=True):
        return _log_posterior(self, xhat, include_jacobian, with_grad=True)

    def predictions(self, theta: ParamVector, day_grid=None):
        """Model predictions (N_d, R) at constrained parameters theta."""
        return predict_regions(theta, self.incubation, self.day_grid if day_grid is None else day_grid, self.quad)

    def predictions_and_grad(self, theta: ParamVector):
        return predict_regions(theta, self.incubation, self.day_grid, self.quad, with_grad=True)


def predict_regions(theta: ParamVector, inc: IncubationParams, day_grid, quad: QuadratureRule, with_grad=False):
    """Every region's forward model on day_grid: y (N_d, R), or with_grad (y, partials (N_d, R, 4)).

    One `model._convolve` call over the (R, 4) block of region parameters: each
    region's columns equal its own `predict_daily[_grad]`, bit for bit.  A region
    that `RegionParams` would refuse raises its ValueError.
    """
    return _convolve(theta.regions, _window_table(inc), _checked_day_grid(day_grid), quad, with_grad)


def _log_posterior(ctx: ModelContext, xhat, include_jacobian, with_grad):
    """The unconstrained log-posterior at xhat: its value, or with_grad (value, gradient)."""
    tf = ctx.transforms
    theta = ParamVector(values=tf.forward(xhat), n_regions=ctx.n_regions)
    if with_grad:
        y, y_grad = ctx.predictions_and_grad(theta)
        value, grad_model, grad_eta = log_likelihood_and_grad(ctx.y_obs, y, y_grad, ctx.graph, theta.noise)
    else:
        value = log_likelihood(ctx.y_obs, ctx.predictions(theta), ctx.graph, theta.noise)
    prior_value, prior_grad = log_prior(theta.values, ctx.prior, ctx.n_regions)
    value += prior_value
    fprime, log_jacobian, log_jacobian_grad = tf.jacobian(xhat)
    if include_jacobian:
        value += log_jacobian
    if not with_grad:
        return value
    grad = (np.concatenate([grad_model.ravel(), grad_eta]) + prior_grad) * fprime
    if include_jacobian:
        grad += log_jacobian_grad
    return value, grad
