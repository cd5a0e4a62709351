"""Mean-field variational inference over the unconstrained parameters.

The surrogate is a diagonal Gaussian N(mu, diag(sigma(rho))^2) on the
unconstrained vector; constrained parameters are its push-forward through
the slot transforms.  The objective minimized is the negative ELBO

    L(mu, rho) = -H[q] - E_q[log-lik + log-prior (+ log-Jacobian)],

estimated by Monte Carlo with reparametrized draws x = mu + sigma * eps.
A score-function (black-box) gradient estimator is provided for variance
comparison.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize
from scipy.special import expit

from .posterior import ModelContext
from .transforms import softplus, softplus_inv

LOG_2PI_E = np.log(2.0 * np.pi * np.e)


class DivergenceError(RuntimeError):
    """Raised when the ELBO stays non-finite; carries the trace so far."""

    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class VariationalState:
    """Unconstrained means and raw scales of the mean-field surrogate."""

    mu: np.ndarray
    rho: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        rho = np.asarray(self.rho, dtype=float)
        if mu.shape != rho.shape or mu.ndim != 1:
            raise ValueError("mu and rho must be 1-D arrays of equal length")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "rho", rho)

    @property
    def sigma(self):
        return softplus(self.rho)

    @property
    def dim(self):
        return self.mu.size

    @classmethod
    def around(cls, mu, sigma=0.01):
        mu = np.asarray(mu, dtype=float)
        return cls(mu=mu, rho=np.full(mu.shape, float(softplus_inv(sigma))))


@dataclass(frozen=True)
class OptimizerConfig:
    step_size: float = 1e-2
    beta1: float = 0.9
    beta2: float = 0.999
    eps_adam: float = 1e-8
    max_iters: int = 5000
    n_samples: int = 200
    seed: int = 0
    grad_tol: float = 0.0  # smoothed grad-norm threshold; 0 disables
    smooth_window: int = 50

    def __post_init__(self):
        if not (0.0 < self.beta1 < 1.0 and 0.0 < self.beta2 < 1.0):
            raise ValueError("beta1 and beta2 must lie in (0, 1)")
        if self.n_samples < 1:
            raise ValueError("n_samples must be at least 1")


@dataclass
class ElboTrace:
    iterations: list = field(default_factory=list)
    elbo: list = field(default_factory=list)
    grad_norm: list = field(default_factory=list)
    wall_time: list = field(default_factory=list)
    n_samples: list = field(default_factory=list)

    def append(self, iteration, elbo, grad_norm, wall_time, n_samples):
        self.iterations.append(int(iteration))
        self.elbo.append(float(elbo))
        self.grad_norm.append(float(grad_norm))
        self.wall_time.append(float(wall_time))
        self.n_samples.append(int(n_samples))

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "elbo", "grad_norm", "seconds", "n_samples"])
            for row in zip(self.iterations, self.elbo, self.grad_norm, self.wall_time, self.n_samples):
                writer.writerow(row)


def sample_epsilon(n, d, seed):
    """Reproducible n x d standard-normal draws."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")
    return np.random.default_rng(seed).standard_normal((n, d))


def gaussian_entropy(sigma):
    return float(np.sum(0.5 * LOG_2PI_E + np.log(sigma)))


def _draws(state, n_samples, seed, eps):
    if eps is None:
        eps = sample_epsilon(n_samples, state.dim, seed)
    return eps, state.mu[None, :] + state.sigma[None, :] * eps


def elbo_estimate(state: VariationalState, target, n_samples, seed=0, eps=None):
    """Monte Carlo estimate of the negative-ELBO objective (lower is better)."""
    eps, xs = _draws(state, n_samples, seed, eps)
    vals = np.array([target.logpost(x) for x in xs])
    return -gaussian_entropy(state.sigma) - float(np.mean(vals))


def elbo_grad_reparam(state: VariationalState, target, n_samples, seed=0, eps=None):
    """Reparametrization-trick gradient of the objective.

    Entropy gradients are analytic (zero w.r.t. mu); data/prior terms chain
    the unconstrained log-posterior gradient through d x / d mu = 1 and
    d x / d rho = sigma'(rho) * eps.  Returns (elbo, grad_mu, grad_rho).
    """
    eps, xs = _draws(state, n_samples, seed, eps)
    sig_prime = expit(state.rho)
    vals = np.empty(len(xs))
    g_mu = np.zeros(state.dim)
    g_rho = np.zeros(state.dim)
    for s, x in enumerate(xs):
        vals[s], g = target.logpost_and_grad(x)
        g_mu += g
        g_rho += g * eps[s]
    n = len(xs)
    g_mu = -g_mu / n
    g_rho = -sig_prime / state.sigma - sig_prime * g_rho / n
    elbo = -gaussian_entropy(state.sigma) - float(np.mean(vals))
    return elbo, g_mu, g_rho


def elbo_grad_score(state: VariationalState, target, n_samples, seed=0, eps=None):
    """Score-function (black-box) gradient; needs only log-density values."""
    eps, xs = _draws(state, n_samples, seed, eps)
    sig_prime = expit(state.rho)
    sigma = state.sigma
    vals = np.array([target.logpost(x) for x in xs])
    score_mu = eps / sigma[None, :]
    score_rho = ((eps**2 - 1.0) / sigma[None, :]) * sig_prime[None, :]
    g_mu = -np.mean(vals[:, None] * score_mu, axis=0)
    g_rho = -sig_prime / sigma - np.mean(vals[:, None] * score_rho, axis=0)
    elbo = -gaussian_entropy(sigma) - float(np.mean(vals))
    return elbo, g_mu, g_rho


class Adam:
    """Plain ADAM update on a flat vector (minimization)."""

    def __init__(self, x0, config: OptimizerConfig):
        self.x = np.array(x0, dtype=float)
        self.cfg = config
        self.m = np.zeros_like(self.x)
        self.v = np.zeros_like(self.x)
        self.t = 0

    def step(self, grad):
        cfg = self.cfg
        self.t += 1
        self.m = cfg.beta1 * self.m + (1.0 - cfg.beta1) * grad
        self.v = cfg.beta2 * self.v + (1.0 - cfg.beta2) * grad**2
        mhat = self.m / (1.0 - cfg.beta1**self.t)
        vhat = self.v / (1.0 - cfg.beta2**self.t)
        self.x = self.x - cfg.step_size * mhat / (np.sqrt(vhat) + cfg.eps_adam)
        return self.x


def default_initial_guess(ctx: ModelContext):
    """Order-of-magnitude starting point in unconstrained space."""
    start = float(ctx.day_grid[0])
    totals = np.maximum(ctx.y_obs.sum(axis=0), 1.0)
    theta = []
    for r in range(ctx.n_regions):
        theta.extend([start - 10.0, 1.5 * totals[r], 3.0, 10.0])
    theta.extend([1.0, 0.5, 1.0, 0.3])
    return ctx.transforms.inverse(np.array(theta))


_PENALTY = 1e12


def _mle_bounds(ctx):
    """Box constraints keeping exp/softplus slots out of overflow territory.

    Identity (t0) slots are limited to a generous window around the data.
    """
    from .transforms import IDENTITY

    lo = np.full(ctx.dim, -30.0)
    hi = np.full(ctx.dim, 30.0)
    ident = ctx.transforms.kinds == IDENTITY
    lo[ident] = float(ctx.day_grid[0]) - 120.0
    hi[ident] = float(ctx.day_grid[-1])
    return list(zip(lo, hi))


def mle_fit(ctx: ModelContext, config: OptimizerConfig | None = None, x0=None):
    """Maximize log-likelihood + log-prior in unconstrained space.

    Quasi-Newton (L-BFGS-B) with the analytic gradient; returns the best
    iterate and the trace of objective values.  Points where the covariance
    fails to factor (or the value overflows) get a large finite penalty so
    the line search backs off instead of crashing.
    """
    config = config or OptimizerConfig()
    if x0 is None:
        x0 = default_initial_guess(ctx)
    trace = []

    def evaluate(x):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            try:
                v, g = ctx.logpost_and_grad(x, include_jacobian=False)
            except (ValueError, np.linalg.LinAlgError):
                return _PENALTY, np.zeros_like(x)
        if not (np.isfinite(v) and np.all(np.isfinite(g))):
            return _PENALTY, np.zeros_like(x)
        return -v, -g

    # L-BFGS-B's first point repeats the start-point check, each callback repeats the
    # iterate just evaluated, and a restart repeats the point the run before it ended
    # on: remembering the last point evaluates each point once.
    last = {}

    def objective(x):
        key = x.tobytes()
        if key not in last:
            last.clear()
            last[key] = evaluate(x)
        v, g = last[key]
        return v, g.copy()  # the optimizer gets its own gradient array

    x = np.asarray(x0, dtype=float)
    if objective(x)[0] == _PENALTY:
        raise ValueError("non-finite objective or singular covariance at the MLE starting point")
    options = {"maxiter": config.max_iters, "gtol": 1e-8, "ftol": 1e-15}
    bounds = _mle_bounds(ctx)
    # A restart resets the Hessian approximation, which reliably drops the
    # residual gradient after an ftol-triggered stop.
    for _ in range(2):
        res = minimize(
            objective,
            x,
            jac=True,
            method="L-BFGS-B",
            bounds=bounds,
            callback=lambda xk: trace.append(-objective(xk)[0]),
            options=options,
        )
        x = res.x
    return x, np.array(trace)


def fit_mfvi(ctx: ModelContext, config: OptimizerConfig | None = None, mu0=None, sigma0=0.01):
    """Run MFVI: MLE initialization then ADAM on the reparametrized ELBO.

    Fresh epsilon draws are taken each iteration, derived from
    (config.seed, iteration) so replays are bit-identical.  Raises
    DivergenceError after 10 consecutive non-finite ELBO estimates, or as
    soon as an update makes the state non-finite (Adam cannot recover).
    """
    config = config or OptimizerConfig()
    if mu0 is None:
        mu0, _ = mle_fit(ctx, config)
    state = VariationalState.around(mu0, sigma=sigma0)
    adam = Adam(np.concatenate([state.mu, state.rho]), config)
    trace = ElboTrace()
    d = state.dim
    t_start = time.perf_counter()
    bad_streak = 0
    for it in range(config.max_iters):
        eps = sample_epsilon(config.n_samples, d, seed=[config.seed, it])
        elbo, g_mu, g_rho = elbo_grad_reparam(state, ctx, config.n_samples, eps=eps)
        grad = np.concatenate([g_mu, g_rho])
        gnorm = float(np.linalg.norm(grad))
        trace.append(it, elbo, gnorm, time.perf_counter() - t_start, config.n_samples)
        if not np.isfinite(elbo):
            bad_streak += 1
            if bad_streak >= 10:
                raise DivergenceError(f"ELBO non-finite for {bad_streak} consecutive iterations", trace)
        else:
            bad_streak = 0
        x = adam.step(grad)
        if not np.all(np.isfinite(x)):
            raise DivergenceError(f"variational state non-finite after iteration {it}", trace)
        state = VariationalState(mu=x[:d], rho=x[d:])
        if config.grad_tol > 0 and it + 1 >= config.smooth_window:
            recent = np.mean(trace.grad_norm[-config.smooth_window :])
            if recent < config.grad_tol:
                break
    return state, trace
