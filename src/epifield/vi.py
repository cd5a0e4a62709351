"""Mean-field variational inference over the unconstrained parameters.

The surrogate is a diagonal Gaussian N(mu, diag(sigma(rho))^2) on the
unconstrained vector; constrained parameters are its push-forward through
the slot transforms.  The objective minimized is the negative ELBO

    L(mu, rho) = -H[q] - E_q[log-lik + log-prior + log-Jacobian],

estimated by Monte Carlo with reparametrized draws x = mu + sigma * eps.
A score-function (black-box) gradient estimator is provided for variance
comparison.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import time
import traceback
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize
from scipy.special import expit

from .likelihood import NoiseParams
from .model import RegionParams
from .params import ParamVector, slots, softplus, softplus_inv
from .posterior import ModelContext

LOG_2PI_E = np.log(2.0 * np.pi * np.e)

# Adam's moment decay rates and denominator guard (Kingma & Ba 2015 defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


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
    max_iters: int = 5000
    n_samples: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be at least 1")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")
        if not self.step_size > 0.0:
            raise ValueError(f"step_size must be positive, got {self.step_size}")


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


def _evaluate(target, xs):
    """target.logpost_and_grad at each row of xs, in row order: a list of (value, gradient)."""
    return [target.logpost_and_grad(x) for x in xs]


def elbo_grad_reparam(state: VariationalState, target, n_samples, seed=0, eps=None, helpers=None):
    """Reparametrization-trick gradient of the objective.

    Entropy gradients are analytic (zero w.r.t. mu); data/prior terms chain
    the unconstrained log-posterior gradient through d x / d mu = 1 and
    d x / d rho = sigma'(rho) * eps.  Returns (elbo, grad_mu, grad_rho).

    The draws are evaluated one after another in this process, or, given
    `helpers` (a `_Helpers` started on this target), in contiguous blocks
    spread over the helper processes and this one.  Either way the values
    and gradients are summed in draw order, so both give the same bits.
    """
    if helpers is not None and helpers.target is not target:
        raise ValueError("helpers were started on another target")
    eps, xs = _draws(state, n_samples, seed, eps)
    sig_prime = expit(state.rho)
    results = _evaluate(target, xs) if helpers is None else helpers.evaluate(xs)
    vals = np.empty(len(xs))
    g_mu = np.zeros(state.dim)
    g_rho = np.zeros(state.dim)
    for s, (val, g) in enumerate(results):
        vals[s] = val
        g_mu += g
        g_rho += g * eps[s]
    n = len(xs)
    g_mu = -g_mu / n
    g_rho = -sig_prime / state.sigma - sig_prime * g_rho / n
    elbo = -gaussian_entropy(state.sigma) - float(np.mean(vals))
    return elbo, g_mu, g_rho


# Processes an Adam loop uses at most, itself and its helpers.  One helper is
# the only count whose speed and memory were measured (on 2 vCPUs); more stay
# unused until they are.
MAX_ELBO_PROCESSES = 2


def _helper_count(n_samples):
    """How many helpers an Adam loop of n_samples draws gets:
    min(usable CPUs, n_samples, MAX_ELBO_PROCESSES) - 1, or 0 where the `fork` start method
    or the CPU affinity call is missing, or in a daemonic process (a `multiprocessing.Pool`
    worker, say), which may not start any.  CPU quotas (cgroup `cpu.max`) are not counted."""
    if (not hasattr(os, "sched_getaffinity") or "fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon):
        return 0
    return min(len(os.sched_getaffinity(0)), n_samples, MAX_ELBO_PROCESSES) - 1


class _HelperTraceback(Exception):
    """The traceback of an error raised in a helper: the cause of its re-raise in the parent."""


def _portable(exc):
    """(exc, its traceback text), with exc replaced by a RuntimeError if it would not unpickle as itself."""
    text = traceback.format_exc()
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        exc = RuntimeError(f"{type(exc).__name__}: {exc}")
    return exc, text


def _serve(conn, target, parent_ends):
    """A helper's loop: answer each block of draws from the pipe until the parent closes it.

    An answer is (results, None), or (None, (error, traceback text)) when an evaluation raised.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt is the parent's to handle
    # Closing the inherited parent ends lets the parent's close reach this helper as EOF.
    for end in parent_ends:
        end.close()
    while True:
        try:
            xs = conn.recv()
        except EOFError:
            return
        try:
            reply = (_evaluate(target, xs), None)
        except Exception as exc:
            reply = (None, _portable(exc))
        try:
            conn.send(reply)
        except BrokenPipeError:
            return


def _exited(proc):
    """The error for a helper that went away without answering, naming its exit code."""
    proc.join(5.0)
    return RuntimeError(f"ELBO helper process {proc.pid} exited with code {proc.exitcode} without answering")


class _Helpers:
    """Forked processes that evaluate blocks of ELBO draws, each fed through its own pipe.

    Each helper evaluates the copy of `target` that existed when it was
    forked, so the target must be a pure function of x.  Used as a context
    manager: leaving it closes the pipes and joins the helpers.  With no
    helpers, `evaluate` is the in-process loop.
    """

    def __init__(self, target, n_helpers):
        self.target = target
        self._conns, self._procs = [], []
        try:
            for _ in range(n_helpers):
                fork = multiprocessing.get_context("fork")
                conn, child_end = fork.Pipe()
                self._conns.append(conn)
                proc = fork.Process(target=_serve, args=(child_end, target, list(self._conns)), daemon=True)
                proc.start()
                child_end.close()
                self._procs.append(proc)
        except BaseException:
            self.close()
            raise

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def evaluate(self, xs):
        """self.target.logpost_and_grad at each row of xs, in row order, like `_evaluate`.

        Helper i gets block i + 1 of len(helpers) + 1 contiguous blocks; this
        process evaluates block 0 meanwhile.  Every answer is read before an
        error is raised: this process's own, else the earliest helper's, with
        its own type.
        """
        blocks = np.array_split(xs, len(self._conns) + 1)
        for conn, proc, block in zip(self._conns, self._procs, blocks[1:]):
            try:
                conn.send(block)
            except OSError:
                raise _exited(proc) from None
        try:
            results = _evaluate(self.target, blocks[0])
        finally:
            replies = [self._receive(conn, proc) for conn, proc in zip(self._conns, self._procs)]
        for block_results, error in replies:
            if error is not None:
                exc, text = error
                raise exc from (_HelperTraceback(text) if text else None)
            results += block_results
        return results

    @staticmethod
    def _receive(conn, proc):
        """A helper's answer; one that exited without answering gives (None, (its error, None))."""
        try:
            return conn.recv()
        except EOFError:
            return None, (_exited(proc), None)

    def close(self):
        """Close the pipes, so the helpers exit, and join them; one still running after 5 s is killed."""
        for conn in self._conns:
            conn.close()
        for proc in self._procs:
            proc.join(5.0)
            if proc.exitcode is None:
                proc.kill()
                proc.join()


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
        self.t += 1
        self.m = ADAM_BETA1 * self.m + (1.0 - ADAM_BETA1) * grad
        self.v = ADAM_BETA2 * self.v + (1.0 - ADAM_BETA2) * grad**2
        mhat = self.m / (1.0 - ADAM_BETA1**self.t)
        vhat = self.v / (1.0 - ADAM_BETA2**self.t)
        self.x = self.x - self.cfg.step_size * mhat / (np.sqrt(vhat) + ADAM_EPS)
        return self.x


def default_initial_guess(ctx: ModelContext):
    """Order-of-magnitude starting point in unconstrained space."""
    start = float(ctx.day_grid[0])
    totals = np.maximum(ctx.y_obs.sum(axis=0), 1.0)
    regions = [RegionParams(t0=start - 10.0, N=1.5 * total, k=3.0, theta=10.0) for total in totals]
    theta = ParamVector.from_parts(regions, NoiseParams(tau_phi=1.0, lambda_phi=0.5, sigma_a=1.0, sigma_m=0.3))
    return ctx.transforms.inverse(theta.values)


_PENALTY = 1e12


def _mle_bounds(ctx):
    """Box constraints keeping exp/softplus slots out of overflow territory.

    Identity (t0) slots are limited to a generous window around the data.
    """
    lo = np.full(ctx.dim, -30.0)
    hi = np.full(ctx.dim, 30.0)
    t0 = slots(ctx.n_regions, "t0")
    lo[t0] = float(ctx.day_grid[0]) - 120.0
    hi[t0] = float(ctx.day_grid[-1])
    return list(zip(lo, hi))


def mle_fit(ctx: ModelContext, config: OptimizerConfig | None = None, x0=None):
    """Maximize log-likelihood + log-prior in unconstrained space.

    One bounded L-BFGS-B run with the analytic gradient, at most
    `config.max_iters` iterations.  Returns the final iterate and scipy's
    OptimizeResult, which says why the run stopped (`status`, `message`),
    after how many iterations and evaluations (`nit`, `nfev`), and at which
    objective (`fun`, the negated log-posterior).  Points where the
    covariance fails to factor (or the value overflows) get a large finite
    penalty so the line search backs off instead of crashing.
    """
    config = config or OptimizerConfig()
    if x0 is None:
        x0 = default_initial_guess(ctx)

    def objective(x):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            try:
                v, g = ctx.logpost_and_grad(x, include_jacobian=False)
            except (ValueError, np.linalg.LinAlgError):
                return _PENALTY, np.zeros_like(x)
        if not (np.isfinite(v) and np.all(np.isfinite(g))):
            return _PENALTY, np.zeros_like(x)
        return -v, -g

    x = np.asarray(x0, dtype=float)
    # L-BFGS-B clips a start outside the box, so only this check sees a bad one.
    if objective(x)[0] == _PENALTY:
        raise ValueError("non-finite objective or singular covariance at the MLE starting point")
    res = minimize(objective, x, jac=True, method="L-BFGS-B", bounds=_mle_bounds(ctx),
                   options={"maxiter": config.max_iters, "gtol": 1e-8, "ftol": 1e-15})
    return res.x, res


def fit_mfvi(ctx: ModelContext, config: OptimizerConfig | None = None, mu0=None, sigma0=0.01):
    """Run MFVI: MLE initialization then ADAM on the reparametrized ELBO.

    Fresh epsilon draws are taken each iteration, derived from
    (config.seed, iteration) so replays are bit-identical.  Raises
    DivergenceError after 10 consecutive non-finite ELBO estimates, as soon
    as an update makes the state non-finite (Adam cannot recover), or when
    the last iteration's ELBO is non-finite.

    After the MLE, min(usable CPUs, config.n_samples, MAX_ELBO_PROCESSES)
    - 1 helper processes are forked (Linux `fork` start method; at most one,
    as MAX_ELBO_PROCESSES is 2) and each iteration's draws are spread over
    them and this process; they are joined before the function returns or
    raises.  CPU quotas are not counted.  The result is bit-identical to
    evaluating every draw here, which happens with one usable CPU, with
    n_samples 1, without `fork`, or in a daemonic process.  Helpers evaluate
    forked copies of ctx, so `ctx.logpost_and_grad` must be a pure function
    of x (ModelContext's is), and since `fork` copies only the calling
    thread, no other thread of the process should run meanwhile.  An error a
    helper raises is re-raised here with its own type; a helper that exits
    without answering raises a RuntimeError naming its exit code.
    """
    config = config or OptimizerConfig()
    if mu0 is None:
        mu0, _ = mle_fit(ctx, config)
    state = VariationalState.around(mu0, sigma=sigma0)
    adam = Adam(np.concatenate([state.mu, state.rho]), config)
    trace = ElboTrace()
    d = state.dim
    bad_streak = 0
    with _Helpers(ctx, _helper_count(config.n_samples)) as helpers:
        t_start = time.perf_counter()
        for it in range(config.max_iters):
            eps = sample_epsilon(config.n_samples, d, seed=[config.seed, it])
            elbo, g_mu, g_rho = elbo_grad_reparam(state, ctx, config.n_samples, eps=eps, helpers=helpers)
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
    if bad_streak:
        raise DivergenceError(f"ELBO non-finite at the last {bad_streak} of {config.max_iters} iterations", trace)
    return state, trace
