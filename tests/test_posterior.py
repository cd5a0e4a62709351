"""The single log-posterior assembly, the all-region loop and the shared noise draw
against the separate value/gradient assemblies and per-caller loops they replaced."""

import importlib.resources

import numpy as np
import pytest

from epifield import model, posterior
from epifield import (
    IncubationParams,
    ModelContext,
    NoiseParams,
    QuadratureRule,
    load_region_graph,
    predict_daily,
    predict_daily_grad,
    synthetic_counts,
)
from epifield.likelihood import _batched_covariances, correlated_noise, log_likelihood, log_likelihood_and_grad
from epifield.params import ParamVector, log_prior
from epifield.posterior import predict_regions
from epifield.vi import default_initial_guess, mle_fit

from conftest import make_context, random_paramvector
from test_model import region_convolve


def _reference_predictions(ctx, theta):
    y = np.empty((ctx.day_grid.size, ctx.n_regions))
    for r in range(ctx.n_regions):
        y[:, r] = predict_daily(theta.region(r), ctx.incubation, ctx.day_grid, ctx.quad)
    return y


def _reference_predictions_and_grad(ctx, theta):
    y = np.empty((ctx.day_grid.size, ctx.n_regions))
    g = np.empty((ctx.day_grid.size, ctx.n_regions, 4))
    for r in range(ctx.n_regions):
        y[:, r], g[:, r, :] = predict_daily_grad(theta.region(r), ctx.incubation, ctx.day_grid, ctx.quad)
    return y, g


def reference_log_posterior(ctx, xhat, include_jacobian):
    """The separate value assembly that ModelContext.logpost replaced, kept as its oracle."""
    tf = ctx.transforms
    theta = ParamVector(values=tf.forward(xhat), n_regions=ctx.n_regions)
    y = _reference_predictions(ctx, theta)
    value = log_likelihood(ctx.y_obs, y, ctx.graph, theta.noise)
    value += log_prior(theta.values, ctx.prior, ctx.n_regions)[0]
    if include_jacobian:
        value += tf.jacobian(xhat)[1]
    return value


def reference_log_posterior_and_grad(ctx, xhat, include_jacobian):
    """The separate gradient assembly that ModelContext.logpost_and_grad replaced, kept as its oracle."""
    tf = ctx.transforms
    xhat = np.asarray(xhat, dtype=float)
    theta = ParamVector(values=tf.forward(xhat), n_regions=ctx.n_regions)
    y, y_grad = _reference_predictions_and_grad(ctx, theta)
    value, grad_model, grad_eta = log_likelihood_and_grad(ctx.y_obs, y, y_grad, ctx.graph, theta.noise)
    grad_constrained = np.concatenate([grad_model.ravel(), grad_eta])
    pv, pg = log_prior(theta.values, ctx.prior, ctx.n_regions)
    value += pv
    grad_constrained += pg
    fprime, log_jacobian, log_jacobian_grad = tf.jacobian(xhat)
    grad = grad_constrained * fprime
    if include_jacobian:
        value += log_jacobian
        grad += log_jacobian_grad
    return value, grad


def reference_synthetic_counts(truth, graph, inc, day_grid, seed=0, quad_nodes=64):
    """The synthetic generator with its own region loop and noise draw, kept as the oracle."""
    day_grid = np.asarray(day_grid, dtype=float)
    quad = QuadratureRule.gauss_legendre(quad_nodes)
    y = np.column_stack([predict_daily(truth.region(r), inc, day_grid, quad) for r in range(graph.n_regions)])
    eta = truth.noise
    if eta.tau_phi == 0 and eta.sigma_a == 0 and eta.sigma_m == 0:
        return y.copy(), y
    _, chol, _ = _batched_covariances(graph, eta, y)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(y.shape)
    noise = np.einsum("irs,is->ir", chol, z)
    return np.maximum(y + noise, 0.0), y


def _county_context(seed=3, n_days=107):
    fix = importlib.resources.files("epifield") / "fixtures"
    graph = load_region_graph(str(fix / "nm_regions.csv"), str(fix / "nm_edges.csv"))
    rng = np.random.default_rng(seed)
    day_grid = np.arange(1.0, n_days + 1.0)
    truth = random_paramvector(rng, graph.n_regions, day_start=day_grid[0])
    obs, _ = reference_synthetic_counts(truth, graph, IncubationParams(), day_grid, seed=seed)
    return ModelContext(graph=graph, day_grid=day_grid, y_obs=obs), truth


CASES = {
    "path3": lambda: make_context(n_regions=3, n_days=60, seed=5),
    "county33": _county_context,
}


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    return CASES[request.param]()


def _points(ctx, n=3, seed=0):
    rng = np.random.default_rng(seed)
    x0 = default_initial_guess(ctx)
    return [x0 + 0.05 * rng.standard_normal(ctx.dim) for _ in range(n)]


@pytest.mark.parametrize("include_jacobian", [True, False])
def test_logpost_matches_the_separate_assemblies(case, include_jacobian):
    ctx, _ = case
    for x in _points(ctx):
        value, grad = ctx.logpost_and_grad(x, include_jacobian)
        ref_value, ref_grad = reference_log_posterior_and_grad(ctx, x, include_jacobian)
        assert value == ref_value
        assert np.array_equal(grad, ref_grad)
        assert ctx.logpost(x, include_jacobian) == reference_log_posterior(ctx, x, include_jacobian)
        assert ctx.logpost(x, include_jacobian) == value


def test_predict_regions_matches_the_per_region_loops(case):
    ctx, truth = case
    assert np.array_equal(predict_regions(truth, ctx.incubation, ctx.day_grid, ctx.quad),
                          _reference_predictions(ctx, truth))
    y, g = predict_regions(truth, ctx.incubation, ctx.day_grid, ctx.quad, with_grad=True)
    y_ref, g_ref = _reference_predictions_and_grad(ctx, truth)
    assert np.array_equal(y, y_ref) and np.array_equal(g, g_ref)
    # and against the one-region kernel that the region block replaced
    table = model._window_table(ctx.incubation)
    for r in range(ctx.n_regions):
        y_r, g_r = region_convolve(truth.region(r), table, ctx.day_grid, ctx.quad, with_grad=True)
        assert np.array_equal(y[:, r], y_r) and np.array_equal(g[:, r], g_r)


@pytest.mark.parametrize("seed", [0, 7])
def test_synthetic_counts_matches_the_separate_draw(case, seed):
    ctx, truth = case
    obs, y = synthetic_counts(truth, ctx.graph, ctx.incubation, ctx.day_grid, seed=seed)
    ref_obs, ref_y = reference_synthetic_counts(truth, ctx.graph, ctx.incubation, ctx.day_grid, seed=seed)
    assert np.array_equal(obs, ref_obs) and np.array_equal(y, ref_y)


def test_correlated_noise_draws_only_after_the_factorisation():
    ctx, _ = make_context(n_regions=3, n_days=10, seed=2)
    flat = NoiseParams(tau_phi=0.0, lambda_phi=0.5, sigma_a=0.0, sigma_m=0.0)  # Sigma_i = 0
    rng = np.random.default_rng(9)
    before = rng.bit_generator.state
    with pytest.raises(np.linalg.LinAlgError):
        correlated_noise(ctx.graph, flat, ctx.y_obs, rng)
    assert rng.bit_generator.state == before


BAD_GRIDS = {"repeated": [1.0, 2.0, 2.0, 3.0, 4.0], "decreasing": [4.0, 3.0, 2.0, 1.0, 0.0],
             "2-D": [[1.0], [2.0], [3.0], [4.0], [5.0]]}


@pytest.mark.parametrize("name", sorted(BAD_GRIDS))
def test_bad_day_grid_is_refused_where_it_enters(name):
    ctx, _ = make_context(n_regions=2, n_days=5, seed=1)
    with pytest.raises(ValueError, match="day_grid"):
        ModelContext(graph=ctx.graph, day_grid=np.array(BAD_GRIDS[name]), y_obs=ctx.y_obs)


def test_mle_fit_on_a_bad_day_grid_is_bad_input():
    # Not the MLE's "non-finite objective ... at the MLE starting point".
    ctx, _ = make_context(n_regions=2, n_days=5, seed=1)
    with pytest.raises(ValueError, match="day_grid"):
        mle_fit(ModelContext(graph=ctx.graph, day_grid=[1, 2, 2, 3, 4], y_obs=ctx.y_obs))


def test_one_evaluation_checks_the_day_grid_once(monkeypatch):
    ctx, _ = make_context(n_regions=3, n_days=20, seed=4)
    calls = []
    real_check = model._checked_day_grid

    def counting_check(day_grid):
        calls.append(1)
        return real_check(day_grid)

    for module in (model, posterior):
        monkeypatch.setattr(module, "_checked_day_grid", counting_check)
    ctx.logpost_and_grad(default_initial_guess(ctx))
    assert len(calls) == 1
