import multiprocessing
import os
from types import SimpleNamespace

import numpy as np
import pytest

from epifield import (
    OptimizerConfig,
    VariationalState,
    elbo_estimate,
    elbo_grad_reparam,
    elbo_grad_score,
    fit_mfvi,
    mle_fit,
)
from epifield.checks import elbo_gradient_max_relerr, loglik_gradient_max_relerr
from epifield.helpers import helper_count
from epifield.vi import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    Adam,
    DivergenceError,
    _ElboHelpers,
    _mle_bounds,
    default_initial_guess,
    gaussian_entropy,
    sample_epsilon,
)

from conftest import make_context


class GaussianTarget:
    """1-D conjugate check: Gaussian likelihood + Gaussian prior, no transforms."""

    def __init__(self, obs, noise_sd=1.0, prior_sd=3.0):
        self.obs = np.asarray(obs, dtype=float)
        self.noise_sd = noise_sd
        self.prior_sd = prior_sd

    @property
    def posterior(self):
        prec = len(self.obs) / self.noise_sd**2 + 1.0 / self.prior_sd**2
        mean = (self.obs.sum() / self.noise_sd**2) / prec
        return mean, 1.0 / np.sqrt(prec)

    def logpost(self, x, include_jacobian=True):
        x = float(np.asarray(x).ravel()[0])
        ll = -0.5 * np.sum((self.obs - x) ** 2) / self.noise_sd**2
        return ll - 0.5 * x**2 / self.prior_sd**2

    def logpost_and_grad(self, x, include_jacobian=True):
        xv = float(np.asarray(x).ravel()[0])
        g = np.sum(self.obs - xv) / self.noise_sd**2 - xv / self.prior_sd**2
        return self.logpost(x), np.array([g])


class TestSampling:
    def test_seed_determinism(self):
        assert np.array_equal(sample_epsilon(10, 4, 42), sample_epsilon(10, 4, 42))
        assert not np.array_equal(sample_epsilon(10, 4, 42), sample_epsilon(10, 4, 43))

    def test_moments(self):
        eps = sample_epsilon(100_000, 1, 0).ravel()
        assert abs(eps.mean()) < 0.02
        assert abs(eps.var() - 1.0) < 0.03

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            sample_epsilon(0, 3, 0)


class TestElbo:
    def test_entropy_at_unit_sigma(self):
        d = 5
        assert gaussian_entropy(np.ones(d)) == pytest.approx(d / 2 * np.log(2 * np.pi * np.e))

    def test_estimate_is_negative_entropy_minus_mean(self):
        target = GaussianTarget(np.array([1.0, 2.0]))
        state = VariationalState(mu=np.array([0.5]), rho=np.array([0.0]))
        eps = sample_epsilon(16, 1, 3)
        xs = state.mu + state.sigma * eps.ravel()
        expected = -gaussian_entropy(state.sigma) - np.mean([target.logpost(np.array([x])) for x in xs])
        assert elbo_estimate(state, target, 16, eps=eps) == pytest.approx(expected, rel=1e-12)

    def test_conjugate_minimum(self):
        # Adam on the 1-D conjugate target must land on the analytic posterior.
        rng = np.random.default_rng(0)
        target = GaussianTarget(rng.normal(2.0, 1.0, 25))
        config = OptimizerConfig(step_size=0.05, max_iters=800, n_samples=64, seed=1)
        state, trace = fit_mfvi(target, config, mu0=np.array([0.0]), sigma0=0.5)
        mean, sd = target.posterior
        assert state.mu[0] == pytest.approx(mean, abs=0.03)
        assert state.sigma[0] == pytest.approx(sd, abs=0.03)

    def test_mc_error_shrinks_with_sample_size(self):
        target = GaussianTarget(np.array([1.0, 0.5, 1.5]))
        state = VariationalState(mu=np.array([1.0]), rho=np.array([0.0]))

        def stderr(n_s):
            vals = [elbo_estimate(state, target, n_s, seed=s) for s in range(50)]
            return np.std(vals)

        s_small, s_big = stderr(8), stderr(128)
        assert s_big < s_small / 2.5  # expect ~1/4 from 16x more samples


class TestReparamGradient:
    def test_degenerate_surrogate_matches_deterministic_gradient(self):
        target = GaussianTarget(np.array([3.0, 1.0]))
        mu = np.array([0.7])
        state = VariationalState(mu=mu, rho=np.array([-40.0]))  # sigma ~ 0
        eps = np.zeros((1, 1))
        _, g_mu, _ = elbo_grad_reparam(state, target, 1, eps=eps)
        _, g = target.logpost_and_grad(mu)
        assert g_mu[0] == pytest.approx(-g[0], rel=1e-10)

    def test_matches_crn_finite_differences(self):
        ctx, _ = make_context(n_regions=2, n_days=25, seed=5)
        x0 = default_initial_guess(ctx)
        state = VariationalState.around(x0, sigma=0.05)
        assert elbo_gradient_max_relerr(ctx, state, n_samples=4, seed=2) < 1e-4

    def test_region_permutation_symmetry(self):
        # Swapping the two regions of a symmetric path graph permutes the
        # per-region gradient blocks and leaves the noise block unchanged.
        ctx, truth = make_context(n_regions=2, n_days=25, seed=9)
        swapped_obs = ctx.y_obs[:, ::-1]
        ctx_swapped = type(ctx)(
            graph=ctx.graph, day_grid=ctx.day_grid, y_obs=swapped_obs,
            incubation=ctx.incubation, prior=ctx.prior,
        )
        x = default_initial_guess(ctx) + 0.03 * np.random.default_rng(1).standard_normal(ctx.dim)
        x_swapped = np.concatenate([x[4:8], x[:4], x[8:]])
        _, g = ctx.logpost_and_grad(x)
        _, g_swapped = ctx_swapped.logpost_and_grad(x_swapped)
        assert np.allclose(g_swapped, np.concatenate([g[4:8], g[:4], g[8:]]), rtol=1e-9)


class TestScoreGradient:
    def test_zero_mean_for_constant_target(self):
        class Constant:
            def logpost(self, x):
                return 4.2

        state = VariationalState(mu=np.zeros(2), rho=np.zeros(2))
        eps = sample_epsilon(100_000, 2, 7)
        _, g_mu, g_rho = elbo_grad_score(state, Constant(), eps.shape[0], eps=eps)
        # Entropy part of g_rho is deterministic; remove it before testing.
        sig_prime = 1.0 / (1.0 + np.exp(-state.rho))
        g_rho_score = g_rho + sig_prime / state.sigma
        se = 4.2 * np.sqrt(2.0) / state.sigma / np.sqrt(eps.shape[0])
        assert np.all(np.abs(g_mu) < 5 * 4.2 / state.sigma / np.sqrt(eps.shape[0]))
        assert np.all(np.abs(g_rho_score) < 5 * se)

    def test_mean_agrees_with_reparam(self):
        ctx, _ = make_context(n_regions=1, n_days=25, seed=13)
        state = VariationalState.around(mle_fit(ctx)[0], sigma=0.02)
        reps = 300
        g_rep = np.array([elbo_grad_reparam(state, ctx, 8, seed=s)[1] for s in range(reps)])
        g_sco = np.array([elbo_grad_score(state, ctx, 8, seed=10_000 + s)[1] for s in range(reps)])
        gap = np.abs(g_rep.mean(axis=0) - g_sco.mean(axis=0))
        joint_se = np.sqrt(g_rep.var(axis=0) / reps + g_sco.var(axis=0) / reps)
        assert np.all(gap < 5 * joint_se)

    def test_variance_dominates_reparam(self):
        ctx, _ = make_context(n_regions=1, n_days=25, seed=13)
        state = VariationalState.around(mle_fit(ctx)[0], sigma=0.02)
        reps = 100
        g_rep = np.array([elbo_grad_reparam(state, ctx, 8, seed=s)[1] for s in range(reps)])
        g_sco = np.array([elbo_grad_score(state, ctx, 8, seed=10_000 + s)[1] for s in range(reps)])
        assert np.all(g_sco.var(axis=0) >= 10.0 * g_rep.var(axis=0))


class TestAdam:
    def test_single_step_oracle(self):
        cfg = OptimizerConfig(step_size=0.1)
        adam = Adam(np.array([1.0, -2.0]), cfg)
        g = np.array([0.3, -0.7])
        x = adam.step(g)
        # With bias correction, the first step is -step * g / (|g| + eps).
        expected = np.array([1.0, -2.0]) - 0.1 * g / (np.abs(g) + ADAM_EPS)
        assert np.allclose(x, expected, rtol=1e-10)

    def test_second_step_uses_the_moment_constants(self):
        adam = Adam(np.zeros(2), OptimizerConfig(step_size=0.1))
        g1, g2 = np.array([0.3, -0.7]), np.array([-0.2, 0.5])
        x1 = adam.step(g1)
        x2 = adam.step(g2)
        m = (ADAM_BETA1 * (1 - ADAM_BETA1) * g1 + (1 - ADAM_BETA1) * g2) / (1 - ADAM_BETA1**2)
        v = (ADAM_BETA2 * (1 - ADAM_BETA2) * g1**2 + (1 - ADAM_BETA2) * g2**2) / (1 - ADAM_BETA2**2)
        assert np.allclose(x2, x1 - 0.1 * m / (np.sqrt(v) + ADAM_EPS), rtol=1e-10)

    def test_config_validation(self):
        assert set(OptimizerConfig.__dataclass_fields__) == {"step_size", "max_iters", "n_samples", "seed"}
        with pytest.raises(ValueError):
            OptimizerConfig(n_samples=0)
        for bad in ({"max_iters": 0}, {"step_size": 0.0}, {"step_size": -0.01}):
            with pytest.raises(ValueError, match=next(iter(bad))):
                OptimizerConfig(**bad)


class TestMleFit:
    def test_noiseless_recovery(self):
        ctx, truth = make_context(n_regions=1, n_days=40, seed=21)
        # Replace observations with exact model predictions.
        y_true = ctx.predictions(truth)
        ctx = type(ctx)(graph=ctx.graph, day_grid=ctx.day_grid, y_obs=y_true,
                        incubation=ctx.incubation, prior=ctx.prior)
        xhat, _ = mle_fit(ctx)
        from epifield import ParamVector
        theta = ParamVector(values=ctx.transforms.forward(xhat), n_regions=1)
        y_fit = ctx.predictions(theta)
        rms = np.sqrt(np.mean((y_fit - y_true) ** 2)) / np.sqrt(np.mean(y_true**2))
        assert rms < 0.01

    def test_stationarity(self):
        ctx, _ = make_context(n_regions=1, n_days=30, seed=22)
        xhat, _ = mle_fit(ctx)
        _, g = ctx.logpost_and_grad(xhat, include_jacobian=False)
        # Variance-like parameters can sit on the search box boundary (e.g.
        # tau -> 0), so stationarity applies to the projected gradient.
        lo, hi = np.array(_mle_bounds(ctx)).T
        at_lo = np.isclose(xhat, lo) & (g < 0)
        at_hi = np.isclose(xhat, hi) & (g > 0)
        g = np.where(at_lo | at_hi, 0.0, g)
        scale = max(1.0, abs(ctx.logpost(xhat, include_jacobian=False)))
        assert np.linalg.norm(g) / scale < 1e-3

    def test_reports_the_run(self):
        ctx, _ = make_context(3, 60, seed=24)
        xhat, res = mle_fit(ctx, OptimizerConfig(max_iters=5))
        # max_iters bounds the one run: it stops on the bound and says so.
        assert res.status == 1 and res.nit == 5
        assert "ITERATIONS" in res.message
        assert np.array_equal(res.x, xhat)
        assert res.fun == pytest.approx(-ctx.logpost(xhat, include_jacobian=False), rel=1e-12)
        _, converged = mle_fit(ctx)
        assert converged.success and converged.nit < OptimizerConfig().max_iters
        assert converged.fun < res.fun

    def test_rejects_nonfinite_start(self):
        ctx, _ = make_context(n_regions=1, n_days=20, seed=23)
        bad = np.full(ctx.dim, 400.0)  # overflows exp slots
        with pytest.raises(ValueError):
            mle_fit(ctx, x0=bad)

    def test_each_point_is_evaluated_once(self, monkeypatch):
        ctx, _ = make_context(3, 60, seed=24)
        evals = []
        real_eval = type(ctx).logpost_and_grad

        def counting_eval(self, x, include_jacobian=True):
            evals.append(1)
            return real_eval(self, x, include_jacobian)

        monkeypatch.setattr(type(ctx), "logpost_and_grad", counting_eval)
        _, res = mle_fit(ctx)
        # The start-point check's evaluation serves L-BFGS-B's first call, at the same x0.
        assert len(evals) == res.nfev

    def test_the_start_check_serves_the_first_evaluation(self, monkeypatch):
        ctx, _ = make_context(3, 60, seed=24)
        points = []
        real_eval = type(ctx).logpost_and_grad

        def recording_eval(self, x, include_jacobian=True):
            points.append(np.array(x))
            return real_eval(self, x, include_jacobian)

        monkeypatch.setattr(type(ctx), "logpost_and_grad", recording_eval)
        x0 = default_initial_guess(ctx)
        _, res = mle_fit(ctx, OptimizerConfig(max_iters=5), x0=x0)
        assert len(points) == res.nfev
        assert np.array_equal(points[0], x0)
        assert not any(np.array_equal(p, x0) for p in points[1:])


class TestFitMfvi:
    def test_seed_determinism(self):
        ctx, _ = make_context(n_regions=1, n_days=20, seed=31)
        cfg = OptimizerConfig(max_iters=20, n_samples=4, seed=5)
        mu0 = default_initial_guess(ctx)
        s1, t1 = fit_mfvi(ctx, cfg, mu0=mu0)
        s2, t2 = fit_mfvi(ctx, cfg, mu0=mu0)
        assert np.array_equal(s1.mu, s2.mu)
        assert np.array_equal(s1.rho, s2.rho)
        assert t1.elbo == t2.elbo

    def test_divergence_error_carries_trace(self):
        class Exploding:
            def logpost_and_grad(self, x, include_jacobian=True):
                return np.nan, np.zeros_like(x)

        cfg = OptimizerConfig(max_iters=50, n_samples=2, seed=0)
        with pytest.raises(DivergenceError) as exc:
            fit_mfvi(Exploding(), cfg, mu0=np.zeros(3))
        assert len(exc.value.trace.iterations) >= 10

    def test_late_divergence_is_an_error(self):
        class LateNaN:
            """Finite for the first 2 of 5 iterations, NaN from then on."""

            calls = 0

            def logpost_and_grad(self, x, include_jacobian=True):
                self.calls += 1
                if self.calls > 2:
                    return np.nan, np.full_like(x, np.nan)
                return -0.5 * float(x @ x), -x

        cfg = OptimizerConfig(max_iters=5, n_samples=1, seed=0)
        with pytest.raises(DivergenceError) as exc:
            fit_mfvi(LateNaN(), cfg, mu0=np.zeros(3))
        assert len(exc.value.trace.iterations) == 3
        assert np.isfinite(exc.value.trace.elbo[:2]).all() and np.isnan(exc.value.trace.elbo[2])

    def test_non_finite_last_elbo_is_an_error(self):
        class LateNaNValue:
            """A finite gradient throughout, but a NaN value from the 4th of 5 iterations on."""

            calls = 0

            def logpost_and_grad(self, x, include_jacobian=True):
                self.calls += 1
                return (np.nan if self.calls > 3 else -0.5 * float(x @ x)), -x

        # Two non-finite ELBOs in a row, not 10, and the state stays finite: still an error.
        cfg = OptimizerConfig(max_iters=5, n_samples=1, seed=0)
        with pytest.raises(DivergenceError, match="last 2 of 5 iterations") as exc:
            fit_mfvi(LateNaNValue(), cfg, mu0=np.zeros(3))
        assert len(exc.value.trace.iterations) == 5
        assert np.isnan(exc.value.trace.elbo[3:]).all()


class Quadratic:
    """A pure target, -x.x / 2, that calls fail() first in any process but the one that made it."""

    def __init__(self, fail):
        self.fail = fail
        self.pid = os.getpid()

    def logpost_and_grad(self, x, include_jacobian=True):
        if os.getpid() != self.pid:
            self.fail()
        return -0.5 * float(x @ x), -x


class TestHelpers:
    @pytest.mark.parametrize("n_regions, n_days", [(3, 40), (33, 107)])
    def test_bit_identical_to_the_in_process_loop(self, cpus, n_regions, n_days):
        ctx, _ = make_context(n_regions, n_days, seed=3)
        cfg = OptimizerConfig(max_iters=4, n_samples=10, seed=1)
        mu0 = default_initial_guess(ctx)
        cpus(1)
        oracle, oracle_trace = fit_mfvi(ctx, cfg, mu0=mu0)
        cpus(2)  # 1 helper: blocks of 5 and 5 draws
        state, trace = fit_mfvi(ctx, cfg, mu0=mu0)
        assert np.array_equal(state.mu, oracle.mu) and np.array_equal(state.rho, oracle.rho)
        assert trace.elbo == oracle_trace.elbo and trace.grad_norm == oracle_trace.grad_norm
        assert multiprocessing.active_children() == []

    def test_more_helpers_also_sum_in_draw_order(self):
        ctx, _ = make_context(3, 40, seed=3)
        state = VariationalState.around(default_initial_guess(ctx))
        oracle = elbo_grad_reparam(state, ctx, 10, seed=5)
        with _ElboHelpers(ctx, 3) as helpers:  # blocks of 3, 3, 2 and 2 draws
            got = elbo_grad_reparam(state, ctx, 10, seed=5, helpers=helpers)
            with pytest.raises(ValueError, match="another target"):
                elbo_grad_reparam(state, make_context(3, 40, seed=4)[0], 10, seed=5, helpers=helpers)
        assert got[0] == oracle[0] and all(np.array_equal(a, b) for a, b in zip(got[1:], oracle[1:]))
        assert multiprocessing.active_children() == []

    def test_helper_count_is_capped_at_the_measured_one(self, cpus):
        cpus(64)
        assert helper_count(200) == 1
        assert helper_count(1) == 0

    def test_no_process_is_left_after_divergence(self, cpus):
        class Exploding:
            def logpost_and_grad(self, x, include_jacobian=True):
                return np.nan, np.zeros_like(x)

        cpus(2)
        with pytest.raises(DivergenceError):
            fit_mfvi(Exploding(), OptimizerConfig(max_iters=50, n_samples=2, seed=0), mu0=np.zeros(3))
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("error", [np.linalg.LinAlgError, ValueError, FloatingPointError, RuntimeWarning])
    def test_a_helper_error_reaches_the_caller_with_its_type(self, cpus, error):
        def fail():
            raise error("raised in a helper")

        cpus(2)
        with pytest.raises(error, match="raised in a helper") as exc:
            fit_mfvi(Quadratic(fail), OptimizerConfig(max_iters=3, n_samples=4, seed=0), mu0=np.zeros(3))
        assert "in fail" in str(exc.value.__cause__)  # the helper's traceback
        assert multiprocessing.active_children() == []

    def test_a_helper_that_exits_without_answering_is_an_error(self, cpus):
        cpus(2)
        with pytest.raises(RuntimeError, match="exited with code 7 without answering"):
            fit_mfvi(Quadratic(lambda: os._exit(7)), OptimizerConfig(max_iters=3, n_samples=4, seed=0),
                     mu0=np.zeros(3))
        assert multiprocessing.active_children() == []

    def test_this_process_error_comes_before_a_helper_exit(self, cpus):
        class Both(Quadratic):
            def logpost_and_grad(self, x, include_jacobian=True):
                if os.getpid() == self.pid:
                    raise np.linalg.LinAlgError("raised in the parent")
                return super().logpost_and_grad(x)

        cpus(2)
        with pytest.raises(np.linalg.LinAlgError, match="raised in the parent"):
            fit_mfvi(Both(lambda: os._exit(7)), OptimizerConfig(max_iters=3, n_samples=4, seed=0), mu0=np.zeros(3))
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("n_cpus, n_samples, methods, daemon", [
        (1, 10, ["fork"], False), (4, 1, ["fork"], False), (4, 10, ["spawn"], False), (4, 10, ["fork"], True),
    ], ids=["one_cpu", "one_draw", "no_fork", "daemon"])
    def test_in_process_starts_no_process(self, cpus, monkeypatch, n_cpus, n_samples, methods, daemon):
        def no_fork():
            raise AssertionError("a process was forked")

        cpus(n_cpus)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: methods)
        monkeypatch.setattr(multiprocessing, "current_process", lambda: SimpleNamespace(daemon=daemon))
        monkeypatch.setattr(os, "fork", no_fork)
        state, _ = fit_mfvi(Quadratic(no_fork), OptimizerConfig(max_iters=3, n_samples=n_samples, seed=0),
                            mu0=np.ones(3))
        assert np.all(np.isfinite(state.mu))


class TestLoglikGradientCheck:
    def test_random_instance(self):
        ctx, _ = make_context(n_regions=3, n_days=20, seed=41)
        rng = np.random.default_rng(0)
        x = default_initial_guess(ctx) + 0.05 * rng.standard_normal(ctx.dim)
        assert loglik_gradient_max_relerr(ctx, x) < 1e-5
