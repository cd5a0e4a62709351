import numpy as np
import pytest
from scipy.optimize import minimize

import epifield.vi
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
from epifield.vi import _PENALTY, Adam, DivergenceError, _mle_bounds, default_initial_guess, gaussian_entropy, sample_epsilon

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

    def logpost(self, x, include_jacobian=None):
        x = float(np.asarray(x).ravel()[0])
        ll = -0.5 * np.sum((self.obs - x) ** 2) / self.noise_sd**2
        return ll - 0.5 * x**2 / self.prior_sd**2

    def logpost_and_grad(self, x, include_jacobian=None):
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
        expected = np.array([1.0, -2.0]) - 0.1 * g / (np.abs(g) + cfg.eps_adam)
        assert np.allclose(x, expected, rtol=1e-10)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(beta1=1.0)
        with pytest.raises(ValueError):
            OptimizerConfig(n_samples=0)


class TestMleFit:
    def test_noiseless_recovery(self):
        ctx, truth = make_context(n_regions=1, n_days=40, seed=21)
        # Replace observations with exact model predictions.
        y_true = ctx.predictions(truth)
        ctx = type(ctx)(graph=ctx.graph, day_grid=ctx.day_grid, y_obs=y_true,
                        incubation=ctx.incubation, prior=ctx.prior)
        xhat, trace = mle_fit(ctx)
        from epifield import ParamVector
        theta = ParamVector(values=ctx.transforms.forward(xhat), n_regions=1)
        y_fit = ctx.predictions(theta)
        rms = np.sqrt(np.mean((y_fit - y_true) ** 2)) / np.sqrt(np.mean(y_true**2))
        assert rms < 0.01

    def test_stationarity_and_monotone_trace(self):
        ctx, _ = make_context(n_regions=1, n_days=30, seed=22)
        xhat, trace = mle_fit(ctx)
        _, g = ctx.logpost_and_grad(xhat, include_jacobian=False)
        # Variance-like parameters can sit on the search box boundary (e.g.
        # tau -> 0), so stationarity applies to the projected gradient.
        from epifield.vi import _mle_bounds
        lo, hi = np.array(_mle_bounds(ctx)).T
        at_lo = np.isclose(xhat, lo) & (g < 0)
        at_hi = np.isclose(xhat, hi) & (g > 0)
        g = np.where(at_lo | at_hi, 0.0, g)
        scale = max(1.0, abs(ctx.logpost(xhat, include_jacobian=False)))
        assert np.linalg.norm(g) / scale < 1e-3
        # Smoothed (window up to 50) objective sequence is nondecreasing.
        if trace.size > 2:
            w = min(50, max(2, trace.size // 2))
            sm = np.convolve(trace, np.ones(w) / w, mode="valid")
            assert np.all(np.diff(sm) > -1e-6 * np.abs(sm[:-1]))

    def test_rejects_nonfinite_start(self):
        ctx, _ = make_context(n_regions=1, n_days=20, seed=23)
        bad = np.full(ctx.dim, 400.0)  # overflows exp slots
        with pytest.raises(ValueError):
            mle_fit(ctx, x0=bad)

    def test_each_point_is_evaluated_once(self, monkeypatch):
        ctx, _ = make_context(3, 60, seed=24)
        evals, results = [], []
        real_eval, real_minimize = type(ctx).logpost_and_grad, epifield.vi.minimize

        def counting_eval(self, x, include_jacobian=None):
            evals.append(1)
            return real_eval(self, x, include_jacobian)

        def recording_minimize(*args, **kwargs):
            results.append(real_minimize(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(type(ctx), "logpost_and_grad", counting_eval)
        monkeypatch.setattr(epifield.vi, "minimize", recording_minimize)
        mle_fit(ctx)
        # Each restart after the first starts where the one before it ended.
        assert len(evals) == sum(res.nfev for res in results) - (len(results) - 1)

    def test_matches_the_reevaluating_loop(self):
        ctx, _ = make_context(3, 60, seed=24)
        x, trace = mle_fit(ctx)
        x_ref, trace_ref = _reevaluating_mle_fit(ctx)
        assert x.tobytes() == x_ref.tobytes()
        assert trace.tobytes() == trace_ref.tobytes()


def _reevaluating_mle_fit(ctx, config=OptimizerConfig()):
    """mle_fit as it was before it remembered its last point: the start check, every
    callback and the restart evaluate the objective again."""
    trace = []

    def objective(x):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            try:
                v, g = ctx.logpost_and_grad(x, include_jacobian=False)
            except (ValueError, np.linalg.LinAlgError):
                return _PENALTY, np.zeros_like(x)
        if not (np.isfinite(v) and np.all(np.isfinite(g))):
            return _PENALTY, np.zeros_like(x)
        return -v, -g

    x = np.asarray(default_initial_guess(ctx), dtype=float)
    assert objective(x)[0] != _PENALTY
    options = {"maxiter": config.max_iters, "gtol": 1e-8, "ftol": 1e-15}
    for _ in range(2):
        res = minimize(objective, x, jac=True, method="L-BFGS-B", bounds=_mle_bounds(ctx),
                       callback=lambda xk: trace.append(-objective(xk)[0]), options=options)
        x = res.x
    return x, np.array(trace)


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
            def logpost_and_grad(self, x, include_jacobian=None):
                return np.nan, np.zeros_like(x)

        cfg = OptimizerConfig(max_iters=50, n_samples=2, seed=0)
        with pytest.raises(DivergenceError) as exc:
            fit_mfvi(Exploding(), cfg, mu0=np.zeros(3))
        assert len(exc.value.trace.iterations) >= 10

    def test_late_divergence_is_an_error(self):
        class LateNaN:
            """Finite for the first 2 of 5 iterations, NaN from then on."""

            calls = 0

            def logpost_and_grad(self, x, include_jacobian=None):
                self.calls += 1
                if self.calls > 2:
                    return np.nan, np.full_like(x, np.nan)
                return -0.5 * float(x @ x), -x

        cfg = OptimizerConfig(max_iters=5, n_samples=1, seed=0)
        with pytest.raises(DivergenceError) as exc:
            fit_mfvi(LateNaN(), cfg, mu0=np.zeros(3))
        assert len(exc.value.trace.iterations) == 3
        assert np.isfinite(exc.value.trace.elbo[:2]).all() and np.isnan(exc.value.trace.elbo[2])

    def test_trace_csv(self, tmp_path):
        ctx, _ = make_context(n_regions=1, n_days=20, seed=31)
        cfg = OptimizerConfig(max_iters=5, n_samples=2, seed=5)
        _, trace = fit_mfvi(ctx, cfg, mu0=default_initial_guess(ctx))
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "iteration,elbo,grad_norm,seconds,n_samples"
        assert len(path.read_text().splitlines()) == 6


class TestLoglikGradientCheck:
    def test_random_instance(self):
        ctx, _ = make_context(n_regions=3, n_days=20, seed=41)
        rng = np.random.default_rng(0)
        x = default_initial_guess(ctx) + 0.05 * rng.standard_normal(ctx.dim)
        assert loglik_gradient_max_relerr(ctx, x) < 1e-5
