import numpy as np
import pytest

from epifield import (
    ForecastEnsemble,
    VariationalState,
    crps,
    crps_ratio_and_fit,
    crps_samples,
    sample_ppt,
)
from epifield.forecast import _draw_unconstrained
from epifield.mcmc import ChainState
from epifield.vi import default_initial_guess, mle_fit

from conftest import make_context


def crps_bruteforce(samples, y, n_grid=20_000):
    """Numerical integral of (F_ens(x) - 1{x >= y})^2 dx on a fine grid."""
    samples = np.asarray(samples, dtype=float)
    lo = min(samples.min(), y) - 1.0
    hi = max(samples.max(), y) + 1.0
    x = np.linspace(lo, hi, n_grid)
    F = np.mean(samples[None, :] <= x[:, None], axis=1)
    H = (x >= y).astype(float)
    return np.trapezoid((F - H) ** 2, x)


class TestCrpsSamples:
    def test_degenerate_ensemble_is_absolute_error(self):
        assert crps_samples(np.full(20, 3.0), 5.0) == pytest.approx(2.0, abs=1e-12)
        assert crps_samples(np.full(7, -1.5), -1.5) == pytest.approx(0.0, abs=1e-12)

    def test_two_sample_hand_value(self):
        assert crps_samples(np.array([0.0, 2.0]), 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_matches_bruteforce_integration(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            samples = rng.normal(rng.uniform(-5, 5), rng.uniform(0.5, 3), size=rng.integers(5, 60))
            y = rng.normal(0, 4)
            assert crps_samples(samples, y) == pytest.approx(crps_bruteforce(samples, y), abs=1e-3)

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        s = rng.normal(size=30)
        assert crps_samples(s + 7.0, 1.0 + 7.0) == pytest.approx(crps_samples(s, 1.0), abs=1e-10)


class TestCrpsMatrix:
    def test_shapes_and_mean(self):
        rng = np.random.default_rng(2)
        ens = ForecastEnsemble(
            samples=rng.normal(10, 2, (40, 6, 3)),
            pushforward=np.full((40, 6, 3), 10.0),
            day_grid=np.arange(6.0),
        )
        obs = rng.normal(10, 2, (6, 3))
        c, C = crps(ens, obs)
        assert c.shape == (6, 3)
        assert np.allclose(C, c.mean(axis=0))

    def test_matches_per_cell_loop(self):
        rng = np.random.default_rng(6)
        for n_members in (2, 7, 50):
            samples = rng.normal(5.0, 3.0, (n_members, 9, 4))
            obs = rng.normal(5.0, 3.0, (9, 4))
            samples[:, :3] = np.round(samples[:, :3])  # ties
            obs[:2] = np.round(obs[:2])  # observations on a tied member
            samples[:, 3, :] = 2.5  # degenerate ensembles
            obs[3, :2] = 2.5
            ens = ForecastEnsemble(samples=samples, pushforward=samples, day_grid=np.arange(9.0))
            c, _ = crps(ens, obs)
            loop = np.array([[crps_bruteforce(samples[:, i, r], obs[i, r]) for r in range(4)] for i in range(9)])
            np.testing.assert_allclose(c, loop, rtol=0, atol=1e-3)

    def test_observations_line_up_from_row_zero(self):
        # 5 observed rows on an 8-row ensemble score rows 0-4.
        rng = np.random.default_rng(3)
        samples = rng.normal(0, 1, (20, 8, 2))
        ens = ForecastEnsemble(samples=samples, pushforward=np.zeros((20, 8, 2)), day_grid=np.arange(8.0))
        obs = rng.normal(0, 1, (5, 2))
        c, C = crps(ens, obs)
        head = ForecastEnsemble(samples=samples[:, :5], pushforward=np.zeros((20, 5, 2)), day_grid=np.arange(5.0))
        assert np.array_equal(c, crps(head, obs)[0]) and np.array_equal(C, c.mean(axis=0))


class TestRatioFit:
    def test_constant_ratio_zero_slope(self):
        T = np.array([10.0, 100.0, 1000.0])
        C = 0.05 * T
        fit = crps_ratio_and_fit(C, T)
        assert fit["slope"] == pytest.approx(0.0, abs=1e-12)
        assert fit["intercept"] == pytest.approx(np.log(0.05), abs=1e-12)

    def test_powerlaw_exact_recovery(self):
        T = np.array([20.0, 80.0, 400.0, 2500.0, 9000.0])
        rho = T**-0.28 * np.exp(1.1)
        fit = crps_ratio_and_fit(rho * T, T)
        assert fit["slope"] == pytest.approx(-0.28, abs=1e-10)
        assert fit["intercept"] == pytest.approx(1.1, abs=1e-10)

    def test_zero_total_regions_excluded(self):
        T = np.array([0.0, 50.0, 200.0])
        C = np.array([1.0, 2.0, 5.0])
        fit = crps_ratio_and_fit(C, T)
        assert np.isnan(fit["rho"][0])
        assert np.isfinite(fit["slope"])
        assert fit["not_fitted"] is None

    @pytest.mark.parametrize("T", [[0.0, 5.0], [5.0, 5.0]])
    def test_no_fit_without_two_distinct_totals(self, T):
        fit = crps_ratio_and_fit(np.array([1.0, 2.0]), np.array(T))
        assert fit["slope"] is None and fit["intercept"] is None
        assert fit["not_fitted"].startswith("fewer than 2 distinct case totals")


class TestEnsemble:
    def test_bands_are_ordered(self):
        rng = np.random.default_rng(4)
        ens = ForecastEnsemble(
            samples=rng.normal(0, 1, (200, 5, 2)),
            pushforward=rng.normal(0, 1, (200, 5, 2)),
            day_grid=np.arange(5.0),
        )
        b = ens.bands()
        assert np.all(b["p05"] <= b["p25"])
        assert np.all(b["p25"] <= b["p50"])
        assert np.all(b["p50"] <= b["p75"])
        assert np.all(b["p75"] <= b["p95"])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ForecastEnsemble(samples=np.zeros((3, 4, 2)), pushforward=np.zeros((3, 5, 2)), day_grid=np.arange(4.0))


class TestSamplePpt:
    def test_point_mass_zero_noise_reduces_to_predictions(self):
        ctx, truth = make_context(n_regions=2, n_days=20, seed=51)
        mu = ctx.transforms.inverse(truth.values)
        # Drive the noise amplitudes to (numerically) zero in constrained space.
        mu[-4] = -80.0  # tau
        mu[-2] = -80.0  # sigma_a
        mu[-1] = -80.0  # sigma_m
        state = VariationalState(mu=mu, rho=np.full(ctx.dim, -80.0))  # sigma ~ 0
        ens = sample_ppt(state, ctx, ctx.day_grid, n_samples=5, seed=0)
        assert np.allclose(ens.samples, ens.pushforward, atol=1e-9)
        assert np.allclose(ens.samples[0], ens.samples[1], atol=1e-9)

    def test_seed_determinism_and_shapes(self):
        ctx, _ = make_context(n_regions=2, n_days=15, seed=52)
        state = VariationalState.around(mle_fit(ctx)[0], sigma=0.02)
        grid = np.arange(1.0, 20.0)
        e1 = sample_ppt(state, ctx, grid, n_samples=30, seed=9)
        e2 = sample_ppt(state, ctx, grid, n_samples=30, seed=9)
        assert e1.samples.shape == (30, 19, 2)
        assert np.array_equal(e1.samples, e2.samples)

    def test_single_draws_match_the_batched_form(self):
        # The draws of the former (1, d)-batch form, kept here as the oracle.
        rng = np.random.default_rng(6)
        state = VariationalState(mu=rng.standard_normal(12), rho=rng.standard_normal(12))
        chain = ChainState(samples=rng.standard_normal((7, 12)), log_posts=np.zeros(7), acceptance_rate=0.3)
        new, old = np.random.default_rng(8), np.random.default_rng(8)
        for _ in range(5):
            eps = old.standard_normal((1, state.dim))
            assert np.array_equal(_draw_unconstrained(state, new), (state.mu[None, :] + state.sigma[None, :] * eps)[0])
            idx = old.integers(0, chain.samples.shape[0], size=1)
            assert np.array_equal(_draw_unconstrained(chain, new), chain.samples[idx][0])

    def test_requires_two_members(self):
        ctx, _ = make_context(n_regions=1, n_days=10, seed=53)
        state = VariationalState.around(default_initial_guess(ctx))
        with pytest.raises(ValueError):
            sample_ppt(state, ctx, ctx.day_grid, n_samples=1)

    @pytest.mark.parametrize("grid", [[0.0, 1.0, 1.0, 2.0], [2.0, 1.0, 0.0], [[0.0, 1.0], [2.0, 3.0]]],
                             ids=["repeated", "decreasing", "2-D"])
    def test_bad_day_grid_is_refused_as_bad_input(self, grid):
        # Refused before the draws, not retried into a covariance failure.
        ctx, _ = make_context(n_regions=2, n_days=10, seed=54)
        state = VariationalState.around(default_initial_guess(ctx))
        with pytest.raises(ValueError, match="day_grid") as info:
            sample_ppt(state, ctx, np.array(grid), n_samples=5)
        assert not isinstance(info.value, np.linalg.LinAlgError)
