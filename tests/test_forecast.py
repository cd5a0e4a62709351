import importlib.resources
import multiprocessing
import os

import numpy as np
import pytest

import epifield.forecast
from epifield import (
    ForecastEnsemble,
    IncubationParams,
    ModelContext,
    ParamVector,
    VariationalState,
    crps,
    crps_ratio_and_fit,
    crps_samples,
    load_region_graph,
    sample_ppt,
    synthetic_counts,
)
from epifield.forecast import MAX_RETRIES, _draw_unconstrained
from epifield.helpers import Helpers
from epifield.likelihood import correlated_noise
from epifield.mcmc import ChainState
from epifield.vi import default_initial_guess, mle_fit

from conftest import make_context, random_paramvector


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["samples", "pushforward"])
    def test_refuses_non_finite_values(self, name, bad):
        arrays = {"samples": np.zeros((3, 4, 2)), "pushforward": np.zeros((3, 4, 2))}
        arrays[name][2, 3, 1] = bad
        with pytest.raises(ValueError, match=f"non-finite value in the ensemble's {name}"):
            ForecastEnsemble(**arrays, day_grid=np.arange(4.0))


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

    def test_non_finite_draws_are_resampled(self):
        # sigma = 300 in every slot: many draws overflow in the transforms, the forward model or the
        # noise scale without failing the factorisation.  Each is drawn again, not kept.
        ctx, _ = make_context(2, 10, seed=1)
        state = VariationalState(mu=default_initial_guess(ctx), rho=np.full(ctx.dim, 300.0))
        ens = sample_ppt(state, ctx, ctx.day_grid, n_samples=50)
        assert np.all(np.isfinite(ens.samples)) and np.all(np.isfinite(ens.pushforward))

    def test_only_non_finite_draws_is_a_numerical_failure(self):
        ctx, _ = make_context(2, 10, seed=1)
        mu = default_initial_guess(ctx)
        mu[1] = 800.0  # N[0] = exp(800) overflows in every draw
        state = VariationalState.around(mu, sigma=1e-6)
        with pytest.raises(np.linalg.LinAlgError, match="11 times in a row"):
            sample_ppt(state, ctx, ctx.day_grid, n_samples=5)

    @pytest.mark.parametrize("grid", [[0.0, 1.0, 1.0, 2.0], [2.0, 1.0, 0.0], [[0.0, 1.0], [2.0, 3.0]]],
                             ids=["repeated", "decreasing", "2-D"])
    def test_bad_day_grid_is_refused_as_bad_input(self, grid):
        # Refused before the draws, not retried into a covariance failure.
        ctx, _ = make_context(n_regions=2, n_days=10, seed=54)
        state = VariationalState.around(default_initial_guess(ctx))
        with pytest.raises(ValueError, match="day_grid") as info:
            sample_ppt(state, ctx, np.array(grid), n_samples=5)
        assert not isinstance(info.value, np.linalg.LinAlgError)


def serial_sample_ppt(source, ctx, day_grid, n_samples, seed):
    """The plain loop that sample_ppt must match however it splits the members, kept as its oracle:
    member j is drawn from a generator on spawned stream j, and a failed draw is drawn again from it.
    Returns (samples, pushforward, the member index of each failed draw, in order)."""
    tf = ctx.transforms
    samples = np.empty((n_samples, day_grid.size, ctx.n_regions))
    pushforward = np.empty_like(samples)
    failed_at = []
    for j, stream in enumerate(np.random.SeedSequence(seed).spawn(n_samples)):
        rng = np.random.default_rng(stream)
        for _ in range(MAX_RETRIES + 1):
            xhat = _draw_unconstrained(source, rng)
            with np.errstate(over="ignore", invalid="ignore"):
                try:
                    theta = ParamVector(values=tf.forward(xhat), n_regions=ctx.n_regions)
                    y = ctx.predictions(theta, day_grid=day_grid)
                    noise = correlated_noise(ctx.graph, theta.noise, y, rng)
                    failed = not (np.all(np.isfinite(y)) and np.all(np.isfinite(noise)))
                except (ValueError, np.linalg.LinAlgError):
                    failed = True
            if not failed:
                break
            failed_at.append(j)
        else:
            raise np.linalg.LinAlgError(f"{MAX_RETRIES + 1} times in a row")
        pushforward[j] = y
        samples[j] = y + noise
    return samples, pushforward, failed_at


def _nm_context(seed=3, n_days=30):
    """A fit context on the 33-county NM fixture graph, with observations drawn from the model."""
    fix = importlib.resources.files("epifield") / "fixtures"
    graph = load_region_graph(str(fix / "nm_regions.csv"), str(fix / "nm_edges.csv"))
    day_grid = np.arange(1.0, n_days + 1.0)
    truth = random_paramvector(np.random.default_rng(seed), graph.n_regions, day_start=day_grid[0])
    obs, _ = synthetic_counts(truth, graph, IncubationParams(), day_grid, seed=seed)
    return ModelContext(graph=graph, day_grid=day_grid, y_obs=obs), truth


CONTEXTS = {"path3": lambda: make_context(3, 40, seed=3), "nm33": _nm_context}


def _source(kind, ctx, truth):
    """A variational state or a 20-draw chain around the truth, in unconstrained space."""
    mu = ctx.transforms.inverse(truth.values)
    if kind == "variational":
        return VariationalState.around(mu, sigma=0.05)
    rng = np.random.default_rng(7)
    return ChainState(samples=mu + 0.05 * rng.standard_normal((20, mu.size)), log_posts=np.zeros(20),
                      acceptance_rate=0.3)


@pytest.fixture
def started(monkeypatch):
    """The helper count of every Helpers that sample_ppt starts, in order."""
    counts = []

    class Counted(Helpers):
        def __init__(self, work, n_helpers):
            super().__init__(work, n_helpers)
            counts.append(len(self))

    monkeypatch.setattr(epifield.forecast, "Helpers", Counted)
    return counts


def _same_ensemble(ens, oracle):
    samples, pushforward, failed_at = oracle
    return (np.array_equal(ens.samples, samples) and np.array_equal(ens.pushforward, pushforward)
            and ens.resampled == len(failed_at))


class TestSamplePptHelpers:
    @pytest.mark.parametrize("kind", ["variational", "chain"])
    @pytest.mark.parametrize("context", sorted(CONTEXTS))
    @pytest.mark.parametrize("n_helpers", [1, 3])
    def test_bit_identical_to_the_one_by_one_loop(self, cpus, monkeypatch, started, context, kind, n_helpers):
        ctx, truth = CONTEXTS[context]()
        source = _source(kind, ctx, truth)
        grid = np.arange(0.0, ctx.day_grid.size + 14.0)
        if n_helpers == 1:
            cpus(2)  # blocks of 6 and 5 members
        else:
            monkeypatch.setattr(epifield.forecast, "helper_count", lambda n: 3)  # blocks of 3, 3, 3 and 2
        ens = sample_ppt(source, ctx, grid, n_samples=11, seed=4)
        assert started == [n_helpers]
        assert _same_ensemble(ens, serial_sample_ppt(source, ctx, grid, 11, 4))
        assert multiprocessing.active_children() == []

    @staticmethod
    def _rho_300():
        """sigma = 300 in every slot: many draws fail, in both 25-member blocks of a 50-member ensemble."""
        ctx, _ = make_context(2, 10, seed=1)
        return ctx, VariationalState(mu=default_initial_guess(ctx), rho=np.full(ctx.dim, 300.0))

    @pytest.mark.parametrize("n_cpus", [1, 2])
    def test_failed_draws_in_both_blocks_are_redrawn_from_their_own_members_streams(self, cpus, started, n_cpus):
        ctx, state = self._rho_300()
        oracle = serial_sample_ppt(state, ctx, ctx.day_grid, 50, 0)
        assert oracle[2] == [6, 6, 11, 11, 12, 13, 17, 17, 20, 32, 38, 47, 49]
        cpus(n_cpus)
        ens = sample_ppt(state, ctx, ctx.day_grid, n_samples=50, seed=0)
        assert started == [n_cpus - 1]
        assert ens.resampled == 13 and _same_ensemble(ens, oracle)
        assert multiprocessing.active_children() == []

    def test_the_calling_process_draws_only_block_zero(self, cpus, monkeypatch):
        # An early failed draw leaves the helper's block to the helper: this process draws
        # its own 25 members and their redraws, not the rest of the ensemble.
        ctx, state = self._rho_300()
        failed_at = serial_sample_ppt(state, ctx, ctx.day_grid, 50, 0)[2]
        parent, real, calls = os.getpid(), epifield.forecast._draw_member, []

        def counted(*args):
            if os.getpid() == parent:
                calls.append(1)
            return real(*args)

        monkeypatch.setattr(epifield.forecast, "_draw_member", counted)
        cpus(2)
        ens = sample_ppt(state, ctx, ctx.day_grid, n_samples=50, seed=0)
        assert len(calls) == 25 + sum(j < 25 for j in failed_at) == 34
        cpus(1)
        alone = sample_ppt(state, ctx, ctx.day_grid, n_samples=50, seed=0)
        assert np.array_equal(ens.samples, alone.samples) and np.array_equal(ens.pushforward, alone.pushforward)
        assert ens.resampled == alone.resampled == 13

    def test_only_non_finite_draws_is_a_numerical_failure_with_a_helper(self, cpus, started):
        ctx, _ = make_context(2, 10, seed=1)
        mu = default_initial_guess(ctx)
        mu[1] = 800.0  # N[0] = exp(800) overflows in every draw
        cpus(2)
        with pytest.raises(np.linalg.LinAlgError, match="11 times in a row"):
            sample_ppt(VariationalState.around(mu, sigma=1e-6), ctx, ctx.day_grid, n_samples=5)
        assert started == [1]
        assert multiprocessing.active_children() == []

    def test_one_cpu_forks_nothing(self, cpus, monkeypatch):
        def no_fork():
            raise AssertionError("a process was forked")

        ctx, truth = make_context(3, 20, seed=3)
        cpus(1)
        monkeypatch.setattr(os, "fork", no_fork)
        ens = sample_ppt(_source("variational", ctx, truth), ctx, ctx.day_grid, n_samples=6, seed=2)
        assert np.all(np.isfinite(ens.samples))

    @pytest.mark.parametrize("error", [FloatingPointError, KeyError])
    def test_a_helper_error_reaches_the_caller_with_its_type(self, cpus, monkeypatch, error):
        parent = os.getpid()

        def noise_or_fail(*args):
            if os.getpid() != parent:
                raise error("raised in a helper")
            return correlated_noise(*args)

        ctx, truth = make_context(3, 20, seed=3)
        cpus(2)
        monkeypatch.setattr(epifield.forecast, "correlated_noise", noise_or_fail)
        with pytest.raises(error, match="raised in a helper") as exc:
            sample_ppt(_source("variational", ctx, truth), ctx, ctx.day_grid, n_samples=6, seed=2)
        assert "in noise_or_fail" in str(exc.value.__cause__)  # the helper's traceback
        assert multiprocessing.active_children() == []
