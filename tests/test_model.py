import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import digamma, gammaln
from scipy.stats import lognorm

from epifield import (
    IncubationParams,
    QuadratureRule,
    RegionParams,
    incubation_cdf,
    infection_rate,
    predict_daily,
    predict_daily_grad,
)
from epifield.model import _day_quadrature, incubation_pdf, infection_rate_grad

QUAD = QuadratureRule.gauss_legendre(64)


def trapezoid_prediction(p, inc, day_grid, n=100_000):
    """Dense trapezoid oracle for the daily convolution integral."""
    out = np.empty(len(day_grid))
    for i, t in enumerate(day_grid):
        if t <= p.t0:
            out[i] = 0.0
            continue
        tau = np.linspace(p.t0, t, n)
        integrand = infection_rate(tau, p) * (
            incubation_cdf(t - tau, inc) - incubation_cdf(t - 1.0 - tau, inc)
        )
        out[i] = p.N * np.trapezoid(integrand, tau)
    return out


class TestInfectionRate:
    def test_zero_at_onset(self):
        p = RegionParams(t0=3.0, N=10.0, k=2.5, theta=4.0)
        assert infection_rate(3.0, p) == 0.0
        assert infection_rate(2.0, p) == 0.0

    def test_closed_form_value(self):
        # k=2, theta=1, t - t0 = 1: density is exactly e^{-1}
        p = RegionParams(t0=0.0, N=1.0, k=2.0, theta=1.0)
        assert infection_rate(1.0, p) == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_normalization(self):
        p = RegionParams(t0=-4.0, N=1.0, k=3.3, theta=6.0)
        t = np.linspace(p.t0, p.t0 + 500.0, 400_001)
        mass = np.trapezoid(infection_rate(t, p), t)
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_grad_matches_finite_differences(self):
        p = RegionParams(t0=-5.0, N=1.0, k=2.7, theta=5.0)
        t = np.array([1.0, 4.0, 20.0])
        f, d0, dk, dth = infection_rate_grad(t, p)
        h = 1e-6
        fd0 = (infection_rate(t, RegionParams(p.t0 + h, p.N, p.k, p.theta))
               - infection_rate(t, RegionParams(p.t0 - h, p.N, p.k, p.theta))) / (2 * h)
        fdk = (infection_rate(t, RegionParams(p.t0, p.N, p.k + h, p.theta))
               - infection_rate(t, RegionParams(p.t0, p.N, p.k - h, p.theta))) / (2 * h)
        fdth = (infection_rate(t, RegionParams(p.t0, p.N, p.k, p.theta + h))
                - infection_rate(t, RegionParams(p.t0, p.N, p.k, p.theta - h))) / (2 * h)
        assert np.allclose(f, infection_rate(t, p))
        assert np.allclose(d0, fd0, rtol=1e-6)
        assert np.allclose(dk, fdk, rtol=1e-6)
        assert np.allclose(dth, fdth, rtol=1e-6)

    @given(
        k=st.floats(2.0, 8.0),
        theta=st.floats(0.5, 20.0),
        t=st.floats(-10.0, 100.0),
    )
    def test_nonnegative_everywhere(self, k, theta, t):
        p = RegionParams(t0=0.0, N=1.0, k=k, theta=theta)
        assert infection_rate(t, p) >= 0.0

    def test_rejects_invalid_params(self):
        with pytest.raises(ValueError):
            RegionParams(t0=0.0, N=-1.0, k=3.0, theta=5.0)
        with pytest.raises(ValueError):
            RegionParams(t0=0.0, N=1.0, k=1.5, theta=5.0)
        with pytest.raises(ValueError):
            RegionParams(t0=0.0, N=1.0, k=3.0, theta=1e-3)


class TestIncubationCdf:
    def test_median(self):
        inc = IncubationParams(mu=1.621, sigma=0.418)
        assert incubation_cdf(np.exp(1.621), inc) == pytest.approx(0.5, abs=1e-12)

    def test_left_limit(self):
        inc = IncubationParams()
        assert incubation_cdf(0.0, inc) == 0.0
        assert incubation_cdf(-5.0, inc) == 0.0

    def test_ten_day_value_vs_scipy(self):
        inc = IncubationParams(mu=1.621, sigma=0.418)
        expected = lognorm.cdf(10.0, s=inc.sigma, scale=np.exp(inc.mu))
        assert incubation_cdf(10.0, inc) == pytest.approx(expected, abs=1e-12)
        assert incubation_cdf(10.0, inc) == pytest.approx(0.9485, abs=1e-3)

    def test_pdf_is_cdf_derivative(self):
        inc = IncubationParams()
        t = np.linspace(0.5, 25.0, 40)
        h = 1e-6
        fd = (incubation_cdf(t + h, inc) - incubation_cdf(t - h, inc)) / (2 * h)
        assert np.allclose(incubation_pdf(t, inc), fd, rtol=1e-7)

    @given(a=st.floats(0.01, 60.0), b=st.floats(0.01, 60.0))
    def test_monotone(self, a, b):
        inc = IncubationParams()
        lo, hi = min(a, b), max(a, b)
        assert incubation_cdf(lo, inc) <= incubation_cdf(hi, inc)


class TestQuadrature:
    def test_weights_sum_to_interval(self):
        p = RegionParams(t0=-3.0, N=1.0, k=3.0, theta=5.0)
        grid = np.array([-1.0, 4.0, 11.0])
        _, half, _, active = _day_quadrature(p, grid, QUAD)
        assert active.all()
        assert np.allclose(half * QUAD.weights.sum(), grid - p.t0, rtol=1e-12)

    def test_polynomial_exactness(self):
        # n-point Gauss-Legendre integrates degree 2n-1 exactly.
        quad = QuadratureRule.gauss_legendre(16)
        p = RegionParams(t0=0.0, N=1.0, k=3.0, theta=5.0)
        grid = np.array([0.5, 2.0, 7.0])
        tau, half, c, _ = _day_quadrature(p, grid, quad)
        assert np.allclose(tau, p.t0 + 2.0 * half[:, None] * c, rtol=1e-14)
        val = half * (tau**7 @ quad.weights)
        assert np.allclose(val, grid**8 / 8.0, rtol=1e-12)

    def test_minimum_nodes_enforced(self):
        with pytest.raises(ValueError):
            QuadratureRule.gauss_legendre(8)

    def test_day_grid_must_increase(self):
        p = RegionParams(t0=0.0, N=1.0, k=3.0, theta=5.0)
        with pytest.raises(ValueError):
            _day_quadrature(p, np.array([1.0, 1.0, 2.0]), QUAD)


class TestPredictDaily:
    def test_zero_amplitude_limit(self):
        # Linear in N: predictions scale exactly with amplitude.
        inc = IncubationParams()
        grid = np.arange(1.0, 30.0)
        p1 = RegionParams(t0=-5.0, N=1.0, k=3.0, theta=6.0)
        p2 = RegionParams(t0=-5.0, N=750.0, k=3.0, theta=6.0)
        y1 = predict_daily(p1, inc, grid, QUAD)
        assert np.allclose(predict_daily(p2, inc, grid, QUAD), 750.0 * y1, rtol=1e-12)
        assert np.all(y1 >= 0)

    def test_days_before_onset_are_zero(self):
        inc = IncubationParams()
        p = RegionParams(t0=10.0, N=100.0, k=3.0, theta=5.0)
        y = predict_daily(p, inc, np.arange(1.0, 11.0), QUAD)
        assert np.all(y == 0.0)

    def test_matches_dense_trapezoid(self):
        inc = IncubationParams()
        rng = np.random.default_rng(3)
        p = RegionParams(t0=-7.0, N=900.0, k=3.4, theta=8.0)
        grid = np.arange(1.0, 41.0)
        y = predict_daily(p, inc, grid, QUAD)
        oracle = trapezoid_prediction(p, inc, grid)
        assert np.max(np.abs(y - oracle) / np.maximum(oracle, 1e-9 * oracle.max())) < 1e-6

    def test_total_mass_equals_N(self):
        inc = IncubationParams()
        p = RegionParams(t0=0.0, N=1234.0, k=2.5, theta=9.0)
        grid = np.arange(1.0, 3001.0)
        total = predict_daily(p, inc, grid, QUAD).sum()
        assert total == pytest.approx(p.N, rel=1e-3)


class TestPredictDailyGrad:
    def test_N_partial_is_linear(self):
        inc = IncubationParams()
        p = RegionParams(t0=-6.0, N=400.0, k=3.0, theta=7.0)
        grid = np.arange(1.0, 25.0)
        y, g = predict_daily_grad(p, inc, grid, QUAD)
        assert np.allclose(g[:, 1], y / p.N, rtol=1e-12)

    def test_all_partials_match_finite_differences(self):
        inc = IncubationParams()
        rng = np.random.default_rng(7)
        grid = np.arange(1.0, 35.0)
        for _ in range(5):
            p = RegionParams(
                t0=-rng.uniform(3, 12), N=rng.uniform(100, 1500),
                k=rng.uniform(2.1, 5.0), theta=rng.uniform(3, 12),
            )
            _, g = predict_daily_grad(p, inc, grid, QUAD)
            h = 1e-5
            for j, attr in enumerate(("t0", "N", "k", "theta")):
                kw = dict(t0=p.t0, N=p.N, k=p.k, theta=p.theta)
                hi, lo = dict(kw), dict(kw)
                hi[attr] += h
                lo[attr] -= h
                fd = (predict_daily(RegionParams(**hi), inc, grid, QUAD)
                      - predict_daily(RegionParams(**lo), inc, grid, QUAD)) / (2 * h)
                denom = np.maximum(np.abs(fd), 1e-3 * np.max(np.abs(fd)) + 1e-12)
                assert np.max(np.abs(g[:, j] - fd) / denom) < 1e-5, attr

    def test_t0_partial_zero_before_onset(self):
        inc = IncubationParams()
        p = RegionParams(t0=50.0, N=100.0, k=3.0, theta=5.0)
        _, g = predict_daily_grad(p, inc, np.arange(1.0, 20.0), QUAD)
        assert np.all(g == 0.0)


def _reference_day_quadrature(p, day_grid, quad):
    day_grid = np.asarray(day_grid, dtype=float)
    active = day_grid > p.t0
    b = np.where(active, day_grid, p.t0 + 1.0)
    half = 0.5 * (b - p.t0)
    tau = p.t0 + half[:, None] * (quad.nodes[None, :] + 1.0)
    w = half[:, None] * quad.weights[None, :]
    return tau, w, active


def _reference_rate_grad(t, p):
    u = t - p.t0
    pos = u > 0
    us = np.where(pos, u, 1.0)
    log_f = -p.k * np.log(p.theta) + (p.k - 1.0) * np.log(us) - us / p.theta - gammaln(p.k)
    f = np.where(pos, np.exp(log_f), 0.0)
    df_dt0 = np.where(pos, f * (1.0 / p.theta - (p.k - 1.0) / us), 0.0)
    df_dk = np.where(pos, f * (np.log(us) - np.log(p.theta) - digamma(p.k)), 0.0)
    df_dtheta = np.where(pos, f * (us / p.theta**2 - p.k / p.theta), 0.0)
    return f, df_dt0, df_dk, df_dtheta


def _reference_window(tau, day_grid, inc):
    day = np.asarray(day_grid, dtype=float)[:, None]
    return incubation_cdf(day - tau, inc) - incubation_cdf(day - 1.0 - tau, inc)


def reference_predict_daily(p, inc, day_grid, quad):
    """The separate value kernel that predict_daily replaced, kept as its oracle."""
    tau, w, active = _reference_day_quadrature(p, day_grid, quad)
    f = _reference_rate_grad(tau, p)[0]
    ftil = _reference_window(tau, day_grid, inc)
    y = p.N * np.sum(w * f * ftil, axis=1)
    return np.where(active, np.maximum(y, 0.0), 0.0)


def reference_predict_daily_grad(p, inc, day_grid, quad):
    """The separate gradient kernel that predict_daily_grad replaced, kept as its oracle."""
    day_grid = np.asarray(day_grid, dtype=float)
    tau, w, active = _reference_day_quadrature(p, day_grid, quad)
    f, df_dt0, df_dk, df_dtheta = _reference_rate_grad(tau, p)
    ftil = _reference_window(tau, day_grid, inc)
    y = p.N * np.sum(w * f * ftil, axis=1)
    grad = np.empty((day_grid.size, 4))
    b = np.where(active, day_grid, p.t0 + 1.0)
    c = (tau - p.t0) / (b - p.t0)[:, None]
    dtau_dt0 = 1.0 - c
    df_dtau = -df_dt0
    day = day_grid[:, None]
    dftil_dtau = -(incubation_pdf(day - tau, inc) - incubation_pdf(day - 1.0 - tau, inc))
    d_dt0 = (
        -np.sum(w * f * ftil, axis=1) / (b - p.t0)
        + np.sum(w * (df_dtau * dtau_dt0 + df_dt0) * ftil, axis=1)
        + np.sum(w * f * dftil_dtau * dtau_dt0, axis=1)
    )
    grad[:, 0] = p.N * d_dt0
    grad[:, 1] = np.sum(w * f * ftil, axis=1)
    grad[:, 2] = p.N * np.sum(w * df_dk * ftil, axis=1)
    grad[:, 3] = p.N * np.sum(w * df_dtheta * ftil, axis=1)
    grad[~active] = 0.0
    return np.where(active, np.maximum(y, 0.0), 0.0), grad


class TestKernelMatchesReference:
    """The shared value/gradient kernel against the two kernels it replaced."""

    @staticmethod
    def _cases():
        rng = np.random.default_rng(20)
        for grid in (np.arange(1.0, 61.0), np.arange(1.0, 122.0)):
            for _ in range(12):
                # t0 up to 40 puts the first days at or before onset.
                yield grid, RegionParams(
                    t0=rng.uniform(-20.0, 40.0), N=rng.uniform(10.0, 5000.0),
                    k=rng.uniform(2.0, 8.0), theta=rng.uniform(0.5, 20.0),
                )

    def test_matches_reference_kernels(self):
        inc = IncubationParams()
        inactive_days = 0
        for grid, p in self._cases():
            inactive_days += int(np.sum(grid <= p.t0))
            y_ref, g_ref = reference_predict_daily_grad(p, inc, grid, QUAD)
            assert np.array_equal(reference_predict_daily(p, inc, grid, QUAD), y_ref)
            y, g = predict_daily_grad(p, inc, grid, QUAD)
            np.testing.assert_allclose(y, y_ref, rtol=1e-12, atol=0.0)
            # Partials change sign, so entries near zero are compared at their column's scale.
            assert np.all(np.abs(g - g_ref) <= 1e-12 * (np.abs(g_ref) + np.abs(g_ref).max(axis=0)))
            assert np.all(g[grid <= p.t0] == 0.0)
        assert inactive_days > 0

    def test_value_is_the_gradient_paths_y(self):
        inc = IncubationParams()
        for grid, p in self._cases():
            assert np.array_equal(predict_daily(p, inc, grid, QUAD), predict_daily_grad(p, inc, grid, QUAD)[0])


@settings(max_examples=25, deadline=None)
@given(
    t0=st.floats(-15.0, 0.0),
    N=st.floats(10.0, 5000.0),
    k=st.floats(2.05, 7.0),
    theta=st.floats(1.0, 15.0),
)
def test_predictions_always_finite_nonnegative(t0, N, k, theta):
    inc = IncubationParams()
    p = RegionParams(t0=t0, N=N, k=k, theta=theta)
    y = predict_daily(p, inc, np.arange(1.0, 50.0), QUAD)
    assert np.all(np.isfinite(y))
    assert np.all(y >= 0.0)
