import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import digamma, erfc, gammaln
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
from epifield import model
from epifield.model import _day_quadrature, _incubation_window, _window_table, incubation_pdf, infection_rate_grad

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


def _erfc_window(tau, day_grid, inc):
    """The window G(r) = F_inc(r) - F_inc(r - 1) and dG/dr at r = t_i - tau, from the CDF and pdf."""
    r = np.asarray(day_grid, dtype=float)[:, None] - tau
    return (incubation_cdf(r, inc) - incubation_cdf(r - 1.0, inc),
            incubation_pdf(r, inc) - incubation_pdf(r - 1.0, inc))


def _complement_window(tau, day_grid, inc):
    """_erfc_window with G = S(r - 1) - S(r) from the survival function S = 0.5 erfc(+z),
    exact in the upper tail where the CDF form cancels two values near 1."""
    r = np.asarray(day_grid, dtype=float)[:, None] - tau

    def sf(t):
        ts = np.where(t > 0, t, 1.0)
        return np.where(t > 0, 0.5 * erfc((np.log(ts) - inc.mu) / (inc.sigma * np.sqrt(2.0))), 1.0)

    return sf(r - 1.0) - sf(r), incubation_pdf(r, inc) - incubation_pdf(r - 1.0, inc)


def _table_window(tau, day_grid, inc):
    """The model's tabulated window, so that the reference kernels pin the convolution algebra."""
    return _incubation_window(tau, day_grid, inc, with_grad=True)


def reference_predict_daily(p, inc, day_grid, quad, window=_table_window):
    """The separate value kernel that predict_daily replaced, kept as its oracle."""
    tau, w, active = _reference_day_quadrature(p, day_grid, quad)
    f = _reference_rate_grad(tau, p)[0]
    ftil = window(tau, day_grid, inc)[0]
    y = p.N * np.sum(w * f * ftil, axis=1)
    return np.where(active, np.maximum(y, 0.0), 0.0)


def reference_predict_daily_grad(p, inc, day_grid, quad, window=_table_window):
    """The separate gradient kernel that predict_daily_grad replaced, kept as its oracle."""
    day_grid = np.asarray(day_grid, dtype=float)
    tau, w, active = _reference_day_quadrature(p, day_grid, quad)
    f, df_dt0, df_dk, df_dtheta = _reference_rate_grad(tau, p)
    ftil, dftil_dr = window(tau, day_grid, inc)
    y = p.N * np.sum(w * f * ftil, axis=1)
    grad = np.empty((day_grid.size, 4))
    b = np.where(active, day_grid, p.t0 + 1.0)
    c = (tau - p.t0) / (b - p.t0)[:, None]
    dtau_dt0 = 1.0 - c
    df_dtau = -df_dt0
    dftil_dtau = -dftil_dr
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


def _table_end(inc):
    """r_max: exp(mu + 8.5 sigma) + 1 rounded up to a whole 1/32-day cell."""
    return np.ceil(32.0 * (np.exp(inc.mu + 8.5 * inc.sigma) + 1.0)) / 32.0


def _criterion_2_cases(seed, n):
    """Parameter sets drawn as in acceptance criterion 2, on its 40-day grid."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        yield RegionParams(
            t0=-rng.uniform(2.0, 15.0), N=rng.uniform(50.0, 5000.0),
            k=rng.uniform(2.05, 6.0), theta=rng.uniform(1.0, 15.0),
        )


class TestWindowTable:
    """The tabulated window against incubation_cdf / incubation_pdf, its source and oracle."""

    INCUBATIONS = (IncubationParams(), IncubationParams(mu=1.0, sigma=0.6), IncubationParams(mu=2.2, sigma=0.3))
    # Largest |G - G_ref| and |G' - G'_ref| allowed.  A cubic Hermite step's error
    # is O(h^4) times the fourth derivative, which grows as the incubation median shrinks.
    BOUNDS = ((2e-9, 2e-7), (1e-8, 1e-6), (2e-9, 2e-7))

    @staticmethod
    def _window_at(r, inc):
        return _incubation_window(-np.asarray(r, dtype=float)[None, :], np.zeros(1), inc, with_grad=True)

    def test_matches_cdf_and_pdf(self):
        for inc, (g_bound, dg_bound) in zip(self.INCUBATIONS, self.BOUNDS):
            r_max = _table_end(inc)
            r = np.concatenate([
                np.linspace(-2.0, r_max + 5.0, 400_001),
                np.linspace(0.0, 1.0, 10_001),
                1.0 + np.linspace(-1e-3, 1e-3, 2001),
                np.linspace(r_max - 20.0, r_max, 10_001),
            ])
            g, dg = self._window_at(r, inc)
            g_ref, dg_ref = _erfc_window(-r[None, :], np.zeros(1), inc)
            assert np.max(np.abs(g - g_ref)) <= g_bound, inc
            assert np.max(np.abs(dg - dg_ref)) <= dg_bound, inc

    def test_exact_zeros_outside_the_table(self):
        for inc in self.INCUBATIONS:
            r_max = _table_end(inc)
            r = np.array([-1e6, -30.0, -1.0, -1e-9, 0.0, np.nan, r_max, r_max + 1e-9, r_max + 3.0, 1e9])
            g, dg = self._window_at(r, inc)
            assert np.all(g == 0.0) and np.all(dg == 0.0), inc
            g_in = self._window_at(np.array([0.5, 1.0, np.exp(inc.mu)]), inc)[0]
            assert np.all(g_in > 0.0)

    def test_predictions_match_the_erfc_kernel(self):
        inc = IncubationParams()
        grid = np.arange(1.0, 41.0)
        for p in _criterion_2_cases(seed=505, n=40):
            y = predict_daily(p, inc, grid, QUAD)
            y_ref, g_ref = reference_predict_daily_grad(p, inc, grid, QUAD, window=_erfc_window)
            scale = np.maximum(y_ref, 1e-9 * y_ref.max())
            assert np.max(np.abs(y - y_ref) / scale) <= 1e-7
            g = predict_daily_grad(p, inc, grid, QUAD)[1]
            assert np.all(np.abs(g - g_ref) <= 1e-6 * (np.abs(g_ref) + np.abs(g_ref).max(axis=0)))

    def test_long_windows_match_the_complement_form(self):
        # 107-day grids with onsets up to 60 days before them put days 100+ in the
        # window's upper tail, where a table built from CDF differences kept ~4 digits.
        inc = IncubationParams()
        grid = np.arange(1.0, 108.0)
        rng = np.random.default_rng(606)
        cases = [RegionParams(t0=-57.5, N=1000.0, k=4.3, theta=3.0)] + [
            RegionParams(t0=-rng.uniform(2.0, 60.0), N=rng.uniform(50.0, 5000.0),
                         k=rng.uniform(2.05, 6.0), theta=rng.uniform(1.0, 15.0))
            for _ in range(20)
        ]
        converged = QuadratureRule.gauss_legendre(1024)
        for p in cases:
            y, g = predict_daily_grad(p, inc, grid, QUAD)
            # The table against the exact window on the same 64 nodes.
            y_ref, g_ref = reference_predict_daily_grad(p, inc, grid, QUAD, window=_complement_window)
            assert np.max(np.abs(y - y_ref) / np.maximum(y_ref, 1e-9 * y_ref.max())) <= 1e-7, p
            assert np.all(np.abs(g - g_ref) <= 1e-6 * (np.abs(g_ref) + np.abs(g_ref).max(axis=0))), p
            # The whole model against the integral: on these long intervals the 64-node rule dominates.
            y_int = reference_predict_daily(p, inc, grid, converged, window=_complement_window)
            assert np.max(np.abs(y - y_int) / np.maximum(y_int, 1e-9 * y_int.max())) <= 1e-5, p

    def test_hot_path_calls_neither_cdf_nor_pdf(self, monkeypatch):
        inc = IncubationParams()
        grid = np.arange(1.0, 61.0)
        predict_daily(RegionParams(t0=-5.0, N=100.0, k=3.0, theta=5.0), inc, grid, QUAD)

        def forbidden(*args, **kwargs):
            raise AssertionError("the forward model evaluated the incubation CDF or pdf")

        monkeypatch.setattr(model, "incubation_cdf", forbidden)
        monkeypatch.setattr(model, "incubation_pdf", forbidden)
        y, g = predict_daily_grad(RegionParams(t0=-9.0, N=321.0, k=2.7, theta=8.0), inc, grid, QUAD)
        assert np.all(np.isfinite(g)) and y.max() > 0.0

    def test_oversized_table_refused(self):
        with pytest.raises(ValueError, match="1048576 cells"):
            _window_table(IncubationParams(mu=1.6, sigma=2.0))
        with pytest.raises(ValueError, match="1048576 cells"):
            predict_daily(RegionParams(t0=-5.0, N=100.0, k=3.0, theta=5.0),
                          IncubationParams(mu=12.0, sigma=0.418), np.arange(1.0, 5.0), QUAD)

    def test_table_is_shared_and_read_only(self):
        table = _window_table(IncubationParams())
        assert _window_table(IncubationParams(mu=1.621, sigma=0.418)) is table
        assert not table.flags.writeable


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
