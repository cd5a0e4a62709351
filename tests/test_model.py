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
from epifield.model import (
    _incubation_window,
    _window_table,
    incubation_pdf,
)

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
        u, log_u, f = _gamma_rate(t, p)
        d0, dk, dth = _gamma_partials(u, log_u, f, p)
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
        # Day i's rule on [t0, t_i] has weights (t_i - t0) w_j / 2.
        p = RegionParams(t0=-3.0, N=1.0, k=3.0, theta=5.0)
        grid = np.array([-1.0, 4.0, 11.0])
        assert np.allclose(0.5 * (grid - p.t0) * QUAD.weights.sum(), grid - p.t0, rtol=1e-12)

    def test_polynomial_exactness(self):
        # n-point Gauss-Legendre integrates degree 2n-1 exactly.
        quad = QuadratureRule.gauss_legendre(16)
        grid = np.array([0.5, 2.0, 7.0])
        half = 0.5 * grid  # t0 = 0
        tau = half[:, None] * (quad.nodes + 1.0)
        c = quad._node_terms[0][0]
        assert np.allclose(tau, 2.0 * half[:, None] * c, rtol=1e-14)
        val = half * (tau**7 @ quad.weights)
        assert np.allclose(val, grid**8 / 8.0, rtol=1e-12)

    def test_minimum_nodes_enforced(self):
        with pytest.raises(ValueError):
            QuadratureRule.gauss_legendre(8)

    def test_one_shared_read_only_rule_per_node_count(self):
        rule = QuadratureRule.gauss_legendre(64)
        assert rule is QuadratureRule.gauss_legendre(64) is QuadratureRule.gauss_legendre(n=64)
        assert rule is QuadratureRule.gauss_legendre()
        assert QuadratureRule.gauss_legendre(32) is not rule
        for a in (rule.nodes, rule.weights, *rule._node_terms):
            assert not a.flags.writeable
        with pytest.raises(ValueError):
            rule.weights[0] = 0.0

    def test_day_grid_must_increase(self):
        p = RegionParams(t0=0.0, N=1.0, k=3.0, theta=5.0)
        for bad in ([1.0, 1.0, 2.0], [1.0, 3.0, 2.0], [[1.0, 2.0], [3.0, 4.0]]):
            for predict in (predict_daily, predict_daily_grad):
                with pytest.raises(ValueError, match="day_grid"):
                    predict(p, IncubationParams(), np.array(bad), QUAD)


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
    return _incubation_window(np.asarray(day_grid, dtype=float)[:, None] - tau, inc, with_grad=True)


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


def _tau_day_quadrature(p, day_grid, quad):
    """Each day's rule on [t0, t_i] as (tau, half, c, active), the nodes as explicit times."""
    day_grid = np.asarray(day_grid, dtype=float)
    active = day_grid > p.t0
    half = 0.5 * (np.where(active, day_grid, p.t0 + 1.0) - p.t0)
    tau = p.t0 + half[:, None] * (quad.nodes + 1.0)  # (N_d, n)
    return tau, half, 0.5 * (quad.nodes + 1.0), active


def _tau_incubation_window(tau, day_grid, inc, with_grad):
    """(G, dG/dr) at r = t_i - tau from the model's window table, by the same cubic."""
    coef = _window_table(inc)
    x = np.asarray(day_grid, dtype=float)[:, None] - tau
    x *= 32.0
    np.fmax(x, 0.0, out=x)
    np.fmin(x, coef.shape[1] - 1, out=x)
    cell = x.astype(np.intp)
    x -= cell
    a3, a2, a1 = coef[3].take(cell), coef[2].take(cell), coef[1].take(cell)
    g = a3 * x
    g += a2
    g *= x
    g += a1
    g *= x
    g += coef[0].take(cell)
    if not with_grad:
        return g, None
    a3 *= 3.0 * x
    a3 += 2.0 * a2
    a3 *= x
    a3 += a1
    a3 *= 32.0
    return g, a3


def _gamma_rate(t, p):
    """(u, log u, f) at time t: u = t - t0, set to 1 where f is zero (t <= t0)."""
    u = np.asarray(t, dtype=float) - p.t0
    pos = u > 0
    u = np.where(pos, u, 1.0)
    log_u = np.log(u)
    log_f = -p.k * np.log(p.theta) + (p.k - 1.0) * log_u - u / p.theta - gammaln(p.k)
    return u, log_u, np.where(pos, np.exp(log_f), 0.0)


def _gamma_partials(u, log_u, f, p):
    """Partials of the rate f w.r.t. (t0, k, theta) at fixed t; zero where f is."""
    df_dt0 = f * (1.0 / p.theta - (p.k - 1.0) / u)
    df_dk = f * (log_u - np.log(p.theta) - digamma(p.k))
    df_dtheta = f * (u / p.theta**2 - p.k / p.theta)
    return df_dt0, df_dk, df_dtheta


def tau_convolve(p, inc, day_grid, quad, with_grad):
    """The shared kernel that the separable `_convolve` replaced, kept as its oracle.

    It evaluates the rate at explicit node times tau (a log, an exp and two
    wheres per node) and forms the three rate partials as (N_d, n) arrays.
    """
    day_grid = np.asarray(day_grid, dtype=float)
    tau, half, c, active = _tau_day_quadrature(p, day_grid, quad)
    u, log_u, f = _gamma_rate(tau, p)
    window, dwindow_dr = _tau_incubation_window(tau, day_grid, inc, with_grad)
    w = quad.weights
    s = (f * window) @ w
    y = np.where(active, np.maximum(p.N * half * s, 0.0), 0.0)
    if not with_grad:
        return y

    df_dt0, df_dk, df_dtheta = _gamma_partials(u, log_u, f, p)
    grad = np.empty((day_grid.size, 4))
    grad[:, 0] = p.N * (half * ((c * df_dt0 * window - (1.0 - c) * f * dwindow_dr) @ w) - 0.5 * s)
    grad[:, 1] = half * s
    grad[:, 2] = p.N * half * ((df_dk * window) @ w)
    grad[:, 3] = p.N * half * ((df_dtheta * window) @ w)
    grad[~active] = 0.0
    return y, grad


def broadcast_convolve(p, inc, day_grid, quad, with_grad):
    """The separable kernel that the factor-matrix `_convolve` replaced, kept as its oracle.

    It builds log f and the window argument by broadcasting the day terms
    against the node terms, where `_convolve` takes two small matrix products.
    """
    day_grid = np.asarray(day_grid, dtype=float)
    c = 0.5 * (quad.nodes + 1.0)
    w = quad.weights
    log_c = np.log(c)
    active = day_grid > p.t0
    d = np.where(active, day_grid - p.t0, 1.0)
    k, theta = p.k, p.theta
    log_d = np.log(d)
    f = np.multiply.outer(d / -theta, c)
    f += (k - 1.0) * log_c
    f += ((k - 1.0) * log_d - k * np.log(theta) - gammaln(k))[:, None]
    np.exp(f, out=f)
    F, dwindow_dr = _incubation_window(np.multiply.outer(d * active, 1.0 - c), inc, with_grad)
    F *= f
    s = F @ w
    half = 0.5 * d
    y = np.maximum(p.N * half * s, 0.0)
    if not with_grad:
        return y

    s_logc, s_c = (F @ np.column_stack([w * log_c, w * c])).T
    f *= dwindow_dr
    grad = np.empty((d.size, 4))
    grad[:, 0] = p.N * (half * (s_c / theta - (k - 1.0) / d * s - f @ (w * (1.0 - c))) - 0.5 * s)
    grad[:, 1] = half * s
    grad[:, 2] = p.N * half * (s_logc + (log_d - np.log(theta) - digamma(k)) * s)
    grad[:, 3] = p.N * half * (d / theta**2 * s_c - k / theta * s)
    return y, grad


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
        for grid, p in [*self._cases(), *self._long_cases()]:
            assert np.array_equal(predict_daily(p, inc, grid, QUAD), predict_daily_grad(p, inc, grid, QUAD)[0])

    @staticmethod
    def _long_cases():
        """107-day grids with t0 from 60 days before them to 40 days in, and at the MLE box edge."""
        rng = np.random.default_rng(21)
        grid = np.arange(1.0, 108.0)
        for t0 in [*rng.uniform(-60.0, 40.0, 30), grid[0] - 120.0, grid[0] - 120.0]:
            yield grid, RegionParams(t0=t0, N=rng.uniform(10.0, 5000.0),
                                     k=rng.uniform(2.0, 8.0), theta=rng.uniform(0.5, 20.0))

    def test_matches_the_tau_kernel(self):
        inc = IncubationParams()
        for grid, p in [*self._cases(), *self._long_cases()]:
            y_ref, g_ref = tau_convolve(p, inc, grid, QUAD, with_grad=True)
            assert np.array_equal(tau_convolve(p, inc, grid, QUAD, with_grad=False), y_ref)
            y, g = predict_daily_grad(p, inc, grid, QUAD)
            np.testing.assert_allclose(y, y_ref, rtol=1e-12, atol=0.0)
            assert np.all(np.abs(g - g_ref) <= 1e-12 * (np.abs(g_ref) + np.abs(g_ref).max(axis=0))), p


    def test_matches_the_broadcast_kernel(self):
        # The products sum log f in BLAS order, so the two kernels agree to
        # rounding, not bit for bit; the window argument is exact in both.
        inc = IncubationParams()
        inactive_days = 0
        for grid, p in [*self._cases(), *self._long_cases()]:
            inactive = grid <= p.t0
            inactive_days += int(np.sum(inactive))
            y_ref, g_ref = broadcast_convolve(p, inc, grid, QUAD, with_grad=True)
            assert np.array_equal(broadcast_convolve(p, inc, grid, QUAD, with_grad=False), y_ref)
            y, g = predict_daily_grad(p, inc, grid, QUAD)
            np.testing.assert_allclose(y, y_ref, rtol=1e-13, atol=0.0)
            assert np.all(np.abs(g - g_ref) <= 1e-13 * np.abs(g_ref).max(axis=0)), p
            assert np.all(y[inactive] == 0.0) and np.all(g[inactive] == 0.0)
        assert inactive_days > 0

def region_convolve(p, table, day_grid, quad, with_grad):
    """The one-region kernel that the region-block `_convolve` replaced, kept as its oracle.

    It takes one `RegionParams` and does its per-day algebra on (N_d,) arrays,
    where `_convolve` does it once for all regions on (R, N_d) arrays.
    """
    rate_rows, window_rows, w_logc_c, w_one_minus_c = quad._node_terms
    active = day_grid > p.t0
    d = np.where(active, day_grid - p.t0, 1.0)
    k, theta, w = p.k, p.theta, quad.weights
    log_d = np.log(d)
    day_rows = np.empty((d.size, 3))
    day_rows[:, 0] = d / -theta
    day_rows[:, 1] = k - 1.0
    day_rows[:, 2] = (k - 1.0) * log_d - k * np.log(theta) - gammaln(k)
    f = day_rows @ rate_rows
    np.exp(f, out=f)
    cells = np.zeros((d.size, 2))
    cells[:, 0] = 32 * d * active
    F, dwindow_dr = model._window_lookup(cells @ window_rows, table, with_grad)
    F *= f
    s = F @ w
    half = 0.5 * d
    y = np.maximum(p.N * half * s, 0.0)
    if not with_grad:
        return y

    s_logc, s_c = (F @ w_logc_c).T
    f *= dwindow_dr
    grad = np.empty((d.size, 4))
    grad[:, 0] = p.N * (half * (s_c / theta - (k - 1.0) / d * s - f @ w_one_minus_c) - 0.5 * s)
    grad[:, 1] = half * s
    grad[:, 2] = p.N * half * (s_logc + (log_d - np.log(theta) - digamma(k)) * s)
    grad[:, 3] = p.N * half * (d / theta**2 * s_c - k / theta * s)
    return y, grad


def _region_loop(block, table, grid, with_grad):
    """`region_convolve` over the rows of block, stacked as `_convolve` returns them."""
    regions = [RegionParams(*row) for row in block]
    if not with_grad:
        return np.column_stack([region_convolve(p, table, grid, QUAD, False) for p in regions])
    ys, gs = zip(*(region_convolve(p, table, grid, QUAD, True) for p in regions))
    return np.column_stack(ys), np.stack(gs, axis=1)


class TestRegionBlockKernel:
    """The region-block `_convolve` against the one-region kernel, bit for bit."""

    TABLE = _window_table(IncubationParams())

    @staticmethod
    def _block(rng, n_regions, grid):
        """Rows (t0, N, k, theta), the last with its onset inside the grid, and thetas whose C-library
        square (theta**2 of a scalar) differs from numpy's array square."""
        theta = rng.uniform(0.5, 20.0, 20_000)
        theta = theta[np.array([t ** 2 for t in theta]) != np.square(theta)][:2]  # none where pow rounds exactly
        block = np.column_stack([
            rng.uniform(grid[0] - 60.0, grid[0] + 40.0, n_regions), rng.uniform(10.0, 5000.0, n_regions),
            rng.uniform(2.0, 8.0, n_regions), rng.uniform(0.01, 20.0, n_regions),
        ])
        block[: min(n_regions, theta.size), 3] = theta[:n_regions]
        block[-1, 0] = rng.uniform(grid[0], grid[0] + 40.0)
        return block

    @pytest.mark.parametrize("n_regions", [1, 3, 33])
    @pytest.mark.parametrize("n_days", [60, 107, 121])
    def test_matches_the_region_loop(self, n_regions, n_days):
        rng = np.random.default_rng(1000 * n_regions + n_days)
        grid = np.arange(1.0, n_days + 1.0)
        inactive_days = 0
        for _ in range(4):
            block = self._block(rng, n_regions, grid)
            y_ref, g_ref = _region_loop(block, self.TABLE, grid, with_grad=True)
            assert np.array_equal(model._convolve(block, self.TABLE, grid, QUAD, with_grad=False), y_ref)
            y, g = model._convolve(block, self.TABLE, grid, QUAD, with_grad=True)
            assert np.array_equal(y, y_ref) and np.array_equal(g, g_ref)
            inactive = grid[:, None] <= block[:, 0]
            assert np.all(y[inactive] == 0.0) and np.all(g[inactive] == 0.0)
            inactive_days += int(inactive.sum())
        assert inactive_days > 0

    def test_predict_daily_is_a_one_row_block(self):
        grid = np.arange(1.0, 61.0)
        p = RegionParams(t0=12.5, N=800.0, k=3.3, theta=6.0)
        y_ref, g_ref = region_convolve(p, self.TABLE, grid, QUAD, with_grad=True)
        y, g = predict_daily_grad(p, IncubationParams(), grid, QUAD)
        assert np.array_equal(y, y_ref) and np.array_equal(g, g_ref)
        assert np.array_equal(predict_daily(p, IncubationParams(), grid, QUAD), y_ref)

    @pytest.mark.parametrize("bad, message", [
        ((1, 0.0), "N must be positive, got 0.0"),
        ((1, -5.0), "N must be positive, got -5.0"),
        ((1, np.nan), "N must be positive, got nan"),
        ((2, 1.5), "k must be >= 2.0, got 1.5"),
        ((3, 1e-3), "theta must be >= 0.01, got 0.001"),
    ])
    def test_a_refused_row_raises_the_region_params_error(self, bad, message):
        block = self._block(np.random.default_rng(2), 3, np.arange(1.0, 61.0))
        (column, value), row = bad, 1
        block[row, column] = value
        block[2, 1] = -1.0  # a later refused row: the first one's error is raised
        with pytest.raises(ValueError, match=f"^{message}$"):
            RegionParams(*block[row])
        for with_grad in (False, True):
            with pytest.raises(ValueError, match=f"^{message}$"):
                model._convolve(block, self.TABLE, np.arange(1.0, 61.0), QUAD, with_grad)

    @pytest.mark.parametrize("column", [0, 2, 3])
    def test_nan_t0_k_or_theta_behaves_as_the_region_loop(self, column):
        # RegionParams accepts a NaN t0, k or theta; only that region's columns are affected.
        grid = np.arange(1.0, 108.0)
        block = self._block(np.random.default_rng(3), 3, grid)
        block[1, column] = np.nan
        y_ref, g_ref = _region_loop(block, self.TABLE, grid, with_grad=True)
        y, g = model._convolve(block, self.TABLE, grid, QUAD, with_grad=True)
        assert np.array_equal(y, y_ref, equal_nan=True) and np.array_equal(g, g_ref, equal_nan=True)
        assert np.array_equal(model._convolve(block, self.TABLE, grid, QUAD, with_grad=False), y_ref, equal_nan=True)
        assert np.all(np.isfinite(y[:, [0, 2]])) and np.all(np.isfinite(g[:, [0, 2]]))


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
        return _incubation_window(np.asarray(r, dtype=float)[None, :], inc, with_grad=True)

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
