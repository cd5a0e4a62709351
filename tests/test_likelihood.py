import importlib.resources
import re

import numpy as np
import pytest
import scipy.linalg
from scipy.stats import multivariate_normal

from epifield import (
    NoiseParams,
    RegionGraph,
    build_precision,
    load_region_graph,
    log_likelihood,
    log_likelihood_and_grad,
    path_graph,
)
from epifield.likelihood import EPS_DEGREE, EPS_LAMBDA, LOG_2PI, _batched_covariances, _whitened

from conftest import make_context, random_noise


def _county_graph():
    fix = importlib.resources.files("epifield") / "fixtures"
    return load_region_graph(str(fix / "nm_regions.csv"), str(fix / "nm_edges.csv"))


def _dense_sigma(g, eta, y):
    """Oracle: one day's covariance tau * P^{-1} + diag(sigma_a + sigma_m * y)^2, densely."""
    Pinv = np.linalg.inv(build_precision(g, eta.lambda_phi))
    return eta.tau_phi * Pinv + np.diag((eta.sigma_a + eta.sigma_m * y) ** 2)


def _inverse_oracle(y_obs, y_pred, y_grad, g, eta):
    """The likelihood value and gradient from general inverses, as computed before the
    triangular-inverse path: np.linalg.solve for z and Sigma^{-1} = L^{-T} L^{-1} per day."""
    Pinv, chol, scale = _batched_covariances(g, eta, y_pred)
    r = y_obs - y_pred
    z = np.linalg.solve(chol, r[:, :, None])[:, :, 0]
    logdets = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2)), axis=1)
    value = -0.5 * r.size * LOG_2PI - 0.5 * np.sum(logdets) - 0.5 * np.sum(z**2)
    Linv = np.linalg.inv(chol)
    Sinv = np.swapaxes(Linv, 1, 2) @ Linv
    b = np.einsum("irs,is->ir", Sinv, r)
    diag_Sinv = np.diagonal(Sinv, axis1=1, axis2=2)
    Sinv_sum = Sinv.sum(axis=0)
    M = eta.tau_phi * (Pinv @ g.W @ Pinv)
    grad_eta = np.array([
        -0.5 * np.sum(Sinv_sum * Pinv) + 0.5 * np.sum((b @ Pinv) * b),
        -0.5 * np.sum(Sinv_sum * M) + 0.5 * np.sum((b @ M) * b),
        np.sum(-diag_Sinv * scale + scale * b**2),
        np.sum((-diag_Sinv + b**2) * scale * y_pred),
    ])
    q = eta.sigma_m * scale * (b**2 - diag_Sinv) + b
    return value, np.einsum("ir,irs->rs", q, y_grad), grad_eta


def _batched_sigma(g, eta, y):
    """Covariances rebuilt from the batched Cholesky factors; y is (N_d, R)."""
    _, chol, _ = _batched_covariances(g, eta, np.atleast_2d(y))
    return chol @ chol.swapaxes(1, 2)


class TestGraph:
    def test_path_graph_structure(self):
        g = path_graph(("a", "b", "c"))
        assert np.array_equal(g.W, [[0, 1, 0], [1, 0, 1], [0, 1, 0]])
        assert np.array_equal(g.degrees, [1, 2, 1])

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            RegionGraph(region_ids=("a", "b"), W=np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError):
            RegionGraph(region_ids=("a",), W=np.array([[1.0]]))

    def test_subgraph_preserves_requested_order(self):
        g = path_graph(("a", "b", "c"))
        sub = g.subgraph(("c", "b"))
        assert sub.region_ids == ("c", "b")
        assert sub.W[0, 1] == 1.0

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError, match="duplicate region ids: a$"):
            RegionGraph(region_ids=("a", "b", "a"), W=np.zeros((3, 3)))

    def test_regions_csv_listing_an_id_twice_is_refused(self, tmp_path):
        # Before the check this loaded as ('a', 'b', 'a') with the first 'a' isolated.
        regions = tmp_path / "regions.csv"
        regions.write_text("region_id,name,lat,lon,population\n"
                           "a,A,35.0,-106.0,100\nb,B,35.5,-106.5,200\na,A2,36.0,-107.0,300\n")
        edges = tmp_path / "edges.csv"
        edges.write_text("region_a,region_b\na,b\n")
        with pytest.raises(ValueError, match="duplicate region ids: a$"):
            load_region_graph(regions, edges)

    def test_edge_from_a_region_to_itself_is_refused(self, tmp_path):
        # Before the check the row loaded, and RegionGraph said only "adjacency diagonal must be zero".
        regions = tmp_path / "regions.csv"
        regions.write_text("region_id,name,lat,lon,population\na,A,35.0,-106.0,100\nb,B,35.5,-106.5,200\n")
        edges = tmp_path / "edges.csv"
        edges.write_text("region_a,region_b\na,b\na,a\n")
        message = rf"edge joins region 'a' to itself \(line 3 of {re.escape(str(edges))}\)$"
        with pytest.raises(ValueError, match=message):
            load_region_graph(regions, edges)

    def test_subgraph_names_unknown_ids(self):
        with pytest.raises(ValueError, match="unknown region ids: zz, yy$"):
            path_graph(("a", "b", "c")).subgraph(("b", "zz", "yy"))

    def test_bundled_county_graph_loads(self):
        g = _county_graph()
        assert g.n_regions == 33
        assert np.all(g.degrees >= 1)
        assert g.centroids.shape == (33, 2)


class TestPrecision:
    def test_lambda_zero_gives_degree_matrix(self):
        g = path_graph(("a", "b", "c"))
        assert np.array_equal(build_precision(g, 0.0), np.diag(g.degrees))

    def test_two_region_hand_value(self):
        g = path_graph(("a", "b"))
        P = build_precision(g, 0.5)
        assert np.allclose(P, [[1.0, -0.5], [-0.5, 1.0]])

    def test_positive_definite_at_lambda_max_on_county_graph(self):
        g = _county_graph()
        P = build_precision(g, 1.0 - EPS_LAMBDA)
        assert np.all(np.linalg.eigvalsh(P) > 0)

    def test_isolated_region_gets_ridge(self):
        g = RegionGraph(region_ids=("a", "b"), W=np.zeros((2, 2)))
        P = build_precision(g, 0.3)
        assert np.allclose(np.diag(P), EPS_DEGREE)
        # And the full covariance still factorizes.
        eta = NoiseParams(tau_phi=1e-6, lambda_phi=0.3, sigma_a=1.0, sigma_m=0.0)
        _batched_covariances(g, eta, np.zeros((1, 2)))

    @pytest.mark.parametrize("graph", ["path3", "county"])
    @pytest.mark.parametrize("lambda_phi", [0.0, 0.5, 1.0 - EPS_LAMBDA])
    def test_inverse_matches_the_cholesky_solve(self, graph, lambda_phi):
        """P^{-1} from np.linalg.inv against the Cholesky solve it replaced, kept as the oracle."""
        g = path_graph(("a", "b", "c")) if graph == "path3" else _county_graph()
        eta = NoiseParams(tau_phi=1.0, lambda_phi=lambda_phi, sigma_a=1.0, sigma_m=0.1)
        Pinv, _, _ = _batched_covariances(g, eta, np.zeros((1, g.n_regions)))
        P = build_precision(g, lambda_phi)
        expected = scipy.linalg.cho_solve(scipy.linalg.cho_factor(P, lower=True), np.eye(g.n_regions))
        assert np.max(np.abs(Pinv - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_inverse_is_inverse(self):
        g = path_graph(tuple("abcd"))
        eta = NoiseParams(tau_phi=2.0, lambda_phi=0.8, sigma_a=1.0, sigma_m=0.0)
        Pinv, _, _ = _batched_covariances(g, eta, np.zeros((1, 4)))
        assert np.allclose(Pinv @ build_precision(g, 0.8), np.eye(4), atol=1e-12)


class TestCovariance:
    def test_tau_zero_is_diagonal(self):
        g = path_graph(("a", "b", "c"))
        eta = NoiseParams(tau_phi=0.0, lambda_phi=0.5, sigma_a=1.5, sigma_m=0.2)
        y = np.array([10.0, 0.0, 3.0])
        Sigma = _batched_sigma(g, eta, y)[0]
        assert np.allclose(Sigma, np.diag((1.5 + 0.2 * y) ** 2))

    def test_pure_gmrf_is_scaled_degree_inverse(self):
        g = path_graph(("a", "b", "c"))
        eta = NoiseParams(tau_phi=3.0, lambda_phi=0.0, sigma_a=0.0, sigma_m=0.0)
        Sigma = _batched_sigma(g, eta, np.zeros(3))[0]
        assert np.allclose(Sigma, 3.0 * np.linalg.inv(np.diag(g.degrees)))

    def test_two_region_hand_example(self):
        g = path_graph(("a", "b"))
        eta = NoiseParams(tau_phi=2.0, lambda_phi=0.5, sigma_a=1.0, sigma_m=0.0)
        Sigma = _batched_sigma(g, eta, np.zeros(2))[0]
        P = np.array([[1.0, -0.5], [-0.5, 1.0]])
        assert np.allclose(Sigma, 2.0 * np.linalg.inv(P) + np.eye(2))

    def test_logdet_and_solve(self):
        g = path_graph(("a", "b", "c"))
        eta = NoiseParams(tau_phi=1.2, lambda_phi=0.6, sigma_a=0.8, sigma_m=0.1)
        y = np.array([5.0, 20.0, 1.0])
        _, chol, _ = _batched_covariances(g, eta, y[None])
        Sigma = _dense_sigma(g, eta, y)
        logdet = 2.0 * np.sum(np.log(np.diag(chol[0])))
        assert logdet == pytest.approx(np.linalg.slogdet(Sigma)[1], rel=1e-12)
        r = np.array([1.0, -2.0, 0.5])
        assert np.allclose(scipy.linalg.cho_solve((chol[0], True), r), np.linalg.solve(Sigma, r), rtol=1e-10)

    def test_batched_matches_per_day(self):
        g = path_graph(("a", "b", "c"))
        eta = NoiseParams(tau_phi=1.2, lambda_phi=0.6, sigma_a=0.8, sigma_m=0.1)
        y = np.abs(np.random.default_rng(0).normal(10, 5, (6, 3)))
        _, chol, _ = _batched_covariances(g, eta, y)
        for i in range(6):
            Sigma = _dense_sigma(g, eta, y[i])
            assert np.allclose(chol[i] @ chol[i].T, Sigma)
            assert np.allclose(chol[i], np.linalg.cholesky(Sigma))

    def test_noise_param_validation(self):
        with pytest.raises(ValueError):
            NoiseParams(tau_phi=-1.0, lambda_phi=0.5, sigma_a=1.0, sigma_m=0.1)
        with pytest.raises(ValueError):
            NoiseParams(tau_phi=1.0, lambda_phi=1.0, sigma_a=1.0, sigma_m=0.1)


class TestLogLikelihood:
    def test_scalar_gaussian_closed_form(self):
        g = RegionGraph(region_ids=("a",), W=np.zeros((1, 1)))
        eta = NoiseParams(tau_phi=0.0, lambda_phi=0.0, sigma_a=2.5, sigma_m=0.0)
        y = np.full((7, 1), 10.0)
        ll = log_likelihood(y, y, g, eta)
        assert ll == pytest.approx(-(7 / 2) * np.log(2 * np.pi * 2.5**2), rel=1e-12)

    def test_unit_covariance_residual_penalty(self):
        g = RegionGraph(region_ids=("a",), W=np.zeros((1, 1)))
        eta = NoiseParams(tau_phi=0.0, lambda_phi=0.0, sigma_a=1.0, sigma_m=0.0)
        y = np.full((4, 1), 5.0)
        base = log_likelihood(y, y, g, eta)
        bumped = y.copy()
        bumped[2, 0] += 3.0
        assert log_likelihood(bumped, y, g, eta) == pytest.approx(base - 3.0**2 / 2, rel=1e-12)

    def test_matches_dense_mvn_oracle(self):
        rng = np.random.default_rng(5)
        g = path_graph(("a", "b", "c"))
        eta = random_noise(rng)
        y_pred = np.abs(rng.normal(20, 10, (10, 3)))
        y_obs = y_pred + rng.normal(0, 3, (10, 3))
        ll = log_likelihood(y_obs, y_pred, g, eta)
        oracle = sum(
            multivariate_normal.logpdf(y_obs[i], mean=y_pred[i], cov=_dense_sigma(g, eta, y_pred[i]))
            for i in range(10)
        )
        assert abs(ll - oracle) < 1e-10

    def test_shape_mismatch_rejected(self):
        g = path_graph(("a", "b"))
        eta = NoiseParams(1.0, 0.5, 1.0, 0.1)
        with pytest.raises(ValueError):
            log_likelihood(np.zeros((3, 2)), np.zeros((4, 2)), g, eta)

    def test_singular_covariance_is_linalg_error(self):
        g = path_graph(("a", "b"))
        with pytest.raises(np.linalg.LinAlgError):
            log_likelihood(np.ones((3, 2)), np.ones((3, 2)), g, NoiseParams(0.0, 0.5, 0.0, 0.0))


def _fd_grad(fn, x, h=1e-5):
    g = np.empty_like(x)
    for i in range(x.size):
        hi, lo = x.copy(), x.copy()
        hi[i] += h
        lo[i] -= h
        g[i] = (fn(hi) - fn(lo)) / (2 * h)
    return g


class TestLogLikelihoodGrad:
    def _instance(self, seed=0, n_days=8, g=None):
        rng = np.random.default_rng(seed)
        g = g or path_graph(("a", "b", "c"))
        eta = random_noise(rng)
        y_pred = np.abs(rng.normal(20, 10, (n_days, g.n_regions)))
        y_obs = y_pred + rng.normal(0, 3, (n_days, g.n_regions))
        return g, eta, y_obs, y_pred

    def test_sigma_m_zero_kills_logdet_model_term(self):
        g, _, y_obs, y_pred = self._instance()
        eta = NoiseParams(tau_phi=1.0, lambda_phi=0.5, sigma_a=1.0, sigma_m=0.0)
        # With sigma_m = 0 the covariance no longer depends on y_pred, so the
        # model gradient must be exactly the residual chain q = Sigma^{-1} r.
        y_grad = np.ones((y_obs.shape[0], 3, 4))
        _, grad_model, _ = log_likelihood_and_grad(y_obs, y_pred, y_grad, g, eta)
        b = np.array([np.linalg.solve(_dense_sigma(g, eta, y), r) for y, r in zip(y_pred, y_obs - y_pred)])
        assert np.allclose(grad_model, b.sum(axis=0)[:, None] * np.ones(4), rtol=1e-10)

    def test_noise_partials_match_finite_differences(self):
        g, eta, y_obs, y_pred = self._instance(seed=1)
        y_grad = np.zeros((y_obs.shape[0], 3, 4))
        _, _, grad_eta = log_likelihood_and_grad(y_obs, y_pred, y_grad, g, eta)

        def fn(v):
            return log_likelihood(y_obs, y_pred, g, NoiseParams(*v))

        fd = _fd_grad(fn, eta.as_array())
        assert np.max(np.abs(grad_eta - fd) / np.maximum(np.abs(fd), 1e-3 * np.max(np.abs(fd)))) < 1e-5

    def test_partials_match_dense_oracle(self):
        for g in (path_graph(("a", "b", "c")), _county_graph()):
            self._check_dense_oracle(*self._instance(seed=2, n_days=5, g=g))

    def _check_dense_oracle(self, g, eta, y_obs, y_pred):
        y_grad = np.random.default_rng(7).normal(0, 10, y_pred.shape + (4,))
        _, grad_model, grad_eta = log_likelihood_and_grad(y_obs, y_pred, y_grad, g, eta)

        # Per day, d log N(r; 0, Sigma) = -Tr(Sinv dSigma)/2 + r Sinv dSigma Sinv r/2 - r Sinv dr.
        Pinv = np.linalg.inv(build_precision(g, eta.lambda_phi))
        eta_oracle = np.zeros(4)
        model_oracle = np.zeros((g.n_regions, 4))
        for y, r, dy in zip(y_pred, y_obs - y_pred, y_grad):
            Sinv = np.linalg.inv(_dense_sigma(g, eta, y))
            scale = eta.sigma_a + eta.sigma_m * y

            def partial(dSigma, dr=np.zeros(g.n_regions)):
                return -0.5 * np.trace(Sinv @ dSigma) + 0.5 * r @ Sinv @ dSigma @ Sinv @ r - r @ Sinv @ dr

            dSigmas = (Pinv, eta.tau_phi * Pinv @ g.W @ Pinv, np.diag(2 * scale), np.diag(2 * scale * y))
            eta_oracle += [partial(d) for d in dSigmas]
            for k in range(g.n_regions):
                onehot = np.eye(g.n_regions)[k]
                dy_k = partial(np.diag(2 * eta.sigma_m * scale * onehot), dr=-onehot)
                model_oracle[k] += dy_k * dy[k]
        assert np.allclose(grad_eta, eta_oracle, rtol=1e-10, atol=1e-10 * np.max(np.abs(eta_oracle)))
        assert np.allclose(grad_model, model_oracle, rtol=1e-10, atol=1e-10 * np.max(np.abs(model_oracle)))

    def test_matches_the_inverse_oracle(self):
        for g in (path_graph(("a", "b", "c")), _county_graph()):
            for seed in (5, 6):
                g, eta, y_obs, y_pred = self._instance(seed=seed, n_days=30, g=g)
                y_grad = np.random.default_rng(seed).normal(0, 10, y_pred.shape + (4,))
                value, grad_model, grad_eta = log_likelihood_and_grad(y_obs, y_pred, y_grad, g, eta)
                value_ref, model_ref, eta_ref = _inverse_oracle(y_obs, y_pred, y_grad, g, eta)
                assert value == pytest.approx(value_ref, rel=1e-10, abs=0.0)
                np.testing.assert_allclose(grad_eta, eta_ref, rtol=1e-10, atol=0.0)
                assert np.all(np.abs(grad_model - model_ref) <= 1e-10 * np.abs(model_ref).max())

    def test_value_is_bit_equal_to_log_likelihood(self):
        for g in (path_graph(("a", "b", "c")), _county_graph()):
            g, eta, y_obs, y_pred = self._instance(seed=4, n_days=9, g=g)
            value, _, _ = log_likelihood_and_grad(y_obs, y_pred, np.ones(y_pred.shape + (4,)), g, eta)
            assert value == log_likelihood(y_obs, y_pred, g, eta)

    def test_shapes_validated(self):
        g, eta, y_obs, y_pred = self._instance(n_days=4)
        with pytest.raises(ValueError):
            log_likelihood_and_grad(y_obs, y_pred, np.zeros((4, 3, 3)), g, eta)
        with pytest.raises(ValueError):
            log_likelihood_and_grad(y_obs[:3], y_pred, np.zeros((4, 3, 4)), g, eta)

    def test_one_factorisation_per_gradient_evaluation(self, monkeypatch):
        ctx, truth = make_context(n_regions=3, n_days=20, seed=11)
        calls = {"cholesky": 0, "inv": 0, "solve": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapped

        for name in ("cholesky", "inv", "solve"):
            monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
        x = ctx.transforms.inverse(truth.values)
        ctx.logpost_and_grad(x)
        # One inverse of P and one batched Cholesky of the Sigma_i per evaluation.
        assert calls == {"cholesky": 1, "inv": 1, "solve": 0}
        ctx.logpost(x)
        assert calls == {"cholesky": 2, "inv": 2, "solve": 0}

    def test_singular_factor_is_linalg_error(self):
        rng = np.random.default_rng(8)
        chol = np.linalg.cholesky(np.eye(3) + 0.1 * np.ones((3, 3)))[None].repeat(4, axis=0)
        chol[2, 1, 1] = 0.0
        with pytest.raises(np.linalg.LinAlgError, match="day 2"):
            _whitened(rng.normal(size=(4, 3)), chol)

    def test_model_partials_match_finite_differences(self):
        # Perturb a single prediction entry and compare against the chain rule
        # with a one-hot y_grad.
        g, eta, y_obs, y_pred = self._instance(seed=3, n_days=6)
        for (i, r) in [(0, 0), (3, 1), (5, 2)]:
            y_grad = np.zeros((6, 3, 4))
            y_grad[i, r, 0] = 1.0
            _, grad_model, _ = log_likelihood_and_grad(y_obs, y_pred, y_grad, g, eta)
            h = 1e-5
            hi, lo = y_pred.copy(), y_pred.copy()
            hi[i, r] += h
            lo[i, r] -= h
            fd = (log_likelihood(y_obs, hi, g, eta) - log_likelihood(y_obs, lo, g, eta)) / (2 * h)
            assert grad_model[r, 0] == pytest.approx(fd, rel=1e-6)
