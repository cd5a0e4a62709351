"""GMRF-coupled heteroscedastic Gaussian likelihood and its gradients.

The per-day noise covariance is

    Sigma_i = tau * P^{-1} + diag(sigma_a + sigma_m * y_i)^2,
    P = D - lambda * W,

where W is the region adjacency and D the degree matrix.  One evaluation
factors P once (all days share P^{-1}) and takes one batched Cholesky
factorization L_i of the Sigma_i.  Each L_i is then inverted as a triangle
(LAPACK dtrtri), and the value and the gradient both come from L_i^{-1}:
the log-determinant from diag L_i, the quadratic form from z_i = L_i^{-1} r_i.
The gradient never forms Sigma_i^{-1}: it needs Sigma_i^{-1} r_i = L_i^{-T} z_i,
diag Sigma_i^{-1} (column sums of L_i^{-1} squared) and sum_i Sigma_i^{-1} = A^T A,
with A the (N_d R, R) stack of the L_i^{-1}.
`_batched_covariances` is the only place Sigma is assembled, shared by the
likelihood, the PPT ensemble and the synthetic-data generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dtrtri

from .graph import RegionGraph
from .transforms import EPS_LAMBDA

# Ridge applied to zero-degree (isolated) regions so P stays factorizable.
EPS_DEGREE = 1e-6

LOG_2PI = np.log(2.0 * np.pi)


@dataclass(frozen=True)
class NoiseParams:
    """Global noise parameters (tau, lambda, sigma_a, sigma_m)."""

    tau_phi: float
    lambda_phi: float
    sigma_a: float
    sigma_m: float

    def __post_init__(self):
        if self.tau_phi < 0 or self.sigma_a < 0 or self.sigma_m < 0:
            raise ValueError("tau_phi, sigma_a and sigma_m must be nonnegative")
        if not 0.0 <= self.lambda_phi <= 1.0 - EPS_LAMBDA:
            raise ValueError(f"lambda_phi must lie in [0, {1.0 - EPS_LAMBDA}]")

    def as_array(self):
        return np.array([self.tau_phi, self.lambda_phi, self.sigma_a, self.sigma_m])


def build_precision(graph: RegionGraph, lambda_phi):
    """GMRF precision P = D - lambda * W, with a ridge on isolated regions."""
    if not 0.0 <= lambda_phi <= 1.0 - EPS_LAMBDA:
        raise ValueError("lambda_phi outside its valid range")
    g = np.maximum(graph.degrees, EPS_DEGREE)
    return np.diag(g) - lambda_phi * graph.W


def _batched_covariances(graph, eta, y_pred):
    """(P^{-1}, Cholesky factors of Sigma_i, noise scales) for y_pred of shape (N_d, R).

    P^{-1} is not scaled by tau.  A covariance that is not positive
    definite raises np.linalg.LinAlgError.
    """
    Pinv = cho_solve(cho_factor(build_precision(graph, eta.lambda_phi), lower=True), np.eye(graph.n_regions))
    scale = eta.sigma_a + eta.sigma_m * y_pred  # (N_d, R)
    Sigma = np.broadcast_to(eta.tau_phi * Pinv, (y_pred.shape[0],) + Pinv.shape).copy()
    idx = np.arange(graph.n_regions)
    Sigma[:, idx, idx] += scale**2
    return Pinv, np.linalg.cholesky(Sigma), scale


def _checked(y_obs, y_pred, graph):
    y_obs = np.asarray(y_obs, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    if y_obs.shape != y_pred.shape or y_obs.ndim != 2 or y_obs.shape[1] != graph.n_regions:
        raise ValueError("observation/prediction shapes must be (N_d, R) and agree")
    return y_obs, y_pred


def _whitened(r, chol):
    """(L_i^{-1}, z_i = L_i^{-1} r_i, summed log-density) for residuals r of shape (N_d, R).

    Each factor is inverted by LAPACK dtrtri; a singular one raises
    np.linalg.LinAlgError.  The log-density is the log-determinant term plus |z|^2.
    """
    n_days, R = r.shape
    Linv = chol.copy()
    # Each day's L_i^T is a Fortran-ordered upper factor in the C-ordered copy, so
    # dtrtri (upper, non-unit diagonal, overwrite) inverts it in place.
    for i, upper in enumerate(Linv.transpose(0, 2, 1)):
        info = dtrtri(upper, 0, 0, 1)[1]
        if info != 0:
            raise np.linalg.LinAlgError(f"Cholesky factor of day {i} is singular (dtrtri info {info})")
    z = np.einsum("irs,is->ir", Linv, r)
    logdets = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2)), axis=1)
    value = float(-0.5 * n_days * R * LOG_2PI - 0.5 * np.sum(logdets) - 0.5 * np.sum(z**2))
    return Linv, z, value


def log_likelihood(y_obs, y_pred, graph: RegionGraph, eta: NoiseParams):
    """Sum over days of the multivariate Gaussian log-density of the residuals."""
    y_obs, y_pred = _checked(y_obs, y_pred, graph)
    _, chol, _ = _batched_covariances(graph, eta, y_pred)
    return _whitened(y_obs - y_pred, chol)[2]


def log_likelihood_and_grad(y_obs, y_pred, y_grad, graph: RegionGraph, eta: NoiseParams):
    """log_likelihood and its gradient w.r.t. all constrained parameters.

    y_grad has shape (N_d, R, 4) holding the partials of each region's
    prediction w.r.t. its own (t0, N, k, theta).  Returns
    (value, grad_model of shape (R, 4), grad_eta of shape (4,)) where
    grad_eta is ordered (tau, lambda, sigma_a, sigma_m).

    The differential identities are d logdet Sigma = Tr(Sigma^{-1} dSigma)
    and the matching quadratic-form differential, with dSigma assembled
    from the covariance definition above.  Note the main-text definition
    P = D - lambda W is used throughout (an appendix of the source
    derivation writes I - lambda W instead); finite differences adjudicate.
    """
    y_obs, y_pred = _checked(y_obs, y_pred, graph)
    y_grad = np.asarray(y_grad, dtype=float)
    if y_grad.shape != y_pred.shape + (4,):
        raise ValueError("prediction gradient shape must be (N_d, R, 4)")
    Pinv, chol, scale = _batched_covariances(graph, eta, y_pred)
    Linv, z, value = _whitened(y_obs - y_pred, chol)

    # From L_i^{-1} alone (Sigma_i^{-1} is never formed): b_i = Sigma_i^{-1} r_i, diag Sigma_i^{-1},
    # and sum_i Sigma_i^{-1} = A^T A.
    b = np.einsum("isr,is->ir", Linv, z)
    diag_Sinv = np.einsum("isr,isr->ir", Linv, Linv)
    A = Linv.reshape(-1, Linv.shape[2])
    Sinv_sum = A.T @ A

    # tau slot: dSigma = Pinv
    g_tau = -0.5 * np.sum(Sinv_sum * Pinv) + 0.5 * np.sum((b @ Pinv) * b)
    # lambda slot: dSigma = tau * Pinv W Pinv
    M = eta.tau_phi * (Pinv @ graph.W @ Pinv)
    g_lam = -0.5 * np.sum(Sinv_sum * M) + 0.5 * np.sum((b @ M) * b)
    # sigma_a slot: dSigma = 2 diag(scale)
    g_sa = np.sum(-diag_Sinv * scale + scale * b**2)
    # sigma_m slot: dSigma = 2 diag(scale * y)
    g_sm = np.sum((-diag_Sinv + b**2) * scale * y_pred)

    # Model slots: each y_{i,r} enters the residual and diag(scale)^2.
    q = eta.sigma_m * scale * (b**2 - diag_Sinv) + b  # (N_d, R)
    grad_model = np.einsum("ir,irs->rs", q, y_grad)

    return value, grad_model, np.array([g_tau, g_lam, g_sa, g_sm])
