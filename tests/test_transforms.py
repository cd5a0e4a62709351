import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from scipy.special import expit, logit

from epifield import NoiseParams, PriorSpec, RegionParams
from epifield.likelihood import EPS_LAMBDA
from epifield.model import EPS_THETA, K_MIN
from epifield.params import (
    ParamVector,
    TransformSpec,
    dim_for,
    log_prior,
    param_names,
    slots,
    softplus,
    softplus_inv,
)

TF2 = TransformSpec(2)

# Slot kind codes of the table-driven oracle below.
IDENTITY, EXP, SOFTPLUS, LOGISTIC = 0, 1, 2, 3


class _TableTransformSpec:
    """Reference: the per-slot table (kind, offset, upper) that TransformSpec's fixed slot groups replaced."""

    def __init__(self, n_regions):
        kinds = np.tile([IDENTITY, EXP, SOFTPLUS, SOFTPLUS], n_regions)
        self.kinds = np.concatenate([kinds, [EXP, LOGISTIC, EXP, EXP]])
        self.offsets = np.zeros(self.kinds.shape)
        self.offsets[np.arange(n_regions) * 4 + 2] = K_MIN
        self.offsets[np.arange(n_regions) * 4 + 3] = EPS_THETA
        self.uppers = np.ones(self.kinds.shape)
        self.uppers[4 * n_regions + 1] = 1.0 - EPS_LAMBDA

    def forward(self, xhat):
        out = np.empty_like(xhat)
        m = self.kinds == IDENTITY
        out[m] = xhat[m]
        m = self.kinds == EXP
        out[m] = np.exp(xhat[m])
        m = self.kinds == SOFTPLUS
        out[m] = self.offsets[m] + softplus(xhat[m])
        m = self.kinds == LOGISTIC
        out[m] = self.uppers[m] * expit(xhat[m])
        return out

    def inverse(self, theta):
        out = np.empty_like(theta)
        m = self.kinds == IDENTITY
        out[m] = theta[m]
        m = self.kinds == EXP
        if np.any(theta[m] <= 0):
            raise ValueError("exp-slot value must be strictly positive")
        out[m] = np.log(theta[m])
        m = self.kinds == SOFTPLUS
        shifted = theta[m] - self.offsets[m]
        if np.any(shifted <= 0):
            raise ValueError("softplus-slot value must exceed its offset")
        out[m] = softplus_inv(shifted)
        m = self.kinds == LOGISTIC
        frac = theta[m] / self.uppers[m]
        if np.any((frac <= 0) | (frac >= 1)):
            raise ValueError("logistic-slot value must lie strictly inside (0, upper)")
        out[m] = logit(frac)
        return out

    def fprime(self, xhat):
        out = np.ones_like(xhat)
        m = self.kinds == EXP
        out[m] = np.exp(xhat[m])
        m = self.kinds == SOFTPLUS
        out[m] = expit(xhat[m])
        m = self.kinds == LOGISTIC
        s = expit(xhat[m])
        out[m] = self.uppers[m] * s * (1.0 - s)
        return out

    def log_jacobian(self, xhat):
        logs = np.zeros_like(xhat)
        m = self.kinds == EXP
        logs[m] = xhat[m]
        m = self.kinds == SOFTPLUS
        logs[m] = -softplus(-xhat[m])
        m = self.kinds == LOGISTIC
        logs[m] = np.log(self.uppers[m]) - softplus(-xhat[m]) - softplus(xhat[m])
        return float(np.sum(logs))

    def log_jacobian_grad(self, xhat):
        out = np.zeros_like(xhat)
        m = self.kinds == EXP
        out[m] = 1.0
        m = self.kinds == SOFTPLUS
        out[m] = expit(-xhat[m])
        m = self.kinds == LOGISTIC
        out[m] = 1.0 - 2.0 * expit(xhat[m])
        return out


class TestSoftplus:
    def test_at_zero(self):
        assert softplus(0.0) == pytest.approx(np.log(2.0), rel=1e-14)

    def test_large_argument_linear(self):
        assert softplus(500.0) == pytest.approx(500.0)
        assert softplus_inv(500.0) == pytest.approx(500.0)
        assert np.isfinite(softplus(-500.0))

    @given(st.floats(-30.0, 30.0))
    def test_roundtrip(self, x):
        assert softplus_inv(softplus(x)) == pytest.approx(x, abs=1e-9)


class TestTransformSpec:
    def test_zero_vector_image(self):
        tf = TransformSpec(1)
        theta = tf.forward(np.zeros(8))
        log2 = np.log(2.0)
        expected = [0.0, 1.0, 2.0 + log2, EPS_THETA + log2, 1.0, (1.0 - EPS_LAMBDA) / 2.0, 1.0, 1.0]
        assert np.allclose(theta, expected, rtol=1e-12)

    def test_k_slot_zero_maps_back(self):
        tf = TransformSpec(1)
        # k = 2 + log 2 corresponds to unconstrained 0
        theta = tf.forward(np.zeros(8))
        assert tf.inverse(theta)[2] == pytest.approx(0.0, abs=1e-12)

    @given(st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_roundtrip(self, n_regions, seed):
        tf = TransformSpec(n_regions)
        x = np.random.default_rng(seed).uniform(-5, 5, dim_for(n_regions))
        theta = tf.forward(x)
        assert np.allclose(tf.inverse(theta), x, atol=1e-12, rtol=1e-10)
        assert np.allclose(tf.forward(tf.inverse(theta)), theta, rtol=1e-12)

    def test_lambda_slot_asymptote(self):
        tf = TransformSpec(1)
        lam_slot = 5
        vals = [tf.forward(np.eye(8)[lam_slot] * x)[lam_slot] for x in (1.0, 5.0, 20.0, 60.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1.0 - EPS_LAMBDA + 1e-15
        assert vals[-1] == pytest.approx(1.0 - EPS_LAMBDA, abs=1e-9)

    def test_inverse_rejects_out_of_domain(self):
        tf = TransformSpec(1)
        theta = tf.forward(np.zeros(8))
        for slot, bad in [(1, -1.0), (2, 2.0), (3, 0.0), (5, 1.0)]:
            t = theta.copy()
            t[slot] = bad
            with pytest.raises(ValueError):
                tf.inverse(t)

    def test_fprime_positive(self):
        x = np.random.default_rng(0).uniform(-8, 8, dim_for(2))
        assert np.all(TF2.jacobian(x)[0] > 0)

    def test_fprime_matches_finite_differences(self):
        x = np.random.default_rng(1).uniform(-3, 3, dim_for(2))
        h = 1e-6
        fd = (TF2.forward(x + h) - TF2.forward(x - h)) / (2 * h)
        assert np.allclose(TF2.jacobian(x)[0], fd, rtol=1e-8)


@pytest.mark.parametrize("n_regions", [1, 3, 33])
def test_matches_the_table_oracle(n_regions):
    """Every map, and each of jacobian's three outputs, equals the table-driven reference bit for bit
    (NaN equal to NaN), out to |x| = 800."""
    tf, ref = TransformSpec(n_regions), _TableTransformSpec(n_regions)
    rng = np.random.default_rng(n_regions)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for scale in (1.0, 10.0, 50.0, 800.0):
            for _ in range(150):
                x = rng.uniform(-scale, scale, dim_for(n_regions))
                assert np.array_equal(tf.forward(x), ref.forward(x), equal_nan=True)
                fprime, log_jacobian, log_jacobian_grad = tf.jacobian(x)
                assert np.array_equal(fprime, ref.fprime(x), equal_nan=True)
                assert np.array_equal(log_jacobian, ref.log_jacobian(x), equal_nan=True)
                assert type(log_jacobian) is float
                assert np.array_equal(log_jacobian_grad, ref.log_jacobian_grad(x), equal_nan=True)
                theta = ref.forward(x)
                try:
                    expected = ref.inverse(theta)
                except ValueError:
                    with pytest.raises(ValueError):
                        tf.inverse(theta)
                else:
                    assert np.array_equal(tf.inverse(theta), expected, equal_nan=True)


@pytest.mark.parametrize("n_regions", [1, 3, 33])
def test_names_and_transforms_agree_on_the_layout(n_regions):
    names = param_names(n_regions)
    x = np.random.default_rng(n_regions).uniform(-5, 5, dim_for(n_regions))
    theta = TransformSpec(n_regions).forward(x)
    identity = np.array([name.startswith("t0[") for name in names])
    exp = np.array([name.startswith("N[") or name in ("tau_phi", "sigma_a", "sigma_m") for name in names])
    assert identity.sum() == n_regions and exp.sum() == n_regions + 3
    assert np.array_equal(theta[identity], x[identity])
    assert np.array_equal(theta[exp], np.exp(x[exp]))
    rest = ~(identity | exp)
    assert np.all(theta[rest] != x[rest]) and np.all(theta[rest] != np.exp(x[rest]))

    regions = [RegionParams(t0=-1.0 - r, N=100.0 + r, k=3.0 + r, theta=5.0 + r) for r in range(n_regions)]
    noise = NoiseParams(tau_phi=1.5, lambda_phi=0.4, sigma_a=2.0, sigma_m=0.2)
    pv = ParamVector.from_parts(regions, noise)
    assert [pv.region(r) for r in range(n_regions)] == regions
    assert pv.noise == noise
    by_name = dict(zip(names, pv.values))
    assert [by_name[f"theta[{r}]"] for r in range(n_regions)] == [p.theta for p in regions]
    assert by_name["lambda_phi"] == noise.lambda_phi


class TestLogJacobian:
    def test_identity_slot(self):
        tf = TransformSpec(1)
        fp, _, g = tf.jacobian(np.zeros(8))
        assert fp[0] == 1.0 and g[0] == 0.0  # t0 slot

    def test_exp_slot_at_zero(self):
        tf = TransformSpec(1)
        fp = tf.jacobian(np.zeros(8))[0]
        assert fp[1] == pytest.approx(1.0)  # exp'(0) = 1, log-contribution 0

    def test_softplus_slot_at_zero(self):
        tf = TransformSpec(1)
        fp = tf.jacobian(np.zeros(8))[0]
        assert fp[2] == pytest.approx(0.5)  # logistic(0)

    def test_total_is_sum_of_log_derivatives(self):
        x = np.random.default_rng(2).uniform(-4, 4, dim_for(2))
        fp, total, _ = TF2.jacobian(x)
        assert total == pytest.approx(float(np.sum(np.log(fp))), rel=1e-10)

    def test_grad_matches_finite_differences(self):
        x = np.random.default_rng(3).uniform(-3, 3, dim_for(2))
        g = TF2.jacobian(x)[2]
        h = 1e-6
        fd = np.empty_like(x)
        for i in range(x.size):
            hi, lo = x.copy(), x.copy()
            hi[i] += h
            lo[i] -= h
            fd[i] = (TF2.jacobian(hi)[1] - TF2.jacobian(lo)[1]) / (2 * h)
        assert np.allclose(g, fd, atol=1e-8)


class TestPrior:
    def test_value_at_mode(self):
        prior = PriorSpec(t0_mean=-10.0, t0_sd=30.0)
        theta = np.zeros(12)
        theta[slots(2, "t0")] = -10.0
        v, _ = log_prior(theta, prior, 2)
        assert v == pytest.approx(2 * (-0.5 * np.log(2 * np.pi * 30.0**2)), rel=1e-12)

    def test_gradient_is_gaussian_score(self):
        prior = PriorSpec(t0_mean=-10.0, t0_sd=30.0)
        theta = np.zeros(8)
        theta[0] = -4.0
        _, g = log_prior(theta, prior, 1)
        assert g[0] == pytest.approx(-(-4.0 + 10.0) / 30.0**2, rel=1e-12)
        assert np.all(g[1:] == 0.0)

    def test_gradient_matches_finite_differences(self):
        prior = PriorSpec()
        rng = np.random.default_rng(4)
        theta = rng.uniform(-20, 20, 12)
        _, g = log_prior(theta, prior, 2)
        h = 1e-6
        for i in slots(2, "t0"):
            hi, lo = theta.copy(), theta.copy()
            hi[i] += h
            lo[i] -= h
            fd = (log_prior(hi, prior, 2)[0] - log_prior(lo, prior, 2)[0]) / (2 * h)
            assert g[i] == pytest.approx(fd, abs=1e-8)

    def test_rejects_nonpositive_sd(self):
        with pytest.raises(ValueError):
            PriorSpec(t0_sd=0.0)
