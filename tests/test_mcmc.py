import numpy as np
import pytest

from epifield import AmcmcConfig, run_amcmc


class StandardNormal:
    def __init__(self, d):
        self.d = d

    def logpost(self, x):
        return -0.5 * float(x @ x)


class TestRunAmcmc:
    def test_recovers_standard_normal(self):
        target = StandardNormal(3)
        cfg = AmcmcConfig(n_total=100_000, seed=0)
        chain = run_amcmc(target, np.zeros(3), cfg)
        assert chain.samples.shape == (5000, 3)
        assert np.all(np.abs(chain.samples.mean(axis=0)) < 0.05)
        assert np.max(np.abs(np.cov(chain.samples.T) - np.eye(3))) < 0.1

    def test_seed_determinism(self):
        target = StandardNormal(2)
        cfg = AmcmcConfig(n_total=2000, seed=3)
        c1 = run_amcmc(target, np.zeros(2), cfg)
        c2 = run_amcmc(target, np.zeros(2), cfg)
        assert np.array_equal(c1.samples, c2.samples)
        assert c1.acceptance_rate == c2.acceptance_rate

    def test_acceptance_rate_reasonable_after_adaptation(self):
        target = StandardNormal(4)
        cfg = AmcmcConfig(n_total=20_000, seed=1)
        chain = run_amcmc(target, np.zeros(4), cfg)
        assert 0.1 <= chain.acceptance_rate <= 0.5

    def test_warns_on_high_dimension(self):
        target = StandardNormal(17)
        with pytest.warns(UserWarning, match="d=17"):
            run_amcmc(target, np.zeros(17), AmcmcConfig(n_total=200))

    def test_rejects_nonfinite_start(self):
        class Bad:
            def logpost(self, x):
                return -np.inf

        with pytest.raises(ValueError):
            run_amcmc(Bad(), np.zeros(2), AmcmcConfig(n_total=100))

    def test_burn_in_default_is_half(self):
        cfg = AmcmcConfig(n_total=1000)
        assert cfg.effective_burn_in == 500

    @pytest.mark.parametrize("kwargs", [{"n_total": 10}, {"n_total": 20}])
    def test_budget_keeping_fewer_than_two_draws_is_refused(self, kwargs):
        # n_total=10 used to fail with an IndexError; n_total=20 kept one draw and reported nan sds.
        with pytest.raises(ValueError, match="keep"):
            AmcmcConfig(**kwargs)

    def test_smallest_budget_keeps_two_draws(self):
        chain = run_amcmc(StandardNormal(2), np.zeros(2), AmcmcConfig(n_total=40, seed=5))
        assert chain.samples.shape == (2, 2)
        assert np.all(np.isfinite(chain.samples.std(axis=0, ddof=1)))
