import numpy as np
import pytest

from epifield import ForecastEnsemble, cluster_regions, crps, detect, exceedance, zscore_features


def ensemble_with_boundary(boundary, n_samples=200):
    """Ensemble whose 99th-percentile boundary is (approximately) `boundary`."""
    boundary = np.asarray(boundary, dtype=float)
    # All samples strictly below the boundary except a thin top tail at it.
    samples = np.linspace(0.0, 1.0, n_samples)[:, None, None] * boundary[None, :, :]
    return ForecastEnsemble(samples=samples, pushforward=samples, day_grid=np.arange(boundary.shape[0], dtype=float))


class TestDetect:
    def test_observations_at_median_no_alarms(self):
        rng = np.random.default_rng(0)
        samples = rng.normal(50, 5, (400, 6, 2))
        ens = ForecastEnsemble(samples=samples, pushforward=samples, day_grid=np.arange(6.0))
        obs = np.percentile(samples, 50, axis=0)
        result = detect(ens, obs)
        assert not result.outliers.any()
        assert result.alarms == ()

    def test_alarm_on_third_consecutive_outlier(self):
        # Outliers on (0-indexed) days 2, 3, 4 only: one alarm dated day 4.
        boundary = np.full((8, 1), 10.0)
        ens = ensemble_with_boundary(boundary)
        obs = np.full((8, 1), 5.0)
        obs[2:5, 0] = 20.0
        result = detect(ens, obs)
        assert len(result.alarms) == 1
        r, day, run = result.alarms[0]
        assert (r, day, run) == (0, 4, 3)

    def test_two_day_runs_do_not_alarm(self):
        ens = ensemble_with_boundary(np.full((8, 1), 10.0))
        obs = np.full((8, 1), 5.0)
        obs[[1, 2, 4, 5], 0] = 20.0
        assert detect(ens, obs).alarms == ()

    def test_run_length_reported_in_full(self):
        ens = ensemble_with_boundary(np.full((9, 1), 10.0))
        obs = np.full((9, 1), 20.0)  # outlier every day
        result = detect(ens, obs)
        assert len(result.alarms) == 1
        assert result.alarms[0] == (0, 2, 9)

    def test_forecast_start_offsets_boundary(self):
        boundary = np.full((10, 1), 10.0)
        boundary[:5] = 1000.0  # fit window rows, should be skipped
        ens = ensemble_with_boundary(boundary)
        obs = np.full((5, 1), 20.0)
        result = detect(ens, obs, forecast_start=5)
        assert result.outliers.all()

    def test_shape_mismatch_rejected(self):
        ens = ensemble_with_boundary(np.full((6, 2), 10.0))
        for obs, start in ((np.zeros((7, 2)), 0), (np.zeros((3, 2)), 4), (np.zeros((4, 3)), 0)):
            with pytest.raises(ValueError):
                detect(ens, obs, forecast_start=start)

    def test_observations_shorter_than_the_forecast(self):
        # Only the observed days are compared: rows forecast_start .. forecast_start + 2.
        boundary = np.full((10, 1), 10.0)
        boundary[7:] = 1000.0
        ens = ensemble_with_boundary(boundary)
        result = detect(ens, np.full((3, 1), 20.0), forecast_start=4)
        assert result.outliers.shape == (3, 1) and result.outliers.all()
        assert result.alarms == ((0, 2, 3),)


def _loop_alarms(outliers, run_length=3):
    """The former per-region scan of detect, kept as the oracle for its vectorised form."""
    alarms = []
    n_days, n_regions = outliers.shape
    for r in range(n_regions):
        run = 0
        for i in range(n_days):
            if outliers[i, r]:
                run += 1
                if run == run_length:
                    alarms.append((r, i, run))
            else:
                run = 0
    full = []
    for r, day, _ in alarms:
        length = run_length
        for i in range(day + 1, n_days):
            if not outliers[i, r]:
                break
            length += 1
        full.append((r, day, length))
    return tuple(full)


def test_alarms_match_the_loop_oracle():
    rng = np.random.default_rng(11)
    ensembles = {}
    for _ in range(3000):
        shape = (int(rng.integers(0, 25)), int(rng.integers(1, 5)))
        if shape not in ensembles:
            ensembles[shape] = ensemble_with_boundary(np.full(shape, 10.0), n_samples=20)
        mask = rng.random(shape) < rng.uniform(0.1, 0.95)
        result = detect(ensembles[shape], np.where(mask, 20.0, 5.0))
        assert np.array_equal(result.outliers, mask)
        assert result.alarms == _loop_alarms(mask)
        assert all(type(v) is int for alarm in result.alarms for v in alarm)


class TestExceedance:
    def test_observed_equals_boundary(self):
        ens = ensemble_with_boundary(np.full((14, 3), 25.0))
        obs = np.percentile(ens.samples, 99, axis=0)
        emap = exceedance(ens, obs, n_smooth=14)
        assert np.allclose(emap.mean_exceedance, 1.0, rtol=1e-9)
        assert np.all(emap.excluded_days == 0)

    def test_observed_zero(self):
        ens = ensemble_with_boundary(np.full((14, 2), 25.0))
        emap = exceedance(ens, np.zeros((14, 2)), n_smooth=14)
        assert np.allclose(emap.mean_exceedance, 0.0)

    def test_nonpositive_boundary_days_excluded(self):
        boundary = np.full((4, 1), 10.0)
        samples = np.linspace(0.0, 1.0, 100)[:, None, None] * boundary[None, :, :]
        samples[:, 1, 0] = -5.0  # day 1 boundary becomes negative
        ens = ForecastEnsemble(samples=samples, pushforward=samples, day_grid=np.arange(4.0))
        emap = exceedance(ens, np.full((4, 1), 5.0), n_smooth=4)
        assert emap.excluded_days[0] == 1
        # Days 0, 2 and 3 share one boundary; day 1's ratio (5 / -5) would pull the mean down.
        assert emap.mean_exceedance[0] == pytest.approx(5.0 / np.percentile(ens.samples, 99, axis=0)[0, 0], rel=1e-12)

    def test_fewer_observed_days_than_n_smooth(self):
        # 3 observed days from row 4 of a 20-row ensemble: the mean covers those 3 and says so.
        boundary = np.full((20, 2), 10.0)
        boundary[7:] = 1000.0
        ens = ensemble_with_boundary(boundary)
        obs = np.array([[10.0, 20.0], [20.0, 20.0], [30.0, 20.0]])
        emap = exceedance(ens, obs, forecast_start=4, n_smooth=14)
        ratio = obs / np.percentile(ens.samples, 99, axis=0)[4:7]
        assert np.array_equal(emap.mean_exceedance, ratio.mean(axis=0))
        assert np.array_equal(emap.days, [3, 3]) and np.array_equal(emap.excluded_days, [0, 0])

    def test_truncates_to_n_smooth(self):
        ens = ensemble_with_boundary(np.full((10, 1), 10.0))
        obs = np.vstack([np.full((4, 1), 5.0), np.full((6, 1), 1e6)])
        emap = exceedance(ens, obs, n_smooth=4)
        assert emap.mean_exceedance[0] == pytest.approx(5.0 / np.percentile(ens.samples, 99, axis=0)[0, 0], rel=1e-12)
        assert emap.days[0] == 4


@pytest.mark.parametrize("score", [
    lambda ens, obs: detect(ens, obs),
    lambda ens, obs: exceedance(ens, obs, n_smooth=14),
    crps,
], ids=["detect", "exceedance", "crps"])
def test_observations_past_the_ensemble_or_of_another_width_are_refused(score):
    ens = ensemble_with_boundary(np.full((6, 2), 10.0))
    with pytest.raises(ValueError, match="7 observed day.* from row 0 run past the ensemble's 6 rows"):
        score(ens, np.zeros((7, 2)))
    with pytest.raises(ValueError, match="do not have the ensemble's 2 region"):
        score(ens, np.zeros((3, 3)))


class TestZscore:
    def test_standardizes_columns(self):
        rng = np.random.default_rng(1)
        X = rng.normal(5, 3, (40, 3))
        Z = zscore_features(X)
        assert np.allclose(Z.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(Z.std(axis=0), 1.0, rtol=1e-12)

    def test_affine_invariance(self):
        rng = np.random.default_rng(2)
        X = rng.normal(0, 1, (25, 3))
        scale = np.array([3.0, 0.25, 100.0])
        shift = np.array([-7.0, 2.0, 1e6])
        assert np.allclose(zscore_features(X * scale + shift), zscore_features(X), atol=1e-9)

    def test_drops_constant_columns_with_warning(self):
        X = np.column_stack([np.arange(10.0), np.full(10, 3.0)])
        with pytest.warns(UserWarning, match="zero-variance"):
            Z = zscore_features(X)
        assert Z.shape == (10, 1)


def naive_complete_linkage(X):
    """O(R^3) agglomeration oracle returning the merge-height sequence and
    the frozenset partition at each merge."""
    clusters = [frozenset([i]) for i in range(X.shape[0])]
    dist = lambda a, b: max(
        np.linalg.norm(X[i] - X[j]) for i in a for j in b
    )
    merges = []
    while len(clusters) > 1:
        best = None
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                d = dist(clusters[i], clusters[j])
                if best is None or d < best[0]:
                    best = (d, i, j)
        d, i, j = best
        merged = clusters[i] | clusters[j]
        merges.append((d, merged))
        clusters = [c for k, c in enumerate(clusters) if k not in (i, j)] + [merged]
    return merges


def scipy_merge_sets(Z, n):
    """Recover (height, member-set) per merge from a scipy linkage matrix."""
    members = {i: frozenset([i]) for i in range(n)}
    out = []
    for step, (a, b, h, _) in enumerate(Z):
        merged = members[int(a)] | members[int(b)]
        members[n + step] = merged
        out.append((h, merged))
    return out


class TestClustering:
    def test_two_separated_groups(self):
        rng = np.random.default_rng(3)
        X = np.vstack([rng.normal(0, 0.5, (6, 2)), rng.normal(50, 0.5, (6, 2))])
        for cut in (0.25, 0.5, 0.75):
            labels, _ = cluster_regions(X, cut=cut)
            assert len(set(labels)) == 2
            assert len(set(labels[:6])) == 1
            assert len(set(labels[6:])) == 1

    def test_identical_features_single_cluster(self):
        X = np.full((5, 3), 2.0)
        with pytest.warns(UserWarning):
            labels, _ = cluster_regions(X, cut=0.6)
        assert len(set(labels)) == 1

    def test_matches_naive_agglomeration_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            X = rng.normal(0, 1, (10, 3))
            _, Z = cluster_regions(X, cut=0.5)
            oracle = naive_complete_linkage(zscore_features(X))
            got = scipy_merge_sets(Z, 10)
            for (h_o, set_o), (h_g, set_g) in zip(oracle, got):
                assert set_o == set_g
                assert h_g == pytest.approx(h_o, rel=1e-10)

    def test_needs_two_regions(self):
        with pytest.raises(ValueError):
            cluster_regions(np.zeros((1, 2)), cut=0.6)
