import datetime as dt

import numpy as np
import pytest

from epifield import (
    CaseData,
    IncubationParams,
    NoiseParams,
    ParamVector,
    RegionParams,
    ingest_cases,
    path_graph,
    smooth,
    synthetic_counts,
)
from epifield.data import write_cases_csv
from epifield.likelihood import _batched_covariances


def write_rows(path, rows):
    with open(path, "w") as fh:
        fh.write("date,region_id,count\n")
        for r in rows:
            fh.write(",".join(str(v) for v in r) + "\n")


GRAPH2 = path_graph(("a", "b"))


class TestIngest:
    def test_complete_file(self, tmp_path):
        p = tmp_path / "cases.csv"
        rows = [
            ("2020-06-01", "a", 1), ("2020-06-01", "b", 2),
            ("2020-06-02", "a", 3), ("2020-06-02", "b", 4),
            ("2020-06-03", "a", 5), ("2020-06-03", "b", 6),
        ]
        write_rows(p, rows)
        data = ingest_cases(p, GRAPH2)
        assert data.counts.shape == (3, 2)
        assert np.array_equal(data.counts, [[1, 2], [3, 4], [5, 6]])
        assert data.dates[0] == dt.date(2020, 6, 1)

    def test_region_order_follows_graph(self, tmp_path):
        p = tmp_path / "cases.csv"
        write_rows(p, [("2020-06-01", "b", 9), ("2020-06-01", "a", 1)])
        data = ingest_cases(p, GRAPH2)
        assert np.array_equal(data.counts, [[1, 9]])

    def test_missing_cell_filled_with_warning(self, tmp_path):
        p = tmp_path / "cases.csv"
        write_rows(p, [
            ("2020-06-01", "a", 1), ("2020-06-01", "b", 2),
            ("2020-06-02", "a", 3),
        ])
        with pytest.warns(UserWarning, match="1 missing"):
            data = ingest_cases(p, GRAPH2)
        assert data.counts[1, 1] == 0.0

    def test_duplicate_rows_error(self, tmp_path):
        p = tmp_path / "cases.csv"
        write_rows(p, [("2020-06-01", "a", 1), ("2020-06-01", "a", 2)])
        with pytest.raises(ValueError, match=r"duplicate row for \(2020-06-01, a\)"):
            ingest_cases(p, GRAPH2)

    def test_unknown_region_error(self, tmp_path):
        p = tmp_path / "cases.csv"
        write_rows(p, [("2020-06-01", "zz", 1)])
        with pytest.raises(ValueError, match="unknown region"):
            ingest_cases(p, GRAPH2)

    def test_negative_count_error(self, tmp_path):
        p = tmp_path / "cases.csv"
        write_rows(p, [("2020-06-01", "a", -3)])
        with pytest.raises(ValueError, match="negative count"):
            ingest_cases(p, GRAPH2)

    def test_roundtrip_through_writer(self, tmp_path):
        dates = tuple(dt.date(2020, 6, 1) + dt.timedelta(days=i) for i in range(4))
        data = CaseData(dates=dates, counts=np.arange(8.0).reshape(4, 2), region_ids=("a", "b"))
        p = tmp_path / "cases.csv"
        write_cases_csv(data, p)
        back = ingest_cases(p, GRAPH2)
        assert np.allclose(back.counts, data.counts)
        assert back.dates == data.dates


class TestCaseData:
    def test_rejects_gap_in_dates(self):
        dates = (dt.date(2020, 6, 1), dt.date(2020, 6, 3))
        with pytest.raises(ValueError, match="contiguous"):
            CaseData(dates=dates, counts=np.zeros((2, 1)), region_ids=("a",))

    def test_window_and_offsets(self):
        dates = tuple(dt.date(2020, 6, 1) + dt.timedelta(days=i) for i in range(10))
        data = CaseData(dates=dates, counts=np.arange(10.0)[:, None], region_ids=("a",))
        w = data.window(dt.date(2020, 6, 3), dt.date(2020, 6, 5))
        assert w.n_days == 3
        assert np.array_equal(w.counts.ravel(), [2, 3, 4])
        assert np.array_equal(w.day_offsets(dt.date(2020, 6, 1)), [2, 3, 4])

    def test_empty_window_rejected(self):
        dates = (dt.date(2020, 6, 1),)
        data = CaseData(dates=dates, counts=np.zeros((1, 1)), region_ids=("a",))
        with pytest.raises(ValueError):
            data.window(dt.date(2021, 1, 1), dt.date(2021, 1, 2))


class TestSmooth:
    def _series(self, counts):
        counts = np.asarray(counts, dtype=float)[:, None]
        dates = tuple(dt.date(2020, 6, 1) + dt.timedelta(days=i) for i in range(len(counts)))
        return CaseData(dates=dates, counts=counts, region_ids=("a",))

    def test_constant_unchanged(self):
        data = self._series(np.full(15, 4.0))
        assert np.allclose(smooth(data, 7).counts, 4.0)

    def test_impulse_plateau(self):
        counts = np.zeros(21)
        counts[10] = 7.0
        out = smooth(self._series(counts), 7).counts.ravel()
        assert np.allclose(out[7:14], 1.0)
        assert np.allclose(out[:7], 0.0)
        assert np.allclose(out[14:], 0.0)

    def test_window_one_is_identity(self):
        data = self._series(np.arange(8.0))
        assert np.array_equal(smooth(data, 1).counts, data.counts)

    def test_even_window_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            smooth(self._series(np.zeros(10)), 4)

    def test_window_longer_than_series_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            smooth(self._series(np.zeros(5)), 7)

    def test_mass_preserved_away_from_edges(self):
        rng = np.random.default_rng(0)
        data = self._series(rng.uniform(0, 10, 30))
        out = smooth(data, 7)
        # interior means equal the windowed averages
        for i in range(3, 27):
            assert out.counts[i, 0] == pytest.approx(data.counts[i - 3 : i + 4, 0].mean())


class TestSynthetic:
    def _truth(self, sigma_m=0.1):
        regions = [RegionParams(t0=-8.0, N=600.0, k=3.0, theta=7.0),
                   RegionParams(t0=-5.0, N=900.0, k=2.5, theta=9.0)]
        return ParamVector.from_parts(regions, NoiseParams(1.0, 0.5, 1.0, sigma_m))

    def test_zero_noise_equals_predictions(self):
        regions = [RegionParams(t0=-8.0, N=600.0, k=3.0, theta=7.0),
                   RegionParams(t0=-5.0, N=900.0, k=2.5, theta=9.0)]
        truth = ParamVector.from_parts(regions, NoiseParams(0.0, 0.0, 0.0, 0.0))
        grid = np.arange(1.0, 31.0)
        obs, y = synthetic_counts(truth, GRAPH2, IncubationParams(), grid)
        assert np.array_equal(obs, y)

    def test_seed_determinism(self):
        truth = self._truth()
        grid = np.arange(1.0, 31.0)
        o1, _ = synthetic_counts(truth, GRAPH2, IncubationParams(), grid, seed=5)
        o2, _ = synthetic_counts(truth, GRAPH2, IncubationParams(), grid, seed=5)
        o3, _ = synthetic_counts(truth, GRAPH2, IncubationParams(), grid, seed=6)
        assert np.array_equal(o1, o2)
        assert not np.array_equal(o1, o3)

    def test_noise_covariance_matches_model(self):
        # High-count regime so the nonnegativity floor never bites.
        regions = [RegionParams(t0=-8.0, N=60_000.0, k=3.0, theta=7.0),
                   RegionParams(t0=-5.0, N=90_000.0, k=2.5, theta=9.0)]
        truth = ParamVector.from_parts(regions, NoiseParams(1.0, 0.5, 1.0, 0.05))
        grid = np.array([8.0, 12.0, 16.0])
        inc = IncubationParams()
        _, y = synthetic_counts(truth, GRAPH2, inc, grid)
        _, chol, _ = _batched_covariances(GRAPH2, truth.noise, y)
        Sigma = chol @ chol.swapaxes(1, 2)
        reps = 3000
        noise = np.empty((reps, 3, 2))
        for s in range(reps):
            obs, _ = synthetic_counts(truth, GRAPH2, inc, grid, seed=s)
            noise[s] = obs - y
        for i in range(3):
            emp = np.cov(noise[:, i, :].T)
            gap = np.linalg.norm(emp - Sigma[i]) / np.linalg.norm(Sigma[i])
            assert gap < 0.10
