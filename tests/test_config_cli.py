import csv
import importlib.resources
import json

import numpy as np
import pytest

from epifield import RunConfig, content_hash
from epifield.cli import main


class TestRunConfig:
    def test_json_roundtrip(self):
        cfg = RunConfig(seed=7, regions=("a", "b"))
        back = RunConfig.from_json(cfg.to_json())
        assert back == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys: bogus"):
            RunConfig.from_json(json.dumps({"bogus": 1}))

    def test_fit_window_order_enforced(self):
        with pytest.raises(ValueError, match="precede"):
            RunConfig(fit_start="2020-09-15", fit_end="2020-06-01")

    def test_overrides(self):
        cfg = RunConfig().with_overrides(seed=99)
        assert cfg.seed == 99

    def test_content_hash_sensitivity(self):
        cfg = RunConfig()
        h = content_hash(cfg, b"data")
        assert h != content_hash(cfg, b"other")
        assert h != content_hash(cfg.with_overrides(seed=1), b"data")
        assert h == content_hash(RunConfig(), b"data")


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One shared simulate -> fit run for the CLI integration tests."""
    root = tmp_path_factory.mktemp("cli")
    fix = importlib.resources.files("epifield") / "fixtures"
    cfg = {
        "cases_csv": str(root / "out" / "cases.csv"),
        "regions_csv": str(fix / "nm_regions.csv"),
        "edges_csv": str(fix / "nm_edges.csv"),
        "regions": ["bernalillo", "sandoval"],
        "fit_start": "2020-06-01",
        "fit_end": "2020-08-15",
        "forecast_days": 14,
        "max_iters": 200,
        "n_samples": 10,
        "ppt_samples": 100,
        "seed": 3,
    }
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out = str(root / "out")
    assert main(["simulate", "--config", str(cfg_path), "--out", out, "--second-wave", "3.0"]) == 0
    assert main(["fit", "--config", str(cfg_path), "--out", out]) == 0
    return root, cfg_path, out


class TestCliPipeline:
    def test_fit_artifacts(self, pipeline):
        root, _, out = pipeline
        doc = json.loads((root / "out" / "fit.json").read_text())
        assert len(doc["mu"]) == 2 * 4 + 4
        assert (root / "out" / "trace.csv").exists()

    def test_forecast(self, pipeline):
        root, cfg_path, out = pipeline
        assert main(["forecast", "--config", str(cfg_path), "--out", out]) == 0
        with open(root / "out" / "forecast.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["region_id"] for r in rows} == {"bernalillo", "sandoval"}
        for r in rows:
            assert float(r["p05"]) <= float(r["p50"]) <= float(r["p95"])

    def test_detect_finds_injected_wave(self, pipeline):
        root, cfg_path, out = pipeline
        assert main(["detect", "--config", str(cfg_path), "--out", out]) == 0
        with open(root / "out" / "alarms.csv") as fh:
            alarms = list(csv.DictReader(fh))
        assert {a["region_id"] for a in alarms} == {"bernalillo", "sandoval"}
        # The wave starts rising right at the forecast boundary; the alarm
        # must land within the first week of forecast days.
        assert all(a["alarm_date"] <= "2020-08-22" for a in alarms)

    def test_exceedance_and_cluster(self, pipeline):
        root, cfg_path, out = pipeline
        assert main(["exceedance", "--config", str(cfg_path), "--out", out]) == 0
        with open(root / "out" / "exceedance.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert all(float(r["mean_exceedance"]) > 1.0 for r in rows)
        assert main(["cluster", "--config", str(cfg_path), "--out", out]) == 0
        assert (root / "out" / "clusters.csv").exists()
        assert (root / "out" / "dendrogram.json").exists()

    def test_crps(self, pipeline):
        root, cfg_path, out = pipeline
        assert main(["crps", "--config", str(cfg_path), "--out", out]) == 0
        with open(root / "out" / "crps.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert all(float(r["crps"]) > 0 for r in rows)

    def test_gradcheck(self, pipeline, capsys):
        root, cfg_path, out = pipeline
        assert main(["gradcheck", "--config", str(cfg_path), "--out", out]) == 0
        text = capsys.readouterr().out
        assert "PASSED" in text

    def test_hash_mismatch_refused(self, pipeline, tmp_path, capsys):
        root, cfg_path, out = pipeline
        altered = json.loads(cfg_path.read_text())
        altered["seed"] = 12345
        other = tmp_path / "config.json"
        other.write_text(json.dumps(altered))
        assert main(["forecast", "--config", str(other), "--out", out]) == 2
        assert "re-run fit" in capsys.readouterr().err


class TestCliErrors:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == 1

    def test_missing_config_is_data_error(self, tmp_path, capsys):
        assert main(["fit", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2

    def test_linalg_failure_is_numerical_error(self, pipeline, tmp_path, monkeypatch, capsys):
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr("epifield.cli.fit_mfvi", singular)
        _, cfg_path, _ = pipeline
        assert main(["fit", "--config", str(cfg_path), "--out", str(tmp_path)]) == 3
        assert "numerical failure" in capsys.readouterr().err
        assert "LinAlgError" in (tmp_path / "diagnostics.txt").read_text()

    def test_seed_override(self, pipeline, tmp_path):
        # --seed changes the config hash, so a fitted artifact is refused.
        root, cfg_path, out = pipeline
        assert main(["forecast", "--config", str(cfg_path), "--out", out, "--seed", "77"]) == 2
