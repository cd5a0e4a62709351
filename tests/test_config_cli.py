import csv
import importlib.resources
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

import epifield.cli
import epifield.likelihood
from epifield import ForecastEnsemble, RunConfig, content_hash
from epifield.cli import main
from epifield.config import ENSEMBLE_FIELDS, FIT_FIELDS
from epifield.forecast import write_ensemble_npz


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

    def test_content_hash_separates_inputs(self):
        cfg = RunConfig()
        assert content_hash(cfg, b"ab", b"c") != content_hash(cfg, b"a", b"bc")
        assert content_hash(cfg, b"ab") != content_hash(cfg, b"ab", b"")

    def test_fit_hash_binds_only_fit_fields(self):
        # Input paths are not bound; the CLI binds the files' bytes instead.
        downstream = {
            "cases_csv": "other.csv", "regions_csv": "r.csv", "edges_csv": "e.csv", "forecast_days": 30,
            "ppt_samples": 7, "n_smooth": 3, "mcmc_draws": 10, "crps_on_raw": True, "detect_on_raw": True,
            "cluster_linkage": "single", "cluster_cut": 0.1, "cluster_cut_mode": "quantile",
        }
        assert set(downstream).isdisjoint(FIT_FIELDS)
        assert set(downstream) | set(FIT_FIELDS) == set(RunConfig.__dataclass_fields__)
        cfg = RunConfig()
        h = content_hash(cfg, b"data", fields=FIT_FIELDS)
        for name, value in downstream.items():
            assert content_hash(cfg.with_overrides(**{name: value}), b"data", fields=FIT_FIELDS) == h, name
        fit_edits = {"fit_end": "2020-09-01", "smoothing_window": 3, "incubation_sigma": 0.5,
                     "include_jacobian_entropy": False, "max_iters": 10, "seed": 1, "regions": ("a",)}
        for name, value in fit_edits.items():
            assert content_hash(cfg.with_overrides(**{name: value}), b"data", fields=FIT_FIELDS) != h, name


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

    def test_optimizer_edit_refused(self, pipeline, tmp_path, capsys):
        _, cfg_path, out = pipeline
        other = _edited_config(cfg_path, tmp_path, max_iters=201)
        assert main(["forecast", "--config", str(other), "--out", out]) == 2
        assert "re-run fit" in capsys.readouterr().err

    def test_cluster_cut_edit_keeps_the_fit(self, pipeline, tmp_path):
        # A private output directory with a copy of fit.json leaves the shared one alone.
        root, cfg_path, out = pipeline
        shutil.copy(root / "out" / "fit.json", tmp_path / "fit.json")
        assert main(["cluster", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
        before = (tmp_path / "clusters.csv").read_bytes()
        other = _edited_config(cfg_path, tmp_path, cluster_cut=1.5)
        assert main(["cluster", "--config", str(other), "--out", str(tmp_path)]) == 0
        after = (tmp_path / "clusters.csv").read_bytes()
        assert after != before
        with open(tmp_path / "clusters.csv") as fh:
            assert {row["cluster_label"] for row in csv.DictReader(fh)} == {"1"}

    def test_oversized_incubation_table_is_data_error(self, pipeline, tmp_path, capsys):
        _, cfg_path, _ = pipeline
        other = _edited_config(cfg_path, tmp_path, incubation_sigma=2.0)
        for command in ("fit", "simulate"):
            assert main([command, "--config", str(other), "--out", str(tmp_path)]) == 2
            err = capsys.readouterr().err
            assert "data error" in err and "1048576 cells" in err, command
        assert not (tmp_path / "fit.json").exists()


def _edited_config(cfg_path, directory, **edits):
    """A copy of the config at cfg_path with edits, written to directory."""
    doc = {**json.loads(cfg_path.read_text()), **edits}
    path = directory / "edited_config.json"
    path.write_text(json.dumps(doc))
    return path


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

    def test_singular_covariance_factor_is_numerical_error(self, pipeline, tmp_path, monkeypatch, capsys):
        real = epifield.likelihood._batched_covariances

        def singular(*args):
            Pinv, chol, scale = real(*args)
            chol[:, 0, 0] = 0.0
            return Pinv, chol, scale

        monkeypatch.setattr(epifield.likelihood, "_batched_covariances", singular)
        _, cfg_path, _ = pipeline
        assert main(["gradcheck", "--config", str(cfg_path), "--out", str(tmp_path)]) == 3
        assert "numerical failure" in capsys.readouterr().err
        assert "LinAlgError" in (tmp_path / "diagnostics.txt").read_text()

    def test_seed_override(self, pipeline, tmp_path):
        # --seed changes the config hash, so a fitted artifact is refused.
        root, cfg_path, out = pipeline
        assert main(["forecast", "--config", str(cfg_path), "--out", out, "--seed", "77"]) == 2


def _simulate_and_fit(root, regions=("bernalillo", "sandoval"), **overrides):
    """simulate + a tiny fit in root, with a private copy of the edges file."""
    fix = importlib.resources.files("epifield") / "fixtures"
    shutil.copy(fix / "nm_edges.csv", root / "edges.csv")
    cfg = {
        "cases_csv": str(root / "cases.csv"),
        "regions_csv": str(fix / "nm_regions.csv"),
        "edges_csv": str(root / "edges.csv"),
        "regions": list(regions),
        "fit_start": "2020-06-01",
        "fit_end": "2020-08-15",
        "forecast_days": 14,
        "max_iters": 5,
        "n_samples": 2,
        "ppt_samples": 20,
        "seed": 4,
        **overrides,
    }
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    args = ["--config", str(cfg_path), "--out", str(root)]
    assert main(["simulate", *args, "--second-wave", "3.0"]) == 0
    assert main(["fit", *args]) == 0
    return args


def test_edited_edges_refused(tmp_path, capsys):
    args = _simulate_and_fit(tmp_path, regions=("bernalillo", "sandoval", "torrance"))
    with open(tmp_path / "edges.csv", "a") as fh:
        fh.write("sandoval,torrance\n")
    assert main(["forecast", *args]) == 2
    assert "re-run fit" in capsys.readouterr().err


def test_raw_fit_refused_without_raw(tmp_path, capsys):
    args = _simulate_and_fit(tmp_path)
    assert main(["fit", *args, "--raw"]) == 0
    capsys.readouterr()
    assert main(["forecast", *args]) == 2
    assert "re-run fit" in capsys.readouterr().err
    assert main(["forecast", *args, "--raw"]) == 0


def test_raw_flag_is_moot_without_smoothing(tmp_path):
    args = _simulate_and_fit(tmp_path, smoothing_window=1)
    assert main(["forecast", *args, "--raw"]) == 0


def _npz_arrays(path):
    with np.load(path, allow_pickle=False) as doc:
        return {k: doc[k] for k in doc.files}


# Downstream commands and the files each one writes.
DOWNSTREAM = {
    "detect": ("alarms.csv",),
    "exceedance": ("exceedance.csv",),
    "cluster": ("clusters.csv", "dendrogram.json"),
    "crps": ("crps.csv",),
}


class TestEnsembleArtifact:
    @pytest.fixture
    def draws(self, monkeypatch):
        """Counts sample_ppt calls made by the CLI."""
        calls = []
        real = epifield.cli.sample_ppt

        def counting(*a, **kw):
            calls.append(1)
            return real(*a, **kw)

        monkeypatch.setattr(epifield.cli, "sample_ppt", counting)
        return calls

    @staticmethod
    def _drawn_by(draws, argv):
        before = len(draws)
        assert main(argv) == 0
        return len(draws) - before

    def test_outputs_identical_with_and_without_the_file(self, tmp_path, draws):
        args = _simulate_and_fit(tmp_path)
        npz = tmp_path / "ensemble.npz"
        assert self._drawn_by(draws, ["forecast", *args]) == 1
        assert npz.exists()
        reused = {}
        for command, files in DOWNSTREAM.items():
            assert self._drawn_by(draws, [command, *args]) == 0
            reused.update({f: (tmp_path / f).read_bytes() for f in files})
        for command, files in DOWNSTREAM.items():
            npz.unlink()
            assert self._drawn_by(draws, [command, *args]) == 1
            assert npz.exists()
            for f in files:
                assert (tmp_path / f).read_bytes() == reused[f], f
        npz.write_bytes(b"not an npz file")
        assert self._drawn_by(draws, ["detect", *args]) == 1
        assert (tmp_path / "alarms.csv").read_bytes() == reused["alarms.csv"]

    def test_refit_or_raw_toggle_redraws(self, tmp_path, draws, capsys):
        args = _simulate_and_fit(tmp_path)
        assert self._drawn_by(draws, ["forecast", *args]) == 1
        assert self._drawn_by(draws, ["detect", *args]) == 0
        capsys.readouterr()
        assert main(["detect", *args, "--raw"]) == 2
        assert "re-run fit" in capsys.readouterr().err
        fit_before = (tmp_path / "fit.json").read_bytes()
        assert main(["fit", *args, "--raw"]) == 0
        assert (tmp_path / "fit.json").read_bytes() != fit_before
        assert self._drawn_by(draws, ["crps", *args, "--raw"]) == 1
        assert self._drawn_by(draws, ["cluster", *args, "--raw"]) == 0

    def test_only_ensemble_field_edits_redraw(self, tmp_path, draws):
        # Per command, edits of the fields it reads beyond the ensemble and the fit.
        downstream = {
            "cluster": {"cluster_cut": 0.1, "cluster_linkage": "single", "cluster_cut_mode": "quantile"},
            "exceedance": {"n_smooth": 3},
            "crps": {"crps_on_raw": True},
            "detect": {"detect_on_raw": True, "mcmc_draws": 10},
        }
        edited = {name for edits in downstream.values() for name in edits}
        input_paths = {"cases_csv", "regions_csv", "edges_csv"}  # fit.json binds the files' bytes
        bound = set(ENSEMBLE_FIELDS) | set(FIT_FIELDS)
        assert bound | edited | input_paths == set(RunConfig.__dataclass_fields__)
        assert bound.isdisjoint(edited | input_paths)
        args = _simulate_and_fit(tmp_path)
        cfg_path = Path(args[1])
        assert self._drawn_by(draws, ["forecast", *args]) == 1
        for command, edits in downstream.items():
            for name, value in edits.items():
                edited_cfg = _edited_config(cfg_path, tmp_path, **{name: value})
                assert self._drawn_by(draws, [command, "--config", str(edited_cfg), "--out", str(tmp_path)]) == 0, name
        # seed is also a fit field: editing it refuses fit.json (test_seed_override).
        for name, value in {"forecast_days": 10, "ppt_samples": 15}.items():
            edited_cfg = _edited_config(cfg_path, tmp_path, **{name: value})
            assert self._drawn_by(draws, ["detect", "--config", str(edited_cfg), "--out", str(tmp_path)]) == 1, name

    def test_forecast_rewrites_the_file(self, tmp_path, draws):
        args = _simulate_and_fit(tmp_path)
        npz = tmp_path / "ensemble.npz"
        assert self._drawn_by(draws, ["forecast", *args]) == 1
        original, forecast_csv = _npz_arrays(npz), (tmp_path / "forecast.csv").read_bytes()
        assert original["key"].dtype.kind == "U"
        stale = ForecastEnsemble(samples=2.0 * original["samples"], pushforward=original["pushforward"],
                                 day_grid=original["day_grid"])
        write_ensemble_npz(stale, str(original["key"]), npz)
        assert self._drawn_by(draws, ["forecast", *args]) == 1
        rewritten = _npz_arrays(npz)
        assert rewritten.keys() == original.keys()
        assert all(np.array_equal(rewritten[k], original[k]) for k in original)
        assert (tmp_path / "forecast.csv").read_bytes() == forecast_csv
