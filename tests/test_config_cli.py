import csv
import dataclasses
import importlib.resources
import json
import shutil
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

import epifield.cli
import epifield.likelihood
from epifield import ForecastEnsemble, RunConfig, content_hash
from epifield.cli import main
from epifield.config import ENSEMBLE_FIELDS, FIT_FIELDS
from epifield.model import K_MIN
from epifield.params import param_names
from epifield.vi import DivergenceError, ElboTrace


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

    @pytest.mark.parametrize("key, bad", [("fit_start", "2020-13-01"), ("fit_end", "2020-09-31"),
                                          ("fit_start", "June 1")])
    def test_bad_date_names_its_key_and_value(self, key, bad):
        with pytest.raises(ValueError, match=rf"^config key {key} must be a YYYY-MM-DD date, got '{bad}' \("):
            RunConfig.from_json(json.dumps({key: bad}))

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
            "ppt_samples": 7, "n_smooth": 3, "mcmc_draws": 40, "cluster_cut": 0.1,
        }
        assert set(downstream).isdisjoint(FIT_FIELDS)
        assert set(downstream) | set(FIT_FIELDS) == set(RunConfig.__dataclass_fields__)
        cfg = RunConfig()
        h = content_hash(cfg, b"data", fields=FIT_FIELDS)
        for name, value in downstream.items():
            assert content_hash(cfg.with_overrides(**{name: value}), b"data", fields=FIT_FIELDS) == h, name
        fit_edits = {"fit_end": "2020-09-01", "smoothing_window": 3, "incubation_sigma": 0.5,
                     "max_iters": 10, "seed": 1, "regions": ("a",)}
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
        assert set(doc) == {"mu", "rho", "region_ids", "config_hash"}
        assert len(doc["mu"]) == 2 * 4 + 4
        lines = (root / "out" / "trace.csv").read_text().splitlines()
        assert lines[0] == "iteration,elbo,grad_norm,seconds,n_samples"
        assert len(lines) == 200 + 1

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
        other = _edited_config(cfg_path, tmp_path, cluster_cut=1.0)
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

    @pytest.mark.parametrize("text", ["[]", "[1]", "null", "5", '"x"'])
    def test_config_that_is_not_an_object_is_data_error(self, tmp_path, capsys, text):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(text)
        assert main(["fit", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
        assert f"data error: a config file must hold a JSON object, got {text}" in capsys.readouterr().err

    def test_fit_json_that_is_not_an_object_is_data_error(self, tmp_path, capsys):
        args = _simulate_and_fit(tmp_path)
        (tmp_path / "fit.json").write_text("[]")
        capsys.readouterr()
        assert main(["detect", *args]) == 2
        assert f"data error: {tmp_path / 'fit.json'} must hold a JSON object; re-run fit" in capsys.readouterr().err

    def test_linalg_failure_is_numerical_error(self, pipeline, tmp_path, monkeypatch, capsys):
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr("epifield.cli.fit_mfvi", singular)
        _, cfg_path, _ = pipeline
        assert main(["fit", "--config", str(cfg_path), "--out", str(tmp_path)]) == 3
        assert "numerical failure" in capsys.readouterr().err
        assert "LinAlgError" in (tmp_path / "diagnostics.txt").read_text()

    def test_divergence_writes_the_last_trace_rows(self, pipeline, tmp_path, monkeypatch, capsys):
        trace = ElboTrace()
        for it in range(15):
            trace.append(it, -100.0 + it if it < 12 else np.nan, 0.5 * it, 0.01 * it, 10)

        def diverging(*args, **kwargs):
            raise DivergenceError("ELBO non-finite for 3 consecutive iterations", trace)

        monkeypatch.setattr("epifield.cli.fit_mfvi", diverging)
        _, cfg_path, _ = pipeline
        assert main(["fit", "--config", str(cfg_path), "--out", str(tmp_path)]) == 3
        assert "numerical failure: ELBO non-finite" in capsys.readouterr().err
        text = (tmp_path / "diagnostics.txt").read_text()
        assert "DivergenceError" in text
        rows = [f"{it},{-100.0 + it if it < 12 else np.nan},{0.5 * it}" for it in range(5, 15)]
        assert text.endswith("last trace rows: iteration,elbo,grad_norm\n" + "\n".join(rows) + "\n")
        assert "\n4,-96.0," not in text

    def test_bad_date_is_data_error_naming_its_key(self, pipeline, tmp_path, capsys):
        _, cfg_path, _ = pipeline
        edited = _edited_config(cfg_path, tmp_path, fit_start="2020-13-01")
        assert main(["fit", "--config", str(edited), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "config key fit_start must be a YYYY-MM-DD date, got '2020-13-01' (month must be in 1..12)" in err

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

    def test_unknown_region_override_is_data_error(self, pipeline, tmp_path, capsys):
        _, cfg_path, _ = pipeline
        argv = ["fit", "--config", str(cfg_path), "--out", str(tmp_path), "--regions", "bernalillo,nosuch"]
        assert main(argv) == 2
        assert "unknown region ids: nosuch" in capsys.readouterr().err

    @pytest.mark.parametrize("field, bad", [("count", ""), ("date", "2020-13-01")])
    def test_unreadable_case_cell_names_the_file(self, pipeline, tmp_path, capsys, field, bad):
        _, cfg_path, out = pipeline
        with open(Path(out) / "cases.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        rows[4][field] = bad
        cases = tmp_path / "cases.csv"
        with open(cases, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        edited = _edited_config(cfg_path, tmp_path, cases_csv=str(cases))
        assert main(["fit", "--config", str(edited), "--out", str(tmp_path)]) == 2
        assert f"line 6 of {cases})" in capsys.readouterr().err

    def test_input_file_errors_name_the_file_and_the_line_or_column(self, pipeline, tmp_path, capsys):
        _, cfg_path, out = pipeline
        lines = Path(json.loads(cfg_path.read_text())["regions_csv"]).read_text().splitlines()
        header = lines[0].split(",")
        row = lines[2].split(",")
        row[header.index("lat")] = ""
        regions = tmp_path / "regions.csv"
        regions.write_text("\n".join([*lines[:2], ",".join(row), *lines[3:]]) + "\n")
        edited = _edited_config(cfg_path, tmp_path, regions_csv=str(regions))
        assert main(["fit", "--config", str(edited), "--out", str(tmp_path)]) == 2
        assert f"lat '' of region {row[header.index('region_id')]!r} is not a number (line 3 of {regions})" in \
            capsys.readouterr().err
        cases = tmp_path / "cases.csv"
        cases.write_text("".join(line.rsplit(",", 1)[0] + "\n"
                                 for line in (Path(out) / "cases.csv").read_text().splitlines()))
        edited = _edited_config(cfg_path, tmp_path, cases_csv=str(cases))
        assert main(["fit", "--config", str(edited), "--out", str(tmp_path)]) == 2
        assert f"data error: {cases} has no count column" in capsys.readouterr().err

    def test_edge_from_a_region_to_itself_names_the_file(self, pipeline, tmp_path, capsys):
        _, cfg_path, _ = pipeline
        lines = Path(json.loads(cfg_path.read_text())["edges_csv"]).read_text().splitlines()
        edges = tmp_path / "edges.csv"
        edges.write_text("\n".join([*lines, "sandoval,sandoval"]) + "\n")
        edited = _edited_config(cfg_path, tmp_path, edges_csv=str(edges))
        assert main(["fit", "--config", str(edited), "--out", str(tmp_path)]) == 2
        assert f"edge joins region 'sandoval' to itself (line {len(lines) + 1} of {edges})" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [{"smoothing_window": 0}, {"smoothing_window": -3},
                                      {"smoothing_window": 4}, {"max_iters": 0}, {"n_smooth": 0},
                                      {"forecast_days": 0}, {"forecast_days": -5}, {"ppt_samples": 1},
                                      {"cluster_cut": -1}, {"cluster_cut": 0}, {"mcmc_draws": 10},
                                      {"prior_t0_sd": 0}, {"incubation_sigma": 0}, {"quad_nodes": 8},
                                      {"fit_start": 0}, {"max_iters": "5"}, {"n_smooth": 2.5}, {"seed": "1"},
                                      {"regions": "bernalillo"}])
    def test_invalid_setting_is_data_error(self, pipeline, tmp_path, capsys, edit):
        _, cfg_path, _ = pipeline
        edited = _edited_config(cfg_path, tmp_path, **edit)
        assert main(["fit", "--config", str(edited), "--out", str(tmp_path)]) == 2
        assert next(iter(edit)) in capsys.readouterr().err
        assert not (tmp_path / "fit.json").exists()

    def test_too_few_quadrature_nodes_is_data_error(self, pipeline, tmp_path, capsys):
        _, cfg_path, _ = pipeline
        edited = _edited_config(cfg_path, tmp_path, quad_nodes=8)
        assert main(["fit", "--config", str(edited), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "quadrature nodes" in err and "MLE starting point" not in err
        assert not (tmp_path / "fit.json").exists()

    @pytest.mark.parametrize("key, value", [
        ("grad_tol", 0), ("beta1", 0.9), ("include_jacobian_entropy", True), ("detect_on_raw", False),
        ("crps_on_raw", False), ("cluster_linkage", "complete"), ("cluster_cut_mode", "fraction"),
        ("reference_date", "2020-06-01"),
    ])
    def test_removed_setting_is_refused(self, pipeline, tmp_path, capsys, key, value):
        _, cfg_path, _ = pipeline
        edited = _edited_config(cfg_path, tmp_path, **{key: value})
        assert main(["fit", "--config", str(edited), "--out", str(tmp_path)]) == 2
        assert f"unknown config keys: {key}" in capsys.readouterr().err
        assert not (tmp_path / "fit.json").exists()

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


def test_fit_json_binds_the_cases_the_fit_read(tmp_path, monkeypatch, capsys):
    # Cases rewritten while the fit runs: fit.json must hold the hash of the bytes it fitted.
    args = _simulate_and_fit(tmp_path)
    real = epifield.cli.fit_mfvi

    def rewriting(*a, **kw):
        result = real(*a, **kw)
        _zero_cases(tmp_path / "cases.csv", {"sandoval"})
        return result

    monkeypatch.setattr(epifield.cli, "fit_mfvi", rewriting)
    assert main(["fit", *args]) == 0
    capsys.readouterr()
    assert main(["forecast", *args]) == 2
    assert "re-run fit" in capsys.readouterr().err


def test_fit_json_does_not_depend_on_the_output_path(tmp_path):
    args = _simulate_and_fit(tmp_path)
    for name in ("one", "two"):
        assert main(["fit", args[0], args[1], "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "one" / "fit.json").read_bytes() == (tmp_path / "two" / "fit.json").read_bytes()


@pytest.mark.parametrize("argv", [[c, "--plot"] for c in ("detect", "exceedance", "cluster", "crps", "mcmc",
                                                           "simulate", "gradcheck")] + [["simulate", "--raw"]])
def test_flag_where_it_does_nothing_is_usage_error(tmp_path, capsys, argv):
    assert main([*argv, "--config", str(tmp_path / "config.json"), "--out", str(tmp_path)]) == 1
    message, usage = " ".join(capsys.readouterr().err.split()).split(" usage: ")
    assert f"unrecognized arguments: {argv[1]}" in message
    # The usage shown is the command's own, with the flags it does take.
    assert usage.startswith(f"epifield {argv[0]} [-h] [--config CONFIG]")
    assert ("--raw" in usage) == (argv[0] != "simulate")


@pytest.mark.parametrize("argv, usage", [(["fit", "--seed", "x"], "usage: epifield fit [-h]"),
                                         (["--bogus"], "usage: epifield [-h] {fit,")])
def test_usage_error_prints_the_usage_of_the_parser_that_refused(capsys, argv, usage):
    assert main(argv) == 1
    assert usage in " ".join(capsys.readouterr().err.split())


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


def test_raw_is_smoothing_window_one(tmp_path):
    # A fit of unsmoothed counts serves either way of asking for them.
    args = _simulate_and_fit(tmp_path, smoothing_window=1)
    smoothed_cfg = _edited_config(Path(args[1]), tmp_path, smoothing_window=7)
    assert main(["forecast", "--config", str(smoothed_cfg), "--out", str(tmp_path), "--raw"]) == 0
    assert main(["fit", "--config", str(smoothed_cfg), "--out", str(tmp_path), "--raw"]) == 0
    assert main(["forecast", *args]) == 0


@pytest.mark.parametrize("command", ["fit", "forecast", "detect", "exceedance", "cluster", "crps"])
def test_each_command_reads_the_cases_once(tmp_path, monkeypatch, command):
    args = _simulate_and_fit(tmp_path)
    calls = []
    real = epifield.cli.ingest_cases

    def counting(*a, **kw):
        calls.append(1)
        return real(*a, **kw)

    monkeypatch.setattr(epifield.cli, "ingest_cases", counting)
    assert main([command, *args]) == 0
    assert len(calls) == 1


def test_mcmc_summarises_every_parameter(tmp_path, capsys):
    # 1000 draws move on this config (about 9% accepted); 40 keep two draws of a barely moved chain.
    args = _simulate_and_fit(tmp_path, mcmc_draws=1000)
    assert main(["mcmc", *args]) == 0
    with open(tmp_path / "chain_summary.csv") as fh:
        assert fh.readline().rstrip() == "parameter,mean,sd,q05,q50,q95"
        fh.seek(0)
        rows = list(csv.DictReader(fh))
    assert [r["parameter"] for r in rows] == param_names(2)
    assert all(np.isfinite(float(r[k])) for r in rows for k in ("mean", "sd", "q05", "q50", "q95"))
    assert all(float(r["sd"]) > 0 for r in rows)
    # The summary is in model space: every draw lies inside the parameters' bounds.
    summary = {r["parameter"]: r for r in rows}
    for r in range(2):
        assert float(summary[f"k[{r}]"]["q05"]) >= K_MIN
        assert float(summary[f"N[{r}]"]["q05"]) > 0
    for name in ("tau_phi", "sigma_a", "sigma_m"):
        assert float(summary[name]["q05"]) > 0, name
    # 10 draws keep none after burn-in and thinning; this used to escape main as an IndexError.
    too_few = _edited_config(Path(args[1]), tmp_path, mcmc_draws=10)
    capsys.readouterr()
    assert main(["mcmc", "--config", str(too_few), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "at least 2 are needed" in err and "mcmc_draws" in err


def test_mcmc_chain_that_accepts_nothing_is_numerical_failure(tmp_path, capsys):
    # On this config a 40-draw chain rejects every proposal from an MLE that ends by itself
    # within the default max_iters, not on the iteration bound.
    args = _simulate_and_fit(tmp_path, seed=0, mcmc_draws=40)
    stuck = _edited_config(Path(args[1]), tmp_path, max_iters=RunConfig.max_iters)
    capsys.readouterr()
    assert main(["mcmc", "--config", str(stuck), "--out", str(tmp_path)]) == 3
    out, err = capsys.readouterr()
    line = next(line for line in out.splitlines() if line.startswith("MLE start: "))
    assert "iteration bound" not in line
    assert "numerical failure" in err and "acceptance rate 0.000" in err and "mcmc_draws = 40" in err
    assert "StuckChainError" in (tmp_path / "diagnostics.txt").read_text()
    assert not (tmp_path / "chain_summary.csv").exists()


@pytest.mark.parametrize("edit", [{"fit_end": "2020-09-30"}, {"fit_start": "2020-05-01"}])
def test_fit_window_the_cases_do_not_cover_is_data_error(tmp_path, capsys, edit):
    # The cases run from 2020-06-01 to 2020-08-29.
    args = _simulate_and_fit(tmp_path)
    edited = _edited_config(Path(args[1]), tmp_path, **edit)
    capsys.readouterr()
    for command in ("fit", "forecast", "mcmc"):
        assert main([command, "--config", str(edited), "--out", str(tmp_path / "refused")]) == 2, command
        err = capsys.readouterr().err
        assert "is not covered by" in err and "2020-06-01 to 2020-08-29" in err, command
        assert f"{edit.get('fit_start', '2020-06-01')} to {edit.get('fit_end', '2020-08-15')}" in err, command
    assert not (tmp_path / "refused" / "fit.json").exists()


def test_forecast_runs_forecast_days_past_cases_that_end_with_the_fit(tmp_path, capsys):
    args = _simulate_and_fit(tmp_path)
    with open(tmp_path / "cases.csv", newline="") as fh:
        rows = [row for row in csv.DictReader(fh) if row["date"] <= "2020-08-15"]
    with open(tmp_path / "cases.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["date", "region_id", "count"])
        writer.writeheader()
        writer.writerows(rows)
    assert main(["fit", *args]) == 0
    assert main(["forecast", *args]) == 0
    with open(tmp_path / "forecast.csv", newline="") as fh:
        dates = sorted({row["date"] for row in csv.DictReader(fh)})
    assert dates[0] == "2020-06-01" and dates[-1] == "2020-08-29" and len(dates) == 76 + 14
    capsys.readouterr()
    # With no day observed after the fit there is nothing to detect or exceed, nor an ensemble to draw.
    (tmp_path / "ensemble.npz").unlink()
    for command in ("detect", "exceedance", "cluster"):
        assert main([command, *args]) == 2, command
        assert "holds no day after the fit window" in capsys.readouterr().err, command
    assert not (tmp_path / "ensemble.npz").exists()
    assert main(["crps", *args]) == 0


def test_day_zero_is_the_fit_start(tmp_path):
    args = _simulate_and_fit(tmp_path, fit_start="2020-07-01")
    cfg = RunConfig.load(args[1])
    assert epifield.cli._inputs(cfg).ctx.day_grid[0] == 0
    # The simulated onsets sit where the t0 prior centres them, relative to the fit start.
    truth = json.loads((tmp_path / "truth.json").read_text())
    t0 = [v for name, v in zip(truth["names"], truth["values"]) if name.startswith("t0[")]
    assert t0 == [cfg.prior_t0_mean] * 2
    assert main(["forecast", *args]) == 0
    with open(tmp_path / "forecast.csv", newline="") as fh:
        dates = sorted({row["date"] for row in csv.DictReader(fh)})
    assert dates[0] == "2020-07-01" and dates[-1] == "2020-08-29"
    assert _npz_arrays(tmp_path / "ensemble.npz")["day_grid"][0] == 0


def test_fit_and_mcmc_say_how_the_mle_start_ended(tmp_path, capsys):
    args = _simulate_and_fit(tmp_path, mcmc_draws=1000)  # fits at max_iters 5
    fit_out = capsys.readouterr().out
    assert main(["mcmc", *args]) == 0
    for out in (fit_out, capsys.readouterr().out):
        line = next(line for line in out.splitlines() if line.startswith("MLE start: "))
        assert "ITERATIONS REACHED LIMIT (status 1, nit 5, nfev " in line
        assert line.endswith("; the iteration bound max_iters = 5 stopped it")


def test_exceedance_says_how_many_days_each_mean_covers(tmp_path, capsys):
    # Cases cut 3 days after the fit end: the means cover those 3 days of n_smooth 14.
    args = _simulate_and_fit(tmp_path)
    with open(tmp_path / "cases.csv", newline="") as fh:
        rows = [row for row in csv.DictReader(fh) if row["date"] <= "2020-08-18"]
    with open(tmp_path / "cases.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["date", "region_id", "count"])
        writer.writeheader()
        writer.writerows(rows)
    assert main(["fit", *args]) == 0
    for command in ("exceedance", "cluster"):
        capsys.readouterr()
        assert main([command, *args]) == 0
        assert "averaged over the first 3 observed forecast day(s) (n_smooth 14)" in capsys.readouterr().out
    with open(tmp_path / "exceedance.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["days"], r["excluded_days"]) for r in rows] == [("3", "0")] * 2


def test_plot_writes_parseable_svgs(tmp_path):
    args = _simulate_and_fit(tmp_path)
    assert main(["fit", *args, "--plot"]) == 0
    assert main(["forecast", *args, "--plot"]) == 0
    names = ["trace.svg", "fantail_bernalillo.svg", "fantail_sandoval.svg"]
    assert sorted(p.name for p in tmp_path.glob("*.svg")) == sorted(names)
    for name in names:
        assert ElementTree.parse(tmp_path / name).getroot().tag.endswith("svg"), name


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

    @pytest.mark.parametrize("content", ["empty", "npy"])
    def test_an_empty_or_npy_file_is_redrawn(self, tmp_path, draws, content):
        args = _simulate_and_fit(tmp_path)
        npz = tmp_path / "ensemble.npz"
        assert self._drawn_by(draws, ["detect", *args]) == 1
        alarms, stored = (tmp_path / "alarms.csv").read_bytes(), _npz_arrays(npz)
        with open(npz, "wb") as fh:
            if content == "npy":
                np.save(fh, stored["samples"])
        assert self._drawn_by(draws, ["detect", *args]) == 1
        rewritten = _npz_arrays(npz)
        assert rewritten.keys() == stored.keys() and all(np.array_equal(rewritten[k], stored[k]) for k in stored)
        assert (tmp_path / "alarms.csv").read_bytes() == alarms

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
            "cluster": {"cluster_cut": 0.1},
            "exceedance": {"n_smooth": 3},
            "detect": {"mcmc_draws": 40},
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
        epifield.cli._write_ensemble_npz(stale, str(original["key"]), npz)
        assert self._drawn_by(draws, ["forecast", *args]) == 1
        rewritten = _npz_arrays(npz)
        assert rewritten.keys() == original.keys()
        assert all(np.array_equal(rewritten[k], original[k]) for k in original)
        assert (tmp_path / "forecast.csv").read_bytes() == forecast_csv

    def test_forecast_prints_and_stores_the_resample_count(self, tmp_path, monkeypatch, capsys):
        real = epifield.cli.sample_ppt
        monkeypatch.setattr(epifield.cli, "sample_ppt",
                            lambda *a, **kw: dataclasses.replace(real(*a, **kw), resampled=3))
        args = _simulate_and_fit(tmp_path)
        capsys.readouterr()
        assert main(["forecast", *args]) == 0
        assert "3 failed draw(s) resampled for its 20 members" in capsys.readouterr().out
        npz = tmp_path / "ensemble.npz"
        stored = _npz_arrays(npz)
        assert stored["resampled"] == 3
        assert epifield.cli._read_ensemble_npz(npz, str(stored["key"])).resampled == 3

    def test_a_file_without_the_resample_count_is_redrawn(self, tmp_path, draws):
        args = _simulate_and_fit(tmp_path)
        npz = tmp_path / "ensemble.npz"
        assert self._drawn_by(draws, ["detect", *args]) == 1
        alarms = (tmp_path / "alarms.csv").read_bytes()
        stored = _npz_arrays(npz)
        del stored["resampled"]
        np.savez(npz, allow_pickle=False, **stored)
        assert self._drawn_by(draws, ["detect", *args]) == 1
        assert "resampled" in _npz_arrays(npz)
        assert (tmp_path / "alarms.csv").read_bytes() == alarms

    def test_a_file_keyed_without_the_draw_scheme_is_redrawn(self, tmp_path, draws):
        # The key of a file drawn before the draw scheme was hashed in: same config and fit.json.
        args = _simulate_and_fit(tmp_path)
        npz = tmp_path / "ensemble.npz"
        assert self._drawn_by(draws, ["detect", *args]) == 1
        alarms, stored = (tmp_path / "alarms.csv").read_bytes(), _npz_arrays(npz)
        old_key = content_hash(RunConfig.load(args[1]), (tmp_path / "fit.json").read_bytes(), fields=ENSEMBLE_FIELDS)
        assert old_key != str(stored["key"])
        stale = ForecastEnsemble(samples=2.0 * stored["samples"], pushforward=stored["pushforward"],
                                 day_grid=stored["day_grid"])
        epifield.cli._write_ensemble_npz(stale, old_key, npz)
        assert self._drawn_by(draws, ["detect", *args]) == 1
        assert np.array_equal(_npz_arrays(npz)["samples"], stored["samples"])
        assert (tmp_path / "alarms.csv").read_bytes() == alarms

    @pytest.mark.parametrize("command", ["detect", "exceedance", "crps"])
    def test_a_non_finite_file_is_redrawn_not_scored(self, tmp_path, draws, command):
        args = _simulate_and_fit(tmp_path)
        npz = tmp_path / "ensemble.npz"
        assert self._drawn_by(draws, [command, *args]) == 1
        scored = {f: (tmp_path / f).read_bytes() for f in DOWNSTREAM[command]}
        poisoned = _npz_arrays(npz)
        poisoned["samples"][0, -1, 0] = np.nan
        np.savez(npz, allow_pickle=False, **poisoned)
        assert self._drawn_by(draws, [command, *args]) == 1
        assert np.all(np.isfinite(_npz_arrays(npz)["samples"]))
        for f in DOWNSTREAM[command]:
            assert (tmp_path / f).read_bytes() == scored[f], f


def _zero_cases(cases_csv, regions):
    """Set the regions' counts to zero through 2020-08-18: the fit window and the
    three days after it that a 7-day smoothing window reaches back from."""
    with open(cases_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        if row["region_id"] in regions and row["date"] <= "2020-08-18":
            row["count"] = "0"
    with open(cases_csv, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["date", "region_id", "count"])
        writer.writeheader()
        writer.writerows(rows)


def test_crps_names_the_regions_it_excludes(tmp_path, capsys):
    args = _simulate_and_fit(tmp_path)
    _zero_cases(tmp_path / "cases.csv", {"sandoval"})
    assert main(["fit", *args]) == 0
    capsys.readouterr()
    assert main(["crps", *args]) == 0
    assert "excluded 1 region(s) with no cases in the fit window: sandoval" in capsys.readouterr().out


def test_crps_says_when_the_slope_is_not_fitted(tmp_path, capsys):
    args = _simulate_and_fit(tmp_path)
    _zero_cases(tmp_path / "cases.csv", {"sandoval"})
    assert main(["fit", *args]) == 0
    capsys.readouterr()
    assert main(["crps", *args]) == 0
    out = capsys.readouterr().out
    assert "slope not fitted: fewer than 2 distinct case totals among the 1 region(s) with cases" in out
    assert "slope 0.000" not in out


def test_crps_without_cases_in_any_region_is_data_error(tmp_path, capsys):
    args = _simulate_and_fit(tmp_path)
    _zero_cases(tmp_path / "cases.csv", {"bernalillo", "sandoval"})
    assert main(["fit", *args]) == 0
    capsys.readouterr()
    assert main(["crps", *args]) == 2
    assert "no region has a positive case total" in capsys.readouterr().err


def test_every_public_name_resolves():
    missing = [name for name in epifield.__all__ if not hasattr(epifield, name)]
    assert not missing
