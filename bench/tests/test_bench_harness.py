"""Tests of the benchmark's own code: spans, statistics, failure counts, wrapping."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "bench", ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from epibench import layers  # noqa: E402
from epibench.stats import CheckFailed, Tally, median, percentile, require, summarize  # noqa: E402
from epibench.tracing import Instrumentation, Span, SpanRecorder, covered_length, self_times  # noqa: E402

import epifield  # noqa: E402


def _span(i, parent, start, end, name="s"):
    return Span(id=i, parent=parent, name=name, start=start, end=end, run=1)


class TestSelfTime:
    def test_nested_children_are_subtracted_once(self):
        spans = [
            _span(0, None, 0.0, 10.0),
            _span(1, 0, 1.0, 4.0),
            _span(2, 1, 2.0, 3.0),  # grandchild: counts against span 1 only
            _span(3, 0, 6.0, 7.0),
        ]
        own = self_times(spans)
        assert own[0] == pytest.approx(10.0 - 3.0 - 1.0)
        assert own[1] == pytest.approx(3.0 - 1.0)
        assert own[2] == pytest.approx(1.0)
        assert own[3] == pytest.approx(1.0)

    def test_overlapping_children_count_their_union(self):
        spans = [_span(0, None, 0.0, 10.0), _span(1, 0, 1.0, 5.0), _span(2, 0, 3.0, 6.0), _span(3, 0, 6.0, 8.0)]
        assert self_times(spans)[0] == pytest.approx(10.0 - 7.0)

    def test_children_are_clipped_to_the_parent(self):
        assert covered_length([(-2.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == pytest.approx(2.0)
        assert covered_length([(11.0, 12.0)], 0.0, 10.0) == 0.0
        assert covered_length([], 0.0, 10.0) == 0.0

    def test_recorder_links_parents_and_marks_raises(self):
        rec = SpanRecorder()
        with rec.span("outer"):
            with rec.span("inner"):
                pass
            with pytest.raises(ZeroDivisionError):
                rec.wrap(lambda: 1 / 0, "boom")()
        outer, inner, boom = rec.spans
        assert (outer.parent, inner.parent, boom.parent) == (None, outer.id, outer.id)
        assert boom.failed and not inner.failed
        assert outer.start <= inner.start <= inner.end <= boom.start <= boom.end <= outer.end


class TestStats:
    def test_percentile_interpolates_between_order_statistics(self):
        xs = [float(v) for v in range(10, 0, -1)]
        assert percentile(xs, 0) == 1.0
        assert percentile(xs, 100) == 10.0
        assert median(xs) == 5.5
        assert percentile(xs, 90) == pytest.approx(9.1)
        assert percentile(xs, 90) == pytest.approx(np.percentile(xs, 90))

    def test_summary_states_sample_counts(self):
        out = summarize([float(v) for v in range(1, 101)])
        assert out["n"] == 100
        assert out["p50"] == pytest.approx(50.5)
        assert out["beyond_p50"] == 50
        assert out["p90"] == pytest.approx(90.1)
        assert out["beyond_p90"] == 10

    def test_empty_sample_is_an_error(self):
        with pytest.raises(ValueError):
            percentile([], 50)


class TestTally:
    def test_raises_and_failed_checks_count_as_failures(self, capsys):
        tally = Tally()
        assert tally.attempt("ok", lambda: 3) == (True, 3)
        assert tally.attempt("raise", lambda: 1 / 0) == (False, None)
        assert tally.attempt("check", require, False, "output not finite") == (False, None)
        assert tally.attempt("check-ok", require, True, "unused") == (True, None)
        assert (tally.attempted, tally.failed) == (4, 2)
        assert tally.error_rate == 0.5
        assert "output not finite" in tally.failures[1]
        assert "FAILED raise" in capsys.readouterr().err

    def test_error_rate_without_attempts_is_zero(self):
        assert Tally().error_rate == 0.0

    def test_check_failed_is_an_exception(self):
        with pytest.raises(CheckFailed):
            require(False, "no")


def _originals(targets):
    return [(owner, attr, vars(owner).get(attr)) for owner, attr, _ in targets]


class TestInstrumentation:
    def test_every_wrapped_attribute_is_restored(self):
        rec = SpanRecorder()
        targets = layers.targets(rec)
        before = _originals(targets)
        with pytest.raises(RuntimeError):
            with Instrumentation(targets):
                for owner, attr, original in before:
                    if original is not None:
                        assert vars(owner)[attr] is not original
                raise RuntimeError("operation failed mid-trace")
        for owner, attr, original in before:
            assert vars(owner).get(attr) is original, f"{owner.__name__}.{attr} not restored"

    def test_missing_targets_are_skipped_and_listed(self):
        class Owner:
            present = staticmethod(len)

        with Instrumentation([(Owner, "absent", lambda fn: fn), (Owner, "present", lambda fn: sum)]) as inst:
            assert inst.missing == ["Owner.absent"]
            assert Owner.present is sum
        assert Owner.present is len
        assert not hasattr(Owner, "absent")

    def test_traced_gradient_evaluation_nests_layers(self):
        graph = epifield.path_graph(("a", "b"))
        grid = np.arange(1.0, 21.0)
        truth = epifield.ParamVector.from_parts(
            [epifield.RegionParams(t0=-5.0, N=800.0, k=3.0, theta=6.0)] * 2,
            epifield.NoiseParams(tau_phi=1.0, lambda_phi=0.5, sigma_a=1.0, sigma_m=0.1),
        )
        obs, _ = epifield.synthetic_counts(truth, graph, epifield.IncubationParams(), grid, seed=0)
        ctx = epifield.ModelContext(graph=graph, day_grid=grid, y_obs=obs)
        x = ctx.transforms.inverse(truth.values)
        rec = SpanRecorder()
        rec.run = 1
        with Instrumentation(layers.targets(rec)):
            ctx.logpost_and_grad(x)
            ctx.logpost(x)
        values, layer_sum_frac = layers.layer_metrics(rec, n_ops=1, overhead_frac=0.0)
        assert list(values) == list(layers.LAYER_METRICS)
        assert values["posterior.logpost_and_grad.calls"] == 1
        assert values["posterior.logpost.calls"] == 1
        assert all(sp.parent is not None for sp in rec.spans if sp.name.startswith(("model.", "likelihood.")))
        assert layer_sum_frac == pytest.approx(1.0)


def test_benchmark_json_lists_the_printed_metrics():
    from epibench.runner import END_TO_END
    from epibench.workloads import WORKLOADS

    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(END_TO_END.items())
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        (name, unit, better) for name, (unit, better) in layers.LAYER_METRICS.items()
    ]
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert any(m["name"] == "setup_s" and m["bound"] == max(e["bound"] for e in doc["end_to_end"])
               for m in doc["end_to_end"])
