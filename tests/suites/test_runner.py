"""Suite execution: workloads, parity with bespoke experiments, reports."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.suites import load_suite, parse_suite, run_suite

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "suites"

_REPORT_KEYS = {
    "backend", "num_vertices", "num_predicted_edges", "wall_clock_seconds",
    "predictions", "extra",
}


def _assert_well_formed(payload: dict) -> None:
    """Every suite payload carries the standard RunReport JSON shape."""
    for key in ("suite", "pack", "experiment", "workload", "dataset",
                "backend", "scale", "seed", "report", "summary"):
        assert key in payload, f"missing payload key {key!r}"
    report = payload["report"]
    assert report is not None
    assert _REPORT_KEYS <= set(report)
    json.dumps(payload)  # must be JSON-serializable as-is


def _batch_suite(**experiment) -> dict:
    body = {"dataset": "gowalla", "scale": 0.05}
    body.update(experiment)
    return {
        "packs": [{
            "name": "pack",
            "experiments": [dict(body, name="exp")],
        }],
    }


class TestBatchWorkload:
    def test_named_analog_run_produces_quality_and_report(self):
        suite = parse_suite(
            _batch_suite(config={"score": "linearSum", "k_local": 40}),
            default_name="batch",
        )
        result = run_suite(suite)
        (payload,) = result.results
        _assert_well_formed(payload)
        assert payload["workload"] == "batch"
        assert payload["quality"] is not None
        assert 0.0 <= payload["quality"]["recall"] <= 1.0
        assert payload["report"]["backend"] == "local"

    def test_generator_source_needs_no_experiment_code(self):
        suite = parse_suite(_batch_suite(dataset={
            "source": "degree_skewed",
            "options": {"num_vertices": 200, "mean_degree": 6},
        }), default_name="generator")
        (payload,) = run_suite(suite).results
        _assert_well_formed(payload)
        assert payload["dataset"]["source"] == "degree_skewed"
        assert payload["quality"] is not None

    def test_protocol_overrides_reach_the_split(self):
        base = parse_suite(_batch_suite(), default_name="base")
        tweaked = parse_suite(
            _batch_suite(protocol={"removed_edges_per_vertex": 2}),
            default_name="tweaked",
        )
        removed_base = run_suite(base).results[0]["quality"]["num_removed"]
        removed_tweaked = run_suite(tweaked).results[0]["quality"]["num_removed"]
        assert removed_tweaked > removed_base

    def test_unknown_backend_raises_configuration_error(self):
        suite = parse_suite(_batch_suite(backend="spark"),
                            default_name="bad")
        with pytest.raises(ConfigurationError,
                           match="unknown execution backend"):
            run_suite(suite)

    def test_unknown_workload_option_raises_up_front(self):
        suite = parse_suite(
            _batch_suite(workload="temporal_replay",
                         options={"snapshotz": 3}),
            default_name="bad",
        )
        with pytest.raises(ConfigurationError, match="snapshotz"):
            run_suite(suite)


class TestFigure6Parity:
    def test_suite_recall_is_bit_identical_to_bespoke_figure6(self):
        from repro.eval.experiments.figure6 import run_figure6

        scale, thresholds = 0.05, (10, 40)
        bespoke = run_figure6(scale=scale, seed=42, datasets=("orkut",),
                              thresholds=thresholds)
        data = {
            "defaults": {
                "seed": 42,
                "scale": scale,
                "config": {"score": "linearSum", "k_local": 80},
            },
            "packs": [{
                "name": "orkut",
                "defaults": {"dataset": "orkut"},
                "experiments": [
                    {"name": f"thr-{threshold}",
                     "config": {"truncation_threshold": threshold}}
                    for threshold in thresholds
                ],
            }],
        }
        suite = parse_suite(data, default_name="parity")
        result = run_suite(suite)
        for payload, threshold in zip(result.results, thresholds):
            assert payload["quality"]["recall"] == (
                bespoke.recall[("orkut", threshold)]
            )


class TestTemporalReplayWorkload:
    def _suite(self, **options) -> dict:
        merged = {"snapshots": 3, "base_fraction": 0.7,
                  "queries_per_snapshot": 16}
        merged.update(options)
        return {
            "packs": [{
                "name": "replay",
                "experiments": [{
                    "name": "powerlaw",
                    "workload": "temporal_replay",
                    "dataset": {"source": "powerlaw_cluster",
                                "options": {"num_vertices": 120,
                                            "edges_per_vertex": 3,
                                            "triangle_probability": 0.4}},
                    "options": merged,
                }],
            }],
        }

    def test_replay_emits_snapshots_and_serving_report(self):
        suite = parse_suite(self._suite(), default_name="replay")
        (payload,) = run_suite(suite).results
        _assert_well_formed(payload)
        assert payload["report"]["backend"] == "serving"
        assert len(payload["snapshots"]) == 3
        streamed = sum(s["edges"] for s in payload["snapshots"])
        assert streamed == payload["graph"]["streamed_edges"]
        ingested = sum(s["ingested_edges"] for s in payload["snapshots"])
        assert ingested == streamed  # deduped stream: every edge lands
        assert payload["stats"]["edges_ingested"] == ingested

    def test_replay_is_deterministic_per_seed(self):
        suite = parse_suite(self._suite(), default_name="replay")
        first = run_suite(suite).results[0]
        second = run_suite(suite).results[0]
        assert first["snapshots"] == second["snapshots"]

    def test_bad_base_fraction_rejected(self):
        suite = parse_suite(self._suite(base_fraction=1.5),
                            default_name="bad")
        with pytest.raises(ConfigurationError, match="base_fraction"):
            run_suite(suite)


class TestRunSuitePlumbing:
    def test_out_dir_writes_one_json_per_experiment(self, tmp_path):
        suite = parse_suite(_batch_suite(), default_name="out")
        run_suite(suite, out_dir=tmp_path)
        written = sorted(tmp_path.glob("*.json"))
        assert [p.name for p in written] == ["pack__exp.json"]
        payload = json.loads(written[0].read_text(encoding="utf-8"))
        _assert_well_formed(payload)

    def test_selection_runs_only_the_requested_experiment(self):
        data = {
            "defaults": {"dataset": "gowalla", "scale": 0.05},
            "packs": [{
                "name": "pack",
                "experiments": [{"name": "a"}, {"name": "b"}],
            }],
        }
        suite = parse_suite(data, default_name="select")
        result = run_suite(suite, experiment="b")
        assert [p["experiment"] for p in result.results] == ["b"]

    def test_render_mentions_every_experiment(self):
        suite = parse_suite(_batch_suite(), default_name="render")
        rendered = run_suite(suite).render()
        assert "pack/exp" in rendered
        assert "recall=" in rendered


@pytest.mark.slow
class TestCheckedInSuites:
    """The example suite files in the repository load and run end-to-end."""

    @pytest.mark.parametrize("filename", [
        "temporal_replay.yaml", "bipartite.yaml", "adversarial.toml",
        "figure6.yaml",
    ])
    def test_example_suite_loads(self, filename):
        if filename.endswith((".yaml", ".yml")):
            pytest.importorskip("yaml")
        else:
            pytest.importorskip("tomllib")
        suite = load_suite(EXAMPLES / filename)
        assert suite.experiments

    def test_adversarial_suite_runs(self):
        pytest.importorskip("tomllib")
        suite = load_suite(EXAMPLES / "adversarial.toml")
        result = run_suite(suite, experiment="thr-10")
        (payload,) = result.results
        _assert_well_formed(payload)
        assert payload["dataset"]["source"] == "degree_skewed"

    def test_temporal_suite_runs(self):
        pytest.importorskip("yaml")
        suite = load_suite(EXAMPLES / "temporal_replay.yaml")
        result = run_suite(suite, experiment="social-small")
        (payload,) = result.results
        _assert_well_formed(payload)
        assert payload["report"]["backend"] == "serving"

    def test_bipartite_suite_runs(self):
        pytest.importorskip("yaml")
        suite = load_suite(EXAMPLES / "bipartite.yaml")
        result = run_suite(suite, experiment="linear-sum")
        (payload,) = result.results
        _assert_well_formed(payload)
        assert payload["quality"]["recall"] > 0.0
