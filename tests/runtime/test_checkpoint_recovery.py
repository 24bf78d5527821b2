"""Crash-injection harness for checkpointed, fault-tolerant parallel runs.

The acceptance bar of the fault-tolerance layer, asserted here:

* killing worker N at *every* superstep K, across {random, greedy}
  vertex-cuts × {1, 4 workers}, yields a recovered run whose predictions,
  candidate scores (bit-exact floats) and deterministic accounting counters
  are identical to an uninterrupted run with the same placement — for
  custom-callable configurations too, whose workers run the scalar step
  programs on the same columnar plane;
* a corrupted checkpoint shard or truncated manifest is detected (SHA-256 /
  manifest validation) and surfaces as a clean
  :class:`~repro.errors.CheckpointError`, never as silently wrong results;
* explicit ``resume_from`` restores an interrupted run and refuses
  incompatible checkpoints (wrong workers/config/graph, or a snapshot
  written by an older checkpoint format).

Worker kills go through the :class:`tests.conftest.FaultInjector` fixture,
whose one-shot token-file faults stay deterministic across pool respawns.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import CheckpointError, ConfigurationError, WorkerCrashError
from repro.runtime import get_backend
from repro.runtime.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    CheckpointData,
    latest_valid_checkpoint,
    list_checkpoint_dirs,
    load_checkpoint,
    resolve_checkpoint,
    save_checkpoint,
)
from repro.runtime.parallel import ParallelExecutor
from repro.runtime.shm import shm_available
from repro.snaple.config import SnapleConfig
from repro.snaple.predictor import SnapleLinkPredictor
from tests.conftest import (
    PARTITIONERS,
    assert_matches_reference,
    partitioner_option,
    scalar_reference,
    unsupported_kernel_config,
)


def grid_graph(random_graph):
    return random_graph(80, 3, 0.3, seed=11)


def grid_config() -> SnapleConfig:
    return SnapleConfig.paper_default(seed=3, k_local=6)


#: The crash grid's configurations: one the vectorized kernel runs, and a
#: custom callable whose GAS workers run the scalar step programs.
GRID_CONFIGS = {
    "paper": grid_config,
    "custom": unsupported_kernel_config,
}

#: Uninterrupted baselines, computed once per (config, partitioner, workers)
#: cell of the grid — every kill-at-K case compares against the same
#: baseline.
_BASELINES: dict[tuple[str, str, int], object] = {}


def baseline_report(graph, workers: int, config_name="paper",
                    partitioner="random"):
    key = (config_name, partitioner, workers)
    if key not in _BASELINES:
        with SnapleLinkPredictor(GRID_CONFIGS[config_name]()) as predictor:
            _BASELINES[key] = predictor.predict(
                graph, backend="gas", workers=workers,
                **partitioner_option(partitioner))
    return _BASELINES[key]


def assert_bit_identical(baseline, recovered) -> None:
    """Predictions, scores and deterministic accounting must match exactly."""
    assert recovered.predictions == baseline.predictions
    assert dict(recovered.scores) == dict(baseline.scores)
    assert recovered.supersteps == baseline.supersteps
    for expected, actual in zip(baseline.partition_reports,
                                recovered.partition_reports):
        assert actual.num_vertices == expected.num_vertices
        assert actual.num_predictions == expected.num_predictions
        assert actual.num_predicted_edges == expected.num_predicted_edges
        assert actual.gather_invocations == expected.gather_invocations
        assert actual.apply_invocations == expected.apply_invocations
        assert actual.shipped_bytes == expected.shipped_bytes


class TestKillWorkerResumeParity:
    """Crash at any superstep ⇒ the recovered run is bit-identical."""

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("superstep", range(3))
    @pytest.mark.parametrize("partitioner", PARTITIONERS)
    @pytest.mark.parametrize("config_name", sorted(GRID_CONFIGS))
    def test_kill_at_superstep(self, config_name, partitioner, superstep,
                               workers, fault_injector, tmp_path,
                               random_graph):
        graph = grid_graph(random_graph)
        baseline = baseline_report(graph, workers, config_name, partitioner)
        fault = fault_injector.kill_worker(superstep, partition=workers - 1)
        predictor = SnapleLinkPredictor(GRID_CONFIGS[config_name]())
        recovered = predictor.predict(
            graph, backend="gas", workers=workers,
            checkpoint_dir=tmp_path / "ckpt", fault=fault,
            **partitioner_option(partitioner),
        )
        assert recovered.extra["worker_restarts"] == 1.0
        # The resume point is the newest checkpoint before the crash (0 when
        # the crash predates the first checkpoint).
        assert recovered.extra["resumed_from_superstep"] == float(superstep)
        assert_bit_identical(baseline, recovered)

    @pytest.mark.skipif(not shm_available(),
                        reason="platform lacks POSIX shared memory")
    def test_custom_config_recovers_on_the_columnar_plane(
            self, fault_injector, tmp_path, random_graph):
        # A configuration outside the vectorized kernel runs the scalar step
        # programs inside the columnar GAS task; a crash mid-run must still
        # resume bit-identically, on the shared-memory plane.
        graph = grid_graph(random_graph)
        config = unsupported_kernel_config()
        fault = fault_injector.kill_worker(1, partition=3)
        predictor = SnapleLinkPredictor(config)
        recovered = predictor.predict(
            graph, backend="gas", workers=4,
            checkpoint_dir=tmp_path / "ckpt", fault=fault,
        )
        assert recovered.extra["worker_restarts"] == 1.0
        assert recovered.extra["resumed_from_superstep"] == 1.0
        assert recovered.extra["shm_enabled"] == 1.0
        assert_matches_reference(recovered, scalar_reference(graph, config))

    def test_crash_without_checkpoints_replays_from_scratch(
            self, fault_injector, random_graph):
        graph = grid_graph(random_graph)
        baseline = baseline_report(graph, 2)
        fault = fault_injector.kill_worker(2, partition=0)
        predictor = SnapleLinkPredictor(grid_config())
        recovered = predictor.predict(graph, backend="gas", workers=2,
                                      fault=fault)
        assert recovered.extra["worker_restarts"] == 1.0
        assert recovered.extra["resumed_from_superstep"] == 0.0
        assert_bit_identical(baseline, recovered)

    def test_restart_budget_exhausted_raises(self, fault_injector, tmp_path,
                                             random_graph):
        graph = grid_graph(random_graph)
        fault = fault_injector.kill_worker(1, partition=0)
        predictor = SnapleLinkPredictor(grid_config())
        with pytest.raises(WorkerCrashError, match="died mid-superstep"):
            predictor.predict(graph, backend="gas", workers=2,
                              checkpoint_dir=tmp_path / "ckpt",
                              max_restarts=0, fault=fault)

    def test_partitioner_choice_survives_recovery(self, fault_injector,
                                                  tmp_path, random_graph):
        # A greedy-cut run recovers to the random-cut run's answer: placement
        # only moves shipped bytes.
        graph = grid_graph(random_graph)
        baseline = baseline_report(graph, 2)
        fault = fault_injector.kill_worker(1, partition=1)
        predictor = SnapleLinkPredictor(grid_config())
        recovered = predictor.predict(
            graph, backend="gas", workers=2,
            checkpoint_dir=tmp_path / "ckpt", fault=fault,
            **partitioner_option("greedy"),
        )
        assert recovered.extra["worker_restarts"] == 1.0
        assert recovered.predictions == baseline.predictions
        assert dict(recovered.scores) == dict(baseline.scores)


class TestExplicitResume:
    """An interrupted run restores from resume_from, bit-identically."""

    @pytest.mark.parametrize("partitioner", PARTITIONERS)
    @pytest.mark.parametrize("config_name", sorted(GRID_CONFIGS))
    def test_crash_then_resume(self, config_name, partitioner,
                               fault_injector, tmp_path, random_graph):
        graph = grid_graph(random_graph)
        baseline = baseline_report(graph, 2, config_name, partitioner)
        checkpoint_dir = tmp_path / "ckpt"
        fault = fault_injector.kill_worker(2, partition=0)
        predictor = SnapleLinkPredictor(GRID_CONFIGS[config_name]())
        with pytest.raises(WorkerCrashError):
            predictor.predict(graph, backend="gas", workers=2,
                              checkpoint_dir=checkpoint_dir,
                              max_restarts=0, fault=fault,
                              **partitioner_option(partitioner))
        resumed = predictor.predict(graph, backend="gas", workers=2,
                                    resume_from=checkpoint_dir,
                                    **partitioner_option(partitioner))
        assert resumed.extra["resumed_from_superstep"] == 2.0
        assert_bit_identical(baseline, resumed)

    def test_resume_from_specific_step_dir(self, tmp_path, random_graph):
        graph = grid_graph(random_graph)
        baseline = baseline_report(graph, 2)
        checkpoint_dir = tmp_path / "ckpt"
        predictor = SnapleLinkPredictor(grid_config())
        predictor.predict(graph, backend="gas", workers=2,
                          checkpoint_dir=checkpoint_dir)
        first_step = list_checkpoint_dirs(checkpoint_dir)[0]
        resumed = predictor.predict(graph, backend="gas", workers=2,
                                    resume_from=first_step)
        assert resumed.extra["resumed_from_superstep"] == 1.0
        assert_bit_identical(baseline, resumed)

    def test_crash_during_resumed_run_falls_back_to_resume_point(
            self, fault_injector, tmp_path, random_graph):
        # A crash in a resumed run without a checkpoint_dir must retry from
        # the explicitly supplied checkpoint, not replay from scratch.
        graph = grid_graph(random_graph)
        baseline = baseline_report(graph, 2)
        checkpoint_dir = tmp_path / "ckpt"
        first_fault = fault_injector.kill_worker(1, partition=0)
        predictor = SnapleLinkPredictor(grid_config())
        with pytest.raises(WorkerCrashError):
            predictor.predict(graph, backend="gas", workers=2,
                              checkpoint_dir=checkpoint_dir,
                              max_restarts=0, fault=first_fault)
        second_fault = fault_injector.kill_worker(2, partition=1)
        recovered = predictor.predict(graph, backend="gas", workers=2,
                                      resume_from=checkpoint_dir,
                                      fault=second_fault)
        assert recovered.extra["worker_restarts"] == 1.0
        assert recovered.extra["resumed_from_superstep"] == 1.0
        assert_bit_identical(baseline, recovered)

    def test_resume_after_completed_run_replays_only_the_final_step(
            self, tmp_path, random_graph):
        # A completed run's newest snapshot precedes the final step (which
        # is never checkpointed); resuming it recomputes that step alone.
        graph = grid_graph(random_graph)
        checkpoint_dir = tmp_path / "ckpt"
        predictor = SnapleLinkPredictor(grid_config())
        completed = predictor.predict(graph, backend="gas", workers=2,
                                      checkpoint_dir=checkpoint_dir)
        resumed = predictor.predict(graph, backend="gas", workers=2,
                                    resume_from=checkpoint_dir)
        assert resumed.extra["resumed_from_superstep"] == 2.0
        assert_bit_identical(completed, resumed)


class TestCorruptionDetection:
    """Corruption must raise CheckpointError, never return bad results."""

    def checkpointed_run(self, tmp_path, random_graph):
        graph = grid_graph(random_graph)
        checkpoint_dir = tmp_path / "ckpt"
        predictor = SnapleLinkPredictor(grid_config())
        predictor.predict(graph, backend="gas", workers=2,
                          checkpoint_dir=checkpoint_dir)
        return graph, checkpoint_dir, predictor

    @pytest.mark.parametrize("shard", ["state.bin", "runmeta.bin"])
    def test_corrupted_shard_fails_checksum(self, shard, fault_injector,
                                            tmp_path, random_graph):
        graph, checkpoint_dir, predictor = self.checkpointed_run(
            tmp_path, random_graph
        )
        fault_injector.corrupt_shard(checkpoint_dir, shard=shard)
        with pytest.raises(CheckpointError, match="checksum"):
            predictor.predict(graph, backend="gas", workers=2,
                              resume_from=checkpoint_dir)

    def test_truncated_manifest_detected(self, fault_injector, tmp_path,
                                         random_graph):
        graph, checkpoint_dir, predictor = self.checkpointed_run(
            tmp_path, random_graph
        )
        fault_injector.truncate_manifest(checkpoint_dir)
        with pytest.raises(CheckpointError, match="truncated|JSON"):
            predictor.predict(graph, backend="gas", workers=2,
                              resume_from=checkpoint_dir)

    def test_missing_shard_detected(self, tmp_path, random_graph):
        graph, checkpoint_dir, predictor = self.checkpointed_run(
            tmp_path, random_graph
        )
        newest = list_checkpoint_dirs(checkpoint_dir)[-1]
        (newest / "state.bin").unlink()
        with pytest.raises(CheckpointError, match="missing"):
            predictor.predict(graph, backend="gas", workers=2,
                              resume_from=checkpoint_dir)

    def test_recovery_falls_back_past_corrupt_newest(self, fault_injector,
                                                     tmp_path, random_graph):
        # Auto-recovery (unlike explicit resume) may skip a corrupt newest
        # checkpoint: determinism makes any older snapshot equally correct.
        graph = grid_graph(random_graph)
        baseline = baseline_report(graph, 2)
        checkpoint_dir = tmp_path / "ckpt"
        predictor = SnapleLinkPredictor(grid_config())
        predictor.predict(graph, backend="gas", workers=2,
                          checkpoint_dir=checkpoint_dir)
        fault_injector.corrupt_shard(checkpoint_dir, step=2)
        fault = fault_injector.kill_worker(2, partition=1)
        # checkpoint_every=3 keeps the crashed run from re-writing (and
        # thereby repairing) the corrupt step-000002 before it crashes.
        recovered = predictor.predict(graph, backend="gas", workers=2,
                                      checkpoint_dir=checkpoint_dir,
                                      checkpoint_every=3, fault=fault)
        assert recovered.extra["worker_restarts"] == 1.0
        assert recovered.extra["resumed_from_superstep"] == 1.0
        assert_bit_identical(baseline, recovered)


class TestResumeValidation:
    """Incompatible checkpoints are rejected up front."""

    def write_checkpoint(self, tmp_path, random_graph, **overrides):
        graph = grid_graph(random_graph)
        checkpoint_dir = tmp_path / "ckpt"
        predictor = SnapleLinkPredictor(grid_config())
        predictor.predict(graph, backend="gas", workers=2,
                          checkpoint_dir=checkpoint_dir)
        return graph, checkpoint_dir

    def test_wrong_worker_count_rejected(self, tmp_path, random_graph):
        graph, checkpoint_dir = self.write_checkpoint(tmp_path, random_graph)
        predictor = SnapleLinkPredictor(grid_config())
        with pytest.raises(CheckpointError, match="workers"):
            predictor.predict(graph, backend="gas", workers=3,
                              resume_from=checkpoint_dir)

    def test_wrong_config_rejected(self, tmp_path, random_graph):
        graph, checkpoint_dir = self.write_checkpoint(tmp_path, random_graph)
        other = SnapleLinkPredictor(
            SnapleConfig.paper_default(seed=3, k_local=12)
        )
        with pytest.raises(CheckpointError, match="config"):
            other.predict(graph, backend="gas", workers=2,
                          resume_from=checkpoint_dir)

    def test_wrong_graph_rejected(self, tmp_path, random_graph):
        _, checkpoint_dir = self.write_checkpoint(tmp_path, random_graph)
        other_graph = random_graph(90, 3, 0.3, seed=12)
        predictor = SnapleLinkPredictor(grid_config())
        with pytest.raises(CheckpointError, match="num_"):
            predictor.predict(other_graph, backend="gas", workers=2,
                              resume_from=checkpoint_dir)

    def test_version_one_checkpoint_rejected(self, tmp_path, random_graph):
        # Version-1 snapshots (with a messages.bin shard and kind/flavour
        # fields) are refused by the version check, naming both versions.
        import json

        graph, checkpoint_dir = self.write_checkpoint(tmp_path, random_graph)
        for step_dir in list_checkpoint_dirs(checkpoint_dir):
            manifest_path = step_dir / "manifest.json"
            manifest = json.loads(manifest_path.read_text())
            manifest["format_version"] = 1
            manifest_path.write_text(json.dumps(manifest))
        predictor = SnapleLinkPredictor(grid_config())
        with pytest.raises(CheckpointError,
                           match="format version 1; this build reads "
                                 f"version {CHECKPOINT_FORMAT_VERSION}"):
            predictor.predict(graph, backend="gas", workers=2,
                              resume_from=checkpoint_dir)

    def test_different_vertex_subset_rejected(self, tmp_path, random_graph):
        # Snapshots only cover the run's active vertices; resuming with a
        # different subset would replay against partial state.
        graph = grid_graph(random_graph)
        checkpoint_dir = tmp_path / "ckpt"
        predictor = SnapleLinkPredictor(grid_config())
        predictor.predict(graph, backend="gas", workers=2,
                          vertices=list(range(40)),
                          checkpoint_dir=checkpoint_dir)
        with pytest.raises(CheckpointError, match="vertices"):
            predictor.predict(graph, backend="gas", workers=2,
                              resume_from=checkpoint_dir)
        with pytest.raises(CheckpointError, match="vertices"):
            predictor.predict(graph, backend="gas", workers=2,
                              vertices=list(range(50)),
                              resume_from=checkpoint_dir)
        resumed = predictor.predict(graph, backend="gas", workers=2,
                                    vertices=list(range(40)),
                                    resume_from=checkpoint_dir)
        baseline = predictor.predict(graph, backend="gas", workers=2,
                                     vertices=list(range(40)))
        assert_bit_identical(baseline, resumed)

    def test_resume_from_empty_directory_raises(self, tmp_path, random_graph):
        graph = grid_graph(random_graph)
        predictor = SnapleLinkPredictor(grid_config())
        with pytest.raises(CheckpointError, match="no checkpoints"):
            predictor.predict(graph, backend="gas", workers=2,
                              resume_from=tmp_path / "nothing-here")


class TestOptionValidation:
    """Checkpoint options are validated where every other option is."""

    def test_checkpointing_requires_workers(self, tmp_path):
        with pytest.raises(ConfigurationError, match="workers"):
            get_backend("gas", checkpoint_dir=tmp_path)

    def test_non_parallel_backend_rejects_checkpointing(self, tmp_path):
        with pytest.raises(ConfigurationError, match="checkpoint_dir"):
            get_backend("local", checkpoint_dir=tmp_path)

    def test_checkpoint_every_requires_dir(self, random_graph):
        graph = grid_graph(random_graph)
        with pytest.raises(ConfigurationError, match="checkpoint_dir"):
            ParallelExecutor(graph, grid_config(), workers=2,
                             checkpoint_every=2)

    @pytest.mark.parametrize("value", [0, -1, 1.5, True, "2"])
    def test_invalid_checkpoint_every_rejected(self, value, tmp_path,
                                               random_graph):
        graph = grid_graph(random_graph)
        with pytest.raises(ConfigurationError, match="checkpoint_every"):
            ParallelExecutor(graph, grid_config(), workers=2,
                             checkpoint_dir=tmp_path,
                             checkpoint_every=value)

    @pytest.mark.parametrize("value", [-1, 1.5, True])
    def test_invalid_max_restarts_rejected(self, value, random_graph):
        graph = grid_graph(random_graph)
        with pytest.raises(ConfigurationError, match="max_restarts"):
            ParallelExecutor(graph, grid_config(), workers=2,
                             max_restarts=value)

    @pytest.mark.parametrize("value", [0, -2.0, True])
    def test_invalid_worker_timeout_rejected(self, value, random_graph):
        graph = grid_graph(random_graph)
        with pytest.raises(ConfigurationError, match="worker_timeout"):
            ParallelExecutor(graph, grid_config(), workers=2,
                             worker_timeout=value)


class TestCheckpointCadence:
    """checkpoint_every controls which superstep boundaries persist."""

    def test_gas_every_superstep_skips_final(self, tmp_path, random_graph):
        # GAS has 3 known steps; a post-final snapshot could not restore the
        # merged prediction arrays, so only boundaries 1 and 2 are written.
        graph = grid_graph(random_graph)
        predictor = SnapleLinkPredictor(grid_config())
        report = predictor.predict(graph, backend="gas", workers=2,
                                   checkpoint_dir=tmp_path / "ckpt")
        names = [path.name for path in
                 list_checkpoint_dirs(tmp_path / "ckpt")]
        assert names == ["step-000001", "step-000002"]
        assert report.extra["checkpoints_written"] == 2.0
        assert report.extra["checkpoint_bytes"] > 0.0
        assert report.extra["checkpoint_seconds"] >= 0.0

    def test_cadence_two_writes_every_other_boundary(self, tmp_path,
                                                     random_graph):
        graph = grid_graph(random_graph)
        predictor = SnapleLinkPredictor(grid_config())
        predictor.predict(graph, backend="gas", workers=2,
                          checkpoint_dir=tmp_path / "gas",
                          checkpoint_every=2)
        assert [path.name for path in
                list_checkpoint_dirs(tmp_path / "gas")] == ["step-000002"]

    def test_checkpoint_accounting_in_run_report(self, tmp_path,
                                                 random_graph):
        graph = grid_graph(random_graph)
        predictor = SnapleLinkPredictor(grid_config())
        report = predictor.predict(graph, backend="gas", workers=2,
                                   checkpoint_dir=tmp_path / "ckpt")
        payload = report.to_dict()
        assert payload["extra"]["checkpoints_written"] == 2.0
        assert payload["extra"]["checkpoint_bytes"] > 0.0
        assert payload["extra"]["worker_restarts"] == 0.0


class TestCheckpointModule:
    """Unit coverage of the on-disk checkpoint format."""

    def synthetic(self, superstep: int = 1) -> CheckpointData:
        return CheckpointData(
            superstep=superstep,
            workers=2,
            fingerprint={"num_vertices": 4, "seed": 7},
            state={0: {"gamma": [1, 2]}, 1: {"gamma": []}},
            accounting={"gathers": [1, 2], "applies": [3, 4],
                        "shipped": [0, 0], "compute_seconds": [0.0, 0.0]},
            rng={"seed": 7},
        )

    def test_save_load_roundtrip(self, tmp_path):
        data = self.synthetic()
        nbytes = save_checkpoint(tmp_path, data)
        assert nbytes > 0
        loaded = load_checkpoint(tmp_path / "step-000001")
        assert loaded == data

    def test_step_dir_holds_two_shards_and_a_manifest(self, tmp_path):
        import json

        save_checkpoint(tmp_path, self.synthetic())
        step_dir = tmp_path / "step-000001"
        assert sorted(path.name for path in step_dir.iterdir()) == [
            "manifest.json", "runmeta.bin", "state.bin",
        ]
        manifest = json.loads((step_dir / "manifest.json").read_text())
        assert manifest["format_version"] == CHECKPOINT_FORMAT_VERSION
        assert not {"kind", "flavour"} & set(manifest)

    def test_numpy_payloads_roundtrip(self, tmp_path):
        data = self.synthetic()
        data.state = {"ids": np.arange(5, dtype=np.int64),
                      "vals": np.linspace(0.0, 1.0, 5)}
        save_checkpoint(tmp_path, data)
        loaded = load_checkpoint(tmp_path / "step-000001")
        np.testing.assert_array_equal(loaded.state["ids"], data.state["ids"])
        np.testing.assert_array_equal(loaded.state["vals"],
                                      data.state["vals"])

    def test_resolve_prefers_newest_step(self, tmp_path):
        save_checkpoint(tmp_path, self.synthetic(superstep=1))
        save_checkpoint(tmp_path, self.synthetic(superstep=3))
        assert resolve_checkpoint(tmp_path).superstep == 3
        assert (tmp_path / "LATEST").read_text().strip() == "3"

    def test_latest_valid_skips_corrupt_newest(self, tmp_path,
                                               fault_injector):
        save_checkpoint(tmp_path, self.synthetic(superstep=1))
        save_checkpoint(tmp_path, self.synthetic(superstep=2))
        fault_injector.corrupt_shard(tmp_path, step=2)
        assert latest_valid_checkpoint(tmp_path).superstep == 1
        with pytest.raises(CheckpointError, match="checksum"):
            resolve_checkpoint(tmp_path)

    def test_latest_valid_none_when_empty(self, tmp_path):
        assert latest_valid_checkpoint(tmp_path) is None
        assert latest_valid_checkpoint(tmp_path / "missing") is None

    def test_overwrite_same_superstep(self, tmp_path):
        save_checkpoint(tmp_path, self.synthetic())
        replacement = self.synthetic()
        replacement.state = {9: {"gamma": [1]}}
        save_checkpoint(tmp_path, replacement)
        assert load_checkpoint(tmp_path / "step-000001").state == {
            9: {"gamma": [1]}}

    def test_no_temporary_litter(self, tmp_path):
        save_checkpoint(tmp_path, self.synthetic())
        leftovers = [path.name for path in tmp_path.iterdir()
                     if path.name.startswith(".tmp")]
        assert leftovers == []

    def test_format_version_mismatch_rejected(self, tmp_path):
        import json

        save_checkpoint(tmp_path, self.synthetic())
        manifest_path = tmp_path / "step-000001" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = 999
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="format version"):
            load_checkpoint(tmp_path / "step-000001")
