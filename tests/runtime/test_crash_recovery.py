"""Crash-injection harness for fault-tolerant parallel runs.

The acceptance bar of the fault-tolerance layer, asserted here:

* killing worker N at *every* superstep K, across {paper, custom}
  configurations × seeds {3, 8} × {1, 4 workers}, yields a recovered run
  whose predictions, candidate scores (bit-exact floats) and deterministic
  accounting counters are identical to an uninterrupted run — for
  custom-callable configurations too, whose workers run the kernel's
  scalar branches over the same hosted outputs;
* any worker's death recovers, including one that dies in user code inside
  a leased pool (the lease is invalidated, never reused);
* a worker that hangs past ``worker_timeout`` is killed by the watchdog and
  the run recovers exactly as after a crash;
* recovery is bounded by ``max_restarts`` — every crash spends one restart —
  and the removed superstep snapshot options fail loudly, at every entry
  point, instead of being ignored.

Every recovery respawns the worker pool and replays the run from superstep
0; the per-vertex ``(seed, step, vertex)`` RNG streams make the replay
exact.  Worker kills go through the :class:`tests.conftest.FaultInjector`
fixture, whose one-shot token-file faults stay deterministic across pool
respawns.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import time

import pytest

from repro.errors import ConfigurationError, WorkerCrashError
from repro.eval.experiments.ablation_engines import run_ablation_engines
from repro.eval.runner import ExperimentRunner
from repro.runtime import get_backend
from repro.runtime.parallel import FaultSpec, ParallelExecutor, maybe_crash
from repro.runtime.shm import list_segments
from repro.snaple.config import SnapleConfig
from repro.snaple.predictor import SnapleLinkPredictor
from tests.conftest import (
    assert_matches_reference,
    custom_aggregator_config,
    half_jaccard,
    over_seeds,
    reseeded,
    scalar_reference,
    unsupported_kernel_config,
)


def grid_graph(random_graph):
    return random_graph(80, 3, 0.3, seed=11)


def grid_config() -> SnapleConfig:
    return SnapleConfig.paper_default(seed=3, k_local=6)


#: The crash grid's configurations: one the vectorized kernel runs, and a
#: custom similarity the workers score in the kernel's per-edge loop.
GRID_CONFIGS = {
    "paper": grid_config,
    "custom": unsupported_kernel_config,
}

#: Uninterrupted baselines, computed once per (config, seed, workers) cell
#: of the grid — every kill-at-K case compares against the same baseline.
_BASELINES: dict[tuple[str, int | None, int], object] = {}


def grid_config_named(config_name: str, seed: int | None = None
                      ) -> SnapleConfig:
    """The grid configuration ``config_name``, reseeded when ``seed`` is
    given."""
    config = GRID_CONFIGS[config_name]()
    return config if seed is None else reseeded(config, seed)


def baseline_report(graph, workers: int, config_name="paper",
                    seed: int | None = None):
    key = (config_name, seed, workers)
    if key not in _BASELINES:
        config = grid_config_named(config_name, seed)
        with SnapleLinkPredictor(config) as predictor:
            _BASELINES[key] = predictor.predict(graph, backend="gas",
                                                workers=workers)
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


class TestKillWorkerReplayParity:
    """Crash at any superstep ⇒ the replayed run is bit-identical."""

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("superstep", range(3))
    @over_seeds
    @pytest.mark.parametrize("config_name", sorted(GRID_CONFIGS))
    def test_kill_at_superstep(self, config_name, seed, superstep, workers,
                               fault_injector, random_graph):
        graph = grid_graph(random_graph)
        baseline = baseline_report(graph, workers, config_name, seed)
        fault = fault_injector.kill_worker(superstep, partition=workers - 1)
        predictor = SnapleLinkPredictor(grid_config_named(config_name, seed))
        recovered = predictor.predict(graph, backend="gas", workers=workers,
                                      fault=fault)
        assert recovered.extra["worker_restarts"] == 1.0
        assert_bit_identical(baseline, recovered)

    @pytest.mark.parametrize("partition", range(3))
    def test_any_workers_death_is_recovered(self, partition, fault_injector,
                                            random_graph):
        # The grid kills the last partition's worker; the coordinator must
        # not care which of the pool's workers died.
        graph = grid_graph(random_graph)
        baseline = baseline_report(graph, 4)
        fault = fault_injector.kill_worker(1, partition=partition)
        predictor = SnapleLinkPredictor(grid_config())
        recovered = predictor.predict(graph, backend="gas", workers=4,
                                      fault=fault)
        assert recovered.extra["worker_restarts"] == 1.0
        assert_bit_identical(baseline, recovered)

    def test_custom_similarity_recovers_bit_identically(
            self, fault_injector, random_graph):
        # A configuration outside the vectorized kernel runs the kernel's
        # scalar branches inside the phase task; a crash mid-run must still
        # recover bit-identically.
        graph = grid_graph(random_graph)
        config = unsupported_kernel_config()
        fault = fault_injector.kill_worker(1, partition=3)
        predictor = SnapleLinkPredictor(config)
        recovered = predictor.predict(graph, backend="gas", workers=4,
                                      fault=fault)
        assert recovered.extra["worker_restarts"] == 1.0
        assert_matches_reference(recovered, scalar_reference(graph, config))

    @pytest.mark.parametrize("superstep", [1, 2])
    def test_custom_aggregator_recovers_bit_identically(
            self, superstep, fault_injector, random_graph):
        # Phase 3 of this configuration folds in fold_paths (GAS gather
        # order); a crash in the phase that builds its kept rows or in the
        # fold itself replays to the scalar reference.
        graph = grid_graph(random_graph)
        config = custom_aggregator_config()
        fault = fault_injector.kill_worker(superstep, partition=1)
        with SnapleLinkPredictor(config) as predictor:
            recovered = predictor.predict(graph, backend="gas", workers=2,
                                          fault=fault)
        assert recovered.extra["worker_restarts"] == 1.0
        assert_matches_reference(recovered, scalar_reference(graph, config))

    def test_recovered_report_carries_only_the_restart_count(
            self, fault_injector, random_graph):
        # A replay from superstep 0 is the only recovery, so the report
        # names no resume point and no snapshot accounting.
        graph = grid_graph(random_graph)
        baseline = baseline_report(graph, 2)
        fault = fault_injector.kill_worker(2, partition=0)
        predictor = SnapleLinkPredictor(grid_config())
        recovered = predictor.predict(graph, backend="gas", workers=2,
                                      fault=fault)
        assert recovered.extra["worker_restarts"] == 1.0
        assert not {"resumed_from_superstep", "checkpoints_written",
                    "checkpoint_bytes", "checkpoint_seconds"} & set(
                        recovered.extra)
        assert_bit_identical(baseline, recovered)

    @pytest.mark.parametrize("superstep", range(3))
    def test_restart_budget_exhausted_raises(self, superstep, fault_injector,
                                             random_graph):
        graph = grid_graph(random_graph)
        fault = fault_injector.kill_worker(superstep, partition=0)
        predictor = SnapleLinkPredictor(grid_config())
        with pytest.raises(WorkerCrashError, match="died mid-superstep"):
            predictor.predict(graph, backend="gas", workers=2,
                              max_restarts=0, fault=fault)

    @pytest.mark.parametrize("superstep", range(3))
    def test_recovery_matches_another_worker_count(self, superstep,
                                                   fault_injector,
                                                   random_graph):
        # A 4-worker run that loses a worker recovers to the 2-worker run's
        # answer: ownership never changes the predictions, recovery
        # included.
        graph = grid_graph(random_graph)
        baseline = baseline_report(graph, 2)
        fault = fault_injector.kill_worker(superstep, partition=3)
        predictor = SnapleLinkPredictor(grid_config())
        recovered = predictor.predict(graph, backend="gas", workers=4,
                                      fault=fault)
        assert recovered.extra["worker_restarts"] == 1.0
        assert recovered.predictions == baseline.predictions
        assert dict(recovered.scores) == dict(baseline.scores)

    @pytest.mark.parametrize("superstep", range(3))
    def test_crash_in_subset_run_equals_full_run(self, superstep,
                                                 fault_injector,
                                                 random_graph):
        # The replayed sampling and similarity steps cover every vertex, so
        # a recovered subset run answers like the full run on the subset.
        graph = grid_graph(random_graph)
        full = baseline_report(graph, 2)
        subset = [3, 17, 42, 60]
        predictor = SnapleLinkPredictor(grid_config())
        recovered = predictor.predict(
            graph, backend="gas", workers=2, vertices=subset,
            fault=fault_injector.kill_worker(superstep, partition=1),
        )
        assert recovered.extra["worker_restarts"] == 1.0
        assert recovered.predictions == {u: full.predictions[u]
                                         for u in subset}
        assert {u: dict(recovered.scores[u]) for u in subset} == {
            u: dict(full.scores[u]) for u in subset
        }


def _first_call(token_path: str) -> bool:
    """Whether this is the first call, in any process, to claim the token.

    The token is created atomically (``O_CREAT | O_EXCL``), so exactly one
    call ever sees ``True`` — in the respawned workers of a replay too.
    """
    try:
        fd = os.open(token_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


class HangOnce:
    """Half-Jaccard similarity that hangs the first process to call it.

    That call sleeps far past any sane ``worker_timeout``, and every later
    call scores normally.  Module level, so worker processes unpickle it by
    reference.
    """

    def __init__(self, token_path: str, seconds: float = 60.0) -> None:
        self.token_path = token_path
        self.seconds = seconds

    def __call__(self, left, right):
        if _first_call(self.token_path):
            time.sleep(self.seconds)
        return half_jaccard(left, right)


class CrashOnce:
    """Half-Jaccard similarity that kills the first process to call it.

    A worker dying in user code, outside the ``fault=`` hook — so, unlike a
    ``FaultSpec`` run, it also goes through a leased pool.
    """

    def __init__(self, token_path: str) -> None:
        self.token_path = token_path

    def __call__(self, left, right):
        if _first_call(self.token_path):
            os._exit(13)
        return half_jaccard(left, right)


def similarity_config(similarity) -> SnapleConfig:
    """``unsupported_kernel_config`` scoring with ``similarity``."""
    config = unsupported_kernel_config()
    score = dataclasses.replace(config.score, similarity=similarity)
    return dataclasses.replace(config, score=score)


def hanging_config(token_path: str) -> SnapleConfig:
    """``unsupported_kernel_config`` with a similarity that hangs once."""
    return similarity_config(HangOnce(token_path))


class TestWatchdog:
    """A hung worker is killed after ``worker_timeout`` and the run replays."""

    def test_hung_worker_is_recovered_by_the_watchdog(self, tmp_path,
                                                      random_graph):
        graph = grid_graph(random_graph)
        baseline = baseline_report(graph, 2, "custom")
        before = list_segments()
        config = hanging_config(str(tmp_path / "hang-token"))
        start = time.perf_counter()
        with SnapleLinkPredictor(config) as predictor:
            recovered = predictor.predict(graph, backend="gas", workers=2,
                                          worker_timeout=2.0)
        # The replay did not wait out the 60 s sleep.
        assert time.perf_counter() - start < 30.0
        assert (tmp_path / "hang-token").exists()
        assert recovered.extra["worker_restarts"] == 1.0
        assert recovered.predictions == baseline.predictions
        assert dict(recovered.scores) == dict(baseline.scores)
        assert list_segments() == before

    def test_hung_worker_spends_the_restart_budget(self, tmp_path,
                                                   random_graph):
        graph = grid_graph(random_graph)
        before = list_segments()
        config = hanging_config(str(tmp_path / "hang-token"))
        start = time.perf_counter()
        with SnapleLinkPredictor(config) as predictor:
            with pytest.raises(WorkerCrashError, match="worker_timeout"):
                predictor.predict(graph, backend="gas", workers=2,
                                  worker_timeout=2.0, max_restarts=0)
        # The hung worker was killed, not waited for.
        assert time.perf_counter() - start < 30.0
        assert list_segments() == before

    def test_healthy_run_is_untouched_by_the_watchdog(self, random_graph):
        graph = grid_graph(random_graph)
        baseline = baseline_report(graph, 2)
        with SnapleLinkPredictor(grid_config()) as predictor:
            watched = predictor.predict(graph, backend="gas", workers=2,
                                        worker_timeout=60.0)
        assert watched.extra["worker_restarts"] == 0.0
        assert_bit_identical(baseline, watched)


class TestCrashOutsideTheHook:
    """Workers that die in user code recover like injected kills."""

    def test_crash_in_a_leased_pool_invalidates_the_lease(self, tmp_path,
                                                          graph_source,
                                                          random_graph):
        # The recovery replays on a self-managed pool, which hosts the
        # graph again in the run's own registry: an in-RAM graph is saved
        # afresh, a container graph ships its path again.
        graph = grid_graph(random_graph)
        baseline = baseline_report(graph, 2, "custom")
        config = similarity_config(CrashOnce(str(tmp_path / "crash-token")))
        hosted = graph_source(graph)
        with SnapleLinkPredictor(config) as predictor:
            recovered = predictor.predict(hosted, backend="gas", workers=2)
            assert recovered.extra["worker_restarts"] == 1.0
            assert_bit_identical(baseline, recovered)
            # The broken leased pool is never handed out again.
            after = predictor.predict(hosted, backend="gas", workers=2)
            assert predictor.pool_spawns == 2
        assert after.extra["worker_restarts"] == 0.0
        assert_bit_identical(baseline, after)

    def test_every_crash_spends_one_restart(self, tmp_path, fault_injector,
                                            random_graph):
        # The similarity kills a worker in the first run's superstep 1; the
        # injected fault kills another in the first replay's superstep 2.
        graph = grid_graph(random_graph)
        baseline = baseline_report(graph, 2, "custom")
        config = similarity_config(CrashOnce(str(tmp_path / "crash-token")))
        recovered = SnapleLinkPredictor(config).predict(
            graph, backend="gas", workers=2,
            fault=fault_injector.kill_worker(2, partition=0),
        )
        assert recovered.extra["worker_restarts"] == 2.0
        assert_bit_identical(baseline, recovered)

    def test_second_crash_exhausts_a_budget_of_one(self, tmp_path,
                                                   fault_injector,
                                                   random_graph):
        graph = grid_graph(random_graph)
        before = list_segments()
        config = similarity_config(CrashOnce(str(tmp_path / "crash-token")))
        with pytest.raises(WorkerCrashError, match="died mid-superstep"):
            SnapleLinkPredictor(config).predict(
                graph, backend="gas", workers=2, max_restarts=1,
                fault=fault_injector.kill_worker(2, partition=0),
            )
        assert list_segments() == before


#: The superstep-snapshot options recovery by replay removed.
REMOVED_SNAPSHOT_OPTIONS = ("checkpoint_dir", "checkpoint_every",
                            "resume_from")


class TestOptionValidation:
    """Recovery options are validated where every other option is."""

    def test_recovery_options_require_workers(self):
        with pytest.raises(ConfigurationError, match="workers"):
            get_backend("gas", max_restarts=1)

    def test_non_parallel_backend_rejects_recovery_options(self):
        with pytest.raises(ConfigurationError, match="worker_timeout"):
            get_backend("local", worker_timeout=1.0)

    @pytest.mark.parametrize("option", REMOVED_SNAPSHOT_OPTIONS)
    def test_removed_snapshot_options_fail_loudly(self, option, tmp_path,
                                                  random_graph):
        graph = grid_graph(random_graph)
        value = 1 if option == "checkpoint_every" else tmp_path / "snap"
        with SnapleLinkPredictor(grid_config()) as predictor:
            with pytest.raises(ConfigurationError, match=option):
                predictor.predict(graph, backend="gas", workers=2,
                                  **{option: value})

    @pytest.mark.parametrize("option", REMOVED_SNAPSHOT_OPTIONS)
    def test_registry_rejects_removed_snapshot_options(self, option,
                                                       tmp_path):
        value = 1 if option == "checkpoint_every" else tmp_path / "snap"
        with pytest.raises(ConfigurationError, match=option):
            get_backend("gas", workers=2, **{option: value})

    @pytest.mark.parametrize("option", REMOVED_SNAPSHOT_OPTIONS)
    def test_experiment_runner_rejects_removed_snapshot_options(
            self, option, tmp_path):
        value = 1 if option == "checkpoint_every" else tmp_path / "snap"
        runner = ExperimentRunner(scale=0.12, seed=42)
        with pytest.raises(ConfigurationError, match=option):
            runner.run_backend("gowalla", backend="gas", workers=2,
                               **{option: value})

    @pytest.mark.parametrize("option",
                             (*REMOVED_SNAPSHOT_OPTIONS, "resume"))
    def test_engine_ablation_rejects_removed_snapshot_options(self, option):
        # Rejected by the signature, before any dataset is built.
        with pytest.raises(TypeError, match=option):
            run_ablation_engines(scale=0.12, seed=42, **{option: 1})

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


class TestFaultHook:
    """The ``fault=`` test hook fires only for its (superstep, partition)."""

    def test_no_fault_is_a_no_op(self):
        maybe_crash(None, 0, 0)

    @pytest.mark.parametrize("superstep, partition", [(0, 1), (1, 0)])
    def test_other_cells_proceed(self, superstep, partition, tmp_path):
        fault = FaultSpec(superstep=1, partition=1,
                          token_path=str(tmp_path / "token"))
        maybe_crash(fault, superstep, partition)
        assert not (tmp_path / "token").exists()

    def test_fired_fault_proceeds_on_retry(self, tmp_path):
        token = tmp_path / "token"
        token.write_bytes(b"crashed\n")
        maybe_crash(FaultSpec(superstep=1, partition=1,
                              token_path=str(token)), 1, 1)

    def test_target_cell_exits_once_with_the_exit_code(self, tmp_path):
        token = tmp_path / "token"
        fault = FaultSpec(superstep=2, partition=0, token_path=str(token),
                          exit_code=21)
        context = multiprocessing.get_context("spawn")
        first = context.Process(target=maybe_crash, args=(fault, 2, 0))
        first.start()
        first.join(timeout=60)
        assert first.exitcode == 21
        assert token.read_bytes() == b"crashed\n"
        retry = context.Process(target=maybe_crash, args=(fault, 2, 0))
        retry.start()
        retry.join(timeout=60)
        assert retry.exitcode == 0
