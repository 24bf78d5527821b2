"""Worker-pool lease: pool reuse across ``predict()`` calls.

A :class:`~repro.runtime.parallel.WorkerPoolLease` keeps one worker pool
and its hosted graph alive across runs with the same (graph, config,
workers) key, respawns on any key change, never reuses a pool a crash
broke, and releases everything on ``close()``.
"""

from __future__ import annotations

import os

import pytest

from repro.errors import WorkerCrashError
from repro.runtime.parallel import WorkerPoolLease
from repro.runtime.shm import list_segments
from repro.snaple.config import SnapleConfig
from repro.snaple.predictor import SnapleLinkPredictor


def parity_graph(random_graph):
    return random_graph(150, 3, 0.3, seed=11)


def parity_config() -> SnapleConfig:
    return SnapleConfig.paper_default(seed=3, k_local=10)


class TestWorkerPoolLease:
    def test_pool_reused_across_predicts(self, graph_source, random_graph):
        graph = graph_source(parity_graph(random_graph))
        with SnapleLinkPredictor(parity_config()) as predictor:
            first = predictor.predict(graph, backend="gas", workers=2)
            second = predictor.predict(graph, backend="gas", workers=2)
            assert predictor.pool_spawns == 1
            assert first.predictions == second.predictions

    def test_new_graph_at_a_freed_address_respawns_pool(self, graph_source):
        # A graph allocated where a dropped one lived shares its id(); the
        # lease must still see a different graph and host it afresh.
        from repro.graph.generators import powerlaw_cluster

        config = parity_config()
        with SnapleLinkPredictor(config) as predictor:
            for seed in range(6):
                graph = graph_source(
                    powerlaw_cluster(300, 3, 0.3, seed=seed))
                run = predictor.predict(graph, backend="gas", workers=2)
                with SnapleLinkPredictor(config) as fresh:
                    expected = fresh.predict(graph, backend="gas", workers=2)
                assert run.predictions == expected.predictions
                assert dict(run.scores) == dict(expected.scores)
                del graph, run, expected
            assert predictor.pool_spawns == 6

    def test_worker_count_change_respawns_pool(self, random_graph):
        graph = parity_graph(random_graph)
        with SnapleLinkPredictor(parity_config()) as predictor:
            predictor.predict(graph, backend="gas", workers=2)
            predictor.predict(graph, backend="gas", workers=3)
            assert predictor.pool_spawns == 2

    def test_close_is_idempotent_and_releases(self, graph_source,
                                              random_graph):
        graph = graph_source(parity_graph(random_graph))
        predictor = SnapleLinkPredictor(parity_config())
        predictor.predict(graph, backend="gas", workers=2)
        assert predictor.pool_spawns == 1
        predictor.close()
        predictor.close()
        assert list_segments() == []
        assert predictor.pool_spawns == 0
        if graph.memmap_path is not None:
            # Releasing the lease never removes a caller's container.
            assert os.path.isdir(graph.memmap_path)

    def test_crash_invalidates_lease(self, fault_injector, random_graph):
        graph = parity_graph(random_graph)
        with SnapleLinkPredictor(parity_config()) as predictor:
            baseline = predictor.predict(graph, backend="gas", workers=2)
            fault = fault_injector.kill_worker(1, partition=0)
            with pytest.raises(WorkerCrashError):
                predictor.predict(graph, backend="gas", workers=2,
                                  max_restarts=0, fault=fault)
            # The fault run bypassed the lease; the pooled workers are
            # still healthy and reused.
            after = predictor.predict(graph, backend="gas", workers=2)
            assert predictor.pool_spawns == 1
            assert after.predictions == baseline.predictions

    def test_lease_requires_lease_instance(self, random_graph):
        from repro.errors import ConfigurationError
        from repro.runtime.parallel import ParallelExecutor

        graph = parity_graph(random_graph)
        with pytest.raises(ConfigurationError, match="pool"):
            ParallelExecutor(graph, parity_config(), workers=2,
                             pool=object())

    def test_pool_option_requires_workers(self, random_graph):
        from repro.errors import ConfigurationError
        from repro.runtime import get_backend

        with pytest.raises(ConfigurationError, match="workers"):
            get_backend("gas", pool=WorkerPoolLease())

    def test_lease_context_manager(self, random_graph):
        graph = parity_graph(random_graph)
        config = parity_config()
        with WorkerPoolLease() as lease:
            first = SnapleLinkPredictor(config).predict(
                graph, backend="gas", workers=2, pool=lease)
            second = SnapleLinkPredictor(config).predict(
                graph, backend="gas", workers=2, pool=lease)
            assert lease.spawns == 1
            assert first.predictions == second.predictions
        assert list_segments() == []
