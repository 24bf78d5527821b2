"""PredictorService: lifecycle, queueing shape, caching, and live updates."""

from __future__ import annotations

import contextlib
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.errors import ConfigurationError, GraphError, ServingError
from repro.graph.generators import powerlaw_cluster
from repro.serving import (
    IncrementalIndex,
    PredictorService,
    ServingConfig,
)
from repro.serving.loadgen import LoadConfig
from repro.snaple.config import SnapleConfig


@pytest.fixture(scope="module")
def config() -> SnapleConfig:
    return SnapleConfig.paper_default(seed=3, k_local=6)


def _absent_edge(graph, seed=0):
    rng = np.random.default_rng(seed)
    while True:
        u = int(rng.integers(graph.num_vertices))
        v = int(rng.integers(graph.num_vertices))
        if u != v and not graph.has_edge(u, v):
            return u, v


def test_import_leaves_the_parallel_executor_unloaded():
    """Serving runs in threads: importing it must not pull in the process
    pool executor (and with it the segment-plane modules)."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    probe = ("import sys, repro.serving; "
             "print('repro.runtime.parallel' in sys.modules)")
    completed = subprocess.run([sys.executable, "-c", probe], env=env,
                               capture_output=True, text=True, timeout=60,
                               check=True)
    assert completed.stdout.strip() == "False"


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"workers": 0},
        {"workers": -2},
        {"queue_bound": 0},
        {"compact_every": 0},
    ])
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ServingConfig(**kwargs)

    @pytest.mark.parametrize("config_class,kwargs", [
        (ServingConfig, {"workers": 1.5}),
        (ServingConfig, {"workers": True}),
        (ServingConfig, {"queue_bound": 2.5}),
        (ServingConfig, {"compact_every": 1.5}),
        (LoadConfig, {"clients": 2.0}),
        (LoadConfig, {"clients": True}),
        (LoadConfig, {"windows": 3.5}),
        (LoadConfig, {"warmup_windows": 0.5}),
        (LoadConfig, {"cooldown_windows": False}),
    ])
    def test_non_integer_config_rejected(self, config_class, kwargs):
        name = next(iter(kwargs))
        with pytest.raises(ConfigurationError,
                           match=f"{name} must be an integer"):
            config_class(**kwargs)

    def test_compaction_can_be_disabled(self):
        assert ServingConfig(compact_every=None).compact_every is None


class TestLifecycle:
    def test_submit_before_start_raises(self, small_social_graph, config):
        service = PredictorService(small_social_graph, config)
        with pytest.raises(ServingError):
            service.submit_top_k(0)
        with pytest.raises(ServingError):
            service.report()

    def test_double_start_raises(self, small_social_graph, config):
        service = PredictorService(small_social_graph, config)
        service.start()
        try:
            with pytest.raises(ServingError):
                service.start()
        finally:
            service.stop()

    def test_submit_after_stop_raises(self, small_social_graph, config):
        with PredictorService(small_social_graph, config) as service:
            assert service.top_k(0) is not None
        with pytest.raises(ServingError):
            service.submit_top_k(0)
        service.stop()  # idempotent

    def test_worker_threads_join_on_stop(self, small_social_graph, config):
        serving = ServingConfig(workers=3)
        with PredictorService(small_social_graph, config,
                              serving=serving) as service:
            assert len(service._threads) == 3
        assert all(not thread.is_alive() for thread in service._threads)


class TestQueries:
    def test_top_k_matches_index(self, small_social_graph, config):
        index = IncrementalIndex(small_social_graph, config)
        with PredictorService(small_social_graph, config) as service:
            for u in (0, 5, 17, 123):
                answer = service.top_k(u)
                assert answer.vertex == u
                assert answer.predicted == index.predictions(u)
                assert answer.scores == index.prediction_scores(u)

    def test_k_slicing(self, small_social_graph, config):
        with PredictorService(small_social_graph, config) as service:
            subject = next(u for u in range(service.num_vertices)
                           if len(service.top_k(u).predicted) >= 2)
            full = service.top_k(subject)
            sliced = service.top_k(subject, k=1)
            assert sliced.predicted == full.predicted[:1]
            assert sliced.scores == full.scores[:1]

    @pytest.mark.parametrize("k", [0, -1, 2.5, True])
    def test_invalid_k_rejected_before_enqueue(self, small_social_graph,
                                               config, k):
        with PredictorService(small_social_graph, config) as service:
            with pytest.raises(ConfigurationError):
                service.top_k(0, k=k)
            with pytest.raises(ConfigurationError):
                service.submit_top_k(0, k=k)
            assert service.stats().requests_served == 0

    def test_unknown_vertex_surfaces_through_future(self, small_social_graph,
                                                    config):
        from repro.errors import VertexNotFoundError
        with PredictorService(small_social_graph, config) as service:
            with pytest.raises(VertexNotFoundError):
                service.top_k(service.num_vertices + 5)

    def test_result_cache_counters(self, small_social_graph, config):
        with PredictorService(small_social_graph, config) as service:
            first = service.top_k(7)
            again = service.top_k(7)
            assert not first.from_cache
            assert again.from_cache
            assert (again.predicted, again.scores) == (first.predicted,
                                                       first.scores)
            stats = service.stats()
            assert stats.cache_hits == 1
            assert stats.cache_misses == 1


class TestIngest:
    def test_ingest_changes_the_answer(self, small_social_graph, config):
        with PredictorService(small_social_graph, config) as service:
            subject = next(u for u in range(service.num_vertices)
                           if service.top_k(u).predicted)
            before = service.top_k(subject)
            outcome = service.ingest_edge(subject, before.predicted[0])
            assert outcome.added == [(subject, before.predicted[0])]
            assert outcome.rescored > 0
            after = service.top_k(subject)
            # The ingested target is now a real neighbor: no longer a
            # candidate, so the answer must change.
            assert not after.from_cache
            assert after.predicted != before.predicted
            assert before.predicted[0] not in after.predicted

    def test_ingest_invalidates_only_rescored_entries(self, small_social_graph,
                                                      config):
        with PredictorService(small_social_graph, config) as service:
            u, v = _absent_edge(small_social_graph, seed=1)
            # Warm the result cache for every vertex, then ingest.
            for w in range(service.num_vertices):
                service.top_k(w)
            outcome = service.ingest_edge(u, v)
            assert 0 < outcome.rescored < service.num_vertices
            # The edge source was rescored: recomputed on next query.
            assert not service.top_k(u).from_cache
            # Entries outside the dirty region survive the ingest.
            hits = sum(service.top_k(w).from_cache
                       for w in range(service.num_vertices))
            assert hits >= service.num_vertices - outcome.rescored

    def test_duplicate_ingest_reports_zero_added(self, small_social_graph,
                                                 config):
        with PredictorService(small_social_graph, config) as service:
            u, v = _absent_edge(small_social_graph, seed=2)
            assert service.ingest_edge(u, v).added == [(u, v)]
            repeat = service.ingest_edge(u, v)
            assert repeat.requested == 1
            assert repeat.added == []
            assert repeat.rescored == 0

    @pytest.mark.parametrize("op", ["ingest", "remove"])
    def test_batch_with_a_bad_edge_applies_nothing(self, op):
        """A batch is validated whole: one negative endpoint rejects it
        before any edge lands, so no answer goes stale."""
        graph = powerlaw_cluster(300, 4, 0.5, seed=3)
        config = SnapleConfig.paper_default(seed=3, k_local=5)
        if op == "ingest":
            good = _absent_edge(graph)
        else:
            src, dst = graph.edge_arrays()
            good = (int(src[0]), int(dst[0]))
        apply = (PredictorService.ingest if op == "ingest"
                 else PredictorService.remove)
        with PredictorService(graph, config) as service:
            for w in range(graph.num_vertices):
                service.top_k(w)  # warm the result cache
            with pytest.raises(GraphError):
                apply(service, [good, (-1, 5)])
            cold = IncrementalIndex(graph, config)
            for w in range(graph.num_vertices):
                assert service.top_k(w).predicted == cold.predictions(w)
            # The good edge was not applied, so applying it alone does so.
            outcome = apply(service, [good])
            applied = outcome.added if op == "ingest" else outcome.removed
            assert applied == [good]

    def test_compaction_cadence(self, small_social_graph, config):
        serving = ServingConfig(workers=1, compact_every=2)
        with PredictorService(small_social_graph, config,
                              serving=serving) as service:
            rng = np.random.default_rng(3)
            compactions = 0
            added = 0
            while added < 6:
                u = int(rng.integers(service.num_vertices))
                v = int(rng.integers(service.num_vertices))
                if u == v:
                    continue
                outcome = service.ingest_edge(u, v)
                added += len(outcome.added)
                compactions += int(outcome.compacted)
            assert compactions == service.stats().compactions
            assert compactions >= 2
            assert service.stats().delta_edges < 2


@contextlib.contextmanager
def _saturated(service):
    """Hold the write lock so the single worker blocks and the one queue
    slot fills; yields the two futures that got in."""
    release = threading.Event()
    entered = threading.Event()

    def hold_write():
        with service._lock.write():
            entered.set()
            release.wait()

    holder = threading.Thread(target=hold_write)
    holder.start()
    try:
        assert entered.wait(5)
        # The single worker picks this up and blocks on the read side of
        # the lock...
        blocked = service.submit_top_k(0)
        # ...this one fills the only queue slot.
        queued = service.submit_top_k(1)
        yield blocked, queued
    finally:
        release.set()
        holder.join()
    assert blocked.result(5).vertex == 0
    assert queued.result(5).vertex == 1


class TestQueueBound:
    def test_full_queue_times_out_with_serving_error(self, small_social_graph,
                                                     config):
        serving = ServingConfig(workers=1, queue_bound=1)
        with PredictorService(small_social_graph, config,
                              serving=serving) as service:
            with _saturated(service):
                # The next submission cannot enqueue within the timeout
                # and must surface the bound as a ServingError.
                with pytest.raises(ServingError):
                    service.submit_top_k(2, timeout=0.05)

    @pytest.mark.parametrize("call", [
        lambda service: service.top_k(2, timeout=0.05),
        lambda service: service.ingest([(2, 3)], timeout=0.05),
        lambda service: service.ingest_edge(2, 3, timeout=0.05),
        lambda service: service.remove([(2, 3)], timeout=0.05),
    ], ids=["top_k", "ingest", "ingest_edge", "remove"])
    def test_blocking_call_honours_timeout_on_enqueue(self,
                                                      small_social_graph,
                                                      config, call):
        serving = ServingConfig(workers=1, queue_bound=1)
        with PredictorService(small_social_graph, config,
                              serving=serving) as service:
            with _saturated(service):
                # The blocking call must give up on a full queue within
                # its timeout instead of waiting forever for a slot.
                with pytest.raises(ServingError):
                    call(service)
            # Nothing was enqueued: the timed-out update never applied.
            assert service.stats().edges_ingested == 0


class TestConcurrency:
    def test_concurrent_queries_and_ingests_stay_exact(self,
                                                       small_social_graph,
                                                       config):
        from repro.graph.digraph import DiGraph

        serving = ServingConfig(workers=4, compact_every=3)
        stream, seen = [], set()
        rng = np.random.default_rng(7)
        while len(stream) < 10:
            u = int(rng.integers(small_social_graph.num_vertices))
            v = int(rng.integers(small_social_graph.num_vertices))
            if (u != v and (u, v) not in seen
                    and not small_social_graph.has_edge(u, v)):
                stream.append((u, v))
                seen.add((u, v))
        src, dst = small_social_graph.edge_arrays()
        merged = DiGraph(
            small_social_graph.num_vertices,
            np.concatenate([src, np.asarray([u for u, _ in stream])]),
            np.concatenate([dst, np.asarray([v for _, v in stream])]),
        )
        with PredictorService(small_social_graph, config,
                              serving=serving) as service:
            query_futures = [service.submit_top_k(u % service.num_vertices)
                             for u in range(40)]
            ingest_futures = [service.submit_ingest([edge])
                              for edge in stream]
            for future in query_futures + ingest_futures:
                future.result(30)
            final = IncrementalIndex(merged, config)
            # After every job drains, served answers equal a cold build
            # on the merged graph.
            for u in (0, 3, stream[0][0]):
                answer = service.top_k(u)
                assert answer.predicted == final.predictions(u)
                assert answer.scores == final.prediction_scores(u)


class TestStatsAndReport:
    def test_stats_snapshot(self, small_social_graph, config):
        with PredictorService(small_social_graph, config) as service:
            service.top_k(0)
            service.top_k(0)
            u, v = _absent_edge(small_social_graph, seed=4)
            service.ingest_edge(u, v)
            stats = service.stats()
            assert stats.requests_served == 2
            assert stats.edges_ingested == 1
            assert stats.dirty_vertices_rescored > 0
            assert stats.workers == service.serving_config.workers

    def test_report_shape(self, small_social_graph, config):
        with PredictorService(small_social_graph, config) as service:
            service.top_k(5)
            report = service.report()
            assert report.backend == "serving"
            assert report.workers == service.serving_config.workers
            assert report.wall_clock_seconds > 0
            assert len(report.predictions) == service.num_vertices
            assert report.extra["requests_served"] == 1.0
            index = IncrementalIndex(small_social_graph, config)
            assert report.predictions == index.all_predictions()
            assert report.scores[5] == index.scores(5)
