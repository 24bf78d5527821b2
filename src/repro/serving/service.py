"""Long-lived predictor service in the Queueing-middleware shape.

One ingest path, a bounded job queue, ``n`` worker threads, no busy polling:
callers submit jobs (top-k queries or edge ingests) which block on
``queue.put`` when the bound is reached — the closed-loop backpressure of the
middleware literature — and workers block on ``queue.get`` / condition
variables, never spinning.  Queries run concurrently under a
writer-preferring read/write lock; ingests take the write side, apply the
dirty-region rescoring of :class:`~repro.serving.index.IncrementalIndex`,
and invalidate exactly the result-cache entries whose vertices were
rescored, so a cached answer is always bit-identical to a fresh one.

The public API is asynchronous (``submit_*`` returns a
:class:`concurrent.futures.Future`) with blocking conveniences
(:meth:`PredictorService.top_k`, :meth:`PredictorService.ingest`) layered on
top.
"""

from __future__ import annotations

import queue as queue_module
import threading
import time
from collections.abc import Iterable
from concurrent.futures import Future
from contextlib import contextmanager
from dataclasses import dataclass

from repro.errors import ConfigurationError, ServingError
from repro.graph.digraph import DiGraph
from repro.runtime.report import RunReport
from repro.serving.index import IncrementalIndex
from repro.serving.stages import StageRecorder
from repro.snaple.config import SnapleConfig

__all__ = ["IngestResult", "PredictorService", "RemovalResult",
           "ServiceStats", "ServingConfig", "TopKResult"]

#: Queue sentinel that tells a worker to exit its loop.
_SHUTDOWN = object()


def validate_ints(**values) -> None:
    """Reject any value that is not an ``int`` (bools included)."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigurationError(
                f"{name} must be an integer, got {value!r}"
            )


def validate_k(k) -> None:
    """Reject a top-k cut that is neither ``None`` nor a positive ``int``."""
    if k is not None and (isinstance(k, bool) or not isinstance(k, int)
                          or k < 1):
        raise ConfigurationError(
            f"k must be a positive integer or None, got {k!r}"
        )


@dataclass(frozen=True)
class ServingConfig:
    """Service shape: worker count, queue bound, compaction cadence.

    Validation happens up front at construction (the repo-wide convention):
    a service can only exist with a runnable configuration.
    """

    workers: int = 2
    queue_bound: int = 64
    compact_every: int | None = 1024

    def __post_init__(self) -> None:
        validate_ints(workers=self.workers, queue_bound=self.queue_bound)
        if self.compact_every is not None:
            validate_ints(compact_every=self.compact_every)
        if self.workers < 1:
            raise ConfigurationError(
                f"serving workers must be >= 1, got {self.workers}"
            )
        if self.queue_bound < 1:
            raise ConfigurationError(
                f"queue bound must be >= 1, got {self.queue_bound}"
            )
        if self.compact_every is not None and self.compact_every < 1:
            raise ConfigurationError(
                f"compaction cadence must be >= 1 delta edges (or None to "
                f"disable), got {self.compact_every}"
            )


@dataclass(frozen=True)
class TopKResult:
    """Answer to one ``top_k`` request."""

    vertex: int
    predicted: list[int]
    scores: list[float]
    from_cache: bool


@dataclass(frozen=True)
class IngestResult:
    """Answer to one ingest request."""

    requested: int
    added: list[tuple[int, int]]
    rescored: int
    compacted: bool


@dataclass(frozen=True)
class RemovalResult:
    """Answer to one edge-removal request."""

    requested: int
    removed: list[tuple[int, int]]
    rescored: int


@dataclass(frozen=True)
class ServiceStats:
    """Counter snapshot of a running (or stopped) service."""

    requests_served: int
    edges_ingested: int
    dirty_vertices_rescored: int
    cache_hits: int
    cache_misses: int
    pair_cache_hits: int
    pair_cache_misses: int
    compactions: int
    delta_edges: int
    queue_depth: int
    workers: int


class _ReadWriteLock:
    """Writer-preferring read/write lock built on one condition variable.

    Readers (queries) share; writers (ingests) are exclusive and take
    priority over newly arriving readers so a stream of queries cannot
    starve updates.  All waiting happens in ``Condition.wait`` — no polling.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer_active = False
        self._writers_waiting = 0

    @contextmanager
    def read(self):
        with self._cond:
            while self._writer_active or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                if not self._readers:
                    self._cond.notify_all()

    @contextmanager
    def write(self):
        with self._cond:
            self._writers_waiting += 1
            while self._writer_active or self._readers:
                self._cond.wait()
            self._writers_waiting -= 1
            self._writer_active = True
        try:
            yield
        finally:
            with self._cond:
                self._writer_active = False
                self._cond.notify_all()


class PredictorService:
    """Serves ``top_k`` queries over a live graph absorbing streamed edges.

    ``start()`` runs the cold index build and spawns the workers; use the
    service as a context manager for deterministic shutdown.  Results are
    bit-identical to a cold batch ``predict`` on the merged graph at any
    point in the stream — the incremental index's parity contract.
    """

    def __init__(self, graph: DiGraph, config: SnapleConfig | None = None,
                 *, serving: ServingConfig | None = None) -> None:
        self._graph = graph
        self._config = config or SnapleConfig.paper_default()
        self._serving = serving or ServingConfig()
        self._queue: queue_module.Queue = queue_module.Queue(
            maxsize=self._serving.queue_bound
        )
        self._lock = _ReadWriteLock()
        self._counters_lock = threading.Lock()
        self._threads: list[threading.Thread] = []
        self._index: IncrementalIndex | None = None
        self._result_cache: dict[int, TopKResult] = {}
        self._requests_served = 0
        self._edges_ingested = 0
        self._cache_hits = 0
        self._cache_misses = 0
        self._compactions = 0
        self._started = False
        self._stopped = False
        self._started_at: float | None = None
        workers = self._serving.workers
        self._stage_recorders = {
            "query": StageRecorder("query", servers=workers),
            "ingest": StageRecorder("ingest", servers=workers),
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def serving_config(self) -> ServingConfig:
        return self._serving

    @property
    def config(self) -> SnapleConfig:
        return self._config

    @property
    def num_vertices(self) -> int:
        if self._index is None:
            return self._graph.num_vertices
        return self._index.num_vertices

    def start(self) -> "PredictorService":
        """Cold-build the index and spawn the worker threads."""
        if self._started:
            raise ServingError("service already started")
        self._index = IncrementalIndex(self._graph, self._config)
        self._started = True
        self._started_at = time.perf_counter()
        for worker_id in range(self._serving.workers):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"snaple-serve-{worker_id}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        return self

    def stop(self) -> None:
        """Drain the queue and join every worker (idempotent)."""
        if self._stopped:
            return
        self._stopped = True
        if not self._started:
            return
        for _ in self._threads:
            self._queue.put(_SHUTDOWN)
        for thread in self._threads:
            thread.join()

    def __enter__(self) -> "PredictorService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Submission (the one ingest path)
    # ------------------------------------------------------------------
    def _submit(self, kind: str, payload,
                timeout: float | None) -> Future:
        if not self._started:
            raise ServingError(
                "service not started; call start() or use it as a "
                "context manager"
            )
        if self._stopped:
            raise ServingError("service already stopped")
        future: Future = Future()
        try:
            self._queue.put((kind, payload, future, time.perf_counter()),
                            timeout=timeout)
        except queue_module.Full:
            raise ServingError(
                f"job queue full (bound {self._serving.queue_bound}); "
                f"submission timed out after {timeout}s"
            ) from None
        return future

    def submit_top_k(self, vertex: int, k: int | None = None, *,
                     timeout: float | None = None) -> Future:
        """Enqueue a top-k query; resolves to a :class:`TopKResult`."""
        validate_k(k)
        return self._submit("top_k", (int(vertex), k), timeout)

    def submit_ingest(self, edges: Iterable[tuple[int, int]], *,
                      timeout: float | None = None) -> Future:
        """Enqueue an edge-batch ingest; resolves to an :class:`IngestResult`."""
        return self._submit("ingest", [(int(u), int(v)) for u, v in edges],
                            timeout)

    def submit_remove(self, edges: Iterable[tuple[int, int]], *,
                      timeout: float | None = None) -> Future:
        """Enqueue an edge-batch removal; resolves to a
        :class:`RemovalResult`."""
        return self._submit("remove", [(int(u), int(v)) for u, v in edges],
                            timeout)

    def top_k(self, vertex: int, k: int | None = None,
              timeout: float | None = None) -> TopKResult:
        """Blocking convenience over :meth:`submit_top_k`.

        Like every blocking call, ``timeout`` bounds the enqueue and then,
        separately, the wait for the answer.
        """
        return self.submit_top_k(vertex, k, timeout=timeout).result(timeout)

    def ingest(self, edges: Iterable[tuple[int, int]],
               timeout: float | None = None) -> IngestResult:
        """Blocking convenience over :meth:`submit_ingest`."""
        return self.submit_ingest(edges, timeout=timeout).result(timeout)

    def ingest_edge(self, u: int, v: int,
                    timeout: float | None = None) -> IngestResult:
        return self.ingest([(u, v)], timeout=timeout)

    def remove(self, edges: Iterable[tuple[int, int]],
               timeout: float | None = None) -> RemovalResult:
        """Blocking convenience over :meth:`submit_remove`."""
        return self.submit_remove(edges, timeout=timeout).result(timeout)

    # ------------------------------------------------------------------
    # Workers
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            job = self._queue.get()
            try:
                if job is _SHUTDOWN:
                    return
                kind, payload, future, submitted = job
                dequeued = time.perf_counter()
                if not future.set_running_or_notify_cancel():
                    continue
                try:
                    if kind == "top_k":
                        result = self._handle_top_k(*payload)
                    elif kind == "remove":
                        result = self._handle_remove(payload)
                    else:
                        result = self._handle_ingest(payload)
                except BaseException as exc:  # surfaces via Future.result()
                    future.set_exception(exc)
                else:
                    future.set_result(result)
                finished = time.perf_counter()
                stage = ("query" if kind == "top_k" else "ingest")
                with self._counters_lock:
                    recorder = self._stage_recorders[stage]
                    recorder.record(dequeued - submitted, finished - dequeued)
                    recorder.sample_depth(self._queue.qsize())
            finally:
                self._queue.task_done()

    def _handle_top_k(self, vertex: int, k: int | None) -> TopKResult:
        with self._lock.read():
            index = self._index
            cached = self._result_cache.get(vertex)
            if cached is None:
                predicted = index.predictions(vertex)  # raises for bad vertex
                scores = index.prediction_scores(vertex)
                result = TopKResult(vertex=vertex, predicted=predicted,
                                    scores=scores, from_cache=False)
                with self._counters_lock:
                    self._cache_misses += 1
                    self._result_cache[vertex] = result
            else:
                result = TopKResult(vertex=vertex,
                                    predicted=list(cached.predicted),
                                    scores=list(cached.scores),
                                    from_cache=True)
                with self._counters_lock:
                    self._cache_hits += 1
        if k is not None and k < len(result.predicted):
            result = TopKResult(vertex=vertex,
                                predicted=result.predicted[:k],
                                scores=result.scores[:k],
                                from_cache=result.from_cache)
        with self._counters_lock:
            self._requests_served += 1
        return result

    def _handle_ingest(self, edges: list[tuple[int, int]]) -> IngestResult:
        with self._lock.write():
            update = self._index.apply_edges(edges)
            compacted = False
            cadence = self._serving.compact_every
            if (cadence is not None
                    and self._index.graph.num_delta_edges >= cadence):
                self._index.compact()
                compacted = True
            for u in update.rescored.tolist():
                self._result_cache.pop(u, None)
        with self._counters_lock:
            self._edges_ingested += len(update.added)
            self._compactions += int(compacted)
        return IngestResult(requested=len(edges), added=update.added,
                            rescored=update.num_rescored,
                            compacted=compacted)

    def _handle_remove(self, edges: list[tuple[int, int]]) -> RemovalResult:
        with self._lock.write():
            update = self._index.apply_removals(edges)
            for u in update.rescored.tolist():
                self._result_cache.pop(u, None)
        return RemovalResult(requested=len(edges), removed=update.removed,
                             rescored=update.num_rescored)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stage_stats(self) -> dict[str, dict]:
        """Per-stage queue/service-time snapshots (see
        :mod:`repro.serving.stages`)."""
        with self._counters_lock:
            return {name: recorder.snapshot()
                    for name, recorder in self._stage_recorders.items()}

    def reset_stage_stats(self) -> None:
        """Restart stage sampling (the load generator's warmup boundary)."""
        with self._counters_lock:
            for recorder in self._stage_recorders.values():
                recorder.reset()

    def stats(self) -> ServiceStats:
        """Consistent counter snapshot (takes the read side of the lock)."""
        with self._lock.read():
            index = self._index
            pair_cache = index.pair_cache if index is not None else None
            with self._counters_lock:
                return ServiceStats(
                    requests_served=self._requests_served,
                    edges_ingested=self._edges_ingested,
                    dirty_vertices_rescored=(
                        index.rescored_total if index is not None else 0
                    ),
                    cache_hits=self._cache_hits,
                    cache_misses=self._cache_misses,
                    pair_cache_hits=(pair_cache.hits if pair_cache else 0),
                    pair_cache_misses=(
                        pair_cache.misses if pair_cache else 0
                    ),
                    compactions=self._compactions,
                    delta_edges=(
                        index.graph.num_delta_edges
                        if index is not None else 0
                    ),
                    queue_depth=self._queue.qsize(),
                    workers=self._serving.workers,
                )

    def report(self) -> RunReport:
        """The service's accounting as a standard :class:`RunReport`.

        ``extra`` carries the serving counters (``requests_served``,
        ``edges_ingested``, ``dirty_vertices_rescored``,
        ``cache_hits``/``cache_misses``, ``pair_cache_hits``/``misses``,
        ``compactions``, ``delta_edges``); ``workers`` is the service's
        worker-thread count and ``wall_clock_seconds`` its uptime.
        """
        if self._index is None:
            raise ServingError("service not started; no report available")
        stats = self.stats()
        uptime = (time.perf_counter() - self._started_at
                  if self._started_at is not None else 0.0)
        with self._lock.read():
            predictions = self._index.all_predictions()
            scores = self._index.scores_view()
        return RunReport(
            backend="serving",
            predictions=predictions,
            scores=scores,
            wall_clock_seconds=uptime,
            workers=stats.workers,
            extra={
                "requests_served": float(stats.requests_served),
                "edges_ingested": float(stats.edges_ingested),
                "dirty_vertices_rescored": float(
                    stats.dirty_vertices_rescored
                ),
                "cache_hits": float(stats.cache_hits),
                "cache_misses": float(stats.cache_misses),
                "pair_cache_hits": float(stats.pair_cache_hits),
                "pair_cache_misses": float(stats.pair_cache_misses),
                "compactions": float(stats.compactions),
                "delta_edges": float(stats.delta_edges),
                "queue_bound": float(self._serving.queue_bound),
            },
        )
