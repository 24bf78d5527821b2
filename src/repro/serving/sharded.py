"""Sharded multi-process serving plane: shard workers behind a dispatcher.

:class:`~repro.serving.service.PredictorService` runs worker *threads*: the
GIL serializes every rescoring kernel call and one writer-preferring lock
guards one :class:`~repro.serving.index.IncrementalIndex`.  This module is
the front-end-dispatcher / shared-nothing-back-end shape of the middleware
literature instead: ``N`` shard **processes**, each owning the predictions of
the vertices :func:`~repro.runtime.partition.partition_vertices` assigns to
it, behind a dispatcher that routes queries to owners and fans updates out.

How sharding preserves bit-exact parity
---------------------------------------
Phase 3b of the SNAPLE kernel (ranked scores of a target ``t``) reads the
Γ̂/kept rows of ``t``'s *neighbors*, which may be owned by other shards — so
the phase-1/2 planes cannot be partitioned.  Every shard therefore holds the
full :class:`~repro.serving.delta.GraphDelta` and refreshes Γ̂ and the kept
similarities for the complete dirty sets of every update (which is why
updates fan out to **all** shards: skipping one would leave stale Γ̂/kept
rows that a later overlapping closure would silently read).  Only phase 3b —
the expensive ranked-score refresh — is restricted, through the index's
``target_filter``, to the shard's owned slice of the 2-reverse-hop dirty
closure; shards outside the closure rescore nothing.  Per-vertex RNG makes
each target's phase-3b computation independent, so a shard's rows for its
owned vertices are bit-identical to an unsharded index's — and the owned
slices are disjoint and covering, so the sharded service answers exactly
like the single-process service and a cold batch ``predict`` for any shard
count.

Transport and batching
----------------------
The base CSR graph crosses the process boundary once, as a handle on the
segment plane :func:`repro.runtime.ooc.segment_plane` picks — a
shared-memory segment, or an on-disk container where there is no shared
memory — and shards hold zero-copy read-only views of it.  Requests flow
through per-shard bounded queues; the dispatcher coalesces consecutive
``top_k`` submissions into one batch message per shard, amortizing queue
IPC, and flushes pending batches before any update fan-out so every shard
observes the submission order (FIFO per shard queue ⇒ read-your-writes).
An update's future resolves only after *all* shards acknowledged it.

Every pipeline stage — dispatch queue, shard queue, rescore, reply — records
queue-length and wait/service samples (:mod:`repro.serving.stages`), which
:class:`~repro.serving.loadgen.LoadGenerator` turns into a per-stage
operational-law bottleneck table.

Crash and leak safety: the parent owns the plane's registry, so ``close()``
unlinks the graph segment (or removes the spool directory) even after a
SIGKILLed shard; the collector detects dead shards and fails every pending
future with :class:`~repro.errors.ServingError` instead of hanging.
"""

from __future__ import annotations

import queue as queue_module
import threading
import time
from collections.abc import Iterable
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.errors import (
    ConfigurationError,
    GraphError,
    ServingError,
    VertexNotFoundError,
)
from repro.graph.digraph import DiGraph
from repro.runtime.ooc import MemmapGraphHandle, segment_plane
from repro.runtime.parallel import pool_context
from repro.runtime.shm import ShmGraphHandle, ShmRegistry
from repro.runtime.partition import partition_vertices
from repro.serving.index import IncrementalIndex
from repro.serving.service import (
    IngestResult,
    RemovalResult,
    ServingConfig,
    TopKResult,
)
from repro.serving.stages import StageRecorder, merge_snapshots
from repro.snaple.config import SnapleConfig

__all__ = ["ShardMap", "ShardedPredictorService", "ShardedServiceStats"]

#: Dispatcher-loop sentinel (never crosses the process boundary).
_STOP = object()

#: How long the collector sleeps on an empty response queue before checking
#: shard health; bounds crash-detection latency.
_POLL_SECONDS = 0.2

#: Default cap on coalesced top-k requests per dispatch flush.
_DEFAULT_BATCH_MAX = 64


@dataclass(frozen=True, eq=False)
class ShardMap:
    """Vertex → shard assignment, consistent for vertices that don't exist yet.

    The base range uses the precomputed
    :func:`~repro.runtime.partition.partition_vertices` assignment; vertices
    grown by streamed edges fall back to the same multiplicative hash the
    default :class:`~repro.runtime.partition.HashVertexPartitioner` applies,
    so the dispatcher and every shard agree on ownership without any
    coordination as the graph grows.
    """

    num_shards: int
    seed: int
    base_assignment: np.ndarray

    def owners(self, vertices: np.ndarray) -> np.ndarray:
        vertices = np.asarray(vertices, dtype=np.int64)
        out = np.empty(vertices.shape, dtype=np.int64)
        base = self.base_assignment
        within = vertices < base.size
        out[within] = base[vertices[within]]
        if not within.all():
            ids = vertices[~within]
            mixed = ((ids * np.int64(2654435761) + np.int64(self.seed))
                     & np.int64(0x7FFFFFFF))
            out[~within] = mixed % self.num_shards
        return out

    def owner(self, vertex: int) -> int:
        return int(self.owners(np.asarray([vertex], dtype=np.int64))[0])

    def target_filter(self, shard_id: int):
        """The :class:`IncrementalIndex` ``target_filter`` for one shard."""
        def owned_only(targets: np.ndarray) -> np.ndarray:
            targets = np.asarray(targets, dtype=np.int64)
            return targets[self.owners(targets) == shard_id]
        return owned_only


@dataclass(frozen=True)
class ShardedServiceStats:
    """Dispatcher-side counter snapshot of a sharded service."""

    requests_served: int
    edges_ingested: int
    edges_removed: int
    updates_applied: int
    batches_dispatched: int
    mean_batch_size: float
    compactions: int
    shards: int
    queue_depth: int
    pending: int


def _describe(exc: BaseException) -> str:
    """Exceptions cross the process boundary as strings — some repo
    exception types take multiple constructor arguments and would break
    pickling mid-flight."""
    return f"{type(exc).__name__}: {exc}"


def _shard_main(shard_id: int,
                graph_handle: ShmGraphHandle | MemmapGraphHandle,
                config: SnapleConfig, shard_map: ShardMap,
                compact_every: int | None,
                request_queue, response_queue) -> None:
    """One shard process: cold-build, then serve its request queue forever.

    All timestamps use ``time.perf_counter`` — ``CLOCK_MONOTONIC`` on Linux,
    comparable across processes — so cross-process queue waits are real.
    """
    try:
        graph = graph_handle.attach()
        index = IncrementalIndex(graph, config,
                                 target_filter=shard_map.target_filter(shard_id))
        query_stage = StageRecorder("shard_queue")
        rescore_stage = StageRecorder("rescore")
        response_queue.put(("ready", shard_id))
        while True:
            message = request_queue.get()
            received = time.perf_counter()
            kind = message[0]
            if kind == "stop":
                response_queue.put(("stopped", shard_id))
                return
            if kind == "batch":
                _, entries, send_ts = message
                try:
                    query_stage.sample_depth(request_queue.qsize())
                except NotImplementedError:  # pragma: no cover - macOS
                    pass
                results = []
                for req_id, vertex, k in entries:
                    try:
                        predicted = index.predictions(vertex)
                        scores = index.prediction_scores(vertex)
                        if k is not None and k < len(predicted):
                            predicted = predicted[:k]
                            scores = scores[:k]
                        results.append((req_id, "ok",
                                        (vertex, predicted, scores)))
                    except BaseException as exc:
                        results.append((req_id, "err", _describe(exc)))
                done = time.perf_counter()
                each = (done - received) / max(len(entries), 1)
                for _ in entries:
                    query_stage.record(received - send_ts, each)
                response_queue.put(("results", shard_id, results, done))
            elif kind in ("ingest", "remove"):
                _, update_id, edges, send_ts = message
                try:
                    if kind == "ingest":
                        update = index.apply_edges(edges)
                        compacted = False
                        if (compact_every is not None
                                and index.graph.num_delta_edges
                                >= compact_every):
                            index.compact()
                            compacted = True
                        payload: Any = {"added": update.added,
                                        "rescored": update.num_rescored,
                                        "compacted": compacted}
                    else:
                        update = index.apply_removals(edges)
                        payload = {"removed": update.removed,
                                   "rescored": update.num_rescored,
                                   "compacted": False}
                    status = "ok"
                except BaseException as exc:
                    status, payload = "err", _describe(exc)
                done = time.perf_counter()
                rescore_stage.record(received - send_ts, done - received)
                response_queue.put(("update_ack", shard_id, update_id,
                                    status, payload))
            elif kind == "control":
                _, token, command = message
                if command == "stats":
                    payload = {
                        "shard_queue": query_stage.snapshot(),
                        "rescore": rescore_stage.snapshot(),
                        "rescored_total": index.rescored_total,
                        "delta_edges": index.graph.num_delta_edges,
                        "num_vertices": index.num_vertices,
                    }
                else:  # reset_stages
                    query_stage.reset()
                    rescore_stage.reset()
                    payload = True
                response_queue.put(("control_ack", shard_id, token, payload))
    except BaseException as exc:  # pragma: no cover - crash path
        try:
            response_queue.put(("crashed", shard_id, _describe(exc)))
        except Exception:
            pass
        raise


class _Pending:
    """One in-flight request: its future plus bookkeeping for fan-outs."""

    __slots__ = ("future", "kind", "requested", "acks", "payloads", "error")

    def __init__(self, future: Future, kind: str, requested: int = 0) -> None:
        self.future = future
        self.kind = kind
        self.requested = requested
        self.acks = 0
        self.payloads: dict[int, Any] = {}
        self.error: str | None = None


class ShardedPredictorService:
    """Serves ``top_k`` over ``N`` shard processes behind one dispatcher.

    API mirrors :class:`~repro.serving.service.PredictorService` (``start``/
    ``stop``, ``submit_top_k``/``top_k``, ``submit_ingest``/``ingest``,
    ``submit_remove``/``remove``, context manager); answers are bit-identical
    to it — and to a cold batch ``predict`` on the merged graph — for any
    shard count, including across compaction boundaries.
    """

    def __init__(self, graph: DiGraph, config: SnapleConfig | None = None,
                 *, shards: int = 2, serving: ServingConfig | None = None,
                 partition_seed: int = 0,
                 batch_max: int = _DEFAULT_BATCH_MAX) -> None:
        if shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {shards}")
        if batch_max < 1:
            raise ConfigurationError(
                f"batch_max must be >= 1, got {batch_max}"
            )
        self._graph = graph
        self._config = config or SnapleConfig.paper_default()
        self._serving = serving or ServingConfig()
        self._num_shards = int(shards)
        self._batch_max = int(batch_max)
        self._partition_seed = int(partition_seed)
        partition = partition_vertices(graph, self._num_shards,
                                       seed=self._partition_seed)
        self._shard_map = ShardMap(num_shards=self._num_shards,
                                   seed=self._partition_seed,
                                   base_assignment=partition.vertex_machine)
        self._submit_queue: queue_module.Queue = queue_module.Queue(
            maxsize=self._serving.queue_bound
        )
        self._lock = threading.Lock()
        self._pending: dict[int, _Pending] = {}
        self._next_id = 0
        self._num_vertices = graph.num_vertices
        self._requests_served = 0
        self._edges_ingested = 0
        self._edges_removed = 0
        self._updates_applied = 0
        self._batches_dispatched = 0
        self._batched_requests = 0
        self._compactions = 0
        self._stage_dispatch = StageRecorder("dispatch")
        self._stage_reply = StageRecorder("reply")
        self._registry: ShmRegistry | None = None
        self._processes: list = []
        self._request_queues: list = []
        self._response_queue = None
        self._dispatcher: threading.Thread | None = None
        self._collector: threading.Thread | None = None
        self._ready = threading.Event()
        self._ready_count = 0
        self._stopped_count = 0
        self._collector_stop = threading.Event()
        self._started = False
        self._closed = False
        self._failed: str | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return self._num_shards

    @property
    def num_vertices(self) -> int:
        return self._num_vertices

    @property
    def config(self) -> SnapleConfig:
        return self._config

    @property
    def serving_config(self) -> ServingConfig:
        return self._serving

    @property
    def shard_map(self) -> ShardMap:
        return self._shard_map

    def start(self, *, ready_timeout: float = 300.0
              ) -> "ShardedPredictorService":
        """Host the graph, spawn the shards, wait for every cold build."""
        if self._started:
            raise ServingError("service already started")
        self._started = True
        try:
            self._registry = segment_plane()()
            graph_handle = self._registry.host_graph(self._graph)
            ctx = pool_context()
            self._response_queue = ctx.Queue()
            for shard_id in range(self._num_shards):
                request_queue = ctx.Queue(maxsize=self._serving.queue_bound)
                process = ctx.Process(
                    target=_shard_main,
                    args=(shard_id, graph_handle, self._config,
                          self._shard_map, self._serving.compact_every,
                          request_queue, self._response_queue),
                    name=f"snaple-shard-{shard_id}",
                    daemon=True,
                )
                process.start()
                self._request_queues.append(request_queue)
                self._processes.append(process)
            self._collector = threading.Thread(
                target=self._collect_loop, name="snaple-shard-collector",
                daemon=True,
            )
            self._collector.start()
            self._dispatcher = threading.Thread(
                target=self._dispatch_loop, name="snaple-shard-dispatcher",
                daemon=True,
            )
            self._dispatcher.start()
            deadline = time.perf_counter() + ready_timeout
            while not self._ready.wait(timeout=_POLL_SECONDS):
                dead = [p.name for p in self._processes
                        if p.exitcode is not None]
                if dead:
                    raise ServingError(
                        f"shard(s) died during cold build: {dead}"
                    )
                if time.perf_counter() > deadline:
                    raise ServingError(
                        f"shards not ready after {ready_timeout}s"
                    )
        except BaseException:
            self.close()
            raise
        return self

    def close(self) -> None:
        """Stop shards, join helpers, fail stragglers, release the graph
        plane (idempotent; runs fully even after a shard crash)."""
        if self._closed:
            return
        self._closed = True
        try:
            if self._dispatcher is not None:
                while self._dispatcher.is_alive():
                    try:
                        self._submit_queue.put(_STOP, timeout=1.0)
                        break
                    except queue_module.Full:
                        continue
                self._dispatcher.join(timeout=30.0)
            for process in self._processes:
                process.join(timeout=10.0)
            for process in self._processes:
                if process.exitcode is None:
                    process.terminate()
                    process.join(timeout=5.0)
                if process.exitcode is None:  # pragma: no cover - stuck
                    process.kill()
                    process.join(timeout=5.0)
            self._collector_stop.set()
            if self._collector is not None:
                self._collector.join(timeout=30.0)
            self._fail_pending(ServingError("service closed"))
            for q in self._request_queues:
                q.close()
                q.cancel_join_thread()
            if self._response_queue is not None:
                self._response_queue.close()
                self._response_queue.cancel_join_thread()
        finally:
            if self._registry is not None:
                self._registry.close()
                self._registry = None

    # PredictorService API compatibility.
    stop = close

    def __enter__(self) -> "ShardedPredictorService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def _new_pending(self, kind: str, requested: int = 0
                     ) -> tuple[int, Future]:
        future: Future = Future()
        with self._lock:
            self._next_id += 1
            request_id = self._next_id
            self._pending[request_id] = _Pending(future, kind, requested)
        return request_id, future

    def _enqueue(self, item: tuple, timeout: float | None) -> None:
        try:
            self._submit_queue.put(item, timeout=timeout)
        except queue_module.Full:
            request_id = item[1]
            with self._lock:
                self._pending.pop(request_id, None)
            raise ServingError(
                f"dispatch queue full (bound {self._serving.queue_bound}); "
                f"submission timed out after {timeout}s"
            ) from None

    def _check_serving(self) -> None:
        if not self._started:
            raise ServingError(
                "service not started; call start() or use it as a "
                "context manager"
            )
        if self._closed:
            raise ServingError("service already stopped")
        if self._failed is not None:
            raise ServingError(f"service failed: {self._failed}")

    def submit_top_k(self, vertex: int, k: int | None = None, *,
                     timeout: float | None = None) -> Future:
        """Enqueue a top-k query; resolves to a :class:`TopKResult`."""
        self._check_serving()
        vertex = int(vertex)
        request_id, future = self._new_pending("top_k")
        if not 0 <= vertex < self._num_vertices:
            # Validated dispatcher-side: the error type is not picklable and
            # the owning shard is undefined for an out-of-range vertex.
            with self._lock:
                self._pending.pop(request_id, None)
            future.set_exception(
                VertexNotFoundError(vertex, self._num_vertices)
            )
            return future
        self._enqueue(("top_k", request_id, vertex, k,
                       time.perf_counter()), timeout)
        return future

    def _submit_update(self, kind: str, edges: Iterable[tuple[int, int]],
                       timeout: float | None) -> Future:
        self._check_serving()
        edge_list = [(int(u), int(v)) for u, v in edges]
        update_id, future = self._new_pending(kind, requested=len(edge_list))
        bad = next(((u, v) for u, v in edge_list if u < 0 or v < 0), None)
        if bad is not None:
            with self._lock:
                self._pending.pop(update_id, None)
            future.set_exception(GraphError(
                f"edge endpoints must be non-negative, got {bad}"
            ))
            return future
        if kind == "ingest" and edge_list:
            grown = max(max(u, v) for u, v in edge_list) + 1
            with self._lock:
                # Safe pre-dispatch: the submit queue is FIFO, so any query
                # for a grown vertex submitted after this call reaches its
                # owner shard behind the ingest that created the vertex.
                self._num_vertices = max(self._num_vertices, grown)
        self._enqueue((kind, update_id, edge_list, time.perf_counter()),
                      timeout)
        return future

    def submit_ingest(self, edges: Iterable[tuple[int, int]], *,
                      timeout: float | None = None) -> Future:
        """Enqueue an edge-batch ingest; resolves to an
        :class:`IngestResult` once **every** shard acknowledged."""
        return self._submit_update("ingest", edges, timeout)

    def submit_remove(self, edges: Iterable[tuple[int, int]], *,
                      timeout: float | None = None) -> Future:
        """Enqueue an edge-batch removal; resolves to a
        :class:`RemovalResult` once every shard acknowledged."""
        return self._submit_update("remove", edges, timeout)

    def top_k(self, vertex: int, k: int | None = None,
              timeout: float | None = None) -> TopKResult:
        return self.submit_top_k(vertex, k).result(timeout)

    def ingest(self, edges: Iterable[tuple[int, int]],
               timeout: float | None = None) -> IngestResult:
        return self.submit_ingest(edges).result(timeout)

    def ingest_edge(self, u: int, v: int,
                    timeout: float | None = None) -> IngestResult:
        return self.ingest([(u, v)], timeout=timeout)

    def remove(self, edges: Iterable[tuple[int, int]],
               timeout: float | None = None) -> RemovalResult:
        return self.submit_remove(edges).result(timeout)

    # ------------------------------------------------------------------
    # Dispatcher thread
    # ------------------------------------------------------------------
    def _put_to_shard(self, shard_id: int, message: tuple) -> bool:
        """Bounded put that never deadlocks on a dead shard."""
        process = self._processes[shard_id]
        request_queue = self._request_queues[shard_id]
        while True:
            try:
                request_queue.put(message, timeout=0.5)
                return True
            except queue_module.Full:
                if process.exitcode is not None:
                    self._mark_failed(
                        f"shard {shard_id} died with its queue full"
                    )
                    return False

    def _broadcast(self, message: tuple) -> None:
        for shard_id in range(self._num_shards):
            self._put_to_shard(shard_id, message)

    def _flush_batches(self, batches: dict[int, list]) -> int:
        flushed = 0
        send_ts = time.perf_counter()
        for shard_id, entries in batches.items():
            if not entries:
                continue
            message = ("batch",
                       [(req_id, vertex, k)
                        for req_id, vertex, k, _, _ in entries],
                       send_ts)
            self._put_to_shard(shard_id, message)
            with self._lock:
                for _, _, _, submitted, dequeued in entries:
                    self._stage_dispatch.record(dequeued - submitted,
                                                send_ts - dequeued)
                self._batches_dispatched += 1
                self._batched_requests += len(entries)
            flushed += len(entries)
            entries.clear()
        return flushed

    def _dispatch_loop(self) -> None:
        batches: dict[int, list] = {
            shard_id: [] for shard_id in range(self._num_shards)
        }
        batched = 0
        item = self._submit_queue.get()
        while True:
            dequeued = time.perf_counter()
            if item is _STOP:
                self._flush_batches(batches)
                self._broadcast(("stop",))
                return
            with self._lock:
                self._stage_dispatch.sample_depth(self._submit_queue.qsize())
            kind = item[0]
            if kind == "top_k":
                _, request_id, vertex, k, submitted = item
                owner = self._shard_map.owner(vertex)
                batches[owner].append((request_id, vertex, k, submitted,
                                       dequeued))
                batched += 1
                if batched >= self._batch_max:
                    self._flush_batches(batches)
                    batched = 0
            else:
                # Updates and control messages are ordering barriers: flush
                # queued queries first so every shard sees submission order.
                self._flush_batches(batches)
                batched = 0
                send_ts = time.perf_counter()
                if kind in ("ingest", "remove"):
                    _, update_id, edge_list, submitted = item
                    with self._lock:
                        self._stage_dispatch.record(dequeued - submitted,
                                                    send_ts - dequeued)
                    self._broadcast((kind, update_id, edge_list, send_ts))
                else:  # control
                    _, token, command, _submitted = item
                    self._broadcast(("control", token, command))
            if batched:
                try:
                    item = self._submit_queue.get_nowait()
                    continue
                except queue_module.Empty:
                    self._flush_batches(batches)
                    batched = 0
            item = self._submit_queue.get()

    # ------------------------------------------------------------------
    # Collector thread
    # ------------------------------------------------------------------
    def _pop_pending(self, request_id: int) -> _Pending | None:
        with self._lock:
            return self._pending.pop(request_id, None)

    def _mark_failed(self, reason: str) -> None:
        with self._lock:
            if self._failed is None:
                self._failed = reason
        self._fail_pending(ServingError(reason))

    def _fail_pending(self, error: ServingError) -> None:
        with self._lock:
            pending = list(self._pending.values())
            self._pending.clear()
        for entry in pending:
            if not entry.future.done():
                entry.future.set_exception(error)

    def _check_shard_health(self) -> None:
        if self._collector_stop.is_set():
            return
        dead = [process.name for process in self._processes
                if process.exitcode is not None]
        if dead:
            with self._lock:
                has_pending = bool(self._pending)
            if has_pending or not self._ready.is_set():
                self._mark_failed(f"shard process(es) died: {dead}")

    def _resolve_update(self, entry: _Pending) -> None:
        if entry.error is not None:
            entry.future.set_exception(ServingError(entry.error))
            return
        payloads = entry.payloads
        rescored = sum(p["rescored"] for p in payloads.values())
        compacted = any(p["compacted"] for p in payloads.values())
        first = payloads[min(payloads)]
        with self._lock:
            self._updates_applied += 1
            self._compactions += int(compacted)
        if entry.kind == "ingest":
            added = first["added"]
            with self._lock:
                self._edges_ingested += len(added)
            entry.future.set_result(IngestResult(
                requested=entry.requested, added=added,
                rescored=rescored, compacted=compacted,
            ))
        else:
            removed = first["removed"]
            with self._lock:
                self._edges_removed += len(removed)
            entry.future.set_result(RemovalResult(
                requested=entry.requested, removed=removed,
                rescored=rescored,
            ))

    def _collect_loop(self) -> None:
        while True:
            try:
                message = self._response_queue.get(timeout=_POLL_SECONDS)
            except queue_module.Empty:
                if self._collector_stop.is_set():
                    return
                self._check_shard_health()
                continue
            except (OSError, ValueError, EOFError):
                # Queue torn down under us during close().
                return
            received = time.perf_counter()
            kind = message[0]
            if kind == "results":
                _, _shard_id, results, send_ts = message
                for request_id, status, payload in results:
                    entry = self._pop_pending(request_id)
                    if entry is None:
                        continue
                    if status == "ok":
                        vertex, predicted, scores = payload
                        entry.future.set_result(TopKResult(
                            vertex=vertex, predicted=predicted,
                            scores=scores, from_cache=False,
                        ))
                    else:
                        entry.future.set_exception(ServingError(payload))
                done = time.perf_counter()
                each = (done - received) / max(len(results), 1)
                with self._lock:
                    self._requests_served += len(results)
                    for _ in results:
                        self._stage_reply.record(received - send_ts, each)
            elif kind == "update_ack":
                _, shard_id, update_id, status, payload = message
                with self._lock:
                    entry = self._pending.get(update_id)
                    if entry is None:
                        continue
                    entry.acks += 1
                    if status == "ok":
                        entry.payloads[shard_id] = payload
                    else:
                        entry.error = payload
                    complete = entry.acks >= self._num_shards
                    if complete:
                        self._pending.pop(update_id, None)
                if complete:
                    self._resolve_update(entry)
            elif kind == "control_ack":
                _, shard_id, token, payload = message
                with self._lock:
                    entry = self._pending.get(token)
                    if entry is None:
                        continue
                    entry.acks += 1
                    entry.payloads[shard_id] = payload
                    complete = entry.acks >= self._num_shards
                    if complete:
                        self._pending.pop(token, None)
                if complete:
                    entry.future.set_result(dict(entry.payloads))
            elif kind == "ready":
                self._ready_count += 1
                if self._ready_count >= self._num_shards:
                    self._ready.set()
            elif kind == "stopped":
                self._stopped_count += 1
            elif kind == "crashed":
                _, shard_id, description = message
                self._mark_failed(f"shard {shard_id} crashed: {description}")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _control(self, command: str, timeout: float = 60.0) -> dict:
        """Round-trip a control command through every shard (FIFO-ordered
        with the request stream)."""
        self._check_serving()
        token, future = self._new_pending("control")
        self._enqueue(("control", token, command, time.perf_counter()),
                      timeout)
        return future.result(timeout)

    def stage_stats(self) -> dict[str, dict]:
        """Merged per-stage snapshots: dispatch → shard queue → rescore →
        reply (shard stages fold per-process recorders, so ``servers`` is
        the shard count)."""
        per_shard = self._control("stats")
        with self._lock:
            stages = {
                "dispatch": self._stage_dispatch.snapshot(),
                "reply": self._stage_reply.snapshot(),
            }
        for stage_name in ("shard_queue", "rescore"):
            stages[stage_name] = merge_snapshots(
                [per_shard[shard_id][stage_name] for shard_id in per_shard]
            )
        return stages

    def reset_stage_stats(self) -> None:
        """Restart stage sampling everywhere (load-run boundary)."""
        self._control("reset_stages")
        with self._lock:
            self._stage_dispatch.reset()
            self._stage_reply.reset()

    def stats(self) -> ShardedServiceStats:
        with self._lock:
            batches = self._batches_dispatched
            return ShardedServiceStats(
                requests_served=self._requests_served,
                edges_ingested=self._edges_ingested,
                edges_removed=self._edges_removed,
                updates_applied=self._updates_applied,
                batches_dispatched=batches,
                mean_batch_size=(self._batched_requests / batches
                                 if batches else 0.0),
                compactions=self._compactions,
                shards=self._num_shards,
                queue_depth=self._submit_queue.qsize(),
                pending=len(self._pending),
            )
