"""Shared-nothing parallel execution of SNAPLE across graph partitions.

The simulated GAS engine only *models* distribution in one Python process.
This module makes the partitions real: the graph is split into ``workers``
partitions, each partition is mapped to a worker process of a process pool,
and the coordinator exchanges gather state between Algorithm 2's three GAS
steps, merging the per-partition vertex state and accounting back into one
:class:`~repro.runtime.report.RunReport`.  It is the execution path of
``backend="gas", workers=N``.

Execution model
---------------
Workers are stateless between supersteps: for every superstep the
coordinator ships each partition the snapshot slice it needs (its own
vertices plus the boundary vertices its gathers read), the worker runs the
step over its owned vertices, and the coordinator merges the returned
updates.  This gives *superstep-snapshot* semantics: a vertex program must
not read vertex-data fields written during the same superstep.  SNAPLE's
Algorithm 2 satisfies this by construction (each step only reads keys
written by earlier steps), which is why serial and parallel runs produce
identical predictions.

Graph and state live on one segment plane per run — POSIX shared memory,
or spool files where there is none (:func:`repro.runtime.ooc.segment_plane`
chooses).  Vertex state is a coordinator-side
:class:`~repro.runtime.state.StateStore` whose columns are segments; a task
receives only descriptors: a :class:`~repro.runtime.shm.ShmSliceHandle`
(column handles plus the rows it reads) per state field group.  Workers
gather those rows out of the mapped segments and return their updates as
flat arrays.  There is one coordinator loop; a scoring configuration
outside the vectorized kernel runs the scalar step programs inside the same
worker task, over the same columns.

Fault tolerance
---------------
Worker failure is treated as the common case, not the exception.  A superstep
is *atomic*: the coordinator merges a superstep's results only after every
partition's task returned, so a worker dying mid-superstep can never leave
half-merged state behind.  When a worker process dies (detected
immediately through the broken pool) or exceeds ``worker_timeout`` seconds
(treated as hung; the stragglers are killed), the coordinator discards the
pool, spawns a fresh one and replays the run from superstep 0.  Up to
``max_restarts`` recoveries are attempted before a
:class:`~repro.errors.WorkerCrashError` propagates.  Because every random
draw comes from a per-vertex ``(seed, step, vertex)`` stream, a replay
repeats *exactly* the draws of the lost run: recovered runs are
bit-identical to uninterrupted runs, predictions and deterministic
accounting counters alike.

Nothing is persisted between supersteps.  A run is three short,
deterministic supersteps, so restoring a saved superstep boundary could
spare at most two of them, and a recovered run's cost is dominated by
spawning the fresh pool either way (the README's fault-tolerance section
has the measurement).

Determinism
-----------
Results are bit-identical for any worker count and any partitioner because

* every vertex draws randomness from its own stream derived from
  ``(seed, step, vertex)`` (see :func:`repro.snaple.program.vertex_rng`),
  never from a shared sequential stream;
* gathers combine in edge (CSR) order per vertex, exactly as the serial
  engine does on a single simulated machine.

Ownership comes from the partitioner the simulated GAS engine uses:
:func:`repro.runtime.partition.partition_graph` masters every vertex (a
vertex-cut ``GraphPartition``; each partition's masters go to one worker
process).  A locality aware partitioner (e.g.
:class:`~repro.runtime.partition.GreedyVertexCut`) therefore reduces the
boundary state shipped between supersteps.

Worker processes use an explicit ``forkserver`` start method (``spawn``
where forkserver is unavailable), never plain ``fork``: forking a threaded
parent (pytest plugins, coverage, profilers) can deadlock the child, which
used to make interrupted test runs leak hung workers.  Pool teardown always
runs — broken, hung or healthy — through a kill-then-shutdown path.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import threading
import time
from collections import defaultdict
from collections.abc import Mapping
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.errors import ConfigurationError, EngineError, WorkerCrashError
from repro.gas.vertex_program import EdgeDirection, VertexProgram
from repro.graph.digraph import DiGraph
from repro.runtime.ooc import MemmapGraphHandle, segment_plane
from repro.runtime.partition import partition_graph
from repro.runtime.shm import (
    ShmColumnAllocator,
    ShmGraphHandle,
    ShmRegistry,
    ShmSliceHandle,
    attachment_cache,
    state_slice_handle,
)
from repro.runtime.state import StateStore, gather_slices
from repro.snaple.config import SnapleConfig

__all__ = [
    "FaultSpec",
    "PartitionReport",
    "ParallelRunOutcome",
    "ParallelExecutor",
    "WorkerPoolLease",
    "run_parallel_gas",
    "validate_workers",
]

#: Upper bound on worker processes; far above any sensible laptop value but
#: low enough that a typo (``workers=400``) fails fast instead of forking
#: hundreds of interpreters.
MAX_WORKERS = 64

#: Default number of pool respawn + replay attempts after a worker crash.
DEFAULT_MAX_RESTARTS = 2

#: Algorithm 2's GAS steps: sample, similarity, recommendation.
_NUM_STEPS = 3


def validate_workers(workers: Any) -> int:
    """Validate a ``workers=`` option value, returning it as an ``int``."""
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise ConfigurationError(
            f"workers must be an integer, got {workers!r}"
        )
    if not 1 <= workers <= MAX_WORKERS:
        raise ConfigurationError(
            f"workers must be between 1 and {MAX_WORKERS}, got {workers}"
        )
    return workers


# ----------------------------------------------------------------------
# Fault injection (test harness)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultSpec:
    """Deterministic one-shot crash injection for worker processes.

    The worker executing ``partition``'s task at ``superstep`` hard-exits
    (``os._exit``) *once*: the first process to trigger atomically creates
    ``token_path`` (``O_CREAT | O_EXCL``) before dying, and every later
    attempt — including the respawned worker re-running the same task after
    recovery — sees the token and proceeds normally.  The token file makes
    "kill worker N at superstep K" reproducible across pool restarts without
    any shared in-memory state.
    """

    superstep: int
    partition: int
    token_path: str
    exit_code: int = 13


def maybe_crash(fault: FaultSpec | None, superstep: int, partition: int) -> None:
    """Crash the current process if ``fault`` targets this (step, partition)."""
    if fault is None:
        return
    if fault.superstep != superstep or fault.partition != partition:
        return
    try:
        fd = os.open(fault.token_path,
                     os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return  # already fired once; behave normally on retry
    os.write(fd, b"crashed\n")
    os.close(fd)
    os._exit(fault.exit_code)


# ----------------------------------------------------------------------
# Accounting
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PartitionReport:
    """Per-partition slice of a run's results and accounting.

    The merged :class:`~repro.runtime.report.RunReport` derives its totals
    from these records (every target vertex is owned by exactly one
    partition), so the sum of the per-partition counters always equals the
    report's totals — the accounting invariant the parity suite asserts.
    """

    partition: int
    num_vertices: int
    num_predictions: int
    num_predicted_edges: int
    gather_invocations: int
    apply_invocations: int
    compute_seconds: float
    shipped_bytes: int


@dataclass
class ParallelRunOutcome:
    """Merged result of one shared-nothing parallel run.

    ``routing_seconds`` and ``state_plane_bytes`` carry one entry per
    superstep (coordinator time spent slicing and merging state, and the
    live columnar payload after the step).

    ``worker_restarts`` counts pool respawns after worker crashes; each one
    replayed the run from superstep 0.

    ``shm_enabled`` records whether the run hosted graph + state columns in
    shared memory and ``ooc_enabled`` whether they lived in on-disk spool
    files instead (exactly one of the two is set);
    ``transport_bytes`` carries the bytes that actually crossed the process
    boundary per superstep (descriptors + row indices).  Unlike the
    deterministic ``shipped``/``exchanged`` accounting — which is
    plane-independent by design — transport bytes are a measurement of the
    wire.
    """

    predictions: dict[int, list[int]]
    scores: Any
    workers: int
    supersteps: int
    partitions: list[PartitionReport]
    wall_clock_seconds: float
    sync_overhead_seconds: float
    exchanged_bytes: int
    routing_seconds: list[float] = field(default_factory=list)
    state_plane_bytes: list[int] = field(default_factory=list)
    worker_restarts: int = 0
    shm_enabled: bool = False
    ooc_enabled: bool = False
    transport_bytes: list[int] = field(default_factory=list)

    @property
    def per_partition_seconds(self) -> list[float]:
        return [partition.compute_seconds for partition in self.partitions]


@dataclass
class _Accounting:
    """The per-run counters a parallel run accumulates.

    Everything except the timing fields is deterministic, which is what lets
    a replay after a crash reproduce the uninterrupted run's accounting
    exactly: the lost attempt's counters are discarded with it and the
    replay re-adds exactly what the uninterrupted run would have.
    """

    compute_seconds: list[float]
    gathers: list[int]
    applies: list[int]
    shipped: list[int]
    sync_overhead: float = 0.0
    routing: list[float] = field(default_factory=list)
    plane: list[int] = field(default_factory=list)

    @classmethod
    def fresh(cls, workers: int) -> "_Accounting":
        return cls([0.0] * workers, [0] * workers, [0] * workers, [0] * workers)


# ----------------------------------------------------------------------
# Worker-process side.  Everything here must be module level (picklable by
# reference) and must only touch the state installed by the initializer.
# ----------------------------------------------------------------------
_WORKER_GRAPH: DiGraph | None = None
_WORKER_CONFIG: SnapleConfig | None = None
_WORKER_FAULT: FaultSpec | None = None


def _watch_parent() -> None:
    """Hard-exit this worker the moment the coordinator process dies.

    A worker blocked on the pool's call queue never sees EOF when the
    coordinator is killed outright (every sibling worker inherited the
    queue's write end, so the pipe stays open), which used to leave orphaned
    workers — and the forkserver they keep alive — running forever after a
    ``kill -9`` of the driver.  ``parent_process().join()`` waits on the
    coordinator's death sentinel instead, which fires no matter how the
    coordinator died.
    """
    parent = multiprocessing.parent_process()
    if parent is None:  # pragma: no cover - only when run as a main process
        return
    parent.join()
    os._exit(3)


def _init_worker(graph: ShmGraphHandle | MemmapGraphHandle,
                 config: SnapleConfig,
                 fault: FaultSpec | None = None) -> None:
    """Pool initializer: install the graph, config and fault spec once.

    The graph arrives as the handle of the coordinator's graph plane — a
    shared-memory segment or an on-disk container — which the worker maps
    once as read-only views, pinned for the process lifetime.
    """
    global _WORKER_GRAPH, _WORKER_CONFIG, _WORKER_FAULT
    _WORKER_GRAPH = graph.attach()
    _WORKER_CONFIG = config
    _WORKER_FAULT = fault
    threading.Thread(target=_watch_parent, name="snaple-parent-watchdog",
                     daemon=True).start()


def _worker_state() -> tuple[DiGraph, SnapleConfig]:
    if _WORKER_GRAPH is None or _WORKER_CONFIG is None:
        raise EngineError("parallel worker used before initialization")
    return _WORKER_GRAPH, _WORKER_CONFIG


def _collect_segments(payload: Any, names: set[str]) -> None:
    if isinstance(payload, tuple):
        for part in payload:
            _collect_segments(part, names)
    elif isinstance(payload, ShmSliceHandle):
        names |= payload.segments()


def _materialize_payload(payload: Any) -> Any:
    """Resolve the descriptors in a task payload into arrays.

    A payload is ``None``, a :class:`~repro.runtime.shm.ShmSliceHandle` or a
    tuple of these; each handle becomes the
    :class:`~repro.runtime.state.StateSlice` it describes.  Before
    materializing, attachments to segments the payload no longer references
    are dropped (state columns migrate to fresh segments when they grow).
    """
    names: set[str] = set()
    _collect_segments(payload, names)
    if not names:
        return payload
    cache = attachment_cache()
    cache.retain(names)
    return _resolve_payload(payload, cache)


def _resolve_payload(payload: Any, cache) -> Any:
    if isinstance(payload, tuple):
        return tuple(_resolve_payload(part, cache) for part in payload)
    if isinstance(payload, ShmSliceHandle):
        return payload.materialize(cache)
    return payload


def _transport_nbytes(payload: Any) -> int:
    """Bytes a task payload actually ships across the process boundary.

    The row indices; the segment names are ignored, as is pickle framing.
    The per-superstep totals surface as ``transport_bytes`` in the run
    report.
    """
    if payload is None:
        return 0
    if isinstance(payload, tuple):
        return sum(_transport_nbytes(part) for part in payload)
    return payload.transport_nbytes()


def _gather_neighbors(graph: DiGraph, vertex: int,
                      direction: EdgeDirection) -> list[int]:
    """Incident neighbors in the order the serial engine gathers them."""
    if direction is EdgeDirection.OUT:
        return graph.out_neighbors(vertex).tolist()
    if direction is EdgeDirection.IN:
        return graph.in_neighbors(vertex).tolist()
    if direction is EdgeDirection.BOTH:
        return (graph.out_neighbors(vertex).tolist()
                + graph.in_neighbors(vertex).tolist())
    return []


def _run_gas_step(step: VertexProgram, graph: DiGraph, active: list[int],
                  data: Mapping[int, Mapping[str, Any]]) -> int:
    """Run one GAS superstep over ``active`` against the snapshot ``data``.

    Returns the number of gather invocations.
    """
    if step.scatter_direction is not EdgeDirection.NONE:
        raise EngineError(
            "the shared-nothing parallel executor does not support scatter "
            f"phases (step {step.name!r})"
        )
    gathers = 0
    empty: dict[str, Any] = {}
    for u in active:
        u_data = data[u]
        gathered: Any = None
        has_value = False
        for v in _gather_neighbors(graph, u, step.gather_direction):
            value = step.gather(u, v, u_data, data.get(v, empty))
            gathers += 1
            if value is None:
                continue
            if has_value:
                gathered = step.sum(gathered, value)
            else:
                gathered = value
                has_value = True
        step.apply(u, u_data, gathered if has_value else None)
    return gathers


def _slice_dicts(payload: Any) -> defaultdict[int, dict[str, Any]]:
    """Per-vertex data dicts decoded from the shipped slices.

    A field is present in a vertex's dict exactly when its row is present
    in the slice, so the step programs read what the serial engine's dicts
    would hold.
    """
    data: defaultdict[int, dict[str, Any]] = defaultdict(dict)
    for state_slice in payload if isinstance(payload, tuple) else (payload,):
        if state_slice is None:
            continue
        rows = state_slice.rows.tolist()
        for name, (counts, ids, vals, present) in state_slice.ragged.items():
            ids = ids.tolist()
            vals = None if vals is None else vals.tolist()
            position = 0
            for u, count, here in zip(rows, counts.tolist(), present.tolist()):
                end = position + count
                if here:
                    data[u][name] = (
                        ids[position:end] if vals is None
                        else dict(zip(ids[position:end], vals[position:end]))
                    )
                position = end
    return data


def _scalar_gas_step(graph: DiGraph, config: SnapleConfig, step_index: int,
                     active: np.ndarray, payload: Any) -> tuple[tuple, int]:
    """One GAS step through the scalar step program, columns in and out.

    Serves scoring configurations outside the vectorized kernel (custom
    callables).  The shipped slices decode into per-vertex dicts that the
    program reads and writes as the serial engine's; the field the step
    writes is encoded back into the same arrays the kernel branch returns,
    so the coordinator cannot tell the two apart.
    """
    from repro.snaple.program import build_snaple_steps

    data = _slice_dicts(payload)
    # Steps are rebuilt per task: with per-vertex RNG they carry no state
    # across vertices, so a fresh instance keeps workers stateless and the
    # outcome independent of which tasks land on which process.
    step = build_snaple_steps(config, graph, per_vertex_rng=True)[step_index]
    vertices = active.tolist()
    gathers = _run_gas_step(step, graph, vertices, data)
    written = [data[u][("gamma", "sims", "predicted")[step_index]]
               for u in vertices]
    counts = np.fromiter(map(len, written), dtype=np.int64,
                         count=len(written))
    ids = np.fromiter(itertools.chain.from_iterable(written), dtype=np.int64,
                      count=int(counts.sum()))
    if step_index == 0:
        return (counts, ids), gathers
    if step_index == 1:
        vals = np.fromiter(
            itertools.chain.from_iterable(row.values() for row in written),
            dtype=np.float64, count=ids.size,
        )
        return (counts, ids, vals), gathers
    maps = [step.collected_scores[u] for u in vertices]
    score_counts = np.asarray([len(scores) for scores in maps], dtype=np.int64)
    candidates = np.asarray([z for scores in maps for z in scores],
                            dtype=np.int64)
    values = np.asarray([s for scores in maps for s in scores.values()],
                        dtype=np.float64)
    return (counts, ids, score_counts, candidates, values), gathers


def _gas_step_task_columnar(task):
    """One (partition, superstep) unit of GAS work, run in a worker process.

    ``task`` is ``(partition, step_index, active owned vertices (array),
    payload)`` where the payload is the slice handle (or pair of handles)
    of the state the step reads, ``None`` for the first step.  Results
    return as a handful of flat arrays.  When the scoring configuration is
    inside the vectorized design space
    (:func:`repro.snaple.kernel.kernel_supports`) the kernel consumes the
    materialized slices without per-vertex marshalling; it replicates the
    scalar gather fold order and per-vertex RNG draws, so both branches,
    serial engines and every worker count agree exactly.
    """
    from repro.snaple import kernel

    partition, step_index, active, payload = task
    maybe_crash(_WORKER_FAULT, step_index, partition)
    graph, config = _worker_state()
    start = time.perf_counter()
    payload = _materialize_payload(payload)
    num_vertices = graph.num_vertices
    if not kernel.kernel_supports(config):
        result, gathers = _scalar_gas_step(graph, config, step_index, active,
                                           payload)
    elif step_index == 0:
        counts, flat, gathers = kernel.gas_sample_step_columnar(
            graph, config, active
        )
        result: tuple = (counts, flat)
    elif step_index == 1:
        rows, counts, ids, _vals = payload.field_rows("gamma")
        gamma = kernel.columns_to_neighborhood_csr(num_vertices, rows,
                                                   counts, ids)
        counts, ids, vals, gathers = kernel.gas_similarity_step_columnar(
            graph, config, active, gamma
        )
        result = (counts, ids, vals)
    else:
        gamma_slice, sims_slice = payload
        rows, counts, ids, _vals = gamma_slice.field_rows("gamma")
        gamma = kernel.columns_to_neighborhood_csr(num_vertices, rows,
                                                   counts, ids)
        rows, counts, ids, vals = sims_slice.field_rows("sims")
        kept = kernel.columns_to_kept(num_vertices, rows, counts, ids, vals)
        (pred_counts, pred_flat, score_counts, candidates, values,
         gathers) = kernel.gas_recommendation_step_columnar(
            graph, config, active, gamma, kept
        )
        result = (pred_counts, pred_flat, score_counts, candidates, values)
    return result, gathers, int(active.size), time.perf_counter() - start


# ----------------------------------------------------------------------
# Coordinator
# ----------------------------------------------------------------------
_FORKSERVER_PRELOADED = False


def _pool_context():
    """An explicit spawn-family start method: forkserver, or spawn fallback.

    Plain ``fork`` is deliberately not used: forking a threaded parent
    (pytest plugins, coverage, profilers) can deadlock the child, which used
    to make interrupted test runs hang and leak worker processes.
    ``forkserver`` keeps fork's cheap per-worker startup by forking from a
    clean, single-threaded server process; preloading this module there
    (pulling in numpy and the engine packages once) keeps repeated pool
    creation fast.
    """
    global _FORKSERVER_PRELOADED
    if "forkserver" in multiprocessing.get_all_start_methods():
        ctx = multiprocessing.get_context("forkserver")
        if not _FORKSERVER_PRELOADED:
            ctx.set_forkserver_preload(["repro.runtime.parallel"])
            _FORKSERVER_PRELOADED = True
        return ctx
    return multiprocessing.get_context("spawn")


def _spawn_pool(workers: int, graph: ShmGraphHandle | MemmapGraphHandle,
                config: SnapleConfig,
                fault: FaultSpec | None) -> ProcessPoolExecutor:
    """A worker pool whose processes attach ``graph`` once at startup."""
    return ProcessPoolExecutor(
        max_workers=workers,
        mp_context=_pool_context(),
        initializer=_init_worker,
        initargs=(graph, config, fault),
    )


class WorkerPoolLease:
    """A worker pool (plus its graph plane) reused across parallel runs.

    Spawning a pool is the fixed cost of every ``workers=N`` run: N process
    creations, hosting the graph on the segment plane (shm packing or
    container spooling), and the workers' first-import warmup.
    A lease amortizes that cost: the first run materializes the pool and
    the graph plane, and later runs with the *same* (graph, config,
    workers, plane) key reuse both — ``spawns`` counts how often the
    expensive path actually ran.  The lease holds the keyed graph and
    config and matches them by identity, so a new graph allocated where a
    dropped one lived never inherits its workers.  :class:`ParallelExecutor`
    acquires the lease when given one (``pool=``), bypassing it for
    fault-injected runs, and invalidates it when a worker crashes so
    recovery always replays on a fresh self-managed pool.

    The lease owns real resources (processes, shared segments or spool
    files): call :meth:`close` — or use it as a context manager — when done.
    :class:`~repro.snaple.predictor.SnapleLinkPredictor` holds one lease
    per predictor and forwards ``close()``.
    """

    def __init__(self) -> None:
        self._pool: ProcessPoolExecutor | None = None
        self._registry: ShmRegistry | None = None
        self._key: tuple | None = None
        #: How many times a pool was actually spawned (cache misses).
        self.spawns = 0

    def acquire(self, *, graph: DiGraph, config: SnapleConfig, workers: int,
                plane: type[ShmRegistry]) -> ProcessPoolExecutor:
        """The pool for this run key, spawning or respawning as needed."""
        held = self._key
        if (self._pool is not None and held is not None and held[0] is graph
                and held[1] is config and held[2:] == (workers, plane)):
            return self._pool
        self.invalidate()
        self._registry = plane()
        self._pool = _spawn_pool(workers, self._registry.host_graph(graph),
                                 config, None)
        self._key = (graph, config, workers, plane)
        self.spawns += 1
        return self._pool

    def invalidate(self, *, kill: bool = False) -> None:
        """Discard the pool and its graph plane (``kill`` after a crash)."""
        pool, self._pool = self._pool, None
        registry, self._registry = self._registry, None
        self._key = None
        if pool is not None:
            ParallelExecutor._shutdown_pool(pool, kill=kill)
        if registry is not None:
            registry.close()

    def close(self) -> None:
        """Release the pool and every segment/spool file.  Idempotent."""
        self.invalidate()

    def __enter__(self) -> "WorkerPoolLease":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC backstop
        try:
            self.invalidate(kill=True)
        except Exception:
            pass


class ParallelExecutor:
    """Coordinates one shared-nothing parallel run over a worker pool.

    Parameters
    ----------
    graph, config:
        The input graph and SNAPLE configuration.
    workers:
        Number of partitions / worker processes (1..``MAX_WORKERS``).
    partitioner:
        Optional placement strategy: a
        :class:`~repro.runtime.partition.Partitioner` (vertex-cut; masters
        become owners).  Placement only affects how much boundary state is
        shipped, never the predictions.
    seed:
        Partitioner seed; defaults to the configuration's seed.
    max_restarts:
        Crash recoveries (pool respawn + replay from superstep 0) attempted
        before the failure propagates.
    worker_timeout:
        Seconds a superstep may take before its workers are declared hung,
        killed and recovered (``None`` disables the watchdog).
    fault:
        A :class:`FaultSpec` crash injection used
        by the fault-tolerance test harness; never set in production.
    pool:
        An optional :class:`WorkerPoolLease` to reuse the worker pool (and
        graph transport) across runs.  Ignored for fault-injected runs and
        invalidated on worker crashes, so fault tolerance is unchanged.
    """

    def __init__(self, graph: DiGraph, config: SnapleConfig | None = None, *,
                 workers: int, partitioner: Any = None,
                 seed: int | None = None,
                 max_restarts: int = DEFAULT_MAX_RESTARTS,
                 worker_timeout: float | None = None,
                 fault: FaultSpec | None = None,
                 pool: "WorkerPoolLease | None" = None) -> None:
        self._graph = graph
        self._config = config if config is not None else SnapleConfig()
        self._workers = validate_workers(workers)
        if isinstance(max_restarts, bool) or not isinstance(max_restarts, int) \
                or max_restarts < 0:
            raise ConfigurationError(
                f"max_restarts must be a non-negative integer, got "
                f"{max_restarts!r}"
            )
        if worker_timeout is not None and (
                not isinstance(worker_timeout, (int, float))
                or isinstance(worker_timeout, bool) or worker_timeout <= 0):
            raise ConfigurationError(
                f"worker_timeout must be a positive number of seconds, got "
                f"{worker_timeout!r}"
            )
        self._max_restarts = max_restarts
        self._worker_timeout = (
            None if worker_timeout is None else float(worker_timeout)
        )
        self._fault = fault
        # Each partition's vertex-cut masters are the vertices it owns.
        owner = [int(m) for m in partition_graph(
            graph, self._workers, partitioner=partitioner,
            seed=self._config.seed if seed is None else seed,
        ).vertex_master]
        self._owned: list[list[int]] = [[] for _ in range(self._workers)]
        for u in range(graph.num_vertices):
            self._owned[owner[u]].append(u)
        self._owner_array = np.asarray(owner, dtype=np.int64)
        if pool is not None and not isinstance(pool, WorkerPoolLease):
            raise ConfigurationError(
                f"pool must be a WorkerPoolLease, got {pool!r}"
            )
        self._pool_lease = pool
        # The run's segment plane (shm segments or spool files), alive only
        # inside run().
        self._registry: ShmRegistry | None = None
        self._graph_handle: ShmGraphHandle | MemmapGraphHandle | None = None

    # ------------------------------------------------------------------
    # Pool lifecycle and fault handling
    # ------------------------------------------------------------------
    @staticmethod
    def _shutdown_pool(pool: ProcessPoolExecutor, *, kill: bool) -> None:
        """Terminate-safe teardown: never leaves worker processes behind.

        ``kill=True`` (after a crash or watchdog timeout) SIGKILLs whatever
        workers are still alive before shutting the executor down, so a hung
        worker cannot block teardown or outlive an interrupted run.
        """
        if kill:
            for process in list(getattr(pool, "_processes", {}).values()):
                if process.is_alive():
                    process.kill()
        pool.shutdown(wait=True, cancel_futures=True)

    def _map(self, pool: ProcessPoolExecutor, fn, tasks: list) -> list:
        """Run one superstep's tasks; dead/hung workers raise ``WorkerCrashError``.

        The results are materialized in full before the caller merges
        anything, which is what makes a superstep atomic: a crash mid-map
        loses the whole superstep, never half of it.
        """
        try:
            return list(pool.map(fn, tasks, timeout=self._worker_timeout))
        except BrokenProcessPool as exc:
            raise WorkerCrashError(
                "a parallel worker process died mid-superstep"
            ) from exc
        except FuturesTimeoutError as exc:
            raise WorkerCrashError(
                f"a parallel superstep exceeded worker_timeout="
                f"{self._worker_timeout}s; treating its workers as hung"
            ) from exc

    # ------------------------------------------------------------------
    def run(self, vertices: list[int] | None = None) -> ParallelRunOutcome:
        """Execute the program and merge per-partition results.

        ``vertices`` restricts the recommendation step and the merged
        predictions/scores (all vertices by default); the sampling and
        similarity steps always run over every owned vertex, because the
        recommendations read the neighbours' state.

        Graph and state columns live on the segment plane
        :func:`~repro.runtime.ooc.segment_plane` picks, for every scoring
        configuration; tasks receive descriptors into it.

        Fault handling: a worker death or watchdog timeout discards the
        pool, respawns it, and replays the run from superstep 0 up to
        ``max_restarts`` times; the returned outcome is bit-identical to an
        uninterrupted run.
        """
        start = time.perf_counter()
        restarts = 0
        plane = segment_plane()
        # Fault-injected runs bypass the lease: crash tests must exercise
        # the full self-managed pool + plane lifecycle.
        lease = (self._pool_lease
                 if self._pool_lease is not None and self._fault is None
                 else None)
        try:
            # One registry per run owns every segment; the graph is hosted
            # once and survives pool respawns after crashes.
            self._registry = plane()
            if lease is None:
                self._graph_handle = self._registry.host_graph(self._graph)
            while True:
                leased = lease is not None
                if leased:
                    # The lease hosts the graph plane (its own registry) and
                    # the pool; this run's registry only holds state columns.
                    pool = lease.acquire(
                        graph=self._graph, config=self._config,
                        workers=self._workers, plane=plane,
                    )
                else:
                    pool = _spawn_pool(self._workers, self._graph_handle,
                                       self._config, self._fault)
                crashed = False
                try:
                    outcome = self._run_gas(pool, vertices)
                    break
                except WorkerCrashError:
                    crashed = True
                    restarts += 1
                    if leased:
                        # The leased pool (and its graph plane) died with
                        # the crash: drop it so no later run reuses a broken
                        # pool; recovery replays on self-managed pools.
                        lease.invalidate(kill=True)
                        lease = None
                    if restarts > self._max_restarts:
                        raise
                    if self._graph_handle is None:
                        self._graph_handle = self._registry.host_graph(
                            self._graph)
                finally:
                    if not leased:
                        self._shutdown_pool(pool, kill=crashed)
        finally:
            # Crash-safe cleanup: every segment is unlinked here no matter
            # how the run ended (success, exhausted restarts, KeyboardInterrupt).
            registry = self._registry
            self._registry = None
            self._graph_handle = None
            if registry is not None:
                registry.close()
        outcome.wall_clock_seconds = time.perf_counter() - start
        outcome.shm_enabled = plane is ShmRegistry
        outcome.ooc_enabled = not outcome.shm_enabled
        outcome.worker_restarts = restarts
        return outcome

    # ------------------------------------------------------------------
    # GAS coordination
    # ------------------------------------------------------------------
    @staticmethod
    def _boundary(active: np.ndarray, indptr: np.ndarray,
                  indices: np.ndarray, degrees: np.ndarray) -> np.ndarray:
        """Vectorized out-edge boundary: the vertices the gathers read
        besides ``active`` itself.

        On a full run ``active`` is everything a worker owns, so these are
        its remote neighbours; a vertex subset adds the owned neighbours
        outside the subset.
        """
        if active.size == 0:
            return np.empty(0, dtype=np.int64)
        neighbors = indices[gather_slices(indptr[active], degrees[active])]
        in_task = np.zeros(degrees.size, dtype=bool)
        in_task[active] = True
        return np.unique(neighbors[~in_task[neighbors]])

    @staticmethod
    def _boundary_bytes(store: StateStore, name: str, rows: np.ndarray,
                        own_mask: np.ndarray) -> int:
        """Payload bytes of the boundary (not owned) rows of one field.

        Computed from the live column's lengths so both segment planes
        account *identically* — ``shipped`` is the logical boundary payload,
        part of the deterministic accounting the parity and recovery suites
        compare bit-for-bit across planes.
        """
        column = store._column(name)
        per_element = 8 if column._vals is None else 16
        return per_element * int(column.lengths[rows[~own_mask]].sum())

    def _run_gas(self, pool,
                 vertices: list[int] | None) -> ParallelRunOutcome:
        """Algorithm 2's three GAS steps over the columnar state plane.

        The coordinator keeps one segment-backed
        :class:`~repro.runtime.state.StateStore`; per (step, partition) it
        ships handles to the owned+boundary rows the step reads and
        bulk-merges the returned column rows.  Nothing that crosses a
        process boundary is a per-vertex Python object.
        """
        from repro.snaple.kernel import LazyScores
        from repro.snaple.program import snaple_state_schema

        graph = self._graph
        num_vertices = graph.num_vertices
        targets = list(graph.vertices()) if vertices is None else list(vertices)
        active_set = set(targets)
        all_owned = [np.asarray(owned, dtype=np.int64) for owned in self._owned]
        target_owned = [
            np.asarray([u for u in owned if u in active_set], dtype=np.int64)
            for owned in self._owned
        ]
        store = StateStore(num_vertices, snaple_state_schema(),
                           allocator=ShmColumnAllocator(self._registry))
        transport: list[int] = []
        acct = _Accounting.fresh(self._workers)
        indptr, indices = graph.csr_out_adjacency()
        degrees = np.diff(indptr)
        owner = self._owner_array

        workers = self._workers
        prediction_parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        score_parts: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []

        for step_index in range(_NUM_STEPS):
            step_start = time.perf_counter()
            route_seconds = 0.0
            step_transport = 0
            active_owned = (target_owned if step_index == _NUM_STEPS - 1
                            else all_owned)
            tasks = []
            for w in range(workers):
                owned_active = active_owned[w]
                if step_index == 0:
                    payload: Any = None
                else:
                    boundary = self._boundary(owned_active, indptr, indices,
                                              degrees)
                    rows = np.concatenate([owned_active, boundary])
                    rows.sort()
                    own_mask = owner[rows] == w
                    if step_index == 1:
                        payload = state_slice_handle(store, rows, ("gamma",))
                        acct.shipped[w] += self._boundary_bytes(
                            store, "gamma", rows, own_mask
                        )
                    else:
                        # The recommendation step probes only the targets'
                        # own Γ̂ but reads every neighbor's kept map.
                        payload = (
                            state_slice_handle(store, owned_active,
                                               ("gamma",)),
                            state_slice_handle(store, rows, ("sims",)),
                        )
                        acct.shipped[w] += self._boundary_bytes(
                            store, "sims", rows, own_mask
                        )
                step_transport += _transport_nbytes(payload)
                tasks.append((w, step_index, owned_active, payload))
            route_seconds += time.perf_counter() - step_start
            results = self._map(pool, _gas_step_task_columnar, tasks)
            merge_start = time.perf_counter()
            slowest = 0.0
            for w, (result, n_gather, n_apply, elapsed) in enumerate(results):
                owned_active = active_owned[w]
                if step_index == 0:
                    counts, flat = result
                    store.set_rows("gamma", owned_active, counts, flat)
                elif step_index == 1:
                    counts, ids, vals = result
                    store.set_rows("sims", owned_active, counts, ids, vals)
                else:
                    pred_counts, pred_flat, score_counts, candidates, values = result
                    store.set_rows("predicted", owned_active, pred_counts,
                                   pred_flat)
                    prediction_parts.append(
                        (owned_active, pred_counts, pred_flat)
                    )
                    score_parts.append(
                        (owned_active, score_counts, candidates, values)
                    )
                acct.gathers[w] += n_gather
                acct.applies[w] += n_apply
                acct.compute_seconds[w] += elapsed
                slowest = max(slowest, elapsed)
            route_seconds += time.perf_counter() - merge_start
            acct.routing.append(route_seconds)
            acct.plane.append(store.nbytes())
            transport.append(step_transport)
            acct.sync_overhead += max(
                0.0, (time.perf_counter() - step_start) - slowest
            )

        predictions_all: dict[int, list[int]] = {}
        for rows, counts, flat in prediction_parts:
            values = flat.tolist()
            position = 0
            for u, count in zip(rows.tolist(), counts.tolist()):
                predictions_all[u] = values[position:position + count]
                position += count
        predictions = {u: predictions_all.get(u, []) for u in targets}

        # One LazyScores view over the concatenated per-partition arrays:
        # per-vertex score dicts materialize only if somebody reads them.
        all_targets: list[int] = []
        starts_parts: list[np.ndarray] = []
        counts_parts: list[np.ndarray] = []
        candidate_parts: list[np.ndarray] = []
        value_parts: list[np.ndarray] = []
        offset = 0
        for rows, score_counts, candidates, values in score_parts:
            starts_parts.append(offset + np.cumsum(score_counts) - score_counts)
            counts_parts.append(score_counts)
            candidate_parts.append(candidates)
            value_parts.append(values)
            all_targets.extend(rows.tolist())
            offset += int(candidates.size)
        if all_targets:
            starts_all = np.concatenate(starts_parts)
            counts_all = np.concatenate(counts_parts)
            position_of = {u: i for i, u in enumerate(all_targets)}
            target_rows = np.asarray(
                [position_of.get(u, -1) for u in targets], dtype=np.int64
            )
            known = target_rows >= 0
            target_starts = np.where(known, starts_all[target_rows], 0)
            target_counts = np.where(known, counts_all[target_rows], 0)
            scores: Any = LazyScores(
                list(targets), target_starts, target_counts,
                np.concatenate(candidate_parts), np.concatenate(value_parts),
            )
        else:
            scores = {u: {} for u in targets}

        outcome = self._merge_outcome(predictions, scores, acct)
        outcome.transport_bytes = transport
        return outcome

    # ------------------------------------------------------------------
    def _merge_outcome(self, predictions, scores,
                       acct: _Accounting) -> ParallelRunOutcome:
        """Build per-partition reports and derive the merged totals from them."""
        partitions = []
        for w in range(self._workers):
            owned_predictions = [
                u for u in self._owned[w] if u in predictions
            ]
            partitions.append(PartitionReport(
                partition=w,
                num_vertices=len(self._owned[w]),
                num_predictions=len(owned_predictions),
                num_predicted_edges=sum(
                    len(predictions[u]) for u in owned_predictions
                ),
                gather_invocations=acct.gathers[w],
                apply_invocations=acct.applies[w],
                compute_seconds=acct.compute_seconds[w],
                shipped_bytes=acct.shipped[w],
            ))
        return ParallelRunOutcome(
            predictions=predictions,
            scores=scores,
            workers=self._workers,
            supersteps=_NUM_STEPS,
            partitions=partitions,
            wall_clock_seconds=0.0,  # stamped by run()
            sync_overhead_seconds=acct.sync_overhead,
            exchanged_bytes=sum(acct.shipped),
            routing_seconds=list(acct.routing),
            state_plane_bytes=list(acct.plane),
        )


# ----------------------------------------------------------------------
# Convenience entry points used by the backends
# ----------------------------------------------------------------------
def run_parallel_gas(graph: DiGraph, config: SnapleConfig | None = None, *,
                     workers: int, partitioner: Any = None,
                     vertices: list[int] | None = None,
                     seed: int | None = None,
                     pool: WorkerPoolLease | None = None,
                     **fault_tolerance: Any) -> ParallelRunOutcome:
    """Run Algorithm 2's GAS steps with partitions in parallel processes.

    ``fault_tolerance`` forwards the crash-recovery options
    (``max_restarts``, ``worker_timeout``, ``fault``) to
    :class:`ParallelExecutor`; ``pool`` optionally reuses a
    :class:`WorkerPoolLease` across runs.
    """
    executor = ParallelExecutor(graph, config, workers=workers,
                                partitioner=partitioner, seed=seed,
                                pool=pool, **fault_tolerance)
    return executor.run(vertices=vertices)
