"""Parallel execution of SNAPLE across vertex partitions.

The simulated GAS engine only *models* distribution in one Python process.
This module makes the partitions real: the vertices are split into
``workers`` partitions, each partition is mapped to a worker process of a
process pool, and the per-partition results and accounting merge back into
one :class:`~repro.runtime.report.RunReport`.  It is the execution path of
``backend="gas", workers=N``.

Execution model
---------------
Algorithm 2 writes each vertex's Γ̂, kept ``sims`` and predictions exactly
once, in three phases, and each phase only reads what earlier phases wrote.
So every phase is a map over the partitions followed by one assembly step,
and the map runs the kernel (:mod:`repro.snaple.kernel`) unchanged:

1. each worker returns ``gas_sample_step_columnar`` rows for the vertices
   it owns; the coordinator scatters them into one Γ̂
   :class:`~repro.snaple.kernel.NeighborhoodCSR` and hosts it once;
2. each worker reads that Γ̂ read-only and returns the kept rows of its
   vertices (``edge_similarities`` + ``select_klocal(rng_mode=
   "per_vertex")``); the coordinator hosts the assembled kept CSR the same
   way;
3. each worker ranks its target vertices with ``combine_and_rank_columnar``
   in the GAS gather's fold order (any combinator or aggregator); the
   coordinator concatenates predictions and scores.

Graph and phase outputs live on the segment plane
(:mod:`repro.runtime.shm`): files in one run-scoped directory that workers
map read-only.  A task carries its partition's row ids and the
:class:`~repro.runtime.shm.BlockHandle` descriptors of the phase outputs it
reads; it returns its rows as flat arrays.  Nothing that crosses a process
boundary is a per-vertex Python object.

Fault tolerance
---------------
Worker failure is treated as the common case, not the exception.  A phase
is *atomic*: the coordinator assembles a phase only after every
partition's task returned, so a worker dying mid-phase can never leave
half-assembled state behind.  When a worker process dies (detected
immediately through the broken pool) or exceeds ``worker_timeout`` seconds
(treated as hung; the stragglers are killed), the coordinator discards the
pool, spawns a fresh one and replays the run from phase 0.  Up to
``max_restarts`` recoveries are attempted before a
:class:`~repro.errors.WorkerCrashError` propagates.  Because every random
draw comes from a per-vertex ``(seed, step, vertex)`` stream, a replay
repeats *exactly* the draws of the lost run: recovered runs are
bit-identical to uninterrupted runs, predictions and deterministic
accounting counters alike.

Nothing is persisted between phases.  A run is three short, deterministic
phases, so restoring a saved phase boundary could spare at most two of
them, and a recovered run's cost is dominated by spawning the fresh pool
either way (the README's fault-tolerance section has the measurement).

Determinism
-----------
Results are bit-identical for any worker count because

* every vertex draws randomness from its own stream derived from
  ``(seed, step, vertex)`` (see :func:`repro.snaple.kernel.vertex_rng`),
  never from a shared sequential stream;
* phase 3 folds each target's paths in edge (CSR) order, exactly as the
  serial engine's gather does.

Each worker owns the vertices
:func:`~repro.runtime.partition.partition_vertices` hashes onto it (seeded
by the configuration's seed).  The simulated GAS engine's vertex-cut
models PowerGraph's edge placement for its traffic accounting; no answer
or count here depends on placement, so none is built.

Worker processes use an explicit ``forkserver`` start method (``spawn``
where forkserver is unavailable), never plain ``fork``: forking a threaded
parent (pytest plugins, coverage, profilers) can deadlock the child, which
used to make interrupted test runs leak hung workers.  Pool teardown always
runs — broken, hung or healthy — through a kill-then-shutdown path.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.errors import ConfigurationError, EngineError, WorkerCrashError
from repro.graph.digraph import DiGraph
from repro.runtime.partition import partition_vertices
from repro.runtime.shm import (
    BlockHandle,
    ShmRegistry,
    attach_graph,
    attachment_cache,
    share_graph,
)
from repro.runtime.state import gather_slices, indptr_from_counts
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

#: Algorithm 2's phases: sample, similarity + klocal, recommendation.
_NUM_PHASES = 3


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


@dataclass
class ParallelRunOutcome:
    """Merged result of one parallel run.

    ``routing_seconds``, ``state_plane_bytes`` and ``transport_bytes``
    carry one entry per phase (superstep):

    * ``routing_seconds`` — coordinator time outside the workers' map:
      building the tasks, assembling the returned rows and hosting them;
    * ``state_plane_bytes`` — bytes of phase outputs hosted on the segment
      plane after the phase (the Γ̂ CSR, then also the kept CSR);
    * ``transport_bytes`` — array bytes that crossed the process boundary
      through the pool: each task's row ids plus the rows it returned.
      Hosted outputs are read in place and not counted.

    ``worker_restarts`` counts pool respawns after worker crashes; each one
    replayed the run from phase 0.
    """

    predictions: dict[int, list[int]]
    scores: Any
    workers: int
    supersteps: int
    partitions: list[PartitionReport]
    wall_clock_seconds: float
    sync_overhead_seconds: float
    routing_seconds: list[float] = field(default_factory=list)
    state_plane_bytes: list[int] = field(default_factory=list)
    worker_restarts: int = 0
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
    sync_overhead: float = 0.0
    routing: list[float] = field(default_factory=list)
    plane: list[int] = field(default_factory=list)
    transport: list[int] = field(default_factory=list)

    @classmethod
    def fresh(cls, workers: int) -> "_Accounting":
        return cls([0.0] * workers, [0] * workers, [0] * workers)


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


def _init_worker(graph: str, config: SnapleConfig,
                 fault: FaultSpec | None = None) -> None:
    """Pool initializer: install the graph, config and fault spec once.

    The graph arrives as the path of the container the coordinator hosted,
    which the worker maps once, read-only, for the process lifetime.
    """
    global _WORKER_GRAPH, _WORKER_CONFIG, _WORKER_FAULT
    _WORKER_GRAPH = attach_graph(graph)
    _WORKER_CONFIG = config
    _WORKER_FAULT = fault
    threading.Thread(target=_watch_parent, name="snaple-parent-watchdog",
                     daemon=True).start()


def _worker_state() -> tuple[DiGraph, SnapleConfig]:
    if _WORKER_GRAPH is None or _WORKER_CONFIG is None:
        raise EngineError("parallel worker used before initialization")
    return _WORKER_GRAPH, _WORKER_CONFIG


def _attach_blocks(blocks: tuple[BlockHandle, ...]
                   ) -> list[dict[str, np.ndarray]]:
    """Read-only views of the hosted phase outputs a task reads.

    Attachments to segments no block references any more (an earlier
    run's outputs) are dropped first.
    """
    cache = attachment_cache()
    cache.retain({block.segment for block in blocks})
    return [{key: cache.view(spec) for key, spec in block.specs.items()}
            for block in blocks]


def _phase_task(task):
    """One (partition, phase) unit of work, run in a worker process.

    ``task`` is ``(partition, phase, rows, blocks)``: the partition's
    vertices (ascending) and the descriptors of the earlier phases' hosted
    outputs.  Returns the rows' output as flat arrays aligned with ``rows``
    plus the compute seconds.
    """
    from repro.snaple import kernel

    partition, phase, rows, blocks = task
    maybe_crash(_WORKER_FAULT, phase, partition)
    graph, config = _worker_state()
    start = time.perf_counter()
    views = _attach_blocks(blocks)
    if phase == 0:
        result: tuple = kernel.gas_sample_step_columnar(graph, config, rows)
    else:
        gamma = kernel.NeighborhoodCSR(graph.num_vertices, **views[0])
        if phase == 1:
            edges = kernel.edge_similarities(graph, gamma, config, rows=rows)
            kept = kernel.select_klocal(edges, config, rng_mode="per_vertex",
                                        rows=rows)
            # Rows outside ``rows`` are empty, so the payload is exactly the
            # partition's rows in ascending order.
            result = (np.diff(kept.indptr)[rows], kept.ids, kept.sims)
        else:
            kept = kernel.KeptNeighbors(**views[1])
            result = kernel.combine_and_rank_columnar(
                graph, gamma, kept, config, rows, neighbor_order="csr")
    return result, time.perf_counter() - start


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


def _spawn_pool(workers: int, graph: str, config: SnapleConfig,
                fault: FaultSpec | None) -> ProcessPoolExecutor:
    """A worker pool whose processes attach ``graph`` once at startup."""
    return ProcessPoolExecutor(
        max_workers=workers,
        mp_context=_pool_context(),
        initializer=_init_worker,
        initargs=(graph, config, fault),
    )


class WorkerPoolLease:
    """A worker pool (plus its hosted graph) reused across parallel runs.

    Spawning a pool is the fixed cost of every ``workers=N`` run: N process
    creations, hosting the graph on the segment plane (saving an in-RAM
    graph as a container), and the workers' first-import warmup.
    A lease amortizes that cost: the first run materializes the pool and
    the hosted graph, and later runs with the *same* (graph, config,
    workers) key reuse both — ``spawns`` counts how often the
    expensive path actually ran.  The lease holds the keyed graph and
    config and matches them by identity, so a new graph allocated where a
    dropped one lived never inherits its workers.  :class:`ParallelExecutor`
    acquires the lease when given one (``pool=``), bypassing it for
    fault-injected runs, and invalidates it when a worker crashes so
    recovery always replays on a fresh self-managed pool.

    The lease owns real resources (processes, a run directory): call
    :meth:`close` — or use it as a context manager — when done.
    :class:`~repro.snaple.predictor.SnapleLinkPredictor` holds one lease
    per predictor and forwards ``close()``.
    """

    def __init__(self) -> None:
        self._pool: ProcessPoolExecutor | None = None
        self._registry: ShmRegistry | None = None
        self._key: tuple | None = None
        #: How many times a pool was actually spawned (cache misses).
        self.spawns = 0

    def acquire(self, *, graph: DiGraph, config: SnapleConfig,
                workers: int) -> ProcessPoolExecutor:
        """The pool for this run key, spawning or respawning as needed."""
        held = self._key
        if (self._pool is not None and held is not None and held[0] is graph
                and held[1] is config and held[2] == workers):
            return self._pool
        self.invalidate()
        self._registry = ShmRegistry()
        self._pool = _spawn_pool(workers, share_graph(self._registry, graph),
                                 config, None)
        self._key = (graph, config, workers)
        self.spawns += 1
        return self._pool

    def invalidate(self, *, kill: bool = False) -> None:
        """Discard the pool and its hosted graph (``kill`` after a crash)."""
        pool, self._pool = self._pool, None
        registry, self._registry = self._registry, None
        self._key = None
        if pool is not None:
            ParallelExecutor._shutdown_pool(pool, kill=kill)
        if registry is not None:
            registry.close()

    def close(self) -> None:
        """Release the pool and its run directory.  Idempotent."""
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
    """Coordinates one parallel run over a worker pool.

    Parameters
    ----------
    graph, config:
        The input graph and SNAPLE configuration.
    workers:
        Number of partitions / worker processes (1..``MAX_WORKERS``).
    max_restarts:
        Crash recoveries (pool respawn + replay from phase 0) attempted
        before the failure propagates.
    worker_timeout:
        Seconds a phase may take before its workers are declared hung,
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
                 workers: int,
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
        owner = partition_vertices(graph, self._workers,
                                   seed=self._config.seed).vertex_machine
        self._owned = [np.flatnonzero(owner == w)
                       for w in range(self._workers)]
        if pool is not None and not isinstance(pool, WorkerPoolLease):
            raise ConfigurationError(
                f"pool must be a WorkerPoolLease, got {pool!r}"
            )
        self._pool_lease = pool
        # The run's segments, alive only inside run().
        self._registry: ShmRegistry | None = None
        self._graph_handle: str | None = None

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
        """Run one phase's tasks; dead/hung workers raise ``WorkerCrashError``.

        The results are materialized in full before the caller merges
        anything, which is what makes a phase atomic: a crash mid-map loses
        the whole phase, never half of it.
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

        ``vertices`` restricts the recommendation phase and the merged
        predictions/scores (all vertices by default); the sampling and
        similarity phases always run over every vertex, because the
        recommendations read the neighbours' outputs.

        Graph and phase outputs live on the segment plane, for every
        scoring configuration; tasks receive descriptors into it.

        Fault handling: a worker death or watchdog timeout discards the
        pool, respawns it, and replays the run from phase 0 up to
        ``max_restarts`` times; the returned outcome is bit-identical to an
        uninterrupted run.
        """
        start = time.perf_counter()
        restarts = 0
        # Fault-injected runs bypass the lease: crash tests must exercise
        # the full self-managed pool + segment lifecycle.
        lease = (self._pool_lease
                 if self._pool_lease is not None and self._fault is None
                 else None)
        try:
            # One registry per run owns every segment; the graph is hosted
            # once and survives pool respawns after crashes.
            self._registry = ShmRegistry()
            if lease is None:
                self._graph_handle = share_graph(self._registry, self._graph)
            while True:
                leased = lease is not None
                if leased:
                    # The lease hosts the graph (its own registry) and the
                    # pool; this run's registry only holds phase outputs.
                    pool = lease.acquire(
                        graph=self._graph, config=self._config,
                        workers=self._workers,
                    )
                else:
                    pool = _spawn_pool(self._workers, self._graph_handle,
                                       self._config, self._fault)
                crashed = False
                try:
                    outcome = self._run_phases(pool, vertices)
                    break
                except WorkerCrashError:
                    crashed = True
                    restarts += 1
                    if leased:
                        # The leased pool (and its hosted graph) died with
                        # the crash: drop it so no later run reuses a broken
                        # pool; recovery replays on self-managed pools.
                        lease.invalidate(kill=True)
                        lease = None
                    if restarts > self._max_restarts:
                        raise
                    if self._graph_handle is None:
                        self._graph_handle = share_graph(self._registry,
                                                         self._graph)
                finally:
                    if not leased:
                        self._shutdown_pool(pool, kill=crashed)
        finally:
            # Crash-safe cleanup: every segment is removed here no matter
            # how the run ended (success, exhausted restarts, KeyboardInterrupt).
            registry = self._registry
            self._registry = None
            self._graph_handle = None
            if registry is not None:
                registry.close()
        outcome.wall_clock_seconds = time.perf_counter() - start
        outcome.worker_restarts = restarts
        return outcome

    # ------------------------------------------------------------------
    # Phase coordination
    # ------------------------------------------------------------------
    def _run_phases(self, pool,
                    vertices: list[int] | None) -> ParallelRunOutcome:
        """Algorithm 2's three phases, each a map over the partitions and
        one assembly of the returned rows."""
        from repro.snaple.kernel import LazyScores, NeighborhoodCSR

        graph = self._graph
        num_vertices = graph.num_vertices
        degrees = np.diff(graph.csr_out_adjacency()[0])
        targets = list(graph.vertices()) if vertices is None else list(vertices)
        target_array = np.asarray(targets, dtype=np.int64)
        target_owned = (self._owned if vertices is None
                        else [rows[np.isin(rows, target_array)]
                              for rows in self._owned])
        acct = _Accounting.fresh(self._workers)
        hosted: list[BlockHandle] = []
        plane_bytes = 0

        for phase, phase_rows in enumerate((self._owned, self._owned,
                                            target_owned)):
            start = time.perf_counter()
            tasks = [(w, phase, rows, tuple(hosted))
                     for w, rows in enumerate(phase_rows)]
            map_start = time.perf_counter()
            results = self._map(pool, _phase_task, tasks)
            assemble_start = time.perf_counter()
            slowest = 0.0
            transport = 0
            for w, (rows, (arrays, elapsed)) in enumerate(zip(phase_rows,
                                                              results)):
                acct.gathers[w] += int(degrees[rows].sum())
                acct.applies[w] += int(rows.size)
                acct.compute_seconds[w] += elapsed
                slowest = max(slowest, elapsed)
                transport += rows.nbytes + sum(a.nbytes for a in arrays)
            blocks = [arrays for arrays, _ in results]
            if phase == 0:
                counts, starts, (flat,) = _concat_rows(num_vertices,
                                                       phase_rows, blocks)
                gamma = NeighborhoodCSR.from_rows(
                    num_vertices, counts, flat[gather_slices(starts, counts)])
                outputs = {"indptr": gamma.indptr, "indices": gamma.indices,
                           "keys": gamma.keys, "sizes": gamma.sizes}
            elif phase == 1:
                counts, starts, (ids, sims) = _concat_rows(num_vertices,
                                                           phase_rows, blocks)
                in_order = gather_slices(starts, counts)
                outputs = {"indptr": indptr_from_counts(counts),
                           "ids": ids[in_order], "sims": sims[in_order]}
            else:
                pred_counts, pred_starts, (pred_flat,) = _concat_rows(
                    num_vertices, phase_rows, [block[:2] for block in blocks])
                score_counts, score_starts, (candidates, values) = (
                    _concat_rows(num_vertices, phase_rows,
                                 [block[2:] for block in blocks]))
                outputs = {}
            if outputs:
                hosted.append(self._registry.share_arrays(outputs))
                plane_bytes += sum(a.nbytes for a in outputs.values())
            end = time.perf_counter()
            acct.routing.append((map_start - start) + (end - assemble_start))
            acct.plane.append(plane_bytes)
            acct.transport.append(transport)
            acct.sync_overhead += max(0.0, (end - start) - slowest)

        flat = pred_flat.tolist()
        predictions = {
            u: flat[start:start + count] for u, start, count in zip(
                targets, pred_starts[target_array].tolist(),
                pred_counts[target_array].tolist())
        }
        scores = LazyScores(targets, score_starts[target_array],
                            score_counts[target_array], candidates, values)
        return self._merge_outcome(predictions, scores, acct)

    # ------------------------------------------------------------------
    def _merge_outcome(self, predictions, scores,
                       acct: _Accounting) -> ParallelRunOutcome:
        """Build per-partition reports and derive the merged totals from them."""
        partitions = []
        for w, owned in enumerate(self._owned):
            owned_predictions = [u for u in owned.tolist() if u in predictions]
            partitions.append(PartitionReport(
                partition=w,
                num_vertices=int(owned.size),
                num_predictions=len(owned_predictions),
                num_predicted_edges=sum(
                    len(predictions[u]) for u in owned_predictions
                ),
                gather_invocations=acct.gathers[w],
                apply_invocations=acct.applies[w],
                compute_seconds=acct.compute_seconds[w],
            ))
        return ParallelRunOutcome(
            predictions=predictions,
            scores=scores,
            workers=self._workers,
            supersteps=_NUM_PHASES,
            partitions=partitions,
            wall_clock_seconds=0.0,  # stamped by run()
            sync_overhead_seconds=acct.sync_overhead,
            routing_seconds=list(acct.routing),
            state_plane_bytes=list(acct.plane),
            transport_bytes=list(acct.transport),
        )


def _concat_rows(num_vertices: int, rows: list[np.ndarray],
                 blocks: list[tuple[np.ndarray, ...]]
                 ) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Concatenate per-partition row blocks, indexed per vertex.

    ``blocks[w]`` is ``(counts, *payloads)`` aligned with ``rows[w]``; the
    row sets are disjoint.  Returns ``(counts, starts, payloads)``: each
    payload concatenated in partition order, and every vertex's row count
    and start in it (0 and 0 for rows no block covers).
    """
    counts = np.zeros(num_vertices, dtype=np.int64)
    starts = np.zeros(num_vertices, dtype=np.int64)
    offset = 0
    for owned, (owned_counts, *_) in zip(rows, blocks):
        counts[owned] = owned_counts
        starts[owned] = offset + np.cumsum(owned_counts) - owned_counts
        offset += int(owned_counts.sum())
    payloads = [np.concatenate([block[i] for block in blocks])
                for i in range(1, len(blocks[0]))]
    return counts, starts, payloads


# ----------------------------------------------------------------------
# Convenience entry points used by the backends
# ----------------------------------------------------------------------
def run_parallel_gas(graph: DiGraph, config: SnapleConfig | None = None, *,
                     workers: int,
                     vertices: list[int] | None = None,
                     pool: WorkerPoolLease | None = None,
                     **fault_tolerance: Any) -> ParallelRunOutcome:
    """Run Algorithm 2's GAS steps with partitions in parallel processes.

    ``fault_tolerance`` forwards the crash-recovery options
    (``max_restarts``, ``worker_timeout``, ``fault``) to
    :class:`ParallelExecutor`; ``pool`` optionally reuses a
    :class:`WorkerPoolLease` across runs.
    """
    executor = ParallelExecutor(graph, config, workers=workers, pool=pool,
                                **fault_tolerance)
    return executor.run(vertices=vertices)
