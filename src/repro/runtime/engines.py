"""Backend adapters for the two SNAPLE execution paths (local, GAS).

The local backend runs the single-process Algorithm 2 of
:mod:`repro.snaple.kernel` — its vectorized branches by default, the scalar
ones behind ``mode="reference"``; the GAS backend drives the simulated
distributed engine (or, with ``workers=N``, real worker processes).  Both
produce identical predictions for the same configuration and seed whenever
no probabilistic truncation is involved — the cross-backend parity tests
rely on this.
"""

from __future__ import annotations

import time

from repro.errors import ConfigurationError
from repro.gas.cluster import ClusterConfig, TYPE_II, cluster_of
from repro.gas.engine import GasEngine
from repro.runtime.partition import Partitioner
from repro.graph.digraph import DiGraph
from repro.runtime.backend import BackendCapabilities, ExecutionBackend
from repro.runtime.parallel import (
    ParallelRunOutcome,
    PartitionReport,
    run_parallel_gas,
    validate_workers,
)
from repro.runtime.report import RunReport
from repro.snaple.config import SnapleConfig
from repro.snaple.kernel import (
    build_truncated_neighborhoods,
    combine_and_rank,
    edge_similarities,
    fold_paths,
    kernel_supports,
    select_klocal,
)
from repro.snaple.program import build_snaple_steps

__all__ = ["LocalBackend", "GasBackend", "LOCAL_MODES"]


def _reject_cluster_with_workers(cluster: ClusterConfig | None,
                                 workers: int | None) -> None:
    """A simulated cluster and real worker processes cannot be combined."""
    if cluster is not None and workers is not None:
        raise ConfigurationError(
            "the 'workers' option runs partitions in real worker processes "
            "and cannot be combined with a simulated 'cluster'; drop one of "
            "the two options"
        )


def _fault_tolerance_options(workers: int | None, **options) -> dict:
    """Validate and collect the crash-recovery options of a backend.

    Crash recovery only exists on the shared-nothing parallel path — the
    simulated serial engines have no worker processes to lose — so every
    option here requires ``workers=N``.
    """
    given = {name: value for name, value in options.items()
             if value is not None}
    if given and workers is None:
        raise ConfigurationError(
            f"the {', '.join(sorted(given))} option(s) require workers=N: "
            "crash recovery applies to the shared-nothing "
            "parallel executor, not the simulated serial engines"
        )
    return given


def _reject_pool_without_workers(pool, workers: int | None) -> None:
    """Worker-pool reuse only exists on the shared-nothing parallel path."""
    if pool is not None and workers is None:
        raise ConfigurationError(
            "the 'pool' option reuses a shared-nothing worker pool and "
            "requires workers=N"
        )


def _serial_partition_report(predictions: dict[int, list[int]],
                             gather_invocations: int, apply_invocations: int,
                             wall: float) -> PartitionReport:
    """A serial run is one partition covering the whole graph.

    Emitting the same per-partition record for serial runs keeps the
    accounting invariant (report totals == sum over partitions) uniform
    across serial and parallel execution.
    """
    return PartitionReport(
        partition=0,
        num_vertices=len(predictions),
        num_predictions=len(predictions),
        num_predicted_edges=sum(len(v) for v in predictions.values()),
        gather_invocations=gather_invocations,
        apply_invocations=apply_invocations,
        compute_seconds=wall,
        shipped_bytes=0,
    )


def _parallel_report(backend_name: str,
                     outcome: ParallelRunOutcome) -> RunReport:
    """Normalize a parallel outcome into the shared report type.

    Simulated-cluster fields stay ``None``: a parallel run measures real
    wall-clock parallelism, not the analytical cluster model.  The totals
    are derived from the per-partition reports so they cannot drift.

    ``extra`` records the executor's state plane — the peak live column
    payload (``state_plane_peak_bytes``) and the coordinator routing time,
    with per-superstep breakdowns — and the segment plane and transport
    bytes.  Fault tolerance rides along as ``worker_restarts``: the number
    of pool respawns, each of which replayed the run from superstep 0.
    """
    extra: dict[str, float] = {
        "worker_restarts": float(outcome.worker_restarts),
    }
    if outcome.state_plane_bytes:
        extra["state_plane_peak_bytes"] = float(max(outcome.state_plane_bytes))
        extra["routing_seconds"] = float(sum(outcome.routing_seconds))
        for index, num_bytes in enumerate(outcome.state_plane_bytes):
            extra[f"state_plane_bytes_step{index}"] = float(num_bytes)
        for index, seconds in enumerate(outcome.routing_seconds):
            extra[f"routing_seconds_step{index}"] = float(seconds)
        extra["shm_enabled"] = float(outcome.shm_enabled)
        extra["ooc_enabled"] = float(outcome.ooc_enabled)
        extra["transport_bytes"] = float(sum(outcome.transport_bytes))
        for index, num_bytes in enumerate(outcome.transport_bytes):
            extra[f"transport_bytes_step{index}"] = float(num_bytes)
    return RunReport(
        extra=extra,
        backend=backend_name,
        predictions=outcome.predictions,
        scores=outcome.scores,
        wall_clock_seconds=outcome.wall_clock_seconds,
        network_bytes=outcome.exchanged_bytes,
        supersteps=outcome.supersteps,
        workers=outcome.workers,
        per_partition_seconds=outcome.per_partition_seconds,
        sync_overhead_seconds=outcome.sync_overhead_seconds,
        partition_reports=list(outcome.partitions),
        native=outcome,
    )


#: Execution modes of the ``local`` backend.
LOCAL_MODES = ("vectorized", "reference")


class LocalBackend(ExecutionBackend):
    """Single-process SNAPLE scoring without engine book-keeping.

    ``prepare`` runs the graph-global phases once (truncated neighborhoods,
    edge similarities and ``klocal`` selection for every vertex); ``run``
    only performs the per-target path combination, so streaming over vertex
    batches costs no repeated global work.

    ``mode`` selects the branches of :mod:`repro.snaple.kernel`:
    ``"vectorized"`` (the default) runs its array branches whenever
    :func:`~repro.snaple.kernel.kernel_supports` the configuration and
    silently falls back to the scalar ones otherwise; ``"reference"``
    always runs the scalar per-edge similarity loop and the scalar path
    fold, for cross-checking.  The report's ``extra["kernel_vectorized"]``
    flag records which branches ran.  Both modes produce identical
    predictions and scores for the same configuration and seed.
    """

    name = "local"

    def __init__(self, mode: str = "vectorized") -> None:
        super().__init__()
        if mode not in LOCAL_MODES:
            raise ConfigurationError(
                f"unknown local mode {mode!r}; available modes: "
                f"{', '.join(LOCAL_MODES)}"
            )
        self._mode = mode
        self._vectorized = False
        self._gamma = None
        self._kept = None
        self._prepare_seconds = 0.0
        self._prepare_billed = False

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            name=self.name,
            description=("single-process Algorithm 2 "
                         "(vectorized CSR kernel, reference mode available)"),
            simulated=False,
            distributed=False,
            vertex_subset=True,
            incremental=True,
            options=("mode",),
        )

    def prepare(self, graph: DiGraph,
                config: SnapleConfig | None = None) -> "LocalBackend":
        super().prepare(graph, config)
        config = self._config
        assert config is not None
        start = time.perf_counter()
        self._vectorized = (self._mode == "vectorized"
                            and kernel_supports(config))
        self._gamma = build_truncated_neighborhoods(graph, config)
        edges = edge_similarities(graph, self._gamma, config,
                                  vectorized=self._vectorized)
        self._kept = select_klocal(edges, config)
        self._prepare_seconds = time.perf_counter() - start
        self._prepare_billed = False
        return self

    def run(self, vertices: list[int] | None = None) -> RunReport:
        """Score ``vertices`` and report timings.

        The preparation time is billed into ``wall_clock_seconds`` only on
        the first run after a ``prepare`` (so a single-shot ``predict``
        matches the historical accounting while summing per-batch reports
        from ``predict_iter`` never double-counts it); every report carries
        it separately as ``extra["prepare_seconds"]``.
        """
        graph, config = self._require_prepared()
        targets = self._target_vertices(vertices)

        start = time.perf_counter()
        if self._vectorized:
            predictions, scores = combine_and_rank(
                graph, self._gamma, self._kept, config, targets,
                neighbor_order="sampler", materialize_scores=False,
            )
        else:
            predictions, scores, _ = fold_paths(self._gamma, self._kept,
                                                config, targets)
        wall = time.perf_counter() - start
        if not self._prepare_billed:
            wall += self._prepare_seconds
            self._prepare_billed = True
        return RunReport(
            backend=self.name,
            predictions=predictions,
            scores=scores,
            wall_clock_seconds=wall,
            extra={
                "prepare_seconds": self._prepare_seconds,
                "kernel_vectorized": 1.0 if self._vectorized else 0.0,
            },
        )


class GasBackend(ExecutionBackend):
    """Algorithm 2 on the simulated gather-apply-scatter engine.

    With ``workers=N`` the simulated cluster is replaced by real
    shared-nothing parallelism: the vertex-cut's masters are mapped onto
    ``N`` worker processes through :mod:`repro.runtime.parallel`, and the
    report carries per-partition accounting instead of simulated cluster
    time.  Predictions are identical for every worker count.

    ``vertices`` restricts only the recommendation step: the sampling and
    similarity steps always cover the whole graph, because a target's
    recommendations read its neighbours' Γ̂ and kept maps.  A subset run
    therefore returns exactly the full run's answers for those vertices.
    """

    name = "gas"

    def __init__(self, cluster: ClusterConfig | None = None,
                 partitioner: Partitioner | None = None,
                 enforce_memory: bool = True,
                 workers: int | None = None,
                 worker_timeout: float | None = None,
                 max_restarts: int | None = None, fault=None,
                 pool=None) -> None:
        super().__init__()
        _reject_cluster_with_workers(cluster, workers)
        self._cluster = cluster
        self._partitioner = partitioner
        self._enforce_memory = enforce_memory
        self._workers = None if workers is None else validate_workers(workers)
        _reject_pool_without_workers(pool, self._workers)
        self._pool = pool
        self._fault_tolerance = _fault_tolerance_options(
            self._workers,
            worker_timeout=worker_timeout,
            max_restarts=max_restarts,
            fault=fault,
        )

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            name=self.name,
            description="simulated distributed GAS engine (vertex-cut)",
            simulated=True,
            distributed=True,
            vertex_subset=True,
            incremental=False,
            parallel=True,
            options=("cluster", "partitioner", "enforce_memory", "workers",
                     "worker_timeout", "max_restarts", "fault", "pool"),
        )

    def run(self, vertices: list[int] | None = None) -> RunReport:
        graph, config = self._require_prepared()
        targets = self._target_vertices(vertices)
        if self._workers is not None:
            outcome = run_parallel_gas(
                graph,
                config,
                workers=self._workers,
                partitioner=self._partitioner,
                vertices=None if vertices is None else targets,
                pool=self._pool,
                **self._fault_tolerance,
            )
            return _parallel_report(self.name, outcome)
        cluster = self._cluster if self._cluster is not None else cluster_of(TYPE_II, 1)
        engine = GasEngine(
            graph=graph,
            cluster=cluster,
            partitioner=self._partitioner,
            enforce_memory=self._enforce_memory,
            seed=config.seed,
        )
        steps = build_snaple_steps(config, graph)
        recommendation_step = steps[-1]
        start = time.perf_counter()
        run = engine.run(steps, vertices=targets)
        wall = time.perf_counter() - start
        predictions: dict[int, list[int]] = {}
        scores: dict[int, dict[int, float]] = {}
        for u in targets:
            data = run.data_of(u)
            predictions[u] = list(data.get("predicted", []))
            scores[u] = dict(recommendation_step.collected_scores.get(u, {}))
        metrics = run.metrics
        return RunReport(
            backend=self.name,
            predictions=predictions,
            scores=scores,
            wall_clock_seconds=wall,
            simulated_seconds=run.simulated_seconds,
            network_bytes=metrics.total_network_bytes,
            peak_memory_bytes=metrics.peak_machine_memory_bytes,
            supersteps=len(metrics.steps),
            per_partition_seconds=[wall],
            partition_reports=[_serial_partition_report(
                predictions, metrics.total_gather_invocations,
                sum(step.apply_invocations for step in metrics.steps), wall,
            )],
            native=run,
        )
