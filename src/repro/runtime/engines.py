"""Backend adapters for the three SNAPLE execution paths (local, GAS, BSP).

The local backend owns the single-process implementation of Algorithm 2 —
a vectorized CSR kernel by default (:mod:`repro.snaple.kernel`), with the
scalar reference implementation kept behind ``mode="reference"``; the GAS
and BSP backends drive the simulated distributed engines.  All three
produce identical predictions for the same configuration and seed whenever no
probabilistic truncation is involved — the cross-backend parity tests rely on
this.
"""

from __future__ import annotations

import math
import random
import time

from repro.errors import ConfigurationError
from repro.gas.cluster import ClusterConfig, TYPE_II, cluster_of
from repro.gas.engine import GasEngine
from repro.runtime.partition import Partitioner
from repro.graph.digraph import DiGraph
from repro.graph.sampling import truncate_neighborhood
from repro.runtime.backend import BackendCapabilities, ExecutionBackend
from repro.runtime.parallel import (
    ParallelRunOutcome,
    PartitionReport,
    run_parallel_gas,
    validate_workers,
)
from repro.runtime.report import RunReport
from repro.snaple.bsp_program import SnapleBspPredictor
from repro.snaple.config import SnapleConfig
from repro.snaple.kernel import VectorizedKernel, kernel_supports
from repro.snaple.program import build_snaple_steps, top_k_predictions

__all__ = ["LocalBackend", "GasBackend", "BspBackend", "LOCAL_MODES"]


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
    """Validate and collect the checkpoint/recovery options of a backend.

    Checkpointing and crash recovery only exist on the shared-nothing
    parallel path — the simulated serial engines have no worker processes
    to lose — so every option here requires ``workers=N``.
    """
    given = {name: value for name, value in options.items()
             if value is not None}
    if given and workers is None:
        raise ConfigurationError(
            f"the {', '.join(sorted(given))} option(s) require workers=N: "
            "checkpointing and crash recovery apply to the shared-nothing "
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
    bytes.  Fault tolerance rides along: ``worker_restarts`` (always),
    ``checkpoints_written`` / ``checkpoint_bytes`` / ``checkpoint_seconds``
    when snapshots were persisted, and ``resumed_from_superstep`` when the
    run resumed (``0`` marks a from-scratch replay after a crash without a
    usable checkpoint).
    """
    extra: dict[str, float] = {
        "worker_restarts": float(outcome.worker_restarts),
    }
    if outcome.checkpoints_written:
        extra["checkpoints_written"] = float(outcome.checkpoints_written)
        extra["checkpoint_bytes"] = float(outcome.checkpoint_bytes)
        extra["checkpoint_seconds"] = float(outcome.checkpoint_seconds)
    if outcome.resumed_from is not None:
        extra["resumed_from_superstep"] = float(outcome.resumed_from)
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

    ``prepare`` runs the graph-global phases once (truncated neighborhoods
    and ``klocal`` selection for every vertex); ``run`` only performs the
    per-vertex path combination, so streaming over vertex batches costs no
    repeated global work.

    ``mode`` selects the implementation: ``"vectorized"`` (the default) runs
    the CSR-native array kernel of :mod:`repro.snaple.kernel`;
    ``"reference"`` keeps the scalar dict/loop implementation for
    cross-checking and for configurations outside the vectorized design
    space (to which the vectorized mode silently falls back — the report's
    ``extra["kernel_vectorized"]`` flag records which path actually ran).
    Both modes produce identical predictions and scores for the same
    configuration and seed.
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
        self._kernel = None
        self._gamma: list[list[int]] = []
        self._sims: list[dict[int, float]] = []
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
        self._kernel = None
        if self._mode == "vectorized" and kernel_supports(config):
            self._kernel = VectorizedKernel(graph, config)
        else:
            self._prepare_reference(graph, config)
        self._prepare_seconds = time.perf_counter() - start
        self._prepare_billed = False
        return self

    def _prepare_reference(self, graph: DiGraph, config: SnapleConfig) -> None:
        rng_truncate = random.Random(config.seed)
        rng_sample = random.Random(config.seed + 1)

        # Phase 1: truncated neighborhoods for every vertex (targets need the
        # neighborhoods of their neighbors too, so compute them globally).
        gamma: list[list[int]] = []
        for u in graph.vertices():
            neighbors = graph.out_neighbors(u).tolist()
            if (
                not math.isinf(config.truncation_threshold)
                and len(neighbors) > config.truncation_threshold
            ):
                neighbors = truncate_neighborhood(
                    neighbors,
                    config.truncation_threshold,
                    rng=rng_truncate,
                    exact=config.exact_truncation,
                )
            gamma.append(sorted(neighbors))

        # Phase 2: raw similarities and klocal selection for every vertex.
        # The selection ranks neighbors by the set similarity of equation
        # (11) (Jaccard by default), while the kept values are the score's
        # own raw similarity, which phase 3 combines along paths.  The
        # neighborhood sets are built once per vertex, not once per edge.
        similarity = config.score.similarity
        selection_similarity = config.score.selection_similarity
        gamma_sets = [frozenset(neighborhood) for neighborhood in gamma]
        sampler = config.sampler
        sims: list[dict[int, float]] = []
        for u in graph.vertices():
            neighbors = graph.out_neighbors(u).tolist()
            set_u = gamma_sets[u]
            selection = {
                v: selection_similarity(set_u, gamma_sets[v]) for v in neighbors
            }
            kept = sampler.select(selection, config.k_local, rng=rng_sample)
            if selection_similarity is similarity:
                sims.append(kept)
            else:
                sims.append({v: similarity(set_u, gamma_sets[v]) for v in kept})

        self._gamma = gamma
        self._sims = sims

    def run(self, vertices: list[int] | None = None) -> RunReport:
        """Score ``vertices`` and report timings.

        The preparation time is billed into ``wall_clock_seconds`` only on
        the first run after a ``prepare`` (so a single-shot ``predict``
        matches the historical accounting while summing per-batch reports
        from ``predict_iter`` never double-counts it); every report carries
        it separately as ``extra["prepare_seconds"]``.
        """
        _, config = self._require_prepared()
        targets = self._target_vertices(vertices)

        start = time.perf_counter()
        if self._kernel is not None:
            predictions, scores = self._kernel.run(targets)
        else:
            predictions, scores = self._run_reference(targets, config)
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
                "kernel_vectorized": 1.0 if self._kernel is not None else 0.0,
            },
        )

    def _run_reference(self, targets: list[int], config: SnapleConfig):
        """Phase 3 of the scalar reference: dict-based path accumulation."""
        gamma, sims = self._gamma, self._sims
        combinator = config.score.combinator
        aggregator = config.score.aggregator
        predictions: dict[int, list[int]] = {}
        scores: dict[int, dict[int, float]] = {}
        for u in targets:
            gamma_u = set(gamma[u])
            accumulated: dict[int, tuple[float, int]] = {}
            for v, sim_uv in sims[u].items():
                for z, sim_vz in sims[v].items():
                    if z == u or z in gamma_u:
                        continue
                    path_similarity = combinator.combine(sim_uv, sim_vz)
                    if z in accumulated:
                        value, count = accumulated[z]
                        accumulated[z] = (aggregator.pre(value, path_similarity),
                                          count + 1)
                    else:
                        accumulated[z] = (path_similarity, 1)
            final = {
                z: aggregator.post(value, count)
                for z, (value, count) in accumulated.items()
            }
            scores[u] = final
            predictions[u] = top_k_predictions(final, config.k)
        return predictions, scores


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
                 checkpoint_dir=None, checkpoint_every: int | None = None,
                 resume_from=None, worker_timeout: float | None = None,
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
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=checkpoint_every,
            resume_from=resume_from,
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
                     "checkpoint_dir", "checkpoint_every", "resume_from",
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


class BspBackend(ExecutionBackend):
    """Algorithm 2 ported to the simulated BSP/Pregel engine.

    The BSP program always computes every vertex (message passing needs all
    neighborhoods in flight); a ``vertices`` restriction only filters the
    returned predictions.

    The backend exists for the simulated comparison of message traffic
    against the GAS engine's mirror traffic; it has no ``workers=N`` path
    (real parallel execution of the same algorithm is ``gas`` with
    ``workers=N``).
    """

    name = "bsp"

    def __init__(self, cluster: ClusterConfig | None = None,
                 partitioner=None, enforce_memory: bool = True) -> None:
        super().__init__()
        self._cluster = cluster
        self._partitioner = partitioner
        self._enforce_memory = enforce_memory

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            name=self.name,
            description="simulated BSP/Pregel engine (edge-cut, explicit messages)",
            simulated=True,
            distributed=True,
            vertex_subset=False,
            incremental=False,
            options=("cluster", "partitioner", "enforce_memory"),
        )

    def run(self, vertices: list[int] | None = None) -> RunReport:
        graph, config = self._require_prepared()
        targets = self._target_vertices(vertices)
        predictor = SnapleBspPredictor(config)
        result = predictor.predict(
            graph,
            cluster=self._cluster,
            partitioner=self._partitioner,
            enforce_memory=self._enforce_memory,
        )
        metrics = result.bsp_result.metrics
        predictions = {u: result.predictions.get(u, []) for u in targets}
        return RunReport(
            backend=self.name,
            predictions=predictions,
            scores={u: result.scores.get(u, {}) for u in targets},
            wall_clock_seconds=result.wall_clock_seconds,
            simulated_seconds=result.simulated_seconds,
            network_bytes=metrics.total_network_bytes,
            peak_memory_bytes=metrics.peak_machine_memory_bytes,
            supersteps=result.bsp_result.supersteps,
            per_partition_seconds=[result.wall_clock_seconds],
            partition_reports=[_serial_partition_report(
                predictions, metrics.total_gather_invocations,
                sum(step.apply_invocations for step in metrics.steps),
                result.wall_clock_seconds,
            )],
            native=result.bsp_result,
        )
