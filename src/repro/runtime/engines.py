"""The SNAPLE engines: ``local``, ``gas`` and the two extensions on ``local``.

The local backend runs the single-process Algorithm 2 of
:mod:`repro.snaple.kernel` — its vectorized branches by default, the scalar
ones behind ``mode="reference"``.  ``khop`` (paths longer than two hops)
and ``content`` (a profile-blended raw similarity) reuse its preparation
and change one phase each.  The GAS backend simulates the
distributed engine: it computes the answers with the same kernel, in the
GAS program's draw and fold order, and derives the simulated cluster's
work, traffic and memory from the kernel's arrays and the vertex-cut
(:mod:`repro.snaple.accounting`); with ``workers=N`` it maps the kernel
over real worker processes instead.  ``local`` and the serial GAS backend
draw from the same sequential streams, so their predictions are identical
for every configuration and seed; ``workers=N`` draws per vertex and
matches them whenever no truncation or ``Γrnd`` randomness is involved.
"""

from __future__ import annotations

import time

import numpy as np

from repro.errors import ConfigurationError
from repro.gas.cluster import ClusterConfig, TYPE_II, cluster_of
from repro.graph.attributes import VertexProfiles
from repro.runtime.partition import Partitioner, partition_graph
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
from repro.snaple.content import get_profile_similarity
from repro.snaple.accounting import PathTally, SimulatedRun, superstep_metrics
from repro.snaple.kernel import (
    NeighborhoodCSR,
    build_truncated_neighborhoods,
    combine_and_rank,
    edge_similarities,
    fold_paths,
    kernel_supports,
    sample_neighborhoods,
    select_klocal,
)

__all__ = ["LocalBackend", "GasBackend", "KHopBackend", "ContentBackend",
           "LOCAL_MODES"]


def _reject_cluster_with_workers(workers: int | None, **options) -> None:
    """Simulated-cluster options and real worker processes cannot be combined.

    ``cluster``, ``partitioner`` and ``enforce_memory`` configure the
    simulated engine; ``workers=N`` has no simulated cluster to apply them
    to, so any of them given alongside it is an error rather than ignored.
    """
    given = sorted(name for name, value in options.items()
                   if value is not None)
    if given and workers is not None:
        raise ConfigurationError(
            "the 'workers' option runs partitions in real worker processes "
            f"and cannot be combined with the simulated-cluster option(s) "
            f"{', '.join(repr(name) for name in given)}; drop one of the two"
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
    )


def _parallel_report(backend_name: str,
                     outcome: ParallelRunOutcome) -> RunReport:
    """Normalize a parallel outcome into the shared report type.

    Simulated-cluster fields (``network_bytes`` included) stay ``None``: a
    parallel run measures real wall-clock parallelism and simulates no
    network.  The totals are derived from the per-partition reports so they
    cannot drift.

    ``extra`` records the phase outputs hosted on the segment plane (peak
    ``state_plane_peak_bytes``), the coordinator routing time and the
    transport bytes, with per-phase breakdowns.  Fault
    tolerance rides along as ``worker_restarts``: the number of pool
    respawns, each of which replayed the run from phase 0.
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
        extra["transport_bytes"] = float(sum(outcome.transport_bytes))
        for index, num_bytes in enumerate(outcome.transport_bytes):
            extra[f"transport_bytes_step{index}"] = float(num_bytes)
    return RunReport(
        extra=extra,
        backend=backend_name,
        predictions=outcome.predictions,
        scores=outcome.scores,
        wall_clock_seconds=outcome.wall_clock_seconds,
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
        blend = self._blend(graph)
        start = time.perf_counter()
        self._vectorized = (self._mode == "vectorized"
                            and kernel_supports(config))
        self._gamma = build_truncated_neighborhoods(graph, config)
        edges = edge_similarities(graph, self._gamma, config,
                                  vectorized=self._vectorized, blend=blend)
        self._kept = select_klocal(edges, config)
        self._prepare_seconds = time.perf_counter() - start
        self._prepare_billed = False
        return self

    def _blend(self, graph: DiGraph):
        """Phase 2's per-edge blend (``None``: the configured similarity)."""
        return None

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


class KHopBackend(LocalBackend):
    """SNAPLE scoring over paths of length 2 up to ``num_hops``.

    The paper restricts path combination to 2-hop paths and notes
    (footnote 2, Section 3.1) that the combinator ``⊗`` folds along longer
    paths.  Phases 1, 2 and 3a are the local backend's; phase 3 is
    :func:`~repro.snaple.kernel.fold_paths` with ``hops=num_hops``: the
    simple paths of length 2 .. ``num_hops`` through kept neighbours each
    contribute the fold of their edge similarities, and ``⊕`` reduces the
    paths reaching one candidate.  ``num_hops=2`` is exactly Algorithm 2.
    The candidate space grows as ``klocal ** num_hops``.

    ``extra["paths_length<L>"]`` counts the contributing paths of each
    length ``L``.
    """

    name = "khop"

    def __init__(self, num_hops: int = 2) -> None:
        super().__init__()
        if num_hops < 2:
            raise ConfigurationError("num_hops must be at least 2")
        self._num_hops = num_hops

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            name=self.name,
            description="Algorithm 2 over paths of up to num_hops hops",
            incremental=True,
            options=("num_hops",),
        )

    def run(self, vertices: list[int] | None = None) -> RunReport:
        graph, config = self._require_prepared()
        targets = self._target_vertices(vertices)
        start = time.perf_counter()
        predictions, scores, paths = fold_paths(
            self._gamma, self._kept, config, targets, hops=self._num_hops)
        wall = time.perf_counter() - start
        if not self._prepare_billed:
            wall += self._prepare_seconds
            self._prepare_billed = True
        extra = {"prepare_seconds": self._prepare_seconds}
        for length, count in paths.items():
            extra[f"paths_length{length}"] = float(count)
        return RunReport(backend=self.name, predictions=predictions,
                         scores=scores, wall_clock_seconds=wall, extra=extra)


class ContentBackend(LocalBackend):
    """SNAPLE scoring with a hybrid topology + content raw similarity.

    Phase 2 blends each edge's similarities with the profile similarity of
    its two endpoints: ``(1 - w)·sim_topo + w·sim_profile`` for
    ``w = content_weight``.  Every other phase is the local backend's, so
    ``content_weight=0`` is the ``local`` engine.  ``profiles`` must cover
    every vertex of the graph.
    """

    name = "content"

    def __init__(self, profiles: VertexProfiles, content_weight: float = 0.5,
                 profile_similarity: str = "jaccard") -> None:
        super().__init__()
        if not 0.0 <= content_weight <= 1.0:
            raise ConfigurationError("content_weight must be in [0, 1]")
        self._profile_similarity = get_profile_similarity(profile_similarity)
        self._profiles = profiles
        self._content_weight = content_weight

    @classmethod
    def capabilities(cls) -> BackendCapabilities:
        return BackendCapabilities(
            name=cls.name,
            description="Algorithm 2 with a profile-blended raw similarity",
            incremental=True,
            options=("profiles", "content_weight", "profile_similarity"),
        )

    def _blend(self, graph: DiGraph):
        profiles = self._profiles
        if profiles.num_vertices < graph.num_vertices:
            raise ConfigurationError(
                f"profiles cover {profiles.num_vertices} vertices but the "
                f"graph has {graph.num_vertices}"
            )
        weight = self._content_weight
        if weight == 0.0:
            return None
        similarity = self._profile_similarity

        def hybrid(u: int, v: int, topo: float) -> float:
            content = similarity(profiles.of(u), profiles.of(v))
            return (1.0 - weight) * topo + weight * content

        return hybrid


class GasBackend(ExecutionBackend):
    """Algorithm 2 on the simulated gather-apply-scatter engine.

    A serial run places the graph with the vertex-cut
    (:func:`~repro.runtime.partition.partition_graph`), computes the
    answers with the kernel — phase 1 replaying the GAS gather's draws on
    the sequential stream (:func:`~repro.snaple.kernel.sample_neighborhoods`),
    phase 2 with ``rng_mode="sequential"`` and phase 3b in gather (CSR)
    order over target blocks — and charges each superstep from the arrays
    (:func:`~repro.snaple.accounting.superstep_metrics`).  The charges,
    simulated seconds and ``ResourceExhaustedError`` are those of
    Algorithm 2's vertex programs run edge by edge (the oracle in
    ``tests/oracle``); scores fold in CSR order on every cluster, where
    that engine would fold each mirror's partial first.
    ``report.native`` is a :class:`~repro.snaple.accounting.SimulatedRun`.

    With ``workers=N`` the simulated cluster is replaced by real
    shared-nothing parallelism: vertices are hashed onto ``N`` worker
    processes through :mod:`repro.runtime.parallel`, and the report carries
    per-partition accounting instead of simulated cluster time or traffic.
    The simulated-cluster options (``cluster``, ``partitioner``,
    ``enforce_memory``) are rejected alongside ``workers``.  Predictions
    are identical for every worker count.

    ``vertices`` restricts only the recommendation step: the sampling and
    similarity steps always cover the whole graph, because a target's
    recommendations read its neighbours' Γ̂ and kept maps.  A subset run
    therefore returns exactly the full run's answers for those vertices.
    """

    name = "gas"

    def __init__(self, cluster: ClusterConfig | None = None,
                 partitioner: Partitioner | None = None,
                 enforce_memory: bool | None = None,
                 workers: int | None = None,
                 worker_timeout: float | None = None,
                 max_restarts: int | None = None, fault=None,
                 pool=None) -> None:
        super().__init__()
        _reject_cluster_with_workers(workers, cluster=cluster,
                                     partitioner=partitioner,
                                     enforce_memory=enforce_memory)
        self._cluster = cluster
        self._partitioner = partitioner
        # Not given (``None``): the serial engine enforces memory limits.
        self._enforce_memory = (True if enforce_memory is None
                                else enforce_memory)
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
                vertices=None if vertices is None else targets,
                pool=self._pool,
                **self._fault_tolerance,
            )
            return _parallel_report(self.name, outcome)
        return self._simulate(graph, config, targets)

    def _simulate(self, graph: DiGraph, config: SnapleConfig,
                  targets: list[int]) -> RunReport:
        """The serial run: kernel answers plus array-derived accounting."""
        cluster = self._cluster if self._cluster is not None else cluster_of(TYPE_II, 1)
        partition = partition_graph(graph, cluster.num_machines,
                                    partitioner=self._partitioner,
                                    seed=config.seed)
        start = time.perf_counter()
        everyone = np.arange(graph.num_vertices, dtype=np.int64)
        gamma_sizes, sample, gathered = sample_neighborhoods(graph, config,
                                                             everyone)
        gamma = NeighborhoodCSR.from_rows(graph.num_vertices, gamma_sizes,
                                          sample)
        kept = select_klocal(
            edge_similarities(graph, gamma, config), config,
            rng_mode="sequential")
        target_array = np.asarray(targets, dtype=np.int64)
        paths = PathTally(graph, partition)
        predictions, scores = combine_and_rank(
            graph, gamma, kept, config, target_array, neighbor_order="csr",
            materialize_scores=False, on_trace=paths)
        metrics = superstep_metrics(
            graph, cluster, partition, paths,
            gamma_sizes=gamma_sizes,
            gathered=gathered,
            kept_sizes=np.diff(kept.indptr),
            targets=target_array,
            predicted_sizes=np.fromiter(
                (len(predictions[u]) for u in targets), dtype=np.int64,
                count=len(targets)),
            enforce_memory=self._enforce_memory,
        )
        wall = time.perf_counter() - start
        metrics.wall_clock_seconds = wall
        return RunReport(
            backend=self.name,
            predictions=predictions,
            scores=scores,
            wall_clock_seconds=wall,
            simulated_seconds=metrics.simulated_seconds,
            network_bytes=metrics.total_network_bytes,
            peak_memory_bytes=metrics.peak_machine_memory_bytes,
            supersteps=len(metrics.steps),
            per_partition_seconds=[wall],
            partition_reports=[_serial_partition_report(
                predictions, metrics.total_gather_invocations,
                sum(step.apply_invocations for step in metrics.steps), wall,
            )],
            native=SimulatedRun(metrics=metrics, partition=partition,
                                cluster=cluster),
        )
