"""Experiment runner: one place that executes predictor + protocol + metrics.

Every table/figure experiment in :mod:`repro.eval.experiments` is ultimately a
set of :class:`ExperimentRun` records produced by this runner: load (or reuse)
a dataset analog, split it with the edge-removal protocol, run one registry
engine (SNAPLE local, SNAPLE on the simulated GAS cluster, the naive
BASELINE, the random-walk PPR baseline, ...), and measure recall plus
timing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.baselines.random_walk_ppr import RandomWalkConfig
from repro.errors import ResourceExhaustedError
from repro.eval.metrics import QualityReport, evaluate_predictions
from repro.eval.protocol import EdgeRemovalSplit, remove_random_edges
from repro.gas.cluster import ClusterConfig
from repro.graph.datasets import load_dataset
from repro.graph.digraph import DiGraph
from repro.runtime.report import RunReport
from repro.snaple.config import SnapleConfig
from repro.snaple.predictor import SnapleLinkPredictor

__all__ = ["ExperimentRun", "ExperimentRunner"]


@dataclass
class ExperimentRun:
    """One (dataset, predictor configuration) measurement."""

    dataset: str
    predictor: str
    quality: QualityReport | None
    wall_clock_seconds: float
    simulated_seconds: float | None = None
    failed: bool = False
    failure_reason: str = ""
    extra: dict[str, float] = field(default_factory=dict)

    @property
    def recall(self) -> float:
        """Recall of the run (0.0 when the run failed)."""
        if self.quality is None:
            return 0.0
        return self.quality.recall

    @property
    def time_seconds(self) -> float:
        """Simulated cluster time when available, wall clock otherwise."""
        if self.simulated_seconds is not None:
            return self.simulated_seconds
        return self.wall_clock_seconds


class ExperimentRunner:
    """Shared machinery for all table/figure experiments.

    Parameters
    ----------
    scale:
        Dataset scale multiplier passed to :func:`repro.graph.datasets.load_dataset`.
    seed:
        Seed shared by the dataset generator and the removal protocol.
    removed_edges_per_vertex, min_degree:
        Protocol parameters (paper defaults: 1 edge removed from vertices with
        out-degree greater than 3).
    mode:
        Execution mode applied to every ``local``-backend run
        (``"vectorized"`` / ``"reference"``, see
        :class:`repro.runtime.engines.LocalBackend`).  ``None`` keeps the
        backend's default (vectorized).
    datasets:
        Optional mapping of dataset name to a pre-built graph.  Names in
        this mapping shadow the named analogs of
        :func:`repro.graph.datasets.load_dataset`, letting callers (the
        suite runner in particular) drive the full evaluation protocol on
        arbitrary graphs — generator outputs, replayed snapshots — without
        new experiment code.
    """

    def __init__(self, *, scale: float = 1.0, seed: int = 42,
                 removed_edges_per_vertex: int = 1, min_degree: int = 3,
                 mode: str | None = None,
                 datasets: dict[str, DiGraph] | None = None) -> None:
        self._scale = scale
        self._seed = seed
        self._removed_edges_per_vertex = removed_edges_per_vertex
        self._min_degree = min_degree
        self._mode = mode
        self._datasets: dict[str, DiGraph] = dict(datasets or {})
        self._splits: dict[tuple[str, int], EdgeRemovalSplit] = {}
        self._last_report: RunReport | None = None

    @property
    def scale(self) -> float:
        return self._scale

    @property
    def seed(self) -> int:
        return self._seed

    @property
    def last_report(self) -> RunReport | None:
        """The :class:`RunReport` of the most recent successful backend run.

        ``None`` before the first run and after a failed run.  Exposed
        separately from :class:`ExperimentRun` so the run records stay
        plain serializable dataclasses.
        """
        return self._last_report

    # ------------------------------------------------------------------
    # Dataset / split management
    # ------------------------------------------------------------------
    def add_dataset(self, name: str, graph: DiGraph) -> None:
        """Register a pre-built graph under ``name`` for this runner.

        Later :meth:`dataset` / :meth:`split` / :meth:`run_backend` calls
        naming it use the given graph instead of a named analog.
        """
        self._datasets[name] = graph

    def dataset(self, name: str) -> DiGraph:
        """The graph for dataset ``name`` at this runner's scale.

        Pre-registered graphs (see :meth:`add_dataset`) take precedence;
        otherwise the synthetic analog is generated.
        """
        if name in self._datasets:
            return self._datasets[name]
        return load_dataset(name, scale=self._scale, seed=self._seed)

    def split(self, dataset_name: str,
              *, removed_edges_per_vertex: int | None = None) -> EdgeRemovalSplit:
        """The edge-removal split for ``dataset_name`` (cached per removal count)."""
        removed = (self._removed_edges_per_vertex
                   if removed_edges_per_vertex is None
                   else removed_edges_per_vertex)
        key = (dataset_name, removed)
        if key not in self._splits:
            graph = self.dataset(dataset_name)
            self._splits[key] = remove_random_edges(
                graph,
                edges_per_vertex=removed,
                min_degree=self._min_degree,
                seed=self._seed,
            )
        return self._splits[key]

    # ------------------------------------------------------------------
    # Predictor runs
    # ------------------------------------------------------------------
    def run_backend(self, dataset_name: str, *, backend: str,
                    config: SnapleConfig | None = None,
                    label: str | None = None,
                    removed_edges_per_vertex: int | None = None,
                    workers: int | None = None,
                    **options) -> ExperimentRun:
        """Run any registered execution backend against a dataset split.

        This is the generic path every specialised ``run_*`` method builds
        on: resolve the backend from the :mod:`repro.runtime` registry, run
        it on the training graph, and normalize the
        :class:`~repro.runtime.report.RunReport` accounting into an
        :class:`ExperimentRun`.  ``workers`` executes partitions in
        shared-nothing worker processes on backends that support it (the
        per-partition accounting and any worker restarts land in
        ``extra``).
        """
        split = self.split(dataset_name,
                           removed_edges_per_vertex=removed_edges_per_vertex)
        config = config if config is not None else SnapleConfig()
        predictor_label = label if label is not None else f"{config.describe()} [{backend}]"
        if workers is not None:
            options["workers"] = workers
            if label is None:
                predictor_label += f" x{workers} workers"
        if self._mode is not None and backend == "local":
            options.setdefault("mode", self._mode)
        predictor = SnapleLinkPredictor(config)
        self._last_report = None
        try:
            report = predictor.predict(split.train_graph, backend=backend,
                                       **options)
        except ResourceExhaustedError as exc:
            return ExperimentRun(
                dataset=dataset_name,
                predictor=predictor_label,
                quality=None,
                wall_clock_seconds=0.0,
                failed=True,
                failure_reason=str(exc),
            )
        self._last_report = report
        quality = evaluate_predictions(report.predictions, split)
        run = ExperimentRun(
            dataset=dataset_name,
            predictor=predictor_label,
            quality=quality,
            wall_clock_seconds=report.wall_clock_seconds,
            simulated_seconds=report.simulated_seconds,
        )
        self._merge_report_extra(run, report)
        return run

    @staticmethod
    def _merge_report_extra(run: ExperimentRun, report: RunReport) -> None:
        """Copy the report's normalized counters into ``run.extra``."""
        if report.network_bytes is not None:
            run.extra["network_bytes"] = float(report.network_bytes)
        if report.peak_memory_bytes is not None:
            run.extra["peak_memory_bytes"] = float(report.peak_memory_bytes)
        if report.workers is not None:
            run.extra["workers"] = float(report.workers)
        if report.sync_overhead_seconds is not None:
            run.extra["sync_overhead_seconds"] = float(report.sync_overhead_seconds)
        if report.per_partition_seconds:
            run.extra["max_partition_seconds"] = float(
                max(report.per_partition_seconds)
            )
        for key, value in report.extra.items():
            run.extra[key] = float(value)

    def run_snaple_local(self, dataset_name: str, config: SnapleConfig,
                         *, removed_edges_per_vertex: int | None = None) -> ExperimentRun:
        """SNAPLE in local (single-process) mode; recall-focused experiments."""
        return self.run_backend(
            dataset_name,
            backend="local",
            config=config,
            label=config.describe(),
            removed_edges_per_vertex=removed_edges_per_vertex,
        )

    def run_snaple_gas(self, dataset_name: str, config: SnapleConfig,
                       cluster: ClusterConfig,
                       *, enforce_memory: bool = True) -> ExperimentRun:
        """SNAPLE on the simulated distributed GAS engine."""
        return self.run_backend(
            dataset_name,
            backend="gas",
            config=config,
            label=f"SNAPLE {config.describe()} on {cluster.name}",
            cluster=cluster,
            enforce_memory=enforce_memory,
        )

    def run_baseline_gas(self, dataset_name: str, cluster: ClusterConfig,
                         *, k: int = 5,
                         enforce_memory: bool = True) -> ExperimentRun:
        """The naive 2-hop Jaccard BASELINE on the simulated GAS engine."""
        return self.run_backend(
            dataset_name,
            backend="gas_baseline",
            label=f"BASELINE on {cluster.name}",
            cluster=cluster,
            enforce_memory=enforce_memory,
            k=k,
        )

    def run_random_walk(self, dataset_name: str,
                        config: RandomWalkConfig) -> ExperimentRun:
        """The Cassovary-style random-walk PPR baseline.

        Runs the ``cassovary`` backend, whose simulated time charges one work
        unit per walk step on a single type-II machine, using the same
        (scaled) per-core throughput as the GAS cost model.  This keeps the
        Figure 11 / Table 6 time axis in the same simulated currency as the
        SNAPLE runs instead of mixing Python wall-clock with simulated
        cluster seconds.
        """
        return self.run_backend(
            dataset_name,
            backend="cassovary",
            label=config.describe(),
            num_walks=config.num_walks,
            depth=config.depth,
            k=config.k,
            seed=config.seed,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def speedup(reference: ExperimentRun, candidate: ExperimentRun) -> float:
        """``reference.time / candidate.time`` (∞ when the candidate is instant)."""
        if candidate.time_seconds <= 0:
            return math.inf
        return reference.time_seconds / candidate.time_seconds

    @staticmethod
    def recall_gain(reference: ExperimentRun, candidate: ExperimentRun) -> float:
        """``candidate.recall / reference.recall`` (∞ for a zero-recall reference)."""
        if reference.recall <= 0:
            return math.inf
        return candidate.recall / reference.recall
