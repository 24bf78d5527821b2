"""The paper's competitors as registry engines.

Four baselines plug into the same registry as the SNAPLE engines:

* ``gas_baseline`` — the Section 5.3 BASELINE: naive 2-hop Jaccard
  prediction expressed directly as GAS supersteps
  (:mod:`repro.baselines.gas_baseline`), answered from the CSR and charged
  to the simulated cluster from array lengths and the vertex-cut;
* ``cassovary`` — the Section 5.9 competitor: random-walk personalized
  PageRank on a Cassovary-like in-memory graph, with its walk steps converted
  to simulated seconds on one type-II machine (the same currency as the GAS
  cost model, so Figure 11 / Table 6 comparisons stay apples-to-apples);
* ``random_walk_ppr`` — the same predictor reported in raw wall-clock time,
  for callers who want the untranslated measurement;
* ``topological`` — the classic Liben-Nowell & Kleinberg 2-hop scores
  (Jaccard, Adamic/Adar, ...), the quality reference of Algorithm 1.

Where an option is not given, the baselines inherit ``k`` and ``seed`` from
the :class:`~repro.snaple.config.SnapleConfig` passed to ``prepare`` so that
a cross-backend sweep keeps one source of truth for those knobs.
"""

from __future__ import annotations

import random
import time

from repro.baselines.cassovary import InMemoryGraph
from repro.baselines.gas_baseline import run_baseline
from repro.baselines.random_walk_ppr import RandomWalkConfig
from repro.baselines.topological import TOPOLOGICAL_SCORES
from repro.errors import ConfigurationError
from repro.gas.cluster import ClusterConfig, TYPE_II, cluster_of
from repro.runtime.backend import BackendCapabilities, ExecutionBackend
from repro.runtime.partition import partition_graph
from repro.runtime.report import RunReport
from repro.snaple.accounting import SimulatedRun
from repro.snaple.kernel import top_k_predictions

__all__ = ["CassovaryBackend", "GasBaselineBackend", "RandomWalkPprBackend",
           "TopologicalBackend"]


class GasBaselineBackend(ExecutionBackend):
    """The naive 2-hop Jaccard BASELINE on the simulated GAS cluster.

    Every vertex gathers its neighbours' full adjacency lists, then their
    forwarded maps, and scores each 2-hop candidate by Jaccard
    (:func:`~repro.baselines.gas_baseline.run_baseline`).  On large graphs
    (or small simulated memory capacities) the run raises
    :class:`~repro.errors.ResourceExhaustedError`, reproducing the paper's
    observation that the naive approach cannot handle orkut or twitter-rv.
    The partition is the random vertex-cut seeded by the configuration.
    ``report.native`` is a :class:`~repro.snaple.accounting.SimulatedRun`.
    """

    name = "gas_baseline"

    def __init__(self, cluster: ClusterConfig | None = None,
                 enforce_memory: bool = True, k: int | None = None) -> None:
        super().__init__()
        self._cluster = cluster
        self._enforce_memory = enforce_memory
        self._k = k

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            name=self.name,
            description="naive 2-hop Jaccard BASELINE on the simulated GAS engine",
            simulated=True,
            distributed=True,
            options=("cluster", "enforce_memory", "k"),
        )

    def run(self, vertices: list[int] | None = None) -> RunReport:
        graph, config = self._require_prepared()
        targets = self._target_vertices(vertices)
        cluster = (self._cluster if self._cluster is not None
                   else cluster_of(TYPE_II, 1))
        partition = partition_graph(graph, cluster.num_machines,
                                    seed=config.seed)
        start = time.perf_counter()
        predictions, scores, metrics = run_baseline(
            graph, cluster, partition, targets,
            self._k if self._k is not None else config.k,
            enforce_memory=self._enforce_memory)
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
            native=SimulatedRun(metrics=metrics, partition=partition,
                                cluster=cluster),
        )


class _WalkBackendBase(ExecutionBackend):
    """Random-walk PPR: recommend each vertex's ``k`` most-visited vertices.

    For every target, ``num_walks`` walks of depth ``depth`` run on an
    in-memory graph from one stream seeded once per run, in target order;
    the candidates are the visited vertices other than the target and its
    out-neighbours, ranked by visit count (ties by ascending id).  A
    candidate's score is its visit count; ``extra["walk_steps"]`` counts
    the steps taken.
    """

    #: Whether walk steps are converted into simulated cluster seconds.
    simulate_time = False

    def __init__(self, num_walks: int = 100, depth: int = 3,
                 k: int | None = None, seed: int | None = None) -> None:
        super().__init__()
        self._num_walks = num_walks
        self._depth = depth
        self._k = k
        self._seed = seed

    def run(self, vertices: list[int] | None = None) -> RunReport:
        graph, config = self._require_prepared()
        targets = self._target_vertices(vertices)
        walk = RandomWalkConfig(
            num_walks=self._num_walks,
            depth=self._depth,
            k=self._k if self._k is not None else config.k,
            seed=self._seed if self._seed is not None else config.seed,
        )
        memory_graph = InMemoryGraph(graph)
        rng = random.Random(walk.seed)
        predictions: dict[int, list[int]] = {}
        scores: dict[int, dict[int, float]] = {}
        steps = 0
        start = time.perf_counter()
        for u in targets:
            visits, stats = memory_graph.run_walks(u, walk.num_walks,
                                                   walk.depth, rng)
            steps += stats.steps_taken
            direct = set(memory_graph.out_neighbors(u).tolist())
            scores[u] = {z: float(count) for z, count in visits.items()
                         if z != u and z not in direct}
            predictions[u] = top_k_predictions(scores[u], walk.k)
        wall = time.perf_counter() - start
        simulated = None
        if self.simulate_time:
            simulated = steps / (TYPE_II.cores * TYPE_II.core_ops_per_second)
        return RunReport(
            backend=self.name,
            predictions=predictions,
            scores=scores,
            wall_clock_seconds=wall,
            simulated_seconds=simulated,
            extra={"walk_steps": float(steps)},
        )


class CassovaryBackend(_WalkBackendBase):
    """The paper's Cassovary competitor with simulated-time accounting."""

    name = "cassovary"
    simulate_time = True

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            name=self.name,
            description="random-walk PPR on an in-memory graph, simulated-time accounting",
            simulated=True,
            options=("num_walks", "depth", "k", "seed"),
        )


class RandomWalkPprBackend(_WalkBackendBase):
    """Random-walk PPR reported in raw wall-clock time."""

    name = "random_walk_ppr"
    simulate_time = False

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            name=self.name,
            description="random-walk personalized PageRank, wall-clock accounting",
            options=("num_walks", "depth", "k", "seed"),
        )


class TopologicalBackend(ExecutionBackend):
    """Classic closed-form topological scores over 2-hop candidates.

    ``score`` names one of :data:`~repro.baselines.topological.TOPOLOGICAL_SCORES`;
    every 2-hop candidate of a target is scored on the full (untruncated)
    neighborhoods and the ``k`` best are predicted.
    """

    name = "topological"

    def __init__(self, score: str = "jaccard", k: int | None = None) -> None:
        super().__init__()
        if score not in TOPOLOGICAL_SCORES:
            raise ConfigurationError(
                f"unknown topological score {score!r}; available: "
                f"{', '.join(sorted(TOPOLOGICAL_SCORES))}"
            )
        if k is not None and k < 1:
            raise ConfigurationError("k must be >= 1")
        self._score = TOPOLOGICAL_SCORES[score]
        self._k = k

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            name=self.name,
            description="closed-form topological scores (Jaccard, Adamic/Adar, ...)",
            options=("score", "k"),
        )

    def run(self, vertices: list[int] | None = None) -> RunReport:
        graph, config = self._require_prepared()
        targets = self._target_vertices(vertices)
        k = self._k if self._k is not None else config.k
        predictions: dict[int, list[int]] = {}
        scores: dict[int, dict[int, float]] = {}
        start = time.perf_counter()
        for u in targets:
            scores[u] = {z: self._score(graph, u, z)
                         for z in graph.two_hop_neighbors(u)}
            predictions[u] = top_k_predictions(scores[u], k)
        return RunReport(
            backend=self.name,
            predictions=predictions,
            scores=scores,
            wall_clock_seconds=time.perf_counter() - start,
        )
