"""SNAPLE expressed as a Pregel/BSP vertex program.

The paper's Algorithm 2 targets the GAS model; porting it to BSP engines
(Giraph, Bagel) is named as future work in Section 7.  This module provides
that port on the :mod:`repro.bsp` substrate, which makes the data-flow
difference between the two models measurable: on a vertex-cut GAS engine the
truncated neighborhoods are read through mirrors (one pre-aggregated partial
per machine), whereas a message-passing BSP engine must ship each
neighborhood along every edge explicitly.

The program runs four supersteps:

0. every vertex truncates its out-neighborhood to ``Γ̂(u)`` (``thrΓ``) and
   registers itself with each out-neighbor (so vertices learn their
   in-neighbors, which plain Pregel does not expose);
1. every vertex ships ``Γ̂(v)`` to each registered in-neighbor;
2. every vertex computes the raw similarities of its out-edges from the
   received neighborhoods, keeps the ``klocal`` neighbors selected by the
   sampling policy, and ships the kept map to its in-neighbors;
3. every vertex combines (``⊗``) and aggregates (``⊕``) path similarities of
   the kept 2-hop paths and records its top-``k`` predictions.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from typing import Any

from repro.bsp.engine import BspEngine, BspRunResult
from repro.runtime.partition import VertexPartitioner
from repro.bsp.vertex import BspVertexProgram, ComputeContext
from repro.gas.cluster import ClusterConfig, TYPE_II, cluster_of
from repro.graph.digraph import DiGraph
from repro.graph.sampling import truncate_neighborhood
from repro.snaple.config import SnapleConfig
from repro.snaple.program import top_k_predictions
from repro.snaple.similarity import NeighborhoodSetCache

__all__ = [
    "SnapleBspProgram",
    "BspPredictionResult",
    "SnapleBspPredictor",
]


class SnapleBspProgram(BspVertexProgram):
    """The four-superstep BSP formulation of SNAPLE's Algorithm 2.

    Vertex state keys mirror the GAS program: ``"gamma"`` (the truncated
    neighborhood), ``"sims"`` (the kept raw similarities) and ``"predicted"``
    (the final top-``k``).  The full candidate score maps are kept on the
    program object (:attr:`collected_scores`) rather than in vertex state,
    matching the GAS implementation where they are an apply-phase temporary.
    """

    name = "snaple-bsp"
    max_supersteps = 4

    def __init__(self, config: SnapleConfig) -> None:
        self._config = config
        self._rng_truncate = random.Random(config.seed)
        self._rng_sample = random.Random(config.seed + 1)
        #: Candidate scores per vertex, for inspection by the predictor.
        self.collected_scores: dict[int, dict[int, float]] = {}
        #: Frozenset cache for the shipped neighborhoods: each ``gamma`` is
        #: compared against every in-neighbor's, so build its set once.
        self._sets = NeighborhoodSetCache()

    # ------------------------------------------------------------------
    def initial_state(self, vertex: int) -> dict[str, Any]:
        return {}

    def compute(self, state: dict[str, Any], messages: list[Any],
                context: ComputeContext) -> None:
        superstep = context.superstep
        if superstep == 0:
            self._truncate_and_register(state, context)
        elif superstep == 1:
            self._ship_neighborhood(state, messages, context)
        elif superstep == 2:
            self._select_neighbors(state, messages, context)
        else:
            self._score_candidates(state, messages, context)
            context.vote_to_halt()

    def compute_cost(self, state: dict[str, Any], num_messages: int) -> int:
        # Similar weighting to the GAS program: similarity estimation and
        # candidate scoring are charged per processed message, the cheap
        # registration/shipping steps per vertex.
        return 1 + num_messages

    # ------------------------------------------------------------------
    # Supersteps
    # ------------------------------------------------------------------
    def _truncate_and_register(self, state: dict[str, Any],
                               context: ComputeContext) -> None:
        neighbors = list(context.out_neighbors())
        threshold = self._config.truncation_threshold
        if not math.isinf(threshold) and len(neighbors) > threshold:
            neighbors = truncate_neighborhood(
                neighbors,
                threshold,
                rng=self._rng_truncate,
                exact=self._config.exact_truncation,
            )
        state["gamma"] = sorted(neighbors)
        # Registration: tell each out-neighbor who we are so it can ship its
        # neighborhood (and later its kept similarities) back to us.
        context.send_message_to_all_neighbors(("register", context.vertex))

    def _ship_neighborhood(self, state: dict[str, Any], messages: list[Any],
                           context: ComputeContext) -> None:
        in_neighbors = sorted(
            sender for kind, sender in messages if kind == "register"
        )
        state["in_neighbors"] = in_neighbors
        gamma = state.get("gamma", [])
        for requester in in_neighbors:
            context.send_message(requester, ("gamma", context.vertex, gamma))

    def _select_neighbors(self, state: dict[str, Any], messages: list[Any],
                          context: ComputeContext) -> None:
        gamma_u = self._sets.get(context.vertex, state.get("gamma", []))
        score = self._config.score
        neighborhood_of: dict[int, list[int]] = {
            sender: gamma for kind, sender, gamma in messages if kind == "gamma"
        }
        selection: dict[int, float] = {}
        path_similarity: dict[int, float] = {}
        for v, gamma_list in neighborhood_of.items():
            gamma_v = self._sets.get(v, gamma_list)
            path_similarity[v] = score.similarity(gamma_u, gamma_v)
            if score.selection_similarity is score.similarity:
                selection[v] = path_similarity[v]
            else:
                selection[v] = score.selection_similarity(gamma_u, gamma_v)
        kept = self._config.sampler.select(
            selection, self._config.k_local, rng=self._rng_sample
        )
        sims = {v: path_similarity[v] for v in kept}
        state["sims"] = sims
        for requester in state.get("in_neighbors", []):
            context.send_message(requester, ("sims", context.vertex, sims))

    def _score_candidates(self, state: dict[str, Any], messages: list[Any],
                          context: ComputeContext) -> None:
        sims_u: dict[int, float] = state.get("sims", {})
        gamma_u = set(state.get("gamma", []))
        combinator = self._config.score.combinator
        aggregator = self._config.score.aggregator
        u = context.vertex
        accumulated: dict[int, tuple[float, int]] = {}
        for kind, sender, sims_v in messages:
            if kind != "sims" or sender not in sims_u:
                continue
            sim_uv = sims_u[sender]
            for z, sim_vz in sims_v.items():
                if z == u or z in gamma_u:
                    continue
                value = combinator.combine(sim_uv, sim_vz)
                if z in accumulated:
                    current, count = accumulated[z]
                    accumulated[z] = (aggregator.pre(current, value), count + 1)
                else:
                    accumulated[z] = (value, 1)
        scores = {
            z: aggregator.post(value, count)
            for z, (value, count) in accumulated.items()
        }
        self.collected_scores[u] = scores
        state["predicted"] = top_k_predictions(scores, self._config.k)


@dataclass
class BspPredictionResult:
    """Predictions for every vertex plus the BSP engine's accounting."""

    predictions: dict[int, list[int]]
    scores: dict[int, dict[int, float]]
    config: SnapleConfig
    wall_clock_seconds: float
    simulated_seconds: float
    bsp_result: BspRunResult = field(repr=False, default=None)  # type: ignore[assignment]

    def predicted_edges(self) -> set[tuple[int, int]]:
        """All predicted edges as ``(source, predicted target)`` pairs."""
        return {
            (u, z) for u, targets in self.predictions.items() for z in targets
        }


class SnapleBspPredictor:
    """Link prediction with SNAPLE on the simulated BSP/Pregel engine.

    Produces the same predictions as
    :class:`~repro.snaple.predictor.SnapleLinkPredictor` (for identical
    configurations without truncation randomness) while accounting the
    message traffic a Pregel engine would generate, which is what the
    GAS-versus-BSP ablation compares.
    """

    def __init__(self, config: SnapleConfig | None = None) -> None:
        self._config = config if config is not None else SnapleConfig()

    @property
    def config(self) -> SnapleConfig:
        return self._config

    def predict(
        self,
        graph: DiGraph,
        *,
        cluster: ClusterConfig | None = None,
        partitioner: VertexPartitioner | None = None,
        enforce_memory: bool = True,
    ) -> BspPredictionResult:
        """Run the four-superstep SNAPLE program and collect predictions."""
        if cluster is None:
            cluster = cluster_of(TYPE_II, 1)
        engine = BspEngine(
            graph=graph,
            cluster=cluster,
            partitioner=partitioner,
            enforce_memory=enforce_memory,
            seed=self._config.seed,
        )
        program = SnapleBspProgram(self._config)
        start = time.perf_counter()
        run = engine.run(program)
        wall = time.perf_counter() - start
        predictions: dict[int, list[int]] = {}
        scores: dict[int, dict[int, float]] = {}
        for u in graph.vertices():
            predictions[u] = list(run.state_of(u).get("predicted", []))
            scores[u] = dict(program.collected_scores.get(u, {}))
        return BspPredictionResult(
            predictions=predictions,
            scores=scores,
            config=self._config,
            wall_clock_seconds=wall,
            simulated_seconds=run.simulated_seconds,
            bsp_result=run,
        )
