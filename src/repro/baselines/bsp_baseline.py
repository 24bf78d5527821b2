"""The naive 2-hop link-prediction BASELINE expressed on the BSP substrate.

The paper's BASELINE (Section 5.3) implements Algorithm 1 directly on
GraphLab: every vertex propagates its full neighborhood so that 2-hop
neighbors can be scored with Jaccard, which is what exhausts memory on the
large graphs.  A Pregel port of the same algorithm has the same pathology in
message form: after learning its in-neighbors, every vertex must forward the
*neighborhoods of all its neighbors* to each in-neighbor, so the message
volume grows with the sum of 2-hop neighborhood sizes rather than with
``klocal²`` as SNAPLE's port does.

This module provides that port.  It exists for the engine comparison: it
shows that the BASELINE's blow-up is a property of the algorithm's data flow,
not of the GAS model, and it gives the BSP substrate a second (adversarial)
workload beyond SNAPLE itself.

The supersteps are:

0. register with out-neighbors (learn in-neighbors) and record ``Γ(u)``;
1. ship ``Γ(v)`` to every registered in-neighbor;
2. forward the received map ``{v: Γ(v)}`` to every registered in-neighbor
   (this is the quadratic step);
3. score every 2-hop candidate with Jaccard and keep the top ``k``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from repro.bsp.engine import BspEngine, BspRunResult
from repro.runtime.partition import VertexPartitioner
from repro.bsp.vertex import BspVertexProgram, ComputeContext
from repro.gas.cluster import ClusterConfig, TYPE_II, cluster_of
from repro.graph.digraph import DiGraph
from repro.snaple.program import top_k_predictions
from repro.snaple.similarity import SimilarityFn, jaccard

__all__ = ["BspBaselineProgram", "BspBaselineResult", "BspBaselinePredictor"]


class BspBaselineProgram(BspVertexProgram):
    """Four-superstep Pregel port of the naive 2-hop Jaccard BASELINE."""

    name = "baseline-bsp"
    max_supersteps = 4

    def __init__(self, k: int, similarity: SimilarityFn) -> None:
        self._k = k
        self._similarity = similarity
        #: Candidate scores per vertex, kept outside the vertex state exactly
        #: as the GAS BASELINE keeps them in its apply-phase temporary.
        self.collected_scores: dict[int, dict[int, float]] = {}

    def initial_state(self, vertex: int) -> dict[str, Any]:
        return {}

    def compute(self, state: dict[str, Any], messages: list[Any],
                context: ComputeContext) -> None:
        superstep = context.superstep
        if superstep == 0:
            state["gamma"] = sorted(context.out_neighbors())
            context.send_message_to_all_neighbors(("register", context.vertex))
        elif superstep == 1:
            state["in_neighbors"] = sorted(
                sender for kind, sender in messages if kind == "register"
            )
            for requester in state["in_neighbors"]:
                context.send_message(
                    requester, ("gamma", context.vertex, state["gamma"])
                )
        elif superstep == 2:
            # The quadratic step: forward every received neighborhood to every
            # in-neighbor so they can score their 2-hop candidates.
            neighborhood_of = {
                sender: gamma for kind, sender, gamma in messages if kind == "gamma"
            }
            state["neighbor_gamma"] = neighborhood_of
            for requester in state.get("in_neighbors", []):
                context.send_message(
                    requester, ("two_hop", context.vertex, neighborhood_of)
                )
        else:
            self._score(state, messages, context)
            context.vote_to_halt()

    def compute_cost(self, state: dict[str, Any], num_messages: int) -> int:
        # Scoring a 2-hop candidate means a Jaccard over two full
        # neighborhoods; weight it like the GAS BASELINE's scoring step.
        if "neighbor_gamma" in state:
            return 1 + 4 * num_messages
        return 1 + num_messages

    def _score(self, state: dict[str, Any], messages: list[Any],
               context: ComputeContext) -> None:
        gamma_u = state.get("gamma", [])
        existing = set(gamma_u)
        u = context.vertex
        scores: dict[int, float] = {}
        for kind, _sender, neighborhoods in messages:
            if kind != "two_hop":
                continue
            for z, gamma_z in neighborhoods.items():
                if z == u or z in existing or z in scores:
                    continue
                scores[z] = self._similarity(gamma_u, gamma_z)
        self.collected_scores[u] = scores
        state["predicted"] = top_k_predictions(scores, self._k)


@dataclass
class BspBaselineResult:
    """Predictions of the BSP BASELINE plus the engine's accounting."""

    predictions: dict[int, list[int]]
    scores: dict[int, dict[int, float]]
    k: int
    wall_clock_seconds: float
    simulated_seconds: float
    bsp_result: BspRunResult = field(repr=False, default=None)  # type: ignore[assignment]

    def predicted_edges(self) -> set[tuple[int, int]]:
        """All predicted edges as ``(source, predicted target)`` pairs."""
        return {
            (u, z) for u, targets in self.predictions.items() for z in targets
        }


class BspBaselinePredictor:
    """Naive 2-hop Jaccard link prediction on the simulated BSP engine.

    Parameters
    ----------
    k:
        Number of predictions returned per vertex.
    similarity:
        Set similarity scoring each 2-hop candidate against the source
        neighborhood (Jaccard by default, as in the paper's BASELINE).
    """

    def __init__(self, k: int = 5, *, similarity: SimilarityFn = jaccard) -> None:
        self._k = k
        self._similarity = similarity

    @property
    def k(self) -> int:
        return self._k

    def predict(
        self,
        graph: DiGraph,
        *,
        cluster: ClusterConfig | None = None,
        partitioner: VertexPartitioner | None = None,
        enforce_memory: bool = True,
    ) -> BspBaselineResult:
        """Run the four-superstep BASELINE program and collect predictions.

        Raises :class:`~repro.errors.ResourceExhaustedError` when the
        forwarded 2-hop neighborhoods exceed the cluster's (scaled) memory,
        reproducing the paper's BASELINE failures in message-passing form.
        """
        if cluster is None:
            cluster = cluster_of(TYPE_II, 1)
        engine = BspEngine(
            graph=graph,
            cluster=cluster,
            partitioner=partitioner,
            enforce_memory=enforce_memory,
        )
        program = BspBaselineProgram(self._k, self._similarity)
        start = time.perf_counter()
        run = engine.run(program)
        wall = time.perf_counter() - start
        predictions: dict[int, list[int]] = {}
        scores: dict[int, dict[int, float]] = {}
        for u in graph.vertices():
            predictions[u] = list(run.state_of(u).get("predicted", []))
            scores[u] = dict(program.collected_scores.get(u, {}))
        return BspBaselineResult(
            predictions=predictions,
            scores=scores,
            k=self._k,
            wall_clock_seconds=wall,
            simulated_seconds=run.simulated_seconds,
            bsp_result=run,
        )
