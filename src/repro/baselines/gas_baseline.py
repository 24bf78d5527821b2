"""BASELINE: a direct implementation of 2-hop link prediction on GAS.

Section 5.3 of the paper compares SNAPLE against a "direct" GAS
implementation of Algorithm 1 restricted to 2-hop neighborhoods: every vertex
must know the neighborhoods of its neighbors' neighbors to compute Jaccard
similarities with them, which in the GAS model forces each vertex to
propagate its full neighborhood list to its neighbors and then forward those
lists one hop further.  The redundant data transfer and storage makes this
approach collapse on large graphs ("fails due to resource exhaustion").

The implementation below expresses that naive strategy as two GAS steps:

1. *NeighborhoodPropagationStep* — every vertex gathers, from each neighbor
   ``v``, the pair ``(v, Γ(v))`` and stores the full map
   ``neighborhood = {v: Γ(v)}`` in its vertex data.  This is the expensive
   step: the gathered payload is an entire adjacency list and the stored
   vertex data grows with ``Σ_v |Γ(v)|``.
2. *DirectScoringStep* — every vertex gathers, from each neighbor ``v``, the
   forwarded map of ``v``'s neighbors' neighborhoods, computes
   ``jaccard(Γ(u), Γ(z))`` for every 2-hop candidate ``z`` and keeps the
   top-``k``.

The ``gas_baseline`` engine (:class:`~repro.runtime.baselines.GasBaselineBackend`)
runs the two steps on :class:`~repro.gas.engine.GasEngine`.
"""

from __future__ import annotations

from typing import Any

from repro.gas.vertex_program import EdgeDirection, VertexProgram
from repro.graph.digraph import DiGraph
from repro.snaple.program import top_k_predictions
from repro.snaple.similarity import jaccard

__all__ = ["NeighborhoodPropagationStep", "DirectScoringStep"]


class NeighborhoodPropagationStep(VertexProgram):
    """Step 1 of BASELINE: replicate each neighbor's full adjacency list."""

    name = "propagate-neighborhoods"
    gather_direction = EdgeDirection.OUT

    def __init__(self, graph: DiGraph) -> None:
        self._graph = graph

    def gather(self, u: int, v: int, u_data: dict[str, Any],
               v_data: dict[str, Any]) -> Any:
        return {v: self._graph.out_neighbors(v).tolist()}

    def sum(self, left: Any, right: Any) -> Any:
        merged = dict(left)
        merged.update(right)
        return merged

    def apply(self, u: int, u_data: dict[str, Any], gathered: Any) -> None:
        u_data["neighborhood"] = gathered if gathered is not None else {}
        u_data["gamma"] = self._graph.out_neighbors(u).tolist()

    def compute_cost(self, value: Any) -> int:
        if not value:
            return 1
        return 1 + sum(len(neighbors) for neighbors in value.values())


class DirectScoringStep(VertexProgram):
    """Step 2 of BASELINE: score every 2-hop candidate by Jaccard."""

    name = "direct-2hop-scoring"
    gather_direction = EdgeDirection.OUT

    def __init__(self, k: int) -> None:
        self._k = k
        #: Candidate scores per vertex, kept outside the vertex data (they
        #: are an apply-phase temporary, as in SNAPLE's step 3).
        self.collected_scores: dict[int, dict[int, float]] = {}

    def gather(self, u: int, v: int, u_data: dict[str, Any],
               v_data: dict[str, Any]) -> Any:
        # v forwards the neighborhoods of *its* neighbors so that u can score
        # candidates two hops away; the whole map crosses the wire.
        return dict(v_data.get("neighborhood", {}))

    def sum(self, left: Any, right: Any) -> Any:
        merged = dict(left)
        merged.update(right)
        return merged

    def apply(self, u: int, u_data: dict[str, Any], gathered: Any) -> None:
        gamma_u = u_data.get("gamma", [])
        direct = set(gamma_u)
        scores: dict[int, float] = {}
        if gathered:
            for z, gamma_z in gathered.items():
                if z == u or z in direct:
                    continue
                scores[z] = jaccard(gamma_u, gamma_z)
        self.collected_scores[u] = scores
        u_data["predicted"] = top_k_predictions(scores, self._k)

    def compute_cost(self, value: Any) -> int:
        if not value:
            return 1
        return 1 + sum(len(neighbors) for neighbors in value.values())
