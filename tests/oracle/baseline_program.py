"""The Section 5.3 BASELINE as two GAS vertex programs, for reference.

1. *NeighborhoodPropagationStep* — every vertex gathers ``{v: Γ(v)}`` from
   each out-neighbour and stores the map (``"neighborhood"``) beside its
   own ``Γ(u)`` (``"gamma"``);
2. *DirectScoringStep* — every target gathers its neighbours' maps, scores
   each 2-hop candidate ``z ∉ Γ(u) ∪ {u}`` by ``jaccard(Γ(u), Γ(z))`` and
   keeps the top-``k`` (``"predicted"``); the score maps are kept on the
   side in ``collected_scores``.

Run on :class:`~tests.oracle.engine.GasEngine`, they are the oracle of the
``gas_baseline`` engine (:mod:`repro.baselines.gas_baseline`).
"""

from __future__ import annotations

from typing import Any

from repro.graph.digraph import DiGraph
from repro.snaple.kernel import top_k_predictions
from repro.snaple.similarity import jaccard
from tests.oracle.engine import VertexProgram


def _merge(left: dict, right: dict) -> dict:
    merged = dict(left)
    merged.update(right)
    return merged


def _neighborhood_cost(value: dict) -> int:
    return 1 + sum(len(neighbors) for neighbors in value.values())


class NeighborhoodPropagationStep(VertexProgram):
    """Step 1: replicate each neighbour's full adjacency list."""

    name = "propagate-neighborhoods"

    def __init__(self, graph: DiGraph) -> None:
        self._graph = graph

    def gather(self, u: int, v: int, u_data: dict[str, Any],
               v_data: dict[str, Any]) -> Any:
        return {v: self._graph.out_neighbors(v).tolist()}

    sum = staticmethod(_merge)

    def apply(self, u: int, u_data: dict[str, Any], gathered: Any) -> None:
        u_data["neighborhood"] = gathered if gathered is not None else {}
        u_data["gamma"] = self._graph.out_neighbors(u).tolist()

    compute_cost = staticmethod(_neighborhood_cost)


class DirectScoringStep(VertexProgram):
    """Step 2: score every 2-hop candidate by Jaccard."""

    name = "direct-2hop-scoring"

    def __init__(self, k: int) -> None:
        self._k = k
        self.collected_scores: dict[int, dict[int, float]] = {}

    def gather(self, u: int, v: int, u_data: dict[str, Any],
               v_data: dict[str, Any]) -> Any:
        # v forwards its neighbours' neighbourhoods; the whole map ships.
        return dict(v_data.get("neighborhood", {}))

    sum = staticmethod(_merge)

    def apply(self, u: int, u_data: dict[str, Any], gathered: Any) -> None:
        gamma_u = u_data.get("gamma", [])
        direct = set(gamma_u)
        scores = {z: jaccard(gamma_u, gamma_z)
                  for z, gamma_z in (gathered or {}).items()
                  if z != u and z not in direct}
        self.collected_scores[u] = scores
        u_data["predicted"] = top_k_predictions(scores, self._k)

    compute_cost = staticmethod(_neighborhood_cost)
