"""Algorithm 2 of the paper as three GAS vertex programs, for reference.

Run on the serial :class:`~tests.oracle.engine.GasEngine`, they are the
independent oracle the kernel (:mod:`repro.snaple.kernel`) and the serial
``gas`` accounting (:mod:`repro.snaple.accounting`) are held to.

1. *NeighborhoodSampleStep* stores the sample ``Γ̂(u)`` of the out-neighbour
   ids, probabilistically truncated to ``thrΓ`` (``"gamma"``);
2. *SimilarityStep* gathers ``(v, sim(u, v))`` per out-neighbour and keeps
   the ``klocal`` pairs the sampler selects (``"sims"``);
3. *RecommendationStep* gathers, from every kept neighbour ``v``, the
   candidates ``z ∈ Γmax(v) \\ Γ̂(u)`` with the path similarity and a path
   counter, merges them with ``⊕pre``, and applies ``⊕post`` and top-``k``
   (``"predicted"``).  The full score maps are an apply-phase temporary,
   kept on the side in ``collected_scores``.

By default each step draws from one sequential stream in vertex order
(the ``local`` and serial ``gas`` engines); with ``per_vertex_rng=True``
every vertex draws from :func:`~repro.snaple.kernel.vertex_rng` streams
(``workers=N`` and the serving index).
"""

from __future__ import annotations

import math
import random
from typing import Any

from repro.graph.digraph import DiGraph
from repro.graph.sampling import truncate_neighborhood
from repro.snaple.config import SnapleConfig
from repro.snaple.kernel import top_k_predictions, vertex_rng
from repro.snaple.similarity import NeighborhoodSetCache
from tests.oracle.engine import VertexProgram


class NeighborhoodSampleStep(VertexProgram):
    """Step 1: the truncated neighborhood sample ``Γ̂(u)``.  A vertex's
    gathers are consecutive, so its own stream is derived once per vertex."""

    name = "sample-neighborhood"

    def __init__(self, config: SnapleConfig, graph: DiGraph,
                 *, per_vertex_rng: bool = False) -> None:
        self._config = config
        self._graph = graph
        self._per_vertex_rng = per_vertex_rng
        self._rng = random.Random(config.seed)
        self._rng_vertex = -1

    def _rng_for(self, u: int) -> random.Random:
        if not self._per_vertex_rng:
            return self._rng
        if u != self._rng_vertex:
            self._rng = vertex_rng(self._config.seed, 0, u)
            self._rng_vertex = u
        return self._rng

    def gather(self, u: int, v: int, u_data: dict[str, Any],
               v_data: dict[str, Any]) -> Any:
        threshold = self._config.truncation_threshold
        degree = self._graph.out_degree(u)
        if not math.isinf(threshold) and degree > threshold:
            # Bernoulli truncation: drop this neighbor with probability
            # 1 - thrΓ/|Γ(u)| (Algorithm 2, line 3).
            if self._rng_for(u).random() > threshold / degree:
                return None
        return [v]

    def sum(self, left: Any, right: Any) -> Any:
        return left + right

    def apply(self, u: int, u_data: dict[str, Any], gathered: Any) -> None:
        neighbors = gathered if gathered is not None else []
        if self._config.exact_truncation:
            neighbors = truncate_neighborhood(
                self._graph.out_neighbors(u).tolist(),
                self._config.truncation_threshold,
                rng=self._rng_for(u),
                exact=True,
            )
        u_data["gamma"] = sorted(neighbors)


class SimilarityStep(VertexProgram):
    """Step 2: the *path* similarity (the score's raw ``sim``) and the
    *selection* similarity (equation (11)) per neighbour; keep ``klocal``."""

    name = "estimate-similarities"

    def __init__(self, config: SnapleConfig,
                 *, per_vertex_rng: bool = False) -> None:
        self._config = config
        self._per_vertex_rng = per_vertex_rng
        self._rng = random.Random(config.seed + 1)
        self._sets = NeighborhoodSetCache()

    def gather(self, u: int, v: int, u_data: dict[str, Any],
               v_data: dict[str, Any]) -> Any:
        gamma_u = self._sets.get(u, u_data.get("gamma", []))
        gamma_v = self._sets.get(v, v_data.get("gamma", []))
        score = self._config.score
        path_similarity = score.similarity(gamma_u, gamma_v)
        if score.selection_similarity is score.similarity:
            selection_similarity = path_similarity
        else:
            selection_similarity = score.selection_similarity(gamma_u, gamma_v)
        return {v: (path_similarity, selection_similarity)}

    def sum(self, left: Any, right: Any) -> Any:
        merged = dict(left)
        merged.update(right)
        return merged

    def apply(self, u: int, u_data: dict[str, Any], gathered: Any) -> None:
        pairs: dict[int, tuple[float, float]] = gathered if gathered is not None else {}
        selection = {v: sel for v, (_path, sel) in pairs.items()}
        rng = (vertex_rng(self._config.seed, 1, u)
               if self._per_vertex_rng else self._rng)
        kept = self._config.sampler.select(
            selection, self._config.k_local, rng=rng
        )
        u_data["sims"] = {v: pairs[v][0] for v in kept}

    def compute_cost(self, value: Any) -> int:
        return 4  # a similarity touches both truncated neighborhoods


class RecommendationStep(VertexProgram):
    """Step 3: combine and aggregate path similarities, emit predictions."""

    name = "compute-recommendations"

    def __init__(self, config: SnapleConfig) -> None:
        self._config = config
        #: Candidate scores per vertex: an apply-phase temporary, not ``Du``.
        self.collected_scores: dict[int, dict[int, float]] = {}
        self._sets = NeighborhoodSetCache()

    def gather(self, u: int, v: int, u_data: dict[str, Any],
               v_data: dict[str, Any]) -> Any:
        sims_u: dict[int, float] = u_data.get("sims", {})
        if v not in sims_u:
            # Only paths through the klocal kept neighbors are explored
            # (Algorithm 2, line 13).
            return None
        sims_v: dict[int, float] = v_data.get("sims", {})
        gamma_u = self._sets.get(u, u_data.get("gamma", []))
        combinator = self._config.score.combinator
        sim_uv = sims_u[v]
        partial: dict[int, tuple[float, int]] = {}
        for z, sim_vz in sims_v.items():
            if z == u or z in gamma_u:
                continue
            partial[z] = (combinator.combine(sim_uv, sim_vz), 1)
        return partial if partial else None

    def sum(self, left: Any, right: Any) -> Any:
        aggregator = self._config.score.aggregator
        merged: dict[int, tuple[float, int]] = dict(left)
        for z, (value, count) in right.items():
            if z in merged:
                current_value, current_count = merged[z]
                merged[z] = (aggregator.pre(current_value, value),
                             current_count + count)
            else:
                merged[z] = (value, count)
        return merged

    def apply(self, u: int, u_data: dict[str, Any], gathered: Any) -> None:
        aggregator = self._config.score.aggregator
        scores: dict[int, float] = {}
        if gathered:
            for z, (value, count) in gathered.items():
                scores[z] = aggregator.post(value, count)
        self.collected_scores[u] = scores
        u_data["predicted"] = top_k_predictions(scores, self._config.k)

    def compute_cost(self, value: Any) -> int:
        return 1 + len(value or ())


def build_snaple_steps(config: SnapleConfig, graph: DiGraph,
                       *, per_vertex_rng: bool = False) -> list[VertexProgram]:
    """The three GAS super-steps of Algorithm 2, in execution order."""
    return [
        NeighborhoodSampleStep(config, graph, per_vertex_rng=per_vertex_rng),
        SimilarityStep(config, per_vertex_rng=per_vertex_rng),
        RecommendationStep(config),
    ]
