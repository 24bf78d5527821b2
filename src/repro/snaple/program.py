"""Algorithm 2 of the paper: SNAPLE's link prediction as three GAS steps.

These vertex programs are the test oracle, not a production path: no
backend runs them.  Run on the serial :class:`~repro.gas.engine.GasEngine`,
they are the independent reference the kernel (:mod:`repro.snaple.kernel`)
is held to — its answers, and the accounting the serial simulated backend
derives from the kernel's arrays (:mod:`repro.snaple.accounting`).

Step 1 (*NeighborhoodSampleStep*) — each vertex gathers the ids of its
out-neighbors, probabilistically truncated to ``thrΓ`` elements, and stores
the sample ``Γ̂(u)`` in its vertex data.

Step 2 (*SimilarityStep*) — each vertex gathers ``(v, sim(u, v))`` pairs for
its out-neighbors, computed from the truncated neighborhoods, and keeps only
the ``klocal`` pairs selected by the sampling policy (``Γmax`` by default) in
a dictionary ``sims``.

Step 3 (*RecommendationStep*) — each vertex gathers, from every kept neighbor
``v``, the candidates ``z ∈ Γmax(v) \\ Γ̂(u)`` together with the path
similarity ``sims[v] ⊗ v.sims[z]`` and a path counter; the gather sum merges
candidates with the aggregator's ``pre`` operator, and apply finishes with
``post`` and keeps the top-``k`` scores as predictions.

The vertex-data keys written by the steps are:

* ``"gamma"`` — the truncated neighborhood sample (list of vertex ids);
* ``"sims"`` — dict mapping kept neighbors to raw similarities;
* ``"predicted"`` — the top-``k`` predicted vertex ids (list).

Randomness comes in two flavours.  By default each step draws from one
sequential stream seeded from the configuration, consumed in vertex order —
the historical behaviour, which ties the outcome to the engine's iteration
order; the ``local`` and serial ``gas`` backends are tested against it.
With ``per_vertex_rng=True`` every vertex draws from its own stream
derived from ``(seed, step, vertex)`` via :func:`vertex_rng`, making the
outcome independent of the order vertices are processed in: the scalar
oracle the ``workers=N`` executor and the serving index are tested
against — both run :mod:`repro.snaple.kernel` over vertex blocks, drawing
from the same per-vertex streams.

The full candidate score maps are *not* stored in the vertex data: in
Algorithm 2 they are a temporary of the apply phase, so they are neither
replicated to mirrors nor counted against machine memory.  The
:class:`RecommendationStep` keeps them on the side (``collected_scores``) so
callers can still inspect them.
"""

from __future__ import annotations

import heapq
import math
import random
from typing import Any

from repro.gas.vertex_program import EdgeDirection, VertexProgram
from repro.graph.digraph import DiGraph
from repro.graph.sampling import truncate_neighborhood
from repro.snaple.config import SnapleConfig
from repro.snaple.similarity import NeighborhoodSetCache

__all__ = [
    "NeighborhoodSampleStep",
    "SimilarityStep",
    "RecommendationStep",
    "build_snaple_steps",
    "top_k_predictions",
    "vertex_rng",
]

def top_k_predictions(scores: dict[int, float], k: int) -> list[int]:
    """Top-``k`` candidates by score, ties broken by ascending vertex id.

    ``heapq.nsmallest`` on ``(-score, vertex)`` is documented to equal
    ``sorted(...)[:k]`` — same ranking and tie-breaking as the historical
    full sort, in O(n log k) instead of O(n log n).
    """
    ranked = heapq.nsmallest(k, scores.items(),
                             key=lambda item: (-item[1], item[0]))
    return [vertex for vertex, _ in ranked]


_MASK64 = 0xFFFFFFFFFFFFFFFF


def vertex_rng(seed: int, salt: int, vertex: int) -> random.Random:
    """A :class:`random.Random` derived deterministically from ``(seed, salt, vertex)``.

    The splitmix64-style finalizer decorrelates nearby ``(seed, vertex)``
    pairs without relying on :func:`hash`, whose value for strings changes
    between processes — per-vertex streams must agree across worker
    processes.
    """
    x = ((seed & _MASK64)
         ^ ((salt * 0x9E3779B97F4A7C15) & _MASK64)
         ^ ((vertex * 0xBF58476D1CE4E5B9) & _MASK64))
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return random.Random(x ^ (x >> 31))


class NeighborhoodSampleStep(VertexProgram):
    """Step 1: build the truncated neighborhood sample ``Γ̂(u)``.

    With ``per_vertex_rng=True`` the truncation draws come from the vertex's
    own stream (derived once when the engine moves to a new vertex; gather
    calls for one vertex are consecutive in every engine), so the sample does
    not depend on the order vertices are processed in.
    """

    name = "sample-neighborhood"
    gather_direction = EdgeDirection.OUT

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
    """Step 2: estimate raw similarities and keep the ``klocal`` best.

    The gather produces, for each neighbor, both the *path* similarity (the
    score configuration's raw ``sim``, which step 3 combines along 2-hop
    paths) and the *selection* similarity (Jaccard on the truncated
    neighborhoods, equation (11)) used to rank neighbors for the ``klocal``
    sampling.  For the Jaccard-based Table 3 rows the two coincide.
    """

    name = "estimate-similarities"
    gather_direction = EdgeDirection.OUT

    def __init__(self, config: SnapleConfig,
                 *, per_vertex_rng: bool = False) -> None:
        self._config = config
        self._per_vertex_rng = per_vertex_rng
        self._rng = random.Random(config.seed + 1)
        #: Neighborhoods are fixed once step 1 ran, and each one is compared
        #: against every neighbor's — cache the frozensets per vertex instead
        #: of rebuilding them on every gather.
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
        # A raw similarity touches both truncated neighborhoods; charge work
        # proportional to a small constant so the cost model distinguishes
        # this step from the cheap id-collection of step 1.
        return 4


class RecommendationStep(VertexProgram):
    """Step 3: combine and aggregate path similarities, emit predictions."""

    name = "compute-recommendations"
    gather_direction = EdgeDirection.OUT

    def __init__(self, config: SnapleConfig) -> None:
        self._config = config
        #: Candidate scores per vertex, kept outside the GAS vertex data so
        #: they are not synchronized to replicas (they are an apply-phase
        #: temporary in Algorithm 2).
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
        if value is None:
            return 1
        # Work proportional to the number of candidate vertices emitted.
        return 1 + len(value)


def build_snaple_steps(config: SnapleConfig, graph: DiGraph,
                       *, per_vertex_rng: bool = False) -> list[VertexProgram]:
    """The three GAS super-steps of Algorithm 2, in execution order.

    ``per_vertex_rng=True`` derives all randomness per vertex instead of from
    one sequential stream, making the outcome independent of vertex
    processing order: the serial oracle of the ``workers=N`` executor.
    """
    return [
        NeighborhoodSampleStep(config, graph, per_vertex_rng=per_vertex_rng),
        SimilarityStep(config, per_vertex_rng=per_vertex_rng),
        RecommendationStep(config),
    ]
