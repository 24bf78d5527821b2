"""Classic standalone topological link predictors (Liben-Nowell & Kleinberg).

The ``topological`` engine (:class:`~repro.runtime.baselines.TopologicalBackend`)
runs the single-machine version of Algorithm 1 with the 2-hop restriction of
equation (2): candidates are the vertices two hops away and the score is one
of the closed-form topological metrics below, computed from the full
(untruncated) neighborhoods.  They serve as quality references in tests and
examples — the paper's section 5.9 notes that this direct approach is neither
fast nor accurate enough compared to SNAPLE or walk-based PPR on the large
datasets.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from repro.graph.digraph import DiGraph

__all__ = [
    "common_neighbors_score",
    "jaccard_score",
    "adamic_adar_score",
    "preferential_attachment_score",
    "resource_allocation_score",
    "TOPOLOGICAL_SCORES",
]

#: A topological score takes (graph, u, z) and returns a float.
ScoreFn = Callable[[DiGraph, int, int], float]


def common_neighbors_score(graph: DiGraph, u: int, z: int) -> float:
    """``|Γ(u) ∩ Γ(z)|``."""
    return float(len(graph.neighbor_set(u) & graph.neighbor_set(z)))


def jaccard_score(graph: DiGraph, u: int, z: int) -> float:
    """``|Γ(u) ∩ Γ(z)| / |Γ(u) ∪ Γ(z)|``."""
    set_u = graph.neighbor_set(u)
    set_z = graph.neighbor_set(z)
    union = len(set_u | set_z)
    if union == 0:
        return 0.0
    return len(set_u & set_z) / union


def adamic_adar_score(graph: DiGraph, u: int, z: int) -> float:
    """Sum of ``1 / log|Γ(w)|`` over common neighbors ``w``."""
    common = graph.neighbor_set(u) & graph.neighbor_set(z)
    score = 0.0
    for w in common:
        degree = graph.out_degree(w)
        if degree > 1:
            score += 1.0 / math.log(degree)
    return score


def preferential_attachment_score(graph: DiGraph, u: int, z: int) -> float:
    """``|Γ(u)| · |Γ(z)|``."""
    return float(graph.out_degree(u) * graph.out_degree(z))


def resource_allocation_score(graph: DiGraph, u: int, z: int) -> float:
    """Sum of ``1 / |Γ(w)|`` over common neighbors ``w``."""
    common = graph.neighbor_set(u) & graph.neighbor_set(z)
    score = 0.0
    for w in common:
        degree = graph.out_degree(w)
        if degree > 0:
            score += 1.0 / degree
    return score


#: Registry of classic topological scores by name.
TOPOLOGICAL_SCORES: dict[str, ScoreFn] = {
    "common_neighbors": common_neighbors_score,
    "jaccard": jaccard_score,
    "adamic_adar": adamic_adar_score,
    "preferential_attachment": preferential_attachment_score,
    "resource_allocation": resource_allocation_score,
}
