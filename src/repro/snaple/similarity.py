"""Raw vertex-to-vertex similarity metrics (equation (6) of the paper).

SNAPLE builds its scores from a *raw* similarity computed only between
adjacent vertices, from their (truncated) neighborhoods.  The paper uses
Jaccard's coefficient for all of Table 3 except PPR, which replaces the
similarity with ``1/|Γ(v)|``, and the *counter* score, which fixes it to 1.
Several alternative set similarities are provided for experimentation.

Every similarity accepts any collection of vertex ids.  Passing a
``set``/``frozenset`` skips the per-call set construction — the kernel's
scalar per-edge loop builds one frozenset per vertex, and the GAS vertex
programs (whose vertex data holds neighborhoods as lists) share a
:class:`NeighborhoodSetCache` keyed by vertex, since one neighborhood is
compared against many others.

Contract note for *custom* similarity callables plugged into a
:class:`~repro.snaple.scoring.ScoreConfig`: the engines may hand them either
raw neighborhood lists or prebuilt (deduplicated, unordered) frozensets of
the same vertices.  A similarity must therefore be insensitive to element
order and multiplicity — which every set similarity is; the built-ins
normalize through :func:`as_neighbor_set`.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from collections.abc import Callable, Collection, Iterable

from repro.errors import ConfigurationError

__all__ = [
    "SimilarityFn",
    "NeighborhoodSetCache",
    "as_neighbor_set",
    "jaccard",
    "common_neighbors",
    "cosine",
    "dice",
    "adamic_adar_weight",
    "overlap_coefficient",
    "constant_one",
    "inverse_degree",
    "SIMILARITIES",
    "get_similarity",
]

#: A raw similarity takes the (truncated) neighborhoods of the two endpoints
#: and returns a non-negative float.
SimilarityFn = Callable[[Collection[int], Collection[int]], float]


def as_neighbor_set(neighbors: Collection[int]) -> Collection[int]:
    """``neighbors`` as a set, reusing it when it already is one."""
    if isinstance(neighbors, (set, frozenset)):
        return neighbors
    return set(neighbors)


class NeighborhoodSetCache:
    """Bounded LRU cache of neighborhood frozensets, keyed by vertex id.

    The scalar GAS gathers compare each vertex's truncated neighborhood
    against every neighbor's, rebuilding the same sets over and over.  A
    vertex program holds one cache per run (neighborhoods are fixed once
    step 1 writes them) and calls :meth:`get` instead of ``set(...)``.
    """

    def __init__(self, maxsize: int = 65536) -> None:
        if maxsize < 1:
            raise ConfigurationError("maxsize must be >= 1")
        self._maxsize = maxsize
        self._entries: OrderedDict[int, frozenset] = OrderedDict()

    def get(self, vertex: int, neighbors: Iterable[int]) -> frozenset:
        """The cached frozenset for ``vertex``, built from ``neighbors`` on miss."""
        entry = self._entries.get(vertex)
        if entry is not None:
            self._entries.move_to_end(vertex)
            return entry
        entry = frozenset(neighbors)
        self._entries[vertex] = entry
        if len(self._entries) > self._maxsize:
            self._entries.popitem(last=False)
        return entry

    def __len__(self) -> int:
        return len(self._entries)


def jaccard(neighbors_u: Collection[int], neighbors_v: Collection[int]) -> float:
    """Jaccard coefficient ``|Γ(u) ∩ Γ(v)| / |Γ(u) ∪ Γ(v)|``."""
    set_u = as_neighbor_set(neighbors_u)
    set_v = as_neighbor_set(neighbors_v)
    if not set_u and not set_v:
        return 0.0
    intersection = len(set_u & set_v)
    union = len(set_u | set_v)
    return intersection / union if union else 0.0


def common_neighbors(neighbors_u: Collection[int],
                     neighbors_v: Collection[int]) -> float:
    """Raw count of common neighbors ``|Γ(u) ∩ Γ(v)|``."""
    set_u = as_neighbor_set(neighbors_u)
    set_v = as_neighbor_set(neighbors_v)
    return float(len(set_u & set_v))


def cosine(neighbors_u: Collection[int], neighbors_v: Collection[int]) -> float:
    """Cosine (Salton) similarity between neighborhood indicator vectors."""
    set_u = as_neighbor_set(neighbors_u)
    set_v = as_neighbor_set(neighbors_v)
    if not set_u or not set_v:
        return 0.0
    return len(set_u & set_v) / math.sqrt(len(set_u) * len(set_v))


def dice(neighbors_u: Collection[int], neighbors_v: Collection[int]) -> float:
    """Sørensen–Dice coefficient ``2|Γ(u) ∩ Γ(v)| / (|Γ(u)| + |Γ(v)|)``."""
    set_u = as_neighbor_set(neighbors_u)
    set_v = as_neighbor_set(neighbors_v)
    total = len(set_u) + len(set_v)
    if total == 0:
        return 0.0
    return 2 * len(set_u & set_v) / total


def overlap_coefficient(neighbors_u: Collection[int],
                        neighbors_v: Collection[int]) -> float:
    """Overlap (Szymkiewicz–Simpson) coefficient."""
    set_u = as_neighbor_set(neighbors_u)
    set_v = as_neighbor_set(neighbors_v)
    smaller = min(len(set_u), len(set_v))
    if smaller == 0:
        return 0.0
    return len(set_u & set_v) / smaller


def adamic_adar_weight(neighbors_u: Collection[int],
                       neighbors_v: Collection[int]) -> float:
    """Adamic–Adar-style weight using the common-neighborhood size.

    Classic Adamic–Adar sums ``1/log|Γ(w)|`` over common neighbors ``w``;
    inside SNAPLE only the two endpoint neighborhoods are visible, so this
    variant down-weights the overlap by the log of the union size instead.
    """
    set_u = as_neighbor_set(neighbors_u)
    set_v = as_neighbor_set(neighbors_v)
    intersection = len(set_u & set_v)
    union = len(set_u | set_v)
    if intersection == 0 or union <= 1:
        return 0.0
    return intersection / math.log(union + 1)


def constant_one(neighbors_u: Collection[int],
                 neighbors_v: Collection[int]) -> float:
    """Degenerate similarity that is always 1 (the *counter* score's raw sim)."""
    return 1.0


def inverse_degree(neighbors_u: Collection[int],
                   neighbors_v: Collection[int]) -> float:
    """``1 / |Γ(v)|`` — the raw similarity behind the PPR-like score.

    The personalized-page-rank row of Table 3 replaces the Jaccard raw
    similarity with the probability of a random walk at ``u`` stepping to a
    given neighbor, i.e. the inverse of the *source* neighborhood size.  In
    the gather of Algorithm 2 the first argument is the neighborhood of the
    vertex the walk leaves from.
    """
    degree = len(as_neighbor_set(neighbors_v))
    if degree == 0:
        return 0.0
    return 1.0 / degree


#: Registry of named similarities usable in a :class:`ScoreConfig`.
SIMILARITIES: dict[str, SimilarityFn] = {
    "jaccard": jaccard,
    "common_neighbors": common_neighbors,
    "cosine": cosine,
    "dice": dice,
    "overlap": overlap_coefficient,
    "adamic_adar": adamic_adar_weight,
    "one": constant_one,
    "inverse_degree": inverse_degree,
}


def get_similarity(name: str) -> SimilarityFn:
    """Look up a similarity through the plugin registry.

    Raises :class:`ConfigurationError` for unknown names; third-party
    similarities registered via
    :func:`repro.runtime.registry.register_component` are visible here too.
    """
    from repro.runtime.registry import get_component

    return get_component("similarity", name)
