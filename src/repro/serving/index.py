"""Incremental SNAPLE index: dirty-region rescoring over a :class:`GraphDelta`.

A cold batch run executes Algorithm 2's three phases for every vertex.  When
one edge ``a -> b`` streams in, almost all of that work is still valid; the
per-vertex RNG discipline (``vertex_rng(seed, salt, vertex)``, PRs 2–5) makes
each vertex's random draws independent of every other vertex, so the affected
region can be recomputed *exactly* without replaying anyone else's stream.

The dirty closure follows the data-flow of the kernel phases:

* ``Γ̂(u)`` depends only on ``u``'s raw out-adjacency and ``u``'s own RNG
  stream → only the edge *sources* are gamma-dirty;
* ``sims(w)`` (phase 2+3a) reads ``Γ̂(w)``, ``Γ̂(x)`` for ``x ∈ Γ(w)`` and
  ``w``'s raw adjacency → dirty when ``w`` is gamma-dirty or points at a
  gamma-dirty vertex: one reverse hop;
* the ranked scores of ``t`` (phase 3b) read ``sims(t)``, ``sims(v)`` for
  ``v ∈ Γ(t)``, ``Γ̂(t)`` and ``t``'s raw adjacency → dirty within one more
  reverse hop.

So a single edge rescores the 2-reverse-hop region around its source — the
k-hop dirty set — through the same vectorized kernel calls a batch run uses
(``gas_sample_step_columnar`` / ``edge_similarities`` / ``select_klocal`` /
``combine_and_rank_columnar`` with ``rng_mode="per_vertex"`` and GAS fold
order), which is why the result is bit-identical to a cold batch ``predict``
on the final graph with the parallel ``gas`` backend.

The state the phases read lives in whole-graph arrays: Γ̂ is one
:class:`~repro.snaple.kernel.NeighborhoodCSR` and the kept neighbors one
:class:`~repro.snaple.kernel.KeptNeighbors`.  A refresh splices only the
dirty rows into them (:func:`repro.runtime.state.splice_rows`), so an
update costs the dirty region plus one bulk copy of each array, not a
rebuild.  The cold build is the same splice over every row of an empty
state.  Membership probes need no whole-graph index: like every caller's,
each refresh's kernel blocks build a structure for their own rows.

The index keeps only what it serves: each vertex's top-``k`` ids and
scores, two ``(|V|, k)`` arrays plus one count per vertex — 16·``k`` bytes
a vertex, of which a row shorter than ``k`` wastes the rest.  A refresh
writes its targets' rows back in one scatter.  The full candidate score
row is phase 3b's temporary, as in Algorithm 2:
:meth:`IncrementalIndex.scores` reruns phase 3b for its vertex, which is
exact because every row the index maintains equals a cold computation on
the current graph.

:class:`PairSimilarityCache` persists the expensive unordered-pair
intersections across refreshes through the ``pair_cache`` hook of
:func:`repro.snaple.kernel.edge_similarities`, invalidating only the pairs
touching a gamma-dirty vertex.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import VertexNotFoundError
from repro.graph.digraph import DiGraph
from repro.runtime.state import (
    indptr_from_counts,
    sorted_distinct,
    splice_rows,
)
from repro.serving.delta import GraphDelta
from repro.snaple import kernel
from repro.snaple.config import SnapleConfig

__all__ = ["AppliedUpdate", "IncrementalIndex", "PairSimilarityCache"]

#: Bits reserved for the high vertex id in a packed pair key.
_PAIR_SHIFT = 32


class PairSimilarityCache:
    """Unordered-pair intersection cache with per-vertex invalidation.

    Implements the ``lookup``/``store`` protocol of
    :func:`repro.snaple.kernel.edge_similarities`.  Keys pack the unordered
    vertex pair as ``low << 32 | high`` (graphs stay far below 2^31
    vertices); a reverse map from vertex to its cached keys makes
    :meth:`invalidate` proportional to the invalidated pairs, not the cache.
    """

    __slots__ = ("_inter", "_by_vertex", "hits", "misses", "invalidated")

    def __init__(self) -> None:
        self._inter: dict[int, int] = {}
        self._by_vertex: dict[int, set[int]] = {}
        self.hits = 0
        self.misses = 0
        self.invalidated = 0

    def __len__(self) -> int:
        return len(self._inter)

    def lookup(self, low: np.ndarray, high: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
        """Cached intersections for each pair plus the found-mask."""
        inter = np.zeros(low.size, dtype=np.int64)
        known = np.zeros(low.size, dtype=bool)
        table = self._inter
        for position, (a, b) in enumerate(zip(low.tolist(), high.tolist())):
            value = table.get((a << _PAIR_SHIFT) | b)
            if value is not None:
                inter[position] = value
                known[position] = True
        found = int(known.sum())
        self.hits += found
        self.misses += low.size - found
        return inter, known

    def store(self, low: np.ndarray, high: np.ndarray,
              inter: np.ndarray) -> None:
        table = self._inter
        by_vertex = self._by_vertex
        for a, b, value in zip(low.tolist(), high.tolist(), inter.tolist()):
            key = (a << _PAIR_SHIFT) | b
            table[key] = value
            by_vertex.setdefault(a, set()).add(key)
            if b != a:
                by_vertex.setdefault(b, set()).add(key)

    def invalidate(self, vertices) -> int:
        """Drop every cached pair touching any of ``vertices``."""
        dropped = 0
        for v in vertices:
            v = int(v)
            keys = self._by_vertex.pop(v, None)
            if not keys:
                continue
            for key in keys:
                if self._inter.pop(key, None) is not None:
                    dropped += 1
                low, high = key >> _PAIR_SHIFT, key & ((1 << _PAIR_SHIFT) - 1)
                other = high if low == v else low
                partner = self._by_vertex.get(other)
                if partner is not None:
                    partner.discard(key)
                    if not partner:
                        del self._by_vertex[other]
        self.invalidated += dropped
        return dropped

    def clear(self) -> None:
        self._inter.clear()
        self._by_vertex.clear()


@dataclass(frozen=True)
class AppliedUpdate:
    """Outcome of one :meth:`IncrementalIndex.apply_edges` /
    :meth:`IncrementalIndex.apply_removals` call."""

    added: list[tuple[int, int]]
    gamma_dirty: np.ndarray = field(repr=False)
    rescored: np.ndarray = field(repr=False)
    removed: list[tuple[int, int]] = field(default_factory=list)

    @property
    def num_rescored(self) -> int:
        return int(self.rescored.size)


class IncrementalIndex:
    """Maintains every vertex's Γ̂, kept neighbors, and ranked predictions.

    Γ̂ and the kept neighbors are one whole-graph CSR each; the top-``k``
    ids and scores are two ``(|V|, k)`` arrays with one count per vertex.
    Construction runs a cold build (every row spliced into an empty state,
    equivalent to a batch run over the whole graph);
    :meth:`apply_edges` / :meth:`apply_removals` then keep the
    state exact under streamed edge additions and deletions by rescoring
    only the dirty closure and splicing its rows in.  All randomness is
    per-vertex (``rng_mode="per_vertex"``, GAS fold order), so the
    maintained predictions and scores are bit-identical to a cold batch
    ``predict(backend="gas", workers=N)`` on the current merged graph.
    """

    def __init__(self, graph: DiGraph | GraphDelta, config: SnapleConfig,
                 *, use_pair_cache: bool = True) -> None:
        self._graph = (graph if isinstance(graph, GraphDelta)
                       else GraphDelta(graph))
        self._config = config
        self.pair_cache = PairSimilarityCache() if use_pair_cache else None
        self.rescored_total = 0
        self.refreshes = 0
        empty = np.empty(0, dtype=np.int64)
        self._gamma = kernel.NeighborhoodCSR.from_rows(0, empty, empty)
        self._kept = kernel.KeptNeighbors(
            indptr=np.zeros(1, dtype=np.int64), ids=empty,
            sims=np.empty(0, dtype=np.float64))
        n, k = self._graph.num_vertices, config.k
        self._top_ids = np.zeros((n, k), dtype=np.int64)
        self._top_scores = np.zeros((n, k), dtype=np.float64)
        self._top_counts = np.zeros(n, dtype=np.int64)
        everything = np.arange(n, dtype=np.int64)
        self._refresh(everything, everything, everything)

    # ------------------------------------------------------------------
    # Read surface
    # ------------------------------------------------------------------
    @property
    def graph(self) -> GraphDelta:
        return self._graph

    @property
    def config(self) -> SnapleConfig:
        return self._config

    @property
    def num_vertices(self) -> int:
        return self._graph.num_vertices

    def _check_vertex(self, u: int) -> None:
        if not 0 <= u < self._graph.num_vertices:
            raise VertexNotFoundError(u, self._graph.num_vertices)

    def predictions(self, u: int) -> list[int]:
        """The ranked top-``k`` predicted targets of ``u``."""
        self._check_vertex(u)
        return self._top_ids[u, :self._top_counts[u]].tolist()

    def prediction_scores(self, u: int) -> list[float]:
        """Scores aligned with :meth:`predictions`, read from the same row."""
        self._check_vertex(u)
        return self._top_scores[u, :self._top_counts[u]].tolist()

    def all_predictions(self) -> dict[int, list[int]]:
        return {u: row[:count] for u, (row, count) in enumerate(
            zip(self._top_ids.tolist(), self._top_counts.tolist()))}

    def scores(self, u: int) -> dict[int, float]:
        """The full candidate score map of ``u``: phase 3b rerun for ``u``
        alone, bit-identical to the row the last refresh ranked."""
        self._check_vertex(u)
        _, _, _, candidates, values = self._rank(
            np.array([u], dtype=np.int64))
        return dict(zip(candidates.tolist(), values.tolist()))

    def scores_view(self) -> kernel.LazyScores:
        """Every vertex's score map, from one blocked phase-3b pass.

        The view holds its own arrays, so it is a snapshot: later updates
        do not change it.
        """
        targets = np.arange(self.num_vertices, dtype=np.int64)
        _, _, counts, candidates, values = self._rank(targets)
        return kernel.LazyScores(targets.tolist(),
                                 indptr_from_counts(counts)[:-1], counts,
                                 candidates, values)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def apply_edges(self, edges) -> AppliedUpdate:
        """Absorb streamed edges and rescore exactly the dirty closure."""
        added = self._graph.add_edges(edges)
        self._grow_to(self._graph.num_vertices)
        return self._rescore_dirty([u for u, _ in added], added=added)

    def apply_removals(self, edges) -> AppliedUpdate:
        """Remove streamed edges and rescore exactly the dirty closure.

        Removing ``u -> v`` changes only ``u``'s out-adjacency (plus ``v``'s
        in-adjacency, which no kernel phase reads), so the dirty data-flow is
        identical to adding ``u -> v``: ``u`` is gamma-dirty and the same
        2-reverse-hop closure covers every affected row.  The closure is
        walked on the post-removal graph; that is safe because ``u`` itself
        is in every dirty set and no other vertex's adjacency changed.
        """
        removed = self._graph.remove_edges(edges)
        return self._rescore_dirty([u for u, _ in removed], removed=removed)

    def _rescore_dirty(self, sources: list[int], *,
                       added: list[tuple[int, int]] | None = None,
                       removed: list[tuple[int, int]] | None = None
                       ) -> AppliedUpdate:
        gamma_dirty = sorted_distinct(np.asarray(sources, dtype=np.int64))
        if not gamma_dirty.size:  # nothing changed
            return AppliedUpdate(added=[], gamma_dirty=gamma_dirty,
                                 rescored=gamma_dirty)
        sims_dirty = self._reverse_closure(gamma_dirty)
        targets = self._reverse_closure(sims_dirty)
        self._refresh(gamma_dirty, sims_dirty, targets)
        self.rescored_total += int(targets.size)
        return AppliedUpdate(added=added or [], gamma_dirty=gamma_dirty,
                             rescored=targets, removed=removed or [])

    def compact(self) -> DiGraph:
        """Fold the delta overlay into a fresh CSR base (no rescoring:
        the merged adjacency — and therefore every maintained row — is
        unchanged by compaction)."""
        return self._graph.compact()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _grow_to(self, n: int) -> None:
        grow = n - self._top_counts.size
        if grow > 0:
            self._top_ids = np.pad(self._top_ids, ((0, grow), (0, 0)))
            self._top_scores = np.pad(self._top_scores, ((0, grow), (0, 0)))
            self._top_counts = np.pad(self._top_counts, (0, grow))

    def _reverse_closure(self, vertices: np.ndarray) -> np.ndarray:
        """``vertices`` plus their in-neighbors on the merged graph, sorted."""
        parts = [vertices]
        for u in vertices.tolist():
            parts.append(np.asarray(self._graph.in_neighbors(u),
                                    dtype=np.int64))
        return sorted_distinct(np.concatenate(parts))

    def _refresh(self, gamma_dirty: np.ndarray, sims_dirty: np.ndarray,
                 targets: np.ndarray) -> None:
        """Recompute phases 1/2+3a/3b for the given (nested) dirty sets."""
        graph, config = self._graph, self._config
        n = graph.num_vertices
        counts, flat = kernel.gas_sample_step_columnar(
            graph, config, gamma_dirty
        )
        if self.pair_cache is not None:
            self.pair_cache.invalidate(gamma_dirty.tolist())
        self._gamma = gamma = self._gamma.replace_rows(gamma_dirty, counts,
                                                       flat, n)
        edges = kernel.edge_similarities(graph, gamma, config,
                                         rows=sims_dirty,
                                         pair_cache=self.pair_cache)
        kept = kernel.select_klocal(edges, config, rng_mode="per_vertex",
                                    rows=sims_dirty)
        # Rows outside sims_dirty are empty in ``kept``, so its payload is
        # exactly the dirty rows in ascending order.
        indptr, (ids, sims) = splice_rows(
            self._kept.indptr, (self._kept.ids, self._kept.sims), sims_dirty,
            np.diff(kept.indptr)[sims_dirty], (kept.ids, kept.sims), n)
        self._kept = kernel.KeptNeighbors(indptr=indptr, ids=ids, sims=sims)
        (pred_counts, picks, score_counts, candidates,
         values) = self._rank(targets)
        # Score rows follow ``targets`` with candidates ascending, so the
        # keys ``rank * n + candidate`` ascend and one search finds the
        # score of every pick.
        pick_rank = np.repeat(np.arange(targets.size), pred_counts)
        score_keys = np.repeat(np.arange(targets.size), score_counts) * n
        score_keys += candidates
        found = np.searchsorted(score_keys, pick_rank * n + picks)
        rows = targets[pick_rank]
        columns = (np.arange(picks.size)
                   - indptr_from_counts(pred_counts)[pick_rank])
        self._top_ids[rows, columns] = picks
        self._top_scores[rows, columns] = values[found]
        self._top_counts[targets] = pred_counts
        self.refreshes += 1

    def _rank(self, targets: np.ndarray) -> tuple[np.ndarray, ...]:
        """Phase 3b for ``targets`` on the current state (GAS fold order)."""
        return kernel.combine_and_rank_columnar(
            self._graph, self._gamma, self._kept, self._config, targets,
            neighbor_order="csr")
