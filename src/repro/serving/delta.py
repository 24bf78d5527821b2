"""Edge-addition overlay over the immutable :class:`~repro.graph.digraph.DiGraph`.

The batch stack is built on an immutable CSR graph: rebuild-from-scratch is
the only way to change it, and on a 10k-vertex graph that is milliseconds of
lexsort per edge — hopeless for streamed updates.  :class:`GraphDelta` keeps
the base graph untouched and absorbs additions into small per-vertex side
adjacencies, exposing the *merged* view through the same duck-typed surface
the scoring kernel consumes (``num_vertices``, ``csr_out_adjacency()``,
``out_neighbors``, ``in_neighbors``).

Two invariants make the overlay safe to serve from:

* **CSR equivalence** — ``csr_out_adjacency()`` of the overlay is
  element-identical to the CSR a fresh ``DiGraph`` would build from the base
  edges plus the delta edges.  Base rows keep their duplicate edges exactly
  (the kernel's GAS-order fold walks raw adjacency, so duplicates affect
  scores); merged rows stay sorted because ``DiGraph`` sorts rows by
  ``(src, dst)`` and the overlay inserts extras in sorted position.
* **Ingest idempotence** — :meth:`add_edge` refuses duplicates (returns
  ``False``), so replaying a stream cannot change the merged view.  This is
  what makes :meth:`compact` a pure representation change: folding the delta
  into a new base ``DiGraph`` yields byte-identical adjacency, so scoring
  parity holds trivially across a compaction boundary.

Deletions are tombstones: :meth:`remove_edge` removes a *delta* edge
physically (it only ever existed in the overlay) but marks a *base* edge
with a per-pair tombstone count — the immutable CSR is never rewritten.
Every merged view strips tombstoned occurrences, and :meth:`compact` folds
them out for real, so the CSR-equivalence invariant extends to deletions:
the merged adjacency is always element-identical to a fresh rebuild from
(base + delta − removed).  Base rows may hold duplicate edges; one
``remove_edge`` call removes exactly one occurrence.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from repro.errors import GraphError, VertexNotFoundError
from repro.graph.digraph import DiGraph
from repro.runtime.state import gather_slices, splice_rows

__all__ = ["GraphDelta"]

_EMPTY = np.empty(0, dtype=np.int64)


def _endpoints(u: int, v: int) -> tuple[int, int]:
    """``(u, v)`` as ints; raises :class:`GraphError` on a negative one."""
    u, v = int(u), int(v)
    if u < 0 or v < 0:
        raise GraphError(
            f"edge endpoints must be non-negative, got ({u}, {v})"
        )
    return u, v


class GraphDelta:
    """Mutable edge-addition overlay over an immutable base :class:`DiGraph`.

    Edges whose endpoints lie beyond the current vertex range grow the graph
    (new vertices start with empty adjacency), matching how a streamed social
    graph acquires users.  Edges can also be *removed* (unfollow/unfriend):
    delta edges go away physically, base edges are tombstoned per pair and
    folded out at the next :meth:`compact`.  Vertices are never retired —
    the vertex range grows monotonically even when adjacency shrinks.
    """

    __slots__ = ("_base", "_num_vertices", "_extra_out", "_extra_in",
                 "_extra_sets", "_delta_src", "_delta_dst",
                 "_removed_out", "_removed_in", "_num_removed", "_csr",
                 "_stale")

    def __init__(self, base: DiGraph) -> None:
        self._base = base
        self._num_vertices = base.num_vertices
        self._extra_out: dict[int, list[int]] = {}
        self._extra_in: dict[int, list[int]] = {}
        self._extra_sets: dict[int, set[int]] = {}
        self._delta_src: list[int] = []
        self._delta_dst: list[int] = []
        #: Tombstones over *base* edges: vertex -> {neighbor: count removed}.
        self._removed_out: dict[int, dict[int, int]] = {}
        self._removed_in: dict[int, dict[int, int]] = {}
        self._num_removed = 0
        #: The merged CSR, patched lazily: rows mutated since it was last
        #: read are ``_stale`` and get spliced in by csr_out_adjacency().
        self._csr: tuple[np.ndarray, np.ndarray] = base.csr_out_adjacency()
        self._stale: set[int] = set()

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def base(self) -> DiGraph:
        """The immutable CSR graph beneath the overlay."""
        return self._base

    @property
    def num_vertices(self) -> int:
        return self._num_vertices

    @property
    def num_edges(self) -> int:
        return (self._base.num_edges + len(self._delta_src)
                - self._num_removed)

    @property
    def num_delta_edges(self) -> int:
        """Edges absorbed since the last :meth:`compact` (or construction)."""
        return len(self._delta_src)

    @property
    def num_removed_edges(self) -> int:
        """Base-edge tombstones pending since the last :meth:`compact`."""
        return self._num_removed

    def delta_edges(self) -> list[tuple[int, int]]:
        """The uncompacted edges in ingest order."""
        return list(zip(self._delta_src, self._delta_dst))

    def vertices(self) -> range:
        return range(self._num_vertices)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_edge(self, u: int, v: int) -> bool:
        """Absorb the directed edge ``u -> v``; ``False`` when already present.

        Endpoints beyond the current vertex range grow the graph.  The
        duplicate check spans both the base graph and earlier additions, so
        the merged adjacency gains at most one copy of any streamed edge.
        """
        u, v = _endpoints(u, v)
        if self._edge_known(u, v):
            return False
        grown = max(u, v) + 1
        if grown > self._num_vertices:
            self._num_vertices = grown
        self._extra_out.setdefault(u, []).append(v)
        self._extra_in.setdefault(v, []).append(u)
        self._extra_sets.setdefault(u, set()).add(v)
        self._delta_src.append(u)
        self._delta_dst.append(v)
        self._stale.add(u)
        return True

    def add_edges(self, edges: Iterable[tuple[int, int]]
                  ) -> list[tuple[int, int]]:
        """Absorb a batch of edges; returns the ones actually added.

        The whole batch is validated first, so a bad edge raises
        :class:`GraphError` with nothing applied.
        """
        batch = [_endpoints(u, v) for u, v in edges]
        return [edge for edge in batch if self.add_edge(*edge)]

    def remove_edge(self, u: int, v: int) -> bool:
        """Remove one occurrence of ``u -> v``; ``False`` when absent.

        A delta edge is removed physically (the overlay is mutable); a base
        edge gets a per-pair tombstone the merged views strip and
        :meth:`compact` folds out.  Base rows may hold the same edge several
        times — each call removes exactly one occurrence, so a later
        :meth:`add_edge` of the same pair round-trips to the original
        multiset.  The vertex range never shrinks.
        """
        u, v = _endpoints(u, v)
        if u >= self._num_vertices or v >= self._num_vertices:
            return False
        if v in self._extra_sets.get(u, ()):
            # Delta copy: unwind exactly what add_edge recorded.
            self._extra_out[u].remove(v)
            if not self._extra_out[u]:
                del self._extra_out[u]
            self._extra_in[v].remove(u)
            if not self._extra_in[v]:
                del self._extra_in[v]
            self._extra_sets[u].discard(v)
            if not self._extra_sets[u]:
                del self._extra_sets[u]
            for position in range(len(self._delta_src) - 1, -1, -1):
                if (self._delta_src[position] == u
                        and self._delta_dst[position] == v):
                    del self._delta_src[position]
                    del self._delta_dst[position]
                    break
            self._stale.add(u)
            return True
        remaining = (self._base_multiplicity(u, v)
                     - self._removed_out.get(u, {}).get(v, 0))
        if remaining <= 0:
            return False
        self._removed_out.setdefault(u, {})[v] = (
            self._removed_out.get(u, {}).get(v, 0) + 1
        )
        self._removed_in.setdefault(v, {})[u] = (
            self._removed_in.get(v, {}).get(u, 0) + 1
        )
        self._num_removed += 1
        self._stale.add(u)
        return True

    def remove_edges(self, edges: Iterable[tuple[int, int]]
                     ) -> list[tuple[int, int]]:
        """Remove a batch of edges; returns the ones actually removed.

        Validated whole before anything is removed, like :meth:`add_edges`.
        """
        batch = [_endpoints(u, v) for u, v in edges]
        return [edge for edge in batch if self.remove_edge(*edge)]

    def compact(self) -> DiGraph:
        """Fold the delta into a fresh base :class:`DiGraph` and clear it.

        The merged adjacency is unchanged — ``DiGraph`` sorts rows by
        ``(src, dst)`` exactly like the overlay's merge, and tombstoned base
        occurrences are dropped from the edge arrays before the rebuild — so
        any consumer of ``csr_out_adjacency()`` sees byte-identical arrays
        before and after, and the cached merged CSR survives.  Returns the
        new base graph.
        """
        src, dst = self._base.edge_arrays()
        if self._num_removed:
            # The base CSR lists edges by ``(src, dst)``, duplicates in edge
            # order, so each tombstone's first ``count`` occurrences start
            # where its key lands among the sorted ``src * n + dst`` keys.
            n = self._base.num_vertices
            indptr, indices = self._base.csr_out_adjacency()
            keys = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
            keys = keys * n + indices
            dropped = [(u * n + v, count)
                       for u, tombstones in self._removed_out.items()
                       for v, count in tombstones.items()]
            starts = np.searchsorted(keys, [key for key, _ in dropped])
            counts = np.array([count for _, count in dropped], dtype=np.int64)
            order = self._base.csr_out_order()
            keep = np.ones(src.size, dtype=bool)
            keep[order[gather_slices(starts, counts)]] = False
            src, dst = src[keep], dst[keep]
        if self._delta_src:
            src = np.concatenate(
                [src, np.asarray(self._delta_src, dtype=np.int64)]
            )
            dst = np.concatenate(
                [dst, np.asarray(self._delta_dst, dtype=np.int64)]
            )
        self._base = DiGraph(self._num_vertices, src, dst)
        self._extra_out.clear()
        self._extra_in.clear()
        self._extra_sets.clear()
        self._delta_src = []
        self._delta_dst = []
        self._removed_out.clear()
        self._removed_in.clear()
        self._num_removed = 0
        return self._base

    # ------------------------------------------------------------------
    # Merged views (the kernel's duck-typed graph surface)
    # ------------------------------------------------------------------
    def _check_vertex(self, u: int) -> None:
        if not 0 <= u < self._num_vertices:
            raise VertexNotFoundError(u, self._num_vertices)

    def _base_multiplicity(self, u: int, v: int) -> int:
        """How many copies of ``u -> v`` the base row holds (pre-tombstone)."""
        base = self._base
        if u >= base.num_vertices or v >= base.num_vertices:
            return 0
        row = base.out_neighbors(u)
        lo = int(np.searchsorted(row, v, side="left"))
        hi = int(np.searchsorted(row, v, side="right"))
        return hi - lo

    def _edge_known(self, u: int, v: int) -> bool:
        if v in self._extra_sets.get(u, ()):
            return True
        surviving = (self._base_multiplicity(u, v)
                     - self._removed_out.get(u, {}).get(v, 0))
        return surviving > 0

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return self._edge_known(u, v)

    @staticmethod
    def _strip_tombstones(row: np.ndarray,
                          tombstones: dict[int, int] | None) -> np.ndarray:
        """Drop the first *count* copies of each tombstoned value from a
        sorted row."""
        if not tombstones:
            return row
        keep = np.ones(row.size, dtype=bool)
        for value, count in tombstones.items():
            lo = int(np.searchsorted(row, value, side="left"))
            keep[lo:lo + count] = False
        return row[keep]

    def _base_out_row(self, u: int) -> np.ndarray:
        if u < self._base.num_vertices:
            return self._strip_tombstones(self._base.out_neighbors(u),
                                          self._removed_out.get(u))
        return _EMPTY

    def out_neighbors(self, u: int) -> np.ndarray:
        """Merged out-neighborhood, sorted, base duplicates preserved."""
        self._check_vertex(u)
        extras = self._extra_out.get(u)
        base_row = self._base_out_row(u)
        if not extras:
            return base_row
        merged = np.concatenate(
            [base_row, np.asarray(extras, dtype=np.int64)]
        )
        merged.sort()
        return merged

    def in_neighbors(self, u: int) -> np.ndarray:
        """Merged in-neighborhood ``Γ⁻¹(u)``, sorted."""
        self._check_vertex(u)
        extras = self._extra_in.get(u)
        base_row = (self._strip_tombstones(self._base.in_neighbors(u),
                                           self._removed_in.get(u))
                    if u < self._base.num_vertices else _EMPTY)
        if not extras:
            return base_row
        merged = np.concatenate(
            [base_row, np.asarray(extras, dtype=np.int64)]
        )
        merged.sort()
        return merged

    def out_degree(self, u: int) -> int:
        self._check_vertex(u)
        base_degree = (self._base.out_degree(u)
                       if u < self._base.num_vertices else 0)
        base_degree -= sum(self._removed_out.get(u, {}).values())
        return base_degree + len(self._extra_out.get(u, ()))

    def in_degree(self, u: int) -> int:
        self._check_vertex(u)
        base_degree = (self._base.in_degree(u)
                       if u < self._base.num_vertices else 0)
        base_degree -= sum(self._removed_in.get(u, {}).values())
        return base_degree + len(self._extra_in.get(u, ()))

    def edges(self) -> Iterator[tuple[int, int]]:
        """Base edges in their original order, then delta edges in ingest order.

        Tombstoned base edges are skipped (the first *count* occurrences of
        each removed pair, matching what :meth:`compact` folds out).
        """
        if not self._num_removed:
            yield from self._base.edges()
        else:
            skipped: dict[tuple[int, int], int] = {}
            for u, v in self._base.edges():
                budget = self._removed_out.get(u, {}).get(v, 0)
                if budget and skipped.get((u, v), 0) < budget:
                    skipped[(u, v)] = skipped.get((u, v), 0) + 1
                    continue
                yield u, v
        yield from zip(self._delta_src, self._delta_dst)

    def csr_out_adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """Merged ``(indptr, indices)``, identical to a compacted rebuild.

        The cached arrays are patched on read: only the rows mutated since
        the last read are re-merged and spliced in (vertex growth appends
        empty rows), so a read after one ingest costs the changed row plus
        one bulk copy, not a rebuild.  Returned arrays are never modified
        afterwards.
        """
        if self._stale:
            rows = np.fromiter(sorted(self._stale), dtype=np.int64,
                               count=len(self._stale))
            merged = [self.out_neighbors(u) for u in rows.tolist()]
            counts = np.fromiter((row.size for row in merged),
                                 dtype=np.int64, count=len(merged))
            indptr, (indices,) = splice_rows(
                self._csr[0], (self._csr[1],), rows, counts,
                (np.concatenate(merged),), self._num_vertices)
            self._csr = (indptr, indices)
            self._stale.clear()
        return self._csr

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"GraphDelta(|V|={self._num_vertices}, "
                f"|E|={self.num_edges}, delta={self.num_delta_edges})")
