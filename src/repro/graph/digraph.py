"""Compact directed graph backed by CSR-style adjacency arrays.

The graph is immutable once constructed.  Vertices are dense integers in
``[0, num_vertices)``.  Both out-adjacency and in-adjacency are stored so the
SNAPLE scoring framework can access the inverse neighborhood ``Γ⁻¹(u)`` used
by the path-aggregation step (equation (9) in the paper).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, GraphError, VertexNotFoundError

__all__ = ["DiGraph", "GraphSummary", "CSR_ARRAY_NAMES"]

#: The eight CSR arrays that fully describe a :class:`DiGraph`, in the
#: canonical order used by shared-memory packing and the on-disk container.
CSR_ARRAY_NAMES = (
    "out_indptr",
    "out_indices",
    "out_order",
    "in_indptr",
    "in_indices",
    "in_order",
    "edge_src",
    "edge_dst",
)


@dataclass(frozen=True)
class GraphSummary:
    """Lightweight summary of a graph, used by reports and dataset registries."""

    num_vertices: int
    num_edges: int
    max_out_degree: int
    max_in_degree: int
    mean_out_degree: float

    def __str__(self) -> str:
        return (
            f"|V|={self.num_vertices:,} |E|={self.num_edges:,} "
            f"max_out={self.max_out_degree} max_in={self.max_in_degree} "
            f"mean_out={self.mean_out_degree:.2f}"
        )


class DiGraph:
    """Immutable directed graph with O(1) neighborhood slicing.

    Parameters
    ----------
    num_vertices:
        Number of vertices; vertex ids are ``0 .. num_vertices - 1``.
    sources, targets:
        Parallel integer iterables describing the directed edges
        ``sources[i] -> targets[i]``.  Arrays and sequences are converted
        in place; generators/iterators are consumed in a single pass (no
        intermediate list materialization).  Duplicate edges and self loops
        are kept as provided; use
        :class:`~repro.graph.builder.GraphBuilder` to deduplicate while
        building.
    """

    __slots__ = (
        "_num_vertices",
        "_out_indptr",
        "_out_indices",
        "_out_order",
        "_in_indptr",
        "_in_indices",
        "_in_order",
        "_edge_src",
        "_edge_dst",
        "_memmap_path",
    )

    def __init__(
        self,
        num_vertices: int,
        sources: Iterable[int],
        targets: Iterable[int],
    ) -> None:
        if num_vertices < 0:
            raise GraphError("num_vertices must be non-negative")
        src = _as_edge_array(sources, "sources")
        dst = _as_edge_array(targets, "targets")
        if src.shape != dst.shape:
            raise GraphError(
                f"sources and targets must have the same length "
                f"({src.size} != {dst.size})"
            )
        if src.size:
            lo = min(src.min(), dst.min())
            hi = max(src.max(), dst.max())
            if lo < 0 or hi >= num_vertices:
                raise GraphError(
                    f"edge endpoints must lie in [0, {num_vertices}); "
                    f"found range [{lo}, {hi}]"
                )
        self._num_vertices = int(num_vertices)
        self._memmap_path = None
        self._edge_src = src
        self._edge_dst = dst
        self._out_indptr, self._out_indices, self._out_order = _build_csr(
            num_vertices, src, dst
        )
        self._in_indptr, self._in_indices, self._in_order = _build_csr(
            num_vertices, dst, src
        )

    @classmethod
    def from_csr_arrays(
        cls,
        num_vertices: int,
        *,
        out_indptr: np.ndarray,
        out_indices: np.ndarray,
        out_order: np.ndarray,
        in_indptr: np.ndarray,
        in_indices: np.ndarray,
        in_order: np.ndarray,
        edge_src: np.ndarray,
        edge_dst: np.ndarray,
        read_only: bool = False,
    ) -> "DiGraph":
        """Adopt prebuilt CSR arrays without re-deriving them.

        This is how :meth:`load_memmap` adopts on-disk views, in parallel
        workers too (:func:`repro.runtime.shm.attach_graph`): the arrays
        are adopted as-is — no copy, no sort — so the caller guarantees
        they came from a real :class:`DiGraph`.  Dtypes and shapes are always validated;
        with ``read_only=True`` every array must additionally be a
        non-writable view (a writable array would let callers silently
        mutate a graph that advertises itself as immutable and shared), and
        a violation raises :class:`~repro.errors.ConfigurationError` instead
        of crashing downstream.
        """
        if num_vertices < 0:
            raise GraphError("num_vertices must be non-negative")
        arrays = {
            "out_indptr": out_indptr,
            "out_indices": out_indices,
            "out_order": out_order,
            "in_indptr": in_indptr,
            "in_indices": in_indices,
            "in_order": in_order,
            "edge_src": edge_src,
            "edge_dst": edge_dst,
        }
        for label, array in arrays.items():
            if not isinstance(array, np.ndarray):
                raise ConfigurationError(
                    f"from_csr_arrays: {label} must be a numpy array, "
                    f"got {type(array).__name__}"
                )
            if array.ndim != 1:
                raise ConfigurationError(
                    f"from_csr_arrays: {label} must be one-dimensional, "
                    f"got shape {array.shape}"
                )
            if array.dtype != np.int64:
                raise ConfigurationError(
                    f"from_csr_arrays: {label} must have dtype int64, "
                    f"got {array.dtype}"
                )
            if read_only and array.flags.writeable:
                raise ConfigurationError(
                    f"from_csr_arrays: {label} is a writable array but "
                    f"read_only=True was requested; pass a non-writable "
                    f"view (array.flags.writeable = False)"
                )
        if (out_indptr.size != num_vertices + 1
                or in_indptr.size != num_vertices + 1):
            raise GraphError(
                "indptr arrays must have num_vertices + 1 entries"
            )
        num_edges = int(edge_src.size)
        for label, array, expected in (
            ("edge_dst", edge_dst, num_edges),
            ("out_indices", out_indices, num_edges),
            ("out_order", out_order, num_edges),
            ("in_indices", in_indices, num_edges),
            ("in_order", in_order, num_edges),
        ):
            if array.size != expected:
                raise GraphError(
                    f"{label} must have one entry per edge "
                    f"({array.size} != {expected})"
                )
        graph = object.__new__(cls)
        graph._num_vertices = int(num_vertices)
        graph._memmap_path = None
        graph._out_indptr = out_indptr
        graph._out_indices = out_indices
        graph._out_order = out_order
        graph._in_indptr = in_indptr
        graph._in_indices = in_indices
        graph._in_order = in_order
        graph._edge_src = edge_src
        graph._edge_dst = edge_dst
        return graph

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices in the graph."""
        return self._num_vertices

    @property
    def num_edges(self) -> int:
        """Number of directed edges in the graph."""
        return int(self._edge_src.size)

    @property
    def memmap_path(self) -> str | None:
        """Path of the on-disk container backing this graph, if any.

        Set by :meth:`load_memmap`; the parallel executor uses it to hand
        workers the existing container instead of saving the arrays again.
        """
        return self._memmap_path

    def csr_arrays(self) -> dict[str, np.ndarray]:
        """The eight CSR arrays keyed by :data:`CSR_ARRAY_NAMES`."""
        return {name: getattr(self, f"_{name}") for name in CSR_ARRAY_NAMES}

    def save_memmap(self, path) -> None:
        """Persist the CSR arrays to an on-disk container at ``path``.

        See :func:`repro.graph.storage.save_graph_memmap` for the format.
        """
        from repro.graph.storage import save_graph_memmap

        save_graph_memmap(self, path)

    @classmethod
    def load_memmap(cls, path, *, verify: bool = False) -> "DiGraph":
        """O(1) load of a graph container as read-only memmap-backed views.

        See :func:`repro.graph.storage.load_graph_memmap`.
        """
        from repro.graph.storage import load_graph_memmap

        return load_graph_memmap(path, verify=verify)

    def vertices(self) -> range:
        """Iterate over all vertex ids."""
        return range(self._num_vertices)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over all directed edges as ``(source, target)`` pairs."""
        for s, t in zip(self._edge_src.tolist(), self._edge_dst.tolist()):
            yield s, t

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Return the raw ``(sources, targets)`` arrays (read-only views)."""
        src = self._edge_src.view()
        dst = self._edge_dst.view()
        src.flags.writeable = False
        dst.flags.writeable = False
        return src, dst

    # ------------------------------------------------------------------
    # Neighborhood access
    # ------------------------------------------------------------------
    def _check_vertex(self, u: int) -> None:
        if not 0 <= u < self._num_vertices:
            raise VertexNotFoundError(u, self._num_vertices)

    def out_neighbors(self, u: int) -> np.ndarray:
        """Out-neighborhood ``Γ(u)`` as a read-only integer array."""
        self._check_vertex(u)
        view = self._out_indices[self._out_indptr[u]:self._out_indptr[u + 1]]
        return view

    def in_neighbors(self, u: int) -> np.ndarray:
        """In-neighborhood ``Γ⁻¹(u)`` as a read-only integer array."""
        self._check_vertex(u)
        return self._in_indices[self._in_indptr[u]:self._in_indptr[u + 1]]

    def out_degree(self, u: int) -> int:
        """Number of outgoing edges of ``u``."""
        self._check_vertex(u)
        return int(self._out_indptr[u + 1] - self._out_indptr[u])

    def in_degree(self, u: int) -> int:
        """Number of incoming edges of ``u``."""
        self._check_vertex(u)
        return int(self._in_indptr[u + 1] - self._in_indptr[u])

    def out_degrees(self) -> np.ndarray:
        """Array of out-degrees for every vertex."""
        return np.diff(self._out_indptr)

    def in_degrees(self) -> np.ndarray:
        """Array of in-degrees for every vertex."""
        return np.diff(self._in_indptr)

    def out_edge_span(self, u: int) -> tuple[int, int]:
        """CSR slice ``[start, end)`` of ``u``'s out-edges.

        Positions index into the order returned by :meth:`csr_out_order`,
        letting callers (the GAS engine) associate each out-neighbor of ``u``
        with per-edge metadata such as the machine the edge is placed on.
        """
        self._check_vertex(u)
        return int(self._out_indptr[u]), int(self._out_indptr[u + 1])

    def in_edge_span(self, u: int) -> tuple[int, int]:
        """CSR slice ``[start, end)`` of ``u``'s in-edges (see :meth:`out_edge_span`)."""
        self._check_vertex(u)
        return int(self._in_indptr[u]), int(self._in_indptr[u + 1])

    def csr_out_adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """The raw out-adjacency CSR pair ``(indptr, indices)``.

        Rows are sorted (duplicate edges kept), which is what lets the
        vectorized scoring kernel (:mod:`repro.snaple.kernel`) run merge
        intersections and membership tests directly on these arrays.
        """
        return self._out_indptr, self._out_indices

    def csr_out_order(self) -> np.ndarray:
        """Permutation mapping CSR out-edge positions to original edge indices."""
        return self._out_order

    def csr_in_order(self) -> np.ndarray:
        """Permutation mapping CSR in-edge positions to original edge indices."""
        return self._in_order

    def has_edge(self, u: int, v: int) -> bool:
        """Return ``True`` when the directed edge ``u -> v`` exists."""
        self._check_vertex(u)
        self._check_vertex(v)
        neighbors = self.out_neighbors(u)
        # Neighborhoods are sorted by construction, so binary search applies.
        idx = np.searchsorted(neighbors, v)
        return bool(idx < neighbors.size and neighbors[idx] == v)

    def neighbor_set(self, u: int) -> set[int]:
        """Out-neighborhood of ``u`` as a Python set."""
        return set(self.out_neighbors(u).tolist())

    def two_hop_neighbors(self, u: int, *, exclude_direct: bool = True) -> set[int]:
        """Vertices reachable from ``u`` over exactly two directed hops.

        With ``exclude_direct`` (the default, matching equation (2) of the
        paper) direct neighbors of ``u`` and ``u`` itself are removed from the
        result, leaving only candidate vertices for link prediction.
        """
        self._check_vertex(u)
        direct = self.neighbor_set(u)
        result: set[int] = set()
        for v in direct:
            result.update(self.out_neighbors(v).tolist())
        if exclude_direct:
            result -= direct
            result.discard(u)
        return result

    def k_hop_neighbors(self, u: int, k: int, *, exclude_direct: bool = True) -> set[int]:
        """Vertices reachable from ``u`` within ``k`` hops (``Γᴷ(u)``)."""
        if k < 1:
            raise GraphError("k must be >= 1")
        self._check_vertex(u)
        frontier = self.neighbor_set(u)
        visited = set(frontier)
        for _ in range(k - 1):
            next_frontier: set[int] = set()
            for v in frontier:
                next_frontier.update(self.out_neighbors(v).tolist())
            next_frontier -= visited
            visited |= next_frontier
            frontier = next_frontier
        if exclude_direct:
            visited -= self.neighbor_set(u)
            visited.discard(u)
        return visited

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def reversed(self) -> "DiGraph":
        """Graph with every edge direction flipped."""
        return DiGraph(self._num_vertices, self._edge_dst, self._edge_src)

    def to_undirected(self) -> "DiGraph":
        """Symmetrized graph with each edge duplicated in both directions.

        This is the transformation the paper applies to the undirected
        gowalla and orkut datasets.
        """
        src = np.concatenate([self._edge_src, self._edge_dst])
        dst = np.concatenate([self._edge_dst, self._edge_src])
        pairs = np.unique(np.stack([src, dst], axis=1), axis=0)
        # Remove self loops produced by symmetric duplicates of loops.
        return DiGraph(self._num_vertices, pairs[:, 0], pairs[:, 1])

    def remove_edges(self, edges: Iterable[tuple[int, int]]) -> "DiGraph":
        """Return a copy of the graph without the given directed edges."""
        to_remove = set(edges)
        if not to_remove:
            return self
        keep_src: list[int] = []
        keep_dst: list[int] = []
        for s, t in zip(self._edge_src.tolist(), self._edge_dst.tolist()):
            if (s, t) not in to_remove:
                keep_src.append(s)
                keep_dst.append(t)
        return DiGraph(self._num_vertices, keep_src, keep_dst)

    def subgraph(self, vertices: Iterable[int]) -> tuple["DiGraph", dict[int, int]]:
        """Induced subgraph on ``vertices``.

        Returns the subgraph (with relabeled dense vertex ids) and a mapping
        from original vertex ids to new ids.
        """
        kept = sorted(set(vertices))
        for v in kept:
            self._check_vertex(v)
        mapping = {old: new for new, old in enumerate(kept)}
        src: list[int] = []
        dst: list[int] = []
        kept_set = set(kept)
        for s, t in zip(self._edge_src.tolist(), self._edge_dst.tolist()):
            if s in kept_set and t in kept_set:
                src.append(mapping[s])
                dst.append(mapping[t])
        return DiGraph(len(kept), src, dst), mapping

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def summary(self) -> GraphSummary:
        """Return a :class:`GraphSummary` of this graph."""
        out_deg = self.out_degrees()
        in_deg = self.in_degrees()
        return GraphSummary(
            num_vertices=self._num_vertices,
            num_edges=self.num_edges,
            max_out_degree=int(out_deg.max()) if out_deg.size else 0,
            max_in_degree=int(in_deg.max()) if in_deg.size else 0,
            mean_out_degree=float(out_deg.mean()) if out_deg.size else 0.0,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"DiGraph(|V|={self._num_vertices}, |E|={self.num_edges})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiGraph):
            return NotImplemented
        if self._num_vertices != other._num_vertices:
            return False
        mine = np.stack(
            [self._out_indptr, np.zeros_like(self._out_indptr)], axis=0
        )
        theirs = np.stack(
            [other._out_indptr, np.zeros_like(other._out_indptr)], axis=0
        )
        return bool(
            np.array_equal(mine, theirs)
            and np.array_equal(self._out_indices, other._out_indices)
        )

    def __hash__(self) -> int:
        return hash((self._num_vertices, self.num_edges))


def _as_edge_array(endpoints: Iterable[int], label: str) -> np.ndarray:
    """One ``int64`` array from any edge-endpoint input, materialized once.

    Arrays and sequences (lists, tuples, ranges) go straight through
    ``np.asarray``; iterators and generators are consumed by ``np.fromiter``.
    The historical implementation called ``list(...)`` on every non-array
    input, materializing sequences twice (once as the list copy, once as the
    array) — for a 100M-edge ingest that is an extra multi-GB allocation.
    """
    if isinstance(endpoints, np.ndarray):
        if endpoints.ndim != 1:
            raise GraphError(f"{label} must be one-dimensional")
        return np.asarray(endpoints, dtype=np.int64)
    if isinstance(endpoints, Sequence):
        return np.asarray(endpoints, dtype=np.int64)
    try:
        return np.fromiter(endpoints, dtype=np.int64)
    except TypeError as exc:
        raise GraphError(f"{label} must be an iterable of integers") from exc


def _build_csr(
    num_vertices: int, src: np.ndarray, dst: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Build a CSR adjacency (indptr, indices, edge order) with sorted neighbors.

    The returned ``order`` maps each CSR position back to the original edge
    index, which the GAS engine uses to look up per-edge placement metadata.
    """
    counts = np.bincount(src, minlength=num_vertices)
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    order = np.lexsort((dst, src))
    indices = dst[order].astype(np.int64, copy=True)
    return indptr, indices, order
