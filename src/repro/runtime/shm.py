"""Segment plane: zero-copy segments for parallel execution.

Every ``workers=N`` run (:mod:`repro.runtime.parallel`) hosts its graph and
state on one segment plane.  This module is the plane's machinery and its
POSIX shared memory substrate (:mod:`multiprocessing.shared_memory`):

* the CSR adjacency of the graph and the columnar
  :class:`~repro.runtime.state.StateStore` columns live in segments created
  by the coordinator and mapped once by every worker;
* what crosses the process boundary per superstep is only *descriptors* —
  ``(segment, dtype, length)`` handles plus the boundary row-index arrays —
  never the column payloads themselves;
* workers gather the rows they need directly out of the mapped columns into
  the same :class:`~repro.runtime.state.StateSlice` arrays
  :meth:`~repro.runtime.state.StateStore.extract` would build.

The other substrate is spool files (:mod:`repro.runtime.ooc`), whose
registry, segments and graph handle duck-type the ones here, so the
descriptors, the allocator and the attachment cache serve both.
:func:`repro.runtime.ooc.segment_plane` chooses between them.

Lifecycle and crash safety
--------------------------
Every segment is created by the coordinator through a context-managed
:class:`ShmRegistry`; nothing here lets a worker create segments, so a
SIGKILLed worker can never leak one.  The registry unlinks all outstanding
segments on ``close()`` (run in a ``finally``), and every segment name
carries the :data:`SEGMENT_PREFIX` so tests — and the CI leak check — can
assert ``/dev/shm`` is clean after success, crash and replay alike.  If the
coordinator itself dies, Python's ``resource_tracker`` unlinks whatever the
registry could not, as a last-resort backstop.
"""

from __future__ import annotations

import os
import secrets
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Any

import numpy as np

from repro.errors import EngineError
from repro.runtime.state import StateSlice, StateStore, gather_slices

__all__ = [
    "SEGMENT_PREFIX",
    "ArrayHandle",
    "AttachmentCache",
    "BlockHandle",
    "ShmColumnAllocator",
    "ShmGraphHandle",
    "ShmRegistry",
    "ShmSliceHandle",
    "attach_graph",
    "attachment_cache",
    "list_segments",
    "share_graph",
    "shm_available",
    "state_slice_handle",
]

#: Every segment name starts with this, so leak checks can find strays.
#: Kept short: macOS limits POSIX shm names to ~31 characters.
SEGMENT_PREFIX = "snpl"

#: Segment payload offsets are aligned to this many bytes.
_ALIGN = 64

_available: bool | None = None


def shm_available() -> bool:
    """Whether this platform can create shared-memory segments at all."""
    global _available
    if _available is None:
        try:
            probe = shared_memory.SharedMemory(create=True, size=1)
            probe.close()
            probe.unlink()
            _available = True
        except (OSError, ValueError, ImportError):
            _available = False
    return _available


def list_segments() -> list[str]:
    """Names of live segments created by this module (Linux: ``/dev/shm``).

    Used by the leak tests and the CI leak check; returns ``[]`` on
    platforms without a browsable segment directory.
    """
    try:
        return sorted(
            name for name in os.listdir("/dev/shm")
            if name.startswith(SEGMENT_PREFIX)
        )
    except OSError:
        return []


# ----------------------------------------------------------------------
# Registry: coordinator-owned segment lifecycle
# ----------------------------------------------------------------------
class ShmRegistry:
    """Creates and owns shared-memory segments; unlinks them all on close.

    Only the coordinator holds a registry.  Workers merely *attach* (see
    :class:`AttachmentCache`), so worker crashes cannot leak segments — the
    registry's ``finally``-driven :meth:`close` is the single cleanup point,
    with Python's ``resource_tracker`` as the crash backstop.
    """

    def __init__(self) -> None:
        self._segments: dict[str, shared_memory.SharedMemory] = {}
        self._sequence = 0
        self._token = secrets.token_hex(3)
        self._created_bytes = 0

    # -- naming --------------------------------------------------------
    def _next_name(self) -> str:
        self._sequence += 1
        return (
            f"{SEGMENT_PREFIX}{os.getpid() & 0xFFFFFF:06x}"
            f"{self._token}{self._sequence:04x}"
        )

    # -- lifecycle -----------------------------------------------------
    def create(self, nbytes: int) -> shared_memory.SharedMemory:
        """A new segment of at least ``nbytes`` (1-byte floor for empties)."""
        size = max(1, int(nbytes))
        while True:
            name = self._next_name()
            try:
                segment = shared_memory.SharedMemory(
                    name=name, create=True, size=size
                )
                break
            except FileExistsError:  # pragma: no cover - name collision
                continue
        self._segments[segment.name] = segment
        self._created_bytes += size
        return segment

    def release(self, name: str) -> None:
        """Unlink one segment now (e.g. a column buffer that grew)."""
        segment = self._segments.pop(name, None)
        if segment is None:
            return
        try:
            segment.close()
        except BufferError:
            # A NumPy view of the segment is still alive (e.g. the
            # coordinator replaced a column buffer while a caller holds the
            # old one).  Disarm the segment object — its __del__ would
            # re-raise — and let the mapping be reclaimed when the last
            # view is garbage-collected.  Unlinking below removes the name
            # right away regardless.
            segment._buf = None
            segment._mmap = None
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    def close(self) -> None:
        """Unlink every outstanding segment.  Idempotent."""
        for name in list(self._segments):
            self.release(name)

    def __enter__(self) -> "ShmRegistry":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- accounting ----------------------------------------------------
    @property
    def num_segments(self) -> int:
        return len(self._segments)

    @property
    def created_bytes(self) -> int:
        """Total bytes ever allocated through this registry."""
        return self._created_bytes

    def live_bytes(self) -> int:
        return sum(segment.size for segment in self._segments.values())

    # -- array packing -------------------------------------------------
    def share_array(self, array: np.ndarray) -> "ArrayHandle":
        """Copy one array into its own segment and return its handle."""
        array = np.ascontiguousarray(array)
        segment = self.create(array.nbytes)
        view = np.frombuffer(segment.buf, dtype=array.dtype,
                             count=array.size)
        view[:] = array.reshape(-1)
        return ArrayHandle(segment.name, array.dtype.str, int(array.size))

    def share_arrays(self, arrays: dict[str, np.ndarray]) -> "BlockHandle":
        """Pack several arrays into one segment (aligned), return the block."""
        specs: dict[str, ArrayHandle] = {}
        offset = 0
        items = {
            key: np.ascontiguousarray(array) for key, array in arrays.items()
        }
        for key, array in items.items():
            offset = _align(offset)
            specs[key] = ArrayHandle(
                "", array.dtype.str, int(array.size), offset
            )
            offset += array.nbytes
        segment = self.create(offset)
        for key, array in items.items():
            spec = specs[key]
            view = np.frombuffer(segment.buf, dtype=array.dtype,
                                 count=array.size, offset=spec.offset)
            view[:] = array.reshape(-1)
            specs[key] = ArrayHandle(segment.name, spec.dtype, spec.length,
                                     spec.offset)
        return BlockHandle(segment.name, specs)

    def host_graph(self, graph: Any) -> "ShmGraphHandle":
        """Host ``graph`` on this plane: its CSR arrays packed in a segment."""
        return share_graph(self, graph)


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


# ----------------------------------------------------------------------
# Picklable descriptors (what actually crosses the process boundary)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ArrayHandle:
    """One flat array inside a segment: ``(segment, dtype, length, offset)``."""

    segment: str
    dtype: str
    length: int
    offset: int = 0

    @property
    def nbytes(self) -> int:
        return int(np.dtype(self.dtype).itemsize) * self.length


@dataclass(frozen=True)
class BlockHandle:
    """Several named arrays packed into one segment."""

    segment: str
    specs: dict[str, ArrayHandle]


# ----------------------------------------------------------------------
# Worker-side attachment cache
# ----------------------------------------------------------------------
class AttachmentCache:
    """Maps segment names to live attachments in a worker process.

    Attachments are made lazily per handle and cached; the graph segment is
    *pinned* for the process lifetime, everything else is dropped by
    :meth:`retain` once a newer superstep references different segments
    (state columns migrate to new segments when they grow).  Dropping closes
    the mapping; unlinking stays with the coordinator's registry.
    """

    def __init__(self) -> None:
        self._attachments: dict[str, shared_memory.SharedMemory] = {}
        self._pinned: set[str] = set()

    def _get(self, name: str) -> shared_memory.SharedMemory:
        segment = self._attachments.get(name)
        if segment is None:
            try:
                if os.path.isabs(name):
                    # An absolute path is an out-of-core spool file (see
                    # repro.runtime.ooc), not a POSIX segment name; map the
                    # file read-only through the same cache.
                    from repro.runtime.ooc import attach_file_segment

                    segment = attach_file_segment(name)
                else:
                    segment = shared_memory.SharedMemory(name=name)
            except FileNotFoundError:
                raise EngineError(
                    f"shared-memory segment {name!r} has vanished; the "
                    "coordinator released it while a worker still needed it"
                ) from None
            self._attachments[name] = segment
        return segment

    def pin(self, name: str) -> None:
        """Keep ``name`` attached for the process lifetime."""
        self._pinned.add(name)

    def view(self, handle: ArrayHandle) -> np.ndarray:
        """A read-only NumPy view over the handle's array (zero-copy)."""
        segment = self._get(handle.segment)
        view = np.frombuffer(segment.buf, dtype=np.dtype(handle.dtype),
                             count=handle.length, offset=handle.offset)
        view.flags.writeable = False
        return view

    def retain(self, names: set[str]) -> None:
        """Drop attachments outside ``names`` (pinned ones always stay)."""
        keep = names | self._pinned
        for name in list(self._attachments):
            if name in keep:
                continue
            segment = self._attachments.pop(name)
            try:
                segment.close()
            except BufferError:  # pragma: no cover - view still exported
                self._attachments[name] = segment


_worker_cache: AttachmentCache | None = None


def attachment_cache() -> AttachmentCache:
    """The process-wide attachment cache (one per worker process)."""
    global _worker_cache
    if _worker_cache is None:
        _worker_cache = AttachmentCache()
    return _worker_cache


# ----------------------------------------------------------------------
# Column allocator: StateStore columns backed by shared segments
# ----------------------------------------------------------------------
class ShmColumnAllocator:
    """A :class:`~repro.runtime.state.StateStore` allocator over a registry.

    Every column buffer becomes one segment of the registry's plane (shared
    memory or a spool file); buffers that grow get a
    fresh segment and the old one is unlinked immediately (workers drop
    stale attachments at their next task).  :meth:`describe` turns a live
    buffer into the picklable :class:`ArrayHandle` the coordinator ships
    instead of the data.
    """

    def __init__(self, registry: ShmRegistry) -> None:
        self._registry = registry
        self._by_array: dict[int, str] = {}

    def empty(self, length: int, dtype: Any) -> np.ndarray:
        dtype = np.dtype(dtype)
        segment = self._registry.create(int(length) * dtype.itemsize)
        array = np.frombuffer(segment.buf, dtype=dtype, count=int(length))
        self._by_array[id(array)] = segment.name
        return array

    def free(self, array: np.ndarray) -> None:
        name = self._by_array.pop(id(array), None)
        if name is not None:
            self._registry.release(name)

    def describe(self, array: np.ndarray,
                 length: int | None = None) -> ArrayHandle:
        name = self._by_array.get(id(array))
        if name is None:
            raise EngineError(
                "array is not backed by this allocator's shared memory"
            )
        return ArrayHandle(
            name, array.dtype.str,
            int(array.size if length is None else length),
        )


# ----------------------------------------------------------------------
# Graph sharing
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShmGraphHandle:
    """The whole CSR graph as one mapped segment, shipped by descriptor."""

    num_vertices: int
    num_edges: int
    block: BlockHandle

    def attach(self) -> Any:
        """The graph as views over the segment (worker side)."""
        return attach_graph(self, attachment_cache())


_GRAPH_ARRAYS = (
    "out_indptr", "out_indices", "out_order",
    "in_indptr", "in_indices", "in_order",
    "edge_src", "edge_dst",
)


def share_graph(registry: ShmRegistry, graph: Any) -> ShmGraphHandle:
    """Pack a :class:`~repro.graph.digraph.DiGraph`'s arrays into a segment."""
    arrays = {
        "out_indptr": graph._out_indptr,
        "out_indices": graph._out_indices,
        "out_order": graph._out_order,
        "in_indptr": graph._in_indptr,
        "in_indices": graph._in_indices,
        "in_order": graph._in_order,
        "edge_src": graph._edge_src,
        "edge_dst": graph._edge_dst,
    }
    return ShmGraphHandle(
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        block=registry.share_arrays(arrays),
    )


def attach_graph(handle: ShmGraphHandle, cache: AttachmentCache) -> Any:
    """Reconstruct the graph as read-only views over the mapped segment.

    The segment is pinned in the cache: graph views live for the worker
    process's whole lifetime.  Paging hints are applied per region —
    ``WILLNEED`` on the indptr tables every row lookup walks, ``RANDOM`` on
    the index rows the kernel probes sparsely — mirroring the memmap loader.
    """
    from repro.graph.digraph import DiGraph
    from repro.graph.storage import GRAPH_REGION_ADVICE, madvise_region

    cache.pin(handle.block.segment)
    views = {
        key: cache.view(handle.block.specs[key]) for key in _GRAPH_ARRAYS
    }
    mapping = getattr(cache._get(handle.block.segment), "_mmap", None)
    for key, region_advices in GRAPH_REGION_ADVICE.items():
        spec = handle.block.specs[key]
        madvise_region(mapping, spec.offset, spec.nbytes, *region_advices)
    return DiGraph.from_csr_arrays(
        handle.num_vertices,
        out_indptr=views["out_indptr"],
        out_indices=views["out_indices"],
        out_order=views["out_order"],
        in_indptr=views["in_indptr"],
        in_indices=views["in_indices"],
        in_order=views["in_order"],
        edge_src=views["edge_src"],
        edge_dst=views["edge_dst"],
    )


# ----------------------------------------------------------------------
# State-slice handles (per-superstep boundary exchange)
# ----------------------------------------------------------------------
@dataclass
class ShmSliceHandle:
    """A :class:`StateSlice` by reference: column handles + row indices.

    The only array payload shipped is ``rows`` — the owned+boundary vertex
    ids the task reads.  ``materialize`` gathers those rows out of the
    mapped columns in the worker, producing arrays element-identical to
    what :meth:`StateStore.extract` returns in the coordinator.
    """

    num_vertices: int
    rows: np.ndarray
    ragged: dict[str, tuple[ArrayHandle, ArrayHandle, ArrayHandle,
                            ArrayHandle | None]] = field(default_factory=dict)

    def segments(self) -> set[str]:
        names: set[str] = set()
        for starts, lengths, ids, vals in self.ragged.values():
            names.update((starts.segment, lengths.segment, ids.segment))
            if vals is not None:
                names.add(vals.segment)
        return names

    def transport_nbytes(self) -> int:
        """Actual bytes this handle ships across the process boundary."""
        return int(self.rows.nbytes)

    def materialize(self, cache: AttachmentCache) -> StateSlice:
        rows = self.rows
        out = StateSlice(num_vertices=self.num_vertices, rows=rows)
        for name, (h_starts, h_lengths, h_ids, h_vals) in self.ragged.items():
            starts = cache.view(h_starts)[rows]
            counts = cache.view(h_lengths)[rows]
            present = starts >= 0
            positions = gather_slices(np.maximum(starts, 0), counts)
            ids = cache.view(h_ids)[positions]
            vals = (cache.view(h_vals)[positions]
                    if h_vals is not None else None)
            out.ragged[name] = (counts, ids, vals, present)
        return out


def state_slice_handle(store: StateStore, rows: np.ndarray,
                       fields: tuple[str, ...]) -> ShmSliceHandle:
    """Descriptors for ``fields`` × ``rows`` of a segment-backed store.

    The equivalent of :meth:`StateStore.extract`, except no column data is
    copied or pickled — only the (sorted) row-index array ships.
    """
    allocator = store.allocator
    if not isinstance(allocator, ShmColumnAllocator):
        raise EngineError(
            "state_slice_handle needs a StateStore allocated on a segment "
            "plane (ShmColumnAllocator)"
        )
    rows = np.sort(np.asarray(rows, dtype=np.int64))
    handle = ShmSliceHandle(num_vertices=store.num_vertices, rows=rows)
    for name in fields:
        column = store._column(name)
        handle.ragged[name] = (
            allocator.describe(column.starts),
            allocator.describe(column.lengths),
            allocator.describe(column._ids, length=column._used),
            (allocator.describe(column._vals, length=column._used)
             if column._vals is not None else None),
        )
    return handle
