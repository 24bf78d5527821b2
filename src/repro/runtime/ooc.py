"""Spool-file segments, and the choice of segment plane.

Every ``workers=N`` run hosts its graph and state on one of two planes,
chosen by :func:`segment_plane` and nowhere else:

* **shm** — POSIX shared memory (:mod:`repro.runtime.shm`), when the
  platform can create segments and ``SNAPLE_OOC`` is unset;
* **spool** — plain files mapped with ``mmap`` (this module), everywhere
  else: with ``SNAPLE_OOC=1`` to bound peak RSS, and on platforms without
  shared memory.

On the spool plane:

* the graph ships as a :class:`MemmapGraphHandle` — the path of an on-disk
  container (:mod:`repro.graph.storage`) each worker maps read-only in
  O(1), reusing a pre-existing container (``DiGraph.load_memmap``) without
  copying a byte;
* each phase's assembled output lives in *spool files* created by a
  :class:`MemmapRegistry` under one run-scoped spool directory
  (``$TMPDIR/snaple-ooc-*``, override the parent with ``SNAPLE_OOC_DIR``);
* what crosses the process boundary is unchanged — the same
  ``ArrayHandle`` descriptors, except the segment "name" is an absolute
  file path, which :class:`~repro.runtime.shm.AttachmentCache` recognizes
  and maps read-only.

Because file-backed ``MAP_SHARED`` pages are reclaimable page cache rather
than anonymous memory, the kernel can evict cold graph and phase-output pages
under pressure: peak RSS stays bounded while the on-disk working set grows
(``benchmarks/bench_out_of_core.py`` gates on exactly this).  Coherence
needs no flushing — coordinator writes and worker reads meet in the same
page cache on one host.

Everything else is shared with the shm plane: :class:`MemmapRegistry`
reuses the shm registry's packing, release and accounting logic because
:class:`FileSegment` duck-types ``multiprocessing.shared_memory``'s
segment object (``name``/``buf``/``size``/``close``/``unlink`` plus the
``_buf``/``_mmap`` attributes the BufferError disarm path pokes), so
``share_arrays`` hosts a phase's output on either plane.  Results and
deterministic accounting are
bit-identical on both planes — the parity grid asserts it — so a
crash-recovered run on either plane equals an uninterrupted run on the
other.

The spool directory is removed on registry close (``finally``-driven, like
the shm plane); there is no resource-tracker backstop for plain files, so
the leak tests and CI additionally assert no ``snaple-ooc-*`` directory
survives a run.
"""

from __future__ import annotations

import mmap
import os
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

from repro.runtime.shm import ShmRegistry, shm_available
from repro.runtime.state import env_flag

__all__ = [
    "SPOOL_PREFIX",
    "FileSegment",
    "MemmapGraphHandle",
    "MemmapRegistry",
    "attach_file_segment",
    "list_spool_dirs",
    "ooc_enabled",
    "segment_plane",
    "spool_graph",
]

#: Every spool directory name starts with this, so leak checks can find
#: strays (the on-disk analogue of ``shm.SEGMENT_PREFIX``).
SPOOL_PREFIX = "snaple-ooc-"


def ooc_enabled() -> bool:
    """Whether ``SNAPLE_OOC=1`` selects the spool plane."""
    return env_flag("SNAPLE_OOC")


def segment_plane() -> type[ShmRegistry]:
    """The registry class a run or service hosts its segments with.

    :class:`~repro.runtime.shm.ShmRegistry` when the platform can create
    shared-memory segments and ``SNAPLE_OOC`` is unset, otherwise
    :class:`MemmapRegistry`.  This is the only place the plane is chosen.
    Results are bit-identical on both.
    """
    if shm_available() and not ooc_enabled():
        return ShmRegistry
    return MemmapRegistry


def _spool_parent() -> str:
    return os.environ.get("SNAPLE_OOC_DIR") or tempfile.gettempdir()


def list_spool_dirs() -> list[str]:
    """Live spool directories under the configured parent.

    Used by the leak tests and the CI leak check, mirroring
    :func:`repro.runtime.shm.list_segments`.
    """
    try:
        return sorted(
            name for name in os.listdir(_spool_parent())
            if name.startswith(SPOOL_PREFIX)
        )
    except OSError:
        return []


class FileSegment:
    """One spool file mapped like a shared-memory segment.

    Duck-types the segment objects :class:`~repro.runtime.shm.ShmRegistry`
    and :class:`~repro.runtime.shm.AttachmentCache` traffic in: ``name`` is
    the *absolute file path* (which is what makes the descriptors
    self-routing — the attachment cache maps any name that is a path),
    ``buf`` is a memoryview over the mapping, and ``close``/``unlink``
    split exactly as they do for POSIX shm (mapping vs. name).  The
    ``_buf``/``_mmap`` attributes exist so the registry's BufferError
    disarm path works unchanged when a NumPy view outlives a release.
    """

    def __init__(self, path: str | Path, size: int | None = None, *,
                 create: bool = False) -> None:
        path = os.path.abspath(os.fspath(path))
        if create:
            if size is None or size < 1:
                raise ValueError("creating a FileSegment requires size >= 1")
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_RDWR, 0o600)
            try:
                os.ftruncate(fd, size)
                self._mmap = mmap.mmap(fd, size, access=mmap.ACCESS_WRITE)
            finally:
                os.close(fd)
        else:
            fd = os.open(path, os.O_RDONLY)
            try:
                size = os.fstat(fd).st_size
                self._mmap = mmap.mmap(fd, size, access=mmap.ACCESS_READ)
            finally:
                os.close(fd)
        self._path = path
        self._size = int(size)
        self._buf: memoryview | None = memoryview(self._mmap)

    @property
    def name(self) -> str:
        return self._path

    @property
    def size(self) -> int:
        return self._size

    @property
    def buf(self) -> memoryview:
        return self._buf

    def close(self) -> None:
        """Drop the mapping (raises ``BufferError`` while views are live)."""
        if self._buf is not None:
            self._buf.release()
            self._buf = None
        if self._mmap is not None:
            self._mmap.close()
            self._mmap = None

    def unlink(self) -> None:
        """Remove the file name; existing mappings stay valid."""
        try:
            os.unlink(self._path)
        except FileNotFoundError:
            pass


def attach_file_segment(path: str) -> FileSegment:
    """Worker-side read-only attachment to a coordinator spool file."""
    return FileSegment(path)


class MemmapRegistry(ShmRegistry):
    """An :class:`~repro.runtime.shm.ShmRegistry` over on-disk spool files.

    Only segment creation differs — everything else (per-segment release,
    the array/block packing helpers, byte accounting) is inherited, which
    is what keeps the shm and out-of-core transports behaviourally
    identical.  ``close`` additionally removes the spool directory.
    """

    def __init__(self, spool_parent: str | Path | None = None) -> None:
        super().__init__()
        parent = os.fspath(spool_parent) if spool_parent else _spool_parent()
        self._spool_dir = Path(tempfile.mkdtemp(prefix=SPOOL_PREFIX,
                                                dir=parent))

    @property
    def spool_dir(self) -> Path:
        return self._spool_dir

    def create(self, nbytes: int) -> FileSegment:
        """A new spool-file segment of at least ``nbytes`` (1-byte floor)."""
        size = max(1, int(nbytes))
        self._sequence += 1
        path = self._spool_dir / f"seg-{self._sequence:06d}.bin"
        segment = FileSegment(path, size, create=True)
        self._segments[segment.name] = segment
        self._created_bytes += size
        return segment

    def close(self) -> None:
        """Release every segment and remove the spool directory.  Idempotent."""
        super().close()
        shutil.rmtree(self._spool_dir, ignore_errors=True)

    def host_graph(self, graph) -> "MemmapGraphHandle":
        """Host ``graph`` on this plane: as an on-disk container."""
        return spool_graph(self, graph)


@dataclass(frozen=True)
class MemmapGraphHandle:
    """The whole CSR graph as an on-disk container, shipped by path.

    The out-of-core analogue of :class:`~repro.runtime.shm.ShmGraphHandle`:
    instead of packing the eight CSR arrays into a segment, the coordinator
    ships the path of a :mod:`repro.graph.storage` container and each
    worker maps it read-only in O(1).
    """

    path: str
    num_vertices: int
    num_edges: int

    def attach(self):
        """Map the container as a read-only graph (worker side)."""
        from repro.graph.storage import load_graph_memmap

        return load_graph_memmap(self.path)


def spool_graph(registry: MemmapRegistry, graph) -> MemmapGraphHandle:
    """A graph handle over an on-disk container, spooling one if needed.

    A graph that already lives in a container (``DiGraph.load_memmap``)
    ships as its existing path — zero copies; an in-RAM graph is persisted
    once into the registry's spool directory (removed with it on close).
    """
    path = graph.memmap_path
    if path is None:
        from repro.graph.storage import save_graph_memmap

        path = registry.spool_dir / "graph"
        save_graph_memmap(graph, path)
    return MemmapGraphHandle(str(path), graph.num_vertices, graph.num_edges)
