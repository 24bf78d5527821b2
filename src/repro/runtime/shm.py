"""Segment plane: zero-copy segments for parallel execution.

Every ``workers=N`` run (:mod:`repro.runtime.parallel`) hosts its graph and
each phase's output as files in one run-scoped directory, which workers map
read-only with ``mmap``:

* the graph is hosted as a :mod:`repro.graph.storage` container: a graph
  loaded with ``DiGraph.load_memmap`` ships its own container path without
  copying a byte, an in-RAM graph is saved once into the run directory;
* after each phase the coordinator writes the assembled CSR of that phase's
  output (Γ̂, then the kept rows) into one segment file
  (:meth:`ShmRegistry.share_arrays`);
* what crosses the process boundary is only *descriptors* — the graph's
  container path and :class:`BlockHandle` s of ``(segment path, dtype,
  length, offset)`` entries — plus each task's own row ids and its returned
  rows, never a shared array's payload.

The run directory lives under ``/dev/shm`` when that is a writable
directory, so segments are tmpfs pages exactly as POSIX shared memory
would be; elsewhere it lives under :func:`tempfile.gettempdir`, where
file-backed ``MAP_SHARED`` pages are reclaimable page cache.  Coherence
needs no flushing: coordinator writes and worker reads meet in the same
page cache on one host.

Lifecycle and crash safety
--------------------------
Every segment is created by the coordinator through a context-managed
:class:`ShmRegistry`; nothing here lets a worker create segments, so a
SIGKILLed worker can never leak one.  The registry removes its directory on
``close()`` (run in a ``finally``), and every directory name carries the
:data:`SEGMENT_PREFIX` so tests — and the CI leak check — can assert that
none survives success, crash and replay alike (:func:`list_segments`).  If
the coordinator itself dies, the kernel releases the ``flock`` its registry
held on the directory, and the next registry created on the host removes
every prefixed directory whose lock it can take.
"""

from __future__ import annotations

import fcntl
import mmap
import os
import shutil
import tempfile
from dataclasses import dataclass

import numpy as np

from repro.errors import EngineError
from repro.graph.storage import load_graph_memmap, save_graph_memmap

__all__ = [
    "SEGMENT_PREFIX",
    "ArrayHandle",
    "AttachmentCache",
    "BlockHandle",
    "ShmRegistry",
    "attach_graph",
    "attachment_cache",
    "list_segments",
    "share_graph",
]

#: Every run directory name starts with this, so leak checks can find strays.
SEGMENT_PREFIX = "snpl"

#: Segment payload offsets are aligned to this many bytes.
_ALIGN = 64


def _shm_writable() -> bool:
    return os.path.isdir("/dev/shm") and os.access("/dev/shm", os.W_OK)


def _segment_parent() -> str:
    """The directory run directories are created in."""
    return "/dev/shm" if _shm_writable() else tempfile.gettempdir()


def list_segments() -> list[str]:
    """Names of the live run directories under the segment parent.

    Used by the leak tests and the CI leak check.
    """
    try:
        return sorted(name for name in os.listdir(_segment_parent())
                      if name.startswith(SEGMENT_PREFIX))
    except OSError:
        return []


def _sweep_abandoned(parent: str) -> None:
    """Remove every run directory whose registry's holder has died.

    A live registry holds an exclusive ``flock`` on its directory, which the
    kernel drops when the holder exits however it exits, so a lock that can
    be taken marks an abandoned directory.  Liveness is never judged by PID,
    which is reused and is not unique across PID namespaces sharing
    ``/dev/shm``.
    """
    for name in list_segments():
        path = os.path.join(parent, name)
        try:
            fd = os.open(path, os.O_RDONLY | os.O_DIRECTORY | os.O_NOFOLLOW)
        except OSError:
            continue
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            shutil.rmtree(path, ignore_errors=True)
        except OSError:
            pass  # a live registry holds it
        finally:
            os.close(fd)


# ----------------------------------------------------------------------
# Registry: coordinator-owned segment lifecycle
# ----------------------------------------------------------------------
class ShmRegistry:
    """Owns one run directory of segment files; removes it on close.

    Only the coordinator holds a registry.  Workers merely *attach* (see
    :class:`AttachmentCache`), so worker crashes cannot leak segments — the
    registry's ``finally``-driven :meth:`close` is the single cleanup point,
    with the directory lock as the coordinator-death backstop.
    """

    def __init__(self) -> None:
        parent = _segment_parent()
        _sweep_abandoned(parent)
        while True:
            path = tempfile.mkdtemp(prefix=SEGMENT_PREFIX, dir=parent)
            fd = os.open(path, os.O_RDONLY | os.O_DIRECTORY)
            fcntl.flock(fd, fcntl.LOCK_EX)
            # Another registry's sweep may have taken the lock first and
            # removed the directory; if so, make a new one.
            try:
                if os.path.samestat(os.stat(path), os.fstat(fd)):
                    break
            except FileNotFoundError:
                pass
            os.close(fd)
        #: Absolute path of the run directory.
        self.path = path
        self._lock_fd: int | None = fd
        self._sequence = 0

    def close(self) -> None:
        """Remove the run directory and release its lock.  Idempotent."""
        fd, self._lock_fd = self._lock_fd, None
        if fd is not None:
            shutil.rmtree(self.path, ignore_errors=True)
            os.close(fd)

    def __enter__(self) -> "ShmRegistry":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def share_arrays(self, arrays: dict[str, np.ndarray]) -> "BlockHandle":
        """Write several arrays into one new segment file, 64-byte aligned."""
        self._sequence += 1
        segment = os.path.join(self.path, f"seg-{self._sequence:06d}")
        specs: dict[str, ArrayHandle] = {}
        with open(segment, "xb") as handle:
            for key, array in arrays.items():
                array = np.ascontiguousarray(array)
                offset = _align(handle.tell())
                handle.seek(offset)
                handle.write(array.data)
                specs[key] = ArrayHandle(segment, array.dtype.str,
                                         int(array.size), offset)
            # A mapping needs at least one byte, even for an empty block.
            handle.truncate(max(1, handle.tell()))
        return BlockHandle(segment, specs)


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


@dataclass(frozen=True)
class BlockHandle:
    """Several named arrays packed into one segment."""

    segment: str
    specs: dict[str, ArrayHandle]


# ----------------------------------------------------------------------
# Worker-side attachment cache
# ----------------------------------------------------------------------
class AttachmentCache:
    """Maps segment paths to live read-only mappings in a worker process.

    Mappings are made lazily per segment and cached; :meth:`retain` drops
    them once a task references different segments (every run hosts its
    phase outputs in fresh segments).  Removing the files stays with the
    coordinator's registry.
    """

    def __init__(self) -> None:
        self._mappings: dict[str, mmap.mmap] = {}

    def view(self, handle: ArrayHandle) -> np.ndarray:
        """A read-only NumPy view over the handle's array (zero-copy)."""
        mapping = self._mappings.get(handle.segment)
        if mapping is None:
            try:
                with open(handle.segment, "rb") as segment:
                    mapping = mmap.mmap(segment.fileno(), 0,
                                        access=mmap.ACCESS_READ)
            except FileNotFoundError:
                raise EngineError(
                    f"segment {handle.segment!r} has vanished; the "
                    "coordinator released it while a worker still needed it"
                ) from None
            self._mappings[handle.segment] = mapping
        return np.frombuffer(mapping, dtype=np.dtype(handle.dtype),
                             count=handle.length, offset=handle.offset)

    def retain(self, names: set[str]) -> None:
        """Drop the mappings of segments outside ``names``."""
        for name in [name for name in self._mappings if name not in names]:
            try:
                self._mappings.pop(name).close()
            except BufferError:
                # A NumPy view still reads the mapping; it is unmapped when
                # the last such view is garbage-collected.
                pass


_worker_cache: AttachmentCache | None = None


def attachment_cache() -> AttachmentCache:
    """The process-wide attachment cache (one per worker process)."""
    global _worker_cache
    if _worker_cache is None:
        _worker_cache = AttachmentCache()
    return _worker_cache


# ----------------------------------------------------------------------
# Graph sharing
# ----------------------------------------------------------------------
def share_graph(registry: ShmRegistry, graph) -> str:
    """The path of a container holding ``graph``, saving one if needed.

    A graph that already lives in a container (``DiGraph.load_memmap``)
    ships as its existing path — zero copies; an in-RAM graph is saved once
    into the registry's run directory and removed with it on close.
    """
    path = graph.memmap_path
    if path is None:
        path = os.fspath(save_graph_memmap(
            graph, os.path.join(registry.path, "graph")))
    return path


def attach_graph(handle: str, cache: AttachmentCache | None = None):
    """Map the hosted graph read-only (worker side).

    ``cache`` is accepted so that callers holding an attachment cache keep
    their call shape, and is not used: the container's mapping lives as long
    as the returned graph, with the paging hints
    :func:`~repro.graph.storage.load_graph_memmap` applies.
    """
    return load_graph_memmap(handle)
