"""On-disk CSR graph container: O(1) memmap loads, bounded-RSS builds.

Millions of users means graphs that do not fit in RAM.  This module persists
the eight CSR arrays of a :class:`~repro.graph.digraph.DiGraph` in a single
page-aligned data file so a graph of any size loads in O(1) as read-only
``np.memmap`` views — the OS pages adjacency in and out on demand and peak
RSS stays bounded by the working set, not the graph.

On-disk layout
--------------
One container is one directory: a JSON manifest beside one data file.  The
manifest holds a SHA-256 digest per array region, and a container becomes
visible only through an atomic tmp-dir + ``os.replace`` publication, so a
build that dies halfway never leaves a loadable half-written container::

    <container>/
        manifest.json     # format version, |V|, |E|, per-array region table
        graph.bin         # the 8 CSR arrays, each region page-aligned

``manifest.json`` records, per array, its byte ``offset`` into ``graph.bin``
(aligned to 4096 so each region can be mapped/advised independently), its
element ``length``, dtype, byte size, and SHA-256 digest.  Loading validates
the region table structurally (completeness, bounds, dtypes) in O(1);
``verify=True`` additionally streams the file through SHA-256 in bounded
chunks.

Building without RAM
--------------------
:func:`build_graph_memmap` consumes an *iterable of edge chunks* — it never
holds the edge list — and reproduces ``DiGraph.__init__``'s CSR bit-exactly
in three bounded-memory passes:

1. spool the chunks into the container's ``edge_src``/``edge_dst`` regions
   while accumulating O(V) degree counts (→ the two indptr arrays);
2. counting-sort scatter each chunk into the indices/order regions using
   O(V) write cursors (stable within a row: original edge order);
3. re-sort each row by ``(neighbor, original edge index)`` in vertex windows
   of bounded edge span — exactly the ``np.lexsort((dst, src))`` order the
   in-RAM constructor produces.

Between passes the dirty pages are flushed and dropped from the process
with ``madvise(MADV_DONTNEED)`` (they stay in the page cache), so building
a 10M-edge graph keeps peak RSS flat instead of resident-izing the file.

``python -m repro.graph.storage generate ...`` exposes the streamed
generator-to-disk path as a subprocess with a JSON report (wall clock, peak
RSS, container size) — the out-of-core benchmark and CI smoke run each
measurement in a fresh process because ``ru_maxrss`` is a high-water mark.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import shutil
from collections.abc import Iterable, Iterator, Sequence
from pathlib import Path
from typing import Any

import numpy as np

from repro.errors import GraphIOError
from repro.graph.digraph import CSR_ARRAY_NAMES, DiGraph

__all__ = [
    "GRAPH_FORMAT_VERSION",
    "GRAPH_MANIFEST_NAME",
    "GRAPH_DATA_NAME",
    "build_graph_memmap",
    "is_graph_container",
    "load_graph_memmap",
    "madvise_array",
    "read_graph_manifest",
    "save_graph_memmap",
]

#: Bumped whenever the container layout changes incompatibly.
GRAPH_FORMAT_VERSION = 1

GRAPH_MANIFEST_NAME = "manifest.json"
GRAPH_DATA_NAME = "graph.bin"

#: Region alignment: one page, so every array can be advised independently
#: and int64 views are always aligned.
_PAGE = 4096

#: Chunk size (bytes) for streamed hashing — bounded regardless of graph size.
_HASH_CHUNK_BYTES = 4 * 1024 * 1024

#: Default edge-chunk size for the streaming builder's internal passes.
_BUILD_CHUNK_EDGES = 262_144

_INT64 = np.dtype(np.int64)


def _align(offset: int) -> int:
    return (offset + _PAGE - 1) & ~(_PAGE - 1)


def _layout(num_vertices: int, num_edges: int) -> dict[str, tuple[int, int]]:
    """``{name: (offset, length)}`` for the 8 arrays, in canonical order."""
    lengths = {
        "out_indptr": num_vertices + 1,
        "out_indices": num_edges,
        "out_order": num_edges,
        "in_indptr": num_vertices + 1,
        "in_indices": num_edges,
        "in_order": num_edges,
        "edge_src": num_edges,
        "edge_dst": num_edges,
    }
    layout: dict[str, tuple[int, int]] = {}
    offset = 0
    for name in CSR_ARRAY_NAMES:
        layout[name] = (offset, lengths[name])
        offset = _align(offset + lengths[name] * _INT64.itemsize)
    return layout


def _total_bytes(layout: dict[str, tuple[int, int]]) -> int:
    last_offset, last_length = layout[CSR_ARRAY_NAMES[-1]]
    return max(_PAGE, _align(last_offset + last_length * _INT64.itemsize))


def madvise_array(array: np.ndarray, *advices: str) -> bool:
    """Apply ``madvise`` hints to a memmap-backed array; best-effort.

    ``advices`` are lowercase names without the ``MADV_`` prefix
    (``"sequential"``, ``"willneed"``, ``"dontneed"``, ``"random"``).
    Returns ``True`` when at least one hint was applied; arrays that are not
    memmap-backed (or platforms without ``mmap.madvise``) are a no-op, never
    an error — hints must not change behaviour, only paging.
    """
    mm = getattr(array, "_mmap", None)
    if mm is None:
        base = getattr(array, "base", None)
        mm = base if isinstance(base, mmap.mmap) else getattr(base, "_mmap", None)
    if mm is None or not hasattr(mm, "madvise"):
        return False
    applied = False
    for name in advices:
        flag = getattr(mmap, f"MADV_{name.upper()}", None)
        if flag is None:
            continue
        try:
            mm.madvise(flag)
            applied = True
        except (OSError, ValueError):  # pragma: no cover - kernel-dependent
            pass
    return applied


def madvise_region(mm, offset: int, nbytes: int, *advices: str) -> bool:
    """Apply ``madvise`` hints to one byte range of a mapping; best-effort.

    ``madvise`` requires a page-aligned start, so the range is widened down
    to the containing page boundary and clamped to the mapping.  Same
    contract as :func:`madvise_array`: hints never change behaviour, only
    paging, and platforms without range ``madvise`` are a silent no-op.
    """
    if mm is None or not hasattr(mm, "madvise") or nbytes <= 0:
        return False
    start = (int(offset) // _PAGE) * _PAGE
    try:
        length = min(int(offset) + int(nbytes), len(mm)) - start
    except TypeError:  # pragma: no cover - exotic mapping without len()
        return False
    if length <= 0:
        return False
    applied = False
    for name in advices:
        flag = getattr(mmap, f"MADV_{name.upper()}", None)
        if flag is None:
            continue
        try:
            mm.madvise(flag, start, length)
            applied = True
        except (OSError, ValueError):  # pragma: no cover - kernel-dependent
            pass
    return applied


#: Access-pattern hints per CSR region: ``indptr`` is touched by every row
#: lookup (prefault it), ``indices`` is sparse random row reads under the
#: serving workload (don't readahead past the row).
GRAPH_REGION_ADVICE: dict[str, tuple[str, ...]] = {
    "out_indptr": ("willneed",),
    "in_indptr": ("willneed",),
    "out_indices": ("random",),
    "in_indices": ("random",),
}


# ----------------------------------------------------------------------
# Manifest
# ----------------------------------------------------------------------
def is_graph_container(path: str | Path) -> bool:
    """``True`` when ``path`` looks like an on-disk graph container."""
    path = Path(path)
    return (path / GRAPH_MANIFEST_NAME).is_file() and (
        path / GRAPH_DATA_NAME
    ).is_file()


def read_graph_manifest(path: str | Path) -> dict[str, Any]:
    """Read and structurally validate a container's manifest (O(1))."""
    path = Path(path)
    manifest_path = path / GRAPH_MANIFEST_NAME
    try:
        manifest = json.loads(manifest_path.read_bytes())
    except OSError as exc:
        raise GraphIOError(
            f"graph container {path} has no readable manifest: {exc}"
        ) from exc
    except ValueError as exc:
        raise GraphIOError(
            f"graph manifest {manifest_path} is truncated or not valid "
            f"JSON: {exc}"
        ) from exc
    version = manifest.get("format_version")
    if version != GRAPH_FORMAT_VERSION:
        raise GraphIOError(
            f"graph container {path} has format version {version!r}; this "
            f"build reads version {GRAPH_FORMAT_VERSION}"
        )
    if manifest.get("kind") != "graph":
        raise GraphIOError(
            f"{manifest_path} does not describe a graph container "
            f"(kind={manifest.get('kind')!r})"
        )
    num_vertices = manifest.get("num_vertices")
    num_edges = manifest.get("num_edges")
    if (not isinstance(num_vertices, int) or num_vertices < 0
            or not isinstance(num_edges, int) or num_edges < 0):
        raise GraphIOError(
            f"graph manifest {manifest_path} has invalid vertex/edge counts "
            f"({num_vertices!r}, {num_edges!r})"
        )
    arrays = manifest.get("arrays")
    if not isinstance(arrays, dict):
        raise GraphIOError(
            f"graph manifest {manifest_path} is missing its array table"
        )
    expected = _layout(num_vertices, num_edges)
    data_path = path / GRAPH_DATA_NAME
    try:
        data_bytes = data_path.stat().st_size
    except OSError as exc:
        raise GraphIOError(
            f"graph container {path} has no readable data file: {exc}"
        ) from exc
    for name in CSR_ARRAY_NAMES:
        entry = arrays.get(name)
        if not isinstance(entry, dict):
            raise GraphIOError(
                f"graph manifest {manifest_path} is missing array {name!r}"
            )
        offset, length = expected[name]
        if (int(entry.get("offset", -1)) != offset
                or int(entry.get("length", -1)) != length
                or entry.get("dtype") != _INT64.str):
            raise GraphIOError(
                f"graph manifest {manifest_path}: array {name!r} region "
                f"{entry!r} does not match the expected layout "
                f"(offset={offset}, length={length}, dtype={_INT64.str})"
            )
        if offset + length * _INT64.itemsize > data_bytes:
            raise GraphIOError(
                f"graph container {path}: array {name!r} extends past the "
                f"end of {GRAPH_DATA_NAME} ({data_bytes} bytes); the "
                f"container is truncated"
            )
    return manifest


def _region_digest(handle, offset: int, nbytes: int) -> str:
    digest = hashlib.sha256()
    handle.seek(offset)
    remaining = nbytes
    while remaining > 0:
        chunk = handle.read(min(_HASH_CHUNK_BYTES, remaining))
        if not chunk:
            raise GraphIOError(
                f"graph data file truncated while hashing (needed "
                f"{remaining} more bytes at offset {offset})"
            )
        digest.update(chunk)
        remaining -= len(chunk)
    return digest.hexdigest()


def _write_manifest(container: Path, *, num_vertices: int, num_edges: int,
                    arrays: dict[str, dict[str, Any]]) -> None:
    manifest = {
        "format_version": GRAPH_FORMAT_VERSION,
        "kind": "graph",
        "num_vertices": int(num_vertices),
        "num_edges": int(num_edges),
        "data_file": GRAPH_DATA_NAME,
        "arrays": arrays,
    }
    blob = json.dumps(manifest, indent=2, sort_keys=True).encode()
    with open(container / GRAPH_MANIFEST_NAME, "wb") as handle:
        handle.write(blob)
        handle.flush()
        os.fsync(handle.fileno())


def _manifest_arrays(container: Path,
                     layout: dict[str, tuple[int, int]]) -> dict[str, dict[str, Any]]:
    """Region table with streamed SHA-256 digests for every array."""
    arrays: dict[str, dict[str, Any]] = {}
    with open(container / GRAPH_DATA_NAME, "rb") as handle:
        for name in CSR_ARRAY_NAMES:
            offset, length = layout[name]
            nbytes = length * _INT64.itemsize
            arrays[name] = {
                "offset": offset,
                "length": length,
                "dtype": _INT64.str,
                "bytes": nbytes,
                "sha256": _region_digest(handle, offset, nbytes),
            }
    return arrays


def _publish(tmp_dir: Path, container: Path) -> None:
    """Atomically rename the finished tmp directory into place."""
    if container.exists():
        if not container.is_dir():
            raise GraphIOError(
                f"graph container target {container} exists and is not a "
                f"directory"
            )
        shutil.rmtree(container)
    os.replace(tmp_dir, container)


# ----------------------------------------------------------------------
# Saving an in-RAM graph
# ----------------------------------------------------------------------
def save_graph_memmap(graph: DiGraph, path: str | Path) -> Path:
    """Persist ``graph``'s CSR arrays to a container directory at ``path``.

    The write is atomic (tmp directory + ``os.replace``): a crash mid-write
    leaves only a ``.tmp-*`` directory behind, never a half-valid container.
    """
    container = Path(path)
    container.parent.mkdir(parents=True, exist_ok=True)
    tmp_dir = container.parent / f".tmp-{container.name}-{os.getpid()}"
    layout = _layout(graph.num_vertices, graph.num_edges)
    try:
        if tmp_dir.exists():
            shutil.rmtree(tmp_dir)
        tmp_dir.mkdir(parents=True)
        csr = graph.csr_arrays()
        with open(tmp_dir / GRAPH_DATA_NAME, "wb") as handle:
            for name in CSR_ARRAY_NAMES:
                offset, length = layout[name]
                array = np.ascontiguousarray(csr[name], dtype=np.int64)
                if array.size != length:
                    raise GraphIOError(
                        f"graph array {name!r} has {array.size} elements, "
                        f"expected {length}"
                    )
                handle.seek(offset)
                handle.write(memoryview(array).cast("B"))
            handle.truncate(_total_bytes(layout))
            handle.flush()
            os.fsync(handle.fileno())
        arrays = _manifest_arrays(tmp_dir, layout)
        _write_manifest(tmp_dir, num_vertices=graph.num_vertices,
                        num_edges=graph.num_edges, arrays=arrays)
        _publish(tmp_dir, container)
    except OSError as exc:
        raise GraphIOError(
            f"cannot write graph container {container}: {exc}"
        ) from exc
    finally:
        if tmp_dir.exists():
            shutil.rmtree(tmp_dir, ignore_errors=True)
    return container


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------
def load_graph_memmap(
    path: str | Path,
    *,
    verify: bool = False,
    advise: str | Sequence[str] | None = "sequential",
) -> DiGraph:
    """O(1) load of a graph container as read-only memmap-backed views.

    The manifest's region table is validated structurally up front; with
    ``verify=True`` every region's SHA-256 digest is additionally checked
    (streamed, bounded memory — this reads the whole file once, so it is
    opt-in rather than the default).  ``advise`` applies ``madvise`` hints
    to the mapping (default ``"sequential"`` — the scoring kernel scans
    adjacency rows in vertex order).
    """
    container = Path(path)
    manifest = read_graph_manifest(container)
    num_vertices = int(manifest["num_vertices"])
    num_edges = int(manifest["num_edges"])
    layout = _layout(num_vertices, num_edges)
    if verify:
        with open(container / GRAPH_DATA_NAME, "rb") as handle:
            for name in CSR_ARRAY_NAMES:
                offset, length = layout[name]
                digest = _region_digest(handle, offset, length * _INT64.itemsize)
                expected = manifest["arrays"][name].get("sha256")
                if digest != expected:
                    raise GraphIOError(
                        f"graph container {container}: array {name!r} failed "
                        f"its checksum (sha256 {digest} != manifest "
                        f"{expected}); refusing to load corrupt adjacency"
                    )
    buffer = np.memmap(container / GRAPH_DATA_NAME, dtype=np.uint8, mode="r")
    if advise:
        names = (advise,) if isinstance(advise, str) else tuple(advise)
        madvise_array(buffer, *names)
        # Per-region refinements on top of the blanket hint: prefault the
        # indptr tables every lookup walks, keep readahead off the
        # randomly-probed index rows.
        mm = getattr(buffer, "_mmap", None)
        for name, region_advices in GRAPH_REGION_ADVICE.items():
            offset, length = layout[name]
            madvise_region(mm, offset, length * _INT64.itemsize,
                           *region_advices)
    views: dict[str, np.ndarray] = {}
    for name in CSR_ARRAY_NAMES:
        offset, length = layout[name]
        nbytes = length * _INT64.itemsize
        views[name] = buffer[offset:offset + nbytes].view(np.int64)
    graph = DiGraph.from_csr_arrays(num_vertices, read_only=True, **views)
    graph._memmap_path = str(container)
    return graph


# ----------------------------------------------------------------------
# Streaming builder (generator-to-disk, bounded RSS)
# ----------------------------------------------------------------------
def _flush_dontneed(mm: np.memmap) -> None:
    """Flush dirty pages and drop them from this process's RSS.

    The mapping is ``MAP_SHARED`` and file-backed, so ``MADV_DONTNEED``
    only drops the page-table entries — the flushed pages survive in the
    page cache and re-fault on the next access.  This is what keeps the
    builder's resident set flat while it dirties a file much larger than
    the RSS budget.
    """
    mm.flush()
    madvise_array(mm, "dontneed")


def _chunked_spans(indptr: np.ndarray, max_edges: int) -> Iterator[tuple[int, int]]:
    """Yield vertex windows ``[v0, v1)`` whose edge spans stay bounded.

    A single row larger than ``max_edges`` gets a window of its own (its
    sort is still exact, just less bounded — degree is capped by |E|).
    """
    num_vertices = indptr.size - 1
    v0 = 0
    while v0 < num_vertices:
        limit = indptr[v0] + max_edges
        v1 = int(np.searchsorted(indptr, limit, side="right")) - 1
        v1 = max(v1, v0 + 1)
        v1 = min(v1, num_vertices)
        yield v0, v1
        v0 = v1


def _bucket_side(key_spool: Path, value_spool: Path, starts: np.ndarray,
                 tmp_dir: Path, tag: str, chunk_edges: int,
                 num_edges: int) -> list[Path]:
    """Split one CSR side's edges into per-window bucket files.

    A direct scatter into the final regions would fault nearly every page
    of the (graph-sized) indices/order arrays per chunk — random writes
    defeat the per-chunk flush, and peak RSS grows with the container.
    Bucketing first keeps every write sequential: each record is an
    ``(owner, neighbor, edge index)`` int64 triple appended to its
    window's file, so this pass's resident set is one spool chunk plus
    selection scratch regardless of graph size.
    """
    paths = [tmp_dir / f"bucket-{tag}-{i:06d}.spool"
             for i in range(starts.size)]
    chunk_bytes = chunk_edges * _INT64.itemsize
    with open(key_spool, "rb") as key_handle, \
            open(value_spool, "rb") as value_handle:
        base = 0
        while base < num_edges:
            keys = np.frombuffer(key_handle.read(chunk_bytes),
                                 dtype=np.int64)
            values = np.frombuffer(value_handle.read(chunk_bytes),
                                   dtype=np.int64)
            if keys.size != values.size or not keys.size:
                raise GraphIOError(
                    "edge spool truncated during the bucket pass"
                )
            idx = np.arange(base, base + keys.size, dtype=np.int64)
            buckets = np.searchsorted(starts, keys, side="right") - 1
            for b in np.unique(buckets):
                sel = buckets == b
                records = np.column_stack((keys[sel], values[sel], idx[sel]))
                with open(paths[b], "ab") as handle:
                    handle.write(memoryview(records).cast("B"))
            base += keys.size
    return paths


def _scatter_side(indptr: np.ndarray, windows: list[tuple[int, int]],
                  bucket_paths: list[Path], indices_mm: np.ndarray,
                  order_mm: np.ndarray, data: np.memmap) -> None:
    """Write one side's indices/order regions window by window, sorted.

    A window's bucket holds *every* edge of its rows, so one stable
    lexsort by ``(owner row, neighbor, original edge index)`` lands each
    row in its final order — bit-identical to the in-RAM constructor's
    ``np.lexsort((dst, src))`` — with no separate re-sort pass.  The
    window's span is written sequentially, then flushed and dropped, so
    the resident set is one window at a time.
    """
    for (v0, v1), bucket in zip(windows, bucket_paths):
        lo, hi = int(indptr[v0]), int(indptr[v1])
        if bucket.exists():
            records = np.fromfile(bucket, dtype=np.int64).reshape(-1, 3)
            bucket.unlink()
        else:
            records = np.empty((0, 3), dtype=np.int64)
        if records.shape[0] != hi - lo:
            raise GraphIOError(
                "edge bucket lost records during the scatter pass"
            )
        if not records.shape[0]:
            continue
        keys, values, idx = records.T
        perm = np.lexsort((idx, values, keys))
        indices_mm[lo:hi] = values[perm]
        order_mm[lo:hi] = idx[perm]
        _flush_dontneed(data)


def build_graph_memmap(
    num_vertices: int,
    edge_chunks: Iterable[tuple[np.ndarray, np.ndarray]],
    path: str | Path,
    *,
    chunk_edges: int = _BUILD_CHUNK_EDGES,
) -> dict[str, Any]:
    """Stream ``(sources, targets)`` chunks into an on-disk container.

    Never materializes the edge list: peak memory is O(V) for the degree
    counts plus O(chunk + max degree) scratch — a row must be sorted whole,
    so the highest-degree vertex sets the scratch floor.  The resulting
    container is bit-identical to
    ``save_graph_memmap(DiGraph(V, src, dst), path)``.  Returns a small
    stats dict (``num_edges``, ``container_bytes``, ...).
    """
    if num_vertices < 0:
        raise GraphIOError("num_vertices must be non-negative")
    if chunk_edges < 1:
        raise GraphIOError("chunk_edges must be positive")
    container = Path(path)
    container.parent.mkdir(parents=True, exist_ok=True)
    tmp_dir = container.parent / f".tmp-{container.name}-{os.getpid()}"
    try:
        if tmp_dir.exists():
            shutil.rmtree(tmp_dir)
        tmp_dir.mkdir(parents=True)
        spool_src = tmp_dir / "edges.src.spool"
        spool_dst = tmp_dir / "edges.dst.spool"

        # Pass 1 — spool the chunks and count degrees (O(V) + O(chunk)).
        out_counts = np.zeros(num_vertices, dtype=np.int64)
        in_counts = np.zeros(num_vertices, dtype=np.int64)
        num_edges = 0
        with open(spool_src, "wb") as src_handle, \
                open(spool_dst, "wb") as dst_handle:
            for sources, targets in edge_chunks:
                src = np.ascontiguousarray(sources, dtype=np.int64)
                dst = np.ascontiguousarray(targets, dtype=np.int64)
                if src.ndim != 1 or src.shape != dst.shape:
                    raise GraphIOError(
                        "edge chunks must be parallel one-dimensional "
                        f"arrays (got shapes {src.shape} and {dst.shape})"
                    )
                if src.size:
                    lo = min(int(src.min()), int(dst.min()))
                    hi = max(int(src.max()), int(dst.max()))
                    if lo < 0 or hi >= num_vertices:
                        raise GraphIOError(
                            f"edge endpoints must lie in [0, {num_vertices}); "
                            f"found range [{lo}, {hi}]"
                        )
                    out_counts += np.bincount(src, minlength=num_vertices)
                    in_counts += np.bincount(dst, minlength=num_vertices)
                    src_handle.write(memoryview(src).cast("B"))
                    dst_handle.write(memoryview(dst).cast("B"))
                    num_edges += src.size

        layout = _layout(num_vertices, num_edges)
        data_path = tmp_dir / GRAPH_DATA_NAME
        with open(data_path, "wb") as handle:
            handle.truncate(_total_bytes(layout))
        data = np.memmap(data_path, dtype=np.uint8, mode="r+")

        def region(name: str) -> np.ndarray:
            offset, length = layout[name]
            return data[offset:offset + length * _INT64.itemsize].view(np.int64)

        out_indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(out_counts, out=out_indptr[1:])
        in_indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(in_counts, out=in_indptr[1:])
        region("out_indptr")[:] = out_indptr
        region("in_indptr")[:] = in_indptr
        del out_counts, in_counts

        # Pass 2 — fill edge_src/edge_dst sequentially and split both CSR
        # sides into bounded-span bucket files (every write sequential).
        edge_src_mm = region("edge_src")
        edge_dst_mm = region("edge_dst")
        chunk_bytes = chunk_edges * _INT64.itemsize
        with open(spool_src, "rb") as src_handle, \
                open(spool_dst, "rb") as dst_handle:
            base = 0
            while base < num_edges:
                src = np.frombuffer(src_handle.read(chunk_bytes), dtype=np.int64)
                dst = np.frombuffer(dst_handle.read(chunk_bytes), dtype=np.int64)
                if src.size != dst.size or not src.size:
                    raise GraphIOError(
                        "edge spool truncated during the fill pass"
                    )
                edge_src_mm[base:base + src.size] = src
                edge_dst_mm[base:base + dst.size] = dst
                base += src.size
                _flush_dontneed(data)
        out_windows = list(_chunked_spans(out_indptr, chunk_edges))
        in_windows = list(_chunked_spans(in_indptr, chunk_edges))
        out_starts = np.array([v0 for v0, _ in out_windows], dtype=np.int64)
        in_starts = np.array([v0 for v0, _ in in_windows], dtype=np.int64)
        out_buckets = _bucket_side(spool_src, spool_dst, out_starts,
                                   tmp_dir, "out", chunk_edges, num_edges)
        in_buckets = _bucket_side(spool_dst, spool_src, in_starts,
                                  tmp_dir, "in", chunk_edges, num_edges)
        spool_src.unlink()
        spool_dst.unlink()

        # Pass 3 — scatter + sort each window's span (one window resident).
        _scatter_side(out_indptr, out_windows, out_buckets,
                      region("out_indices"), region("out_order"), data)
        _scatter_side(in_indptr, in_windows, in_buckets,
                      region("in_indices"), region("in_order"), data)
        del data  # release the writable mapping before hashing/publishing

        arrays = _manifest_arrays(tmp_dir, layout)
        _write_manifest(tmp_dir, num_vertices=num_vertices,
                        num_edges=num_edges, arrays=arrays)
        _publish(tmp_dir, container)
    except OSError as exc:
        raise GraphIOError(
            f"cannot build graph container {container}: {exc}"
        ) from exc
    finally:
        if tmp_dir.exists():
            shutil.rmtree(tmp_dir, ignore_errors=True)
    return {
        "path": str(container),
        "num_vertices": int(num_vertices),
        "num_edges": int(num_edges),
        "container_bytes": sum(
            (container / name).stat().st_size
            for name in (GRAPH_DATA_NAME, GRAPH_MANIFEST_NAME)
        ),
    }


# ----------------------------------------------------------------------
# Subprocess entry point (bench/CI measurement rows)
# ----------------------------------------------------------------------
def _peak_rss_bytes() -> int:
    import resource

    scale = 1024  # Linux reports KiB
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_rss, child_rss) * scale


def _main(argv: Sequence[str] | None = None) -> int:  # pragma: no cover - CLI
    import argparse
    import time

    parser = argparse.ArgumentParser(
        prog="python -m repro.graph.storage",
        description="Build/inspect on-disk CSR graph containers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    generate = sub.add_parser(
        "generate",
        help="stream a synthetic power-law graph to a container, never "
             "holding the edge list, and report peak RSS as JSON",
    )
    generate.add_argument("path", help="container directory to create")
    generate.add_argument("--vertices", type=int, required=True)
    generate.add_argument("--edges", type=int, required=True)
    generate.add_argument("--seed", type=int, default=42)
    generate.add_argument("--exponent", type=float, default=2.0)
    generate.add_argument("--chunk-edges", type=int, default=_BUILD_CHUNK_EDGES)
    info = sub.add_parser("info", help="print a container's manifest summary")
    info.add_argument("path")
    args = parser.parse_args(argv)

    if args.command == "info":
        manifest = read_graph_manifest(args.path)
        print(json.dumps({
            "num_vertices": manifest["num_vertices"],
            "num_edges": manifest["num_edges"],
            "container_bytes": (Path(args.path) / GRAPH_DATA_NAME).stat().st_size,
        }, indent=2))
        return 0

    from repro.graph.generators import streamed_powerlaw_edge_chunks

    start = time.perf_counter()
    stats = build_graph_memmap(
        args.vertices,
        streamed_powerlaw_edge_chunks(
            args.vertices, args.edges, seed=args.seed,
            exponent=args.exponent, chunk_edges=args.chunk_edges,
        ),
        args.path,
        chunk_edges=args.chunk_edges,
    )
    build_seconds = time.perf_counter() - start
    start = time.perf_counter()
    graph = load_graph_memmap(args.path)
    load_seconds = time.perf_counter() - start
    print(json.dumps({
        **stats,
        "loaded_num_edges": graph.num_edges,
        "build_seconds": build_seconds,
        "load_seconds": load_seconds,
        "peak_rss_bytes": _peak_rss_bytes(),
    }, indent=2))
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI
    import sys

    sys.exit(_main())
