"""Checkpoint/recovery for the shared-nothing parallel executor.

SNAPLE's pitch is link prediction on commodity graph-processing clusters,
where a worker process dying mid-superstep is the common case, not the
exception.  This module gives :class:`~repro.runtime.parallel.ParallelExecutor`
(the ``gas`` backend with ``workers=N``) a durable superstep boundary: at a
configurable cadence the coordinator snapshots everything the next
superstep needs — the vertex state (the columnar
:class:`~repro.runtime.state.StateStore` content) and the deterministic
accounting counters — and on a crash the run resumes from the last snapshot
with **bit-identical** final predictions versus an uninterrupted run.

Bit-identical resume is possible because every random draw in the parallel
executor comes from a per-vertex stream derived from ``(seed, step, vertex)``
(:func:`repro.snaple.program.vertex_rng`): the RNG has no mutable cursor to
snapshot — re-executing a superstep replays exactly the same draws.  The
manifest still records the seed and the stream scheme so a resume against a
different configuration is rejected instead of silently diverging.

On-disk layout
--------------
One checkpoint is one directory named ``step-NNNNNN`` under the checkpoint
root (``NNNNNN`` = the next superstep to execute on resume)::

    <checkpoint_root>/
        step-000001/
            manifest.json     # format version, fingerprint, shard checksums
            state.bin         # vertex state (StateSlice arrays)
            runmeta.bin       # accounting counters
        step-000002/
            ...
        LATEST                # last fully committed step number

Writes are atomic: shards and manifest land in a hidden temporary directory
first (each file fsynced), which is then :func:`os.replace`-renamed to its
final ``step-NNNNNN`` name.  A crash while writing leaves only a ``.tmp-*``
directory behind, never a half-valid checkpoint.  Every shard's byte size
and SHA-256 digest live in the manifest; :func:`load_checkpoint` verifies
them before unpickling, so corruption surfaces as a clean
:class:`~repro.errors.CheckpointError` instead of wrong predictions.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.errors import CheckpointError

__all__ = [
    "CHECKPOINT_FORMAT_VERSION",
    "MANIFEST_NAME",
    "CheckpointData",
    "CheckpointStats",
    "FaultSpec",
    "checkpoint_fingerprint",
    "latest_valid_checkpoint",
    "list_checkpoint_dirs",
    "load_checkpoint",
    "maybe_crash",
    "resolve_checkpoint",
    "save_checkpoint",
    "vertices_digest",
]

#: Bumped whenever the shard payload layout changes incompatibly; snapshots of
#: any other version are refused by name.
CHECKPOINT_FORMAT_VERSION = 2

MANIFEST_NAME = "manifest.json"
LATEST_NAME = "LATEST"
_STEP_PREFIX = "step-"


# ----------------------------------------------------------------------
# Payload
# ----------------------------------------------------------------------
@dataclass
class CheckpointData:
    """Everything a parallel run needs to restart at a superstep boundary.

    ``superstep`` is the *next* superstep to execute; ``state`` holds the
    vertex state (a columnar :class:`~repro.runtime.state.StateSlice`) and
    ``accounting`` the deterministic per-partition counters (gathers,
    applies, shipped bytes) plus the timing accumulated before the snapshot.
    ``fingerprint`` pins the graph/config/worker identity the snapshot is
    valid for; ``rng`` records the seed and the per-vertex stream scheme.
    """

    superstep: int
    workers: int
    fingerprint: dict[str, Any]
    state: Any
    accounting: dict[str, Any] = field(default_factory=dict)
    rng: dict[str, Any] = field(default_factory=dict)


@dataclass
class CheckpointStats:
    """Checkpoint accounting surfaced in ``RunReport.extra``."""

    written: int = 0
    bytes: int = 0
    seconds: float = 0.0


def vertices_digest(vertices) -> str:
    """A stable digest of a run's active vertex set (``"all"`` when unset).

    The snapshotted state only covers the supersteps' active vertices, so a
    resume with a different ``vertices=`` subset would replay against
    partial state; the digest pins the subset in the fingerprint.
    """
    if vertices is None:
        return "all"
    payload = ",".join(str(int(u)) for u in sorted(vertices))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def checkpoint_fingerprint(graph, config, *, workers: int,
                           vertices: str = "all") -> dict[str, Any]:
    """The identity a checkpoint is valid for.

    A resume is accepted only when the fingerprint matches exactly: the same
    graph shape, scoring configuration, worker count and active vertex
    subset (as a :func:`vertices_digest`).  Anything else could silently
    change the partitioning or the RNG streams.
    """
    return {
        "num_vertices": int(graph.num_vertices),
        "num_edges": int(graph.num_edges),
        "config": config.describe(),
        "seed": int(config.seed),
        "workers": int(workers),
        "vertices": vertices,
    }


# ----------------------------------------------------------------------
# Writing
# ----------------------------------------------------------------------
def _fsync_write(path: Path, blob: bytes) -> None:
    with open(path, "wb") as handle:
        handle.write(blob)
        handle.flush()
        os.fsync(handle.fileno())


class _HashingSink:
    """Write-through file wrapper that hashes and counts streamed bytes.

    Lets :func:`save_checkpoint` pickle a shard straight to disk — the
    historical ``pickle.dumps`` materialized every shard fully in memory,
    doubling peak RSS for state-plane-sized snapshots — while still
    recording the byte count and SHA-256 digest the manifest needs.
    """

    def __init__(self, handle) -> None:
        self._handle = handle
        self._digest = hashlib.sha256()
        self.nbytes = 0

    def write(self, blob) -> int:
        # Protocol-5 pickle hands over PickleBuffer objects (no len());
        # a memoryview covers those and plain bytes alike.
        view = memoryview(blob)
        written = self._handle.write(view)
        self._digest.update(view)
        self.nbytes += view.nbytes
        return written

    def hexdigest(self) -> str:
        return self._digest.hexdigest()


#: Chunk size for streamed shard hashing on load (bounded regardless of
#: shard size).
_HASH_CHUNK_BYTES = 4 * 1024 * 1024


def _shard_payloads(data: CheckpointData) -> dict[str, dict[str, Any]]:
    """The two shard files a checkpoint is split across.

    Splitting state and run metadata keeps each shard independently
    verifiable — the fault-injection suite corrupts them one at a time —
    and keeps the (large) state shard rewrite-free when only metadata would
    change.
    """
    return {
        "state.bin": {"state": data.state},
        "runmeta.bin": {"accounting": data.accounting},
    }


def save_checkpoint(root: str | Path, data: CheckpointData) -> int:
    """Atomically write ``data`` under ``root``; returns the payload bytes.

    The checkpoint becomes visible only through the final directory rename,
    so readers never observe a partially written snapshot.  An existing
    checkpoint for the same superstep is replaced.
    """
    root = Path(root)
    step_dir = root / f"{_STEP_PREFIX}{data.superstep:06d}"
    tmp_dir = root / f".tmp-{step_dir.name}-{os.getpid()}"
    try:
        root.mkdir(parents=True, exist_ok=True)
        if tmp_dir.exists():
            shutil.rmtree(tmp_dir)
        tmp_dir.mkdir()
        shards: dict[str, dict[str, Any]] = {}
        total = 0
        for name, payload in _shard_payloads(data).items():
            with open(tmp_dir / name, "wb") as handle:
                sink = _HashingSink(handle)
                pickle.dump(payload, sink, protocol=pickle.HIGHEST_PROTOCOL)
                handle.flush()
                os.fsync(handle.fileno())
            shards[name] = {
                "bytes": sink.nbytes,
                "sha256": sink.hexdigest(),
            }
            total += sink.nbytes
        manifest = {
            "format_version": CHECKPOINT_FORMAT_VERSION,
            "superstep": data.superstep,
            "workers": data.workers,
            "fingerprint": data.fingerprint,
            "rng": data.rng,
            "shards": shards,
        }
        _fsync_write(tmp_dir / MANIFEST_NAME,
                     json.dumps(manifest, indent=2, sort_keys=True).encode())
        if step_dir.exists():
            shutil.rmtree(step_dir)
        os.replace(tmp_dir, step_dir)
    except OSError as exc:
        raise CheckpointError(
            f"cannot write checkpoint {step_dir}: {exc}"
        ) from exc
    finally:
        if tmp_dir.exists():
            shutil.rmtree(tmp_dir, ignore_errors=True)
    # The LATEST pointer is a purely informational breadcrumb for humans
    # inspecting a checkpoint directory; readers always discover snapshots
    # by scanning step-* directories, so it is written without fsync and a
    # stale or missing pointer is harmless.
    latest_tmp = root / f".{LATEST_NAME}.tmp"
    try:
        latest_tmp.write_bytes(f"{data.superstep}\n".encode())
        os.replace(latest_tmp, root / LATEST_NAME)
    except OSError:
        latest_tmp.unlink(missing_ok=True)
    return total


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------
def _step_number(path: Path) -> int | None:
    name = path.name
    if not name.startswith(_STEP_PREFIX):
        return None
    try:
        return int(name[len(_STEP_PREFIX):])
    except ValueError:
        return None


def list_checkpoint_dirs(root: str | Path) -> list[Path]:
    """Checkpoint step directories under ``root``, oldest first."""
    root = Path(root)
    if not root.is_dir():
        return []
    found = [
        (number, path)
        for path in root.iterdir()
        if path.is_dir() and (number := _step_number(path)) is not None
    ]
    return [path for _, path in sorted(found)]


def _read_manifest(step_dir: Path) -> dict[str, Any]:
    manifest_path = step_dir / MANIFEST_NAME
    try:
        blob = manifest_path.read_bytes()
    except OSError as exc:
        raise CheckpointError(
            f"checkpoint {step_dir} has no readable manifest: {exc}"
        ) from exc
    try:
        manifest = json.loads(blob)
    except ValueError as exc:
        raise CheckpointError(
            f"checkpoint manifest {manifest_path} is truncated or not valid "
            f"JSON: {exc}"
        ) from exc
    if not isinstance(manifest, dict) or "shards" not in manifest:
        raise CheckpointError(
            f"checkpoint manifest {manifest_path} is missing its shard table"
        )
    version = manifest.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint {step_dir} has format version {version!r}; this "
            f"build reads version {CHECKPOINT_FORMAT_VERSION}"
        )
    return manifest


def _read_shard(step_dir: Path, name: str, expected: dict[str, Any]) -> Any:
    path = step_dir / name
    digest = hashlib.sha256()
    size = 0
    try:
        with open(path, "rb") as handle:
            # Hash in bounded chunks: the verify pass never holds the whole
            # shard in memory, matching the streamed write path.
            while chunk := handle.read(_HASH_CHUNK_BYTES):
                digest.update(chunk)
                size += len(chunk)
    except OSError as exc:
        raise CheckpointError(
            f"checkpoint shard {path} is missing or unreadable: {exc}"
        ) from exc
    if size != int(expected.get("bytes", -1)):
        raise CheckpointError(
            f"checkpoint shard {path} is {size} bytes but the manifest "
            f"recorded {expected.get('bytes')}; the checkpoint is truncated "
            "or corrupt"
        )
    if digest.hexdigest() != expected.get("sha256"):
        raise CheckpointError(
            f"checkpoint shard {path} failed its checksum "
            f"(sha256 {digest.hexdigest()} != manifest "
            f"{expected.get('sha256')}); refusing to resume from corrupt "
            "state"
        )
    try:
        with open(path, "rb") as handle:
            return pickle.load(handle)
    except Exception as exc:  # pickle raises a zoo of exception types
        raise CheckpointError(
            f"checkpoint shard {path} passed its checksum but cannot be "
            f"deserialized: {exc}"
        ) from exc


def load_checkpoint(step_dir: str | Path) -> CheckpointData:
    """Load and verify one checkpoint step directory.

    Every shard's size and SHA-256 digest are checked against the manifest
    before anything is unpickled; any mismatch, truncation, or missing file
    raises :class:`~repro.errors.CheckpointError`.
    """
    step_dir = Path(step_dir)
    manifest = _read_manifest(step_dir)
    shards = {
        name: _read_shard(step_dir, name, expected)
        for name, expected in manifest["shards"].items()
    }
    state_shard = shards.get("state.bin", {})
    runmeta_shard = shards.get("runmeta.bin", {})
    return CheckpointData(
        superstep=int(manifest.get("superstep", 0)),
        workers=int(manifest.get("workers", 0)),
        fingerprint=dict(manifest.get("fingerprint", {})),
        state=state_shard.get("state"),
        accounting=dict(runmeta_shard.get("accounting") or {}),
        rng=dict(manifest.get("rng", {})),
    )


def resolve_checkpoint(path: str | Path) -> CheckpointData:
    """Load a checkpoint from a step directory *or* a checkpoint root.

    Given a root, the newest step directory is loaded **strictly**: if it —
    or the root's only checkpoint — is corrupt, the error propagates rather
    than silently falling back to older (or no) state.  Explicit resumes
    must never hide corruption.
    """
    path = Path(path)
    if (path / MANIFEST_NAME).exists():
        return load_checkpoint(path)
    steps = list_checkpoint_dirs(path)
    if not steps:
        raise CheckpointError(
            f"{path} contains no checkpoints (no {_STEP_PREFIX}* directory "
            f"with a {MANIFEST_NAME})"
        )
    return load_checkpoint(steps[-1])


def latest_valid_checkpoint(root: str | Path) -> CheckpointData | None:
    """The newest checkpoint under ``root`` that verifies, or ``None``.

    Used by crash *recovery*, where falling back past a corrupt newest
    checkpoint (or to a from-scratch restart) is the right behaviour —
    determinism guarantees the same final answer from any superstep.
    """
    for step_dir in reversed(list_checkpoint_dirs(root)):
        try:
            return load_checkpoint(step_dir)
        except CheckpointError:
            continue
    return None


# ----------------------------------------------------------------------
# Fault injection (test harness)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultSpec:
    """Deterministic one-shot crash injection for worker processes.

    The worker executing ``partition``'s task at ``superstep`` hard-exits
    (``os._exit``) *once*: the first process to trigger atomically creates
    ``token_path`` (``O_CREAT | O_EXCL``) before dying, and every later
    attempt — including the respawned worker re-running the same task after
    recovery — sees the token and proceeds normally.  The token file makes
    "kill worker N at superstep K" reproducible across pool restarts without
    any shared in-memory state.
    """

    superstep: int
    partition: int
    token_path: str
    exit_code: int = 13


def maybe_crash(fault: FaultSpec | None, superstep: int, partition: int) -> None:
    """Crash the current process if ``fault`` targets this (step, partition)."""
    if fault is None:
        return
    if fault.superstep != superstep or fault.partition != partition:
        return
    try:
        fd = os.open(fault.token_path,
                     os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return  # already fired once; behave normally on retry
    os.write(fd, b"crashed\n")
    os.close(fd)
    os._exit(fault.exit_code)
