"""Columnar state plane: the array-backed vertex state of ``workers=N`` runs.

The shared-nothing executor (:mod:`repro.runtime.parallel`) keeps
Algorithm 2's vertex state — truncated neighbourhoods, kept similarity maps,
predictions — in a :class:`StateStore`: one NumPy-backed *column* per field,
with the set of fields declared up front through a typed
:class:`StateSchema` (:func:`repro.snaple.program.snaple_state_schema`).
Every field is a ragged column (flat value buffer + per-vertex offsets)
with CSR-shaped bulk access for the vectorized kernel.  Column buffers come
from an :class:`ArrayAllocator`, which is how the segment plane
(:mod:`repro.runtime.shm`) hosts them in shared memory or spool files;
:class:`StateSlice` is the unit tasks read.

The simulated serial engine (:mod:`repro.gas.engine`) does not use this
module: it keeps plain per-vertex dicts.

Accounting contract
-------------------
:meth:`StateStore.nbytes` counts live payload in the units
:func:`repro.gas.vertex_program.payload_size_bytes` charges the serial
engines' dicts: 8 bytes per vertex id and 16 per ``{id: float}`` entry,
computed from the column lengths.  Field-name bytes are not counted.  The
parallel report's ``state_plane_*`` keys carry these numbers.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from enum import Enum
from typing import Any

import numpy as np

from repro.errors import EngineError

__all__ = [
    "ArrayAllocator",
    "FieldKind",
    "StateField",
    "StateSchema",
    "StateStore",
    "StateSlice",
    "env_flag",
    "gather_slices",
    "indptr_from_counts",
    "splice_rows",
]


def env_flag(name: str) -> bool:
    """A boolean environment flag: set and not one of ``'' / 0 / false / no``."""
    value = os.environ.get(name, "")
    return value.strip().lower() not in ("", "0", "false", "no")


def gather_slices(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Flat indices concatenating the ranges ``[starts[i], starts[i]+counts[i])``.

    The per-range shift is computed on the (short) range arrays so only one
    repeat and one add run over the (long) output.
    """
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    shift = starts - (np.cumsum(counts) - counts)
    out = np.repeat(shift, counts)
    out += np.arange(total, dtype=np.int64)
    return out


def indptr_from_counts(counts: np.ndarray) -> np.ndarray:
    """CSR ``indptr`` (length ``counts.size + 1``) from per-row counts."""
    indptr = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr


def splice_rows(indptr: np.ndarray, payloads: Sequence[np.ndarray],
                rows: np.ndarray, new_counts: np.ndarray,
                new_payloads: Sequence[np.ndarray], num_rows: int
                ) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Replace whole rows of a CSR structure, keeping every other row.

    ``rows`` is ascending and duplicate-free; ``new_payloads[i]``
    concatenates the replacement rows of ``payloads[i]`` in that order, with
    ``new_counts`` elements each.  ``num_rows`` may exceed the old row
    count (growth): rows past the old end start empty.  Returns fresh
    ``(indptr, payloads)`` arrays and leaves the inputs untouched, except
    that replacing every row returns ``new_payloads`` as they are (the cold
    build of a structure is this call on an empty one).
    """
    if rows.size == num_rows:
        return indptr_from_counts(new_counts), tuple(new_payloads)
    old_rows = indptr.size - 1
    counts = np.zeros(num_rows, dtype=np.int64)
    counts[:old_rows] = np.diff(indptr)
    counts[rows] = new_counts
    out_indptr = indptr_from_counts(counts)
    # Untouched rows form one run before each replaced row plus a tail run;
    # each run is one slice copy, so the cost is O(rows) calls and one pass
    # of memcpy over the payload.
    run_starts = np.minimum(np.concatenate(([0], rows + 1)), old_rows)
    run_ends = np.minimum(np.append(rows, old_rows), old_rows)
    runs = list(zip(indptr[run_starts].tolist(), indptr[run_ends].tolist(),
                    out_indptr[np.concatenate(([0], rows + 1))].tolist()))
    fresh = gather_slices(out_indptr[rows], new_counts)
    out = []
    for payload, new in zip(payloads, new_payloads):
        merged = np.empty(int(out_indptr[-1]), dtype=payload.dtype)
        for start, end, at in runs:
            merged[at:at + end - start] = payload[start:end]
        merged[fresh] = new
        out.append(merged)
    return out_indptr, tuple(out)


# ----------------------------------------------------------------------
# Schema
# ----------------------------------------------------------------------
class FieldKind(Enum):
    """Storage class of one state field."""

    #: A variable-length list of vertex ids per vertex (``gamma``, ...).
    INT_LIST = "int_list"
    #: An insertion-ordered ``{vertex id: float}`` map per vertex (``sims``).
    INT_FLOAT_MAP = "int_float_map"


@dataclass(frozen=True)
class StateField:
    """One declared field of the columnar vertex state."""

    name: str
    kind: FieldKind


class StateSchema:
    """The typed set of fields a :class:`StateStore` holds."""

    __slots__ = ("_fields", "_by_name")

    def __init__(self, fields: Iterable[StateField]) -> None:
        self._fields = tuple(fields)
        self._by_name = {}
        for spec in self._fields:
            if not isinstance(spec, StateField):
                raise EngineError(f"not a StateField: {spec!r}")
            if spec.name in self._by_name:
                raise EngineError(f"duplicate state field {spec.name!r}")
            self._by_name[spec.name] = spec

    @property
    def fields(self) -> tuple[StateField, ...]:
        return self._fields

    def names(self) -> tuple[str, ...]:
        return tuple(spec.name for spec in self._fields)

    def __contains__(self, name: object) -> bool:
        return name in self._by_name

    def __iter__(self) -> Iterator[StateField]:
        return iter(self._fields)

    def __len__(self) -> int:
        return len(self._fields)

    def __getitem__(self, name: str) -> StateField:
        return self._by_name[name]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StateSchema):
            return NotImplemented
        return self._fields == other._fields

    def __hash__(self) -> int:
        return hash(self._fields)

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{spec.name}:{spec.kind.value}" for spec in self._fields
        )
        return f"StateSchema({inner})"


# ----------------------------------------------------------------------
# Columns
# ----------------------------------------------------------------------
class ArrayAllocator:
    """Default column-buffer allocator: process-private ``np.empty``.

    The allocator seam is what lets the shared-nothing executor host
    column buffers in POSIX shared memory (:mod:`repro.runtime.shm`)
    without the columns knowing: every buffer (re)allocation — initial
    construction, :meth:`_RaggedColumn._reserve` growth and compaction —
    funnels through :meth:`empty` / :meth:`free`.  Buffers from
    :meth:`empty` are uninitialized; callers fill them.
    """

    def empty(self, length: int, dtype: Any) -> np.ndarray:
        return np.empty(int(length), dtype=np.dtype(dtype))

    def free(self, array: np.ndarray) -> None:
        """Release a buffer obtained from :meth:`empty` (no-op here)."""

    def describe(self, array: np.ndarray, length: int | None = None):
        """Turn a live buffer into a picklable by-reference descriptor.

        The descriptor seam of the segment plane: an allocator whose buffers
        other processes can attach to — shared-memory segments or on-disk
        spool files (:class:`~repro.runtime.shm.ShmColumnAllocator` over
        either registry) — returns an
        :class:`~repro.runtime.shm.ArrayHandle` here.  The process-private
        default cannot ship buffers by reference.
        """
        raise EngineError(
            "process-private column buffers cannot be shipped by reference; "
            "use an allocator with an attachable backing store"
        )


class _RaggedColumn:
    """Variable-length rows in one growable flat buffer (+ offsets).

    Rows are rewritten by appending at the tail (the old region becomes
    garbage); the column compacts itself in vertex order when the garbage
    outweighs the live payload.  ``INT_FLOAT_MAP`` columns keep a parallel
    ``float64`` value buffer sharing the id buffer's offsets.
    """

    __slots__ = ("starts", "lengths", "_ids", "_vals", "_used", "_live",
                 "_alloc")

    def __init__(self, num_vertices: int, *, with_values: bool,
                 alloc: ArrayAllocator | None = None) -> None:
        self._alloc = alloc if alloc is not None else ArrayAllocator()
        self.starts = self._alloc.empty(num_vertices, np.int64)
        self.starts[:] = -1
        self.lengths = self._alloc.empty(num_vertices, np.int64)
        self.lengths[:] = 0
        self._ids = self._alloc.empty(0, np.int64)
        self._vals = self._alloc.empty(0, np.float64) if with_values else None
        self._used = 0
        self._live = 0

    # -- capacity ------------------------------------------------------
    def _reserve(self, extra: int) -> None:
        needed = self._used + extra
        if needed <= self._ids.size:
            return
        capacity = max(needed, 2 * self._ids.size, 64)
        ids = self._alloc.empty(capacity, np.int64)
        ids[: self._used] = self._ids[: self._used]
        self._alloc.free(self._ids)
        self._ids = ids
        if self._vals is not None:
            vals = self._alloc.empty(capacity, np.float64)
            vals[: self._used] = self._vals[: self._used]
            self._alloc.free(self._vals)
            self._vals = vals

    def _maybe_compact(self) -> None:
        if self._used > 256 and self._used > 4 * max(self._live, 1):
            # Compaction implies garbage (used > live), so csr() took the
            # gather path and ids/vals are fresh arrays of the live payload.
            counts, ids, vals = self.csr()
            self._used = self._live = int(counts.sum())
            present = self.starts >= 0
            indptr = indptr_from_counts(counts)
            # starts/lengths are fixed-size: rewrite in place so shm-backed
            # buffers keep their segments (counts IS self.lengths here).
            np.copyto(self.starts, np.where(present, indptr[:-1],
                                            np.int64(-1)))
            new_ids = self._alloc.empty(self._used, np.int64)
            new_ids[:] = ids[: self._used]
            self._alloc.free(self._ids)
            self._ids = new_ids
            if self._vals is not None:
                new_vals = self._alloc.empty(self._used, np.float64)
                new_vals[:] = vals[: self._used]
                self._alloc.free(self._vals)
                self._vals = new_vals

    # -- writes --------------------------------------------------------
    def set_rows(self, rows: np.ndarray, counts: np.ndarray,
                 ids: np.ndarray, vals: np.ndarray | None = None) -> None:
        """Bulk write: ``ids`` concatenates the rows' payloads in order."""
        total = int(counts.sum())
        self._reserve(total)
        start = self._used
        self._ids[start:start + total] = ids
        if self._vals is not None:
            self._vals[start:start + total] = vals
        self._live -= int(self.lengths[rows][self.starts[rows] >= 0].sum())
        offsets = np.cumsum(counts) - counts
        self.starts[rows] = start + offsets
        self.lengths[rows] = counts
        self._used += total
        self._live += total
        self._maybe_compact()

    # -- reads ---------------------------------------------------------
    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """``(counts, ids, vals)`` over all vertices in ascending id order.

        Zero-copy when the live payload is already laid out contiguously in
        vertex order (the common case after bulk writes), a single gather
        otherwise.
        """
        counts = self.lengths
        indptr = indptr_from_counts(counts)
        present = self.starts >= 0
        if self._live == self._used and np.array_equal(
                self.starts[present], indptr[:-1][present]):
            ids = self._ids[: self._used]
            vals = self._vals[: self._used] if self._vals is not None else None
            return counts, ids, vals
        positions = gather_slices(np.maximum(self.starts, 0), counts)
        ids = self._ids[positions]
        vals = self._vals[positions] if self._vals is not None else None
        return counts, ids, vals

    def gather(self, rows: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, np.ndarray]:
        """``(counts, ids, vals, present)`` restricted to ``rows``."""
        counts = self.lengths[rows]
        present = self.starts[rows] >= 0
        positions = gather_slices(np.maximum(self.starts[rows], 0), counts)
        ids = self._ids[positions]
        vals = self._vals[positions] if self._vals is not None else None
        return counts, ids, vals, present

    def nbytes(self) -> int:
        # Dict-accounting parity: 8 bytes per id (+8 per float value).
        per_element = 8 if self._vals is None else 16
        return per_element * self._live


# ----------------------------------------------------------------------
# Slices (the unit exchanged between coordinator and workers)
# ----------------------------------------------------------------------
@dataclass
class StateSlice:
    """A picklable extract of selected fields for selected vertices.

    ``ragged`` maps a field name to ``(counts, ids, vals, present)`` arrays
    aligned with ``rows``.  Workers materialize slices out of the segment
    plane — a handful of flat arrays regardless of vertex count.
    """

    num_vertices: int
    rows: np.ndarray
    ragged: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray | None, np.ndarray]] = field(
        default_factory=dict)

    def field_rows(self, name: str) -> tuple[np.ndarray, ...]:
        """The raw arrays of one ragged field: ``(rows, counts, ids, vals)``."""
        counts, ids, vals, _present = self.ragged[name]
        return self.rows, counts, ids, vals


# ----------------------------------------------------------------------
# Store
# ----------------------------------------------------------------------
class StateStore:
    """Structure-of-arrays vertex state for one ``workers=N`` run.

    One ragged column per schema field, accessed in bulk through
    :meth:`set_rows` / :meth:`field_csr` / :meth:`extract`.
    """

    def __init__(self, num_vertices: int, schema: StateSchema,
                 allocator: ArrayAllocator | None = None) -> None:
        if num_vertices < 0:
            raise EngineError("num_vertices must be non-negative")
        self._num_vertices = int(num_vertices)
        self._schema = schema
        self._allocator = allocator if allocator is not None else ArrayAllocator()
        self._columns: dict[str, _RaggedColumn] = {
            spec.name: _RaggedColumn(
                num_vertices,
                with_values=spec.kind is FieldKind.INT_FLOAT_MAP,
                alloc=self._allocator,
            )
            for spec in schema
        }

    # -- basics --------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self._num_vertices

    @property
    def allocator(self) -> ArrayAllocator:
        return self._allocator

    def _column(self, name: str) -> _RaggedColumn:
        try:
            return self._columns[name]
        except KeyError:
            raise KeyError(
                f"field {name!r} is not declared in the state schema "
                f"({', '.join(self._schema.names()) or 'empty'})"
            ) from None

    # -- bulk columnar access ------------------------------------------
    def set_rows(self, name: str, rows: np.ndarray, counts: np.ndarray,
                 ids: np.ndarray, vals: np.ndarray | None = None) -> None:
        """Bulk-write a field: one flat payload covering ``rows``."""
        self._column(name).set_rows(np.asarray(rows, dtype=np.int64),
                                    np.asarray(counts, dtype=np.int64),
                                    ids, vals)

    def field_csr(self, name: str
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """All rows of a field as ``(counts, ids, vals)`` CSR arrays.

        Zero-copy when the column is contiguous; this is the kernel's
        entry point into the state plane.
        """
        return self._column(name).csr()

    def extract(self, rows: np.ndarray, fields: Sequence[str]) -> StateSlice:
        """A :class:`StateSlice` of ``fields`` for ``rows`` (sorted copy)."""
        rows = np.sort(np.asarray(rows, dtype=np.int64))
        out = StateSlice(num_vertices=self._num_vertices, rows=rows)
        for name in fields:
            out.ragged[name] = self._column(name).gather(rows)
        return out

    # -- accounting ----------------------------------------------------
    def nbytes(self) -> int:
        """Live payload bytes in dict-accounting units (see module doc)."""
        return sum(column.nbytes() for column in self._columns.values())
