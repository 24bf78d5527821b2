"""Columnar state plane: array-backed vertex state.

The engines historically kept per-vertex state as one Python ``dict`` per
vertex.  On anything beyond toy graphs the engine layer then spends most of
its time building, copying and pickling those dicts — not computing.  This
module replaces that layer with a structure-of-arrays design:

* :class:`StateStore` — vertex state as one NumPy-backed *column* per field,
  with the set of fields declared up front by the vertex program through a
  typed :class:`StateSchema`.  Scalar fields are flat arrays; variable-length
  fields (neighborhood samples, similarity maps) are ragged columns (flat
  value buffer + per-vertex offsets) that expose zero-copy row views and
  CSR-shaped bulk access for the vectorized kernel.
* :class:`VertexRow` — a per-vertex :class:`~collections.abc.Mapping` view
  over the store so scalar vertex programs keep their historical
  ``state["field"]`` read/write protocol while the data lives in columns.

Accounting contract
-------------------
The simulated-cluster accounting is layout-independent:
:meth:`VertexRow.nbytes` reproduces exactly what
:func:`repro.gas.vertex_program.payload_size_bytes` charges for the
equivalent dict, so programs that declare a schema and programs that keep
per-vertex dicts (those declaring none) are charged alike.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Iterator, Mapping, Sequence
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
    "VertexRow",
    "StateRows",
    "env_flag",
    "common_state_schema",
    "gather_slices",
    "indptr_from_counts",
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


_indptr_from_counts = indptr_from_counts


# ----------------------------------------------------------------------
# Schema
# ----------------------------------------------------------------------
class FieldKind(Enum):
    """Storage class of one state field."""

    #: One fixed-width value per vertex (``rank``, ``distance``, ...).
    SCALAR = "scalar"
    #: A variable-length list of vertex ids per vertex (``gamma``, ...).
    INT_LIST = "int_list"
    #: An insertion-ordered ``{vertex id: float}`` map per vertex (``sims``).
    INT_FLOAT_MAP = "int_float_map"


@dataclass(frozen=True)
class StateField:
    """One declared field of a vertex program's state.

    ``dtype`` only applies to :attr:`FieldKind.SCALAR` fields and is stored
    as a NumPy dtype *name* so the declaration stays hashable.
    """

    name: str
    kind: FieldKind
    dtype: str = "float64"

    def numpy_dtype(self) -> np.dtype:
        return np.dtype(self.dtype)


class StateSchema:
    """The typed set of state fields a vertex program declares.

    Engines build a :class:`StateStore` from the schema; programs that do
    not declare one (``state_schema()`` returning ``None``) keep the legacy
    per-vertex dicts.
    """

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


def common_state_schema(programs: Iterable[Any]) -> StateSchema | None:
    """The shared schema of a program sequence, or ``None`` for dict state.

    Every program must declare the *same* schema (the steps of one run share
    one store); a single undeclared or diverging schema falls the whole run
    back to the legacy dict path.
    """
    schema: StateSchema | None = None
    for program in programs:
        getter = getattr(program, "state_schema", None)
        declared = getter() if callable(getter) else None
        if declared is None:
            return None
        if schema is None:
            schema = declared
        elif declared != schema:
            return None
    return schema


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


class _ScalarColumn:
    """One fixed-width value per vertex plus a present mask."""

    __slots__ = ("values", "present", "_num_present", "_alloc")

    def __init__(self, num_vertices: int, dtype: np.dtype,
                 alloc: ArrayAllocator | None = None) -> None:
        self._alloc = alloc if alloc is not None else ArrayAllocator()
        self.values = self._alloc.empty(num_vertices, dtype)
        self.values[:] = 0
        self.present = self._alloc.empty(num_vertices, bool)
        self.present[:] = False
        self._num_present = 0

    def set(self, u: int, value: Any) -> None:
        self.values[u] = value
        if not self.present[u]:
            self.present[u] = True
            self._num_present += 1

    def get(self, u: int) -> Any:
        return self.values[u].item()

    def nbytes(self) -> int:
        # Dict-accounting parity: one 8-byte int/float per present value.
        return 8 * self._num_present

    def array_nbytes(self) -> int:
        return int(self.values.nbytes) + int(self.present.nbytes)


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
            indptr = _indptr_from_counts(counts)
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
    def set_row(self, u: int, ids: np.ndarray,
                vals: np.ndarray | None = None) -> None:
        n = int(ids.size)
        self._reserve(n)
        start = self._used
        self._ids[start:start + n] = ids
        if self._vals is not None:
            self._vals[start:start + n] = vals
        if self.starts[u] >= 0:
            self._live -= int(self.lengths[u])
        self.starts[u] = start
        self.lengths[u] = n
        self._used += n
        self._live += n
        self._maybe_compact()

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
    def present(self, u: int) -> bool:
        return bool(self.starts[u] >= 0)

    def row_ids(self, u: int) -> np.ndarray:
        start = self.starts[u]
        if start < 0:
            return np.empty(0, dtype=np.int64)
        return self._ids[start:start + self.lengths[u]]

    def row_vals(self, u: int) -> np.ndarray:
        start = self.starts[u]
        if start < 0:
            return np.empty(0, dtype=np.float64)
        return self._vals[start:start + self.lengths[u]]

    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """``(counts, ids, vals)`` over all vertices in ascending id order.

        Zero-copy when the live payload is already laid out contiguously in
        vertex order (the common case after bulk writes), a single gather
        otherwise.
        """
        counts = self.lengths
        indptr = _indptr_from_counts(counts)
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

    def array_nbytes(self) -> int:
        total = int(self._ids.nbytes) + int(self.starts.nbytes)
        total += int(self.lengths.nbytes)
        if self._vals is not None:
            total += int(self._vals.nbytes)
        return total


# ----------------------------------------------------------------------
# Slices (the unit exchanged between coordinator and workers)
# ----------------------------------------------------------------------
@dataclass
class StateSlice:
    """A picklable extract of selected fields for selected vertices.

    ``ragged`` maps a field name to ``(counts, ids, vals, present)`` arrays
    aligned with ``rows``; ``scalars`` maps a name to ``(values, present)``.
    Workers materialize slices out of the segment plane and checkpoints
    persist them — a handful of flat arrays regardless of vertex count.
    """

    num_vertices: int
    rows: np.ndarray
    ragged: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray | None, np.ndarray]] = field(
        default_factory=dict)
    scalars: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)

    def nbytes(self) -> int:
        """Payload bytes (dict-accounting units) carried by this slice."""
        total = 0
        for counts, ids, vals, _present in self.ragged.values():
            total += 8 * int(ids.size)
            if vals is not None:
                total += 8 * int(vals.size)
        for values, present in self.scalars.values():
            total += 8 * int(present.sum())
        return total

    def field_rows(self, name: str) -> tuple[np.ndarray, ...]:
        """The raw arrays of one ragged field: ``(rows, counts, ids, vals)``."""
        counts, ids, vals, _present = self.ragged[name]
        return self.rows, counts, ids, vals


# ----------------------------------------------------------------------
# Store
# ----------------------------------------------------------------------
class StateStore:
    """Structure-of-arrays vertex state for one engine run.

    One column per schema field; per-vertex access goes through
    :class:`VertexRow` views (kept API-compatible with the historical state
    dicts), bulk access through :meth:`set_rows` / :meth:`field_csr` /
    :meth:`extract` / :meth:`merge`.
    """

    def __init__(self, num_vertices: int, schema: StateSchema,
                 allocator: ArrayAllocator | None = None) -> None:
        if num_vertices < 0:
            raise EngineError("num_vertices must be non-negative")
        self._num_vertices = int(num_vertices)
        self._schema = schema
        self._allocator = allocator if allocator is not None else ArrayAllocator()
        self._columns: dict[str, Any] = {}
        for spec in schema:
            if spec.kind is FieldKind.SCALAR:
                column: Any = _ScalarColumn(
                    num_vertices, spec.numpy_dtype(), self._allocator
                )
            else:
                column = _RaggedColumn(
                    num_vertices,
                    with_values=spec.kind is FieldKind.INT_FLOAT_MAP,
                    alloc=self._allocator,
                )
            self._columns[spec.name] = column
        self._row_views: list[VertexRow | None] = [None] * self._num_vertices

    # -- basics --------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self._num_vertices

    @property
    def schema(self) -> StateSchema:
        return self._schema

    @property
    def allocator(self) -> ArrayAllocator:
        return self._allocator

    def _column(self, name: str):
        try:
            return self._columns[name]
        except KeyError:
            raise KeyError(
                f"field {name!r} is not declared in the state schema "
                f"({', '.join(self._schema.names()) or 'empty'})"
            ) from None

    # -- per-vertex views ----------------------------------------------
    def row(self, u: int) -> "VertexRow":
        view = self._row_views[u]
        if view is None:
            view = VertexRow(self, u)
            self._row_views[u] = view
        return view

    def rows(self) -> "StateRows":
        """A list-like sequence of per-vertex :class:`VertexRow` views."""
        return StateRows(self)

    def rows_mapping(self) -> Mapping[int, "VertexRow"]:
        """A lazy ``{vertex: row view}`` mapping over all vertices."""
        return _RowsMapping(self)

    # -- bulk columnar access ------------------------------------------
    def set_rows(self, name: str, rows: np.ndarray, counts: np.ndarray,
                 ids: np.ndarray, vals: np.ndarray | None = None) -> None:
        """Bulk-write a ragged field: one flat payload covering ``rows``."""
        column = self._column(name)
        if isinstance(column, _ScalarColumn):
            raise EngineError(f"field {name!r} is scalar; use row views")
        column.set_rows(np.asarray(rows, dtype=np.int64),
                        np.asarray(counts, dtype=np.int64), ids, vals)
        self._invalidate(rows, name)

    def field_csr(self, name: str
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """All rows of a ragged field as ``(counts, ids, vals)`` CSR arrays.

        Zero-copy when the column is contiguous; this is the kernel's
        entry point into the state plane.
        """
        return self._column(name).csr()

    def extract(self, rows: np.ndarray, fields: Sequence[str]) -> StateSlice:
        """A :class:`StateSlice` of ``fields`` for ``rows`` (sorted copy)."""
        rows = np.sort(np.asarray(rows, dtype=np.int64))
        out = StateSlice(num_vertices=self._num_vertices, rows=rows)
        for name in fields:
            column = self._column(name)
            if isinstance(column, _ScalarColumn):
                out.scalars[name] = (column.values[rows],
                                     column.present[rows])
            else:
                out.ragged[name] = column.gather(rows)
        return out

    def snapshot(self) -> StateSlice:
        """A :class:`StateSlice` of every field for every vertex.

        This is the unit the checkpoint subsystem persists: restoring into a
        fresh store via :meth:`merge` reproduces the live state exactly
        (present masks included), which is what makes a resumed run
        bit-identical to an uninterrupted one.
        """
        rows = np.arange(self._num_vertices, dtype=np.int64)
        return self.extract(rows, self._schema.names())

    def merge(self, state_slice: StateSlice) -> None:
        """Write a slice's fields back into the store (bulk, per field)."""
        rows = state_slice.rows
        for name, (counts, ids, vals, present) in state_slice.ragged.items():
            column = self._column(name)
            if bool(present.all()):
                column.set_rows(rows, counts, ids, vals)
            else:
                kept = present
                positions = gather_slices(
                    indptr_from_counts(counts)[:-1][kept], counts[kept]
                )
                column.set_rows(
                    rows[kept], counts[kept], ids[positions],
                    vals[positions] if vals is not None else None,
                )
            self._invalidate(rows, name)
        for name, (values, present) in state_slice.scalars.items():
            column = self._column(name)
            set_rows = rows[present]
            column.values[set_rows] = values[present]
            newly = present & ~column.present[rows]
            column.present[rows[newly]] = True
            column._num_present += int(newly.sum())
            self._invalidate(rows, name)

    def _invalidate(self, rows: np.ndarray, name: str) -> None:
        views = self._row_views
        for u in np.asarray(rows).tolist():
            view = views[u]
            if view is not None:
                view._cache.pop(name, None)

    # -- accounting ----------------------------------------------------
    def nbytes(self) -> int:
        """Live payload bytes in dict-accounting units (see module doc)."""
        return sum(column.nbytes() for column in self._columns.values())

    def field_nbytes(self) -> dict[str, int]:
        """Per-field live payload bytes."""
        return {name: column.nbytes()
                for name, column in self._columns.items()}

    def array_nbytes(self) -> int:
        """Actual allocated bytes of the backing arrays."""
        return sum(column.array_nbytes() for column in self._columns.values())


class VertexRow(Mapping):
    """Dict-compatible per-vertex view over a :class:`StateStore`.

    Reads decode the vertex's column slice into the historical Python value
    (list / dict / scalar) and cache it; writes encode into the columns and
    refresh the cache, so repeated reads return the very same object the
    program stored — the property the scalar engines' set caches and float
    fold orders rely on.  In-place mutation of a decoded container is *not*
    written back; assign to the field instead (every in-tree program does).
    """

    __slots__ = ("_store", "_vertex", "_cache")

    def __init__(self, store: StateStore, vertex: int) -> None:
        self._store = store
        self._vertex = vertex
        self._cache: dict[str, Any] = {}

    # -- mapping protocol ----------------------------------------------
    def __getitem__(self, name: str) -> Any:
        cached = self._cache.get(name)
        if cached is not None:
            return cached
        column = self._store._columns.get(name)
        if column is None:
            raise KeyError(name)
        u = self._vertex
        if isinstance(column, _ScalarColumn):
            if not column.present[u]:
                raise KeyError(name)
            return column.get(u)
        if not column.present(u):
            raise KeyError(name)
        if column._vals is None:
            value: Any = column.row_ids(u).tolist()
        else:
            value = dict(zip(column.row_ids(u).tolist(),
                             column.row_vals(u).tolist()))
        self._cache[name] = value
        return value

    def __setitem__(self, name: str, value: Any) -> None:
        column = self._store._columns.get(name)
        if column is None:
            raise KeyError(
                f"field {name!r} is not declared in the state schema of "
                f"{type(self).__name__}"
            )
        u = self._vertex
        if isinstance(column, _ScalarColumn):
            column.set(u, value)
            self._cache.pop(name, None)
            return
        if column._vals is None:
            column.set_row(u, np.asarray(value, dtype=np.int64))
        else:
            keys = np.fromiter(value.keys(), dtype=np.int64, count=len(value))
            vals = np.fromiter(value.values(), dtype=np.float64,
                               count=len(value))
            column.set_row(u, keys, vals)
        self._cache[name] = value

    def get(self, name: str, default: Any = None) -> Any:
        try:
            return self[name]
        except KeyError:
            return default

    def __contains__(self, name: object) -> bool:
        column = self._store._columns.get(name)  # type: ignore[arg-type]
        if column is None:
            return False
        if isinstance(column, _ScalarColumn):
            return bool(column.present[self._vertex])
        return column.present(self._vertex)

    def __iter__(self) -> Iterator[str]:
        for name in self._store._columns:
            if name in self:
                yield name

    def __len__(self) -> int:
        return sum(1 for _ in self)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Mapping):
            return dict(self.items()) == dict(other.items())
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __repr__(self) -> str:
        return f"VertexRow({self._vertex}, {dict(self.items())!r})"

    # -- accounting ----------------------------------------------------
    def nbytes(self) -> int:
        """Exactly what ``payload_size_bytes`` charges for the dict twin."""
        total = 0
        u = self._vertex
        for name, column in self._store._columns.items():
            if isinstance(column, _ScalarColumn):
                if column.present[u]:
                    total += len(name) + 8
            elif column.present(u):
                per_element = 8 if column._vals is None else 16
                total += len(name) + per_element * int(column.lengths[u])
        return total

    def as_dict(self) -> dict[str, Any]:
        return dict(self.items())


class StateRows(Sequence):
    """List-like access to every vertex's :class:`VertexRow` view."""

    __slots__ = ("_store",)

    def __init__(self, store: StateStore) -> None:
        self._store = store

    def __len__(self) -> int:
        return self._store.num_vertices

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._store.row(u)
                    for u in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        return self._store.row(index)

    @property
    def store(self) -> StateStore:
        return self._store


class _RowsMapping(Mapping):
    """Lazy ``{vertex: VertexRow}`` view used for result objects."""

    __slots__ = ("_store",)

    def __init__(self, store: StateStore) -> None:
        self._store = store

    def __getitem__(self, u: int) -> VertexRow:
        if not 0 <= u < self._store.num_vertices:
            raise KeyError(u)
        return self._store.row(u)

    def __iter__(self):
        return iter(range(self._store.num_vertices))

    def __len__(self) -> int:
        return self._store.num_vertices

