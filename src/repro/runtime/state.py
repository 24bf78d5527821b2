"""CSR row helpers shared by the kernel, the executor and the serving index.

Every per-vertex output of Algorithm 2 — truncated neighbourhoods, kept
similarity rows, predictions, candidate scores — travels as one ragged CSR
structure: an ``indptr`` (or per-row counts) plus flat payload arrays.  The
helpers here gather, build and splice such rows without per-vertex Python
work.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

__all__ = [
    "gather_slices",
    "indptr_from_counts",
    "sorted_distinct",
    "splice_rows",
]


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


def sorted_distinct(values: np.ndarray) -> np.ndarray:
    """The distinct ``values``, ascending: a sort and a neighbour comparison.

    Plain ``np.unique`` (no ``return_*``, no ``axis``) takes a hash path in
    NumPy 2.4 that is 2–57× slower on integer keys: 0.022 vs 0.009 ms on an
    ingest's ~140-key reverse closure, 1145 vs 20 ms on 10^6 ``int64`` keys
    from [0, 10^7) (2 vCPUs).
    """
    values = np.sort(values)
    keep = np.ones(values.size, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


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
