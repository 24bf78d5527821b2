"""SNAPLE's Algorithm 2, written once: CSR-native phases 1–3.

Every caller — the ``local`` backend in both modes, the serial simulated
GAS backend, the ``khop`` and ``content`` engines, the ``workers=N``
executor and the serving index — runs the same three phases over the
graph's CSR adjacency:

1. :func:`build_truncated_neighborhoods` materializes every truncated
   neighborhood ``Γ̂(u)`` once as a CSR ``(indptr, indices)`` pair.  It
   replays the GAS sample step's draws (:func:`sample_neighborhoods`: one
   Bernoulli test per out-edge of a vertex over ``thrΓ``, then, under
   exact truncation, the reservoir sample) from one sequential stream in
   ascending vertex order; the parallel GAS tasks use
   :func:`gas_sample_step_columnar`, the same draws from per-vertex
   streams;
2. :func:`edge_similarities` computes the raw similarity of *all* edges in
   one pass.  Every similarity in :data:`repro.snaple.similarity.SIMILARITIES`
   is a function of ``(|Γ̂u ∩ Γ̂v|, |Γ̂u|, |Γ̂v|)``, so the vectorized branch
   reduces the whole table to one intersection per *unordered* vertex pair
   (``sim(u, v)`` is never intersected twice): each element of the smaller
   neighborhood is probed for membership in the larger one, in blocks of
   at most :data:`BLOCK_PATHS` probes; custom similarity callables and
   per-edge blends (the content hybrid) take the scalar per-edge loop
   instead;
3. :func:`select_klocal` keeps ``klocal`` neighbors per vertex, then
   :func:`combine_and_rank` fuses the 2-hop path combination, aggregation,
   and top-``k`` ranking into array operations (``np.argpartition`` plus an
   exact tie repair instead of full sorts), while :func:`fold_paths` is the
   scalar fold over the same kept neighbors — any combinator or aggregator,
   and paths longer than two hops.

Phases 2 and 3b run in bounded memory for every caller.  Phase 2 cuts the
vertex pairs, ordered by the row they probe into, into consecutive blocks
of at most :data:`BLOCK_PATHS` membership probes.  Phase 3b's one loop
(:func:`_rank_blocks`) computes the targets' kept path edges once, cuts the
targets into consecutive blocks of at most :data:`BLOCK_PATHS` expanded
paths (a target is never split), and expands, filters, folds and ranks one
block at a time.  The transient arrays grow with the block, not with the
graph, and so does the structure that answers "is ``z`` in ``Γ̂(u)``?"
(:func:`_members`).  :func:`combine_and_rank` returns the rows as dict
predictions plus a :class:`LazyScores`, a read-only view over the score
arrays that caches no row; :func:`combine_and_rank_columnar` returns them
as arrays.

The ``workers=N`` executor and the serving index run the phases over vertex
blocks with the GAS program's semantics: per-vertex random streams
(:func:`gas_sample_step_columnar`, ``select_klocal(rng_mode="per_vertex")``)
and the gather's fold order (:func:`combine_and_rank_columnar` with
``neighbor_order="csr"``, which takes :func:`fold_paths` for a custom
combinator or aggregator).  The serial simulated engine runs them with the
sequential streams and folds in gather order (``combine_and_rank(...,
neighbor_order="csr", on_trace=...)``); each block's :class:`PathTrace`
feeds its accounting (:mod:`repro.snaple.accounting`).

Bit-parity contract
-------------------
The vectorized branches reproduce the scalar ones *bit-exactly*, not just
approximately — and with them Algorithm 2's GAS vertex programs
(the oracle in ``tests/oracle``) on the serial engine, for every
configuration, exact truncation included: the same draws from the same
streams, and, in gather order, the same fold order as the engine on one
machine (on several, the engine folds each mirror's partial first):

* float-fold order is preserved — path contributions are aggregated
  left-to-right in the same arrival order the scalar fold uses (a
  vectorized "rounds" reduction; ``np.add.reduceat`` is avoided because it
  switches to pairwise summation for long runs);
* ``np.log`` may differ from ``math.log`` in the last bit (NumPy ships SIMD
  transcendentals), so the adamic-adar weight evaluates ``math.log`` over the
  small set of distinct integer union sizes and gathers from that table;
* elementwise ``+ - * /`` and ``np.sqrt`` are IEEE-identical to the scalar
  operations, and the geometric-mean normalization goes through
  ``np.float_power`` (libm ``pow``, like the scalar ``**``) because the
  ``**`` ufunc's SIMD pow differs in the last bit.

Scores can still differ in the last ulp on exotic platforms whose ``pow``
is not correctly rounded; the parity suite therefore asserts predictions
exactly and scores within ``REL_TOL``.

:func:`kernel_supports` reports whether a whole configuration (similarity,
combinator, aggregator, sampler) is in the vectorized design space; the
``local`` backend runs the scalar branches for everything else, and for
``mode="reference"``.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.graph.digraph import DiGraph
from repro.graph.sampling import reservoir_sample
# CSR indexing helpers shared with the runtime and the serving index.
from repro.runtime.state import gather_slices as _gather_slices
from repro.runtime.state import indptr_from_counts as _indptr_from_counts
from repro.runtime.state import splice_rows
from repro.snaple.aggregators import (
    GeometricMeanAggregator,
    MaxAggregator,
    MeanAggregator,
    SumAggregator,
)
from repro.snaple.combinators import (
    CountCombinator,
    EuclideanCombinator,
    GeometricCombinator,
    LinearCombinator,
    SumCombinator,
)
from repro.snaple.config import SnapleConfig
from repro.snaple.sampler import (
    BottomSimilaritySampler,
    RandomSampler,
    TopSimilaritySampler,
)
from repro.snaple.similarity import SIMILARITIES

__all__ = [
    "REL_TOL",
    "kernel_supports",
    "NeighborhoodCSR",
    "EdgeSimilarities",
    "KeptNeighbors",
    "sample_neighborhoods",
    "build_truncated_neighborhoods",
    "edge_similarities",
    "select_klocal",
    "combine_and_rank",
    "fold_paths",
    "LazyScores",
    "combine_and_rank_columnar",
    "PathTrace",
    "BLOCK_PATHS",
    "gas_sample_step_columnar",
    "top_k_predictions",
    "vertex_rng",
]

#: Relative score tolerance documented for the parity suite.  With the
#: fold-order-preserving aggregation the kernel is bit-identical on the
#: platforms CI runs on; the tolerance only covers non-correctly-rounded
#: ``pow`` implementations (geometric-mean normalization).
REL_TOL = 1e-12


def top_k_predictions(scores: dict[int, float], k: int) -> list[int]:
    """Top-``k`` candidates by score, ties broken by ascending vertex id.

    ``heapq.nsmallest`` on ``(-score, vertex)`` is documented to equal
    ``sorted(...)[:k]`` — same ranking and tie-breaking as the historical
    full sort, in O(n log k) instead of O(n log n).
    """
    ranked = heapq.nsmallest(k, scores.items(),
                             key=lambda item: (-item[1], item[0]))
    return [vertex for vertex, _ in ranked]


_MASK64 = 0xFFFFFFFFFFFFFFFF


def vertex_rng(seed: int, salt: int, vertex: int) -> random.Random:
    """A :class:`random.Random` derived deterministically from ``(seed, salt, vertex)``.

    The splitmix64-style finalizer decorrelates nearby ``(seed, vertex)``
    pairs without relying on :func:`hash`, whose value for strings changes
    between processes — per-vertex streams must agree across worker
    processes.
    """
    x = ((seed & _MASK64)
         ^ ((salt * 0x9E3779B97F4A7C15) & _MASK64)
         ^ ((vertex * 0xBF58476D1CE4E5B9) & _MASK64))
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return random.Random(x ^ (x >> 31))


# ----------------------------------------------------------------------
# Vectorized registries mirroring the scalar ones
# ----------------------------------------------------------------------
def _div(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """``num / den`` with 0 where ``den <= 0`` (all scalar sims guard this)."""
    out = np.zeros(num.shape, dtype=np.float64)
    np.divide(num, den, out=out, where=den > 0)
    return out


def _v_jaccard(inter, size_u, size_v):
    return _div(inter, size_u + size_v - inter)


def _v_common_neighbors(inter, size_u, size_v):
    return inter.astype(np.float64)


def _v_cosine(inter, size_u, size_v):
    return _div(inter, np.sqrt((size_u * size_v).astype(np.float64)))


def _v_dice(inter, size_u, size_v):
    return _div(2 * inter, size_u + size_v)


def _v_overlap(inter, size_u, size_v):
    return _div(inter, np.minimum(size_u, size_v))


def _v_adamic_adar(inter, size_u, size_v):
    union = size_u + size_v - inter
    out = np.zeros(inter.shape, dtype=np.float64)
    mask = (inter > 0) & (union > 1)
    if mask.any():
        # math.log over the distinct integer union sizes: np.log's SIMD
        # implementation can differ from libm in the last bit.
        distinct = np.unique(union[mask])
        table = np.array([math.log(int(value) + 1) for value in distinct])
        out[mask] = inter[mask] / table[np.searchsorted(distinct, union[mask])]
    return out


def _v_one(inter, size_u, size_v):
    return np.ones(inter.shape, dtype=np.float64)


def _v_inverse_degree(inter, size_u, size_v):
    return _div(np.ones(inter.shape, dtype=np.float64), size_v)


#: name -> f(intersection, |Γ̂u|, |Γ̂v|), matching repro.snaple.similarity.
_VECTORIZED_SIMILARITIES = {
    "jaccard": _v_jaccard,
    "common_neighbors": _v_common_neighbors,
    "cosine": _v_cosine,
    "dice": _v_dice,
    "overlap": _v_overlap,
    "adamic_adar": _v_adamic_adar,
    "one": _v_one,
    "inverse_degree": _v_inverse_degree,
}

_COMBINATOR_TYPES = (
    LinearCombinator,
    EuclideanCombinator,
    GeometricCombinator,
    SumCombinator,
    CountCombinator,
)

#: aggregator type -> the ufunc implementing its (commutative) ``pre``.
_AGGREGATOR_UFUNCS = {
    SumAggregator: np.add,
    MeanAggregator: np.add,
    GeometricMeanAggregator: np.multiply,
    MaxAggregator: np.maximum,
}

_SAMPLER_TYPES = (TopSimilaritySampler, BottomSimilaritySampler, RandomSampler)


def _combine_arrays(combinator, sim_uv: np.ndarray, sim_vz: np.ndarray) -> np.ndarray:
    """Vectorized ``⊗`` with the exact float semantics of ``combine``."""
    if type(combinator) is LinearCombinator:
        return combinator.alpha * sim_uv + (1.0 - combinator.alpha) * sim_vz
    if type(combinator) is EuclideanCombinator:
        return np.sqrt(sim_uv * sim_uv + sim_vz * sim_vz)
    if type(combinator) is GeometricCombinator:
        product = sim_uv * sim_vz
        out = np.zeros(product.shape, dtype=np.float64)
        np.sqrt(product, out=out, where=product > 0.0)
        return out
    if type(combinator) is SumCombinator:
        return sim_uv + sim_vz
    if type(combinator) is CountCombinator:
        return np.ones(sim_uv.shape, dtype=np.float64)
    raise TypeError(f"combinator {combinator!r} has no vectorized form")


def _aggregator_post(aggregator, accumulated: np.ndarray,
                     counts: np.ndarray) -> np.ndarray:
    """Vectorized ``⊕post`` (counts are >= 1 by construction)."""
    if type(aggregator) is SumAggregator or type(aggregator) is MaxAggregator:
        return accumulated
    if type(aggregator) is MeanAggregator:
        return accumulated / counts
    if type(aggregator) is GeometricMeanAggregator:
        out = np.zeros(accumulated.shape, dtype=np.float64)
        positive = accumulated > 0.0
        if positive.any():
            # float_power routes through libm's pow like the scalar ``**``;
            # the ``**`` ufunc's SIMD pow differs in the last bit.
            out[positive] = np.float_power(
                accumulated[positive], 1.0 / counts[positive]
            )
        return out
    raise TypeError(f"aggregator {aggregator!r} has no vectorized form")


def _similarities_supported(score) -> bool:
    """Whether both raw similarities of ``score`` are stock registry entries."""
    return all(
        name in _VECTORIZED_SIMILARITIES and SIMILARITIES.get(name) is fn
        for fn, name in ((score.similarity, score.similarity_name),
                         (score.selection_similarity,
                          score.selection_similarity_name))
    )


def _fold_supported(score) -> bool:
    """Whether ``⊗`` and ``⊕`` of ``score`` are stock (exact types)."""
    return (type(score.combinator) in _COMBINATOR_TYPES
            and type(score.aggregator) in _AGGREGATOR_UFUNCS)


def kernel_supports(config: SnapleConfig) -> bool:
    """Whether the whole scoring configuration has a vectorized form.

    The check is by *identity*, not name: a custom callable registered under
    a known name (or a subclass overriding ``combine``/``pre``) would compute
    something else, so only the stock registry entries qualify.
    """
    return (_similarities_supported(config.score)
            and _fold_supported(config.score)
            and type(config.sampler) in _SAMPLER_TYPES)


def _dedup_sorted_rows(counts: np.ndarray, flat: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Drop repeated values inside each (sorted) row of a flat CSR payload.

    Returns ``(new_counts, new_flat, row_of_value)``.
    """
    num_rows = counts.size
    if flat.size == 0:
        return counts.copy(), flat, np.empty(0, dtype=np.int64)
    row_id = np.repeat(np.arange(num_rows, dtype=np.int64), counts)
    keep = np.ones(flat.size, dtype=bool)
    keep[1:] = (flat[1:] != flat[:-1]) | (row_id[1:] != row_id[:-1])
    flat = flat[keep]
    row_id = row_id[keep]
    new_counts = np.bincount(row_id, minlength=num_rows).astype(np.int64)
    return new_counts, flat, row_id


def _byte_masks(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(bytes, masks)``: the bitmap bytes sorted ``keys`` touch and the OR
    of their bits in each (equal bytes are adjacent, so one ``reduceat``
    replaces a slow ``ufunc.at`` scatter)."""
    byte_of = keys >> 3
    bit_of = np.uint8(1) << (keys & 7).astype(np.uint8)
    first = np.ones(byte_of.size, dtype=bool)
    first[1:] = byte_of[1:] != byte_of[:-1]
    starts = np.flatnonzero(first)
    return byte_of[starts], np.bitwise_or.reduceat(bit_of, starts)


@dataclass
class NeighborhoodCSR:
    """All truncated neighborhoods ``Γ̂`` as one CSR structure.

    ``indices`` rows are sorted and duplicate-free, so sizes are set sizes
    and ``keys`` (``u * num_vertices + neighbor``) is globally sorted: the
    keys of a run of rows are one slice, which :func:`_members` searches.
    """

    num_vertices: int
    indptr: np.ndarray
    indices: np.ndarray
    keys: np.ndarray
    sizes: np.ndarray

    @classmethod
    def from_rows(cls, num_vertices: int, counts: np.ndarray,
                  flat: np.ndarray) -> "NeighborhoodCSR":
        """Build from every row's (sorted, possibly repeating) values."""
        empty = np.empty(0, dtype=np.int64)
        return cls(num_vertices=0, indptr=np.zeros(1, dtype=np.int64),
                   indices=empty, keys=empty, sizes=empty).replace_rows(
            np.arange(num_vertices, dtype=np.int64), counts, flat,
            num_vertices)

    def replace_rows(self, rows: np.ndarray, counts: np.ndarray,
                     flat: np.ndarray, num_vertices: int
                     ) -> "NeighborhoodCSR":
        """A new structure with ``rows`` (ascending, unique) replaced.

        ``flat`` concatenates the new rows, each sorted but possibly
        repeating values (the sample step keeps duplicate edges); they are
        deduplicated here.  Other rows are spliced over unchanged, and this
        object is left as it was.  Growing ``num_vertices`` changes the key
        space ``u * n + v``, so every key is recomputed.
        """
        counts, flat, row_id = _dedup_sorted_rows(counts, flat)
        n = np.int64(num_vertices)
        # Replacing every row means rows is 0..n-1: skip one |E|-long gather.
        new_keys = (row_id if rows.size == num_vertices else rows[row_id]) * n
        new_keys += flat
        indptr, (indices, keys) = splice_rows(
            self.indptr, (self.indices, self.keys), rows, counts,
            (flat, new_keys), num_vertices)
        sizes = np.diff(indptr)
        if num_vertices != self.num_vertices and self.num_vertices:
            keys = np.repeat(np.arange(num_vertices, dtype=np.int64),
                             sizes) * n + indices
        return NeighborhoodCSR(num_vertices, indptr, indices, keys, sizes)

    def row(self, u: int) -> np.ndarray:
        return self.indices[self.indptr[u]:self.indptr[u + 1]]


def _first_of_run(rows: np.ndarray) -> int | None:
    """``rows[0]`` if the non-empty ``rows`` are consecutive ids, else None."""
    first = int(rows[0])
    run = np.arange(first, first + rows.size, dtype=np.int64)
    return first if np.array_equal(rows, run) else None


def _members(gamma: NeighborhoodCSR, rows: np.ndarray,
             probe: np.ndarray) -> np.ndarray:
    """Whether ``z ∈ Γ̂(rows[r])`` for each ``probe = r * |V| + z``.

    ``rows`` are one block's table rows, in any order (a row may repeat),
    and the structure is built for them alone: a bitmap over ``len(rows) ×
    |V|`` bits when it is no larger than a full block's path arrays
    (:data:`BLOCK_PATHS` paths of eight ``int64``, 512 bits each), else a
    binary search in the rows' sorted keys — the slice of ``gamma.keys``
    when ``rows`` are consecutive ids, else the rows' keys gathered.
    """
    n = np.int64(gamma.num_vertices)
    first = _first_of_run(rows)
    if first is not None:
        keys = gamma.keys[gamma.indptr[first]:gamma.indptr[first + rows.size]]
        offset = first * n
    else:
        counts = gamma.sizes[rows]
        keys = np.repeat(np.arange(rows.size, dtype=np.int64), counts) * n
        keys += gamma.indices[_gather_slices(gamma.indptr[rows], counts)]
        offset = 0
    if rows.size * gamma.num_vertices <= 512 * BLOCK_PATHS:
        bitmap = np.zeros((rows.size * gamma.num_vertices + 7) // 8,
                          dtype=np.uint8)
        byte, mask = _byte_masks(keys - offset if offset else keys)
        bitmap[byte] = mask
        bits = bitmap[probe >> 3] >> (probe & 7).astype(np.uint8)
        return (bits & 1).astype(bool)
    if keys.size == 0:
        return np.zeros(probe.shape, dtype=bool)
    if offset:
        probe = probe + offset
    loc = np.searchsorted(keys, probe)
    loc[loc == keys.size] = 0  # any valid index; mismatch filters it
    return keys[loc] == probe


def sample_neighborhoods(
    graph: DiGraph, config: SnapleConfig, active: np.ndarray, *,
    rng_mode: str = "sequential",
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Phase 1 for the rows ``active``, replaying the GAS sample step's draws.

    The GAS gather of step 1 draws one Bernoulli test per out-edge of every
    vertex whose degree exceeds ``thrΓ`` (Algorithm 2, line 3); with
    ``exact_truncation`` the apply then reservoir-samples the *full*
    neighbourhood from the same stream.  This routine draws exactly those
    numbers in that order: from one stream seeded ``seed`` and consumed in
    the order of ``active`` (``rng_mode="sequential"``, the serial engine),
    or from each vertex's own stream (``"per_vertex"``, ``workers=N`` and
    the serving index).

    Returns ``(counts, flat, gathered)``: each row's sample, sorted with
    duplicate edges kept, as counts aligned with ``active`` and one flat
    payload; and a mask over the rows' out-edges (CSR order) of the edges
    the gather kept — the ids it shipped, which equal the sample unless
    truncation is exact.  Under-threshold rows are copied from the CSR
    adjacency in bulk; only truncated rows run Python.
    """
    act = np.asarray(active, dtype=np.int64)
    indptr, indices = graph.csr_out_adjacency()
    deg = np.diff(indptr)[act]
    threshold = config.truncation_threshold
    if math.isinf(threshold):
        loop_mask = np.zeros(act.size, dtype=bool)
    else:
        loop_mask = deg > threshold

    counts = deg.copy()
    edge_indptr = _indptr_from_counts(deg)
    gathered = np.ones(int(edge_indptr[-1]), dtype=bool)
    shared_rng = random.Random(config.seed)
    replaced: list[np.ndarray] = []
    loop_positions = np.flatnonzero(loop_mask)
    for position, u in zip(loop_positions.tolist(), act[loop_mask].tolist()):
        row = indices[indptr[u]:indptr[u + 1]]
        rng = (shared_rng if rng_mode == "sequential"
               else vertex_rng(config.seed, 0, u))
        draws = np.fromiter((rng.random() for _ in range(row.size)),
                            dtype=np.float64, count=row.size)
        keep = draws <= threshold / row.size
        gathered[edge_indptr[position]:edge_indptr[position + 1]] = keep
        if config.exact_truncation:
            sample = np.asarray(reservoir_sample(row.tolist(), threshold,
                                                 rng=rng), dtype=np.int64)
        else:
            sample = row[keep]
        sample = np.sort(sample)
        replaced.append(sample)
        counts[position] = sample.size

    out_indptr = _indptr_from_counts(counts)
    flat = np.empty(int(counts.sum()), dtype=np.int64)
    copy_mask = ~loop_mask
    flat[_gather_slices(out_indptr[:-1][copy_mask], counts[copy_mask])] = (
        indices[_gather_slices(indptr[act[copy_mask]], deg[copy_mask])]
    )
    for position, row in zip(loop_positions.tolist(), replaced):
        start = out_indptr[position]
        flat[start:start + row.size] = row
    return counts, flat, gathered


def build_truncated_neighborhoods(
    graph: DiGraph,
    config: SnapleConfig,
    *,
    vertices: list[int] | None = None,
) -> NeighborhoodCSR:
    """Phase 1: every ``Γ̂(u)`` in one CSR, for every configuration.

    Randomness comes from one shared stream seeded ``seed`` and consumed in
    ascending vertex order, drawn as the serial GAS engine's sample step
    draws it (:func:`sample_neighborhoods`): one Bernoulli test per
    out-edge of every vertex over ``thrΓ``, then, under exact truncation,
    the reservoir sample.  (The parallel GAS tasks and the serving index
    use :func:`gas_sample_step_columnar`, the same draws from per-vertex
    streams.)

    ``vertices`` restricts the computed rows (others stay empty).
    """
    num_vertices = graph.num_vertices
    if vertices is None:
        rows = np.arange(num_vertices, dtype=np.int64)
    else:
        rows = np.unique(np.asarray(vertices, dtype=np.int64))
    sample_counts, sample, _ = sample_neighborhoods(graph, config, rows)
    counts = np.zeros(num_vertices, dtype=np.int64)
    counts[rows] = sample_counts
    return NeighborhoodCSR.from_rows(num_vertices, counts, sample)


# ----------------------------------------------------------------------
# Phase 2: batched edge similarities
# ----------------------------------------------------------------------
#: Most 2-hop paths one block of phase 3b expands, and most membership
#: probes one block of phase 2 makes: bounds both phases' transient arrays
#: (tens of bytes per path or probe).  A target or a vertex pair over the
#: bound is a block of its own.
BLOCK_PATHS = 1 << 16


def _block_bounds(ends: np.ndarray):
    """``(start, stop)`` of the consecutive runs of items whose sizes (with
    running total ``ends``) sum to at most :data:`BLOCK_PATHS`."""
    start = 0
    while start < ends.size:
        base = int(ends[start - 1]) if start else 0
        stop = max(int(np.searchsorted(ends, base + BLOCK_PATHS,
                                       side="right")), start + 1)
        yield start, stop
        start = stop


@dataclass
class EdgeSimilarities:
    """Raw similarities for the (deduplicated) out-edges of selected rows.

    One entry per distinct directed edge ``u -> v``; ``indptr`` spans all
    vertices, with empty rows for vertices outside the requested set.
    """

    indptr: np.ndarray
    neighbor: np.ndarray
    path_sim: np.ndarray
    selection_sim: np.ndarray


def _pairwise_intersections(gamma: NeighborhoodCSR, left: np.ndarray,
                            right: np.ndarray) -> np.ndarray:
    """``|Γ̂(left[i]) ∩ Γ̂(right[i])|`` for each vertex pair, in blocks.

    Each pair probes every element of its smaller neighborhood for
    membership in the other, its table row.  The pairs run in table-row
    order, in consecutive blocks of at most :data:`BLOCK_PATHS` probes (a
    pair over the bound is a block of its own), so a block's table rows are
    one ascending run, which :func:`_members` answers for alone.
    """
    n = np.int64(gamma.num_vertices)
    swap = gamma.sizes[left] > gamma.sizes[right]  # probe right, look up left
    probe = np.where(swap, right, left)
    table = np.where(swap, left, right)
    del swap
    counts = gamma.sizes[probe]
    pairs = np.flatnonzero(counts)  # an empty side meets nothing
    pairs = pairs[np.argsort(table[pairs])]
    probe, table, counts = probe[pairs], table[pairs], counts[pairs]
    inter = np.zeros(left.size, dtype=np.int64)
    for start, stop in _block_bounds(np.cumsum(counts)):
        rows, rank = np.unique(table[start:stop], return_inverse=True)
        block_counts = counts[start:stop]
        key = np.repeat(rank * n, block_counts)
        key += gamma.indices[_gather_slices(gamma.indptr[probe[start:stop]],
                                            block_counts)]
        found = _members(gamma, rows, key)
        inter[pairs[start:stop]] = np.add.reduceat(
            found, _indptr_from_counts(block_counts)[:-1], dtype=np.int64)
    return inter


def edge_similarities(graph: DiGraph, gamma: NeighborhoodCSR,
                      config: SnapleConfig, *,
                      rows: np.ndarray | None = None,
                      pair_cache: Any | None = None,
                      vectorized: bool = True,
                      blend: Callable[[int, int, float], float] | None = None,
                      ) -> EdgeSimilarities:
    """Phase 2: path + selection similarities for every edge in one pass.

    Stock similarities take the vectorized branch: the intersection — the
    only expensive part, shared by every similarity in the table — is
    computed once per *unordered* vertex pair (the edge-symmetric cache) and
    broadcast back to the directed edges.

    ``pair_cache`` optionally persists those per-pair intersections across
    calls.  It must provide ``lookup(low, high) -> (inter, known)`` — the
    cached ``|Γ̂(low[i]) ∩ Γ̂(high[i])|`` values plus a boolean mask of which
    entries were found — and ``store(low, high, inter)`` for the entries
    computed here.  The serving layer's
    :class:`~repro.serving.index.PairSimilarityCache` implements the
    protocol with per-vertex invalidation; batch callers pass ``None`` and
    keep the one-shot behaviour.

    Custom similarity callables, ``vectorized=False`` (the ``local``
    backend's reference mode) and a ``blend`` take the scalar per-edge loop
    of :func:`_scalar_edge_values`.  ``blend(u, v, value)`` post-processes
    both raw similarities of edge ``u -> v`` (the content-aware hybrid).
    """
    num_vertices = graph.num_vertices
    indptr, indices = graph.csr_out_adjacency()
    degrees = np.diff(indptr)
    if rows is None:
        rows = np.arange(num_vertices, dtype=np.int64)
    else:
        rows = np.unique(np.asarray(rows, dtype=np.int64))
    counts = np.zeros(num_vertices, dtype=np.int64)
    counts[rows] = degrees[rows]
    flat = indices[_gather_slices(indptr[rows], degrees[rows])]
    counts, flat, row_id = _dedup_sorted_rows(counts, flat)

    score = config.score
    if vectorized and blend is None and _similarities_supported(score):
        path_sim, selection_sim = _vectorized_edge_values(
            gamma, score, row_id, flat, pair_cache
        )
    else:
        path_sim, selection_sim = _scalar_edge_values(
            gamma, score, row_id, flat, blend
        )
    return EdgeSimilarities(
        indptr=_indptr_from_counts(counts),
        neighbor=flat,
        path_sim=path_sim,
        selection_sim=selection_sim,
    )


def _vectorized_edge_values(gamma: NeighborhoodCSR, score, row_id: np.ndarray,
                            flat: np.ndarray, pair_cache: Any | None
                            ) -> tuple[np.ndarray, np.ndarray]:
    """``(path_sim, selection_sim)`` of the edges ``row_id[i] -> flat[i]``."""
    n = np.int64(gamma.num_vertices)
    pair_keys = np.minimum(row_id, flat) * n
    pair_keys += np.maximum(row_id, flat)
    distinct, inverse = np.unique(pair_keys, return_inverse=True)
    del pair_keys
    rep_low, rep_high = np.divmod(distinct, n)
    del distinct
    if pair_cache is None:
        rep_inter = _pairwise_intersections(gamma, rep_low, rep_high)
    else:
        rep_inter, known = pair_cache.lookup(rep_low, rep_high)
        missing = np.flatnonzero(~known)
        if missing.size:
            computed = _pairwise_intersections(gamma, rep_low[missing],
                                               rep_high[missing])
            rep_inter[missing] = computed
            pair_cache.store(rep_low[missing], rep_high[missing], computed)
    inter = rep_inter[inverse]
    size_u = gamma.sizes[row_id]
    size_v = gamma.sizes[flat]
    selection_fn = _VECTORIZED_SIMILARITIES[score.selection_similarity_name]
    selection_sim = selection_fn(inter, size_u, size_v)
    if score.selection_similarity is score.similarity:
        return selection_sim, selection_sim
    path_fn = _VECTORIZED_SIMILARITIES[score.similarity_name]
    return path_fn(inter, size_u, size_v), selection_sim


def _scalar_edge_values(gamma: NeighborhoodCSR, score, row_id: np.ndarray,
                        flat: np.ndarray,
                        blend: Callable[[int, int, float], float] | None
                        ) -> tuple[np.ndarray, np.ndarray]:
    """The per-edge loop behind :func:`edge_similarities`' scalar branch.

    Every similarity callable receives the two truncated neighborhoods as
    frozensets, built once per vertex.
    """
    similarity = score.similarity
    selection_similarity = score.selection_similarity
    sets: dict[int, frozenset] = {}

    def neighborhood(u: int) -> frozenset:
        found = sets.get(u)
        if found is None:
            found = sets[u] = frozenset(gamma.row(u).tolist())
        return found

    path_sim = np.empty(flat.size, dtype=np.float64)
    selection_sim = np.empty(flat.size, dtype=np.float64)
    for i, (u, v) in enumerate(zip(row_id.tolist(), flat.tolist())):
        set_u, set_v = neighborhood(u), neighborhood(v)
        path = similarity(set_u, set_v)
        if blend is not None:
            path = blend(u, v, path)
        path_sim[i] = path
        if selection_similarity is similarity:
            selection_sim[i] = path
            continue
        selection = selection_similarity(set_u, set_v)
        selection_sim[i] = selection if blend is None else blend(u, v, selection)
    return path_sim, selection_sim


# ----------------------------------------------------------------------
# Phase 3a: klocal selection
# ----------------------------------------------------------------------
@dataclass
class KeptNeighbors:
    """The ``klocal``-selected neighbors per vertex, in *selection order*.

    The row order is the order ``sampler.select`` returns (``Γmax``:
    similarity descending, id ascending; ``Γmin``: ascending; unsampled
    rows: neighbor id ascending).  :func:`fold_paths` and
    ``combine_and_rank(neighbor_order="sampler")`` both walk the rows in
    this order, which keeps their float fold orders, and therefore the
    scores, bit-identical.
    """

    indptr: np.ndarray
    ids: np.ndarray
    sims: np.ndarray


def _smallest_k_by(primary: np.ndarray, ids: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` smallest by ``(primary, id)``, in that order.

    ``np.argpartition`` shrinks the candidate set to the boundary value, ties
    on the boundary are repaired exactly, and only the ``k`` survivors are
    sorted — the full-sort-free ranking the scalar heaps provide.
    """
    n = primary.size
    if n > 2 * k:
        boundary = primary[np.argpartition(primary, k - 1)[k - 1]]
        keep = np.flatnonzero(primary <= boundary)
        order = np.lexsort((ids[keep], primary[keep]))[:k]
        return keep[order]
    return np.lexsort((ids, primary))[:k]


def select_klocal(edges: EdgeSimilarities, config: SnapleConfig, *,
                  rng_mode: str = "sequential",
                  rows: np.ndarray | None = None) -> KeptNeighbors:
    """Phase 3a: keep ``klocal`` neighbors per vertex, scalar-order parity.

    ``Γmax``/``Γmin`` rows larger than ``klocal`` go through the
    ``argpartition`` fast path; ``Γrnd`` rows larger than ``klocal`` delegate
    to the sampler itself so the random draws match the scalar engines
    draw-for-draw (sequential stream seeded ``seed + 1``, or the vertex's own
    stream, matching ``rng_mode``).  Any other sampling policy sees *every*
    row, in ascending vertex order, through its own ``select``.
    """
    k_local = config.k_local
    counts = np.diff(edges.indptr)
    num_vertices = counts.size
    if rows is None:
        rows = np.arange(num_vertices, dtype=np.int64)
    sampler = config.sampler
    custom = type(sampler) not in _SAMPLER_TYPES
    if custom:
        selected = rows
    elif math.isinf(k_local):
        selected = np.empty(0, dtype=np.int64)
    else:
        selected = rows[counts[rows] > k_local]

    kept_counts = counts.copy()
    sequential = rng_mode == "sequential"
    if sequential:
        shared_rng = random.Random(config.seed + 1)
    replaced: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    budget = int(k_local) if not math.isinf(k_local) else 0
    for u in selected.tolist():
        start, end = int(edges.indptr[u]), int(edges.indptr[u + 1])
        ids = edges.neighbor[start:end]
        selection = edges.selection_sim[start:end]
        path = edges.path_sim[start:end]
        if type(sampler) is TopSimilaritySampler:
            chosen = _smallest_k_by(-selection, ids, budget)
        elif type(sampler) is BottomSimilaritySampler:
            chosen = _smallest_k_by(selection, ids, budget)
        else:  # replay the sampler itself for draw-exact parity
            rng = shared_rng if sequential else vertex_rng(config.seed, 1, u)
            kept = sampler.select(
                dict(zip(ids.tolist(), selection.tolist())), k_local, rng=rng
            )
            lookup = {int(v): i for i, v in enumerate(ids.tolist())}
            chosen = np.array([lookup[v] for v in kept], dtype=np.int64)
        replaced[u] = (ids[chosen], path[chosen])
        kept_counts[u] = len(chosen)

    if not replaced:
        return KeptNeighbors(indptr=edges.indptr, ids=edges.neighbor,
                             sims=edges.path_sim)
    new_indptr = _indptr_from_counts(kept_counts)
    ids_out = np.empty(int(kept_counts.sum()), dtype=np.int64)
    sims_out = np.empty(ids_out.size, dtype=np.float64)
    untouched = rows[:0] if custom else rows[counts[rows] <= k_local]
    src = _gather_slices(edges.indptr[untouched], counts[untouched])
    dst = _gather_slices(new_indptr[untouched], counts[untouched])
    ids_out[dst] = edges.neighbor[src]
    sims_out[dst] = edges.path_sim[src]
    for u, (ids, sims) in replaced.items():
        start = new_indptr[u]
        ids_out[start:start + ids.size] = ids
        sims_out[start:start + ids.size] = sims
    return KeptNeighbors(indptr=new_indptr, ids=ids_out, sims=sims_out)


# ----------------------------------------------------------------------
# Phase 3b: fused path combination + aggregation + top-k
# ----------------------------------------------------------------------
class LazyScores(Mapping):
    """Per-target candidate score maps: a read-only view over flat arrays.

    Algorithm 2 treats the full candidate score map as a temporary of the
    apply phase — only the top-``k`` predictions are the program's output.
    The kernel therefore keeps the scores as flat arrays (every phase-3b
    block's rows, concatenated once) and builds a per-vertex ``{candidate:
    score}`` dict only when someone reads a row (evaluation code reads
    predictions; the score maps serve inspection, supervision, and the
    parity suite).  The view caches no row: each read builds a fresh dict
    that belongs to the caller, as does every dict :meth:`materialize`
    returns, so once the caller drops them the view holds nothing but its
    arrays.  A row's keys are one shared ``int`` per distinct candidate, not
    one per entry.  Content equality with the eagerly-built reference dicts
    is exact; ``==`` compares one row at a time, against any mapping.
    """

    __slots__ = ("_offsets", "_candidates", "_values", "_ids")

    def __init__(self, targets: list[int], starts: np.ndarray,
                 counts: np.ndarray, candidates: np.ndarray,
                 values: np.ndarray) -> None:
        starts_list = starts.tolist()
        counts_list = counts.tolist()
        #: target -> (start, count); also fixes iteration order (last
        #: occurrence wins for duplicate targets, like dict assignment).
        self._offsets = {
            u: (starts_list[i], counts_list[i]) for i, u in enumerate(targets)
        }
        self._candidates = candidates
        self._values = values
        #: Candidate id -> its ``int`` object, built on the first read.
        self._ids: np.ndarray | None = None

    def __getitem__(self, u: int) -> dict[int, float]:
        start, count = self._offsets[u]  # raises KeyError for unknown targets
        end = start + count
        if self._ids is None:
            bound = int(self._candidates.max()) + 1 if self._candidates.size else 0
            self._ids = np.arange(bound).astype(object)
        return dict(zip(self._ids[self._candidates[start:end]].tolist(),
                        self._values[start:end].tolist()))

    def __iter__(self):
        return iter(self._offsets)

    def __len__(self) -> int:
        return len(self._offsets)

    def __contains__(self, u) -> bool:
        return u in self._offsets

    def materialize(self) -> dict[int, dict[int, float]]:
        """All score maps as one eager ``dict`` (what ``dict(self)`` yields)."""
        return {u: self[u] for u in self._offsets}

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mapping):
            return NotImplemented
        if len(other) != len(self._offsets):
            return False
        try:
            return all(self[u] == other[u] for u in self._offsets)
        except KeyError:
            return False

    def __repr__(self) -> str:
        return f"LazyScores(<{len(self._offsets)} targets>)"


def _fold_groups(ufunc, values: np.ndarray, starts: np.ndarray,
                 sizes: np.ndarray) -> np.ndarray:
    """Left-to-right ``ufunc`` fold of each group — exact scalar fold order.

    ``ufunc.reduceat`` is not usable here: NumPy switches to pairwise
    summation for runs longer than 8 elements, which changes float results.
    This folds all groups simultaneously, one element-rank per round, so the
    number of vectorized rounds is the largest group size.
    """
    accumulated = values[starts].copy()
    offset = 1
    remaining = np.flatnonzero(sizes > 1)
    while remaining.size:
        accumulated[remaining] = ufunc(
            accumulated[remaining], values[starts[remaining] + offset]
        )
        offset += 1
        remaining = remaining[sizes[remaining] > offset]
    return accumulated


def _top_k_rounds(scores: np.ndarray, candidates: np.ndarray,
                  seg_starts: np.ndarray, seg_sizes: np.ndarray,
                  k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-``k`` per segment by ``(-score, candidate)``, without full sorts.

    Candidates are id-ascending inside each segment, so the *first* maximum
    of a segment is exactly the scalar tie-break (highest score, smallest
    id).  Each round extracts every segment's current maximum at once; a
    segment of ``s`` candidates is hit in rounds ``0 .. min(s, k) - 1``,
    so round ``r``'s pick lands at offset ``r`` of its segment's row.
    Returns ``(counts, picks)``: picks per segment and, concatenated in
    segment order, each segment's picks best first.
    """
    counts = np.minimum(seg_sizes, k).astype(np.int64)
    picks = np.empty(int(counts.sum()), dtype=np.int64)
    if picks.size == 0:
        return counts, picks
    offsets = _indptr_from_counts(counts)[:-1]
    working = scores.copy()
    segment_of = np.repeat(np.arange(seg_starts.size, dtype=np.int64),
                           seg_sizes)
    for round_index in range(int(counts.max())):
        best = np.maximum.reduceat(working, seg_starts)
        is_best = working == best[segment_of]
        if round_index:  # scores are finite, so -inf only marks extractions
            is_best &= working != -np.inf
        hits = np.flatnonzero(is_best)
        hit_segments = segment_of[hits]
        first = np.ones(hits.size, dtype=bool)
        first[1:] = hit_segments[1:] != hit_segments[:-1]
        chosen = hits[first]
        picks[offsets[hit_segments[first]] + round_index] = candidates[chosen]
        working[chosen] = -np.inf
    return counts, picks


def _kept_rows_of(kept: KeptNeighbors, targets: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray | slice]:
    """``(counts, positions)`` of the targets' kept rows, laid out per target.

    A full-graph run (``targets`` is ``0..|V|-1``) reads the kept payload in
    place: its positions are the whole array.
    """
    num_rows = kept.indptr.size - 1
    if targets.size == num_rows and np.array_equal(
            targets, np.arange(num_rows, dtype=np.int64)):
        return np.diff(kept.indptr), slice(None)
    counts = np.diff(kept.indptr)[targets]
    return counts, _gather_slices(kept.indptr[targets], counts)


def _path_edges_sampler_order(kept: KeptNeighbors, targets: np.ndarray
                              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kept edges of each target in selection order (local reference parity)."""
    counts, positions = _kept_rows_of(kept, targets)
    rank = np.repeat(np.arange(targets.size, dtype=np.int64), counts)
    return kept.ids[positions], kept.sims[positions], rank


def _path_edges_csr_order(graph: DiGraph, kept: KeptNeighbors,
                          targets: np.ndarray
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                     np.ndarray]:
    """Kept out-edges of each target in raw CSR order (GAS gather parity).

    The GAS gather walks the full adjacency (duplicates included) and skips
    neighbors outside ``sims(u)``; the kept value is looked up through a
    sorted view of the targets' own kept rows, keyed by position in
    ``targets``, so the lookup costs O(targets), not O(|E|).  The fourth
    array holds each kept edge's position in the graph's CSR out-adjacency.
    """
    indptr, indices = graph.csr_out_adjacency()
    degrees = np.diff(indptr)[targets]
    edge = _gather_slices(indptr[targets], degrees)
    neighbor = indices[edge]
    rank = np.repeat(np.arange(targets.size, dtype=np.int64), degrees)
    num_vertices = np.int64(graph.num_vertices)

    kept_counts, positions = _kept_rows_of(kept, targets)
    kept_rank = np.repeat(np.arange(targets.size, dtype=np.int64),
                          kept_counts)
    kept_keys = kept_rank * num_vertices + kept.ids[positions]
    key_order = np.argsort(kept_keys)
    sorted_keys = kept_keys[key_order]
    probe = rank * num_vertices + neighbor
    loc = np.searchsorted(sorted_keys, probe)
    if sorted_keys.size:
        loc[loc == sorted_keys.size] = 0
        found = sorted_keys[loc] == probe
    else:
        found = np.zeros(probe.shape, dtype=bool)
    sims = kept.sims[positions][key_order[loc[found]]]
    return neighbor[found], sims, rank[found], edge[found]


@dataclass
class PathTrace:
    """Where the 2-hop paths of one phase-3b block entered, for accounting.

    One entry per path that survived the ``z != u, z ∉ Γ̂(u)`` filter, in
    fold order: ``key`` is ``rank * |V| + z`` (``rank`` the target's
    position in the block, ``z`` the candidate) and ``edge`` the CSR
    out-position of the path's first hop ``u -> v``.
    """

    key: np.ndarray
    edge: np.ndarray


def _surviving_paths(graph: DiGraph, gamma: NeighborhoodCSR,
                     kept: KeptNeighbors, block: np.ndarray,
                     via: np.ndarray, sim_uv: np.ndarray, fanout: np.ndarray,
                     rank: np.ndarray, edge: np.ndarray | None, *,
                     combinator=None, trace: bool = False
                     ) -> tuple[np.ndarray, np.ndarray | None,
                                PathTrace | None]:
    """Expand a block's kept edges into 2-hop paths, filter, group.

    ``via``, ``sim_uv``, ``fanout``, ``rank`` (block-local) and ``edge``
    (CSR order only, else ``None``) describe the block's kept edges
    ``u -> v`` and ``|kept(v)|``.  Returns ``(key, combined, trace)`` over
    the surviving paths, grouped by ``key = rank * |V| + candidate``
    (ascending) in arrival order inside each group: ``sim(u, v) ⊗ sim(v,
    z)`` when a ``combinator`` is given, and the :class:`PathTrace` when
    ``trace`` is set (CSR order only).
    """
    positions = _gather_slices(kept.indptr[via], fanout)
    candidate = kept.ids[positions]
    combined = None
    if combinator is not None:
        combined = _combine_arrays(combinator, np.repeat(sim_uv, fanout),
                                   kept.sims[positions])
    path_rank = np.repeat(rank, fanout)

    # Drop self-candidates and already-known neighbors (z ∈ Γ̂(u)); the
    # grouping key is the membership probe.  For consecutive targets (every
    # block of a full-graph run) a path's source is its rank shifted.
    num_vertices = np.int64(graph.num_vertices)
    group_key = path_rank * num_vertices + candidate
    first = _first_of_run(block)
    source = block[path_rank] if first is None else path_rank + first
    keep = candidate != source
    keep &= ~_members(gamma, block, group_key)

    # Group by (target, candidate) preserving arrival order inside groups:
    # encode the arrival position into the sort key (in place, before the
    # filter compresses it) so one unstable O(n log n) value sort both
    # groups and orders, and the surviving positions index straight into the
    # unfiltered arrays.  Falls back to a stable argsort when the packed key
    # would overflow 63 bits.
    n_all = candidate.size
    shift = max(int(n_all - 1).bit_length(), 1)
    key_bound = int(block.size) * int(num_vertices)
    if shift < 62 and key_bound < (1 << (62 - shift)):
        group_key <<= shift
        group_key |= np.arange(n_all, dtype=np.int64)
        packed = group_key[keep]
        packed.sort()
        arrival = packed & ((1 << shift) - 1)
        group_key = packed >> shift
    else:
        arrival = np.flatnonzero(keep)
        group_key = group_key[arrival]
        order = np.argsort(group_key, kind="stable")
        arrival = arrival[order]
        group_key = group_key[order]
    if combined is not None:
        combined = combined[arrival]
    path_trace = None
    if trace:
        path_trace = PathTrace(key=group_key,
                               edge=np.repeat(edge, fanout)[arrival])
    return group_key, combined, path_trace


def _combine_core(graph: DiGraph, gamma: NeighborhoodCSR,
                  kept: KeptNeighbors, config: SnapleConfig,
                  block: np.ndarray, paths: tuple, *, trace: bool
                  ) -> tuple[tuple[np.ndarray, ...], PathTrace | None]:
    """One block of phase 3b, vectorized: expand, filter, group, fold, top-k.

    ``paths`` is the block's ``(via, sim_uv, fanout, rank, edge)`` (see
    :func:`_surviving_paths`).  Returns the block's five row arrays (as
    :func:`combine_and_rank_columnar` lays them out) and its
    :class:`PathTrace` when ``trace`` is set.
    """
    score = config.score
    num_vertices = np.int64(graph.num_vertices)
    group_key, combined, path_trace = _surviving_paths(
        graph, gamma, kept, block, *paths, combinator=score.combinator,
        trace=trace)
    n_paths = group_key.size

    boundary = np.ones(n_paths, dtype=bool)
    boundary[1:] = group_key[1:] != group_key[:-1]
    starts = np.flatnonzero(boundary)
    sizes = np.diff(starts, append=n_paths)
    pre_ufunc = _AGGREGATOR_UFUNCS[type(score.aggregator)]
    accumulated = _fold_groups(pre_ufunc, combined, starts, sizes)
    final = _aggregator_post(score.aggregator, accumulated, sizes)
    group_rank = group_key[starts] // num_vertices
    group_candidate = group_key[starts] % num_vertices

    # Rank per target.
    seg_counts = np.bincount(group_rank, minlength=block.size)
    nonempty = np.flatnonzero(seg_counts)
    pick_counts, pred_flat = _top_k_rounds(
        final, group_candidate, _indptr_from_counts(seg_counts)[nonempty],
        seg_counts[nonempty], config.k)
    pred_counts = np.zeros(block.size, dtype=np.int64)
    pred_counts[nonempty] = pick_counts
    return ((pred_counts, pred_flat, seg_counts, group_candidate, final),
            path_trace)


def _fold_rows(graph: DiGraph, gamma: NeighborhoodCSR, kept: KeptNeighbors,
               config: SnapleConfig, block: np.ndarray, neighbor_order: str
               ) -> tuple[np.ndarray, ...]:
    """One block's five row arrays from the scalar :func:`fold_paths` (a
    custom combinator or aggregator), candidates ascending per target."""
    target_list = block.tolist()
    predictions, scores, _ = fold_paths(gamma, kept, config, target_list,
                                        neighbor_order=neighbor_order,
                                        graph=graph)
    picked = [predictions[u] for u in target_list]
    ranked = [sorted(scores[u].items()) for u in target_list]
    pairs = list(itertools.chain.from_iterable(ranked))
    return (np.array([len(row) for row in picked], dtype=np.int64),
            np.array(list(itertools.chain.from_iterable(picked)),
                     dtype=np.int64),
            np.array([len(row) for row in ranked], dtype=np.int64),
            np.array([z for z, _ in pairs], dtype=np.int64),
            np.array([value for _, value in pairs], dtype=np.float64))


def _rank_blocks(
    graph: DiGraph,
    gamma: NeighborhoodCSR,
    kept: KeptNeighbors,
    config: SnapleConfig,
    targets: np.ndarray,
    neighbor_order: str,
    on_trace: Callable[[np.ndarray, PathTrace], None] | None = None,
) -> tuple[np.ndarray, ...]:
    """Phase 3b over consecutive blocks of ``targets``: the one loop.

    The targets' kept path edges are computed once, in ``neighbor_order``;
    a target's fan-out (the paths it expands) is known from them before any
    expansion.  A block is a run of consecutive targets whose fan-outs sum
    to at most :data:`BLOCK_PATHS`; a target over the bound is a block of
    its own, and no target is split, so blocking changes no answer.  Each
    block runs :func:`_combine_core` (or :func:`_fold_rows` for a custom
    combinator or aggregator) on its slice of the path edges, and
    ``on_trace(block, trace)`` receives its :class:`PathTrace` (CSR order
    only) before the next block runs.  Returns the five row arrays of
    :func:`combine_and_rank_columnar`, aligned with ``targets``.
    """
    num_targets = targets.size
    edge = None
    if neighbor_order == "sampler":
        via, sim_uv, rank = _path_edges_sampler_order(kept, targets)
    else:
        via, sim_uv, rank, edge = _path_edges_csr_order(graph, kept, targets)
    fanout = np.diff(kept.indptr)[via]
    path_ends = np.cumsum(np.bincount(rank, weights=fanout,
                                      minlength=num_targets)).astype(np.int64)
    edge_ends = np.cumsum(np.bincount(rank, minlength=num_targets))
    vectorized = _fold_supported(config.score)
    rows: list[tuple[np.ndarray, ...]] = []
    for start, stop in _block_bounds(path_ends):
        low = int(edge_ends[start - 1]) if start else 0
        high = int(edge_ends[stop - 1])
        block = targets[start:stop]
        paths = (via[low:high], sim_uv[low:high], fanout[low:high],
                 rank[low:high] - start,
                 None if edge is None else edge[low:high])
        if vectorized:
            block_rows, trace = _combine_core(graph, gamma, kept, config,
                                              block, paths,
                                              trace=on_trace is not None)
        else:
            block_rows = _fold_rows(graph, gamma, kept, config, block,
                                    neighbor_order)
            # The scalar fold keeps no arrays: trace the same paths apart.
            trace = (_surviving_paths(graph, gamma, kept, block, *paths,
                                      trace=True)[2]
                     if on_trace is not None else None)
        if on_trace is not None:
            on_trace(block, trace)
        rows.append(block_rows)
    return _join_blocks(rows)


def _join_blocks(rows: list[tuple[np.ndarray, ...]]) -> tuple[np.ndarray, ...]:
    """One block loop's five row arrays (see
    :func:`combine_and_rank_columnar`), joined over its blocks; ``rows`` is
    emptied."""
    if len(rows) == 1:
        return rows.pop()
    if not rows:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty, empty, np.empty(0, dtype=np.float64)
    # Concatenate column by column, dropping each column's block pieces as
    # it goes: the rows are held about once, not twice.
    columns = [list(column) for column in zip(*rows)]
    rows.clear()
    joined = []
    for column in columns:
        joined.append(np.concatenate(column))
        column.clear()
    return tuple(joined)


def _answers(targets: np.ndarray, pred_counts: np.ndarray,
             pred_flat: np.ndarray, score_counts: np.ndarray,
             candidates: np.ndarray, values: np.ndarray
             ) -> tuple[dict[int, list[int]], LazyScores]:
    """Row arrays aligned with ``targets`` as one prediction list per
    target plus a :class:`LazyScores` over the score rows."""
    target_list = targets.tolist()
    picked = iter(pred_flat.tolist())
    predictions = {u: list(itertools.islice(picked, count))
                   for u, count in zip(target_list, pred_counts.tolist())}
    return predictions, LazyScores(
        target_list, _indptr_from_counts(score_counts)[:-1], score_counts,
        candidates, values)


def combine_and_rank(
    graph: DiGraph,
    gamma: NeighborhoodCSR,
    kept: KeptNeighbors,
    config: SnapleConfig,
    targets: list[int],
    *,
    neighbor_order: str = "sampler",
    materialize_scores: bool = True,
    on_trace: Callable[[np.ndarray, PathTrace], None] | None = None,
) -> tuple[dict[int, list[int]], Mapping]:
    """Phase 3b: 2-hop paths combined, aggregated, and ranked in blocks.

    ``neighbor_order`` selects whose float fold order to reproduce:
    ``"sampler"`` iterates each target's kept neighbors in selection order
    (the ``local`` reference), ``"csr"`` iterates the raw adjacency and
    filters (the GAS gather).  Aggregation per candidate is a left-to-right
    fold in path arrival order either way, so scores match the scalar dict
    merges bit-for-bit.  The targets run in consecutive blocks of at most
    :data:`BLOCK_PATHS` expanded paths (:func:`_rank_blocks`), so the
    transient arrays are bounded by the block, not by ``targets``;
    ``on_trace(block, trace)`` receives each block's :class:`PathTrace`
    (CSR order only).

    Predictions are one list per target.  The score maps are one
    :class:`LazyScores` over every block's rows (identical content, a fresh
    dict on each read, no row cached), or, with ``materialize_scores=True``,
    that view materialized into plain dicts.
    """
    target_array = np.asarray(targets, dtype=np.int64)
    predictions, scores = _answers(target_array, *_rank_blocks(
        graph, gamma, kept, config, target_array, neighbor_order, on_trace))
    return predictions, (scores.materialize() if materialize_scores
                         else scores)


def fold_paths(
    gamma: NeighborhoodCSR,
    kept: KeptNeighbors,
    config: SnapleConfig,
    targets: list[int],
    *,
    hops: int = 2,
    neighbor_order: str = "sampler",
    graph: DiGraph | None = None,
) -> tuple[dict[int, list[int]], dict[int, dict[int, float]], dict[int, int]]:
    """Phase 3, scalar: fold every kept-neighbor path of each target.

    With ``hops=2`` this is Algorithm 2's path loop verbatim: each path
    ``u -> v -> z`` through kept neighbors contributes ``sim(u, v) ⊗
    sim(v, z)`` unless ``z == u`` or ``z ∈ Γ̂(u)``.  With ``hops > 2`` the
    paths are the *simple* paths of length 2 .. ``hops`` (no vertex
    repeats), the combinator folded left along the path (the paper's
    footnote 2).  Contributions are aggregated with ``⊕pre`` in arrival
    order, then ``⊕post`` and top-``k``.

    ``neighbor_order`` fixes the arrival order of each target's own kept
    neighbors, as in :func:`combine_and_rank`: ``"sampler"`` walks them in
    selection order; ``"csr"`` walks ``graph``'s raw out-adjacency
    (duplicates included) and skips neighbors outside the kept row, as the
    GAS gather does.

    Returns ``(predictions, scores, paths_per_length)``, the last counting
    the contributing paths per length.
    """
    combinator = config.score.combinator
    aggregator = config.score.aggregator
    simple = hops > 2
    rows: dict[int, list[tuple[int, float]]] = {}

    def kept_of(v: int) -> list[tuple[int, float]]:
        row = rows.get(v)
        if row is None:
            start, end = kept.indptr[v], kept.indptr[v + 1]
            row = rows[v] = list(zip(kept.ids[start:end].tolist(),
                                     kept.sims[start:end].tolist()))
        return row

    if neighbor_order == "csr":
        out_indptr, out_indices = graph.csr_out_adjacency()

        def first_hop(u: int) -> list[tuple[int, float]]:
            sims = dict(kept_of(u))
            adjacency = out_indices[out_indptr[u]:out_indptr[u + 1]].tolist()
            return [(v, sims[v]) for v in adjacency if v in sims]
    else:
        first_hop = kept_of

    paths_per_length = dict.fromkeys(range(2, hops + 1), 0)
    predictions: dict[int, list[int]] = {}
    scores: dict[int, dict[int, float]] = {}
    for u in targets:
        known = set(gamma.row(u).tolist())
        accumulated: dict[int, tuple[float, int]] = {}

        def visit(vertex: int, on_path: frozenset, partial: float,
                  length: int) -> None:
            for z, sim_edge in (kept_of(vertex) if length
                                else first_hop(vertex)):
                if z in on_path:
                    continue
                value = combinator.combine(partial, sim_edge) if length else sim_edge
                if length and z != u and z not in known:
                    paths_per_length[length + 1] += 1
                    if z in accumulated:
                        current, count = accumulated[z]
                        accumulated[z] = (aggregator.pre(current, value),
                                          count + 1)
                    else:
                        accumulated[z] = (value, 1)
                if length + 1 < hops:
                    visit(z, on_path | {z} if simple else on_path, value,
                          length + 1)

        visit(u, frozenset({u}) if simple else frozenset(), 0.0, 0)
        final = {z: aggregator.post(value, count)
                 for z, (value, count) in accumulated.items()}
        scores[u] = final
        predictions[u] = top_k_predictions(final, config.k)
    return predictions, scores, paths_per_length


# ----------------------------------------------------------------------
# Array-in, array-out entry points of the parallel executor and the index
# ----------------------------------------------------------------------
def combine_and_rank_columnar(
    graph: DiGraph,
    gamma: NeighborhoodCSR,
    kept: KeptNeighbors,
    config: SnapleConfig,
    targets: np.ndarray,
    *,
    neighbor_order: str = "csr",
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Phase 3b with array outputs, for any scoring configuration.

    Returns ``(pred_counts, pred_flat, score_counts, score_candidates,
    score_values)``, all aligned with ``targets``; each target's scores are
    laid out consecutively, candidates ascending.  The parallel executor
    and the incremental index assemble these rows without building
    per-vertex dicts.

    The targets run in the blocks of :func:`combine_and_rank` (at most
    :data:`BLOCK_PATHS` expanded paths each).  A stock combinator and
    aggregator run the vectorized block body; any other pair runs
    :func:`fold_paths` per block with the same ``neighbor_order``, so both
    branches fold in the same order.
    """
    return _rank_blocks(graph, gamma, kept, config,
                        np.asarray(targets, dtype=np.int64), neighbor_order)


def gas_sample_step_columnar(
    graph: DiGraph, config: SnapleConfig, active: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Phase 1 for the rows ``active`` under per-vertex RNG: arrays out.

    Draw-for-draw identical to the GAS sample step under per-vertex RNG
    (see :func:`sample_neighborhoods`).  Returns ``(counts, flat)``
    aligned with ``active``.
    """
    counts, flat, _ = sample_neighborhoods(graph, config, active,
                                           rng_mode="per_vertex")
    return counts, flat
