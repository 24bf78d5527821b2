"""BASELINE: a direct implementation of 2-hop link prediction on GAS.

Section 5.3 of the paper compares SNAPLE against a "direct" GAS
implementation of Algorithm 1 restricted to 2-hop neighborhoods: every vertex
must know the neighborhoods of its neighbors' neighbors to compute Jaccard
similarities with them, which in the GAS model forces each vertex to
propagate its full neighborhood list to its neighbors and then forward those
lists one hop further.  The redundant data transfer and storage makes this
approach collapse on large graphs ("fails due to resource exhaustion").

The naive program runs two supersteps:

1. ``propagate-neighborhoods`` — every vertex gathers ``{v: Γ(v)}`` from
   each out-neighbour ``v`` and stores the map beside its own ``Γ(u)``: the
   gathered payload is a whole adjacency list, and ``Du`` grows with
   ``Σ_v |Γ(v)|``;
2. ``direct-2hop-scoring`` — every target gathers its neighbours' maps,
   scores each 2-hop candidate ``z ∉ Γ(u) ∪ {u}`` by ``jaccard(Γ(u), Γ(z))``
   and keeps the top-``k``.

:func:`run_baseline` computes the answers from the CSR and charges the two
supersteps from array lengths and the vertex-cut, as that program charges
them edge by edge (``deg`` counts duplicate edges, ``set Γ`` drops them;
an id or a list entry is 8 bytes, a ``Du`` key its length):

* step 1, every vertex: ``1 + deg(v)`` compute units per out-edge
  ``(u, v)`` on its machine; a partial entry of ``8 + 8·deg(v)`` bytes per
  distinct (``u``, remote mirror, ``v``); after apply ``|Du| = 12 +
  Σ_{v ∈ set Γ(u)} (8 + 8·deg(v)) + 5 + 8·deg(u)``;
* step 2, targets in order: ``1 + Σ_{w ∈ set Γ(v)} deg(w)`` units per
  out-edge; a partial entry of ``8 + 8·deg(w)`` bytes per distinct (row,
  remote mirror, ``w``) for ``w ∈ set Γ(v)`` over the row's edges on that
  mirror, ``u`` and ``Γ(u)`` included; ``|Du|`` grows by ``9 +
  8·|predicted(u)|``.

A partial is charged to both the mirror and the master; replica sync,
memory and :class:`~repro.errors.ResourceExhaustedError` work as for SNAPLE
(:func:`~repro.snaple.accounting.charge_supersteps`).  The ``gas_baseline``
engine (:class:`~repro.runtime.baselines.GasBaselineBackend`) runs it.
"""

from __future__ import annotations

import numpy as np

from repro.gas.cluster import ClusterConfig
from repro.gas.metrics import RunMetrics
from repro.graph.digraph import DiGraph
from repro.runtime.partition import GraphPartition
from repro.runtime.state import gather_slices, indptr_from_counts
from repro.snaple.accounting import (
    ID_BYTES,
    Placement,
    charge_supersteps,
    sorted_distinct,
)
from repro.snaple.kernel import (
    LazyScores,
    NeighborhoodCSR,
    _answers,
    _block_bounds,
    _join_blocks,
    _members,
    _pairwise_intersections,
    _top_k_rounds,
)

__all__ = ["STEP_NAMES", "run_baseline"]

#: Names of the BASELINE's supersteps.
STEP_NAMES = ("propagate-neighborhoods", "direct-2hop-scoring")


def _row_sums(gamma: NeighborhoodCSR, values: np.ndarray) -> np.ndarray:
    """``Σ_{v ∈ Γ(u)} values[v]`` per vertex ``u``, in exact integers."""
    ends = np.zeros(gamma.indices.size + 1, dtype=np.int64)
    np.cumsum(values[gamma.indices], out=ends[1:])
    return np.diff(ends[gamma.indptr])


def run_baseline(graph: DiGraph, cluster: ClusterConfig,
                 partition: GraphPartition, targets: list[int], k: int, *,
                 enforce_memory: bool
                 ) -> tuple[dict[int, list[int]], LazyScores, RunMetrics]:
    """``(predictions, scores, metrics)`` of the BASELINE for ``targets``.

    Step 1 covers every vertex; step 2 runs over ``targets`` in order (a
    repeated target runs again).  Targets run in blocks of at most
    :data:`~repro.snaple.kernel.BLOCK_PATHS` 2-hop paths.  Predictions rank
    by ``(-score, id)``.  With ``enforce_memory`` a machine over its
    capacity raises :class:`~repro.errors.ResourceExhaustedError`.
    """
    n = graph.num_vertices
    indices = graph.csr_out_adjacency()[1]
    placement = Placement(graph, partition)
    machine = placement.edge_machine
    deg = placement.degrees
    gamma = NeighborhoodCSR.from_rows(n, deg, indices)
    # A gathered neighbour: its id and its adjacency list, duplicates kept.
    item_bytes = ID_BYTES + ID_BYTES * deg
    propagated = (len("neighborhood") + _row_sums(gamma, item_bytes)
                  + len("gamma") + ID_BYTES * deg)
    first = (STEP_NAMES[0], np.arange(n, dtype=np.int64),
             placement.bincount(machine, weights=1 + deg[indices]),
             placement.distinct_partial_bytes(
                 placement.edge_source * n + indices, machine, item_bytes),
             np.zeros(n, dtype=np.int64), propagated)
    if enforce_memory:
        # An overflow in step 1 raises before any 2-hop work, as it does
        # in the program.
        charge_supersteps(cluster, partition, placement, [first],
                          enforce_memory=True)

    targets = np.asarray(targets, dtype=np.int64)
    edges = placement.edges_of(targets)
    via = indices[edges]
    fanout = gamma.sizes[via]
    rank = np.repeat(np.arange(targets.size, dtype=np.int64), deg[targets])
    path_ends = np.cumsum(np.bincount(rank, weights=fanout,
                                      minlength=targets.size)).astype(np.int64)
    edge_ends = np.cumsum(deg[targets])
    network = np.zeros(placement.num_machines, dtype=np.int64)
    blocks = []
    for start, stop in _block_bounds(path_ends):
        low = int(edge_ends[start - 1]) if start else 0
        high = int(edge_ends[stop - 1])
        block = targets[start:stop]
        block_fanout = fanout[low:high]
        key = np.repeat(rank[low:high] - start, block_fanout) * n
        key += gamma.indices[gather_slices(gamma.indptr[via[low:high]],
                                           block_fanout)]
        network += placement.distinct_partial_bytes(
            key, np.repeat(machine[edges[low:high]], block_fanout),
            item_bytes, vertex_of=block)
        key = sorted_distinct(key)
        row = key // n
        candidate = key % n
        keep = (candidate != block[row]) & ~_members(gamma, block, key)
        row, candidate = row[keep], candidate[keep]
        source = block[row]
        inter = _pairwise_intersections(gamma, source, candidate)
        score = inter / (gamma.sizes[source] + gamma.sizes[candidate] - inter)
        score_counts = np.bincount(row, minlength=block.size)
        nonempty = np.flatnonzero(score_counts)
        picks, picked = _top_k_rounds(
            score, candidate, indptr_from_counts(score_counts)[nonempty],
            score_counts[nonempty], k)
        pick_counts = np.zeros(block.size, dtype=np.int64)
        pick_counts[nonempty] = picks
        blocks.append((pick_counts, picked, score_counts, candidate, score))
    pick_counts, *rows = _join_blocks(blocks)
    predictions, scores = _answers(targets, pick_counts, *rows)
    scored = propagated.copy()
    # A repeated target is written once: it predicts the same list again.
    scored[targets] += len("predicted") + ID_BYTES * pick_counts
    second = (STEP_NAMES[1], targets,
              placement.bincount(machine[edges],
                                 weights=1 + _row_sums(gamma, deg)[via]),
              network, propagated, scored)
    return predictions, scores, charge_supersteps(
        cluster, partition, placement, [first, second],
        enforce_memory=enforce_memory)
