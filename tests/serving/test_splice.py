"""Splicing dirty rows equals rebuilding: Γ̂ and the kept rows.

The index keeps one whole-graph :class:`NeighborhoodCSR` and one
:class:`KeptNeighbors` and splices only the dirty rows into them per
update; these tests hold the spliced state to a one-shot build on the
final graph, byte for byte.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.digraph import DiGraph
from repro.graph.generators import powerlaw_cluster
from repro.runtime.state import sorted_distinct, splice_rows
from repro.serving import IncrementalIndex
from repro.snaple import kernel
from repro.snaple.config import SnapleConfig

UPDATES = 64


@pytest.fixture(scope="module")
def config() -> SnapleConfig:
    # Truncation and Γrnd sampling both fire, so rows change size.
    return SnapleConfig.paper_default(seed=4, k_local=4,
                                      truncation_threshold=6,
                                      sampler_name="rnd")


def _run_stream(config) -> tuple[IncrementalIndex, DiGraph]:
    """A 64-update stream: one growing edge, then additions and removals."""
    graph = powerlaw_cluster(120, 4, 0.5, seed=5)
    n = graph.num_vertices
    index = IncrementalIndex(graph, config)
    index.apply_edges([(3, n)])  # growth recomputes every key
    rng = np.random.default_rng(6)
    applied = 1
    while applied < UPDATES:
        u, v = (int(x) for x in rng.integers(n + 1, size=2))
        if applied % 8 == 7:
            src, dst = graph.edge_arrays()
            pick = int(rng.integers(src.size))
            applied += bool(index.apply_removals(
                [(int(src[pick]), int(dst[pick]))]).removed)
        elif u != v:
            applied += bool(index.apply_edges([(u, v)]).added)
        if applied == UPDATES // 2:
            index.compact()
    merged = index.graph
    src = [u for u, _ in merged.edges()]
    dst = [v for _, v in merged.edges()]
    return index, DiGraph(merged.num_vertices, src, dst)


def _assert_same_gamma(spliced: kernel.NeighborhoodCSR,
                       built: kernel.NeighborhoodCSR) -> None:
    assert spliced.num_vertices == built.num_vertices
    for name in ("indptr", "indices", "keys", "sizes"):
        left, right = getattr(spliced, name), getattr(built, name)
        assert left.dtype == right.dtype, name
        assert left.tobytes() == right.tobytes(), name


def test_spliced_gamma_equals_from_rows(config):
    index, final = _run_stream(config)
    n = final.num_vertices
    counts, flat = kernel.gas_sample_step_columnar(
        final, config, np.arange(n, dtype=np.int64))
    built = kernel.NeighborhoodCSR.from_rows(n, counts, flat)
    spliced = index._gamma
    _assert_same_gamma(spliced, built)
    cold = IncrementalIndex(final, config)
    for name in ("indptr", "ids", "sims"):
        assert (getattr(index._kept, name).tobytes()
                == getattr(cold._kept, name).tobytes()), name


def test_combine_on_a_target_subset_equals_full_graph_rows(config):
    index, final = _run_stream(config)
    gamma, kept = index._gamma, index._kept
    n = final.num_vertices
    empty_row = int(np.flatnonzero(np.diff(kept.indptr) == 0)[0])
    # Unsorted, with a duplicate, and one target whose kept row is empty.
    targets = np.array([17, 3, empty_row, 3, 41], dtype=np.int64)

    def per_target(result, count):
        pred_counts, pred_flat, score_counts, candidates, values = result
        pred_at = np.concatenate([[0], np.cumsum(pred_counts)])
        score_at = np.concatenate([[0], np.cumsum(score_counts)])
        return [(pred_flat[pred_at[i]:pred_at[i + 1]].tolist(),
                 candidates[score_at[i]:score_at[i + 1]].tolist(),
                 values[score_at[i]:score_at[i + 1]].tolist())
                for i in range(count)]

    full = per_target(kernel.combine_and_rank_columnar(
        final, gamma, kept, config, np.arange(n, dtype=np.int64)), n)
    subset = per_target(kernel.combine_and_rank_columnar(
        final, gamma, kept, config, targets), targets.size)
    assert subset == [full[u] for u in targets.tolist()]
    assert subset[2] == ([], [], [])


class TestSpliceRows:
    def test_replaces_rows_and_keeps_the_rest(self):
        indptr = np.array([0, 2, 3, 3, 5])
        payload = np.array([10, 11, 20, 40, 41])
        out_indptr, (out,) = splice_rows(
            indptr, (payload,), np.array([1, 2]), np.array([0, 3]),
            (np.array([30, 31, 32]),), 4)
        assert out_indptr.tolist() == [0, 2, 2, 5, 7]
        assert out.tolist() == [10, 11, 30, 31, 32, 40, 41]
        assert payload.tolist() == [10, 11, 20, 40, 41]  # input untouched

    def test_growth_appends_empty_rows(self):
        indptr = np.array([0, 1, 2])
        ids = np.array([1, 0])
        sims = np.array([0.5, 0.25])
        out_indptr, (out_ids, out_sims) = splice_rows(
            indptr, (ids, sims), np.array([3]), np.array([1]),
            (np.array([0]), np.array([1.0])), 5)
        assert out_indptr.tolist() == [0, 1, 2, 2, 3, 3]
        assert out_ids.tolist() == [1, 0, 0]
        assert out_sims.tolist() == [0.5, 0.25, 1.0]


_INT64 = np.iinfo(np.int64)


@pytest.mark.parametrize("values", [
    np.empty(0, dtype=np.int64),
    np.array([7], dtype=np.int64),
    np.full(5, 3, dtype=np.int64),
    np.array([-4, 2, -4, -1, 0, 2, -9], dtype=np.int64),
    np.array([_INT64.max, _INT64.min, 0, _INT64.max, _INT64.min, -1],
             dtype=np.int64),
    np.random.default_rng(0).integers(0, 50, 2_000, dtype=np.int64),
    np.arange(-3, 12, dtype=np.int64),
    np.arange(12, -3, -1, dtype=np.int64),
    np.array([5, -2, 5, 7, -2], dtype=np.int32),
    np.array([2**32 - 1, 0, 7, 2**32 - 1], dtype=np.uint32),
], ids=["empty", "one", "all-equal", "negative", "int64-extremes",
        "random", "ascending", "descending", "int32", "uint32"])
def test_sorted_distinct_equals_unique(values):
    before = values.copy()
    got = sorted_distinct(values)
    expected = np.unique(values)
    assert got.dtype == expected.dtype
    assert got.tolist() == expected.tolist()
    assert values.tolist() == before.tolist()  # input untouched
