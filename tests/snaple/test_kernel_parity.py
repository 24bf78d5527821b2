"""Parity harness for the vectorized scoring kernel (`repro.snaple.kernel`).

The vectorized ``local`` mode must be indistinguishable from the scalar
reference across the whole scoring design space: every similarity in
``SIMILARITIES``, every Table 3 configuration, every sampling policy, with
and without probabilistic truncation, on full runs and vertex subsets.
Predictions are asserted exactly; scores are asserted exactly too (the
kernel preserves the reference float fold order), with ``REL_TOL`` as the
documented fallback for platforms whose ``pow`` is not correctly rounded.

``mode="reference"`` shares phase 1 (truncation) and the ``klocal``
selection with the vectorized mode, so those two are checked a second time
against Algorithm 2's GAS program on the serial engine
(``serial_program_reference``), whose vertex programs
(:mod:`tests.oracle.snaple_program`) truncate and select in their own code.
"""

from __future__ import annotations

import dataclasses
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.graph.generators import erdos_renyi, powerlaw_cluster
from repro.runtime import get_backend, parallel
from repro.runtime.shm import AttachmentCache
from repro.serving import IncrementalIndex
from repro.snaple import kernel
from repro.snaple.aggregators import get_aggregator
from repro.snaple.combinators import get_combinator
from repro.snaple.config import SnapleConfig
from repro.snaple.kernel import REL_TOL, LazyScores, kernel_supports
from repro.snaple.predictor import SnapleLinkPredictor
from repro.snaple.sampler import TopSimilaritySampler, get_sampler
from repro.snaple.scoring import PAPER_SCORES, ScoreConfig
from repro.snaple.similarity import SIMILARITIES
from tests.conftest import (
    custom_aggregator_config,
    examples,
    serial_program_reference,
    truncating_config,
)


def run_mode(graph, config, mode, vertices=None):
    backend = get_backend("local", mode=mode).prepare(graph, config)
    return backend.run(vertices=vertices)


def assert_parity(graph, config, vertices=None):
    reference = run_mode(graph, config, "reference", vertices)
    vectorized = run_mode(graph, config, "vectorized", vertices)
    assert vectorized.extra["kernel_vectorized"] == 1.0, \
        "configuration unexpectedly fell back to the scalar path"
    assert vectorized.predictions == reference.predictions
    assert_scores_match(vectorized.scores, reference.scores)


def assert_scores_match(left, right):
    assert len(left) == len(right)
    for u in right:
        left_u, right_u = left[u], right[u]
        assert left_u.keys() == right_u.keys()
        for z, expected in right_u.items():
            got = left_u[z]
            if got != expected:  # bit-exact on CI; REL_TOL covers odd libms
                assert got == pytest.approx(expected, rel=REL_TOL)


def score_for_similarity(similarity_name: str) -> ScoreConfig:
    return ScoreConfig(
        name=f"parity-{similarity_name}",
        similarity_name=similarity_name,
        combinator=get_combinator("linear"),
        aggregator=get_aggregator("Sum"),
    )


class TestKernelParityAcrossDesignSpace:
    @pytest.mark.parametrize("similarity_name", sorted(SIMILARITIES))
    def test_every_similarity(self, similarity_name, random_graph):
        graph = random_graph(150, 3, 0.3, seed=11)
        config = SnapleConfig(
            k=5,
            score=score_for_similarity(similarity_name),
            truncation_threshold=5,
            k_local=6,
            sampler=get_sampler("max"),
            seed=7,
        )
        assert kernel_supports(config)
        assert_parity(graph, config)

    @pytest.mark.parametrize("score_name", sorted(PAPER_SCORES))
    def test_every_paper_score(self, score_name, random_graph):
        graph = random_graph(150, 3, 0.3, seed=11)
        config = SnapleConfig(
            k=5,
            score=PAPER_SCORES[score_name],
            truncation_threshold=6,
            k_local=8,
            sampler=get_sampler("max"),
            seed=3,
        )
        assert_parity(graph, config)

    @pytest.mark.parametrize("sampler_name", ["max", "min", "rnd"])
    @pytest.mark.parametrize("threshold", [math.inf, 4])
    def test_samplers_and_truncation(self, sampler_name, threshold, random_graph):
        graph = random_graph(120, 3, 0.3, seed=5)
        config = SnapleConfig(
            k=4,
            score=PAPER_SCORES["linearSum"],
            truncation_threshold=threshold,
            k_local=5,
            sampler=get_sampler(sampler_name),
            seed=13,
        )
        assert_parity(graph, config)

    def test_unsampled_run(self, random_graph):
        graph = random_graph(90, model="erdos_renyi", edge_probability=0.08,
                             seed=2)
        config = SnapleConfig.paper_default(
            seed=1, k_local=math.inf, truncation_threshold=math.inf
        )
        assert_parity(graph, config)

    def test_vertex_subset_and_batching(self, random_graph):
        graph = random_graph(150, 3, 0.3, seed=11)
        config = SnapleConfig.paper_default(seed=3, k_local=10)
        subset = list(range(0, 150, 4))
        assert_parity(graph, config, vertices=subset)
        # Incremental runs over batches must agree with one full run.
        backend = get_backend("local", mode="vectorized").prepare(graph, config)
        full = backend.run()
        merged: dict[int, list[int]] = {}
        batch_backend = get_backend("local", mode="vectorized").prepare(graph, config)
        for start in range(0, 150, 37):
            batch = list(range(start, min(start + 37, 150)))
            merged.update(batch_backend.run(vertices=batch).predictions)
        assert merged == full.predictions

    @pytest.mark.slow
    def test_acceptance_1k_vertex_graph(self, random_graph):
        """Fixed-seed 1k-vertex case mirroring test_parallel_parity."""
        graph = random_graph(1000, 3, 0.2, seed=42)
        config = SnapleConfig.paper_default(seed=42, k_local=10)
        reference = run_mode(graph, config, "reference")
        vectorized = run_mode(graph, config, "vectorized")
        assert vectorized.predictions == reference.predictions
        assert_scores_match(vectorized.scores, reference.scores)
        assert vectorized.predictions  # non-degenerate
        assert any(vectorized.predictions.values())


#: (thrΓ, klocal) rows of the independent-oracle grid.
ORACLE_LIMITS = [(8, 5), (math.inf, math.inf), (12, 3)]

#: The two oracle graphs: clustered power-law and G(n, p).
ORACLE_GRAPHS = {
    "powerlaw": lambda build: build(120, 3, 0.3, seed=11),
    "erdos_renyi": lambda build: build(100, model="erdos_renyi",
                                       edge_probability=0.06, seed=2),
}


class TestIndependentOracle:
    """Vectorized ``local`` against Algorithm 2's GAS program.

    The oracle is ``serial_program_reference``: the serial engine running
    the vertex programs of :mod:`tests.oracle.snaple_program`, which
    truncate and select in their own code (the ``gas`` backend shares the
    kernel with ``local``, so it cannot serve).  Both draw truncation from one
    sequential stream seeded ``seed`` — the gather's Bernoulli tests first,
    then, under exact truncation, the reservoir sample — and the ``Γrnd``
    selection from one seeded ``seed + 1``, consumed in ascending vertex
    order, so predictions must match exactly.  The two fold the path
    contributions in different orders (selection order vs. CSR order), so
    scores match within ``REL_TOL``.
    """

    @staticmethod
    def check(graph, config):
        local = run_mode(graph, config, "vectorized")
        assert local.extra["kernel_vectorized"] == 1.0
        predictions, scores, _ = serial_program_reference(graph, config)
        assert local.predictions == predictions
        assert_scores_match(local.scores, scores)

    @pytest.mark.parametrize("graph_name", sorted(ORACLE_GRAPHS))
    @pytest.mark.parametrize("threshold,k_local", ORACLE_LIMITS,
                             ids=["thr8-klocal5", "unbounded", "thr12-klocal3"])
    @pytest.mark.parametrize("sampler_name", ["max", "min", "rnd"])
    @pytest.mark.parametrize("score_name", sorted(PAPER_SCORES))
    def test_vectorized_local_matches_serial_gas(self, score_name,
                                                 sampler_name, threshold,
                                                 k_local, graph_name,
                                                 random_graph):
        self.check(ORACLE_GRAPHS[graph_name](random_graph), SnapleConfig(
            k=5,
            score=PAPER_SCORES[score_name],
            truncation_threshold=threshold,
            k_local=k_local,
            sampler=get_sampler(sampler_name),
            seed=3,
        ))

    @pytest.mark.parametrize("graph_name", sorted(ORACLE_GRAPHS))
    @pytest.mark.parametrize("threshold,k_local", ORACLE_LIMITS,
                             ids=["thr8-klocal5", "unbounded", "thr12-klocal3"])
    @pytest.mark.parametrize("sampler_name", ["max", "min", "rnd"])
    @pytest.mark.parametrize("score_name", sorted(PAPER_SCORES))
    def test_exact_truncation_matches_serial_gas(self, score_name,
                                                 sampler_name, threshold,
                                                 k_local, graph_name,
                                                 random_graph):
        """Exact truncation: the gather's Bernoulli draws come first."""
        self.check(ORACLE_GRAPHS[graph_name](random_graph), SnapleConfig(
            k=5,
            score=PAPER_SCORES[score_name],
            truncation_threshold=threshold,
            k_local=k_local,
            sampler=get_sampler(sampler_name),
            exact_truncation=True,
            seed=3,
        ))

    def test_exact_truncation_agrees_on_a_truncating_graph(self):
        """Exact truncation on a graph where most vertices truncate."""
        graph = powerlaw_cluster(300, 4, 0.3, seed=5)
        config = dataclasses.replace(
            SnapleConfig.paper_default(seed=3, k_local=6,
                                       truncation_threshold=5),
            exact_truncation=True)
        predictions, scores, _ = serial_program_reference(graph, config)
        for mode in ("vectorized", "reference"):
            local = run_mode(graph, config, mode)
            assert local.predictions == predictions
            assert_scores_match(local.scores, scores)


class TestReferenceModeIsScalar:
    def test_reference_mode_never_runs_the_array_branches(self, random_graph,
                                                          monkeypatch):
        graph = random_graph(150, 3, 0.3, seed=11)
        config = SnapleConfig.paper_default(seed=3, k_local=6)
        expected = run_mode(graph, config, "vectorized")

        def forbidden(*args, **kwargs):
            raise AssertionError("reference mode ran a vectorized branch")

        monkeypatch.setattr(kernel, "_vectorized_edge_values", forbidden)
        monkeypatch.setattr(kernel, "_combine_core", forbidden)
        reference = run_mode(graph, config, "reference")
        assert reference.extra["kernel_vectorized"] == 0.0
        assert reference.predictions == expected.predictions
        assert_scores_match(expected.scores, reference.scores)


class RecordingSampler(TopSimilaritySampler):
    """``Γmax`` behind a type outside the kernel's sampler registry."""

    def __init__(self) -> None:
        self.rows: list[dict[int, float]] = []

    def select(self, similarities, k_local, *, rng):
        self.rows.append(dict(similarities))
        return super().select(similarities, k_local, rng=rng)


class TestCustomSampler:
    def test_select_sees_every_row_in_vertex_order(self, random_graph):
        graph = random_graph(80, 3, 0.3, seed=4)
        sampler = RecordingSampler()
        config = SnapleConfig(k=4, k_local=3, sampler=sampler, seed=2)
        assert not kernel_supports(config)
        gamma = kernel.build_truncated_neighborhoods(graph, config)
        edges = kernel.edge_similarities(graph, gamma, config)
        kept = kernel.select_klocal(edges, config)
        assert [list(row) for row in sampler.rows] == [
            sorted(set(graph.out_neighbors(u).tolist()))
            for u in graph.vertices()
        ]
        stock = SnapleConfig(k=4, k_local=3, sampler=get_sampler("max"),
                             seed=2)
        expected = kernel.select_klocal(edges, stock)
        assert kept.indptr.tolist() == expected.indptr.tolist()
        assert kept.ids.tolist() == expected.ids.tolist()
        assert kept.sims.tolist() == expected.sims.tolist()


#: Above any test graph's path count: phase 3b runs as one block.
ONE_BLOCK = 1 << 40

BLOCK_CONFIGS = {
    "paper_default": lambda: SnapleConfig.paper_default(seed=3),
    "truncating": truncating_config,
    "custom_aggregator": custom_aggregator_config,
}


def phase_3b_inputs(graph, config):
    gamma = kernel.build_truncated_neighborhoods(graph, config)
    edges = kernel.edge_similarities(graph, gamma, config)
    return gamma, kernel.select_klocal(edges, config)


class TestBlockInvariance:
    """Phase 3b cut into blocks of a few paths (or of one target each,
    most of them over the bound) gives the one-block answers bit for bit,
    through both entry points, in both fold orders."""

    TARGETS = {
        "all": lambda n: list(range(n)),
        "subset": lambda n: [97, 3, 40, 3, 0, n - 1, 12, 64],
        "empty": lambda n: [],
    }

    @staticmethod
    def run_both(graph, config, targets, neighbor_order):
        gamma, kept = phase_3b_inputs(graph, config)
        predictions, scores = kernel.combine_and_rank(
            graph, gamma, kept, config, targets,
            neighbor_order=neighbor_order)
        rows = kernel.combine_and_rank_columnar(
            graph, gamma, kept, config, np.asarray(targets, dtype=np.int64),
            neighbor_order=neighbor_order)
        return (list(predictions.items()),
                [(u, list(row.items())) for u, row in scores.items()],
                [column.tolist() for column in rows])

    @pytest.mark.parametrize("config_name", sorted(BLOCK_CONFIGS))
    @pytest.mark.parametrize("targets", sorted(TARGETS))
    @pytest.mark.parametrize("neighbor_order", ["sampler", "csr"])
    @pytest.mark.parametrize("block_paths", [1, 40, kernel.BLOCK_PATHS])
    def test_blocks_change_no_answer(self, block_paths, neighbor_order,
                                     targets, config_name, random_graph,
                                     monkeypatch):
        graph = random_graph(120, 3, 0.3, seed=7)
        config = BLOCK_CONFIGS[config_name]()
        target_list = self.TARGETS[targets](graph.num_vertices)
        monkeypatch.setattr(kernel, "BLOCK_PATHS", ONE_BLOCK)
        expected = self.run_both(graph, config, target_list, neighbor_order)
        monkeypatch.setattr(kernel, "BLOCK_PATHS", block_paths)
        assert self.run_both(graph, config, target_list,
                             neighbor_order) == expected

    @pytest.mark.parametrize("config_name", sorted(BLOCK_CONFIGS))
    @pytest.mark.parametrize("block_paths", [1, 40])
    def test_blocks_are_the_longest_runs_under_the_bound(
            self, block_paths, config_name, random_graph, monkeypatch):
        """Each block takes targets in order while their fan-outs (the
        paths a target expands, counted here from the graph) fit the
        bound; a target over the bound is a block of its own."""
        graph = random_graph(120, 3, 0.3, seed=7)
        config = BLOCK_CONFIGS[config_name]()
        gamma, kept = phase_3b_inputs(graph, config)
        sizes = np.diff(kept.indptr)

        def fanout(u):
            row = set(kept.ids[kept.indptr[u]:kept.indptr[u + 1]].tolist())
            return sum(int(sizes[v]) for v in graph.out_neighbors(u).tolist()
                       if v in row)

        targets = list(range(graph.num_vertices)) + [97, 3, 3]
        blocks = []
        monkeypatch.setattr(kernel, "BLOCK_PATHS", block_paths)
        kernel.combine_and_rank(
            graph, gamma, kept, config, targets, neighbor_order="csr",
            on_trace=lambda block, trace: blocks.append(block.tolist()))
        assert sum(blocks, []) == targets
        assert len(blocks) > 1
        for block, after in zip(blocks, blocks[1:] + [None]):
            paths = sum(fanout(u) for u in block)
            assert len(block) == 1 or paths <= block_paths
            if after is not None:
                assert paths + fanout(after[0]) > block_paths


#: Each per-block membership structure and the block size that forces it
#: on a graph over 512 vertices: one block over everything always holds its
#: ``len(rows) × |V|`` bitmap; blocks of one path (or one vertex pair) never
#: can, so they binary-search.
BRANCHES = {"bitmap": ONE_BLOCK, "search": 1}


def branch_inputs():
    """A graph over 512 vertices (see :data:`BRANCHES`), and a configuration
    whose truncation makes Γ̂ differ from the adjacency."""
    return (powerlaw_cluster(600, 3, 0.4, seed=5),
            SnapleConfig.paper_default(seed=3, k_local=5,
                                       truncation_threshold=8))


def answers_of(report):
    return report.predictions, dict(report.scores)


def serving_answers(graph, config):
    """The answers of a serving stream: one growing edge, additions and a
    few removals, with a compaction halfway."""
    index = IncrementalIndex(graph, config)
    n = graph.num_vertices
    index.apply_edges([(3, n)])
    rng = np.random.default_rng(6)
    src, dst = graph.edge_arrays()
    for step in range(24):
        if step == 12:
            index.compact()
        if step % 6 == 5:
            pick = int(rng.integers(src.size))
            index.apply_removals([(int(src[pick]), int(dst[pick]))])
        else:
            u, v = (int(x) for x in rng.integers(n, size=2))
            index.apply_edges([(u, v)])
    return index.all_predictions(), index.scores_view().materialize()


class TestMembershipBranches:
    """Every caller of phases 2 and 3b gives its default answers with each
    per-block membership structure forced through ``BLOCK_PATHS``."""

    @staticmethod
    def run_caller(caller, graph, config):
        if caller == "serving":
            return serving_answers(graph, config)
        if caller == "local":
            return answers_of(run_mode(graph, config, "vectorized"))
        if caller == "gas":
            return answers_of(get_backend("gas").prepare(graph, config).run())
        with SnapleLinkPredictor(config) as predictor:
            return answers_of(predictor.predict(graph, backend="gas",
                                                workers=2))

    @staticmethod
    def run_tasks_here(monkeypatch):
        """Run ``workers=N`` phase tasks in this process, so that the
        patched block size and the spies reach their kernel calls."""
        cache = AttachmentCache()
        monkeypatch.setattr("repro.runtime.shm._worker_cache", cache)

        def run_here(executor, pool, fn, tasks):
            monkeypatch.setattr(parallel, "_WORKER_GRAPH", executor._graph)
            monkeypatch.setattr(parallel, "_WORKER_CONFIG", executor._config)
            results = [fn(task) for task in tasks]
            cache.retain(set())  # the results are copies, not views
            return results

        monkeypatch.setattr(parallel.ParallelExecutor, "_map", run_here)

    @pytest.mark.parametrize("branch", sorted(BRANCHES))
    @pytest.mark.parametrize("rows", [[5, 6, 7], [0], [9, 2, 9, 40]],
                             ids=["run", "one", "scattered"])
    def test_members_is_set_membership(self, rows, branch, monkeypatch):
        """Every ``(rank, z)`` probe of a block's rows — a run of ids, or
        ids in any order with repeats — on either branch."""
        graph, config = branch_inputs()
        gamma = kernel.build_truncated_neighborhoods(graph, config)
        n = graph.num_vertices
        rows = np.array(rows, dtype=np.int64)
        rank = np.repeat(np.arange(rows.size), n)
        z = np.tile(np.arange(n), rows.size)
        monkeypatch.setattr(kernel, "BLOCK_PATHS", BRANCHES[branch])
        found = kernel._members(gamma, rows, rank * n + z)
        sets = [set(gamma.row(u).tolist()) for u in rows.tolist()]
        assert found.tolist() == [value in sets[r]
                                  for r, value in zip(rank.tolist(),
                                                      z.tolist())]

    @pytest.mark.parametrize("caller", ["local", "gas", "workers=2",
                                        "serving"])
    def test_each_branch_gives_the_default_answers(self, caller,
                                                   monkeypatch):
        graph, config = branch_inputs()
        expected = self.run_caller(caller, graph, config)
        if caller == "workers=2":
            self.run_tasks_here(monkeypatch)
        calls = {"probes": 0, "bitmaps": 0}

        def counting(name, function):
            def wrapper(*args):
                calls[name] += 1
                return function(*args)
            return wrapper

        monkeypatch.setattr(kernel, "_members",
                            counting("probes", kernel._members))
        monkeypatch.setattr(kernel, "_byte_masks",
                            counting("bitmaps", kernel._byte_masks))
        for branch, block_paths in BRANCHES.items():
            calls.update(probes=0, bitmaps=0)
            monkeypatch.setattr(kernel, "BLOCK_PATHS", block_paths)
            assert self.run_caller(caller, graph, config) == expected, branch
            assert calls["probes"] > 0
            assert calls["bitmaps"] == (calls["probes"]
                                        if branch == "bitmap" else 0)


class TestBlockMemory:
    def test_blocks_bound_the_phase_3b_peak(self, monkeypatch):
        """Blocks of 4,096 paths at most halve the one-block peak of
        ``combine_and_rank`` over every target (the score rows, which
        every block keeps, are most of what remains)."""
        graph = powerlaw_cluster(4000, 5, 0.5, seed=1)
        config = SnapleConfig.paper_default()
        gamma, kept = phase_3b_inputs(graph, config)
        targets = list(graph.vertices())

        def peak(block_paths):
            monkeypatch.setattr(kernel, "BLOCK_PATHS", block_paths)
            tracemalloc.start()
            try:
                kernel.combine_and_rank(graph, gamma, kept, config, targets,
                                        materialize_scores=False)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(1 << 12) <= peak(ONE_BLOCK) / 2

    def test_blocks_bound_the_phase_2_peak(self, monkeypatch):
        """Blocks of 4,096 probes at most halve the one-block peak of
        ``edge_similarities`` (its output and the per-edge arrays it
        deduplicates into vertex pairs are most of what remains)."""
        graph = powerlaw_cluster(4000, 5, 0.5, seed=1)
        config = SnapleConfig.paper_default()
        gamma = kernel.build_truncated_neighborhoods(graph, config)

        def peak(block_paths):
            monkeypatch.setattr(kernel, "BLOCK_PATHS", block_paths)
            tracemalloc.start()
            try:
                kernel.edge_similarities(graph, gamma, config)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(1 << 12) <= peak(ONE_BLOCK) / 2


class TestEdgeSimilarityRows:
    def test_repeated_rows_count_once(self, random_graph):
        graph = random_graph(60, 3, 0.3, seed=2)
        config = SnapleConfig.paper_default(seed=2)
        gamma = kernel.build_truncated_neighborhoods(graph, config)
        once = kernel.edge_similarities(graph, gamma, config,
                                        rows=np.array([3, 9]))
        repeated = kernel.edge_similarities(graph, gamma, config,
                                            rows=np.array([9, 3, 3, 9]))
        for name in ("indptr", "neighbor", "path_sim", "selection_sim"):
            assert (getattr(repeated, name).tolist()
                    == getattr(once, name).tolist()), name


class TestPhase2Property:
    @settings(max_examples=examples(25), deadline=None)
    @given(
        num_vertices=st.integers(min_value=2, max_value=60),
        edge_probability=st.floats(min_value=0.02, max_value=0.4),
        graph_seed=st.integers(min_value=0, max_value=2**20),
        threshold=st.sampled_from([math.inf, 2, 5]),
        block_paths=st.sampled_from([1, 16, kernel.BLOCK_PATHS]),
    )
    def test_intersections_are_set_intersections(
            self, num_vertices, edge_probability, graph_seed, threshold,
            block_paths):
        """Phase 2's intersection count of every edge ``u -> v`` (the
        common-neighbors similarity) is ``|Γ̂(u) ∩ Γ̂(v)|``, whatever the
        blocks and whichever membership structure each block holds."""
        graph = erdos_renyi(num_vertices, edge_probability, seed=graph_seed)
        config = SnapleConfig(
            score=score_for_similarity("common_neighbors"),
            truncation_threshold=threshold, seed=graph_seed % 101)
        gamma = kernel.build_truncated_neighborhoods(graph, config)
        with mock.patch.object(kernel, "BLOCK_PATHS", block_paths):
            edges = kernel.edge_similarities(graph, gamma, config)
        rows = [set(gamma.row(u).tolist()) for u in graph.vertices()]
        for u in graph.vertices():
            start, end = edges.indptr[u], edges.indptr[u + 1]
            for v, inter in zip(edges.neighbor[start:end].tolist(),
                                edges.path_sim[start:end].tolist()):
                assert inter == len(rows[u] & rows[v])


class TestKernelParityProperty:
    @settings(max_examples=examples(25), deadline=None)
    @given(
        num_vertices=st.integers(min_value=5, max_value=60),
        edge_probability=st.floats(min_value=0.02, max_value=0.3),
        graph_seed=st.integers(min_value=0, max_value=2**20),
        similarity_name=st.sampled_from(sorted(SIMILARITIES)),
        threshold=st.sampled_from([math.inf, 2, 3, 5]),
        k_local=st.sampled_from([math.inf, 2, 4]),
        sampler_name=st.sampled_from(["max", "min", "rnd"]),
        block_paths=st.sampled_from([1, 16, kernel.BLOCK_PATHS]),
    )
    def test_random_graphs_random_configs(self, num_vertices, edge_probability,
                                          graph_seed, similarity_name,
                                          threshold, k_local, sampler_name,
                                          block_paths):
        graph = erdos_renyi(num_vertices, edge_probability, seed=graph_seed)
        config = SnapleConfig(
            k=3,
            score=score_for_similarity(similarity_name),
            truncation_threshold=threshold,
            k_local=k_local,
            sampler=get_sampler(sampler_name),
            seed=graph_seed % 101,
        )
        reference = run_mode(graph, config, "reference")
        with mock.patch.object(kernel, "BLOCK_PATHS", block_paths):
            vectorized = run_mode(graph, config, "vectorized")
        assert vectorized.predictions == reference.predictions
        assert_scores_match(vectorized.scores, reference.scores)


class TestModeSelection:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="mode"):
            get_backend("local", mode="turbo")

    def test_mode_advertised_in_capabilities(self):
        capabilities = get_backend("local").capabilities()
        assert "mode" in capabilities.options

    def test_unsupported_config_falls_back_to_reference(self, random_graph):
        graph = random_graph(40, model="erdos_renyi", edge_probability=0.1,
                             seed=1)
        custom = ScoreConfig(
            name="custom",
            similarity_name="jaccard",
            combinator=get_combinator("linear"),
            aggregator=get_aggregator("Sum"),
            similarity=lambda a, b: 1.0,  # not the registry callable
        )
        config = SnapleConfig(score=custom)
        assert not kernel_supports(config)
        report = get_backend("local", mode="vectorized").prepare(graph, config).run()
        assert report.extra["kernel_vectorized"] == 0.0
        assert report.predictions


class TestLazyScores:
    @pytest.fixture
    def reports(self, random_graph):
        graph = random_graph(80, 3, 0.3, seed=4)
        config = SnapleConfig.paper_default(seed=4, k_local=6)
        return (run_mode(graph, config, "vectorized"),
                run_mode(graph, config, "reference"))

    def test_scores_are_lazy_but_equal_both_ways(self, reports):
        vectorized, reference = reports
        assert isinstance(vectorized.scores, LazyScores)
        assert vectorized.scores == reference.scores
        assert reference.scores == vectorized.scores

    def test_mapping_protocol(self, reports):
        vectorized, reference = reports
        scores = vectorized.scores
        assert len(scores) == len(reference.scores)
        assert list(scores) == list(reference.scores)
        assert set(scores.keys()) == set(reference.scores.keys())
        assert 0 in scores
        assert scores.get(10**9) is None
        with pytest.raises(KeyError):
            scores[10**9]
        assert dict(scores) == reference.scores
        assert scores.materialize() == reference.scores

    def test_two_views_compare_row_by_row(self, random_graph):
        graph = random_graph(80, 3, 0.3, seed=4)
        left, right, other = (
            run_mode(graph, SnapleConfig.paper_default(seed=4, k_local=k),
                     "vectorized").scores for k in (6, 6, 3))
        with mock.patch.object(LazyScores, "materialize",
                               side_effect=AssertionError("materialized")):
            assert left == right
            assert left != other

    def test_length_mismatch_not_equal(self, reports):
        vectorized, reference = reports
        smaller = dict(reference.scores)
        smaller.popitem()
        assert vectorized.scores != smaller

    def test_a_dropped_read_leaves_only_the_arrays(self):
        """Once the caller drops ``dict(report.scores)``, the report keeps
        at most a tenth of its score arrays' bytes more than before the
        read: the view caches no row."""
        graph = powerlaw_cluster(4000, 5, 0.5, seed=1)
        report = run_mode(graph, SnapleConfig.paper_default(), "vectorized")
        scores = report.scores
        arrays = scores._candidates.nbytes + scores._values.nbytes
        tracemalloc.start()
        try:
            dict(scores)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept <= arrays / 10
