"""Shared fixtures for the SNAPLE reproduction test suite."""

from __future__ import annotations

import dataclasses
import os
from pathlib import Path

import pytest
from hypothesis import HealthCheck
from hypothesis import settings as hypothesis_settings

from repro.graph import generators
from repro.graph.builder import GraphBuilder
from repro.graph.digraph import DiGraph
from repro.runtime.parallel import FaultSpec
from repro.snaple.aggregators import SumAggregator
from repro.snaple.config import SnapleConfig

# Property-test settings are registered centrally: examples that spawn real
# worker processes are slow by nature, so the suite-wide profile disables
# the per-example deadline and the too_slow health check instead of every
# test file repeating them.  Select another profile (e.g. hypothesis's
# built-in "ci") with HYPOTHESIS_PROFILE=<name>; "thorough" runs 4x the
# examples, including in tests that size themselves through examples().
hypothesis_settings.register_profile(
    "snaple",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
hypothesis_settings.register_profile(
    "thorough",
    hypothesis_settings.get_profile("snaple"),
    max_examples=4 * hypothesis_settings.get_profile("snaple").max_examples,
)
hypothesis_settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "snaple"))


def examples(count: int) -> int:
    """``count`` Hypothesis examples, scaled like the loaded profile's
    ``max_examples`` (so ``thorough`` multiplies it by 4)."""
    default = hypothesis_settings.get_profile("snaple").max_examples
    return count * hypothesis_settings.default.max_examples // default


@pytest.fixture
def triangle_graph() -> DiGraph:
    """Directed triangle 0 -> 1 -> 2 -> 0."""
    return DiGraph(3, [0, 1, 2], [1, 2, 0])


@pytest.fixture
def paper_figure3_graph() -> DiGraph:
    """The example graph of Figure 3 in the paper.

    Vertices (first-seen interning order): a=0, b=1, c=2, d=3, h=4, e=5,
    f=6, g=7.
    Edges: a->{b, c, d, h}; b->{e, f}; c->{f, g}; d->{g}; h->{e, g}.
    The edge weights of the figure are raw similarities, reproduced in tests
    by monkeypatching the similarity lookup; the topology alone is enough for
    path-counting checks.
    """
    builder = GraphBuilder()
    edges = [
        ("a", "b"), ("a", "c"), ("a", "d"), ("a", "h"),
        ("b", "e"), ("b", "f"),
        ("c", "f"), ("c", "g"),
        ("d", "g"),
        ("h", "e"), ("h", "g"),
    ]
    builder.add_edges(edges)
    return builder.build()


@pytest.fixture
def small_social_graph() -> DiGraph:
    """A ~300-vertex clustered power-law graph used across integration tests."""
    return generators.powerlaw_cluster(300, 4, 0.5, seed=7)


@pytest.fixture
def medium_social_graph() -> DiGraph:
    """A ~800-vertex clustered graph for experiments needing more structure."""
    return generators.powerlaw_cluster(800, 4, 0.5, seed=11)


@pytest.fixture
def star_graph() -> DiGraph:
    """A hub (vertex 0) pointing at 10 leaves, each leaf pointing back."""
    sources = []
    targets = []
    for leaf in range(1, 11):
        sources += [0, leaf]
        targets += [leaf, 0]
    return DiGraph(11, sources, targets)


@pytest.fixture(scope="session")
def random_graph():
    """Session-cached factory for the seeded random graphs the suites share.

    Replaces the per-suite graph builders that used to live in tests/gas,
    tests/snaple and tests/runtime: the same ``(model,
    parameters, seed)`` tuple now builds one :class:`DiGraph` per session
    and hands the immutable instance to every caller.

    ``random_graph(n, edges_per_vertex, triangle_probability, seed=...)``
    builds a clustered power-law graph (the default model);
    ``random_graph(n, edge_probability=p, model="erdos_renyi", seed=...)``
    builds a G(n, p) graph.
    """
    cache: dict[tuple, DiGraph] = {}

    def make(num_vertices: int = 150, edges_per_vertex: int = 3,
             triangle_probability: float = 0.3, *, seed: int = 11,
             model: str = "powerlaw_cluster",
             edge_probability: float | None = None) -> DiGraph:
        key = (model, num_vertices, edges_per_vertex, triangle_probability,
               edge_probability, seed)
        if key not in cache:
            if model == "powerlaw_cluster":
                cache[key] = generators.powerlaw_cluster(
                    num_vertices, edges_per_vertex, triangle_probability,
                    seed=seed,
                )
            elif model == "erdos_renyi":
                if edge_probability is None:
                    raise ValueError(
                        "erdos_renyi graphs need edge_probability="
                    )
                cache[key] = generators.erdos_renyi(
                    num_vertices, edge_probability, seed=seed
                )
            else:
                raise ValueError(f"unknown random-graph model {model!r}")
        return cache[key]

    return make


# ----------------------------------------------------------------------
# The scalar reference every parallel grid compares against
# ----------------------------------------------------------------------
def half_jaccard(left, right):
    """A custom similarity outside the vectorized kernel's registry."""
    union = len(left | right)
    return 0.5 * len(left & right) / union if union else 0.0


def unsupported_kernel_config() -> SnapleConfig:
    """A configuration the vectorized kernel cannot run (custom callable)."""
    from repro.snaple.aggregators import get_aggregator
    from repro.snaple.combinators import get_combinator
    from repro.snaple.scoring import ScoreConfig

    custom = ScoreConfig(
        name="custom",
        similarity_name="jaccard",
        combinator=get_combinator("linear"),
        aggregator=get_aggregator("Sum"),
        similarity=half_jaccard,  # not the registry callable
    )
    return SnapleConfig(score=custom, k_local=8, seed=5)


class HalfWeightSumAggregator(SumAggregator):
    """A ``Sum`` subclass outside the kernel: later paths count half.

    Its ``pre`` is not commutative, so any change of fold order changes
    the scores.  Module level, so worker processes unpickle it by reference.
    """

    def pre(self, left: float, right: float) -> float:
        return left + 0.5 * right


def custom_aggregator_config() -> SnapleConfig:
    """Stock similarity and combinator, custom aggregator, truncating: the
    phase-3 fold runs the scalar ``fold_paths`` in GAS gather order."""
    from repro.snaple.combinators import get_combinator
    from repro.snaple.scoring import ScoreConfig

    custom = ScoreConfig(
        name="custom-aggregator",
        similarity_name="jaccard",
        combinator=get_combinator("linear"),
        aggregator=HalfWeightSumAggregator(),
    )
    return SnapleConfig(score=custom, k_local=6, truncation_threshold=5,
                        seed=9)


def truncating_config() -> SnapleConfig:
    """Truncation and klocal sampling both fire on the parity graph."""
    return SnapleConfig.paper_default(seed=9, k_local=6,
                                      truncation_threshold=5)


def scalar_reference(graph: DiGraph, config: SnapleConfig
                     ) -> tuple[dict[int, list[int]], dict[int, dict]]:
    """``(predictions, scores)`` of the serial scalar GAS engine.

    Serial :class:`~repro.gas.engine.GasEngine` over Algorithm 2's steps,
    with the per-vertex RNG streams ``workers=N`` uses — so every parallel
    run, on any worker count, transport or crash point, must equal it
    exactly.
    """
    from repro.gas.engine import GasEngine
    from repro.snaple.program import build_snaple_steps

    steps = build_snaple_steps(config, graph, per_vertex_rng=True)
    state = GasEngine(graph=graph).run(steps).vertex_data
    collected = steps[-1].collected_scores
    predictions = {u: list(state[u].get("predicted", []))
                   for u in graph.vertices()}
    scores = {u: dict(collected.get(u, {})) for u in graph.vertices()}
    return predictions, scores


def serial_program_reference(graph: DiGraph, config: SnapleConfig,
                             cluster=None, partitioner=None, *,
                             vertices=None):
    """``(predictions, scores, run)`` of Algorithm 2's GAS program.

    Serial :class:`~repro.gas.engine.GasEngine` over the vertex programs of
    :mod:`repro.snaple.program`, drawing from the sequential streams, on
    ``cluster`` (one type-II machine by default) placed by
    ``partitioner``: the independent oracle of the serial ``gas`` backend
    and of ``local``, which share the kernel.  ``run`` is the engine's
    :class:`~repro.gas.engine.GasRunResult` (metrics, partition).
    """
    from repro.gas.cluster import TYPE_II, cluster_of
    from repro.gas.engine import GasEngine
    from repro.snaple.program import build_snaple_steps

    engine = GasEngine(graph=graph,
                       cluster=cluster or cluster_of(TYPE_II, 1),
                       partitioner=partitioner, seed=config.seed)
    steps = build_snaple_steps(config, graph)
    run = engine.run(steps, vertices=vertices)
    targets = graph.vertices() if vertices is None else vertices
    collected = steps[-1].collected_scores
    predictions = {u: list(run.data_of(u).get("predicted", []))
                   for u in targets}
    scores = {u: dict(collected.get(u, {})) for u in targets}
    return predictions, scores, run


#: The configuration seeds every parallel grid crosses.  The seed picks the
#: per-vertex RNG streams (truncation, klocal sampling) and offsets the hash
#: placement of ``workers=N``, so the two seeds give different draws and a
#: different vertex-to-worker labelling; a run must equal the scalar
#: reference under its own seed.
SEEDS = (3, 8)

#: Parametrizes a test over :data:`SEEDS` as ``seed``.
over_seeds = pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")


def reseeded(config: SnapleConfig, seed: int) -> SnapleConfig:
    """``config`` with its seed replaced by ``seed``."""
    return dataclasses.replace(config, seed=seed)


@pytest.fixture(params=["in-ram", "container"])
def graph_source(request, tmp_path_factory):
    """Hand ``workers=N`` either the graph itself or the same graph loaded
    from a storage container: the two graph inputs of the segment plane.

    The fixture's value maps a graph to the form the test passes on.  An
    in-RAM graph is saved into the run directory by the coordinator; a
    container graph ships its own path, so its files must outlive the run.
    """
    from repro.graph.storage import load_graph_memmap, save_graph_memmap

    def source(graph: DiGraph) -> DiGraph:
        if request.param == "in-ram":
            return graph
        directory = tmp_path_factory.mktemp("container")
        return load_graph_memmap(save_graph_memmap(graph, directory / "g"))

    source.kind = request.param
    return source


def assert_matches_reference(report, reference) -> None:
    """A run's predictions and scores equal ``scalar_reference`` exactly."""
    predictions, scores = reference
    assert report.predictions == predictions
    assert dict(report.scores) == scores


class FaultInjector:
    """Drives deterministic worker crashes against the parallel stack.

    :meth:`kill_worker` returns a one-shot
    :class:`~repro.runtime.parallel.FaultSpec` that hard-kills the worker
    running partition N's task at superstep K (pass it as the ``fault=``
    option of a parallel backend/executor).
    """

    def __init__(self, tmp_path: Path) -> None:
        self._tmp_path = tmp_path
        self._tokens = 0

    def kill_worker(self, superstep: int, partition: int) -> FaultSpec:
        """A fault that kills ``partition``'s worker at ``superstep``, once."""
        self._tokens += 1
        token = self._tmp_path / f"fault-token-{self._tokens}"
        return FaultSpec(superstep=superstep, partition=partition,
                         token_path=str(token))


@pytest.fixture
def fault_injector(tmp_path: Path) -> FaultInjector:
    """Crash injection harness for fault-tolerance tests."""
    return FaultInjector(tmp_path)
