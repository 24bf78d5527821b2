"""Shared helpers for the benchmark harness.

Each benchmark regenerates one table or figure of the paper at a reduced but
non-trivial dataset scale, asserts the qualitative shape the paper reports,
and writes the rendered rows/series to ``benchmarks/results/`` so the numbers
can be copied into EXPERIMENTS.md and compared against the paper.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"

#: Dataset scale used by the benchmark harness.  Chosen so the whole harness
#: finishes in minutes on a laptop while keeping every dataset analog large
#: enough for the paper's qualitative shapes to be visible.
BENCH_SCALE = 0.5

#: Seed shared by all benchmarks (dataset generation + removal protocol).
BENCH_SEED = 42


def peak_rss_bytes() -> int:
    """High-water RSS of this process and its reaped children, in bytes.

    ``ru_maxrss`` is a lifetime high-water mark, so within one pytest
    process the numbers are only comparable *upward* — a benchmark that
    needs an isolated measurement must fork a fresh process (see
    ``python -m repro.graph.storage generate``, which prints exactly this
    value for its own run).  Including ``RUSAGE_CHILDREN`` matters because
    the parallel executor does its heavy lifting in worker processes.
    """
    import resource

    scale = 1024  # Linux reports KiB
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_rss, child_rss) * scale


@pytest.fixture(scope="session")
def bench_graph():
    """Session-cached factory for the benchmarks' power-law graphs.

    Every benchmark used to call ``powerlaw_cluster`` itself with its own
    copy of the parameters; this factory is the single place those graphs
    are built, and identical ``(num_vertices, m, p, seed)`` requests across
    benchmarks share one instance instead of regenerating it.
    """
    from repro.graph.generators import powerlaw_cluster

    cache: dict[tuple[int, int, float, int], object] = {}

    def _build(num_vertices: int, edges_per_vertex: int = 3,
               triangle_probability: float = 0.2, *,
               seed: int = BENCH_SEED):
        key = (num_vertices, edges_per_vertex, triangle_probability, seed)
        if key not in cache:
            cache[key] = powerlaw_cluster(
                num_vertices, edges_per_vertex, triangle_probability,
                seed=seed,
            )
        return cache[key]

    return _build


def pytest_collection_modifyitems(items) -> None:
    """Mark every benchmark test ``bench`` (registered in pyproject.toml)."""
    for item in items:
        item.add_marker(pytest.mark.bench)


@pytest.fixture(scope="session")
def results_dir() -> Path:
    """Directory where rendered tables/series are written."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def save_result(results_dir):
    """Callable that persists a rendered experiment to ``results/<name>.txt``."""

    def _save(name: str, rendered: str) -> Path:
        path = results_dir / f"{name}.txt"
        path.write_text(rendered + "\n", encoding="utf-8")
        return path

    return _save


@pytest.fixture(scope="session")
def save_json(results_dir):
    """Callable that persists a machine-readable payload to ``results/<name>.json``.

    This is how the repo records its perf trajectory: benchmarks write a
    JSON record (e.g. ``BENCH_checkpoint.json``) that later runs can diff
    against instead of eyeballing rendered tables.
    """

    def _save(name: str, payload) -> Path:
        path = results_dir / f"{name}.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
        return path

    return _save


def run_once(benchmark, func, *args, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark timing.

    The experiments are deterministic and expensive, so a single round is
    both sufficient and necessary to keep the harness fast.
    """
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)
