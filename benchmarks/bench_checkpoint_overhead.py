"""Benchmark: checkpointing overhead and crash-recovery cost, recorded to JSON.

Runs one SNAPLE configuration on the ``gas`` backend (the only backend with
a ``workers=N`` path) with 2 worker processes three ways — no
checkpointing, checkpointing every superstep, and a run that loses a worker
mid-superstep and recovers from its checkpoints — verifies all three are
prediction-identical (a fault-tolerance layer that changed the answer would
be worse than useless), and writes the overhead split (checkpoint
seconds/bytes, recovery wall clock) to ``results/BENCH_checkpoint.json`` so
future sessions can diff the cost of durability.

Environment knobs for CI:

* ``SNAPLE_BENCH_ITERATIONS`` — timing iterations per configuration
  (default 3; CI smoke uses 1);
* ``SNAPLE_BENCH_VERTICES`` — graph size (default 1000).
"""

from __future__ import annotations

import os
import platform
import time

from repro.runtime.checkpoint import FaultSpec
from repro.snaple.config import SnapleConfig
from repro.snaple.predictor import SnapleLinkPredictor

from conftest import BENCH_SEED, peak_rss_bytes

WORKERS = 2


def _timed_predict(predictor, graph, iterations: int, backend: str, **options):
    """Best-of-``iterations`` wall clock plus the last run's report."""
    best = float("inf")
    report = None
    for _ in range(iterations):
        start = time.perf_counter()
        report = predictor.predict(graph, backend=backend, **options)
        best = min(best, time.perf_counter() - start)
    return best, report


def test_bench_checkpoint_overhead(save_json, save_result, tmp_path,
                                   bench_graph):
    iterations = int(os.environ.get("SNAPLE_BENCH_ITERATIONS", "3"))
    num_vertices = int(os.environ.get("SNAPLE_BENCH_VERTICES", "1000"))
    graph = bench_graph(num_vertices, 3, 0.2, seed=BENCH_SEED)
    config = SnapleConfig.paper_default(seed=BENCH_SEED, k_local=10)
    predictor = SnapleLinkPredictor(config)

    backend = "gas"
    plain_seconds, plain = _timed_predict(
        predictor, graph, iterations, backend=backend, workers=WORKERS
    )
    checkpoint_dir = tmp_path / f"ckpt-{backend}"
    checkpointed_seconds = float("inf")
    checkpointed = None
    for iteration in range(iterations):
        run_dir = checkpoint_dir / f"iter-{iteration}"
        start = time.perf_counter()
        checkpointed = predictor.predict(
            graph, backend=backend, workers=WORKERS,
            checkpoint_dir=run_dir,
        )
        checkpointed_seconds = min(checkpointed_seconds,
                                   time.perf_counter() - start)
    # Durability must never change the answer.
    assert checkpointed.predictions == plain.predictions
    assert checkpointed.extra["checkpoints_written"] > 0
    assert checkpointed.extra["checkpoint_bytes"] > 0

    # One crash mid-run: kill a worker at superstep 1, let the executor
    # respawn the pool and resume from the newest checkpoint.
    recovery_dir = checkpoint_dir / "recovery"
    token = checkpoint_dir / "fault-token"
    start = time.perf_counter()
    recovered = predictor.predict(
        graph, backend=backend, workers=WORKERS,
        checkpoint_dir=recovery_dir,
        fault=FaultSpec(superstep=1, partition=0, token_path=str(token)),
    )
    recovery_seconds = time.perf_counter() - start
    assert recovered.extra["worker_restarts"] == 1.0
    assert recovered.predictions == plain.predictions

    rows = [{
        "backend": backend,
        "plain_wall_clock_seconds": plain_seconds,
        "checkpointed_wall_clock_seconds": checkpointed_seconds,
        "checkpoint_seconds": checkpointed.extra["checkpoint_seconds"],
        "checkpoint_bytes": checkpointed.extra["checkpoint_bytes"],
        "checkpoints_written": checkpointed.extra["checkpoints_written"],
        "overhead_ratio": (checkpointed_seconds / plain_seconds
                           if plain_seconds else None),
        "crash_recovery_wall_clock_seconds": recovery_seconds,
        "recovery_vs_plain_ratio": (recovery_seconds / plain_seconds
                                    if plain_seconds else None),
    }]

    payload = {
        "benchmark": "checkpoint_overhead",
        "workers": WORKERS,
        "graph": {
            "generator": "powerlaw_cluster",
            "num_vertices": graph.num_vertices,
            "num_edges": graph.num_edges,
            "seed": BENCH_SEED,
        },
        "config": config.describe(),
        "iterations": iterations,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "rows": rows,
        "peak_rss_bytes": peak_rss_bytes(),
        "caveat": (
            "checkpoint cost is dominated by pickling the full state plane; "
            "on small graphs the fixed per-superstep cost overstates the "
            "relative overhead of production-sized runs"
        ),
    }
    path = save_json("BENCH_checkpoint", payload)
    assert path.exists()

    lines = [
        "Checkpoint overhead (2 workers, "
        f"{graph.num_vertices} vertices / {graph.num_edges} edges, "
        f"best of {iterations})",
    ]
    for row in rows:
        lines.append(
            f"  {row['backend']:4s} plain {row['plain_wall_clock_seconds'] * 1000:8.1f} ms"
            f" | checkpointed {row['checkpointed_wall_clock_seconds'] * 1000:8.1f} ms"
            f" (x{row['overhead_ratio']:.2f},"
            f" {row['checkpoint_bytes'] / 1024:.0f} KiB in"
            f" {int(row['checkpoints_written'])} snapshots)"
            f" | crash+recover {row['crash_recovery_wall_clock_seconds'] * 1000:8.1f} ms"
        )
    save_result("BENCH_checkpoint", "\n".join(lines))
