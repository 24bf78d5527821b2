"""Out-of-core execution: peak RSS stays bounded while the graph grows.

The claim under test is the tentpole of the memmap tier
(:mod:`repro.graph.storage`, hosted for workers by
:mod:`repro.runtime.shm`): because the CSR arrays live in file-backed
``MAP_SHARED`` pages — reclaimable page cache, not anonymous memory —
building and loading a graph 1000x larger only costs a bounded amount of
resident memory, and predictions computed over the memmap tier are
bit-identical to the in-RAM ones.

Two legs:

* **RSS scaling** — generate 10k / 100k / 10M-edge power-law graphs via
  ``python -m repro.graph.storage generate`` in *fresh subprocesses*
  (``ru_maxrss`` is a lifetime high-water mark, so each scale must be
  measured in isolation) and gate that peak RSS grows by less than 2x
  while the edge count grows 100x (100k → 10M).
* **parity** — one small graph scored with ``workers=2`` as an in-RAM
  graph and as ``DiGraph.load_memmap`` of the same graph must produce
  identical predictions and scores.

Writes ``results/BENCH_ooc.json``.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import BENCH_SEED, peak_rss_bytes

pytestmark = pytest.mark.slow

#: Edge scales for the RSS-bounding gate: 10k → 100k → 10M (1000x overall,
#: 100x across the gated pair).
EDGE_SCALES = (10_000, 100_000, 10_000_000)

#: Vertices per scale — enough for a non-degenerate degree distribution
#: while keeping the O(V) generator tables small at every scale.
VERTICES_PER_SCALE = {10_000: 2_000, 100_000: 20_000, 10_000_000: 500_000}

#: Zipf exponent for the endpoint distribution.  Exponents >= 1 put a
#: *constant fraction* of all endpoints on the top vertex, so the max row
#: — and with it the builder's documented O(chunk + max degree) sort
#: scratch — grows linearly with |E|; that measures row skew, not the
#: storage tier.  0.8 keeps a heavy tail with sublinearly growing rows.
EXPONENT = 0.8


def _generate_in_subprocess(path: Path, vertices: int, edges: int) -> dict:
    """Build one container in a fresh process and return its stats JSON."""
    result = subprocess.run(
        [sys.executable, "-m", "repro.graph.storage", "generate",
         str(path), "--vertices", str(vertices), "--edges", str(edges),
         "--seed", str(BENCH_SEED), "--exponent", str(EXPONENT)],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")},
    )
    return json.loads(result.stdout)


def test_bench_out_of_core(save_json, save_result, tmp_path, bench_graph):
    rows = []
    for edges in EDGE_SCALES:
        vertices = VERTICES_PER_SCALE[edges]
        stats = _generate_in_subprocess(tmp_path / f"g{edges}", vertices,
                                        edges)
        assert stats["num_edges"] == edges
        assert stats["loaded_num_edges"] == edges
        rows.append({
            "num_vertices": vertices,
            "num_edges": edges,
            "container_bytes": stats["container_bytes"],
            "build_seconds": stats["build_seconds"],
            "load_seconds": stats["load_seconds"],
            "peak_rss_bytes": stats["peak_rss_bytes"],
        })

    # The gate: 100x more edges, less than 2x more resident memory.  The
    # container itself grows linearly — the page cache absorbs it.
    rss_small = rows[1]["peak_rss_bytes"]
    rss_large = rows[2]["peak_rss_bytes"]
    rss_ratio = rss_large / rss_small
    edge_ratio = rows[2]["num_edges"] / rows[1]["num_edges"]
    assert edge_ratio == 100.0
    assert rss_ratio < 2.0, (
        f"peak RSS grew {rss_ratio:.2f}x while edges grew {edge_ratio:.0f}x "
        f"— the out-of-core tier is not bounding memory"
    )
    # O(1) load: mapping the 10M-edge container must not read it.
    assert rows[2]["load_seconds"] < rows[2]["build_seconds"]

    # Parity leg: the memmap tier is an execution detail, not a model
    # change — predictions and scores must be bit-identical.
    from repro.graph.digraph import DiGraph
    from repro.snaple.config import SnapleConfig
    from repro.snaple.predictor import SnapleLinkPredictor

    graph = bench_graph(600)
    config = SnapleConfig.paper_default(seed=BENCH_SEED, k_local=10)
    graph.save_memmap(tmp_path / "parity")
    with SnapleLinkPredictor(config) as predictor:
        in_ram = predictor.predict(graph, backend="gas", workers=2)
        memmap = predictor.predict(DiGraph.load_memmap(tmp_path / "parity"),
                                   backend="gas", workers=2)
    assert memmap.predictions == in_ram.predictions
    assert dict(memmap.scores) == dict(in_ram.scores)

    payload = {
        "benchmark": "out_of_core",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "seed": BENCH_SEED,
        "rows": rows,
        "rss_ratio_100x_edges": rss_ratio,
        "parity": {
            "num_vertices": graph.num_vertices,
            "num_edges": graph.num_edges,
            "identical_predictions": True,
        },
        "peak_rss_bytes": peak_rss_bytes(),
        "caveat": (
            "per-scale peak_rss_bytes rows are measured in fresh "
            "subprocesses; the top-level peak_rss_bytes is this harness "
            "process and is not comparable to the rows"
        ),
    }
    path = save_json("BENCH_ooc", payload)
    assert path.exists()

    lines = ["Out-of-core scaling (streamed power-law generator):"]
    for row in rows:
        lines.append(
            f"  {row['num_edges']:>11,} edges: container "
            f"{row['container_bytes'] / 2**20:8.1f} MiB, peak RSS "
            f"{row['peak_rss_bytes'] / 2**20:8.1f} MiB, build "
            f"{row['build_seconds']:6.2f} s, load {row['load_seconds']*1e3:6.1f} ms"
        )
    lines.append(
        f"  RSS ratio across 100x edge growth: {rss_ratio:.2f}x (gate: < 2x)"
    )
    lines.append("  memmap-tier predictions: bit-identical to in-RAM")
    save_result("BENCH_ooc", "\n".join(lines))
