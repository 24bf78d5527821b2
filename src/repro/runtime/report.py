"""Unified run accounting shared by every execution backend.

:class:`RunReport` is the one result type of every engine, the SNAPLE
engines and the baselines alike: every backend reports predictions,
candidate scores, wall-clock time, and — when the backend simulates a
cluster — simulated seconds, network traffic, peak memory, and the number
of (super)steps, all under the same names.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any

__all__ = ["RunReport", "VertexPrediction"]


@dataclass(frozen=True)
class VertexPrediction:
    """Per-vertex slice of a run, yielded by streamed prediction."""

    vertex: int
    predicted: list[int]
    scores: dict[int, float]

    @property
    def top(self) -> int | None:
        """Best-scored prediction (``None`` when the vertex has none)."""
        return self.predicted[0] if self.predicted else None


@dataclass
class RunReport:
    """Predictions plus normalized accounting for one backend run.

    ``simulated_seconds``, ``network_bytes`` and ``peak_memory_bytes`` are
    ``None`` for backends that do not simulate a cluster (``local``, and
    ``gas`` with ``workers=N``, whose processes exchange no simulated
    network traffic); ``supersteps`` is ``None`` for backends without
    supersteps (e.g. ``local``); ``native`` keeps the backend's own result
    object for callers that need engine internals.  ``extra`` carries backend-specific
    counters:

    * the ``local`` and ``content`` backends' ``prepare_seconds`` /
      ``kernel_vectorized``, the ``khop`` backend's ``prepare_seconds`` and
      ``paths_length<L>`` (contributing paths of length ``L``), and the
      random-walk backends' ``walk_steps``;
    * on ``workers=N`` runs, the hosted phase-output bytes
      (``state_plane_peak_bytes`` / ``state_plane_bytes_step*``),
      ``routing_seconds``, the transport bytes, and
      ``worker_restarts`` (pool respawns, each replaying the run from
      phase 0);
    * on the online ``serving`` backend, ``requests_served``,
      ``edges_ingested``, ``dirty_vertices_rescored``, ``cache_hits`` /
      ``cache_misses``, ``pair_cache_hits`` / ``pair_cache_misses``,
      ``compactions`` and ``delta_edges``.

    The serial simulated engines (``gas`` without ``workers``, and
    ``gas_baseline``) carry no ``extra`` keys.

    ``scores`` is a mapping from vertex to its candidate score map.  The
    vectorized ``local`` and ``content`` modes, serial ``gas`` and ``gas``
    with ``workers=N``
    return a read-only :class:`~repro.snaple.kernel.LazyScores` view over
    flat score arrays; the other backends return a plain dict.  The view
    keeps its arrays and nothing else: each read builds a fresh per-vertex
    dict that belongs to the caller (equality and iteration behave like the
    dict it replaces; ``dict(report.scores)`` builds every row, and
    :meth:`to_dict` gives JSON).

    Partition accounting: ``workers`` is the worker-process count of a
    shared-nothing parallel run (``None`` for serial runs),
    ``per_partition_seconds`` holds each partition's compute time (one entry
    for a serial run), ``sync_overhead_seconds`` is the coordination time not
    spent inside the slowest partition (``None`` when no synchronization
    happened), and ``partition_reports`` carries one
    :class:`~repro.runtime.parallel.PartitionReport` per partition.  Whenever
    ``partition_reports`` is populated, the report's totals (prediction and
    predicted-edge counts, ``per_partition_seconds``) must equal the sums of
    the per-partition entries — the parity test suite asserts this.
    """

    backend: str
    predictions: dict[int, list[int]]
    scores: Mapping[int, dict[int, float]]
    wall_clock_seconds: float = 0.0
    simulated_seconds: float | None = None
    network_bytes: int | None = None
    peak_memory_bytes: int | None = None
    supersteps: int | None = None
    workers: int | None = None
    per_partition_seconds: list[float] = field(default_factory=list)
    sync_overhead_seconds: float | None = None
    partition_reports: list[Any] = field(default_factory=list, repr=False)
    extra: dict[str, float] = field(default_factory=dict)
    native: Any = field(default=None, repr=False)

    @property
    def time_seconds(self) -> float:
        """Simulated cluster time when available, wall clock otherwise."""
        if self.simulated_seconds is not None:
            return self.simulated_seconds
        return self.wall_clock_seconds

    def predicted_edges(self) -> set[tuple[int, int]]:
        """All predicted edges as ``(source, predicted target)`` pairs."""
        return {
            (u, z) for u, targets in self.predictions.items() for z in targets
        }

    def top_prediction(self, vertex: int) -> int | None:
        """Best-scored prediction for ``vertex`` (``None`` when empty)."""
        targets = self.predictions.get(vertex, [])
        return targets[0] if targets else None

    def vertex_predictions(self, vertices: list[int] | None = None):
        """Iterate :class:`VertexPrediction` slices of this report."""
        targets = self.predictions.keys() if vertices is None else vertices
        for u in targets:
            yield VertexPrediction(
                vertex=u,
                predicted=list(self.predictions.get(u, [])),
                scores=dict(self.scores.get(u, {})),
            )

    def to_dict(self, *, include_scores: bool = False) -> dict[str, Any]:
        """JSON-serializable view of the report (``native`` is omitted)."""
        from dataclasses import asdict, is_dataclass

        payload: dict[str, Any] = {
            "backend": self.backend,
            "num_vertices": len(self.predictions),
            "num_predicted_edges": sum(
                len(targets) for targets in self.predictions.values()
            ),
            "wall_clock_seconds": self.wall_clock_seconds,
            "simulated_seconds": self.simulated_seconds,
            "network_bytes": self.network_bytes,
            "peak_memory_bytes": self.peak_memory_bytes,
            "supersteps": self.supersteps,
            "workers": self.workers,
            "per_partition_seconds": list(self.per_partition_seconds),
            "sync_overhead_seconds": self.sync_overhead_seconds,
            "extra": dict(self.extra),
            "predictions": {
                int(u): [int(z) for z in targets]
                for u, targets in self.predictions.items()
            },
        }
        if self.partition_reports:
            payload["partitions"] = [
                asdict(report) if is_dataclass(report) else report
                for report in self.partition_reports
            ]
        if include_scores:
            payload["scores"] = {
                int(u): {int(z): float(s) for z, s in by_candidate.items()}
                for u, by_candidate in self.scores.items()
            }
        return payload
