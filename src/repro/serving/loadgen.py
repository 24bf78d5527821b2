"""Closed-loop load generator with windowed instrumentation and a stable cut.

Mirrors the memtier/middleware benchmarking methodology: ``clients`` closed
loops (each with exactly one outstanding request) drive the service for
``windows`` fixed-length instrumentation windows; completions are bucketed
into the window they finish in; warmup/cooldown windows are cut before the
stable aggregates are computed, so cold caches and ragged shutdown don't
pollute the reported throughput and percentiles.

The generator is deliberately service-shaped, not wall-clock-shaped: clients
block inside :meth:`~repro.serving.service.PredictorService.top_k` /
``ingest`` (closed loop, natural backpressure through the bounded queue) and
never busy-wait.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.serving.service import PredictorService, validate_ints, validate_k
from repro.serving.stages import operational_analysis

__all__ = ["LoadConfig", "LoadGenerator", "LoadResult", "WindowStats"]


@dataclass(frozen=True)
class LoadConfig:
    """Shape of one closed-loop load run (validated up front)."""

    clients: int = 2
    windows: int = 5
    window_seconds: float = 1.0
    warmup_windows: int = 1
    cooldown_windows: int = 0
    ingest_fraction: float = 0.0
    seed: int = 0
    k: int | None = None

    def __post_init__(self) -> None:
        validate_ints(clients=self.clients, windows=self.windows,
                      warmup_windows=self.warmup_windows,
                      cooldown_windows=self.cooldown_windows)
        if self.clients < 1:
            raise ConfigurationError(
                f"load clients must be >= 1, got {self.clients}"
            )
        if self.windows < 1:
            raise ConfigurationError(
                f"load windows must be >= 1, got {self.windows}"
            )
        if self.window_seconds <= 0:
            raise ConfigurationError(
                f"window length must be positive, got {self.window_seconds}"
            )
        if not 0.0 <= self.ingest_fraction <= 1.0:
            raise ConfigurationError(
                f"ingest fraction must lie in [0, 1], got "
                f"{self.ingest_fraction}"
            )
        if self.warmup_windows < 0 or self.cooldown_windows < 0:
            raise ConfigurationError("warmup/cooldown windows must be >= 0")
        if self.warmup_windows + self.cooldown_windows >= self.windows:
            raise ConfigurationError(
                f"stable cut is empty: warmup {self.warmup_windows} + "
                f"cooldown {self.cooldown_windows} >= windows {self.windows}"
            )
        validate_k(self.k)


@dataclass(frozen=True)
class WindowStats:
    """One instrumentation window's aggregates."""

    window: int
    operations: int
    queries: int
    ingests: int
    throughput_ops: float
    p50_ms: float
    p99_ms: float


@dataclass(frozen=True)
class LoadResult:
    """Windowed trajectory plus the stable-window aggregates."""

    offered_clients: int
    window_seconds: float
    ingest_fraction: float
    windows: list[WindowStats] = field(default_factory=list)
    stable_windows: int = 0
    stable_operations: int = 0
    stable_throughput_ops: float = 0.0
    stable_p50_ms: float = 0.0
    stable_p99_ms: float = 0.0
    stable_mean_ms: float = 0.0
    total_operations: int = 0
    total_queries: int = 0
    total_ingests: int = 0
    #: Raw per-stage queue/service-time snapshots, when the service exposes
    #: ``stage_stats()`` (:class:`PredictorService` does).
    stages: dict | None = None
    #: Operational-law table over the run: per-stage utilization, Little's
    #: law fit, and the bottleneck stage (see repro.serving.stages).
    operational: dict | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def _percentiles_ms(latencies: list[float]) -> tuple[float, float, float]:
    """(p50, p99, mean) of the latency samples, in milliseconds."""
    if not latencies:
        return 0.0, 0.0, 0.0
    array = np.asarray(latencies, dtype=np.float64) * 1000.0
    p50, p99 = np.percentile(array, [50.0, 99.0])
    return float(p50), float(p99), float(array.mean())


class LoadGenerator:
    """Drives a started :class:`PredictorService` with a closed-loop mix."""

    def __init__(self, service: PredictorService, config: LoadConfig) -> None:
        self._service = service
        self._config = config

    def run(self) -> LoadResult:
        config = self._config
        service = self._service
        num_vertices = service.num_vertices
        duration = config.windows * config.window_seconds
        reset_stages = getattr(service, "reset_stage_stats", None)
        if reset_stages is not None:
            reset_stages()
        run_started = time.perf_counter()
        barrier = threading.Barrier(config.clients)
        records: list[list[tuple[int, float, bool]]] = [
            [] for _ in range(config.clients)
        ]

        def client(client_id: int, out: list) -> None:
            rng = random.Random(config.seed * 1_000_003 + client_id)
            barrier.wait()
            origin = time.perf_counter()
            while True:
                now = time.perf_counter()
                if now - origin >= duration:
                    break
                is_ingest = rng.random() < config.ingest_fraction
                if is_ingest:
                    u = rng.randrange(num_vertices)
                    v = rng.randrange(num_vertices)
                    began = time.perf_counter()
                    service.ingest([(u, v)])
                else:
                    u = rng.randrange(num_vertices)
                    began = time.perf_counter()
                    service.top_k(u, k=config.k)
                finished = time.perf_counter()
                window = int((finished - origin) / config.window_seconds)
                if 0 <= window < config.windows:
                    out.append((window, finished - began, is_ingest))

        threads = [
            threading.Thread(target=client, args=(client_id, out),
                             name=f"snaple-load-{client_id}")
            for client_id, out in enumerate(records)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        run_elapsed = time.perf_counter() - run_started

        stage_stats = getattr(service, "stage_stats", None)
        stage_snapshots = stage_stats() if stage_stats is not None else None
        operational = (operational_analysis(stage_snapshots, run_elapsed)
                       if stage_snapshots else None)

        by_window: list[list[tuple[float, bool]]] = [
            [] for _ in range(config.windows)
        ]
        for out in records:
            for window, latency, is_ingest in out:
                by_window[window].append((latency, is_ingest))

        window_stats: list[WindowStats] = []
        for window, samples in enumerate(by_window):
            latencies = [latency for latency, _ in samples]
            ingests = sum(1 for _, is_ingest in samples if is_ingest)
            p50, p99, _mean = _percentiles_ms(latencies)
            window_stats.append(WindowStats(
                window=window,
                operations=len(samples),
                queries=len(samples) - ingests,
                ingests=ingests,
                throughput_ops=len(samples) / config.window_seconds,
                p50_ms=p50,
                p99_ms=p99,
            ))

        stable_lo = config.warmup_windows
        stable_hi = config.windows - config.cooldown_windows
        stable_samples = [
            sample for window in range(stable_lo, stable_hi)
            for sample in by_window[window]
        ]
        stable_latencies = [latency for latency, _ in stable_samples]
        stable_p50, stable_p99, stable_mean = _percentiles_ms(stable_latencies)
        stable_span = (stable_hi - stable_lo) * config.window_seconds
        total = sum(stats.operations for stats in window_stats)
        total_ingests = sum(stats.ingests for stats in window_stats)
        return LoadResult(
            offered_clients=config.clients,
            window_seconds=config.window_seconds,
            ingest_fraction=config.ingest_fraction,
            windows=window_stats,
            stable_windows=stable_hi - stable_lo,
            stable_operations=len(stable_samples),
            stable_throughput_ops=len(stable_samples) / stable_span,
            stable_p50_ms=stable_p50,
            stable_p99_ms=stable_p99,
            stable_mean_ms=stable_mean,
            total_operations=total,
            total_queries=total - total_ingests,
            total_ingests=total_ingests,
            stages=stage_snapshots,
            operational=operational,
        )
