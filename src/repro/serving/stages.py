"""Per-stage queue/service-time instrumentation and operational-law analysis.

The service is a set of stages: a request waits in the job queue, then a
worker answers a query or rescores an ingest.  To find the bottleneck we
need, per stage, the arrival rate λ, the mean time in stage W, the observed
queue length L, and the busy fraction of its servers — the inputs of the operational laws (utilization law
``U = λ·S/m``, Little's law ``L = λ·W``).  :class:`StageRecorder` collects
exactly those samples with O(1) amortized cost and a bounded footprint;
:func:`operational_analysis` turns a set of snapshots plus a wall-clock
window into the per-stage utilization/latency table and names the bottleneck
(the stage with the highest utilization — the one that saturates first as
offered load grows).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "StageRecorder",
    "operational_analysis",
]

#: Per-recorder cap on retained latency/depth samples.  Past the cap the
#: buffer is thinned to every other sample and the keep-stride doubles, so
#: memory stays bounded while the kept samples span the whole run.
_MAX_SAMPLES = 4096


class StageRecorder:
    """Collects wait/service-time and queue-depth samples for one stage.

    ``servers`` is the stage's parallelism (worker threads); it divides busy
    time in the utilization law.  Recorders are not thread-safe by design —
    the service records under its own counters lock.
    """

    __slots__ = ("name", "servers", "count", "wait_total", "service_total",
                 "busy_seconds", "_wait", "_service", "_depth", "_stride",
                 "_pending")

    def __init__(self, name: str, *, servers: int = 1) -> None:
        self.name = name
        self.servers = int(servers)
        self.count = 0
        self.wait_total = 0.0
        self.service_total = 0.0
        self.busy_seconds = 0.0
        self._wait: list[float] = []
        self._service: list[float] = []
        self._depth: list[int] = []
        self._stride = 1
        self._pending = 0

    def record(self, wait_seconds: float, service_seconds: float) -> None:
        """One request finished the stage after waiting then being served."""
        self.count += 1
        self.wait_total += wait_seconds
        self.service_total += service_seconds
        self.busy_seconds += service_seconds
        self._pending += 1
        if self._pending >= self._stride:
            self._pending = 0
            self._wait.append(wait_seconds)
            self._service.append(service_seconds)
            if len(self._wait) > _MAX_SAMPLES:
                self._wait = self._wait[::2]
                self._service = self._service[::2]
                self._stride *= 2

    def sample_depth(self, depth: int) -> None:
        """Record an instantaneous queue length for this stage."""
        self._depth.append(int(depth))
        if len(self._depth) > _MAX_SAMPLES:
            self._depth = self._depth[::2]

    def snapshot(self) -> dict:
        """Picklable copy of the collected samples and totals."""
        return {
            "name": self.name,
            "servers": self.servers,
            "count": self.count,
            "wait_total": self.wait_total,
            "service_total": self.service_total,
            "busy_seconds": self.busy_seconds,
            "wait_samples": list(self._wait),
            "service_samples": list(self._service),
            "depth_samples": list(self._depth),
        }

    def reset(self) -> None:
        self.count = 0
        self.wait_total = 0.0
        self.service_total = 0.0
        self.busy_seconds = 0.0
        self._wait.clear()
        self._service.clear()
        self._depth.clear()
        self._stride = 1
        self._pending = 0


def _percentiles_ms(samples: list[float]) -> dict:
    if not samples:
        return {"p50_ms": 0.0, "p99_ms": 0.0}
    array = np.asarray(samples, dtype=np.float64) * 1e3
    return {
        "p50_ms": float(np.percentile(array, 50)),
        "p99_ms": float(np.percentile(array, 99)),
    }


def operational_analysis(snapshots: dict[str, dict],
                         elapsed_seconds: float) -> dict:
    """Operational-law table over one measurement window.

    Per stage: arrival rate λ = count / elapsed, utilization
    ``U = busy / (servers · elapsed)``, mean residence time
    ``W = (wait_total + service_total) / count``, Little's-law queue length
    ``L = λ·W``, and the relative error between that and the directly
    sampled mean queue depth (how well the open-system model fits).  The
    bottleneck is the stage with the highest utilization.
    """
    elapsed = max(float(elapsed_seconds), 1e-12)
    stages: dict[str, dict] = {}
    bottleneck: str | None = None
    bottleneck_util = -1.0
    for name, snap in snapshots.items():
        count = snap["count"]
        arrival_rate = count / elapsed
        utilization = snap["busy_seconds"] / (max(snap["servers"], 1)
                                              * elapsed)
        mean_wait = snap["wait_total"] / count if count else 0.0
        mean_service = snap["service_total"] / count if count else 0.0
        residence = mean_wait + mean_service
        little_length = arrival_rate * residence
        depth = snap["depth_samples"]
        measured_length = (float(np.mean(depth)) if depth else 0.0)
        fit_error = (abs(measured_length - little_length)
                     / max(little_length, 1e-12) if count else 0.0)
        stages[name] = {
            "servers": snap["servers"],
            "count": count,
            "arrival_rate_per_s": arrival_rate,
            "utilization": utilization,
            "mean_wait_ms": mean_wait * 1e3,
            "mean_service_ms": mean_service * 1e3,
            "wait": _percentiles_ms(snap["wait_samples"]),
            "service": _percentiles_ms(snap["service_samples"]),
            "little_queue_length": little_length,
            "measured_queue_length": measured_length,
            "little_fit_error": fit_error,
        }
        if utilization > bottleneck_util:
            bottleneck_util = utilization
            bottleneck = name
    return {
        "elapsed_seconds": elapsed,
        "stages": stages,
        "bottleneck": bottleneck,
        "bottleneck_utilization": max(bottleneck_util, 0.0),
    }
