"""Per-stage queue/service-time instrumentation.

The service is a set of stages: a request waits in the job queue, then a
worker answers a query or rescores an ingest.  :class:`StageRecorder`
collects, per stage, the request count, the total wait and service time
and bounded samples of each latency and of the queue length, with O(1)
amortized cost.  ``PredictorService.stage_stats()`` returns one snapshot
per stage; a load driver outside the service (the benchmark's closed loop)
reads them over its own measurement window.
"""

from __future__ import annotations

__all__ = ["StageRecorder"]

#: Per-recorder cap on retained latency/depth samples.  Past the cap the
#: buffer is thinned to every other sample and the keep-stride doubles, so
#: memory stays bounded while the kept samples span the whole run.
_MAX_SAMPLES = 4096


class StageRecorder:
    """Collects wait/service-time and queue-depth samples for one stage.

    Recorders are not thread-safe by design — the service records under its
    own counters lock.
    """

    __slots__ = ("name", "count", "wait_total", "service_total", "_wait",
                 "_service", "_depth", "_stride", "_pending")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.wait_total = 0.0
        self.service_total = 0.0
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
            "count": self.count,
            "wait_total": self.wait_total,
            "service_total": self.service_total,
            "wait_samples": list(self._wait),
            "service_samples": list(self._service),
            "depth_samples": list(self._depth),
        }
