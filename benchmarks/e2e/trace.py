"""In-memory span tracer for the traced benchmark pass.

Spans are opened and closed only from benchmark files, around calls into a
layer's public functions; nothing under ``src/`` knows about tracing.  A span
records ``name, start, end, parent, workload, rep``.  Spans stay in memory
until :meth:`Tracer.write` dumps them (plus the self-time table) at the end
of the run, so tracing costs two ``perf_counter`` reads and one list append
per span while the clock is running.

Self time of a span is its duration minus the part its children cover.
Children of one parent are opened by the same thread one after another, so
they never overlap and the covered part is the plain sum of their durations.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager, nullcontext

__all__ = ["NULL_TRACER", "Tracer", "format_self_time", "self_time_table"]

#: Column order of one span row in the written trace file; ``workload`` is
#: the same for every span of a file and is written once, at the top.
SPAN_FIELDS = ("name", "start", "end", "parent", "rep")


class Tracer:
    """Collects spans for one workload run.

    Each thread keeps its own stack of open spans (the serving workload's
    clients trace concurrently), so ``parent`` is always the span the same
    thread opened last.  ``rep`` is whatever the caller last assigned to
    :attr:`rep` on that thread — a rep number for batch workloads, an op
    number for the serving clients.
    """

    enabled = True

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    @property
    def rep(self):
        return getattr(self._local, "rep", None)

    @rep.setter
    def rep(self, value) -> None:
        self._local.rep = value

    @contextmanager
    def span(self, name: str):
        """Time the enclosed block as a child of the thread's open span."""
        stack = self._local.__dict__.setdefault("stack", [])
        row = [name, 0.0, 0.0, stack[-1] if stack else None,
               self.workload, self.rep]
        with self._lock:                # index and append must agree
            stack.append(len(self.spans))
            self.spans.append(row)
        row[1] = time.perf_counter()
        try:
            yield row
        finally:
            row[2] = time.perf_counter()
            stack.pop()

    def durations(self, name: str) -> list[float]:
        """Durations (seconds) of every finished span called ``name``."""
        return [row[2] - row[1] for row in self.spans if row[0] == name]

    def write(self, path) -> dict:
        """Dump spans + self-time table to ``path``; returns the table."""
        table = self_time_table(self.spans)
        origin = min((row[1] for row in self.spans), default=0.0)
        payload = {
            "workload": self.workload,
            "fields": list(SPAN_FIELDS),
            "spans": [
                [row[0], round(row[1] - origin, 6), round(row[2] - origin, 6),
                 row[3], row[5]]
                for row in self.spans
            ],
            "self_time": table,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))
            handle.write("\n")
        return table


class _NullTracer:
    """Tracing off: ``span`` is a no-op context manager."""

    enabled = False
    rep = None
    _noop = nullcontext()

    def span(self, name: str):
        return self._noop


NULL_TRACER = _NullTracer()


def self_time_table(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: count, total seconds and self seconds."""
    covered = [0.0] * len(spans)
    for row in spans:
        if row[3] is not None:
            covered[row[3]] += row[2] - row[1]
    table: dict[str, dict[str, float]] = {}
    for index, row in enumerate(spans):
        duration = row[2] - row[1]
        entry = table.setdefault(row[0],
                                 {"count": 0, "total_s": 0.0, "self_s": 0.0})
        entry["count"] += 1
        entry["total_s"] += duration
        entry["self_s"] += duration - covered[index]
    return table


def format_self_time(table: dict[str, dict[str, float]]) -> str:
    """The self-time table as aligned text, largest self time first."""
    lines = [f"  {'span':<34} {'count':>7} {'total s':>10} {'self s':>10}"]
    for name, entry in sorted(table.items(),
                              key=lambda item: -item[1]["self_s"]):
        lines.append(f"  {name:<34} {entry['count']:>7d} "
                     f"{entry['total_s']:>10.4f} {entry['self_s']:>10.4f}")
    return "\n".join(lines)
