"""Exception hierarchy shared across the SNAPLE reproduction."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` package."""


class GraphError(ReproError):
    """Raised when a graph is malformed or an operation on it is invalid."""


class VertexNotFoundError(GraphError):
    """Raised when a vertex id is outside the graph's vertex range."""

    def __init__(self, vertex: int, num_vertices: int) -> None:
        super().__init__(
            f"vertex {vertex} is out of range for a graph with "
            f"{num_vertices} vertices"
        )
        self.vertex = vertex
        self.num_vertices = num_vertices


class GraphBuildError(GraphError):
    """Raised when a :class:`~repro.graph.builder.GraphBuilder` is misused."""


class GraphIOError(GraphError):
    """Raised when an edge-list file cannot be parsed or written."""


class PartitionError(ReproError):
    """Raised when a graph partitioning request is invalid."""


class EngineError(ReproError):
    """Raised when a GAS engine is misconfigured or a program misbehaves."""


class ResourceExhaustedError(EngineError):
    """Raised when the simulated cluster runs out of memory.

    This mirrors the behaviour reported in the paper where the BASELINE
    implementation "fails due to resource exhaustion" on the largest graphs.
    """

    def __init__(self, message: str, *, machine: int | None = None,
                 requested_bytes: int | None = None,
                 capacity_bytes: int | None = None) -> None:
        super().__init__(message)
        self.machine = machine
        self.requested_bytes = requested_bytes
        self.capacity_bytes = capacity_bytes


class WorkerCrashError(EngineError):
    """Raised when a shared-nothing parallel worker dies or hangs mid-superstep.

    The parallel executor raises this only after exhausting its restart
    budget (see ``max_restarts``); within the budget it respawns the worker
    pool and replays the run from superstep 0 transparently.
    """


class ConfigurationError(ReproError):
    """Raised when a predictor or experiment configuration is invalid."""


class ServingError(ReproError):
    """Raised when the online predictor service is misused.

    Covers submitting work to a service that was never started (or already
    stopped) and job submissions that time out against the bounded queue.
    Invalid service *configurations* raise :class:`ConfigurationError`
    up front instead, consistent with the rest of the repo.
    """


class EvaluationError(ReproError):
    """Raised when an evaluation protocol cannot be applied to a graph."""
