"""The :class:`ExecutionBackend` protocol every engine adapter implements.

The SNAPLE paper's central claim is that one scoring framework runs unchanged
across graph-processing engines (GAS, single-machine competitors).
This module is that claim as an API: a backend *prepares* once for a (graph,
config) pair and then *runs* over a vertex set, returning the normalized
:class:`~repro.runtime.report.RunReport`.  Backends advertise what they can do
through :class:`BackendCapabilities` so generic drivers (the experiment
runner, streamed prediction, the CLI) can adapt without isinstance checks.
"""

from __future__ import annotations

import abc
import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar

from repro.errors import ConfigurationError, EngineError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.graph.digraph import DiGraph
    from repro.runtime.report import RunReport
    from repro.snaple.config import SnapleConfig

__all__ = ["BackendCapabilities", "ExecutionBackend", "target_vertices"]


def target_vertices(graph: DiGraph, vertices) -> list[int]:
    """``vertices`` as a list of ints (every vertex of ``graph`` for ``None``).

    Bools, non-integers and ids outside ``[0, |V|)`` raise
    :class:`~repro.errors.ConfigurationError`, so callers check before any
    graph work.
    """
    if vertices is None:
        return list(graph.vertices())
    targets = []
    for u in vertices:
        if (isinstance(u, bool) or not isinstance(u, numbers.Integral)
                or not 0 <= u < graph.num_vertices):
            raise ConfigurationError(
                f"vertices must be integer ids in [0, "
                f"{graph.num_vertices}), got {u!r}"
            )
        targets.append(int(u))
    return targets


@dataclass(frozen=True)
class BackendCapabilities:
    """What an execution backend supports and how it accounts its work.

    Attributes
    ----------
    name:
        Registry key of the backend.
    description:
        One-line human description (shown by ``snaple list``).
    simulated:
        ``True`` when runs report simulated cluster seconds / traffic /
        memory in addition to wall-clock time.
    distributed:
        ``True`` when the backend honours a multi-machine ``ClusterConfig``.
    vertex_subset:
        ``True`` when ``run(vertices=...)`` restricts the computation itself
        (rather than merely filtering the output afterwards).
    incremental:
        ``True`` when ``prepare`` caches all graph-global state so repeated
        ``run`` calls on vertex batches cost only the per-vertex work.  The
        streamed ``predict_iter`` path batches only on such backends.
    parallel:
        ``True`` when the backend accepts a ``workers=N`` option and executes
        graph partitions in separate worker processes through
        :mod:`repro.runtime.parallel`.  Backends without this capability
        reject ``workers`` with a
        :class:`~repro.errors.ConfigurationError`.
    options:
        Keyword options accepted when constructing the backend through
        :func:`~repro.runtime.registry.get_backend`.
    """

    name: str
    description: str = ""
    simulated: bool = False
    distributed: bool = False
    vertex_subset: bool = True
    incremental: bool = False
    parallel: bool = False
    options: tuple[str, ...] = ()


class ExecutionBackend(abc.ABC):
    """A pluggable execution engine for link-prediction programs.

    Lifecycle: construct (with backend-specific options), then
    :meth:`prepare` with a graph and a scoring configuration, then call
    :meth:`run` one or more times.  :meth:`predict` bundles the two for the
    common single-shot case.
    """

    #: Registry key; subclasses must override.
    name: ClassVar[str] = ""

    def __init__(self) -> None:
        self._graph: DiGraph | None = None
        self._config: SnapleConfig | None = None

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def capabilities(self) -> BackendCapabilities:
        """Static description of what this backend supports."""

    def prepare(self, graph: DiGraph,
                config: SnapleConfig | None = None) -> "ExecutionBackend":
        """Bind the backend to ``graph`` and ``config``; returns ``self``.

        Subclasses extend this to precompute whatever global state their
        :attr:`BackendCapabilities.incremental` flag promises.
        """
        from repro.snaple.config import SnapleConfig

        self._graph = graph
        self._config = config if config is not None else SnapleConfig()
        return self

    @abc.abstractmethod
    def run(self, vertices: list[int] | None = None) -> RunReport:
        """Execute the prediction program over ``vertices`` (all by default)."""

    def predict(self, graph: DiGraph, config: SnapleConfig | None = None,
                *, vertices: list[int] | None = None) -> RunReport:
        """Convenience: :meth:`prepare` then :meth:`run` in one call."""
        return self.prepare(graph, config).run(vertices=vertices)

    # ------------------------------------------------------------------
    def _require_prepared(self) -> tuple[DiGraph, SnapleConfig]:
        """The bound (graph, config) pair; raises if :meth:`prepare` was skipped."""
        if self._graph is None or self._config is None:
            raise EngineError(
                f"backend {self.name!r} must be prepared with a graph before "
                "run() is called"
            )
        return self._graph, self._config

    def _target_vertices(self, vertices: list[int] | None) -> list[int]:
        """The checked target list of :func:`target_vertices`."""
        graph, _ = self._require_prepared()
        return target_vertices(graph, vertices)
