"""High-level SNAPLE link-prediction API.

:meth:`SnapleLinkPredictor.predict` is the single entry point: it dispatches
to any engine registered in the :mod:`repro.runtime` backend registry
(``local``, ``gas``, the baselines, and any third-party backend) and
returns a normalized :class:`~repro.runtime.report.RunReport`::

    report = SnapleLinkPredictor(config).predict(graph, backend="gas",
                                                 cluster=cluster_of(TYPE_I, 8))

:meth:`SnapleLinkPredictor.predict_iter` streams per-vertex results for large
vertex sets.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.errors import ConfigurationError
from repro.graph.digraph import DiGraph
from repro.snaple.config import SnapleConfig

__all__ = ["SnapleLinkPredictor"]


class SnapleLinkPredictor:
    """Link prediction with the SNAPLE scoring framework.

    Parameters
    ----------
    config:
        The :class:`~repro.snaple.config.SnapleConfig` controlling the scoring
        configuration, ``thrΓ``, ``klocal``, the sampling policy, and ``k``.

    Notes
    -----
    ``workers=N`` runs hold a reusable worker-pool lease on the predictor:
    repeated :meth:`predict` calls with the same graph, configuration and
    worker count reuse the spawned pool and its hosted graph instead of
    paying the spawn cost per call (``pool_spawns`` counts the actual
    spawns).  The lease owns processes and a run directory of segments —
    call :meth:`close` when done, or use the predictor as a context
    manager::

        with SnapleLinkPredictor(config) as predictor:
            first = predictor.predict(graph, backend="gas", workers=4)
            second = predictor.predict(graph, backend="gas", workers=4)
    """

    def __init__(self, config: SnapleConfig | None = None) -> None:
        self._config = config if config is not None else SnapleConfig()
        self._pool = None  # lazily created WorkerPoolLease

    @property
    def config(self) -> SnapleConfig:
        return self._config

    @property
    def pool_spawns(self) -> int:
        """How many worker pools this predictor actually spawned."""
        return 0 if self._pool is None else self._pool.spawns

    def close(self) -> None:
        """Release the worker-pool lease (processes and segments).

        Idempotent; a predictor that never ran with ``workers=N`` holds
        nothing.  Garbage collection is the backstop, but explicit closing
        keeps resource lifetime deterministic.
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.close()

    def __enter__(self) -> "SnapleLinkPredictor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _worker_pool(self):
        from repro.runtime.parallel import WorkerPoolLease

        if self._pool is None:
            self._pool = WorkerPoolLease()
        return self._pool

    # ------------------------------------------------------------------
    # Unified backend dispatch
    # ------------------------------------------------------------------
    def predict(self, graph: DiGraph, *, backend: str | None = None,
                mode: str | None = None, vertices: list[int] | None = None,
                workers: int | None = None, **options):
        """Run SNAPLE scoring on the named execution backend.

        Parameters
        ----------
        backend:
            Name of a backend registered in :mod:`repro.runtime`
            (``"local"`` by default; see
            :func:`repro.runtime.available_backends`).
        mode:
            A backend-specific execution mode passed through as the
            ``mode`` option — the ``local`` backend accepts
            ``"vectorized"`` (default, the CSR array kernel of
            :mod:`repro.snaple.kernel`) and ``"reference"`` (the scalar
            implementation kept for cross-checking).  A mode the backend
            does not know, a backend name included, raises
            :class:`~repro.errors.ConfigurationError`.
        vertices:
            Restrict prediction to these vertices (all by default).
        workers:
            Execute graph partitions in this many shared-nothing worker
            processes (see :mod:`repro.runtime.parallel`).  Only backends
            advertising :attr:`~repro.runtime.BackendCapabilities.parallel`
            accept it — among the built-ins that is ``gas`` alone; every
            other backend raises
            :class:`~repro.errors.ConfigurationError` before any graph
            work.  Predictions are identical for every worker count, and
            a run that recovers from a worker crash replays from superstep
            0 to the same answer.
        **options:
            Backend-specific options (e.g. ``cluster=`` / ``partitioner=`` /
            ``enforce_memory=`` for the simulated engines, which ``workers``
            rejects).  Unknown backends and unsupported options raise
            :class:`~repro.errors.ConfigurationError` up front.

        Returns
        -------
        repro.runtime.report.RunReport
            Predictions, candidate scores, and normalized accounting.
        """
        from repro.runtime import get_backend

        if workers is not None:
            options["workers"] = workers
            # Reuse this predictor's worker pool across predict() calls;
            # the executor bypasses the lease for fault-injected runs and
            # invalidates it after worker crashes.
            options.setdefault("pool", self._worker_pool())
        if mode is not None:
            # An execution mode for the (possibly defaulted) backend, e.g.
            # mode="vectorized" / mode="reference" on the local backend.
            options["mode"] = mode
        if backend is None:
            backend = "local"
        engine = get_backend(backend, **options)
        engine.prepare(graph, self._config)
        return engine.run(vertices=vertices)

    def predict_iter(self, graph: DiGraph, *, backend: str = "local",
                     vertices: list[int] | None = None, batch_size: int = 256,
                     **options) -> Iterator:
        """Stream per-vertex predictions for large vertex sets.

        Yields :class:`~repro.runtime.report.VertexPrediction` records in
        ``vertices`` order (all vertices by default).  On incremental
        backends (``local``, ``khop`` and ``content``) the graph-global
        phases run once and the per-vertex phase is executed in batches of
        ``batch_size``, bounding the score memory held at any time; other
        backends run once and the results are streamed from the finished
        report.
        """
        from repro.runtime import get_backend

        if batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        engine = get_backend(backend, **options)
        engine.prepare(graph, self._config)
        capabilities = engine.capabilities()
        targets = list(graph.vertices()) if vertices is None else list(vertices)
        if capabilities.incremental and capabilities.vertex_subset:
            for start in range(0, len(targets), batch_size):
                batch = targets[start:start + batch_size]
                report = engine.run(vertices=batch)
                yield from report.vertex_predictions(batch)
        else:
            report = engine.run(vertices=targets)
            yield from report.vertex_predictions(targets)
