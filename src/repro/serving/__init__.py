"""Online serving: delta overlay → incremental index → service → stages.

Everything else in the repo is batch (build graph → predict → exit).  This
package is the bridge to a long-lived system: a mutable edge overlay over
the immutable CSR graph (:mod:`~repro.serving.delta`), an incrementally
maintained SNAPLE index that rescores only dirty regions
(:mod:`~repro.serving.index`), a request/worker service in the
Queueing-middleware shape (:mod:`~repro.serving.service`), and per-stage
queue/service-time instrumentation (:mod:`~repro.serving.stages`).  The
service only instruments itself; the load that drives it comes from outside
(the benchmark's ``serve_mixed`` closed loop, ``benchmarks/e2e``).

Parity contract: at any point in an edge stream (additions *and* removals),
the service's answers are bit-identical (predictions *and* scores) to a
cold batch ``predict(backend="gas", workers=N)`` on the merged graph —
the per-vertex RNG discipline makes dirty-region recomputation exact.
"""

from repro.serving.delta import GraphDelta
from repro.serving.index import (
    AppliedUpdate,
    IncrementalIndex,
    PairSimilarityCache,
)
from repro.serving.service import (
    IngestResult,
    PredictorService,
    RemovalResult,
    ServiceStats,
    ServingConfig,
    TopKResult,
)
from repro.serving.stages import StageRecorder

__all__ = [
    "AppliedUpdate",
    "GraphDelta",
    "IncrementalIndex",
    "IngestResult",
    "PairSimilarityCache",
    "PredictorService",
    "RemovalResult",
    "ServiceStats",
    "ServingConfig",
    "StageRecorder",
    "TopKResult",
]
