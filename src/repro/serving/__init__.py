"""Online serving: delta overlay → incremental index → service → load gen.

Everything else in the repo is batch (build graph → predict → exit).  This
package is the bridge to a long-lived system: a mutable edge overlay over
the immutable CSR graph (:mod:`~repro.serving.delta`), an incrementally
maintained SNAPLE index that rescores only dirty regions
(:mod:`~repro.serving.index`), a request/worker service in the
Queueing-middleware shape (:mod:`~repro.serving.service`), per-stage
queue/service-time instrumentation with operational-law bottleneck analysis
(:mod:`~repro.serving.stages`), and a closed-loop load generator with
windowed instrumentation (:mod:`~repro.serving.loadgen`).

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
from repro.serving.loadgen import (
    LoadConfig,
    LoadGenerator,
    LoadResult,
    WindowStats,
)
from repro.serving.service import (
    IngestResult,
    PredictorService,
    RemovalResult,
    ServiceStats,
    ServingConfig,
    TopKResult,
)
from repro.serving.stages import (
    StageRecorder,
    operational_analysis,
)

__all__ = [
    "AppliedUpdate",
    "GraphDelta",
    "IncrementalIndex",
    "IngestResult",
    "LoadConfig",
    "LoadGenerator",
    "LoadResult",
    "PairSimilarityCache",
    "PredictorService",
    "RemovalResult",
    "ServiceStats",
    "ServingConfig",
    "StageRecorder",
    "TopKResult",
    "WindowStats",
    "operational_analysis",
]
