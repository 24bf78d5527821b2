"""SNAPLE core: the paper's scoring framework and Algorithm 2's kernel."""

from repro.snaple.aggregators import (
    AGGREGATORS,
    Aggregator,
    GeometricMeanAggregator,
    MaxAggregator,
    MeanAggregator,
    SumAggregator,
    get_aggregator,
)
from repro.snaple.combinators import (
    COMBINATORS,
    Combinator,
    CountCombinator,
    EuclideanCombinator,
    GeometricCombinator,
    LinearCombinator,
    SumCombinator,
    get_combinator,
)
from repro.snaple.config import SnapleConfig
from repro.snaple.kernel import LazyScores, kernel_supports, top_k_predictions
from repro.snaple.predictor import SnapleLinkPredictor
from repro.snaple.sampler import (
    SAMPLERS,
    BottomSimilaritySampler,
    NeighborSampler,
    RandomSampler,
    TopSimilaritySampler,
    get_sampler,
)
from repro.snaple.scoring import (
    GEOM_FAMILY,
    MEAN_FAMILY,
    PAPER_SCORES,
    SUM_FAMILY,
    ScoreConfig,
    paper_score_names,
    score_config,
)
from repro.snaple.similarity import (
    SIMILARITIES,
    NeighborhoodSetCache,
    get_similarity,
    jaccard,
)

__all__ = [
    "SnapleConfig",
    "SnapleLinkPredictor",
    "ScoreConfig",
    "score_config",
    "paper_score_names",
    "PAPER_SCORES",
    "SUM_FAMILY",
    "MEAN_FAMILY",
    "GEOM_FAMILY",
    "Combinator",
    "LinearCombinator",
    "EuclideanCombinator",
    "GeometricCombinator",
    "SumCombinator",
    "CountCombinator",
    "COMBINATORS",
    "get_combinator",
    "Aggregator",
    "SumAggregator",
    "MeanAggregator",
    "GeometricMeanAggregator",
    "MaxAggregator",
    "AGGREGATORS",
    "get_aggregator",
    "NeighborSampler",
    "TopSimilaritySampler",
    "BottomSimilaritySampler",
    "RandomSampler",
    "SAMPLERS",
    "get_sampler",
    "SIMILARITIES",
    "get_similarity",
    "jaccard",
    "NeighborhoodSetCache",
    "LazyScores",
    "kernel_supports",
    "top_k_predictions",
]
