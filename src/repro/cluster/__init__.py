"""Sharded multi-SSD cluster layer: scatter-gather top-K over
replicated DeepStore devices.

One query against a cluster fans out to every populated shard, runs
each shard's existing SCN pipeline on one replica SSD (with read-spread
replica rotation, failover past dead replicas, and optional hedged
requests against stragglers), and folds the per-shard top-K lists into
the exact global top-K with a streaming K-way merge.  A 1-shard,
1-replica cluster is bit-identical to a single device — the
differential test suite's anchor.

Entry points:

* :class:`DeepStoreCluster` — functional: real partitioned data, exact
  answers, full cost breakdown per query.
* :class:`ClusterModel` — analytic: the same scatter DES over
  closed-form shard latencies, for scaling sweeps and the scorecard.
* :func:`build_cluster_scorecard` — the CI perf gate's cluster leg.
"""

from repro.cluster.breaker import BreakerConfig, BreakerState, CircuitBreaker
from repro.cluster.brownout import (
    BROWNOUT_STEPS,
    BrownoutConfig,
    BrownoutController,
)
from repro.cluster.config import (
    PLACEMENT_STRATEGIES,
    ClusterConfig,
    ClusterError,
    CoordinatorCosts,
    normalize_fail_shards,
)
from repro.cluster.coordinator import (
    ClusterQueryResult,
    DeepStoreCluster,
    ShardReport,
)
from repro.cluster.ingest import (
    RebalanceMove,
    RebalancePlan,
    ShardIngestTracker,
)
from repro.cluster.model import ClusterEstimate, ClusterModel
from repro.cluster.placement import (
    ShardPlacement,
    hash_placement,
    locality_placement,
    make_placement,
    range_placement,
    shard_sizes,
)
from repro.cluster.retry import RetryLadder, RetryPolicy
from repro.cluster.scatter import (
    ReplicaAttempt,
    ScatterResult,
    ShardJob,
    ShardOutcome,
    run_scatter,
)
from repro.cluster.scorecard import (
    build_cluster_scorecard,
    cluster_metrics_snapshot,
)
from repro.cluster.serving import ClusterBatchCostModel

__all__ = [
    "BROWNOUT_STEPS",
    "BreakerConfig",
    "BreakerState",
    "BrownoutConfig",
    "BrownoutController",
    "CircuitBreaker",
    "PLACEMENT_STRATEGIES",
    "ClusterBatchCostModel",
    "ClusterConfig",
    "ClusterError",
    "ClusterEstimate",
    "ClusterModel",
    "ClusterQueryResult",
    "CoordinatorCosts",
    "DeepStoreCluster",
    "RebalanceMove",
    "RebalancePlan",
    "ReplicaAttempt",
    "RetryLadder",
    "RetryPolicy",
    "ShardIngestTracker",
    "ScatterResult",
    "ShardJob",
    "ShardOutcome",
    "ShardPlacement",
    "ShardReport",
    "build_cluster_scorecard",
    "cluster_metrics_snapshot",
    "hash_placement",
    "locality_placement",
    "make_placement",
    "normalize_fail_shards",
    "range_placement",
    "run_scatter",
    "shard_sizes",
]
