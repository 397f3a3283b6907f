"""Offered-load sweeps: the throughput-latency curve of a config.

The single number a capacity planner wants from a serving model is the
*knee*: the offered load where achieved throughput stops tracking
offered load and tail latency takes off.  :func:`sweep_offered_load`
replays the same seeded workload at a ladder of offered rates and
returns a :class:`ServingCurve` — one :class:`~repro.serving.server.
ServingResult` per point, plus the shape checks the CI gate and the
acceptance tests assert (achieved QPS non-decreasing, p99 non-
decreasing, goodput ~1 below the knee).

Default load points are fractions of the config's analytic saturation
throughput, so the sweep brackets the knee for any app/database size
without hand tuning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.serving.arrivals import poisson_arrivals
from repro.serving.server import QueryServer, ServingConfig, ServingResult
from repro.sim import forkmap
from repro.workloads.queries import QueryStream

#: default sweep ladder, as fractions of saturation throughput —
#: three points below the knee, one at it, two past it
DEFAULT_LOAD_FRACTIONS = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5)

@dataclass
class ServingCurve:
    """Throughput-latency curve: one serving run per offered load."""

    app: str
    saturation_qps: float
    points: List[ServingResult] = field(default_factory=list)

    @property
    def offered(self) -> List[float]:
        return [p.offered_qps for p in self.points]

    @property
    def achieved(self) -> List[float]:
        return [p.achieved_qps for p in self.points]

    def achieved_monotone(self, slack: float = 1e-9) -> bool:
        """Achieved QPS never decreases as offered load rises."""
        a = self.achieved
        return all(a[i + 1] >= a[i] - slack for i in range(len(a) - 1))

    def p99_monotone(self, slack: float = 1e-9) -> bool:
        """p99 latency never decreases as offered load rises."""
        p = [pt.p99_s for pt in self.points]
        return all(p[i + 1] >= p[i] - slack for i in range(len(p) - 1))

    def knee_index(self, goodput_floor: float = 0.999) -> int:
        """First sweep point whose goodput drops below the floor
        (``len(points)`` when the service never saturates)."""
        for i, point in enumerate(self.points):
            if point.goodput_fraction < goodput_floor:
                return i
        return len(self.points)

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready curve (stable keys)."""
        return {
            "app": self.app,
            "saturation_qps": self.saturation_qps,
            "points": [p.as_dict() for p in self.points],
        }


def sweep_offered_load(
    config: ServingConfig,
    n_queries: int = 400,
    seed: int = 0,
    qps_points: Optional[Sequence[float]] = None,
    load_fractions: Sequence[float] = DEFAULT_LOAD_FRACTIONS,
    stream: Optional[QueryStream] = None,
    metrics: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
) -> ServingCurve:
    """Run the same seeded workload at each offered load.

    ``qps_points`` overrides the default saturation-relative ladder.
    The *same* ``seed`` (and the same query stream, when given) is used
    at every point, so adjacent points differ only in arrival spacing —
    the cleanest way to see the queueing effect.  One server/cost-model
    is reused across points (the cache, when configured, is rebuilt per
    point so hit rates do not leak across loads).  ``metrics``
    aggregates over the whole sweep; the ``tracer``, whose records are
    timestamped in per-run simulated time, is attached only to the
    **last** (highest-load) point so its timelines stay coherent.
    """
    if n_queries <= 0:
        raise ValueError("n_queries must be positive")
    if qps_points is not None and any(q <= 0 for q in qps_points):
        raise ValueError("qps_points must all be positive")
    if any(f <= 0 for f in load_fractions):
        raise ValueError("load_fractions must all be positive")
    server = QueryServer(config, metrics=metrics)
    saturation = server.saturation_qps()
    if qps_points is None:
        qps_points = [saturation * f for f in load_fractions]
    if not qps_points:
        raise ValueError("empty qps sweep")
    curve = ServingCurve(app=config.app, saturation_qps=saturation)
    if (
        metrics is None
        and tracer is None
        and forkmap.pool_size(len(qps_points)) > 1
    ):
        # every point is a pure function of (config, n_queries, qps,
        # seed, stream): arrivals are rebuilt from the seed, and each
        # forked child inherits a copy-on-write clone of the pristine
        # never-run server (empty cache, deterministic cost model) —
        # exactly what the sequential loop's per-point rebuild
        # produces.  Results come back in point order, bit-identical;
        # only host wall-clock differs.  Without a pool to fork into,
        # the loop below rebuilds the server itself.
        def run_point(i: int) -> ServingResult:
            return server.run(
                poisson_arrivals(
                    n_queries,
                    qps_points[i],
                    seed=seed,
                    stream=stream,
                    compat=config.app,
                )
            )

        curve.points.extend(forkmap.fork_map(run_point, len(qps_points)))
        return curve
    for i, qps in enumerate(qps_points):
        if config.cache_entries > 0:
            # fresh cache per point: hit rate must reflect this load's
            # stream alone, not queries replayed at earlier loads
            server = QueryServer(config, metrics=metrics)
        arrivals = poisson_arrivals(
            n_queries, qps, seed=seed, stream=stream, compat=config.app
        )
        last = i == len(qps_points) - 1
        curve.points.append(
            server.run(arrivals, tracer=tracer if last else None)
        )
    return curve
