"""The "production day": burst + shard failure + live ingest at once.

:func:`run_production_day` is the tenancy subsystem's flagship
scenario, the multi-tenant sibling of the chaos harness's scripted
day.  One 24-hour diurnal trace carries three simultaneous stresses:

* the **flash crowd** — the aggressor tenant's burst window pushes the
  plane past one backend's saturation, driving queueing, shedding, and
  the burn-rate autoscaler;
* the **shard failure** — a scripted replica outage swaps every app's
  cost model to its degraded twin for the outage window (the failover
  tax from :mod:`repro.cluster` pricing every batch);
* **live ingest** — a write-heavy tenant streams skewed row keys
  through the :class:`~repro.cluster.ingest.ShardIngestTracker`,
  whose rebalance plans are priced as backend-occupying maintenance.

The report adds the **noisy-neighbor isolation** measurement: a paired
run with the aggressor tenant surgically removed (byte-identical
arrivals for everyone else — see :mod:`repro.tenancy.trace`), giving
each victim a p99-with over p99-without ratio that is contention and
nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.tenancy.server import DayResult, MultiTenantServer
from repro.tenancy.spec import (
    AutoscalerConfig,
    BurstSpec,
    ShardFailureSpec,
    TenancyConfig,
    TenantSpec,
)
from repro.tenancy.trace import aggressor_of, generate_day, offered_summary


@dataclass
class ProductionDayReport:
    """The full day plus the paired noisy-neighbor isolation runs."""

    config: TenancyConfig
    result: DayResult
    #: the burst-carrying tenant the paired runs remove (None: nobody
    #: bursts, so no isolation measurement was possible)
    aggressor: Optional[str]
    #: the full trace replayed at **fixed capacity** (autoscaler off) —
    #: the "with" side of the isolation pair, so the ratio is not
    #: confounded by the scaler granting victims extra backends only
    #: when the aggressor is around to trip it
    with_aggressor_fixed: Optional[DayResult]
    #: victims' fixed-capacity day with the aggressor absent
    without_aggressor: Optional[DayResult]

    def isolation_ratios(self) -> Dict[str, float]:
        """Per-victim p99-with / p99-without (1.0 = perfect isolation).

        Both sides run at fixed capacity on byte-identical victim
        arrivals, so the ratio is contention and nothing else.  0.0
        stands in when the victim completed nothing in either run.
        """
        if (
            self.without_aggressor is None
            or self.with_aggressor_fixed is None
            or self.aggressor is None
        ):
            return {}
        out: Dict[str, float] = {}
        for name, with_r in self.with_aggressor_fixed.tenants.items():
            if name == self.aggressor:
                continue
            solo = self.without_aggressor.tenants[name]
            if with_r.p99_s > 0 and solo.p99_s > 0:
                out[name] = with_r.p99_s / solo.p99_s
            else:
                out[name] = 0.0
        return out

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready report (stable keys) for the CLI and the gate."""
        return {
            "day": self.result.as_dict(),
            "aggressor": self.aggressor or "",
            "isolation_p99_ratio": {
                name: ratio
                for name, ratio in sorted(self.isolation_ratios().items())
            },
        }


def default_production_config(
    seed: int = 0,
    day_s: float = 86_400.0,
    features: int = 32_000_000,
) -> TenancyConfig:
    """The canonical three-tenant production day.

    Sized so the diurnal mean sits well under one backend's saturation
    while the search tenant's evening flash crowd transiently exceeds
    it — the regime where weighted fairness, shedding policy, and the
    autoscaler all visibly matter.  ``search`` is interactive and the
    aggressor; ``analytics`` runs a mixed app batch workload;
    ``ingestpipe`` streams Zipf-skewed writes that trip the rebalancer.
    """
    return TenancyConfig(
        tenants=(
            TenantSpec(
                name="search",
                weight=3.0,
                base_qps=0.12,
                amplitude=0.6,
                phase=0.0,
                apps=(("tir", 1.0),),
                zipf_alpha=0.9,
                deadline_class="interactive",
                queue_bound=48,
                bursts=(BurstSpec(
                    start_fraction=0.55,
                    duration_fraction=0.0625,
                    multiplier=10.0,
                ),),
            ),
            TenantSpec(
                name="analytics",
                weight=1.0,
                base_qps=0.06,
                amplitude=0.3,
                phase=0.25,
                apps=(("tir", 0.5), ("mir", 0.5)),
                zipf_alpha=0.6,
                deadline_class="batch",
                queue_bound=96,
            ),
            TenantSpec(
                name="ingestpipe",
                weight=1.0,
                base_qps=0.05,
                amplitude=0.2,
                phase=0.5,
                apps=(("tir", 1.0),),
                write_fraction=0.6,
                ingest_key_alpha=1.2,
                deadline_class="standard",
                queue_bound=64,
            ),
        ),
        day_s=day_s,
        seed=seed,
        features=features,
        n_shards=4,
        n_replicas=2,
        max_batch=8,
        initial_backends=1,
        # replica 1 is shard 1's *intended primary* (shard % n_replicas),
        # so the outage actually prices a per-batch detection ladder —
        # killing the standby replica would cost nothing under the
        # cluster model's read-spread rotation
        failure=ShardFailureSpec(
            shard=1, replica=1, at_fraction=0.35, heal_fraction=0.45
        ),
        # burn thresholds: with a 0.99 target the budget is 1%, and
        # routine shared-scan batching alone pushes a few tail queries
        # past the latency SLO — burn ~0.5-1 is the quiescent hum, so
        # the up threshold sits at 3x (the classic fast-burn page) and
        # the down threshold under the hum, or the loop flaps all day
        autoscaler=AutoscalerConfig(
            min_backends=1,
            max_backends=3,
            window_s=day_s / 48.0,
            scale_up_threshold=3.0,
            scale_down_threshold=0.5,
            evaluate_interval_s=day_s / 144.0,
            cooldown_s=day_s / 48.0,
            actuation_s=300.0,
        ),
        skew_threshold=1.6,
        min_inserts=256,
    )


def run_production_day(
    config: Optional[TenancyConfig] = None,
    isolation: bool = True,
) -> ProductionDayReport:
    """Run the production day (and, when possible, its isolation pair).

    ``isolation=False`` skips the aggressor-removed rerun — half the
    wall-clock when only the main scorecard is wanted.
    """
    if config is None:
        config = default_production_config()
    server = MultiTenantServer(config)
    trace = generate_day(config)
    result = server.run(trace)
    aggressor = aggressor_of(config) if isolation else None
    with_fixed: Optional[DayResult] = None
    without: Optional[DayResult] = None
    if aggressor is not None and len(config.tenants) > 1:
        # surgical removal: the aggressor-free day is the full trace
        # minus the aggressor's arrivals, byte for byte (see
        # repro.tenancy.trace), so filter instead of regenerating
        solo_trace = [a for a in trace if a.tenant != aggressor]
        if solo_trace:
            with_fixed = server.run(trace, autoscale=False)
            without = server.run(solo_trace, autoscale=False)
        else:
            aggressor = None
    else:
        aggressor = None
    return ProductionDayReport(
        config=config,
        result=result,
        aggressor=aggressor,
        with_aggressor_fixed=with_fixed,
        without_aggressor=without,
    )


__all__ = [
    "ProductionDayReport",
    "default_production_config",
    "offered_summary",
    "run_production_day",
]
