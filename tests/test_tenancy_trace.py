"""Diurnal trace generator: determinism + shape properties (ISSUE
satellite).

Hypothesis sweeps tenant parameters and pins the four properties the
isolation methodology depends on: bit-identical regeneration under the
same seed, monotone non-decreasing timestamps inside the day, burst
arrivals confined to their declared windows, and **surgical removal**
(excluding one tenant, or stripping one tenant's bursts, leaves every
other arrival byte-identical — the paired noisy-neighbor runs measure
contention, not a reroll).
"""

import math
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.tenancy import trace as trace_module
from repro.tenancy.spec import KNOWN_APPS, BurstSpec, TenancyConfig, TenantSpec
from repro.tenancy.trace import (
    aggressor_of,
    diurnal_rate,
    generate_day,
    offered_summary,
    peak_window_qps,
    tenant_day,
)
from tests.reference_impls import reference_thinned_process

DAY_S = 4000.0

tenant_specs = st.builds(
    TenantSpec,
    name=st.just("t"),
    base_qps=st.floats(min_value=0.01, max_value=0.3, allow_nan=False),
    amplitude=st.floats(min_value=0.0, max_value=0.95, allow_nan=False),
    phase=st.floats(min_value=0.0, max_value=0.99, allow_nan=False),
    zipf_alpha=st.floats(min_value=0.0, max_value=1.5, allow_nan=False),
    write_fraction=st.sampled_from([0.0, 0.3]),
    ingest_key_alpha=st.just(1.0),
    bursts=st.one_of(
        st.just(()),
        st.tuples(st.builds(
            BurstSpec,
            start_fraction=st.floats(min_value=0.1, max_value=0.6,
                                     allow_nan=False),
            duration_fraction=st.floats(min_value=0.02, max_value=0.2,
                                        allow_nan=False),
            multiplier=st.floats(min_value=1.5, max_value=8.0,
                                 allow_nan=False),
        )),
    ),
)


@settings(max_examples=40, deadline=None)
@given(spec=tenant_specs, seed=st.integers(min_value=0, max_value=2**16))
def test_trace_deterministic_monotone_contained(spec, seed):
    first = tenant_day(spec, 0, DAY_S, seed)
    again = tenant_day(spec, 0, DAY_S, seed)
    # bit-identical under the same seed (frozen dataclass equality
    # compares every field, floats included)
    assert first == again
    last = 0.0
    for a in first:
        assert 0.0 <= a.time_s < DAY_S
        assert a.time_s >= last
        last = a.time_s
        if a.burst:
            lo, hi = spec.bursts[0].window_s(DAY_S)
            assert lo <= a.time_s < hi
        if a.kind == "ingest":
            assert a.intent == -1 and a.key >= 0
        else:
            assert a.key == -1 and 0 <= a.intent < spec.n_intents
            assert a.app in [app for app, _f in spec.apps]


@settings(max_examples=30, deadline=None)
@given(spec=tenant_specs, seed=st.integers(min_value=0, max_value=2**16))
def test_burst_strip_is_surgical(spec, seed):
    full = tenant_day(spec, 0, DAY_S, seed)
    base_only = tenant_day(spec, 0, DAY_S, seed, include_bursts=False)
    # stripping bursts removes exactly the burst-marked arrivals and
    # leaves every base arrival byte-identical
    assert [a for a in full if not a.burst] == base_only
    assert all(not a.burst for a in base_only)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16),
       other_seed=st.integers(min_value=2**16 + 1, max_value=2**17))
def test_tenant_exclusion_is_surgical(seed, other_seed):
    cfg = TenancyConfig(
        tenants=(
            TenantSpec(name="victim", base_qps=0.05),
            TenantSpec(
                name="aggressor", base_qps=0.08,
                bursts=(BurstSpec(start_fraction=0.4,
                                  duration_fraction=0.1,
                                  multiplier=5.0),),
            ),
        ),
        day_s=DAY_S,
        seed=seed,
    )
    full = generate_day(cfg)
    solo = generate_day(cfg, exclude=("aggressor",))
    assert [a for a in full if a.tenant == "victim"] == solo
    # and a different seed is a genuinely different day
    reseeded = generate_day(
        TenancyConfig(tenants=cfg.tenants, day_s=DAY_S, seed=other_seed)
    )
    assert reseeded != full


def _normalised(weights):
    total = sum(weights)
    return [w / total for w in weights]


#: 1-3 distinct apps with fractions that sum to 1 (within 1e-9)
app_mixes = st.lists(
    st.sampled_from(KNOWN_APPS), min_size=1, max_size=3, unique=True,
).flatmap(lambda apps: st.lists(
    st.floats(min_value=0.1, max_value=1.0, allow_nan=False),
    min_size=len(apps), max_size=len(apps),
).map(lambda weights: tuple(zip(apps, _normalised(weights)))))

burst_specs = st.builds(
    BurstSpec,
    start_fraction=st.floats(min_value=0.05, max_value=0.5,
                             allow_nan=False),
    duration_fraction=st.floats(min_value=0.02, max_value=0.2,
                                allow_nan=False),
    multiplier=st.floats(min_value=1.5, max_value=6.0, allow_nan=False),
)

oracle_specs = st.builds(
    TenantSpec,
    name=st.just("t"),
    base_qps=st.floats(min_value=0.01, max_value=0.3, allow_nan=False),
    amplitude=st.floats(min_value=0.0, max_value=0.95, allow_nan=False),
    phase=st.floats(min_value=0.0, max_value=0.99, allow_nan=False),
    apps=app_mixes,
    zipf_alpha=st.floats(min_value=0.0, max_value=1.5, allow_nan=False),
    n_intents=st.integers(min_value=1, max_value=64),
    write_fraction=st.sampled_from([0.0, 0.3, 0.8]),
    ingest_key_alpha=st.floats(min_value=0.0, max_value=1.5,
                               allow_nan=False),
    ingest_key_universe=st.integers(min_value=1, max_value=4096),
    bursts=st.lists(burst_specs, max_size=2).map(tuple),
)


@settings(max_examples=40, deadline=None)
@given(spec=oracle_specs,
       tenant_index=st.integers(min_value=0, max_value=3),
       seed=st.integers(min_value=0, max_value=2**16))
def test_tenant_day_matches_per_arrival_oracle(spec, tenant_index, seed):
    # the bulk-draw generator must reproduce the per-arrival one field
    # for field: same times, kinds, apps, intents and keys
    got = tenant_day(spec, tenant_index, DAY_S, seed)
    with mock.patch.object(
        trace_module, "_thinned_process", reference_thinned_process
    ):
        want = tenant_day(spec, tenant_index, DAY_S, seed)
    assert got == want


def test_diurnal_rate_shape():
    spec = TenantSpec(name="t", base_qps=0.1, amplitude=0.5, phase=0.25)
    # crest sits a quarter-day after the phase offset
    crest_t = (0.25 + 0.25) * DAY_S
    assert diurnal_rate(spec, crest_t, DAY_S) == 0.1 * 1.5
    trough_t = (0.25 + 0.75) * DAY_S
    assert math.isclose(
        diurnal_rate(spec, trough_t, DAY_S), 0.05, abs_tol=1e-12
    )
    assert all(
        diurnal_rate(spec, f * DAY_S, DAY_S) >= 0.0
        for f in (0.0, 0.1, 0.37, 0.5, 0.9)
    )


def test_burst_lifts_offered_rate():
    burst = BurstSpec(start_fraction=0.25, duration_fraction=0.25,
                      multiplier=6.0)
    spec = TenantSpec(name="t", base_qps=0.2, amplitude=0.0,
                      bursts=(burst,))
    arrivals = tenant_day(spec, 0, DAY_S, seed=3)
    lo, hi = burst.window_s(DAY_S)
    inside = sum(1 for a in arrivals if lo <= a.time_s < hi)
    outside = len(arrivals) - inside
    in_rate = inside / (hi - lo)
    out_rate = outside / (DAY_S - (hi - lo))
    # flat diurnal: the window should offer ~multiplier x the base
    assert 4.0 < in_rate / out_rate < 8.0
    assert peak_window_qps(arrivals, window_s=200.0) > out_rate * 3


def test_offered_summary_and_aggressor():
    cfg = TenancyConfig(
        tenants=(
            TenantSpec(name="quiet", base_qps=0.05, write_fraction=0.5,
                       ingest_key_alpha=1.0),
            TenantSpec(
                name="noisy", base_qps=0.05,
                bursts=(BurstSpec(start_fraction=0.5,
                                  duration_fraction=0.1,
                                  multiplier=4.0),),
            ),
        ),
        day_s=DAY_S,
        seed=11,
    )
    assert aggressor_of(cfg) == "noisy"
    summary = offered_summary(generate_day(cfg))
    assert set(summary) == {"quiet", "noisy"}
    for row in summary.values():
        assert row["offered"] == row["queries"] + row["writes"]
    assert summary["quiet"]["writes"] > 0
    assert summary["quiet"]["burst"] == 0
    assert summary["noisy"]["burst"] > 0
    # nobody bursts -> no aggressor, no isolation pair
    assert aggressor_of(TenancyConfig(
        tenants=(TenantSpec(name="quiet"),)
    )) is None
