"""Property suite: the host-speed simulator core against its oracles.

The event heap, scan-trace decoder, query-cache lookup matrix and
batched query noise in ``src/`` are representation changes with a hard
contract: every observable — fire order, simulated clock, heap
bookkeeping counters, scan traces, cycle tables, cache scores — must be
bit-identical to the plain implementation.  These properties drive the
production code against the reference implementations in
``tests/reference_impls.py`` (or against a loop written here) under
Hypothesis-generated interleavings, which is what caught the
heap-compaction accounting edge the example tests missed.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.query_cache import EmbeddingComparator, QueryCache
from repro.core.topk import TopKSorter
from repro.obs.tracer import Tracer
from repro.sim import Simulator, fastpath
from repro.sim.forkmap import available as fork_available
from repro.sim.forkmap import fork_map
from repro.ssd import Ssd
from repro.ssd.trace import scan_trace, scan_traces_by_channel
from repro.workloads.queries import QueryStream, ZipfSampler
from tests.reference_impls import ReferenceSimulator, reference_scan_trace

# ----------------------------------------------------------------------
# event heap: the (time, seq, event) heap vs the reference Event heap
# ----------------------------------------------------------------------
_dt = st.floats(min_value=0.0, max_value=8.0,
                allow_nan=False, allow_infinity=False)

#: one scripted scheduler operation: (kind, argument)
heap_ops = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), _dt),
        st.tuples(st.just("bulk"), st.lists(_dt, min_size=0, max_size=6)),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=40)),
        st.tuples(st.just("step"), st.none()),
        st.tuples(st.just("peek"), st.none()),
        st.tuples(st.just("until"), _dt),
        st.tuples(st.just("max_events"),
                  st.integers(min_value=0, max_value=5)),
        st.tuples(st.just("stop_when"),
                  st.integers(min_value=0, max_value=5)),
    ),
    min_size=0, max_size=40,
)


def _drive(sim, ops):
    """Run one op script on ``sim``; return every observable it names.

    Every third callback schedules one follow-up event from inside the
    drain loop, so scheduling while the heap is being drained is
    covered too.
    """
    log = []
    scheduled = []
    observations = []

    def mk(tag):
        def cb():
            log.append((tag, sim.now))
            if isinstance(tag, int) and tag % 3 == 0:
                scheduled.append(
                    sim.schedule(sim.now + 0.5, mk(("child", tag)))
                )
        return cb

    for kind, arg in ops:
        if kind == "schedule":
            scheduled.append(
                sim.schedule(sim.now + arg, mk(len(scheduled)))
            )
        elif kind == "bulk":
            times = [sim.now + dt for dt in arg]
            callbacks = [
                mk(len(scheduled) + i) for i in range(len(arg))
            ]
            scheduled.extend(sim.schedule_bulk(times, callbacks))
        elif kind == "cancel":
            if scheduled:
                scheduled[arg % len(scheduled)].cancel()
        elif kind == "step":
            observations.append(("step", sim.step(), sim.now))
        elif kind == "peek":
            observations.append(("peek", sim.peek()))
        elif kind == "until":
            sim.run(until=sim.now + arg)
            observations.append(("until", sim.now, len(log)))
        elif kind == "max_events":
            sim.run(max_events=arg)
            observations.append(("max_events", sim.now, len(log)))
        elif kind == "stop_when":
            target = len(log) + arg
            sim.run(stop_when=lambda: len(log) >= target)
            observations.append(("stop_when", sim.now, len(log)))
    sim.run()
    return (
        log,
        observations,
        sim.now,
        sim.events_processed,
        sim.pending_events,
        sim.cancelled_pending,
        sim.compactions,
    )


@settings(max_examples=120, deadline=None)
@given(ops=heap_ops)
def test_array_heap_matches_classic_heap(ops):
    """Fire order, clock, and every counter agree op-for-op."""
    assert _drive(Simulator(), ops) == _drive(ReferenceSimulator(), ops)


@settings(max_examples=80, deadline=None)
@given(ops=heap_ops)
def test_traced_run_matches_untraced(ops):
    """An attached tracer observes the drain loop without steering it.

    Both runs must fire the same callbacks at the same instants and end
    with the same counters; the tracer records exactly one
    ``sim.event`` instant per dispatched callback.
    """
    tracer = Tracer()
    traced = Simulator(tracer=tracer)
    outcome = _drive(traced, ops)
    assert outcome == _drive(Simulator(), ops)
    assert tracer.count("sim.event") == traced.events_processed


def test_compaction_counts_preserved_exactly():
    """Mass-cancel interleavings trigger identical compactions.

    The compaction threshold accounting is the regression this pins:
    the production heap must compact at the same instants as the
    reference and report the same ``compactions`` /
    ``cancelled_pending`` counts.
    """
    outcomes = []
    for sim in (Simulator(), ReferenceSimulator()):
        fired = []
        events = [
            sim.schedule(float(i % 97) / 7.0, lambda i=i: fired.append(i))
            for i in range(600)
        ]
        for i, event in enumerate(events):
            if i % 3:
                event.cancel()
        mid = (sim.compactions, sim.cancelled_pending, sim.pending_events)
        sim.run()
        outcomes.append(
            (mid, fired, sim.compactions, sim.cancelled_pending,
             sim.events_processed, sim.now)
        )
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][2] > 0  # the sweep actually compacted


@settings(max_examples=60, deadline=None)
@given(
    dts=st.lists(st.floats(min_value=0.0, max_value=5.0,
                           allow_nan=False, allow_infinity=False),
                 min_size=0, max_size=30),
)
def test_schedule_bulk_equals_n_schedules(dts):
    """One bulk call == the equivalent loop of single schedules."""
    def run(sim, bulk: bool):
        log = []
        callbacks = [lambda i=i: log.append((i, sim.now))
                     for i in range(len(dts))]
        if bulk:
            sim.schedule_bulk(list(dts), callbacks)
        else:
            for dt, callback in zip(dts, callbacks):
                sim.schedule(dt, callback)
        sim.run()
        return log, sim.now, sim.events_processed

    expect = run(ReferenceSimulator(), False)
    assert run(Simulator(), True) == expect
    assert run(Simulator(), False) == expect


# ----------------------------------------------------------------------
# precomputed cycle tables
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=64),
    n=st.integers(min_value=1, max_value=200_000),
)
def test_expected_topk_cycles_matches_sorter(k, n):
    """The memo table returns the sorter's closed form, float-exact."""
    assert fastpath.expected_topk_cycles(k, n) == (
        TopKSorter(k).expected_cycles_per_update(n)
    )


# ----------------------------------------------------------------------
# scan traces: numpy decoder vs the page-at-a-time generator
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def trace_db():
    ssd = Ssd()
    meta = ssd.ftl.create_database(1024, 4_000)
    return meta, ssd.config.geometry


@settings(max_examples=40, deadline=None)
@given(
    channel=st.one_of(st.none(), st.integers(min_value=0, max_value=7)),
    start=st.integers(min_value=0, max_value=400),
    window=st.one_of(st.none(), st.integers(min_value=-5, max_value=-1),
                     st.integers(min_value=0, max_value=300)),
)
@example(channel=None, start=0, window=-3)
def test_scan_trace_equals_generator(trace_db, channel, start, window):
    """Same pages, order and fields; a negative cap is an error."""
    meta, geometry = trace_db
    if channel is not None and channel >= geometry.channels:
        channel = channel % geometry.channels
    if window is not None and window < 0:
        with pytest.raises(ValueError, match="max_pages"):
            scan_trace(meta, geometry, channel=channel,
                       start_page=start, max_pages=window)
        return
    expect = list(reference_scan_trace(meta, geometry, channel=channel,
                                       start_page=start, max_pages=window))
    assert scan_trace(meta, geometry, channel=channel,
                      start_page=start, max_pages=window) == expect


def test_scan_traces_by_channel_equals_per_channel_scans(trace_db):
    meta, geometry = trace_db
    for cap in (None, 0, 5, 10_000):
        grouped = scan_traces_by_channel(
            meta, geometry, max_pages_per_channel=cap
        )
        assert sorted(grouped) == list(range(geometry.channels))
        for channel in range(geometry.channels):
            assert grouped[channel] == list(
                reference_scan_trace(meta, geometry, channel=channel,
                                     max_pages=cap)
            )
    with pytest.raises(ValueError, match="max_pages_per_channel"):
        scan_traces_by_channel(meta, geometry, max_pages_per_channel=-1)


# ----------------------------------------------------------------------
# fork pool
# ----------------------------------------------------------------------
@pytest.mark.skipif(not fork_available(), reason="no os.fork")
def test_fork_map_orders_and_propagates_errors():
    assert fork_map(lambda i: i * i, 6, processes=3) == [
        i * i for i in range(6)
    ]
    with pytest.raises(RuntimeError, match="worker 2 failed"):
        fork_map(lambda i: 1 // (2 - i), 4, processes=2)


# ----------------------------------------------------------------------
# query-cache lookup matrix
# ----------------------------------------------------------------------
cache_ops = st.lists(
    st.one_of(
        st.tuples(st.just("lookup"), st.integers(0, 2**16)),
        st.tuples(st.just("tagged"), st.integers(0, 2**16)),
        st.tuples(st.just("invalidate"), st.integers(0, 2)),
    ),
    min_size=1, max_size=60,
)


def _stacked_scores(cache, qfv, tag):
    """Algorithm 1's scores, rescored by stacking the candidate QFVs."""
    entries = [
        e for e in cache._entries.values() if tag is None or e.tag == tag
    ]
    if not entries:
        return None
    matrix = np.stack([e.qfv for e in entries])
    return cache.comparator.score_many(qfv, matrix) * cache.qcn_accuracy


@settings(max_examples=40, deadline=None)
@given(ops=cache_ops, capacity=st.integers(min_value=1, max_value=12))
def test_query_cache_matrix_equals_stacking(ops, capacity):
    """The maintained lookup matrix == fresh stack+convert per lookup."""
    cache = QueryCache(
        capacity=capacity,
        comparator=EmbeddingComparator(),
        threshold=0.25,
    )
    hits = misses = 0
    for kind, arg in ops:
        rng = np.random.default_rng(arg)
        q = rng.normal(0.0, 1.0, 8).astype(np.float32)
        if kind == "invalidate":
            cache.invalidate(lambda tag: tag == (arg,) or tag is None)
            continue
        tag = (arg % 3,) if kind == "tagged" else None
        scores = _stacked_scores(cache, q, tag)
        r = cache.lookup(q, tag=tag)
        if scores is None:
            assert (r.hit, r.best_score, r.entries_scanned) == (
                False, 0.0, 0
            )
        else:
            best = float(scores[int(scores.argmax())])
            assert r.best_score == best
            assert r.entries_scanned == len(scores)
            assert r.hit == ((1.0 - best) <= cache.threshold)
        hits += r.hit
        misses += not r.hit
        if not r.hit:
            cache.insert(q, np.zeros(3, np.float32), np.arange(3), tag=tag)
        assert cache._keys == list(cache._entries.keys())
    assert (cache.hits, cache.misses) == (hits, misses)


# ----------------------------------------------------------------------
# batched query-stream generation
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=60),
    seed=st.integers(min_value=0, max_value=2**10),
    distribution=st.sampled_from(["uniform", "zipf"]),
)
def test_query_stream_batched_noise_bit_equal(n, seed, distribution):
    """Batched normal draws == the sequential per-query loop."""
    stream = QueryStream(dim=16, n_intents=9, distribution=distribution,
                         alpha=0.8, paraphrase_noise=0.05, seed=seed)
    batched = stream.generate(n)
    # the per-query loop: one (dim,) normal draw per record, in order
    rng = np.random.default_rng(seed + 1)
    if distribution == "uniform":
        intents = rng.integers(0, stream.n_intents, n)
    else:
        intents = ZipfSampler(stream.n_intents, stream.alpha,
                              seed=seed + 2).sample(n)
    centroids = stream.centroids()
    for i, record in enumerate(batched):
        noise = rng.normal(0.0, stream.paraphrase_noise, stream.dim)
        qfv = (centroids[int(intents[i])] + noise).astype(np.float32)
        assert record.intent == int(intents[i]) and record.sequence == i
        assert record.qfv.dtype == qfv.dtype
        assert np.array_equal(record.qfv, qfv)
