"""Host-time spans around the program's layer boundaries.

The program has no host-time instrumentation of its own, so the traced
run wraps public functions and methods of ``repro`` from outside: each
entry in :data:`BOUNDARIES` names one callable, the span it records and
the counts it adds.  :func:`installed` swaps the wrappers in and puts
the originals back afterwards, so untraced rounds run the program
untouched.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index
of the enclosing span (-1 at top level) and ``op`` the benchmark
operation that caused it.  Spans stay in memory until the run ends.  A
span's *self time* is its duration minus the time its child spans
cover; because spans nest strictly, the self times of every span under
a round's root add up to the round's wall time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

perf_counter = time.perf_counter

#: span recorded around each benchmark round; its self time is the
#: benchmark's own loop, the share no layer accounts for
ROOT = "bench.round"


class SpanLog:
    """In-memory span and count store for one traced run."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        #: id of the benchmark operation in flight (-1: none)
        self.op = -1

    def open(self, name: str) -> list:
        """Start a span under the innermost open one."""
        parent = self._stack[-1] if self._stack else -1
        record = [name, perf_counter(), 0.0, parent, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def close(self, record: list) -> None:
        """End the innermost span (``record``)."""
        record[2] = perf_counter()
        self._stack.pop()

    def parent_name(self) -> Optional[str]:
        """Name of the innermost open span, if any."""
        return self.spans[self._stack[-1]][0] if self._stack else None

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Context-manager form of :meth:`open`/:meth:`close`."""
        record = self.open(name)
        try:
            yield
        finally:
            self.close(record)

    def self_times(self) -> Dict[str, float]:
        """Summed self time per span name."""
        totals: Dict[str, float] = defaultdict(float)
        for names in self.self_times_by_root().values():
            for name, seconds in names.items():
                totals[name] += seconds
        return dict(totals)

    def self_times_by_root(self) -> Dict[str, Dict[str, float]]:
        """Self time per span name, grouped by top-level span name."""
        spans = self.spans
        child = [0.0] * len(spans)
        root = [0] * len(spans)
        for i, record in enumerate(spans):
            parent = record[3]
            root[i] = i if parent < 0 else root[parent]
            if parent >= 0:
                child[parent] += record[2] - record[1]
        out: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, record in enumerate(spans):
            out[spans[root[i]][0]][record[0]] += (record[2] - record[1]) - child[i]
        return {r: dict(names) for r, names in out.items()}

    def durations(self, name: str) -> float:
        """Summed inclusive duration of spans called ``name``."""
        return sum(r[2] - r[1] for r in self.spans if r[0] == name)

    def to_json(self) -> Dict[str, Any]:
        """The artifact form: interned names plus one row per span."""
        names: Dict[str, int] = {}
        rows = []
        for name, start, end, parent, op in self.spans:
            index = names.setdefault(name, len(names))
            rows.append([index, start, end, parent, op])
        return {
            "fields": ["name", "start_s", "end_s", "parent", "op"],
            "names": list(names),
            "spans": rows,
        }


# ----------------------------------------------------------------------
# counters: (log, call args, result, value ``before`` read) -> None
# ----------------------------------------------------------------------
def _rows_of_feeds(log: SpanLog, args: tuple, result: Any, before: Any) -> None:
    feeds = args[1]
    log.counts["nn.forward_rows"] += len(next(iter(feeds.values())))


def _train_pairs(log: SpanLog, args: tuple, result: Any, before: Any) -> None:
    trainer = args[0]
    log.counts["nn.train_pairs"] += len(args[1]) * trainer.config.epochs


def _top_level(name: str, counter: str) -> Callable:
    """Count a call only when it is not nested in a span of its own name
    (``IndexedDevice.query`` reaches ``DeepStoreDevice.query`` through
    ``super()``; ``update_db_row`` is a delete plus an insert)."""

    def count(log: SpanLog, args: tuple, result: Any, before: Any) -> None:
        if log.parent_name() != name:
            log.counts[counter] += 1

    return count


def _cache_lookup(log: SpanLog, args: tuple, result: Any, before: Any) -> None:
    log.counts["core.cache_lookups"] += 1
    log.counts["core.cache_hits"] += int(bool(result.hit))


def _pages_decoded(log: SpanLog, args: tuple, result: Any, before: Any) -> None:
    log.counts["ssd.pages_decoded"] += sum(len(t) for t in result.values())


def _sim_events(log: SpanLog, args: tuple, result: Any, before: Any) -> None:
    log.counts["sim.events"] += args[0].events_processed - before


def _ftl_program(log: SpanLog, args: tuple, result: Any, before: Any) -> None:
    moved = args[0].stats.relocations - before
    log.counts["ssd.pages_programmed"] += 1 + moved
    log.counts["ssd.gc_pages_moved"] += moved


def _wfq_batches(log: SpanLog, args: tuple, result: Any, before: Any) -> None:
    if result[1]:
        log.counts["tenancy.batches"] += 1


def _count(counter: str) -> Callable:
    def count(log: SpanLog, args: tuple, result: Any, before: Any) -> None:
        log.counts[counter] += 1

    return count


@dataclass(frozen=True)
class Boundary:
    """One wrapped callable: ``module:Owner.attr`` or ``module:function``."""

    span: str
    target: str
    count: Optional[Callable] = None
    #: reads the state ``count`` diffs against, from the call's args
    before: Optional[Callable[[tuple], Any]] = None


#: every layer boundary the traced run records; the span names are the
#: per-layer ``<span>_s`` self-time metrics
BOUNDARIES: Tuple[Boundary, ...] = (
    Boundary("nn.forward", "repro.nn.graph:Graph.forward", _rows_of_feeds),
    Boundary("nn.backward", "repro.nn.graph:Graph.backward"),
    Boundary("nn.fit", "repro.nn.training:PairTrainer.fit", _train_pairs),
    Boundary(
        "core.query", "repro.core.api:DeepStoreDevice.query",
        _top_level("core.query", "core.queries"),
    ),
    Boundary(
        "core.query", "repro.ingest.device:LifecycleDevice.query",
        _top_level("core.query", "core.queries"),
    ),
    Boundary(
        "core.query", "repro.index.device:IndexedDevice.query",
        _top_level("core.query", "core.queries"),
    ),
    Boundary(
        "core.cache_lookup", "repro.core.query_cache:QueryCache.lookup",
        _cache_lookup,
    ),
    Boundary("core.des", "repro.core.event_query:EventQuerySimulator.run"),
    Boundary(
        "ssd.trace_decode", "repro.ssd.trace:scan_traces_by_channel",
        _pages_decoded,
    ),
    Boundary(
        "ssd.ftl_write", "repro.ssd.gc:PageMappedFtl.write", _ftl_program,
        before=lambda args: args[0].stats.relocations,
    ),
    Boundary(
        "sim.run", "repro.sim.engine:Simulator.run", _sim_events,
        before=lambda args: args[0].events_processed,
    ),
    Boundary(
        "ingest.mutate", "repro.ingest.device:LifecycleDevice.insert_db",
        _top_level("ingest.mutate", "ingest.mutations"),
    ),
    Boundary(
        "ingest.mutate", "repro.ingest.device:LifecycleDevice.delete_db_rows",
        _top_level("ingest.mutate", "ingest.mutations"),
    ),
    Boundary(
        "ingest.mutate", "repro.ingest.device:LifecycleDevice.update_db_row",
        _top_level("ingest.mutate", "ingest.mutations"),
    ),
    Boundary("ingest.compact", "repro.ingest.device:LifecycleDevice.compact_db"),
    Boundary("ingest.compact", "repro.index.device:IndexedDevice.compact_db"),
    Boundary(
        "index.build", "repro.index.device:IndexedDevice.build_index",
        _top_level("index.build", "index.builds"),
    ),
    Boundary("index.kmeans", "repro.index.kmeans:train_kmeans"),
    Boundary("index.route", "repro.index.router:CentroidRouter.route"),
    Boundary("tenancy.trace_gen", "repro.tenancy.trace:generate_day"),
    Boundary("tenancy.serve", "repro.tenancy.server:MultiTenantServer.run"),
    Boundary(
        "tenancy.wfq_pop", "repro.tenancy.admission:WeightedFairQueue.pop_batch",
        _wfq_batches,
    ),
    Boundary(
        "workloads.query_sample", "repro.workloads.queries:ZipfSampler.sample",
    ),
    Boundary("workloads.train_scn", "repro.workloads.pretrained:train_scn"),
    Boundary("workloads.build_scn", "repro.workloads.apps:AppSpec.build_scn"),
    Boundary(
        "workloads.make_features", "repro.workloads.features:make_clustered_features",
    ),
    Boundary("workloads.make_pairs", "repro.nn.training:make_pair_dataset"),
    Boundary("core.write_db", "repro.core.api:DeepStoreDevice.write_db"),
    Boundary("ingest.enable", "repro.ingest.device:LifecycleDevice.enable_ingest"),
    Boundary("tenancy.server_init", "repro.tenancy.server:MultiTenantServer.__init__"),
    Boundary(
        "obs.slo_record", "repro.obs.slo:SloMonitor.record",
        _count("obs.slo_records"),
    ),
)


#: per-layer metrics: (name, unit, better, which end-to-end metric it
#: should move, on which workload).  ``<span>_s`` is the span's self
#: time, other names are counts or ratios; all are per traced round of
#: set-up plus timed work.
PER_LAYER: Tuple[Tuple[str, str, str, str], ...] = (
    ("nn.forward_s", "s", "lower",
     "host_ops_per_s on device_query/ingest_index; setup_s (SCN training)"),
    ("nn.forward_rows", "rows", "lower", "host_ops_per_s on device_query/ingest_index"),
    ("nn.backward_s", "s", "lower",
     "host_ops_per_s on scn_train; setup_s on device_query/ingest_index"),
    ("nn.fit_s", "s", "lower", "host_ops_per_s on scn_train (optimizer update)"),
    ("nn.train_pairs", "pairs", "higher", "host_ops_per_s on scn_train; setup_s"),
    ("core.query_s", "s", "lower",
     "host_ops_per_s on device_query/ingest_index (device query minus nn)"),
    ("core.queries", "count", "higher", "host_ops_per_s on device_query/ingest_index"),
    ("core.cache_lookup_s", "s", "lower", "host_ops_per_s on device_query"),
    ("core.cache_lookups", "count", "higher", "host_ops_per_s on device_query"),
    ("core.cache_hit_ratio", "ratio", "higher",
     "host_ops_per_s and sim_query_ms_p50 on device_query"),
    ("core.des_s", "s", "lower", "host_ops_per_s on device_query"),
    ("ssd.trace_decode_s", "s", "lower", "host_ops_per_s on device_query"),
    ("ssd.pages_decoded", "pages", "lower", "host_ops_per_s on device_query"),
    ("ssd.ftl_write_s", "s", "lower", "host_ops_per_s and sim_write_amp on ingest_index"),
    ("ssd.pages_programmed", "pages", "lower",
     "host_ops_per_s and sim_write_amp on ingest_index"),
    ("ssd.gc_pages_moved", "pages", "lower", "sim_write_amp on ingest_index"),
    ("sim.run_s", "s", "lower",
     "host_ops_per_s on tenant_day; DES share of device_query"),
    ("sim.events", "count", "lower", "host_ops_per_s on tenant_day and device_query"),
    ("sim.events_per_s", "1/s", "higher", "host_ops_per_s on tenant_day"),
    ("ingest.mutate_s", "s", "lower", "host_ops_per_s on ingest_index"),
    ("ingest.mutations", "count", "higher", "host_ops_per_s on ingest_index"),
    ("ingest.compact_s", "s", "lower", "host_ops_per_s and sim_write_amp on ingest_index"),
    ("index.build_s", "s", "lower", "host_ops_per_s on ingest_index (IVF layout)"),
    ("index.builds", "count", "lower", "host_ops_per_s on ingest_index"),
    ("index.kmeans_s", "s", "lower", "host_ops_per_s on ingest_index"),
    ("index.route_s", "s", "lower",
     "host_ops_per_s and sim_query_ms_p50 on ingest_index"),
    ("index.probed_row_frac", "ratio", "lower",
     "host_ops_per_s, sim_query_ms_p50 and recall_at_k on ingest_index"),
    ("tenancy.trace_gen_s", "s", "lower", "host_ops_per_s on tenant_day"),
    ("tenancy.serve_s", "s", "lower", "host_ops_per_s on tenant_day"),
    ("tenancy.wfq_pop_s", "s", "lower", "host_ops_per_s on tenant_day"),
    ("tenancy.batches", "count", "lower", "host_ops_per_s on tenant_day"),
    ("tenancy.shed_frac", "ratio", "lower", "sim_slo_attainment_min on tenant_day"),
    ("workloads.query_sample_s", "s", "lower", "host_ops_per_s on tenant_day"),
    ("workloads.train_scn_s", "s", "lower", "setup_s on device_query/ingest_index"),
    ("workloads.build_scn_s", "s", "lower", "setup_s on every SCN workload"),
    ("workloads.make_features_s", "s", "lower", "setup_s on device_query/ingest_index"),
    ("workloads.make_pairs_s", "s", "lower", "setup_s on scn_train and SCN training"),
    ("core.write_db_s", "s", "lower", "setup_s on device_query/ingest_index"),
    ("ingest.enable_s", "s", "lower", "setup_s on ingest_index"),
    ("tenancy.server_init_s", "s", "lower", "setup_s on tenant_day"),
    ("obs.slo_record_s", "s", "lower", "host_ops_per_s on tenant_day"),
    ("obs.slo_records", "count", "lower", "host_ops_per_s on tenant_day"),
    ("trace.glue_frac", "ratio", "lower",
     "share of traced wall time outside every layer span (benchmark loop)"),
    ("trace.overhead_frac", "ratio", "lower",
     "untraced over traced host_ops_per_s, minus 1"),
    ("trace.spans", "count", "lower", "spans recorded per traced round"),
)


def _wrap(log: SpanLog, boundary: Boundary, fn: Callable) -> Callable:
    name, count, before = boundary.span, boundary.count, boundary.before

    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        state = before(args) if before is not None else None
        record = log.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            log.close(record)
        if count is not None:
            count(log, args, result, state)
        return result

    return traced


def _resolve(target: str) -> Tuple[Any, str, Optional[Any]]:
    """(module, attribute, owning class or None) of a boundary target."""
    module_name, path = target.split(":")
    module = importlib.import_module(module_name)
    if "." in path:
        owner_name, attr = path.split(".")
        return module, attr, getattr(module, owner_name)
    return module, path, None


@contextmanager
def installed(log: SpanLog) -> Iterator[None]:
    """Wrap every boundary for the duration of the block.

    A module-level function is also replaced in every ``repro`` module
    that imported it by name, so ``from x import f`` call sites are
    traced too.
    """
    undo: List[Tuple[Any, str, Any]] = []
    try:
        for boundary in BOUNDARIES:
            module, attr, owner = _resolve(boundary.target)
            if owner is not None:
                original = owner.__dict__[attr]
                undo.append((owner, attr, original))
                setattr(owner, attr, _wrap(log, boundary, original))
                continue
            original = getattr(module, attr)
            wrapped = _wrap(log, boundary, original)
            for mod in list(sys.modules.values()):
                name = getattr(mod, "__name__", "")
                if name.startswith("repro") and getattr(mod, attr, None) is original:
                    undo.append((mod, attr, original))
                    setattr(mod, attr, wrapped)
        yield
    finally:
        for holder, attr, original in reversed(undo):
            setattr(holder, attr, original)
