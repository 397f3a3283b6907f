"""Reference implementations the simulator core is checked against.

These are the plain, page-at-a-time and object-at-a-time versions of
code whose production form in ``src/`` is tuned for host speed:

* :class:`ReferenceSimulator` orders :class:`~repro.sim.engine.Event`
  objects directly in a ``heapq`` (python-level ``(time, seq)``
  comparisons) and runs by looping over ``peek`` and ``step``;
* :func:`reference_scan_trace` decodes a scan one page at a time with
  :meth:`SsdGeometry.ppn_to_address`;
* :func:`reference_thinned_process` generates a tenant's thinned
  Poisson process one arrival at a time, with one ``rng.choice`` app
  pick and one ``ZipfSampler.sample(1)`` intent or key per arrival;
* :func:`reference_expire` sheds a deadline queue's over-age queries by
  rebuilding every class deque on every call.

They are deliberately slow and obvious.  ``tests/test_sim_fastpath.py``,
``tests/test_tenancy_trace.py`` and ``tests/test_tenancy_admission.py``
require the production code to match them observable-for-observable.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.sim.engine import Event, SimulationError, _released_callback
from repro.ssd.ftl import DatabaseMetadata
from repro.ssd.geometry import SsdGeometry
from repro.serving.admission import AdmissionQueue
from repro.ssd.trace import PageAccess
from repro.tenancy.spec import TenantSpec
from repro.tenancy.trace import TenantArrival, diurnal_rate
from repro.workloads.queries import ZipfSampler


class ReferenceSimulator:
    """Event-heap scheduler with the production compaction accounting.

    Same public surface and counters as :class:`repro.sim.Simulator`
    (no tracer): ``schedule``, ``schedule_bulk``, ``step``, ``peek``,
    ``run``, ``now``, ``events_processed``, ``pending_events``,
    ``cancelled_pending`` and ``compactions``.
    """

    COMPACT_MIN_HEAP = 8

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._counter = itertools.count()
        self.now = 0.0
        self.events_processed = 0
        self.cancelled_pending = 0
        self.compactions = 0

    @property
    def pending_events(self) -> int:
        """Live (non-cancelled) events still waiting in the heap."""
        return len(self._heap) - self.cancelled_pending

    def _note_cancelled(self) -> None:
        """Called by :meth:`Event.cancel`; rebuilds when >50% is dead."""
        self.cancelled_pending += 1
        if (
            len(self._heap) > self.COMPACT_MIN_HEAP
            and self.cancelled_pending * 2 > len(self._heap)
        ):
            self._heap = [e for e in self._heap if not e.cancelled]
            heapq.heapify(self._heap)
            self.cancelled_pending = 0
            self.compactions += 1

    def schedule(
        self, time: float, callback: Callable[[], None], label: str = ""
    ) -> Event:
        """Push one event at absolute ``time``."""
        if time < self.now:
            raise SimulationError(f"cannot schedule at {time} < {self.now}")
        event = Event(time=time, seq=next(self._counter), callback=callback,
                      label=label, sim=self)  # type: ignore[arg-type]
        heapq.heappush(self._heap, event)
        return event

    def schedule_bulk(
        self,
        times: Sequence[float],
        callbacks: Sequence[Callable[[], None]],
        label: str = "",
    ) -> List[Event]:
        """N single :meth:`schedule` calls, after validating them all."""
        if len(times) != len(callbacks):
            raise SimulationError("times and callbacks must align")
        for time in times:
            if time < self.now:
                raise SimulationError(f"cannot schedule at {time} < {self.now}")
        return [self.schedule(t, cb, label) for t, cb in zip(times, callbacks)]

    def peek(self) -> Optional[float]:
        """Time of the next live event, popping cancelled ones first."""
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
            self.cancelled_pending -= 1
        return self._heap[0].time if self._heap else None

    def step(self) -> bool:
        """Run the next live event; False when none remain."""
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                self.cancelled_pending -= 1
                continue
            self.now = event.time
            self.events_processed += 1
            event.sim = None
            callback, event.callback = event.callback, _released_callback
            callback()
            return True
        return False

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        stop_when: Optional[Callable[[], bool]] = None,
    ) -> None:
        """Loop over :meth:`peek` and :meth:`step` until a stop rule."""
        executed = 0
        while True:
            next_time = self.peek()
            if next_time is None:
                return
            if until is not None and next_time > until:
                self.now = until
                return
            self.step()
            executed += 1
            if stop_when is not None and stop_when():
                return
            if max_events is not None and executed >= max_events:
                return


def reference_scan_trace(
    meta: DatabaseMetadata,
    geometry: SsdGeometry,
    channel: Optional[int] = None,
    start_page: int = 0,
    max_pages: Optional[int] = None,
) -> Iterator[PageAccess]:
    """Yield a scan's page accesses one scalar decode at a time."""
    if channel is not None and not 0 <= channel < geometry.channels:
        raise ValueError(f"channel {channel} out of range")
    if max_pages is not None and max_pages <= 0:
        return
    emitted = 0
    for offset, ppn in enumerate(meta.all_ppns()):
        if offset < start_page:
            continue
        address = geometry.ppn_to_address(ppn)
        if channel is not None and address.channel != channel:
            continue
        yield PageAccess(ppn=ppn, address=address, db_page_offset=offset)
        emitted += 1
        if max_pages is not None and emitted >= max_pages:
            return


def reference_thinned_process(
    spec: TenantSpec,
    day_s: float,
    crest: float,
    window: Tuple[float, float],
    scale: float,
    rng: np.random.Generator,
    burst: bool,
) -> List[TenantArrival]:
    """Drop-in for ``repro.tenancy.trace._thinned_process`` that marks
    each accepted candidate as it goes: ``rng.choice`` for the app and
    one ``sample(1)`` from the intent or key sampler."""
    start, end = window
    envelope = scale * crest
    if envelope <= 0.0 or end <= start:
        return []
    apps = [app for app, _f in spec.apps]
    app_probs = np.array([f for _a, f in spec.apps], dtype=np.float64)
    app_probs = app_probs / app_probs.sum()
    intent_sampler = ZipfSampler(
        spec.n_intents, spec.zipf_alpha,
        seed=int(rng.integers(0, 2**31 - 1)),
    )
    key_sampler = ZipfSampler(
        spec.ingest_key_universe, spec.ingest_key_alpha,
        seed=int(rng.integers(0, 2**31 - 1)),
    )
    out: List[TenantArrival] = []
    t = start
    while True:
        t += float(rng.exponential(1.0 / envelope))
        if t >= end:
            break
        accept = float(rng.random())
        if accept * crest > diurnal_rate(spec, t, day_s):
            continue
        is_write = (
            spec.write_fraction > 0.0
            and float(rng.random()) < spec.write_fraction
        )
        if is_write:
            out.append(TenantArrival(
                time_s=t, tenant=spec.name, app=apps[0], kind="ingest",
                intent=-1, key=int(key_sampler.sample(1)[0]), burst=burst,
            ))
        else:
            app = apps[int(rng.choice(len(apps), p=app_probs))]
            out.append(TenantArrival(
                time_s=t, tenant=spec.name, app=app, kind="query",
                intent=int(intent_sampler.sample(1)[0]), key=-1,
                burst=burst,
            ))
    return out


def reference_expire(queue: AdmissionQueue, now: float) -> None:
    """Drop-in for ``AdmissionQueue._expire`` that rebuilds every class
    deque on every call, whether or not anything expired."""
    if queue.policy != "deadline":
        return
    assert queue.deadline_s is not None
    for klass in queue._classes.values():
        survivors = deque(
            q for q in klass if now - q.arrival_s <= queue.deadline_s
        )
        if len(survivors) != len(klass):
            for q in klass:
                if now - q.arrival_s > queue.deadline_s:
                    queue.counters.expired += 1
                    queue._shed_log.append((q, "expired"))
            queue._depth -= len(klass) - len(survivors)
            klass.clear()
            klass.extend(survivors)
