"""The binary-heap scheduler: the timer wheel's differential oracle.

:class:`repro.sim.engine.Scheduler` runs on a timer wheel.  This module
keeps the pre-wheel binary-heap event loop, verbatim in behaviour, so the
test suite can drive both through identical workloads and demand identical
observables: fire order, ``now`` trajectory, event counts and errors
(``tests/property/test_wheel_vs_heap.py``, the backend-parametrized cases
in ``tests/unit/test_engine.py`` and the whole-cell differential in
``tests/integration/test_oracle_cells.py``).  It lives under ``tests/``
because no simulation needs it.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterable

from repro.errors import SimulationError
from repro.sim.engine import _CANCELLED, _FIRED, _PENDING, EventHandle, Scheduler, _Event

__all__ = ["HeapScheduler"]

#: sweep policy: rebuild the heap when at least this many cancelled events
#: are buried in it *and* they outnumber the live ones.
_SWEEP_MIN_DEAD = 64


class HeapScheduler(Scheduler):
    """The original binary-heap event loop, kept as the wheel's oracle.

    Slower on large or cancel-heavy runs (O(log n) inserts, whole-heap
    compaction) but structurally simple — differential runs against the
    wheel are the first tool to reach for when debugging an ordering
    suspicion.  It subclasses :class:`Scheduler`, so anything typed
    against the product scheduler accepts it, and it shares the product's
    ``_Event``/:class:`EventHandle` records and cancellation bookkeeping.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list[tuple[float, int, _Event]] = []
        self._seq = 0
        self._events_processed = 0
        self._stopped = False
        self._live = 0  # pending events in the heap
        self._dead = 0  # cancelled events awaiting lazy removal
        self._sweep_min = _SWEEP_MIN_DEAD  # original heap compaction trigger
        self._free: list[_Event] = []  # unused; kept for API symmetry

    # -- scheduling ------------------------------------------------------
    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> EventHandle:
        if time < self._now:
            raise SimulationError(
                f"cannot schedule an event at {time} before current time {self._now}"
            )
        event = _Event(time, self._seq, callback, args, self)
        heapq.heappush(self._heap, (time, self._seq, event))
        self._seq += 1
        self._live += 1
        return EventHandle(event)

    def schedule_after(self, delay: float, callback: Callable[..., None], *args: Any) -> EventHandle:
        if delay < 0:
            raise SimulationError(f"delay must be >= 0, got {delay}")
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_fire(self, time: float, callback: Callable[..., None], *args: Any) -> None:
        self.schedule_at(time, callback, *args)

    def schedule_batch(
        self,
        items: Iterable[tuple[float, Callable[..., None], tuple[Any, ...]]],
        *,
        handles: bool = True,
    ) -> list[EventHandle]:
        entries: list[tuple[float, int, _Event]] = []
        now = self._now
        seq = self._seq
        for time, callback, args in items:
            if time < now:
                raise SimulationError(
                    f"cannot schedule an event at {time} before current time {now}"
                )
            entries.append((time, seq, _Event(time, seq, callback, args, self)))
            seq += 1
        if not entries:
            return []
        self._seq = seq
        self._live += len(entries)
        heap = self._heap
        if len(entries) * 4 >= len(heap):
            heap.extend(entries)
            heapq.heapify(heap)
        else:
            push = heapq.heappush
            for entry in entries:
                push(heap, entry)
        if not handles:
            return []
        return [EventHandle(entry[2]) for entry in entries]

    # -- internal maintenance -------------------------------------------
    def _sweep(self) -> None:
        """Drop buried cancelled events and rebuild the heap.

        ``(time, seq)`` totally orders events, so heapify after filtering
        reproduces the exact pop order the full heap would have produced.
        """
        self._heap = [entry for entry in self._heap if entry[2].state == _PENDING]
        heapq.heapify(self._heap)
        self._dead = 0

    # -- the event loop ---------------------------------------------------
    def run(self, *, until: float | None = None, max_events: int | None = None) -> int:
        if until is not None and until < self._now:
            raise SimulationError(f"cannot run until {until}, already at {self._now}")
        self._stopped = False
        processed = 0
        truncated = False  # stopped early with events <= `until` still pending
        heap = self._heap
        pop = heapq.heappop
        while heap and not self._stopped:
            if max_events is not None and processed >= max_events:
                # Only live events count (the heap may still hold cancelled
                # garbage); keeps `now` identical to the wheel,
                # which reaps garbage on a different cadence.
                if self._live:
                    truncated = True
                break
            event = heap[0][2]
            if event.state == _CANCELLED:
                pop(heap)
                self._dead -= 1
                continue
            if until is not None and event.time > until:
                break
            pop(heap)
            event.state = _FIRED
            self._live -= 1
            self._now = event.time
            event.callback(*event.args)
            processed += 1
            self._events_processed += 1
            if heap is not self._heap:
                # The callback cancelled enough events to trigger a sweep,
                # which rebuilt the heap: rebind the local alias.
                heap = self._heap
        # Only advance to `until` when every event at or before it has been
        # processed.  After a `max_events` (or `stop()`) break, pending
        # events earlier than `until` may remain — jumping the clock over
        # them would make time run backwards on the next `run` call.
        if until is not None and not self._stopped and not truncated:
            self._now = max(self._now, until)
        return processed
