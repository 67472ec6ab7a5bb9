"""Host speed probes: fixed pure-Python workloads timed next to the work.

On a shared host the same cell's time swings by up to 2x within seconds,
as other tenants load the machine.  A probe is a small, deterministic
interpreter workload of the same kind as the work it is timed next to:

* the event probe, like the simulator's hot path: integer arithmetic, a
  heap-ordered event loop over ``__slots__`` objects, set and tuple churn.
  ``Sampler`` times a short one every ``SAMPLE_INTERVAL_S`` while a pass
  runs, from a ``SIGALRM`` handler, so that long cells are sampled
  throughout and every stretch of the pass is weighted by its length;
* ``setup_probe``, like importing a package: compiling a module's source
  and executing it, which builds dataclasses.

Probes live in the benchmark, use only the standard library and do not
change with the code under test, so ``reference / probe`` says how fast the
host runs at that moment, and a time multiplied by it is in reference
seconds: the time on a host where the probe takes its reference time.

The cyclic GC is off while a probe runs, so that it never pays for
collecting the objects of the program under test.
"""

from __future__ import annotations

import gc
import heapq
import random
import signal
import statistics
import time
from bisect import bisect_left, bisect_right
from typing import Callable

#: each probe's time, roughly, on the host the benchmark was calibrated on
#: (2-vCPU x86 VM at 2.0 GHz, CPython 3.11); they only set the scale
EVENT_REFERENCE_S = 0.001
SETUP_REFERENCE_S = 0.025
#: seconds between two event-probe samples while a pass runs
SAMPLE_INTERVAL_S = 0.05


class _Node:
    __slots__ = ("ident", "seen", "count")

    def __init__(self, ident: int) -> None:
        self.ident = ident
        self.seen: set[int] = set()
        self.count = 0

    def receive(self, now: float, src: int, hop: int) -> tuple[float, int] | None:
        self.count += 1
        self.seen.add(src)
        if self.count % 3 == 0:
            return now + 0.01 * (self.ident % 5 + 1), hop + 1
        return None


def _event_workload(nodes: int = 25, events: int = 250, loop: int = 4_000) -> int:
    total = 0
    for i in range(loop):
        total += i * i % 7
    rng = random.Random(3)
    members = [_Node(i) for i in range(nodes)]
    queue = [(rng.random(), i, i, 0) for i in range(nodes)]
    heapq.heapify(queue)
    order = nodes
    for _ in range(events):
        now, _order, dst, hop = heapq.heappop(queue)
        reply = members[dst].receive(now, rng.randrange(nodes), hop)
        if reply is not None:
            heapq.heappush(queue, (reply[0], order, rng.randrange(nodes), reply[1]))
            order += 1
        heapq.heappush(queue, (now + rng.random(), order, dst, hop))
        order += 1
    return total + order


_MODULE_SOURCE = """
import dataclasses


@dataclasses.dataclass(frozen=True)
class Params:
    n: int = 0
    name: str = ""
    sizes: tuple = ()

    def scaled(self, factor):
        return self.n * factor


@dataclasses.dataclass
class Cell:
    seed: float = 0.0
    coords: list = dataclasses.field(default_factory=list)


class Grid(Cell):
    def cells(self):
        return [i * 2 for i in range(10)]


def resolve(spec, default=1, *args, **overrides):
    return {key: value for key, value in overrides.items() if value}
"""


def _module_workload(modules: int = 10) -> None:
    for index in range(modules):
        exec(compile(_MODULE_SOURCE, f"<probe{index}>", "exec"), {})


def _timed(workload: Callable[[], object]) -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        workload()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def setup_probe() -> float:
    """Seconds the import-like probe takes now."""
    return _timed(_module_workload)


class Sampler:
    """Host speed sampled every ``SAMPLE_INTERVAL_S`` while in the ``with`` block.

    Each sample times the event probe from a ``SIGALRM`` handler, between two
    bytecodes of whatever runs; ``spent`` is the host time the samples took,
    so that callers can take it out of what they measured.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.speeds: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, _signum, _frame) -> None:
        start = time.perf_counter()
        seconds = _timed(_event_workload)
        self.times.append(start)
        self.speeds.append(EVENT_REFERENCE_S / seconds)
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self, start: float, end: float) -> float:
        """Mean host speed over ``[start, end]``, widened by one interval on
        each side so that it holds a sample."""
        low = bisect_left(self.times, start - SAMPLE_INTERVAL_S)
        high = bisect_right(self.times, end + SAMPLE_INTERVAL_S)
        return statistics.fmean(self.speeds[low:high] or self.speeds)
