"""The columnar trace store's memory claim, measured against its oracle.

``repro bench``'s ``trace`` workload records a drifting suspicion trace
(96 observers in 16-process neighbourhoods, the large-n partial-topology
shape the columnar store exists for) and tabulates it.  Here the same
script runs under :mod:`tracemalloc` twice: on the product
:class:`~repro.sim.trace.TraceRecorder` and on the list-of-objects
:class:`~tests.oracles.object_trace.ObjectTraceRecorder`, whose per-change
suspect snapshots make it O(n * changes).  The columnar peak must be at
least 4x smaller (about 1.2 MiB against 7.1 MiB, 5.8x, at the
``repro bench`` default of 200k events; the figures are deterministic).
"""

import pytest

from repro.harness.microbench import _peak_kb, bench_trace
from repro.sim import trace as trace_module

from ..oracles.object_trace import ObjectTraceRecorder

EVENTS = 200_000  # `repro bench --events` default: 100 changes per observer

#: the columnar store must be at least this many times smaller at peak
MIN_RATIO = 4.0


def test_columnar_trace_peak_is_at_least_4x_below_the_object_oracle():
    columnar_kb = _peak_kb(bench_trace, EVENTS)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trace_module, "TraceRecorder", ObjectTraceRecorder)
        object_kb = _peak_kb(bench_trace, EVENTS)
    assert columnar_kb * MIN_RATIO <= object_kb, (columnar_kb, object_kb)
