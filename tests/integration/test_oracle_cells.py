"""Whole experiment cells on the product event path versus the oracles.

The property suites pin the timer wheel to the heap scheduler and the
columnar trace store to the object recorder one operation script at a
time.  This suite closes the loop at cell level: a real grid cell runs
twice, first on the default ``SimCluster`` event path, then with
``repro.sim.cluster.Scheduler`` and ``repro.sim.cluster.TraceRecorder``
swapped for :class:`~tests.oracles.heap_scheduler.HeapScheduler` and
:class:`~tests.oracles.object_trace.ObjectTraceRecorder`.  The canonical
cell value and every cluster's ``events_processed`` must match.

Cells: the first default ``t1`` cell (the paper's time-free detector) and
``q1`` fault-preset cells for the timer families, whose re-armed timeouts
make the cancel-heavy workload where the two schedulers differ most.
"""

import pytest

from repro.harness.registry import get_spec
from repro.harness.runner import evaluate_cell
from repro.harness.spec import canonical_json, cell_seed
from repro.sim import cluster as cluster_module
from repro.sim.engine import Scheduler
from repro.sim.trace import TraceRecorder

from ..oracles.heap_scheduler import HeapScheduler
from ..oracles.object_trace import ObjectTraceRecorder

#: (experiment, preset, detector) — ``None`` detector picks the grid's first cell
CELLS = [
    ("t1", None, None),
    ("q1", "crashrec", "heartbeat"),
    ("q1", "crashrec", "phi"),
    ("q1", "partition", "gossip"),
]


def _spy(monkeypatch, name, cls):
    """Route ``repro.sim.cluster.<name>()`` to ``cls``; returns the instances."""
    made = []

    def build():
        instance = cls()
        made.append(instance)
        return instance

    monkeypatch.setattr(cluster_module, name, build)
    return made


def _evaluate(cell, scheduler_cls, recorder_cls):
    exp_id, preset, detector = cell
    spec = get_spec(exp_id)
    params = spec.make_params(preset=preset)
    coords = next(
        c for c in spec.grid(params) if detector is None or c["detector"] == detector
    )
    with pytest.MonkeyPatch.context() as patch:
        schedulers = _spy(patch, "Scheduler", scheduler_cls)
        traces = _spy(patch, "TraceRecorder", recorder_cls)
        value, _ = evaluate_cell(
            spec, params, coords, cell_seed(exp_id, coords, params.seed)
        )
    assert schedulers and traces
    assert all(type(s) is scheduler_cls for s in schedulers)
    assert all(type(t) is recorder_cls for t in traces)
    return canonical_json(value), [s.events_processed for s in schedulers]


@pytest.mark.parametrize("cell", CELLS, ids=lambda cell: "-".join(filter(None, cell)))
def test_cell_matches_on_the_oracles(cell):
    value, events = _evaluate(cell, Scheduler, TraceRecorder)
    oracle_value, oracle_events = _evaluate(cell, HeapScheduler, ObjectTraceRecorder)
    assert oracle_events == events
    assert oracle_value == value
