"""Exact counter ledger, read from the clusters and harnesses a cell builds.

Hooks on ``SimCluster`` / ``ConsensusHarness`` construction and ``run``
snapshot the public counters each time a run returns: scheduler events,
messages by kind, sent and dropped messages, fault events recorded in the
trace, and the consensus decision ledger.  Suspicion changes and query
rounds have no public counter, so the two ``TraceRecorder`` entry points
that record them are counted (one integer increment per change or round).

The hooks cost O(clusters) plus one increment per round and per change, so
the untraced run keeps them installed too; the counts are a pure function
of code and seed.
"""

from __future__ import annotations

import weakref
from collections import Counter
from typing import Any

from repro.consensus.sim_runner import ConsensusHarness
from repro.sim.cluster import SimCluster
from repro.sim.trace import TraceRecorder

#: additive ledger fields (``messages_by_kind`` is merged separately)
FIELDS = (
    "clusters",
    "events",
    "messages_total",
    "messages_dropped",
    "suspicion_changes",
    "query_rounds",
    "query_cluster_changes",
    "fault_events",
    "consensus_runs",
    "consensus_instances",
    "consensus_decided",
    "consensus_rounds",
    "consensus_nacks",
    "consensus_unsafe",
)


def empty() -> dict[str, Any]:
    totals: dict[str, Any] = dict.fromkeys(FIELDS, 0)
    totals["messages_by_kind"] = {}
    return totals


def add(into: dict[str, Any], other: dict[str, Any]) -> dict[str, Any]:
    for name in FIELDS:
        into[name] += other[name]
    kinds = Counter(into["messages_by_kind"])
    kinds.update(other["messages_by_kind"])
    into["messages_by_kind"] = dict(sorted(kinds.items()))
    return into


class Ledger:
    """Installs the hooks and collects one ledger entry per cell."""

    def __init__(self) -> None:
        self._seq: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._next = 0
        self._counts: dict[int, list[int]] = {}
        self._runs: dict[int, dict[str, Any]] = {}
        self._patches: list[tuple[type, str, Any]] = []

    def _key(self, obj: Any) -> int:
        key = self._seq.get(obj)
        if key is None:
            key = self._seq[obj] = self._next
            self._next += 1
        return key

    # -- hooks -------------------------------------------------------------------
    def install(self) -> None:
        ledger = self
        counts = self._counts

        cluster_init = SimCluster.__init__
        cluster_run = SimCluster.run
        harness_init = ConsensusHarness.__init__
        harness_run = ConsensusHarness.run
        record_change = TraceRecorder.record_suspicion_change
        record_round = TraceRecorder.record_round

        def init_cluster(self, *args, **kwargs):
            cluster_init(self, *args, **kwargs)
            counts[id(self.trace)] = [0, 0]
            ledger._key(self)

        def run_cluster(self, *args, **kwargs):
            result = cluster_run(self, *args, **kwargs)
            ledger._runs[ledger._key(self)] = ledger._cluster_entry(self)
            return result

        def init_harness(self, *args, **kwargs):
            harness_init(self, *args, **kwargs)
            ledger._key(self)

        def run_harness(self, *args, **kwargs):
            result = harness_run(self, *args, **kwargs)
            ledger._runs[ledger._key(self)] = ledger._harness_entry(self)
            return result

        def count_change(self, *args, **kwargs):
            change = record_change(self, *args, **kwargs)
            if change is not None:
                counts.setdefault(id(self), [0, 0])[0] += 1
            return change

        def count_round(self, record):
            counts.setdefault(id(self), [0, 0])[1] += 1
            return record_round(self, record)

        for owner, name, hook in (
            (SimCluster, "__init__", init_cluster),
            (SimCluster, "run", run_cluster),
            (ConsensusHarness, "__init__", init_harness),
            (ConsensusHarness, "run", run_harness),
            (TraceRecorder, "record_suspicion_change", count_change),
            (TraceRecorder, "record_round", count_round),
        ):
            original = owner.__dict__[name]
            hook.__name__ = original.__name__
            hook.__qualname__ = original.__qualname__
            self._patches.append((owner, name, original))
            setattr(owner, name, hook)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- snapshots -----------------------------------------------------------------
    def _cluster_entry(self, cluster: SimCluster) -> dict[str, Any]:
        trace = cluster.trace
        changes, rounds = self._counts.get(id(trace), (0, 0))
        entry = empty()
        entry.update(
            clusters=1,
            events=cluster.scheduler.events_processed,
            messages_total=trace.messages_total,
            messages_dropped=trace.messages_dropped,
            suspicion_changes=changes,
            query_rounds=rounds,
            query_cluster_changes=changes if rounds else 0,
            fault_events=len(trace.crashes)
            + len(trace.recoveries)
            + len(trace.mobility)
            + len(trace.membership_events),
            messages_by_kind=dict(sorted(trace.messages_by_kind.items())),
        )
        return entry

    def _harness_entry(self, harness: ConsensusHarness) -> dict[str, Any]:
        entry = empty()
        result = harness.result
        rounds = nacks = 0
        unsafe = 0
        for outcome in result.instances:
            rounds += sum(
                count for pid, count in outcome.rounds_executed.items() if pid in outcome.correct
            )
            nacks += outcome.nacks
            if not (outcome.agreement_holds and outcome.validity_holds):
                unsafe += 1
        entry.update(
            consensus_runs=1,
            consensus_instances=len(result.instances),
            consensus_decided=result.decided_instances,
            consensus_rounds=rounds,
            consensus_nacks=nacks,
            consensus_unsafe=unsafe,
        )
        return entry

    # -- cells -----------------------------------------------------------------------
    def begin_cell(self) -> None:
        self._runs = {}

    def end_cell(self) -> dict[str, Any]:
        totals = empty()
        for key in sorted(self._runs):
            add(totals, self._runs[key])
        self._runs = {}
        self._counts.clear()
        return totals
