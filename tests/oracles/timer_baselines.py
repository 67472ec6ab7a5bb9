"""The timer baselines as first written: the incremental cores' oracles.

:mod:`repro.baselines` keeps per-peer deadlines in a lazy min-heap, sorts
the peers once, caches each phi-accrual window's ``(mean, std)`` and
serves ``suspects()`` from a view that only changes with the suspect set.
The subclasses here put back the original event hooks — an O(n) scan over
every deadline in ``next_wakeup``, a ``repr`` sort of the peers and a full
expiry scan on every wakeup, a fresh window sum on every phi evaluation
and a fresh frozenset on every ``suspects()`` — so
``tests/property/test_timer_baselines.py`` can drive both through the same
scripts and demand identical floats and sets.  Nothing here reads the
heap, the view or the estimate cache.
"""

from __future__ import annotations

import math

from repro.baselines.gossip import GossipHeartbeat, GossipHeartbeatDetector
from repro.baselines.heartbeat import Heartbeat, HeartbeatDetector
from repro.baselines.phi_accrual import PhiAccrualDetector
from repro.core.effects import Effect

__all__ = ["ScanHeartbeatDetector", "ScanGossipDetector", "WindowPhiDetector"]


class _ScanDeadlines:
    """Suspect set and deadlines read by full scans (shared hooks)."""

    def suspects(self):
        return frozenset(self._suspected)

    def on_wakeup(self, now: float) -> list[Effect]:
        effects: list[Effect] = []
        if self._next_beat is not None and now >= self._next_beat:
            effects.extend(self._emit_beat(now))
        for peer in sorted(self._peers, key=repr):
            if peer in self._suspected:
                continue
            deadline = self._deadlines.get(peer)
            if deadline is not None and now >= deadline:
                self._suspected.add(peer)
        return effects

    def next_wakeup(self) -> float | None:
        if not self._started:
            return None
        candidates = [
            deadline
            for peer, deadline in self._deadlines.items()
            if peer not in self._suspected
        ]
        if self._next_beat is not None:
            candidates.append(self._next_beat)
        return min(candidates, default=None)


class ScanHeartbeatDetector(_ScanDeadlines, HeartbeatDetector):
    """:class:`HeartbeatDetector` with plain-dict deadlines and scans."""

    def start(self, now: float) -> list[Effect]:
        self._started = True
        self._deadlines = {p: now + self._timeouts[p] for p in self._peers}
        return self._emit_beat(now)

    def on_message(self, now: float, sender, message: object) -> list[Effect]:
        if not isinstance(message, Heartbeat) or sender not in self._peers:
            return []
        if message.seq <= self._last_seq.get(sender, -1):
            return []
        self._last_seq[sender] = message.seq
        if sender in self._suspected:
            self._suspected.discard(sender)
            if self.adaptive:
                self._timeouts[sender] += self.timeout_increment
        self._deadlines[sender] = now + self._timeouts[sender]
        return []


class ScanGossipDetector(_ScanDeadlines, GossipHeartbeatDetector):
    """:class:`GossipHeartbeatDetector` with plain-dict deadlines and scans."""

    def start(self, now: float) -> list[Effect]:
        self._started = True
        self._deadlines = {p: now + self.timeout for p in self._peers}
        return self._emit_beat(now)

    def on_message(self, now: float, sender, message: object) -> list[Effect]:
        if not isinstance(message, GossipHeartbeat):
            return []
        for pid, beat in message.vector:
            if pid not in self._vector or pid == self._pid:
                continue
            if beat > self._vector[pid]:
                self._vector[pid] = beat
                self._deadlines[pid] = now + self.timeout
                self._suspected.discard(pid)
        return []


class WindowPhiDetector(PhiAccrualDetector):
    """:class:`PhiAccrualDetector` re-summing the window on every estimate."""

    def suspects(self):
        return frozenset(self._suspected)

    def _interval_estimate(self, peer) -> tuple[float, float]:
        window = self._windows[peer]
        if len(window) < 2:
            return self.period, self.period / 2.0
        mean = sum(window) / len(window)
        variance = sum((x - mean) ** 2 for x in window) / (len(window) - 1)
        return mean, math.sqrt(variance)

    def on_message(self, now: float, sender, message: object) -> list[Effect]:
        if not isinstance(message, Heartbeat) or sender not in self._peers:
            return []
        if message.seq <= self._last_seq.get(sender, -1):
            return []
        self._last_seq[sender] = message.seq
        last = self._last_arrival.get(sender)
        if last is not None:
            self._windows[sender].append(now - last)
        self._last_arrival[sender] = now
        self._suspected.discard(sender)
        return []

    def _evaluate(self, now: float) -> None:
        for peer in self._peers:
            if peer in self._suspected:
                continue
            if self.phi(peer, now) >= self.threshold:
                self._suspected.add(peer)

    def next_wakeup(self) -> float | None:
        if not self._started:
            return None
        candidates = [t for t in (self._next_beat, self._next_eval) if t is not None]
        return min(candidates, default=None)
