"""Tripwire: the lazy deadline heap stays a small multiple of the peer count.

``repro.baselines.deadlines.PeerDeadlines`` never removes a heap entry in
place: every deadline write pushes, and stale entries leave only when they
surface at the top.  In steady state each peer refreshes about once per
period, so a working heap holds roughly two entries per peer.  These runs
push 10k steady-state messages through a 30-peer heartbeat core and a
30-peer gossip core — asking ``next_wakeup`` after every delivery and
waking whenever a deadline or beat is due, as ``TimedDriver`` does — and
fail if stale entries start piling up.  A last run keeps one silent peer's
deadline at the top while the heap fills up behind it, revives a suspected
peer in that state and checks each step against the scan oracle.
"""

from __future__ import annotations

import random

import pytest

from repro.baselines.gossip import GossipHeartbeat, GossipHeartbeatDetector
from repro.baselines.heartbeat import Heartbeat, HeartbeatDetector

from ..oracles.timer_baselines import ScanGossipDetector

PEERS = 30
MESSAGES = 10_000
MEMBERS = tuple(range(1, PEERS + 2))  # the core is process 1


def _heartbeat_run(core, rng):
    seqs = dict.fromkeys(MEMBERS, 0)
    now = 0.0
    for _ in range(MESSAGES // PEERS):
        for peer in rng.sample(MEMBERS[1:], PEERS):
            now += rng.random() * 0.06
            seqs[peer] += 1
            core.on_message(now, peer, Heartbeat(sender=peer, seq=seqs[peer]))
            yield now
        due = core.next_wakeup()
        if due is not None and due <= now:
            core.on_wakeup(now)


def _gossip_run(core, rng):
    beats = dict.fromkeys(MEMBERS, 0)
    now = 0.0
    for _ in range(MESSAGES // PEERS):
        for peer in MEMBERS[1:]:
            beats[peer] += 1
        for peer in rng.sample(MEMBERS[1:], PEERS):
            now += rng.random() * 0.06
            # relayed multi-hop vectors, some entries one beat behind
            vector = tuple((pid, beats[pid] - rng.randrange(2)) for pid in MEMBERS)
            core.on_message(now, peer, GossipHeartbeat(sender=peer, vector=vector))
            yield now
        due = core.next_wakeup()
        if due is not None and due <= now:
            core.on_wakeup(now)


CORES = {
    "heartbeat": (
        lambda: HeartbeatDetector(1, frozenset(MEMBERS), period=1.0, timeout=2.0),
        _heartbeat_run,
    ),
    "gossip": (
        lambda: GossipHeartbeatDetector(1, frozenset(MEMBERS), period=1.0, timeout=2.5),
        _gossip_run,
    ),
}


@pytest.mark.parametrize("family", sorted(CORES))
def test_heap_stays_bounded_under_a_polling_host(family):
    make, run = CORES[family]
    core = make()
    core.start(0.0)
    peak = 0
    for _ in run(core, random.Random(7)):
        core.next_wakeup()  # TimedDriver re-arms after every delivery
        peak = max(peak, len(core._heap))
    assert core.suspects() == frozenset()  # a healthy steady state
    # ~2 entries per peer in practice; 3x leaves room
    assert peak <= 3 * PEERS, peak


def test_gossip_revival_behind_a_stuck_deadline_matches_the_scan():
    """A peer revived while the heap is long still gets its deadline back.

    Peer 2 is silent from the start and gets suspected.  Peer 3 beats once
    at 2.0 and then falls silent, so its deadline stays at the top of the
    heap while the other peers' refreshes pile up behind it.  Once the heap
    holds more than ``4 * peers + 16`` entries (where an earlier version
    rebuilt it from the live deadlines, leaving out the still-suspected
    peer 2 it was about to revive), a relayed vector revives peer 2, which
    then falls silent again.  Every step must match the scan oracle.
    """
    cores = [
        cls(1, frozenset(MEMBERS), period=1.0, timeout=2.5)
        for cls in (GossipHeartbeatDetector, ScanGossipDetector)
    ]
    core, oracle = cores
    beats = dict.fromkeys(MEMBERS, 0)
    live = MEMBERS[3:]
    revived_at = None
    now = 0.0

    def step(action) -> None:
        effects = [action(detector) for detector in cores]
        assert effects[0] == effects[1]
        assert core.next_wakeup() == oracle.next_wakeup()
        assert core.suspects() == oracle.suspects()

    step(lambda detector: detector.start(now))
    for tick in range(1, 700):
        now = tick * 0.015  # each live peer refreshes every 0.42
        due = oracle.next_wakeup()
        if due is not None and due <= now:
            step(lambda detector: detector.on_wakeup(now))
        sender = live[tick % len(live)]
        beats[sender] += 1
        if not beats[3] and now >= 2.0:
            beats[3] = 1  # peer 3's only beat
        relayed = {pid: beats[pid] for pid in (3, *live)}
        if revived_at is None and 2 in oracle.suspects() and len(core._heap) > 4 * PEERS + 16:
            revived_at = now
            relayed[2] = beats[2] = 1
        vector = tuple(sorted(relayed.items()))
        step(lambda detector: detector.on_message(
            now, sender, GossipHeartbeat(sender=sender, vector=vector)
        ))
    assert revived_at is not None and revived_at < 4.5, revived_at
    assert core.suspects() == {2, 3}
