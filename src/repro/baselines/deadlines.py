"""Per-peer timeout deadlines shared by the heartbeat and gossip cores.

Both detectors arm one deadline per peer, refresh it when the peer shows
life, and suspect the peer once the deadline passes.  Their hosts ask for
the earliest pending deadline after every delivered message, so that
question must not cost a scan over all peers.

Deadlines live in a dict (the truth) mirrored by a *lazy* min-heap of
``(deadline, push_seq, peer)``: every write pushes a fresh entry and
nothing is ever removed in place.  An entry is stale once its peer is
suspected or its deadline is no longer ``_deadlines[peer]``; stale entries
are popped when they reach the top.  Every unsuspected peer always has an
entry matching its current deadline — each write pushes one, and a revived
peer's deadline is written right after its suspicion is cleared — so the
first valid top is exactly the minimum the old full scan returned.
``push_seq`` breaks ties so peers are never compared.

Because hosts ask for the earliest deadline after every event, stale
entries leave as soon as they surface: the heap holds about the entries
pushed within one timeout.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from ..ids import ProcessId
from .suspicion import SuspectSet

__all__ = ["PeerDeadlines"]


class PeerDeadlines(SuspectSet):
    """Deadline table and lazy heap of a timeout core."""

    def __init__(self, peers: frozenset[ProcessId]) -> None:
        super().__init__()
        self._peers = peers
        #: the scan order of expiry checks, sorted once
        self._peer_order = tuple(sorted(peers, key=repr))
        self._deadlines: dict[ProcessId, float] = {}
        self._heap: list[tuple[float, int, ProcessId]] = []
        self._pushes = 0

    # ------------------------------------------------------------------
    def _reset_deadlines(self, deadlines: dict[ProcessId, float]) -> None:
        """Replace every deadline at once (``start``) and rebuild the heap."""
        self._deadlines = deadlines
        suspected = self._suspected
        heap = [
            (deadline, self._pushes + seq, peer)
            for seq, (peer, deadline) in enumerate(self._deadlines.items(), 1)
            if peer not in suspected
        ]
        heapify(heap)
        self._heap = heap
        self._pushes += len(heap)

    def _set_deadline(self, peer: ProcessId, deadline: float) -> None:
        """Write ``peer``'s deadline; the one place a deadline changes."""
        self._deadlines[peer] = deadline
        self._pushes += 1
        heappush(self._heap, (deadline, self._pushes, peer))

    def _earliest_deadline(self) -> float | None:
        """The smallest deadline among unsuspected peers, or ``None``."""
        heap = self._heap
        deadlines = self._deadlines
        suspected = self._suspected
        while heap:
            deadline, _, peer = heap[0]
            if peer not in suspected and deadlines[peer] == deadline:
                return deadline
            heappop(heap)
        return None

    def _earlier_of(self, beat: float | None) -> float | None:
        """``min`` of ``beat`` and the earliest deadline, ``None`` skipped."""
        earliest = self._earliest_deadline()
        if earliest is None or (beat is not None and beat < earliest):
            return beat
        return earliest

    def _expire(self, now: float) -> None:
        """Suspect every unsuspected peer whose deadline is ``<= now``."""
        earliest = self._earliest_deadline()
        if earliest is None or now < earliest:
            return
        suspected = self._suspected
        deadlines = self._deadlines
        for peer in self._peer_order:
            if peer in suspected:
                continue
            deadline = deadlines.get(peer)
            if deadline is not None and now >= deadline:
                self._suspect(peer)
