"""The incremental timer baselines pinned to their scan-based oracles.

``tests/oracles/timer_baselines`` keeps each baseline's original hooks: an
O(n) deadline scan in ``next_wakeup``, a ``repr`` sort and full expiry scan
per wakeup, a fresh window sum per phi estimate and a fresh frozenset per
``suspects()``.  Hypothesis drives the product core and its oracle through
one random interleaving of ``start``, ``on_message`` and ``on_wakeup`` and,
after every step, demands equal effects and exactly equal (``==``, never
approximate) ``next_wakeup()``, ``suspects()``, ``phi(peer, now)``,
per-peer timeouts and heartbeat vectors.

Scripts reach every case the lazy heap and the caches must survive:
stale and reordered sequence numbers, peers suspected and then revived,
adaptive timeout growth, multi-hop gossip vectors (entries for processes
other than the sender, the receiver's own entry, unknown ids), a second
``start()`` (join after leave), non-peer senders and messages of the wrong
type.  ``TestScenarioCoverage`` checks that the pinned examples really
reach them; ``TestMutants`` checks that the comparison catches a heap that
skips the deadline validity test, an estimate cache never dropped and a
suspect view never invalidated.
"""

from __future__ import annotations

from heapq import heappop

import pytest
from hypothesis import example, find, given, settings
from hypothesis import strategies as st

from repro.baselines.gossip import GossipHeartbeat, GossipHeartbeatDetector
from repro.baselines.heartbeat import Heartbeat, HeartbeatDetector
from repro.baselines.phi_accrual import PhiAccrualDetector

from ..oracles.timer_baselines import (
    ScanGossipDetector,
    ScanHeartbeatDetector,
    WindowPhiDetector,
)

#: memberships; the first id is the detector's own, the last slot of every
#: sender list is an outsider
MEMBERSHIPS = ((1, 2, 3, 4), ("a", "b", "c"))
OUTSIDER = {1: 99, "a": "zz"}

FAMILIES = {
    "heartbeat": (HeartbeatDetector, ScanHeartbeatDetector),
    "gossip": (GossipHeartbeatDetector, ScanGossipDetector),
    "phi": (PhiAccrualDetector, WindowPhiDetector),
}

_DT = st.sampled_from((0.0, 0.1, 0.25, 0.5, 1.0, 2.5))
#: index into members + outsider, wrapped to the membership size
_SENDER = st.integers(min_value=0, max_value=4)
_SEQ = st.integers(min_value=0, max_value=6)

_COMMON_OPS = (
    st.tuples(st.just("start"), _DT),
    st.tuples(st.just("wake"), _DT),
    st.tuples(st.just("due")),
    st.tuples(st.just("junk"), _DT, _SENDER),
)
_BEAT_OPS = st.lists(
    st.one_of(st.tuples(st.just("msg"), _DT, _SENDER, _SEQ), *_COMMON_OPS),
    max_size=40,
)
_GOSSIP_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("msg"),
            _DT,
            _SENDER,
            st.lists(st.tuples(_SENDER, _SEQ), max_size=5),
        ),
        *_COMMON_OPS,
    ),
    max_size=40,
)

_HEARTBEAT_CONFIG = st.fixed_dictionaries(
    {
        "period": st.sampled_from((0.5, 1.0)),
        "timeout": st.sampled_from((0.75, 1.5, 2.0)),
        "adaptive": st.booleans(),
        "timeout_increment": st.sampled_from((0.0, 0.5)),
    }
)
_GOSSIP_CONFIG = st.sampled_from(
    ({"period": 0.5, "timeout": 0.75}, {"period": 1.0, "timeout": 2.0})
)
_PHI_CONFIG = st.fixed_dictionaries(
    {
        "period": st.sampled_from((0.5, 1.0)),
        "threshold": st.sampled_from((1.0, 3.0, 8.0)),
        "window_size": st.sampled_from((2, 3, 5)),
        "min_std": st.sampled_from((0.05, 0.2)),
        "eval_fraction": st.sampled_from((0.25, 1.0)),
    }
)
_MEMBERS = st.sampled_from(MEMBERSHIPS)


def _message(family: str, op: tuple, senders: tuple):
    sender = senders[op[2] % len(senders)]
    if op[0] == "junk":
        # the other family's message type: every core must ignore it
        if family == "gossip":
            return sender, Heartbeat(sender=sender, seq=1)
        return sender, GossipHeartbeat(sender=sender, vector=((sender, 1),))
    if family == "gossip":
        vector = tuple((senders[i % len(senders)], beat) for i, beat in op[3])
        return sender, GossipHeartbeat(sender=sender, vector=vector)
    return sender, Heartbeat(sender=sender, seq=op[3])


def _assert_same(family: str, impl, ref, now: float, members: tuple) -> None:
    assert impl.next_wakeup() == ref.next_wakeup()
    assert impl.suspects() == ref.suspects()
    if family == "heartbeat":
        for peer in members[1:]:
            assert impl.timeout_of(peer) == ref.timeout_of(peer)
    elif family == "gossip":
        assert impl.heartbeat_vector() == ref.heartbeat_vector()
    else:
        for peer in members[1:]:
            for at in (now, now + impl.period):
                assert impl.phi(peer, at) == ref.phi(peer, at)


def run_script(family: str, config: dict, members: tuple, ops, impl_cls=None):
    """Drive the product core (or ``impl_cls``) and the oracle in lockstep.

    Returns the oracle, so callers can inspect where the script went.
    """
    product_cls, oracle_cls = FAMILIES[family]
    impl_cls = impl_cls or product_cls
    membership = frozenset(members)
    impl = impl_cls(members[0], membership, **config)
    ref = oracle_cls(members[0], membership, **config)
    senders = members + (OUTSIDER[members[0]],)
    now = 0.0
    for op in ops:
        ref_before, impl_before = ref.suspects(), impl.suspects()
        kind = op[0]
        if kind == "due":
            due = ref.next_wakeup()
            if due is None:
                continue
            now = max(now, due)
        else:
            now += op[1]
        if kind == "start":
            effects = impl.start(now), ref.start(now)
        elif kind in ("wake", "due"):
            effects = impl.on_wakeup(now), ref.on_wakeup(now)
        else:
            sender, message = _message(family, op, senders)
            effects = (
                impl.on_message(now, sender, message),
                ref.on_message(now, sender, message),
            )
        assert effects[0] == effects[1], op
        _assert_same(family, impl, ref, now, members)
        if ref.suspects() == ref_before:
            # the cached view: an unchanged set is the identical object
            assert impl.suspects() is impl_before
    return ref


# -- pinned tours: each reaches the scenarios the docstring lists ---------------

HEARTBEAT_TOUR = (
    ("start", 0.0),
    ("msg", 0.25, 1, 1),
    ("msg", 0.0, 1, 1),  # duplicate seq
    ("msg", 0.1, 2, 3),
    ("msg", 0.1, 2, 2),  # reordered, stale
    ("msg", 0.0, 0, 5),  # own id
    ("msg", 0.0, 4, 5),  # outsider
    ("junk", 0.0, 1),
    ("due",),
    ("wake", 2.5),  # everyone silent: all suspected
    ("msg", 0.1, 1, 2),  # revival (adaptive: timeout grows)
    ("due",),
    ("due",),
    ("start", 1.0),  # join after leave
    ("msg", 0.1, 3, 1),
    ("due",),
    ("wake", 2.5),
)
GOSSIP_TOUR = (
    ("start", 0.0),
    ("msg", 0.25, 1, [(1, 1), (2, 1), (3, 2)]),  # multi-hop entries
    ("msg", 0.0, 2, [(2, 1), (3, 1)]),  # stale
    ("msg", 0.1, 2, [(0, 9), (4, 9)]),  # own entry, unknown id
    ("msg", 0.0, 4, [(1, 2)]),  # outsider relays news
    ("junk", 0.0, 1),
    ("due",),
    ("wake", 2.5),
    ("msg", 0.1, 3, [(1, 3), (2, 3)]),  # revival, relayed
    ("due",),
    ("start", 1.0),
    ("due",),
    ("wake", 2.5),
)
PHI_TOUR = (
    ("start", 0.0),
    ("msg", 0.5, 1, 1),
    ("msg", 1.0, 1, 2),
    ("msg", 1.0, 1, 3),
    ("msg", 0.0, 1, 2),  # stale
    ("msg", 0.25, 2, 1),
    ("msg", 0.0, 4, 1),  # outsider
    ("junk", 0.0, 2),
    ("due",),
    ("wake", 2.5),
    ("wake", 2.5),  # long silence: suspected
    ("msg", 0.1, 1, 4),  # revival
    ("msg", 1.0, 1, 5),
    ("start", 1.0),
    ("due",),
    ("due",),
)
_HEARTBEAT_EXAMPLE = {"period": 1.0, "timeout": 1.5, "adaptive": True, "timeout_increment": 0.5}
_PHI_EXAMPLE = {
    "period": 1.0, "threshold": 1.0, "window_size": 3, "min_std": 0.05, "eval_fraction": 0.25,
}


class TestAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(config=_HEARTBEAT_CONFIG, members=_MEMBERS, ops=_BEAT_OPS)
    @example(config=_HEARTBEAT_EXAMPLE, members=MEMBERSHIPS[0], ops=HEARTBEAT_TOUR)
    def test_heartbeat(self, config, members, ops):
        run_script("heartbeat", config, members, ops)

    @settings(max_examples=300, deadline=None)
    @given(config=_GOSSIP_CONFIG, members=_MEMBERS, ops=_GOSSIP_OPS)
    @example(config={"period": 1.0, "timeout": 2.0}, members=MEMBERSHIPS[0], ops=GOSSIP_TOUR)
    def test_gossip(self, config, members, ops):
        run_script("gossip", config, members, ops)

    @settings(max_examples=300, deadline=None)
    @given(config=_PHI_CONFIG, members=_MEMBERS, ops=_BEAT_OPS)
    @example(config=_PHI_EXAMPLE, members=MEMBERSHIPS[0], ops=PHI_TOUR)
    def test_phi(self, config, members, ops):
        run_script("phi", config, members, ops)


class _Recording:
    """Mixin for oracles that logs every suspect set a script passes through."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.seen: list[frozenset] = []

    def suspects(self):
        current = super().suspects()
        if not self.seen or self.seen[-1] != current:
            self.seen.append(current)
        return current


def _revived(seen: list[frozenset]) -> bool:
    return any(earlier - later for earlier, later in zip(seen, seen[1:]))


class TestScenarioCoverage:
    """The pinned tours reach suspicion, revival, growth and rejoin."""

    def _tour(self, monkeypatch, family, config, ops):
        product_cls, oracle_cls = FAMILIES[family]
        recording = type("Recording", (_Recording, oracle_cls), {})
        monkeypatch.setitem(FAMILIES, family, (product_cls, recording))
        ref = run_script(family, config, MEMBERSHIPS[0], ops)
        assert any(op[0] == "start" for op in ops[1:]), "no second start"
        assert any(ref.seen), "nobody was ever suspected"
        assert _revived(ref.seen), "no suspected peer came back"
        return ref

    def test_heartbeat_tour(self, monkeypatch):
        ref = self._tour(monkeypatch, "heartbeat", _HEARTBEAT_EXAMPLE, HEARTBEAT_TOUR)
        assert ref.timeout_of(2) > 1.5, "adaptive timeout never grew"

    def test_gossip_tour(self, monkeypatch):
        ref = self._tour(monkeypatch, "gossip", {"period": 1.0, "timeout": 2.0}, GOSSIP_TOUR)
        assert ref.heartbeat_vector()[4] == 2, "no multi-hop entry was merged"

    def test_phi_tour(self, monkeypatch):
        self._tour(monkeypatch, "phi", _PHI_EXAMPLE, PHI_TOUR)


# -- mutants the comparison must catch -----------------------------------------


class _NoDeadlineCheck(HeartbeatDetector):
    """A heap that only drops suspected peers' entries, never stale ones."""

    def _earliest_deadline(self):
        heap = self._heap
        while heap:
            deadline, _, peer = heap[0]
            if peer not in self._suspected:
                return deadline
            heappop(heap)
        return None


class _KeepForever(dict):
    def pop(self, key, default=None):
        return default


class _StaleEstimates(PhiAccrualDetector):
    """An estimate cache that is never dropped on a window append."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._estimates = _KeepForever()


class _StickyView(HeartbeatDetector):
    """A suspect view that ignores every invalidation."""

    @property
    def _view(self):
        return self.__dict__["_sticky"]

    @_view.setter
    def _view(self, value):
        if value is not None or "_sticky" not in self.__dict__:
            self.__dict__["_sticky"] = value


class TestMutants:
    @pytest.mark.parametrize(
        "family, config, ops, mutant",
        [
            pytest.param(
                "heartbeat",
                {"period": 10.0, "timeout": 2.0},
                # every peer refreshed: the start-time entries are all stale
                (("start", 0.0), ("msg", 1.0, 1, 1), ("msg", 0.0, 2, 1), ("msg", 0.0, 3, 1)),
                _NoDeadlineCheck,
                id="heap-without-deadline-validity",
            ),
            pytest.param(
                "phi",
                {"period": 1.0, "window_size": 3},
                (("start", 0.0), ("msg", 0.5, 1, 1), ("msg", 1.0, 1, 2), ("msg", 0.5, 1, 3)),
                _StaleEstimates,
                id="estimate-never-dropped",
            ),
            pytest.param(
                "heartbeat",
                {"period": 1.0, "timeout": 1.5},
                (("start", 0.0), ("wake", 2.5)),
                _StickyView,
                id="view-never-invalidated",
            ),
        ],
    )
    def test_pinned_script_catches_mutant(self, family, config, ops, mutant):
        run_script(family, config, MEMBERSHIPS[0], ops)  # the product passes
        with pytest.raises(AssertionError):
            run_script(family, config, MEMBERSHIPS[0], ops, impl_cls=mutant)

    def test_search_finds_the_deadline_validity_mutant(self):
        """The random scripts alone, without the pinned one, catch it too."""

        def diverges(ops) -> bool:
            try:
                run_script("heartbeat", _HEARTBEAT_EXAMPLE, MEMBERSHIPS[0], ops, _NoDeadlineCheck)
            except AssertionError:
                return True
            return False

        found = find(_BEAT_OPS, diverges, settings=settings(max_examples=2000, database=None))
        assert found
