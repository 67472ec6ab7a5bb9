"""The suspect set of a timer baseline and its cached ``suspects()`` view.

Hosts snapshot ``suspects()`` around every event to spot a change, so the
view must not cost a fresh frozenset per call.  It is built on the first
read after the set changed and handed back unchanged until the next
change; callers can then compare snapshots with ``is`` before ``==``.
Every change to the set goes through :meth:`SuspectSet._suspect` or
:meth:`SuspectSet._revive`, which drop the view.
"""

from __future__ import annotations

from ..ids import ProcessId

__all__ = ["SuspectSet"]


class SuspectSet:
    """The suspected peers of one core, read through a cached view."""

    def __init__(self) -> None:
        self._suspected: set[ProcessId] = set()
        # ``None`` once ``_suspected`` changed; rebuilt on the next read.
        self._view: frozenset[ProcessId] | None = frozenset()

    def suspects(self) -> frozenset[ProcessId]:
        view = self._view
        if view is None:
            view = self._view = frozenset(self._suspected)
        return view

    def _suspect(self, peer: ProcessId) -> None:
        self._suspected.add(peer)
        self._view = None

    def _revive(self, peer: ProcessId) -> bool:
        """Clear ``peer``'s suspicion; ``True`` when it was suspected."""
        if peer not in self._suspected:
            return False
        self._suspected.discard(peer)
        self._view = None
        return True
