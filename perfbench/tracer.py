"""Per-layer attribution for the traced run, installed from outside ``src/``.

Every function and method defined in a layer's modules is replaced by a
wrapper that knows its layer.  Self time is charged through a *mark*:
the wrapper that switches the active layer first charges the time since
the last mark to the layer that was active, then moves the mark; the
wrapper's exit does the same for its own layer.  A call that stays inside
the active layer costs one comparison and is not timed, so per-message
calls need no span objects — only per-(cell, layer) accumulators.

Coarse spans (one per cell, ``Scheduler.run``, topology build, tabulate
and artifact write) are recorded with name, start, end, parent and cell
id, kept in memory and written out when the workload ends.

Property getters are wrapped like methods.  Generator functions, enums,
protocols and exception classes are left alone: their cost is charged to
the caller's layer.
"""

from __future__ import annotations

import enum
import inspect
import sys
import time
import types
from typing import Any, Callable

#: layer name -> module-name prefixes (longest prefix wins)
LAYER_MODULES: dict[str, tuple[str, ...]] = {
    "harness": ("repro.harness",),
    "experiments": ("repro.experiments",),
    "engine": ("repro.sim.engine",),
    "network": ("repro.sim.network", "repro.sim.latency", "repro.sim.rng"),
    "topology": ("repro.sim.topology", "repro.partial.covering"),
    "drivers": ("repro.sim.node", "repro.sim.cluster", "repro.detectors"),
    "core": ("repro.core",),
    "baselines": ("repro.baselines",),
    "partial": ("repro.partial",),
    "trace": ("repro.sim.trace",),
    "faults": ("repro.sim.faults",),
    "metrics": ("repro.metrics",),
    "consensus": ("repro.consensus",),
}

#: the fault-scenario builders live in ``experiments.scenarios`` but do fault work
FAULT_BUILDER_MODULE = "repro.experiments.scenarios"

#: internal accounting slots: the trace layer is split into its recording and
#: query halves, and ``other`` is everything outside a wrapped layer
SLOTS = (
    "other",
    "harness",
    "experiments",
    "engine",
    "network",
    "topology",
    "drivers",
    "core",
    "baselines",
    "partial",
    "trace.record",
    "trace.query",
    "faults",
    "metrics",
    "consensus",
)
SLOT = {name: index for index, name in enumerate(SLOTS)}

#: functions whose every call is counted, by qualified name
COUNTED = {
    "repro.core.protocol:TimeFreeDetector.finish_round": "core.rounds",
    "repro.core.tags:SuspicionState.merge_query": "core.merges",
    "repro.core.tags:SuspicionState.merge_remote_suspicions": "core.merges",
    "repro.core.tags:SuspicionState.merge_remote_mistakes": "core.merges",
    "repro.core.tags:SuspicionState.merge_remote_suspicion": "core.merges",
    "repro.core.tags:SuspicionState.merge_remote_mistake": "core.merges",
    "repro.baselines.heartbeat:HeartbeatDetector.next_wakeup": "baselines.next_wakeup_calls",
    "repro.baselines.gossip:GossipHeartbeatDetector.next_wakeup": "baselines.next_wakeup_calls",
    "repro.baselines.phi_accrual:PhiAccrualDetector.next_wakeup": "baselines.next_wakeup_calls",
    "repro.partial.covering:validate_f_covering": "topology.validations",
    "repro.partial.covering:validate_f_covering_fast": "topology.validations",
    "repro.partial.covering:validate_mobility_scenario": "topology.validations",
    "repro.sim.topology:Topology.is_f_covering": "topology.validations",
}

#: baseline wakeups, counted and judged useful when they beat or change suspects
BASELINE_WAKEUPS = (
    "repro.baselines.heartbeat:HeartbeatDetector.on_wakeup",
    "repro.baselines.gossip:GossipHeartbeatDetector.on_wakeup",
    "repro.baselines.phi_accrual:PhiAccrualDetector.on_wakeup",
)

#: functions that open a coarse span, by qualified name
SPANS = {
    "repro.sim.engine:Scheduler.run": "scheduler.run",
    "repro.sim.topology:full_mesh": "topology.build",
    "repro.sim.topology:ring": "topology.build",
    "repro.sim.topology:grid": "topology.build",
    "repro.sim.topology:star": "topology.build",
    "repro.sim.topology:random_geometric": "topology.build",
    "repro.sim.topology:manet_topology": "topology.build",
    "repro.partial.covering:validate_f_covering": "topology.build",
    "repro.partial.covering:validate_f_covering_fast": "topology.build",
    "repro.partial.covering:validate_mobility_scenario": "topology.build",
    "repro.harness.artifacts:write_artifact": "artifact.write",
}

COUNTER_NAMES = (
    "core.rounds",
    "core.merges",
    "baselines.wakeups",
    "baselines.useful_wakeups",
    "baselines.next_wakeup_calls",
    "topology.validations",
)


def layer_of_module(module: str) -> str | None:
    """The layer owning ``module`` (``None`` for the runtime plane and the rest)."""
    best, best_len = None, -1
    for layer, prefixes in LAYER_MODULES.items():
        for prefix in prefixes:
            if (module == prefix or module.startswith(prefix + ".")) and len(prefix) > best_len:
                best, best_len = layer, len(prefix)
    return best


def _slot_of(module: str, qualname: str, layer: str) -> str:
    if layer == "trace":
        name = qualname.rsplit(".", 1)[-1]
        recording = name.startswith(("record", "_ingest", "_col_of", "intern"))
        return "trace.record" if recording else "trace.query"
    if module == FAULT_BUILDER_MODULE and (
        "fault" in qualname.lower() or qualname.startswith("_build_")
    ):
        return "faults"
    return layer


class Tracer:
    """Layer accumulators, counters and spans for one traced workload run."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.self_s = [0.0] * len(SLOTS)
        #: (from-slot, to-slot) -> layer switches; from ``engine`` these are
        #: the events each layer owns
        self.switches: dict[tuple[int, int], int] = {}
        self.counters = dict.fromkeys(COUNTER_NAMES, 0)
        self.spans: list[tuple[str, float, float, int, int]] = []
        self._open: list[int] = []
        self.cell = -1
        # [active slot, time of the last mark]
        self._state = [SLOT["other"], self.clock()]
        self._patches: list[tuple[Any, str, Any]] = []
        self._wrapped: dict[int, Any] = {}

    # -- wrappers --------------------------------------------------------------
    def _layer_wrapper(self, fn: Callable, slot: int) -> Callable:
        state, self_s, switches, clock = self._state, self.self_s, self.switches, self.clock

        def wrapper(*args, **kwargs):
            prev = state[0]
            if prev == slot:
                return fn(*args, **kwargs)
            now = clock()
            self_s[prev] += now - state[1]
            state[0] = slot
            state[1] = now
            key = (prev, slot)
            switches[key] = switches.get(key, 0) + 1
            try:
                return fn(*args, **kwargs)
            finally:
                now = clock()
                self_s[slot] += now - state[1]
                state[0] = prev
                state[1] = now

        return wrapper

    def _counted(self, fn: Callable, name: str) -> Callable:
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _baseline_wakeup(self, fn: Callable) -> Callable:
        counters = self.counters

        def wrapper(detector, now):
            before = detector.suspects
            effects = fn(detector, now)
            counters["baselines.wakeups"] += 1
            if effects or detector.suspects != before:
                counters["baselines.useful_wakeups"] += 1
            return effects

        return wrapper

    def span(self, name: str, fn: Callable) -> Callable:
        """Wrap ``fn`` so each call records one coarse span."""
        spans, opened, clock = self.spans, self._open, self.clock

        def wrapper(*args, **kwargs):
            parent = opened[-1] if opened else -1
            index = len(spans)
            spans.append((name, clock(), 0.0, parent, self.cell))
            opened.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                opened.pop()
                entry = spans[index]
                spans[index] = (entry[0], entry[1], clock(), entry[3], entry[4])

        return wrapper

    def wrap(self, fn: Callable, module: str, qualname: str, layer: str) -> Callable:
        key = f"{module}:{qualname}"
        slot = SLOT[_slot_of(module, qualname, layer)]
        wrapped = self._layer_wrapper(fn, slot)
        if key in COUNTED:
            wrapped = self._counted(wrapped, COUNTED[key])
        if key in BASELINE_WAKEUPS:
            wrapped = self._baseline_wakeup(wrapped)
        if key in SPANS:
            wrapped = self.span(SPANS[key], wrapped)
        return _named_like(wrapped, fn)

    # -- installation ------------------------------------------------------------
    def _set(self, owner: Any, name: str, value: Any) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        """Wrap every layer function of the already imported ``repro`` modules."""
        modules = {
            name: module
            for name, module in sorted(sys.modules.items())
            if name.startswith("repro") and isinstance(module, types.ModuleType)
        }
        for name, module in modules.items():
            layer = layer_of_module(name)
            if layer is None:
                continue
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value.__module__ == name:
                    if not inspect.isgeneratorfunction(value):
                        self._wrapped[id(value)] = self.wrap(value, name, attr, layer)
                elif isinstance(value, type) and value.__module__ == name:
                    self._wrap_class(value, name, layer)
        # Rebind every reference to a wrapped function: module globals (names
        # imported into other modules) and one level into registry containers.
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                replacement = self._wrapped.get(id(value))
                if replacement is not None and replacement is not value:
                    self._set(module, attr, replacement)
                elif isinstance(value, dict):
                    for item in list(value.values()):
                        self._rebind_fields(item)

    def _rebind_fields(self, obj: Any) -> None:
        fields = getattr(type(obj), "__dataclass_fields__", None)
        if not fields:
            return
        for field_name in fields:
            value = getattr(obj, field_name, None)
            replacement = self._wrapped.get(id(value))
            if replacement is not None:
                self._patches.append((obj, field_name, value))
                object.__setattr__(obj, field_name, replacement)

    def _wrap_class(self, cls: type, module: str, layer: str) -> None:
        if issubclass(cls, (enum.Enum, BaseException)) or getattr(cls, "_is_protocol", False):
            return
        for attr, value in list(cls.__dict__.items()):
            if attr.startswith("__") and attr not in ("__init__", "__call__"):
                continue
            qualname = f"{cls.__qualname__}.{attr}"
            if isinstance(value, types.FunctionType):
                if inspect.isgeneratorfunction(value):
                    continue
                self._set(cls, attr, self.wrap(value, module, qualname, layer))
            elif isinstance(value, (staticmethod, classmethod)):
                inner = value.__func__
                if isinstance(inner, types.FunctionType):
                    wrapped = self.wrap(inner, module, qualname, layer)
                    self._set(cls, attr, type(value)(wrapped))
            elif isinstance(value, property) and value.fget is not None:
                getter = self.wrap(value.fget, module, qualname, layer)
                self._set(cls, attr, property(getter, value.fset, value.fdel, value.__doc__))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            if isinstance(owner, type) or isinstance(owner, types.ModuleType):
                setattr(owner, name, original)
            else:
                object.__setattr__(owner, name, original)
        self._patches.clear()
        self._wrapped.clear()

    # -- cells -----------------------------------------------------------------
    def flush(self) -> None:
        """Charge the time since the last mark to the active slot."""
        now = self.clock()
        self.self_s[self._state[0]] += now - self._state[1]
        self._state[1] = now

    def snapshot(self) -> list[float]:
        self.flush()
        return list(self.self_s)


def _named_like(wrapper: Callable, fn: Callable) -> Callable:
    wrapper.__name__ = fn.__name__
    wrapper.__qualname__ = fn.__qualname__
    wrapper.__doc__ = fn.__doc__
    wrapper.__wrapped__ = fn
    return wrapper
