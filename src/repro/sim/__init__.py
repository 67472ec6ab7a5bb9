"""Deterministic discrete-event simulation substrate.

The paper evaluates its detector on OMNeT++; this package is the equivalent
substrate built from scratch: a seeded, deterministic event scheduler
(:mod:`repro.sim.engine`), pluggable message-latency models
(:mod:`repro.sim.latency`), network topologies including the paper's
f-covering MANET construction (:mod:`repro.sim.topology`), a simulated
radio/packet network (:mod:`repro.sim.network`), crash and mobility fault
injection (:mod:`repro.sim.faults`), structured run traces
(:mod:`repro.sim.trace`), and drivers that host the sans-I/O detector cores
on all of it (:mod:`repro.sim.node`, :mod:`repro.sim.cluster`).

Determinism contract: a simulation constructed from the same parameters and
seed produces the *identical* trace (event order, timestamps, suspicions) on
every run — property-tested in ``tests/property/test_determinism.py``.
"""

from .cluster import SimCluster, heartbeat_driver_factory, time_free_driver_factory
from .engine import EventHandle, Scheduler
from .faults import CrashFault, FaultPlan, MobilityFault
from .latency import (
    BiasedLatency,
    ConstantLatency,
    ExponentialLatency,
    LatencyModel,
    LogNormalLatency,
    PairwiseLatency,
    ParetoLatency,
    RegimeShiftLatency,
    TimeAwareLatency,
    UniformLatency,
)
from .network import SimNetwork
from .node import QueryPacing, QueryResponseDriver, SimProcess, TimedDriver
from .rng import RngStreams
from .topology import Topology, full_mesh, grid, manet_topology, random_geometric, ring
from .trace import RoundRecord, SuspicionChange, TraceRecorder

__all__ = [
    "BiasedLatency",
    "ConstantLatency",
    "CrashFault",
    "EventHandle",
    "ExponentialLatency",
    "FaultPlan",
    "LatencyModel",
    "LogNormalLatency",
    "MobilityFault",
    "PairwiseLatency",
    "ParetoLatency",
    "QueryPacing",
    "RegimeShiftLatency",
    "TimeAwareLatency",
    "QueryResponseDriver",
    "RngStreams",
    "RoundRecord",
    "Scheduler",
    "SimCluster",
    "SimNetwork",
    "SimProcess",
    "SuspicionChange",
    "TimedDriver",
    "Topology",
    "TraceRecorder",
    "UniformLatency",
    "full_mesh",
    "grid",
    "heartbeat_driver_factory",
    "manet_topology",
    "random_geometric",
    "ring",
    "time_free_driver_factory",
]
