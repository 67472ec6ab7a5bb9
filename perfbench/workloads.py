"""The benchmark's workloads: which experiment grids run, with which params.

Each grid is an experiment id plus param overrides on the experiment's
default (smoke) params; the workload seed replaces every grid's base
``seed``.  Seed 1 is every experiment's default seed, so it reproduces the
committed smoke grids and is the seed the pinned digests are taken at.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

DEFAULT_SEED = 1


@dataclass(frozen=True)
class Grid:
    exp_id: str
    overrides: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    grids: tuple[Grid, ...]
    cells: int


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="smoke-query",
            why=(
                "61 cells: default t1 t2 t4 f1 f3 a1 a2 grids; the paper's query-response "
                "detector on full meshes with crash-stop faults; moves on core, engine, "
                "network, drivers and trace changes"
            ),
            grids=tuple(Grid(exp) for exp in ("t1", "t2", "t4", "f1", "f3", "a1", "a2")),
            cells=61,
        ),
        Workload(
            name="smoke-timers",
            why=(
                "85 cells: default f2 e1 e2 q1 c1 t3 grids; timer baselines, MANET "
                "topologies with the partial detector, fault presets and consensus; "
                "the bypass workload for core changes"
            ),
            grids=tuple(Grid(exp) for exp in ("f2", "e1", "e2", "q1", "c1", "t3")),
            cells=85,
        ),
        Workload(
            name="wide-mesh",
            why=(
                "2 cells: t3 with sizes=[200], detectors=[time-free, heartbeat], "
                "horizon=5.0; the same crash-free event path at 7-25x the smoke membership"
            ),
            grids=(
                Grid(
                    "t3",
                    {"sizes": (200,), "detectors": ("time-free", "heartbeat"), "horizon": 5.0},
                ),
            ),
            cells=2,
        ),
    )
}


def resolve(workload: Workload, seed: int) -> list[tuple[Any, Any, list[dict], list[int]]]:
    """``(spec, params, cells, seeds)`` per grid — the work set-up does."""
    from repro.harness.registry import get_spec
    from repro.harness.spec import cell_seed

    resolved = []
    for grid in workload.grids:
        spec = get_spec(grid.exp_id)
        params = spec.make_params(**grid.overrides, seed=seed)
        cells = spec.grid(params)
        seeds = [cell_seed(spec.exp_id, coords, params.seed) for coords in cells]
        resolved.append((spec, params, cells, seeds))
    return resolved
