"""Output checks: pinned digests, declared shapes and consensus safety.

At the default seed every cell's canonical value, every grid's artifact
bytes and every grid's counter ledger must match ``pins.json`` (taken from
the commit that introduced the benchmark — the byte-identity invariant).
At every seed each grid's declared ``shapes`` must hold, every c1 cell
must report agreement and validity, and no consensus run may break them.

A failing cell is counted in ``failed``; a grid-level failure (shape
violation, artifact or ledger mismatch, a raising cell) fails every cell
of that grid.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any

PINS_PATH = Path(__file__).with_name("pins.json")


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def value_digest(value: Any) -> str:
    from repro.harness.spec import canonical_json

    return digest(canonical_json(value).encode("utf-8"))


def load_pins() -> dict[str, Any]:
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


def grid_pins(pins: dict[str, Any] | None, workload: str, exp_id: str) -> dict[str, Any] | None:
    if pins is None:
        return None
    return pins.get(workload, {}).get(exp_id)


def check_grid(
    spec: Any,
    params: Any,
    values: list[Any],
    artifact: bytes,
    ledger: dict[str, Any],
    pinned: dict[str, Any] | None,
) -> tuple[set[int], list[str]]:
    """``(failed cell indices, problems)`` for one evaluated grid."""
    from repro.experiments.api import check_shapes

    failed: set[int] = set()
    cell_problems: list[str] = []
    grid_problems: list[str] = []
    if pinned is not None:
        for index, (value, expected) in enumerate(zip(values, pinned["cells"])):
            if value_digest(value) != expected:
                failed.add(index)
                cell_problems.append(f"{spec.exp_id} cell {index}: value digest differs from pin")
        if len(values) != len(pinned["cells"]):
            grid_problems.append(f"{len(values)} cells, pinned {len(pinned['cells'])}")
        if digest(artifact) != pinned["artifact"]:
            grid_problems.append("artifact digest differs from pin")
        if ledger != pinned["ledger"]:
            grid_problems.append("counter ledger differs from pin")
    if spec.exp_id == "c1":
        for index, value in enumerate(values):
            if not (value.get("agreement") is True and value.get("validity") is True):
                failed.add(index)
                cell_problems.append(f"c1 cell {index}: agreement/validity not true")
    if ledger["consensus_unsafe"]:
        grid_problems.append(f"{ledger['consensus_unsafe']} unsafe consensus instances")
    grid_problems.extend(check_shapes(spec, params, values))
    if grid_problems:
        failed.update(range(len(values)))
    return failed, cell_problems + [f"{spec.exp_id}: {p}" for p in grid_problems]
