#!/usr/bin/env python3
"""End-to-end grid benchmark with a per-layer traced run.

Run from the repository root::

    python3 perfbench/run.py --workload smoke-query --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload wide-mesh --seed 7 --seconds 20 --trace 1
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --write-pins      # re-pin digests (seed 1 only)

``--trace 0`` measures the end-to-end metrics: whole passes over the
workload's grids (evaluate every cell on one worker with no cache,
tabulate, write the artifacts) until ``--seconds`` have been measured, and
set-up time in fresh interpreters before the first pass and after each
pass.  Times are reported in reference seconds: host seconds scaled by the
host speed that probes timed next to the work measured (``hostspeed.py``).
``--trace 1`` runs one untraced pass and
then traced passes with per-layer wrappers installed, and reports the
per-layer metrics.  Every pass is checked (see ``checks.py``); any failure
makes the command exit non-zero.  The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for the metric glossary.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: fresh-interpreter set-up samples taken before the first pass and after
#: every pass, so that they sample the host across the whole run
SETUP_SAMPLES = 6
#: a set-up sample may not take longer than this
SETUP_TIMEOUT_S = 60
#: per-layer metrics printed on note lines but kept out of the result line:
#: no partial detector runs on smoke-query, so there they read exactly 0
PRINTED_ONLY = ("partial.self_s", "partial.share")


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="smoke-query")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--write-pins", action="store_true")
    parser.add_argument(
        "--corrupt-cell",
        type=int,
        default=None,
        metavar="INDEX",
        help="alter one cell value of the first grid before the checks; at the pinned "
        "seed the run must then fail",
    )
    parser.add_argument("--setup-sample", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- set-up ---------------------------------------------------------------------------


def _setup_sample(workload_name: str, seed: int) -> int:
    """Runs in a fresh interpreter: everything a run does before its first cell,
    timed between two set-up probes (see ``hostspeed.py``) after one that warms
    the probe up."""
    hostspeed.setup_probe()
    probe_before = hostspeed.setup_probe()
    start = time.perf_counter()
    import repro  # noqa: F401
    from repro.consensus import all_protocols
    from repro.detectors import all_detectors
    from repro.experiments.api import all_experiments

    from workloads import WORKLOADS, resolve

    all_experiments()
    all_detectors()
    all_protocols()
    grids = resolve(WORKLOADS[workload_name], seed)
    elapsed = time.perf_counter() - start
    probe_s = (probe_before + hostspeed.setup_probe()) / 2
    cells = sum(len(g[2]) for g in grids)
    print(json.dumps({"setup_s": elapsed, "probe_s": probe_s, "cells": cells}))
    return 0


def _measure_setup(workload_name: str, seed: int) -> tuple[list[tuple[float, float]], int]:
    """``SETUP_SAMPLES`` set-up times, each in a fresh interpreter, with the
    mean set-up probe time around it; and the workload's cell count."""
    samples, cells = [], 0
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-sample",
             "--workload", workload_name, "--seed", str(seed)],
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
            cwd=ROOT,
            check=True,
        )
        result = json.loads(done.stdout.strip().splitlines()[-1])
        samples.append((result["setup_s"], result["probe_s"]))
        cells = result["cells"]
    return samples, cells


# -- passes ---------------------------------------------------------------------------


class Pass:
    """One evaluation of every grid of the workload."""

    def __init__(self) -> None:
        #: host seconds per grid (evaluate, tabulate, write) and per cell,
        #: with the speed samples taken out
        self.grid_s: list[float] = []
        self.cell_s: list[float] = []
        #: mean host speed over each grid and each cell (see ``hostspeed.py``)
        self.grid_speed: list[float] = []
        self.cell_speed: list[float] = []
        self.values: list[list] = []
        self.artifacts: list[bytes] = []
        self.ledgers: list[dict] = []
        self.errors: list[str] = []

    @property
    def wall_s(self) -> float:
        return sum(self.grid_s)


def _run_pass(grids, out_dir: Path, ledger, tracer=None, cell_layers=None, sampler=None) -> Pass:
    """Evaluate every grid once; with ``sampler`` running, measure host speed."""
    from repro.harness import artifacts, runner

    import ledger as ledger_mod

    result = Pass()
    clock = time.perf_counter
    cell_ledgers: list[dict] = []
    cell_windows: list[tuple[float, float]] = []
    grid_windows: list[tuple[float, float]] = []

    def spent() -> float:
        return sampler.spent if sampler is not None else 0.0

    def timed_cell(run_cell):
        def cell(params, coords, seed):
            ledger.begin_cell()
            if tracer is not None:
                tracer.cell = len(result.cell_s)
                before = tracer.snapshot()
            sampled = spent()
            start = clock()
            try:
                return run_cell(params, coords, seed)
            finally:
                end = clock()
                result.cell_s.append(end - start - (spent() - sampled))
                cell_windows.append((start, end))
                if tracer is not None:
                    after = tracer.snapshot()
                    cell_layers.append([b - a for a, b in zip(before, after)])
                    tracer.cell = -1
                cell_ledgers.append(ledger.end_cell())

        if tracer is not None:
            return tracer.span("cell", cell)
        return cell

    gc.collect()
    written = []
    for spec, params, cells, _seeds in grids:
        tabulate = spec.tabulate
        if tracer is not None:
            tabulate = tracer.span("tabulate", tabulate)
        timed = dataclasses.replace(spec, run_cell=timed_cell(spec.run_cell), tabulate=tabulate)
        first = len(cell_ledgers)
        sampled = spent()
        start = clock()
        try:
            grid = runner.run_grid(timed, params, workers=1, cache=None)
            grid.tables()
            written.append(artifacts.write_artifact(out_dir, grid))
            result.values.append(grid.values)
        except Exception as exc:  # a raising cell fails its grid, not the run
            result.errors.append(f"{spec.exp_id}: {type(exc).__name__}: {exc}")
            result.values.append(None)
            written.append(None)
        end = clock()
        result.grid_s.append(end - start - (spent() - sampled))
        grid_windows.append((start, end))
        totals = ledger_mod.empty()
        for entry in cell_ledgers[first:]:
            ledger_mod.add(totals, entry)
        result.ledgers.append(totals)
    result.artifacts = [path.read_bytes() if path else b"" for path in written]
    if sampler is not None:
        result.cell_speed = [sampler.speed(*window) for window in cell_windows]
        result.grid_speed = [sampler.speed(*window) for window in grid_windows]
    return result


def _check_pass(workload, grids, run: Pass, pins, corrupt_cell) -> tuple[int, int, list[str]]:
    from checks import check_grid, grid_pins

    attempted = failed = 0
    problems = list(run.errors)
    for index, (spec, params, cells, _seeds) in enumerate(grids):
        attempted += len(cells)
        values = run.values[index]
        if values is None:
            failed += len(cells)
            continue
        if index == 0 and corrupt_cell is not None:
            values = [dict(v) for v in values]
            values[corrupt_cell] = {**values[corrupt_cell], "corrupted": True}
        pinned = grid_pins(pins, workload.name, spec.exp_id)
        bad, grid_problems = check_grid(
            spec, params, values, run.artifacts[index], run.ledgers[index], pinned
        )
        failed += len(bad)
        problems.extend(grid_problems)
    return attempted, failed, problems


def _same_outputs(first: Pass, other: Pass, label: str) -> list[str]:
    problems = []
    for index, (a, b) in enumerate(zip(first.artifacts, other.artifacts)):
        if a != b:
            problems.append(f"grid {index}: artifact bytes differ ({label})")
    for index, (a, b) in enumerate(zip(first.ledgers, other.ledgers)):
        if a != b:
            problems.append(f"grid {index}: counter ledger differs ({label})")
    return problems


# -- metrics --------------------------------------------------------------------------


def _reference_times(grids, passes: list[Pass]) -> tuple[list[float], list[float]]:
    """Each cell's time (the median over the passes), and each pass's wall,
    in reference seconds.

    A cell's host time is scaled by the host speed sampled while it ran (see
    ``hostspeed.py``); a grid's time outside its cells (runner, tabulate,
    artifact write) by the speed sampled over the grid.
    """
    cell_runs, walls = [], []
    for run in passes:
        cells = [t * speed for t, speed in zip(run.cell_s, run.cell_speed)]
        wall, start = sum(cells), 0
        for index, (_spec, _params, grid_cells, _seeds) in enumerate(grids):
            end = start + len(grid_cells)
            rest = run.grid_s[index] - sum(run.cell_s[start:end])
            wall += rest * run.grid_speed[index]
            start = end
        cell_runs.append(cells)
        walls.append(wall)
    return [statistics.median(samples) for samples in zip(*cell_runs)], walls


def _end_to_end(grids, passes: list[Pass], setup_s: float) -> tuple[dict, list[str]]:
    """The end-to-end metrics, in reference seconds, and notes for people."""
    cells, walls = _reference_times(grids, passes)
    wall = statistics.median(walls)
    names = [
        f"{spec.exp_id} {coords}" for spec, _params, grid_cells, _seeds in grids
        for coords in grid_cells
    ]
    ordered = sorted(range(len(cells)), key=cells.__getitem__)
    slowest = ordered[-1]
    metrics = {
        "wall_s": (wall, "s"),
        "cells_per_s": (len(cells) / wall, "cells/s"),
        "cell_p50_s": (statistics.median(cells), "s"),
    }
    notes = []
    # the highest percentile with at least 10 cells beyond it
    rank = len(ordered) - 10
    if rank >= 1:
        metrics["cell_tail_s"] = (cells[ordered[rank - 1]], "s")
        notes.append(
            f"cell_tail_s is p{100.0 * rank / len(cells):.1f} of {len(cells)} cells, "
            "10 cells beyond"
        )
    else:
        notes.append(f"cell_tail_s omitted: {len(cells)} cells, fewer than 11")
    metrics.update(
        {
            "slowest_cell_s": (cells[slowest], "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "setup_s": (setup_s, "s"),
        }
    )
    notes.append(f"slowest cell: {names[slowest]}")
    speeds = [speed for run in passes for speed in run.cell_speed]
    notes.append(
        f"host_wall_s {statistics.median(run.wall_s for run in passes):.6f} s  "
        f"(median pass in host seconds; host speed {min(speeds):.2f}-{max(speeds):.2f}, "
        f"median {statistics.median(speeds):.3f})"
    )
    return metrics, notes


def _per_layer(tracer, traced: list[Pass], untraced: Pass) -> dict:
    """Per-layer metrics, per traced pass (counts repeat exactly across passes)."""
    from tracer import SLOT, SLOTS

    import ledger as ledger_mod

    runs = len(traced)
    wall = sum(p.wall_s for p in traced) / runs
    merged = ledger_mod.empty()
    for entry in traced[0].ledgers:
        ledger_mod.add(merged, entry)
    totals: dict = {}
    self_s = {name: tracer.self_s[SLOT[name]] / runs for name in SLOTS}
    self_s["trace"] = self_s.pop("trace.record") + self_s.pop("trace.query")
    counters = {k: v / runs for k, v in tracer.counters.items()}
    switches = tracer.switches

    def switch(src: str, dst: str) -> float:
        return switches.get((SLOT[src], SLOT[dst]), 0) / runs

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def span_total(name: str) -> float:
        spans = tracer.spans
        total = 0.0
        for span_name, start, end, parent, _cell in spans:
            if span_name == name and (parent < 0 or spans[parent][0] != name):
                total += end - start
        return total / runs

    deliveries = switch("network", "drivers") + switch("network", "consensus")
    for layer, seconds in self_s.items():
        if layer == "other":
            continue
        totals[f"{layer}.self_s"] = (seconds, "s")
        totals[f"{layer}.share"] = (ratio(seconds, wall), "ratio")
    totals.update(
        {
            "engine.events": (merged["events"], "count"),
            "engine.us_per_event": (ratio(self_s["engine"] * 1e6, merged["events"]), "us"),
            "network.sent": (merged["messages_total"], "count"),
            "network.dropped": (merged["messages_dropped"], "count"),
            "network.delivery_ratio": (ratio(deliveries, merged["messages_total"]), "ratio"),
            "drivers.deliveries": (deliveries, "count"),
            "drivers.wakeups": (switch("engine", "drivers"), "count"),
            "core.rounds": (counters["core.rounds"], "count"),
            "core.merges": (counters["core.merges"], "count"),
            "core.changes_per_round": (
                ratio(merged["query_cluster_changes"], merged["query_rounds"]),
                "ratio",
            ),
            "baselines.wakeups": (counters["baselines.wakeups"], "count"),
            "baselines.next_wakeup_calls": (counters["baselines.next_wakeup_calls"], "count"),
            "baselines.useful_wakeup_ratio": (
                ratio(counters["baselines.useful_wakeups"], counters["baselines.wakeups"]),
                "ratio",
            ),
            "trace.record_s": (tracer.self_s[SLOT["trace.record"]] / runs, "s"),
            "trace.query_s": (tracer.self_s[SLOT["trace.query"]] / runs, "s"),
            "trace.changes": (merged["suspicion_changes"], "count"),
            "trace.rounds": (merged["query_rounds"], "count"),
            "topology.build_s": (span_total("topology.build"), "s"),
            "topology.validations": (counters["topology.validations"], "count"),
            "faults.events": (merged["fault_events"], "count"),
            "consensus.decided": (merged["consensus_decided"], "count"),
            "consensus.aborted_ratio": (
                ratio(merged["consensus_nacks"], merged["consensus_rounds"]),
                "ratio",
            ),
            "harness.artifact_bytes": (sum(len(a) for a in traced[0].artifacts), "bytes"),
            "experiments.tabulate_s": (span_total("tabulate"), "s"),
            "trace_overhead": (ratio(wall, untraced.wall_s), "ratio"),
        }
    )
    return totals


# -- output ---------------------------------------------------------------------------


def _write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def _emit(metrics: dict, attempted: int, failed: int, problems: list[str], notes: list[str]) -> int:
    for name, (value, unit) in metrics.items():
        print(f"{name:<32} {value:.6f} {unit}")
    for note in notes:
        print(note)
    print(f"failed_share {failed / attempted:.6f}  ({failed} of {attempted} cells)")
    for problem in problems[:50]:
        print(f"CHECK FAILED: {problem}")
    correct = not problems and failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


def _run_workload(args) -> int:
    from workloads import WORKLOADS, resolve

    workload = WORKLOADS[args.workload]
    setup_samples: list[tuple[float, float]] = []
    if not args.trace:
        setup_samples, sample_cells = _measure_setup(workload.name, args.seed)
        if sample_cells != workload.cells:
            print(f"set-up enumerated {sample_cells} cells, expected {workload.cells}",
                  file=sys.stderr)
            return 1

    from checks import load_pins
    from workloads import DEFAULT_SEED

    import ledger as ledger_mod

    grids = resolve(workload, args.seed)
    pins = load_pins() if args.seed == DEFAULT_SEED else None
    out_dir = OUT / workload.name
    ledger = ledger_mod.Ledger()
    ledger.install()
    problems: list[str] = []
    attempted = failed = 0
    try:
        if args.trace:
            from tracer import SLOTS, Tracer

            untraced = _run_pass(grids, out_dir / "untraced", ledger)
            tracer = Tracer()
            tracer.install()
            traced: list[Pass] = []
            cell_layers: list[list[float]] = []
            measured = 0.0
            try:
                while not traced or measured < args.seconds:
                    traced.append(_run_pass(grids, out_dir / "traced", ledger, tracer, cell_layers))
                    measured += traced[-1].wall_s
                tracer.flush()
            finally:
                tracer.uninstall()
            passes = [untraced, *traced]
            for run in traced:
                problems.extend(_same_outputs(untraced, run, "traced vs untraced"))
            metrics = _per_layer(tracer, traced, untraced)
            _write_json(
                out_dir / "trace.json",
                {
                    "slots": list(SLOTS),
                    "spans": tracer.spans,
                    "cell_self_s": cell_layers,
                    "switches": [[SLOTS[a], SLOTS[b], n] for (a, b), n in sorted(tracer.switches.items())],
                    "counters": tracer.counters,
                },
            )
            notes = [f"trace_overhead {metrics['trace_overhead'][0]:.3f} (traced/untraced wall_s)"]
            for name in PRINTED_ONLY:
                value, unit = metrics.pop(name)
                notes.append(f"{name} {value:.6f} {unit}  (printed only)")
        else:
            passes = []
            measured = 0.0
            while not passes or measured < args.seconds:
                with hostspeed.Sampler() as sampler:
                    passes.append(_run_pass(grids, out_dir / "untraced", ledger, sampler=sampler))
                measured += passes[-1].wall_s
                setup_samples += _measure_setup(workload.name, args.seed)[0]
            for run in passes[1:]:
                problems.extend(_same_outputs(passes[0], run, "pass vs pass"))
            setup_s = statistics.median(
                t * hostspeed.SETUP_REFERENCE_S / p for t, p in setup_samples
            )
            metrics, notes = _end_to_end(grids, passes, setup_s)
            notes.append(
                f"host_setup_s {statistics.median(t for t, _ in setup_samples):.6f} s  "
                f"(median of {len(setup_samples)} samples in host seconds)"
            )
    finally:
        ledger.uninstall()
    for run in passes:
        a, f, p = _check_pass(workload, grids, run, pins, args.corrupt_cell)
        attempted, failed = attempted + a, failed + f
        problems.extend(p)
    ledgers = {spec.exp_id: entry for (spec, *_), entry in zip(grids, passes[0].ledgers)}
    _write_json(out_dir / "ledger.json", {"seed": args.seed, "grids": ledgers})
    walls = " ".join(f"{run.wall_s:.3f}" for run in passes)
    notes.append(f"passes {len(passes)} ({walls} host s); ledger in {out_dir / 'ledger.json'}")

    return _emit(metrics, attempted, failed, problems, notes)


def _self_test() -> int:
    """One corrupted cell value of a clean t2 pass must fail exactly that cell."""
    from checks import load_pins
    from workloads import DEFAULT_SEED, WORKLOADS, resolve

    import ledger as ledger_mod

    workload = WORKLOADS["smoke-query"]
    grids = [grid for grid in resolve(workload, DEFAULT_SEED) if grid[0].exp_id == "t2"]
    ledger = ledger_mod.Ledger()
    ledger.install()
    try:
        run = _run_pass(grids, OUT / "self-test", ledger)
    finally:
        ledger.uninstall()
    pins = load_pins()
    attempted, clean, problems = _check_pass(workload, grids, run, pins, None)
    _attempted, dirty, _problems = _check_pass(workload, grids, run, pins, 0)
    print(f"self-test: clean t2 pass: {clean} of {attempted} cells failed {problems}")
    print(f"self-test: cell 0 corrupted: {dirty} of {attempted} cells failed")
    ok = clean == 0 and not problems and dirty == 1
    print("self-test:", "ok" if ok else "FAILED")
    return 0 if ok else 1


def _write_pins() -> int:
    from checks import PINS_PATH, digest, value_digest
    from workloads import DEFAULT_SEED, WORKLOADS, resolve

    import ledger as ledger_mod

    ledger = ledger_mod.Ledger()
    ledger.install()
    pins: dict = {}
    try:
        for workload in WORKLOADS.values():
            grids = resolve(workload, DEFAULT_SEED)
            run = _run_pass(grids, OUT / "pins" / workload.name, ledger)
            if run.errors:
                print("\n".join(run.errors), file=sys.stderr)
                return 1
            pins[workload.name] = {
                spec.exp_id: {
                    "cells": [value_digest(v) for v in run.values[index]],
                    "artifact": digest(run.artifacts[index]),
                    "ledger": run.ledgers[index],
                }
                for index, (spec, *_rest) in enumerate(grids)
            }
            print(f"pinned {workload.name}: {len(grids)} grids, {sum(len(g[2]) for g in grids)} cells")
    finally:
        ledger.uninstall()
    _write_json(PINS_PATH, pins)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no repro package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.setup_sample:
        return _setup_sample(args.workload, args.seed)
    if args.self_test:
        return _self_test()
    if args.write_pins:
        return _write_pins()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    return _run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
