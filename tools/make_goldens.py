#!/usr/bin/env python3
"""Regenerate the golden-figure fixtures under ``tests/data/golden/``.

The golden files lock the paper's headline numbers — Table II makespan and
energy totals, the Figure 6/7 heterogeneity points, and the Figure 9
candidate/power trajectory — against silent drift: ``tests/test_goldens.py``
re-runs the same scenarios and asserts bit-identical agreement with these
fixtures.  Refactors of the engine, the energy accountant or the event
machinery must reproduce these numbers exactly (JSON serialises doubles
through ``repr``, which round-trips, so equality here is equality of the
underlying bits).

Run from the repository root after an *intentional* numerical change::

    PYTHONPATH=src python tools/make_goldens.py

and commit the regenerated fixtures together with the change that moved
them.  The tool prints a diff summary when a fixture changes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "tests" / "data" / "golden"

#: Header of the energy fixtures.  Energy has one integration, the 1 Hz
#: quantized reading; the key stays so regenerated files match byte for byte.
ENERGY_HEADER = {"energy_mode": "quantized"}

#: Preset scales captured per figure.  "quick" keeps the regression tests
#: fast; "paper" locks the actual published-figure numbers.
SCALES = ("quick", "paper")


def table2_golden() -> dict:
    """Makespan/energy totals per policy (Table II, Figure 5)."""
    from repro.experiments.placement import run_policy_comparison
    from repro.experiments.presets import placement_config_for

    scales = {}
    for scale in SCALES:
        comparison = run_policy_comparison(
            config=placement_config_for(scale, scale)
        )
        policies = {}
        for policy in comparison.policies:
            metrics = comparison.metrics(policy)
            policies[policy] = {
                "makespan": metrics.makespan,
                "total_energy": metrics.total_energy,
                "task_count": metrics.task_count,
                "energy_per_cluster": dict(metrics.energy_per_cluster),
            }
        scales[scale] = policies
    return {**ENERGY_HEADER, "scales": scales}


def figure9_golden() -> dict:
    """Candidate-count and windowed-power trajectories (Figure 9)."""
    from repro.experiments.adaptive import adaptive_config_for, run_adaptive_experiment

    scales = {}
    for scale in SCALES:
        result = run_adaptive_experiment(adaptive_config_for(workload=scale))
        scales[scale] = {
            "candidate_series": [[time, count] for time, count in result.candidate_series],
            "power_series": [[time, power] for time, power in result.power_series],
            "completed_tasks": result.completed_tasks,
            "total_energy": result.total_energy,
            "total_nodes": result.total_nodes,
        }
    return {**ENERGY_HEADER, "scales": scales}


def queue_table_golden() -> dict:
    """Makespan/energy/wait per queue policy on the bundled SWF trace.

    The mini.swf trace at 16 cores is the reference scenario where the
    backfill planners visibly beat FCFS (a wide job head-blocks runnable
    small jobs); the fixture locks each policy's schedule bits.
    """
    from repro.experiments.presets import placement_config_for
    from repro.experiments.queue_family import run_queue_comparison

    trace = Path(__file__).resolve().parent.parent / "tests" / "data" / "mini.swf"
    comparison = run_queue_comparison(
        config=placement_config_for("quick", "trace", trace=str(trace)),
        queue_cores=16,
    )
    policies = {}
    for policy, result in comparison.results.items():
        policies[policy] = {
            "makespan": result.metrics["makespan"],
            "total_energy": result.metrics["total_energy"],
            "mean_wait": result.metrics["mean_wait"],
            "completed": result.metrics["task_count"],
            "failed": result.metrics["failed_tasks"],
        }
    return {"trace": "mini.swf", "queue_cores": 16, "policies": policies}


def heterogeneity_golden(kinds: int) -> dict:
    """Figure 6 (``kinds=2``) or Figure 7 (``kinds=4``) of the point backend.

    Per scale: every plotted policy point, the RANDOM area and one EASY
    run (a queue name on the point study, i.e. ``family="plugin"``).
    Per policy: one open-loop replay of the bundled SWF trace under the
    bundled failure timeline, which exercises the point backend's
    availability windows.
    """
    from dataclasses import asdict

    from repro.experiments.greenperf_eval import (
        HETEROGENEITY_WORKLOAD_PRESETS,
        heterogeneity_session,
        run_heterogeneity_experiment,
    )

    scales = {}
    for scale in SCALES:
        params = HETEROGENEITY_WORKLOAD_PRESETS[scale]
        result = run_heterogeneity_experiment(kinds=kinds, **params)
        easy = heterogeneity_session("EASY", kinds, **params).run().point
        scales[scale] = {
            "points": {policy: asdict(point) for policy, point in result.points.items()},
            "random_area": asdict(result.random_area),
            "easy": asdict(easy),
        }
    data = Path(__file__).resolve().parent.parent / "tests" / "data"
    replays = {}
    for policy in ("POWER", "GREENPERF", "PERFORMANCE", "RANDOM", "GREEN_SCORE", "EASY"):
        session = heterogeneity_session(
            policy,
            kinds,
            servers_per_type=2,
            trace=str(data / "mini.swf"),
            timeline=str(data / "failures.toml"),
        )
        replays[policy] = asdict(session.run().point)
    return {"kinds": kinds, "scales": scales, "trace_replay": replays}


GOLDENS = {
    "table2.json": table2_golden,
    "figure6.json": lambda: heterogeneity_golden(2),
    "figure7.json": lambda: heterogeneity_golden(4),
    "figure9.json": figure9_golden,
    "queue_table.json": queue_table_golden,
}


def main() -> int:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    changed = 0
    for name, build in GOLDENS.items():
        path = GOLDEN_DIR / name
        payload = json.dumps(build(), indent=2, sort_keys=True) + "\n"
        previous = path.read_text("utf-8") if path.exists() else None
        if payload == previous:
            print(f"make_goldens: {name}: unchanged")
            continue
        path.write_text(payload, "utf-8")
        changed += 1
        state = "rewritten" if previous is not None else "created"
        print(f"make_goldens: {name}: {state}")
    print(f"make_goldens: {len(GOLDENS)} fixture(s), {changed} changed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
