#!/usr/bin/env python3
"""Regenerate the golden-figure fixtures under ``tests/data/golden/``.

The golden files lock the paper's headline numbers — Table II makespan and
energy totals, the Figure 6/7 heterogeneity points, and the Figure 9
candidate/power trajectory — against silent drift: ``tests/test_goldens.py``
re-runs the same scenarios and asserts bit-identical agreement with these
fixtures.  ``grids.json`` pins the ``(scenario_id, content_hash)`` list of
every named grid, so stores written by ``repro sweep --grid NAME`` keep
serving cache hits (a change there orphans those stores' records), and
``cli/*.txt`` pins the exact stdout of the figure commands.  Refactors of the engine, the energy accountant or the event
machinery must reproduce these numbers exactly (JSON serialises doubles
through ``repr``, which round-trips, so equality here is equality of the
underlying bits).

Run from the repository root after an *intentional* numerical change::

    PYTHONPATH=src python tools/make_goldens.py

and commit the regenerated fixtures together with the change that moved
them.  The tool prints a diff summary when a fixture changes.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

DATA_DIR = Path(__file__).resolve().parent.parent / "tests" / "data"
GOLDEN_DIR = DATA_DIR / "golden"
CLI_GOLDEN_DIR = GOLDEN_DIR / "cli"

#: Header of the energy fixtures.  Energy has one integration, the 1 Hz
#: quantized reading; the key stays so regenerated files match byte for byte.
ENERGY_HEADER = {"energy_mode": "quantized"}

#: Preset scales captured per figure.  "quick" keeps the regression tests
#: fast; "paper" locks the actual published-figure numbers.
SCALES = ("quick", "paper")


def table2_golden() -> dict:
    """Makespan/energy totals per policy (Table II, Figure 5)."""
    from repro.runner.executor import run_scenarios
    from repro.runner.grids import table2_grid

    scales = {}
    for scale in SCALES:
        results = run_scenarios(table2_grid(scale)).by_policy()
        scales[scale] = {
            policy: {
                "makespan": result.metrics["makespan"],
                "total_energy": result.metrics["total_energy"],
                "task_count": int(result.metrics["task_count"]),
                "energy_per_cluster": dict(result.detail["energy_per_cluster"]),
            }
            for policy, result in results.items()
        }
    return {**ENERGY_HEADER, "scales": scales}


def figure9_spec(scale: str):
    """The Figure 9 scenario at one workload scale."""
    from repro.runner.spec import ScenarioSpec

    return ScenarioSpec(experiment="adaptive", workload=scale, policy="GREENPERF")


def figure9_golden() -> dict:
    """Candidate-count and windowed-power trajectories (Figure 9)."""
    from repro.lab.compat import session_for_spec

    scales = {}
    for scale in SCALES:
        result = session_for_spec(figure9_spec(scale)).run()
        scales[scale] = {
            "candidate_series": [[time, count] for time, count in result.candidate_series],
            "power_series": [[time, power] for time, power in result.power_series],
            "completed_tasks": result.completed_tasks,
            "total_energy": result.total_energy,
            "total_nodes": result.total_nodes,
        }
    return {**ENERGY_HEADER, "scales": scales}


def queue_table_results() -> dict:
    """Queue-policy results on the bundled SWF trace at 16 cores, by policy."""
    from repro.runner.executor import run_scenarios
    from repro.runner.grids import queue_grid

    grid = queue_grid(str(DATA_DIR / "mini.swf"), platforms=("quick",), queue_cores=16)
    return run_scenarios(grid).by_policy()


def queue_table_golden() -> dict:
    """Makespan/energy/wait per queue policy on the bundled SWF trace.

    The mini.swf trace at 16 cores is the reference scenario where the
    backfill planners visibly beat FCFS (a wide job head-blocks runnable
    small jobs); the fixture locks each policy's schedule bits.
    """
    policies = {}
    for policy, result in queue_table_results().items():
        policies[policy] = {
            "makespan": result.metrics["makespan"],
            "total_energy": result.metrics["total_energy"],
            "mean_wait": result.metrics["mean_wait"],
            "completed": result.metrics["task_count"],
            "failed": result.metrics["failed_tasks"],
        }
    return {"trace": "mini.swf", "queue_cores": 16, "policies": policies}


#: Policies replayed over the bundled trace and failure timeline per figure.
TRACE_REPLAY_POLICIES = ("POWER", "GREENPERF", "PERFORMANCE", "RANDOM", "GREEN_SCORE", "EASY")


def heterogeneity_golden(kinds: int) -> dict:
    """Figure 6 (``kinds=2``) or Figure 7 (``kinds=4``) of the point backend.

    Per scale: every plotted policy point, the RANDOM area and one EASY
    run (a queue name on the point study, i.e. ``family="plugin"``).
    Per policy: one open-loop replay of the bundled SWF trace under the
    bundled failure timeline, which exercises the point backend's
    availability windows.
    """
    from dataclasses import asdict

    from repro.experiments.greenperf_eval import HeterogeneityResult
    from repro.lab.compat import session_for_spec
    from repro.runner.executor import run_scenarios
    from repro.runner.grids import heterogeneity_grid
    from repro.runner.spec import ScenarioSpec

    base = ScenarioSpec(experiment="heterogeneity", platform=f"types{kinds}")
    scales = {}
    for scale in SCALES:
        outcome = run_scenarios(heterogeneity_grid((kinds,), scale))
        result = HeterogeneityResult.from_results(outcome.results, kinds)
        easy = session_for_spec(base.replace(workload=scale, policy="EASY")).run()
        scales[scale] = {
            "points": {policy: asdict(point) for policy, point in result.points.items()},
            "random_area": asdict(result.random_area),
            "easy": asdict(easy.point),
        }
    replay = base.replace(
        workload="trace",
        trace=str(DATA_DIR / "mini.swf"),
        timeline=str(DATA_DIR / "failures.toml"),
    )
    replays = {
        policy: asdict(session_for_spec(replay.replace(policy=policy)).run().point)
        for policy in TRACE_REPLAY_POLICIES
    }
    return {"kinds": kinds, "scales": scales, "trace_replay": replays}


def grids_golden() -> dict:
    """``(scenario_id, content_hash)`` of every named grid, in grid order."""
    from repro.runner.grids import grid, named_grids

    return {
        name: [[spec.scenario_id, spec.content_hash()] for spec in grid(name)]
        for name in named_grids()
    }


#: ``repro`` invocations whose stdout is pinned byte for byte, by file name.
CLI_COMMANDS = {
    "table2-quick.txt": ("table2", "--quick"),
    "fig2-quick.txt": ("fig2", "--quick"),
    "fig3-quick.txt": ("fig3", "--quick"),
    "fig4-quick.txt": ("fig4", "--quick"),
    "fig5-quick.txt": ("fig5", "--quick"),
    "fig6-quick.txt": ("fig6", "--quick"),
    "fig7-quick.txt": ("fig7", "--quick"),
    "fig9-quick.txt": ("fig9", "--quick"),
    "table2.txt": ("table2",),
    "fig5.txt": ("fig5",),
    "fig4-quick-seed3.txt": ("fig4", "--quick", "--seed", "3"),
    "fig6-quick-seed7.txt": ("fig6", "--quick", "--seed", "7"),
}


def cli_stdout(argv) -> str:
    """What ``repro <argv>`` prints, run in-process."""
    from repro.cli import main

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        status = main(list(argv))
    if status != 0:
        raise RuntimeError(f"repro {' '.join(argv)} exited with {status}")
    return buffer.getvalue()


GOLDENS = {
    "table2.json": table2_golden,
    "figure6.json": lambda: heterogeneity_golden(2),
    "figure7.json": lambda: heterogeneity_golden(4),
    "figure9.json": figure9_golden,
    "queue_table.json": queue_table_golden,
    "grids.json": grids_golden,
}


def _write(path: Path, payload: str) -> bool:
    """Write ``payload`` to ``path``; report and return whether it changed."""
    previous = path.read_text("utf-8") if path.exists() else None
    name = path.relative_to(GOLDEN_DIR)
    if payload == previous:
        print(f"make_goldens: {name}: unchanged")
        return False
    path.write_text(payload, "utf-8")
    state = "rewritten" if previous is not None else "created"
    print(f"make_goldens: {name}: {state}")
    return True


def main() -> int:
    CLI_GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    changed = 0
    for name, build in GOLDENS.items():
        payload = json.dumps(build(), indent=2, sort_keys=True) + "\n"
        changed += _write(GOLDEN_DIR / name, payload)
    for name, argv in CLI_COMMANDS.items():
        changed += _write(CLI_GOLDEN_DIR / name, cli_stdout(argv))
    total = len(GOLDENS) + len(CLI_COMMANDS)
    print(f"make_goldens: {total} fixture(s), {changed} changed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
