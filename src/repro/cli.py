"""Command-line interface for the reproduction.

Usage (after ``pip install -e .``)::

    repro table2                 # Table II comparison
    repro fig2                   # task distribution under POWER
    repro fig3                   # task distribution under PERFORMANCE
    repro fig4                   # task distribution under RANDOM
    repro fig5                   # energy per cluster
    repro fig6                   # heterogeneity study, 2 server types
    repro fig7                   # heterogeneity study, 4 server types
    repro fig9                   # adaptive provisioning scenario
    repro table1                 # the experimental infrastructure
    repro table3                 # the simulated cluster specs
    repro sweep                  # parallel scenario sweep with cached store
    repro store verify ...       # check a result store for corruption
    repro lab run ...            # one ad-hoc component composition
    repro trace convert ...      # real SWF log -> replayable CSV trace
    repro trace stats ...        # workload statistics of a trace
    repro trace inspect ...      # header directives + leading records
    repro timeline validate ...  # check an event-timeline file
    repro timeline inspect ...   # list a timeline's events
    repro serve ...              # long-lived placement daemon (repro.serve)
    repro replay ...             # fire a trace at a running daemon
    repro --version              # the installed package version

(``python -m repro …`` works identically without installing.)

Every experiment command accepts ``--quick`` to run a reduced
configuration (useful for smoke tests) — the default is the paper-scale
configuration used by the benchmark harness — and ``--seed`` to move the
base random seed of any stochastic component.

``repro sweep`` runs a named scenario grid through the sweep runner:
``--jobs`` fans scenarios out over worker processes, ``--store`` caches
results in a crash-safe sharded store *directory* (per-hash-prefix shard
files; see ``docs/ARCHITECTURE.md``; a regular file at the path is
refused with exit 2) so a second run over the same grid is
served entirely from cache; ``--force`` bypasses the cache,
``--filter`` restricts the grid to scenarios whose id contains a
substring, and ``--profile`` appends a per-scenario wall-time /
events-per-second table.  ``--workers-dir DIR`` turns the invocation
into one *worker* of a multi-process / multi-host sweep: workers claim
work shards via lock files in DIR, execute them against the shared
``--store`` directory, sweep up anything a crashed worker left behind,
and each exits with the identical grid-order summary.

``repro store verify`` parses every record of a result store (exit 2
on corruption, reporting quarantined torn tails).
``repro sweep --trace FILE`` replaces the named grid with a
platforms × policies grid replaying a trace (the trace content hash
keys the store, so edits invalidate exactly the affected entries).
``repro sweep --timeline FILE`` replaces it with a platforms × horizons
adaptive grid driven by a declarative event timeline — tariff
schedules, thermal excursions, node crashes and workload bursts
(``docs/SCENARIOS.md``); the *parsed* timeline's content hash keys the
store.  Giving both (equivalently ``--grid cross``) composes them into
the trace × timeline × provisioning cross grid — a recorded request
stream, replayed under fault injection, both with fixed policies and
through the adaptive provisioning planner.

``repro lab run`` executes one ad-hoc composition through
:mod:`repro.lab` — any workload (synthetic preset, ``--trace``) × any
policy × any event timeline on any experiment family — and prints the
uniform metric summary.  ``--set KEY=VALUE`` overrides individual
experiment parameters.

``repro timeline`` works with timeline files: ``validate`` parses and
validates one (exit 2 on errors), ``inspect`` lists its events.

``repro serve`` opens a lab composition as the long-lived placement
daemon of :mod:`repro.serve` (``docs/SERVING.md``): HTTP/JSON task
submission with per-tenant token-bucket quotas, a bounded backlog and
micro-batched scoring.  ``repro replay`` is the matching client: it
fires a trace file at a running daemon in real or accelerated time and
prints the admission/placement totals.

``repro trace`` is the real-log pipeline (``docs/TRACE_FORMAT.md``):
``convert`` parses a Standard Workload Format log, maps jobs onto tasks
and writes a CSV trace (with ``--window``, ``--sample-users``,
``--scale-arrivals``, ``--scale-load`` and ``--truncate`` transforms);
``stats`` summarises a trace; ``inspect`` shows raw header directives
and leading records.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

from repro.util.tables import render_table

if TYPE_CHECKING:
    from repro.workload.ingest.mapping import SWFTraceMap


def _scale(args: argparse.Namespace) -> str:
    return "quick" if args.quick else "paper"


def _cmd_table1(args: argparse.Namespace) -> str:
    from repro.experiments.presets import paper_infrastructure_table

    rows = paper_infrastructure_table()
    lines = ["Table I — experimental infrastructure"]
    lines.append(f"{'Cluster':<12}{'Nodes':>6}  {'CPU':<22}{'Memory':>8}  Role")
    for row in rows:
        lines.append(
            f"{row['cluster']:<12}{row['nodes']:>6}  {row['cpu']:<22}"
            f"{row['memory_gb']:>6.0f}GB  {row['role']}"
        )
    return "\n".join(lines)


def _cmd_table2(args: argparse.Namespace) -> str:
    from repro.experiments.reporting import energy_saving, format_table2
    from repro.runner.executor import run_scenarios
    from repro.runner.grids import table2_grid

    results = run_scenarios(table2_grid(_scale(args), args.seed)).by_policy()
    lines = ["Table II — makespan and energy per policy", format_table2(results)]
    lines.append(
        f"POWER saves {energy_saving(results, 'POWER', 'RANDOM'):.1%} vs RANDOM "
        f"and {energy_saving(results, 'POWER', 'PERFORMANCE'):.1%} vs PERFORMANCE "
        f"(paper: 25% / 19%)"
    )
    return "\n".join(lines)


def _cmd_table3(args: argparse.Namespace) -> str:
    from repro.experiments.presets import simulated_clusters_table

    rows = simulated_clusters_table()
    lines = ["Table III — energy consumption of simulated clusters"]
    lines.append(f"{'Cluster':<10}{'Idle (W)':>10}{'Peak (W)':>10}")
    for row in rows:
        lines.append(
            f"{row['cluster']:<10}{row['idle_consumption']:>10.0f}"
            f"{row['peak_consumption']:>10.0f}"
        )
    return "\n".join(lines)


def _distribution_command(policy: str, figure: str) -> Callable[[argparse.Namespace], str]:
    def _command(args: argparse.Namespace) -> str:
        from repro.experiments.reporting import format_task_distribution
        from repro.runner.executor import run_scenarios
        from repro.runner.grids import table2_grid

        specs = [s for s in table2_grid(_scale(args), args.seed) if s.policy == policy]
        (result,) = run_scenarios(specs).results
        return format_task_distribution(
            result.detail["tasks_per_node"],
            title=f"{figure}: tasks per node ({policy})",
        )

    return _command


def _cmd_fig5(args: argparse.Namespace) -> str:
    from repro.experiments.reporting import format_energy_per_cluster
    from repro.runner.executor import run_scenarios
    from repro.runner.grids import table2_grid

    results = run_scenarios(table2_grid(_scale(args), args.seed)).by_policy()
    return "Figure 5 — energy per cluster (J)\n" + format_energy_per_cluster(results)


def _heterogeneity_command(kinds: int) -> Callable[[argparse.Namespace], str]:
    def _command(args: argparse.Namespace) -> str:
        from repro.experiments.greenperf_eval import HeterogeneityResult
        from repro.experiments.reporting import format_metric_points
        from repro.runner.executor import run_scenarios
        from repro.runner.grids import heterogeneity_grid

        seeds = tuple(args.seed + offset for offset in range(5))
        outcome = run_scenarios(heterogeneity_grid((kinds,), _scale(args), seeds))
        return format_metric_points(HeterogeneityResult.from_results(outcome.results, kinds))

    return _command


def _cmd_fig9(args: argparse.Namespace) -> str:
    from repro.experiments.reporting import format_adaptive_series
    from repro.lab.compat import session_for_spec
    from repro.runner.spec import ScenarioSpec

    spec = ScenarioSpec(experiment="adaptive", workload=_scale(args), policy="GREENPERF")
    return format_adaptive_series(session_for_spec(spec).run())


def _cmd_sweep(args: argparse.Namespace) -> str:
    from repro.runner.executor import run_scenarios
    from repro.runner.grids import cross_grid, grid, named_grids, timeline_grid, trace_grid
    from repro.runner.reporting import (
        SweepProgressPrinter,
        format_sweep_profile,
        format_sweep_summary,
    )

    if args.list:
        lines = ["Available grids:"]
        for name in named_grids():
            lines.append(f"  {name:<16}{len(grid(name))} scenarios")
        lines.append("  --trace FILE    platforms x policies replay of a trace")
        lines.append("  --timeline FILE platforms x horizons adaptive run of a timeline")
        lines.append(
            "  --trace FILE --timeline FILE (or --grid cross): the trace x "
            "timeline x provisioning cross grid"
        )
        return "\n".join(lines)
    if args.grid is not None and args.grid != "cross" and (
        args.trace is not None or args.timeline is not None
    ):
        raise ValueError(
            "--grid is mutually exclusive with --trace/--timeline "
            "(except --grid cross, which composes both)"
        )
    if args.grid == "cross" or (args.trace is not None and args.timeline is not None):
        if args.trace is None or args.timeline is None:
            raise ValueError(
                "the cross grid composes a trace with a timeline; "
                "give both --trace FILE and --timeline FILE"
            )
        scenarios = cross_grid(args.trace, args.timeline)
        grid_name = f"cross:{Path(args.trace).name}+{Path(args.timeline).name}"
    elif args.trace is not None:
        scenarios = trace_grid(args.trace)
        grid_name = f"trace:{Path(args.trace).name}"
    elif args.timeline is not None:
        scenarios = timeline_grid(args.timeline)
        grid_name = f"timeline:{Path(args.timeline).name}"
    else:
        grid_name = args.grid if args.grid is not None else "default"
        scenarios = grid(grid_name)
    if args.filter:
        scenarios = tuple(s for s in scenarios if args.filter in s.scenario_id)
    if not scenarios:
        return f"grid {grid_name!r}: no scenario matches filter {args.filter!r}"
    printer = SweepProgressPrinter()
    if args.workers_dir is not None:
        if args.store is None:
            raise ValueError(
                "--workers-dir needs --store DIR: the shared store every "
                "worker appends to"
            )
        if args.force:
            raise ValueError(
                "--force is incompatible with --workers-dir (the shared "
                "store is the source of truth; delete it to re-run)"
            )
        if args.profile:
            raise ValueError("--profile is not supported with --workers-dir")
        from repro.runner.workers import run_worker

        outcome, worker_report = run_worker(
            scenarios,
            store=args.store,
            workers_dir=args.workers_dir,
            jobs=args.jobs,
            worker_id=args.worker_id,
            progress=printer,
        )
        return (
            worker_report.summary
            + "\n"
            + format_sweep_summary(outcome, title=f"Sweep {grid_name!r}")
        )
    outcome = run_scenarios(
        scenarios,
        jobs=args.jobs,
        store=args.store,
        force=args.force,
        progress=printer,
        profile=args.profile,
    )
    report = format_sweep_summary(outcome, title=f"Sweep {grid_name!r}")
    if args.profile:
        report += "\n" + format_sweep_profile(outcome)
    return report


# -- repro store ------------------------------------------------------------------------


def _cmd_store_verify(args: argparse.Namespace) -> str:
    import warnings

    from repro.runner.store import open_store

    path = Path(args.path)
    if not path.exists():
        raise ValueError(f"{path}: no store directory")
    store = open_store(path)
    with warnings.catch_warnings(record=True) as repaired:
        warnings.simplefilter("always")
        count = len(store)  # opens the store and parses every shard
    lines = [
        f"{path}: store ok — {count} record(s)",
        f"layout: sharded, {len(store.shard_files())} shard file(s) of "
        f"{store.shard_count} addressable (prefix_len {store.prefix_len})",
        f"quarantined: {store.quarantined()}",
    ]
    if repaired:
        lines.append(f"torn tails repaired on this open: {len(repaired)}")
    return "\n".join(lines)


# -- repro lab --------------------------------------------------------------------------


def _parse_override(text: str) -> tuple[str, object]:
    """Parse one ``--set KEY=VALUE`` into a typed override pair."""
    key, sep, raw = text.partition("=")
    if not sep or not key:
        raise ValueError(f"--set expects KEY=VALUE, got {text!r}")
    for cast in (int, float):
        try:
            return key, cast(raw)
        except ValueError:
            pass
    if raw.lower() in ("true", "false"):
        return key, raw.lower() == "true"
    return key, raw


def _cmd_lab_run(args: argparse.Namespace) -> str:
    from repro.lab.compat import session_for_spec
    from repro.runner.spec import ScenarioSpec

    policy = args.policy
    if policy is None:
        if args.family == "adaptive":
            policy = "GREENPERF"
        elif args.family == "queue":
            policy = "FCFS"
        else:
            policy = "POWER"
    spec = ScenarioSpec(
        experiment=args.family,
        platform=args.platform,
        workload="trace" if args.trace is not None else args.workload,
        policy=policy,
        preference=args.preference,
        seed=args.seed,
        horizon=args.horizon,
        trace=args.trace,
        timeline=args.timeline,
        overrides=dict(_parse_override(item) for item in args.set or ()),
    )
    session = session_for_spec(spec)
    result = session.run()
    rows = [
        (name, f"{value:.6g}") for name, value in sorted(result.metrics.items())
    ]
    lines = [
        f"Lab run — {spec.scenario_id} ({result.backend} backend)",
        render_table(("metric", "value"), rows),
    ]
    if result.candidate_series:
        final = result.candidate_series[-1]
        lines.append(
            f"provisioning: {len(result.candidate_series)} checks, "
            f"final candidate pool {final[1]} at t={final[0]:g}s"
        )
    if result.timeline is not None:
        lines.append(f"timeline: {len(result.timeline)} event(s) injected")
    return "\n".join(lines)


# -- repro serve / repro replay ---------------------------------------------------------


def _cmd_serve(args: argparse.Namespace) -> str:
    import asyncio
    import math

    from repro.experiments.presets import PLATFORM_PRESETS
    from repro.lab import LabSession, PlatformSource, PolicySource, WorkloadSource
    from repro.serve.admission import AdmissionController
    from repro.serve.service import PlacementService

    if args.platform not in PLATFORM_PRESETS:
        raise ValueError(
            f"unknown platform preset {args.platform!r}; "
            f"one of {', '.join(PLATFORM_PRESETS)}"
        )
    session = LabSession(
        platform=PlatformSource.table1(PLATFORM_PRESETS[args.platform]),
        workload=WorkloadSource.served(),
        policy=PolicySource(
            args.policy,
            seed=args.seed if args.policy.strip().upper() == "RANDOM" else None,
        ),
        timeline=args.timeline,
        # Nothing reads the daemon's execution trace, and a long-lived
        # process would otherwise keep every request's records forever.
        trace_level="off",
    )
    admission = AdmissionController(
        quota_rate=args.quota_rate if args.quota_rate is not None else math.inf,
        quota_burst=args.quota_burst,
        queue_limit=args.queue_limit,
    )
    service = PlacementService(
        session.open_state(),
        admission=admission,
        host=args.host,
        port=args.port,
        batch_window=args.batch_window,
    )

    async def _run() -> None:
        await service.start()
        # Announced before blocking: with --port 0 the bound port is
        # ephemeral and clients need it to connect.
        print(f"repro serve: listening on {service.address} "
              f"(policy {service.state.policy}); POST /shutdown stops it",
              flush=True)
        await service.serve_until_shutdown()

    asyncio.run(_run())
    stats = service.stats()
    admission, batches, state = stats["admission"], stats["batches"], stats["state"]
    rows = [
        ("admitted", f"{admission['admitted']}"),
        ("rejected (quota)", f"{admission['rejected']}"),
        ("shed (backlog)", f"{admission['shed']}"),
        ("placements", f"{state['decisions']}"),
        ("completed", f"{state['completed']}"),
        ("micro-batches", f"{batches['count']}"),
        ("largest batch", f"{batches['largest']}"),
        ("virtual time (s)", f"{state['time']:g}"),
    ]
    return "repro serve: shut down cleanly\n" + render_table(("counter", "value"), rows)


def _cmd_replay(args: argparse.Namespace) -> str:
    import asyncio

    from repro.serve.replay import replay_trace

    try:
        report = asyncio.run(
            replay_trace(
                args.trace,
                host=args.host,
                port=args.port,
                speed=args.speed,
                window=args.window,
                limit=args.limit,
                repeat=args.repeat,
                tenant=args.tenant,
                shutdown=args.shutdown,
            )
        )
    except ConnectionRefusedError:
        raise ValueError(
            f"no daemon listening on {args.host}:{args.port} "
            f"(start one with 'repro serve')"
        ) from None
    rows = [(name, f"{value:g}" if isinstance(value, float) else f"{value}")
            for name, value in report.as_dict().items()]
    return (
        f"Replay — {args.trace} -> {args.host}:{args.port}\n"
        + render_table(("metric", "value"), rows)
    )


# -- repro trace ------------------------------------------------------------------------


def _trace_format(path: str, explicit: str) -> str:
    """Resolve ``--format auto`` from the file extension."""
    if explicit != "auto":
        return explicit
    return "swf" if Path(path).suffix.lower() == ".swf" else "csv"


def _trace_mapping(args: argparse.Namespace) -> SWFTraceMap:
    from repro.workload.ingest.mapping import SWFTraceMap

    return SWFTraceMap(
        flops_per_core=args.flops_per_core,
        client_by=args.client_by,
        service_by=args.service_by,
    )


def _trace_transforms(args: argparse.Namespace) -> list:
    """The transform pipeline, in fixed window→sample→scale→truncate order."""
    from repro.workload.ingest.transforms import (
        SampleUsers,
        ScaleArrivals,
        ScaleLoad,
        TimeWindow,
        Truncate,
    )

    transforms: list = []
    if args.window is not None:
        start, end = args.window
        transforms.append(TimeWindow(start=start, end=end))
    if args.sample_users is not None:
        transforms.append(SampleUsers(args.sample_users, seed=args.sample_seed))
    if args.scale_arrivals is not None:
        transforms.append(ScaleArrivals(args.scale_arrivals))
    if args.scale_load is not None:
        transforms.append(ScaleLoad(args.scale_load))
    if args.truncate is not None:
        transforms.append(Truncate(args.truncate))
    return transforms


def _load_tasks(path: str, fmt: str, mapping: SWFTraceMap | None = None):
    """A trace file as a task tuple (plus skipped-job count for SWF)."""
    from repro.workload.ingest.mapping import load_swf_trace
    from repro.workload.traces import load_trace

    try:
        if fmt == "swf":
            skipped: list = []
            tasks = load_swf_trace(path, mapping, skipped=skipped)
            return tasks, len(skipped)
        return load_trace(path), 0
    except OSError as error:
        raise ValueError(f"cannot read trace file: {error}") from None


def _cmd_trace_convert(args: argparse.Namespace) -> str:
    from repro.workload.ingest.mapping import load_swf_trace
    from repro.workload.traces import save_trace

    skipped: list = []
    try:
        tasks = load_swf_trace(
            args.input,
            _trace_mapping(args),
            transforms=_trace_transforms(args),
            skipped=skipped,
        )
    except OSError as error:
        raise ValueError(f"cannot read {args.input!r}: {error}") from None
    if not tasks:
        raise ValueError(
            f"{args.input}: no replayable job survived mapping and transforms "
            f"({len(skipped)} job(s) without runtime/processors were skipped)"
        )
    try:
        save_trace(args.output, tasks)
    except OSError as error:
        raise ValueError(f"cannot write {args.output!r}: {error}") from None
    span = tasks[-1].arrival_time - tasks[0].arrival_time
    return (
        f"converted {args.input} -> {args.output}: {len(tasks)} task(s), "
        f"{len(skipped)} unplayable job(s) skipped, "
        f"time span {span:.0f} s"
    )


def _cmd_trace_stats(args: argparse.Namespace) -> str:
    fmt = _trace_format(args.file, args.format)
    tasks, skipped = _load_tasks(args.file, fmt, _trace_mapping(args))
    if not tasks:
        return f"{args.file}: empty trace (0 tasks)"
    arrivals = [task.arrival_time for task in tasks]
    flops = [task.flop for task in tasks]
    span = arrivals[-1] - arrivals[0]
    rate = (len(tasks) - 1) / span if span > 0 else float("inf")
    rows = [
        ("tasks", f"{len(tasks)}"),
        ("clients", f"{len({task.client for task in tasks})}"),
        ("services", f"{len({task.service for task in tasks})}"),
        ("time span (s)", f"{span:.1f}"),
        ("mean arrival rate (req/s)", f"{rate:.3f}" if span > 0 else "inf"),
        ("total flop", f"{sum(flops):.3e}"),
        ("mean flop/task", f"{sum(flops) / len(flops):.3e}"),
        ("min/max flop", f"{min(flops):.3e} / {max(flops):.3e}"),
        (
            "preference range",
            f"[{min(task.user_preference for task in tasks):+.2f}, "
            f"{max(task.user_preference for task in tasks):+.2f}]",
        ),
    ]
    if fmt == "swf":
        rows.append(("unplayable jobs skipped", f"{skipped}"))
    title = f"Trace statistics — {args.file} ({fmt})"
    return title + "\n" + render_table(("metric", "value"), rows)


def _cmd_trace_inspect(args: argparse.Namespace) -> str:
    from repro.workload.ingest.swf import SWF_FIELDS, parse_swf, read_swf_header

    if args.jobs < 0:
        raise ValueError(f"--jobs must be >= 0, got {args.jobs}")
    fmt = _trace_format(args.file, args.format)
    lines = [f"Trace — {args.file} ({fmt})"]
    if fmt == "swf":
        try:
            header = read_swf_header(args.file)
            jobs = []
            for job in parse_swf(args.file):
                if len(jobs) >= args.jobs:
                    break
                jobs.append(job)
        except OSError as error:
            raise ValueError(f"cannot read trace file: {error}") from None
        if header:
            lines.append("Header directives:")
            lines.extend(f"  {key}: {value}" for key, value in header.items())
        else:
            lines.append("Header directives: (none)")
        lines.append(f"First {len(jobs)} job record(s):")
        columns = ("job_id", "submit_time", "run_time", "allocated_processors",
                   "user_id", "queue", "status")

        def _cell(value) -> str:
            # ints print exactly; floats keep full useful precision so large
            # submit times / job ids never collapse into scientific notation.
            if value is None:
                return "-"
            return str(value) if isinstance(value, int) else format(value, ".10g")

        rows = [
            tuple(_cell(getattr(job, column)) for column in columns) for job in jobs
        ]
        lines.append(render_table(columns, rows))
        lines.append(f"(full records carry {len(SWF_FIELDS)} fields)")
    else:
        tasks, _ = _load_tasks(args.file, fmt)
        shown = tasks[: args.jobs]
        lines.append(f"First {len(shown)} of {len(tasks)} task(s):")
        rows = [
            (
                f"{task.arrival_time:g}",
                f"{task.flop:.3e}",
                task.client,
                f"{task.user_preference:+.2f}",
                task.service,
            )
            for task in shown
        ]
        lines.append(
            render_table(
                ("arrival_time", "flop", "client", "preference", "service"), rows
            )
        )
    return "\n".join(lines)


# -- repro timeline ---------------------------------------------------------------------


def _cmd_timeline_validate(args: argparse.Namespace) -> str:
    from repro.scenario.io import load_timeline

    timeline = load_timeline(args.file)
    kinds: dict[str, int] = {}
    for event in timeline:
        kinds[event.kind] = kinds.get(event.kind, 0) + 1
    rows = [("events", f"{len(timeline)}")]
    rows.extend((kind, f"{count}") for kind, count in sorted(kinds.items()))
    rows.append(("span (s)", f"{timeline.end_time:.1f}"))
    rows.append(("content hash", timeline.content_hash()[:16]))
    return (
        f"{args.file}: valid timeline\n"
        + render_table(("property", "value"), rows)
    )


def _cmd_timeline_inspect(args: argparse.Namespace) -> str:
    from repro.scenario.io import load_timeline

    timeline = load_timeline(args.file)
    rows = [
        (
            f"{event.time:g}",
            event.kind,
            "scheduled" if event.scheduled else "unexpected",
            event.describe(),
        )
        for event in timeline
    ]
    return (
        f"Timeline — {args.file} ({len(timeline)} event(s), "
        f"hash {timeline.content_hash()[:16]})\n"
        + render_table(("time", "kind", "visibility", "description"), rows)
    )


class _VersionAction(argparse.Action):
    """``--version``: reads the installed version only when the flag is given."""

    def __init__(self, option_strings: Sequence[str], dest: str) -> None:
        super().__init__(
            option_strings,
            dest,
            nargs=0,
            default=argparse.SUPPRESS,
            help="show program's version number and exit",
        )

    def __call__(self, parser, namespace, values, option_string=None) -> None:
        from repro._version import __version__

        print(f"repro {__version__}")
        parser.exit()


_COMMANDS: dict[str, tuple[str, Callable[[argparse.Namespace], str]]] = {
    "table1": ("print the Table I infrastructure", _cmd_table1),
    "table2": ("reproduce Table II (makespan & energy per policy)", _cmd_table2),
    "table3": ("print the Table III simulated cluster specs", _cmd_table3),
    "fig2": ("reproduce Figure 2 (POWER task distribution)", _distribution_command("POWER", "Figure 2")),
    "fig3": ("reproduce Figure 3 (PERFORMANCE task distribution)", _distribution_command("PERFORMANCE", "Figure 3")),
    "fig4": ("reproduce Figure 4 (RANDOM task distribution)", _distribution_command("RANDOM", "Figure 4")),
    "fig5": ("reproduce Figure 5 (energy per cluster)", _cmd_fig5),
    "fig6": ("reproduce Figure 6 (2 server types)", _heterogeneity_command(2)),
    "fig7": ("reproduce Figure 7 (4 server types)", _heterogeneity_command(4)),
    "fig9": ("reproduce Figure 9 (adaptive provisioning)", _cmd_fig9),
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the tables and figures of the green-scheduling paper.",
    )
    parser.add_argument("--version", action=_VersionAction)
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler) in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument(
            "--quick",
            action="store_true",
            help="run a reduced configuration instead of the paper-scale one",
        )
        sub.add_argument(
            "--seed",
            type=int,
            default=0,
            help="base random seed for stochastic components (default: 0)",
        )
        sub.set_defaults(handler=handler)

    sweep = subparsers.add_parser(
        "sweep", help="run a scenario grid in parallel with a cached result store"
    )
    sweep.add_argument(
        "--grid",
        default=None,
        help="named grid to run (default: 'default'; 'repro sweep --list' "
        "lists them)",
    )
    sweep.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="replay a CSV trace (from 'repro trace convert') as a "
        "platforms x policies grid instead of a named grid",
    )
    sweep.add_argument(
        "--timeline",
        default=None,
        metavar="FILE",
        help="run a platforms x horizons adaptive grid driven by an event-"
        "timeline file (TOML/JSON) instead of a named grid",
    )
    sweep.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes to fan scenarios out over (default: 1)",
    )
    sweep.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="result store directory; already-stored scenarios are not "
        "re-simulated",
    )
    sweep.add_argument(
        "--workers-dir",
        default=None,
        metavar="DIR",
        help="run as one worker of a multi-process/multi-host sweep: claim "
        "work shards via lock files in DIR and execute them against the "
        "shared --store directory (rerun anywhere resumes from cache)",
    )
    sweep.add_argument(
        "--worker-id",
        default=None,
        metavar="NAME",
        help="identity recorded in claim files (default: <hostname>-<pid>)",
    )
    sweep.add_argument(
        "--force",
        action="store_true",
        help="re-run every scenario even when the store already has its result",
    )
    sweep.add_argument(
        "--filter",
        default=None,
        metavar="SUBSTRING",
        help="only run scenarios whose id contains SUBSTRING",
    )
    sweep.add_argument(
        "--list",
        action="store_true",
        help="list the available grids and their sizes, then exit",
    )
    sweep.add_argument(
        "--profile",
        action="store_true",
        help="print per-scenario wall time and events/sec after the summary",
    )
    sweep.set_defaults(handler=_cmd_sweep)

    store = subparsers.add_parser(
        "store", help="verify sweep result stores"
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    store_verify = store_sub.add_parser(
        "verify",
        help="parse every record of a store (exit 2 on corruption)",
        description="Load a sharded result store directory, parsing every "
        "record.  Corrupt interior lines, invalid store.json metadata and "
        "a path that is a regular file exit 2; torn tails left by crashed "
        "appends are quarantined and reported.",
    )
    store_verify.add_argument("path", help="store directory")
    store_verify.set_defaults(handler=_cmd_store_verify)

    lab = subparsers.add_parser(
        "lab", help="compose and run ad-hoc experiments through repro.lab"
    )
    lab_sub = lab.add_subparsers(dest="lab_command", required=True)
    lab_run = lab_sub.add_parser(
        "run",
        help="run one component composition and print its metric summary",
        description="Compose platform x workload x policy x provisioning x "
        "timeline through repro.lab and run it once.  Any trace and any "
        "timeline are legal on any family; --set overrides individual "
        "experiment parameters (e.g. --set check_period=300).",
    )
    lab_run.add_argument(
        "--family",
        choices=("placement", "heterogeneity", "adaptive", "queue"),
        default="placement",
        help="experiment family providing presets and post-processing "
        "(default: placement; adaptive adds the provisioning planner; "
        "queue batch-schedules with FCFS/EASY/CONSERVATIVE/DRF — cap "
        "capacity with --set queue_cores=N)",
    )
    lab_run.add_argument(
        "--platform",
        default="quick",
        help="platform preset: paper/half/quick/tiny, or types2..types4 "
        "for the heterogeneity family (default: quick)",
    )
    lab_run.add_argument(
        "--workload",
        default="quick",
        help="workload preset (default: quick); ignored when --trace is given",
    )
    lab_run.add_argument(
        "--policy",
        default=None,
        help="scheduling policy (default: POWER; GREENPERF for adaptive)",
    )
    lab_run.add_argument(
        "--preference",
        type=float,
        default=0.0,
        help="GREEN_SCORE user-preference weight in [-1, 1] (default: 0)",
    )
    lab_run.add_argument(
        "--seed", type=int, default=0, help="RANDOM-policy seed (default: 0)"
    )
    lab_run.add_argument(
        "--horizon",
        type=float,
        default=None,
        help="observation-window cap in seconds (adaptive duration)",
    )
    lab_run.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="replay this trace file (CSV or raw .swf) as the workload",
    )
    lab_run.add_argument(
        "--timeline",
        default=None,
        metavar="FILE",
        help="inject this event-timeline file (TOML/JSON) into the run",
    )
    lab_run.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override one experiment parameter (repeatable)",
    )
    lab_run.set_defaults(handler=_cmd_lab_run)

    trace = subparsers.add_parser(
        "trace", help="ingest, inspect and summarise workload trace files"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    def _add_mapping_options(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--flops-per-core",
            type=float,
            default=1.0e9,
            help="node-speed anchor converting SWF core-seconds to FLOP "
            "(default: 1e9)",
        )
        sub.add_argument(
            "--client-by",
            choices=("user", "group"),
            default="user",
            help="SWF identity field naming the submitting client (default: user)",
        )
        sub.add_argument(
            "--service-by",
            choices=("queue", "partition"),
            default="queue",
            help="SWF field naming the requested service (default: queue)",
        )

    convert = trace_sub.add_parser(
        "convert",
        help="convert a Standard Workload Format log into a CSV trace",
        description="Parse an SWF log, map jobs onto simulation tasks and "
        "write a CSV trace.  Transforms apply in the fixed order "
        "window -> sample-users -> scale-arrivals -> scale-load -> truncate.",
    )
    convert.add_argument("input", help="SWF log file to parse")
    convert.add_argument("output", help="CSV trace file to write")
    _add_mapping_options(convert)
    convert.add_argument(
        "--window",
        nargs=2,
        type=float,
        default=None,
        metavar=("START", "END"),
        help="keep jobs arriving in [START, END) seconds, re-anchored to t=0",
    )
    convert.add_argument(
        "--sample-users",
        type=float,
        default=None,
        metavar="FRACTION",
        help="keep a deterministic fraction of clients (whole users at a time)",
    )
    convert.add_argument(
        "--sample-seed",
        type=int,
        default=0,
        help="seed of the user-sampling hash (default: 0)",
    )
    convert.add_argument(
        "--scale-arrivals",
        type=float,
        default=None,
        metavar="FACTOR",
        help="multiply arrival times by FACTOR (<1 compresses, >1 stretches)",
    )
    convert.add_argument(
        "--scale-load",
        type=float,
        default=None,
        metavar="FACTOR",
        help="multiply each task's FLOP cost by FACTOR",
    )
    convert.add_argument(
        "--truncate",
        type=int,
        default=None,
        metavar="COUNT",
        help="keep only the first COUNT tasks",
    )
    convert.set_defaults(handler=_cmd_trace_convert)

    stats = trace_sub.add_parser(
        "stats", help="summarise the workload a trace file describes"
    )
    stats.add_argument("file", help="trace file (.swf or CSV)")
    stats.add_argument(
        "--format",
        choices=("auto", "swf", "csv"),
        default="auto",
        help="trace format (default: by file extension)",
    )
    _add_mapping_options(stats)
    stats.set_defaults(handler=_cmd_trace_stats)

    inspect = trace_sub.add_parser(
        "inspect", help="show header directives and leading trace records"
    )
    inspect.add_argument("file", help="trace file (.swf or CSV)")
    inspect.add_argument(
        "--format",
        choices=("auto", "swf", "csv"),
        default="auto",
        help="trace format (default: by file extension)",
    )
    inspect.add_argument(
        "--jobs",
        type=int,
        default=10,
        help="number of leading records to show (default: 10)",
    )
    inspect.set_defaults(handler=_cmd_trace_inspect)

    serve = subparsers.add_parser(
        "serve",
        help="run the long-lived placement daemon (HTTP/JSON + admission)",
        description="Open a lab composition as a live placement service: "
        "task submissions arrive over HTTP/JSON, pass per-tenant "
        "token-bucket quotas and a bounded backlog, and are scored in "
        "micro-batches on a virtual clock (docs/SERVING.md).",
    )
    serve.add_argument(
        "--platform",
        default="quick",
        help="platform preset: paper/half/quick/tiny (default: quick)",
    )
    serve.add_argument(
        "--policy",
        default="GREENPERF",
        help="scheduling policy electing nodes (default: GREENPERF)",
    )
    serve.add_argument(
        "--seed", type=int, default=0, help="RANDOM-policy seed (default: 0)"
    )
    serve.add_argument(
        "--timeline",
        default=None,
        metavar="FILE",
        help="inject this event-timeline file (TOML/JSON) into the live state",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8423,
        help="TCP port (default: 8423; 0 picks an ephemeral port)",
    )
    serve.add_argument(
        "--quota-rate",
        type=float,
        default=None,
        metavar="TOKENS_PER_S",
        help="per-tenant token refill rate per virtual second "
        "(default: unlimited)",
    )
    serve.add_argument(
        "--quota-burst",
        type=float,
        default=64.0,
        help="per-tenant token-bucket capacity (default: 64)",
    )
    serve.add_argument(
        "--queue-limit",
        type=int,
        default=0,
        help="shed submissions once this many are admitted but unplaced "
        "(default: 0 = never shed)",
    )
    serve.add_argument(
        "--batch-window",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="accumulation delay before each micro-batch is scored "
        "(default: 0 = score whatever has piled up)",
    )
    serve.set_defaults(handler=_cmd_serve)

    replay = subparsers.add_parser(
        "replay",
        help="fire a trace file at a running placement daemon",
        description="Replay a workload trace (CSV or raw .swf) against a "
        "daemon started with 'repro serve', preserving trace order over "
        "one pipelined connection, in real or accelerated time.",
    )
    replay.add_argument("trace", help="trace file to replay (.swf or CSV)")
    replay.add_argument(
        "--host", default="127.0.0.1", help="daemon address (default: 127.0.0.1)"
    )
    replay.add_argument(
        "--port", type=int, default=8423, help="daemon port (default: 8423)"
    )
    replay.add_argument(
        "--speed",
        type=float,
        default=None,
        metavar="FACTOR",
        help="virtual seconds per wall second (1.0 = real time; "
        "default: as fast as the socket allows)",
    )
    replay.add_argument(
        "--window",
        type=int,
        default=8,
        help="submissions in flight before awaiting a response (default: 8)",
    )
    replay.add_argument(
        "--limit",
        type=int,
        default=None,
        metavar="COUNT",
        help="replay only the first COUNT tasks",
    )
    replay.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="concatenate the trace with itself this many times (default: 1)",
    )
    replay.add_argument(
        "--tenant",
        default=None,
        help="submit everything under one tenant (default: the trace users)",
    )
    replay.add_argument(
        "--shutdown",
        action="store_true",
        help="send POST /shutdown after the last response",
    )
    replay.set_defaults(handler=_cmd_replay)

    timeline = subparsers.add_parser(
        "timeline", help="validate and inspect event-timeline files"
    )
    timeline_sub = timeline.add_subparsers(dest="timeline_command", required=True)
    tl_validate = timeline_sub.add_parser(
        "validate",
        help="parse and validate a timeline file (exit 2 on errors)",
        description="Load a TOML/JSON event timeline, run full validation "
        "(event fields, crash/repair protocol) and print a summary.",
    )
    tl_validate.add_argument("file", help="timeline file (.toml or .json)")
    tl_validate.set_defaults(handler=_cmd_timeline_validate)
    tl_inspect = timeline_sub.add_parser(
        "inspect", help="list the events of a timeline file"
    )
    tl_inspect.add_argument("file", help="timeline file (.toml or .json)")
    tl_inspect.set_defaults(handler=_cmd_timeline_inspect)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point: parse arguments, run the selected command, print its report."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        output = args.handler(args)
    except ValueError as error:
        # Bad user input (unknown grid/preset, jobs < 1, corrupt store…):
        # report it like an argument error instead of a traceback.
        print(f"repro {args.command}: error: {error}", file=sys.stderr)
        return 2
    print(output)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
