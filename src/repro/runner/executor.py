"""Parallel scenario execution: fan a grid out across worker processes.

``execute_scenario`` is the single entry point that turns a
:class:`~repro.runner.spec.ScenarioSpec` into a
:class:`~repro.runner.store.ScenarioResult`; it resolves the spec into a
:class:`~repro.lab.session.LabSession` (one assembly path for every
experiment family — see :mod:`repro.lab.compat`) and is importable at
module level, which makes it picklable for
:class:`concurrent.futures.ProcessPoolExecutor`.

``run_scenarios`` adds the orchestration: cache lookup against a result
store (a :class:`~repro.runner.store.ShardedResultStore` directory, or a
path to one), fan-out over ``jobs``
worker processes, streaming completion callbacks, and a result tuple
returned in *grid order* — never completion order — so a 4-worker sweep
aggregates to byte-identical output as a serial one.  Determinism holds
because every scenario is a pure function of its spec (all randomness is
seeded from ``spec.seed``); workers share no state.

The scenario input may be any iterable, including the lazy
:func:`~repro.runner.spec.iter_grid` stream: at most ``max(4 * jobs, 16)``
scenarios are in flight, so a 100k-cell cross-product is never
materialised — generation, cache lookup, execution and storage all
pipeline.  Only the results themselves are retained (they are the return
value).

The lab (and, through it, the experiment modules) is imported lazily
inside ``execute_scenario``: the runner package stays import-light and
free of circular dependencies (each experiment family's resolver itself
takes a :class:`~repro.runner.spec.ScenarioSpec`).  A parallel sweep
imports them in the parent right before it opens its process pool, so
the forked workers inherit them instead of each importing them again.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Union

from repro.runner.spec import ScenarioSpec
from repro.runner.store import ScenarioResult, ShardedResultStore, open_store

#: Callback fired as each scenario completes: ``(grid_index, result, total)``.
#: ``total`` is ``None`` while streaming a grid whose size is unknown.
ProgressCallback = Callable[[int, ScenarioResult, Optional[int]], None]

StoreLike = Union[ShardedResultStore, str, Path, None]


def execute_scenario(spec: ScenarioSpec) -> ScenarioResult:
    """Run one scenario in-process and return its result.

    This is the unit of work shipped to pool workers; it must stay a
    module-level function so it pickles.
    """
    from repro.lab.compat import execute_spec

    return execute_spec(spec)


def execute_scenario_timed(
    spec: ScenarioSpec,
) -> tuple[ScenarioResult, float, dict[str, float]]:
    """Run one scenario and return ``(result, wall_seconds, phase_seconds)``.

    Module-level so it pickles for the process pool; used by
    ``run_scenarios(profile=True)`` (``repro sweep --profile``).

    A fresh :class:`~repro.util.phases.PhaseTimer` is activated around the
    scenario so the middleware layers attribute wall time to the
    estimation/scoring/dispatch/energy phases.  Phase totals travel in the
    profile side-channel — never in ``ScenarioResult.metrics`` — so
    profiled and unprofiled runs of the same spec stay byte-identical.
    """
    from repro.util import phases

    timer = phases.activate(phases.PhaseTimer())
    started = time.perf_counter()
    try:
        result = execute_scenario(spec)
    finally:
        phases.deactivate()
    return result, time.perf_counter() - started, timer.totals()


def _import_worker_modules() -> None:
    """Import what every scenario runs, before the pool forks its workers.

    A forked worker inherits the parent's modules; whatever the parent
    has not imported, every worker of every pool imports again on its
    first scenario.
    """
    import numpy  # noqa: F401  (the lab's metric reductions)

    from repro.lab.compat import family_resolvers

    family_resolvers()


@dataclass(frozen=True)
class SweepOutcome:
    """Results of a sweep, in grid order, plus cache accounting.

    ``wall_times`` and ``phase_times`` are only populated by profiled runs
    (``run_scenarios(profile=True)``): one wall-clock duration and one
    phase-seconds mapping per result, aligned with ``results`` (0.0 and an
    empty mapping for cache hits).
    """

    results: tuple[ScenarioResult, ...]
    executed: int
    cached: int
    wall_times: tuple[float, ...] = field(default=())
    phase_times: tuple[dict[str, float], ...] = field(default=())

    @property
    def total(self) -> int:
        """Total scenario count of the sweep."""
        return len(self.results)

    def by_policy(self) -> dict[str, ScenarioResult]:
        """Results keyed by policy name (last scenario of a policy wins)."""
        return {result.spec.policy: result for result in self.results}


def _resolve_store(store: StoreLike) -> ShardedResultStore | None:
    """The loaded store behind a store argument (``None`` stays ``None``)."""
    if store is None:
        return None
    if not isinstance(store, ShardedResultStore):
        store = open_store(store)
    return store.load()


def run_scenarios(
    scenarios,
    *,
    jobs: int = 1,
    store: StoreLike = None,
    force: bool = False,
    progress: Optional[ProgressCallback] = None,
    profile: bool = False,
) -> SweepOutcome:
    """Execute a scenario iterable, honouring the cache and ``jobs``.

    ``scenarios`` may be any iterable — a tuple, or a lazy grid stream
    from :func:`~repro.runner.spec.iter_grid`.  Each scenario is checked
    against the store as it is generated (a hit is reported without
    simulating); misses execute serially for ``jobs <= 1``, otherwise on
    a process pool with at most ``max(4 * jobs, 16)`` scenarios in
    flight, so even an unbounded generator runs in
    bounded memory beyond the results themselves.  Completions stream to
    ``progress`` and the store as they happen, but the returned
    ``results`` tuple is always in grid order — byte-identical at any
    ``jobs`` level.  With ``profile=True`` the outcome also carries
    per-scenario wall times and per-phase seconds (measured inside the
    worker, so pool scheduling overhead is excluded).
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    window = max(4 * jobs, 16)
    resolved_store = _resolve_store(store)
    try:
        total_known: int | None = len(scenarios)
    except TypeError:
        total_known = None  # streaming input: size unknown until exhausted

    results: dict[int, ScenarioResult] = {}
    wall_times: dict[int, float] = {}
    phase_times: dict[int, dict[str, float]] = {}
    executed = 0

    def _complete(
        index: int,
        result: ScenarioResult,
        elapsed: float = 0.0,
        phases: dict[str, float] | None = None,
    ) -> None:
        results[index] = result
        if profile:
            wall_times[index] = elapsed
            if phases:
                phase_times[index] = phases
        if resolved_store is not None and not result.cached:
            resolved_store.put(result)
        if progress is not None:
            progress(index, result, total_known)

    worker = execute_scenario_timed if profile else execute_scenario
    pool: ProcessPoolExecutor | None = None
    in_flight: dict[Future, int] = {}
    total = 0

    def _drain() -> None:
        done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
        for future in done:
            index = in_flight.pop(future)
            if profile:
                _complete(index, *future.result())
            else:
                _complete(index, future.result())

    try:
        for index, scenario in enumerate(scenarios):
            total = index + 1
            hit = None
            if resolved_store is not None and not force:
                hit = resolved_store.get(scenario.content_hash())
            if hit is not None:
                _complete(index, hit)
                continue
            executed += 1
            if jobs == 1:
                if profile:
                    _complete(index, *worker(scenario))
                else:
                    _complete(index, worker(scenario))
            else:
                if pool is None:
                    _import_worker_modules()
                    pool = ProcessPoolExecutor(max_workers=jobs)
                while len(in_flight) >= window:
                    _drain()
                in_flight[pool.submit(worker, scenario)] = index
        while in_flight:
            _drain()
    finally:
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    return SweepOutcome(
        results=tuple(results[index] for index in range(total)),
        executed=executed,
        cached=total - executed,
        wall_times=tuple(wall_times.get(i, 0.0) for i in range(total)) if profile else (),
        phase_times=tuple(phase_times.get(i, {}) for i in range(total)) if profile else (),
    )
