"""Resumable multi-worker sweeps over a shared sharded store.

The scale-out mode behind ``repro sweep --workers-dir``: N invocations —
on one host or on many hosts sharing a filesystem — cooperate on one
grid through two shared directories:

* the **store** (a :class:`~repro.runner.store.ShardedResultStore`
  directory): completed results, appended crash-safely as single locked
  ``O_APPEND`` writes, readable by every worker;
* the **claims** directory (``--workers-dir``): the grid is cut into
  fixed-size *work shards* (chunks of consecutive grid positions), and a
  worker claims a chunk by exclusively creating its
  ``claim-<index>.json`` file (``O_CREAT | O_EXCL`` — atomic on any
  POSIX filesystem, NFSv3+ included).  Whoever wins the create owns the
  chunk; everyone else skips it.

Claims are an *efficiency* protocol, not a correctness one — correctness
comes entirely from the store: scenario results are pure functions of
their specs, appends are idempotent (last record per hash wins, and any
two records of one hash are byte-identical), and already-stored
scenarios are served as cache hits.  So a worker that crashes mid-chunk
leaves nothing to clean up: its claim file stays, but the **sweep-up
pass** every worker runs after exhausting the claimable chunks executes
whatever is still missing from the store, whether it was never claimed,
claimed by a crashed worker, or in flight on a slow one (the rare
duplicated execution is wasted wall clock, never wrong bytes).

Every worker therefore exits with the complete grid-order result set,
byte-identical to a serial ``run_scenarios`` of the same grid, and any
rerun against the same store is pure cache hits.
"""

from __future__ import annotations

import json
import os
import socket
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, Optional

from repro.runner.executor import (
    ProgressCallback,
    StoreLike,
    SweepOutcome,
    _resolve_store,
    run_scenarios,
)
from repro.runner.spec import GridLike, ScenarioSpec, iter_grid

#: Grid positions per claimable work shard (chunk).  Small enough that a
#: late-joining worker finds work even on modest grids, large enough that
#: claim-file creation is negligible next to scenario execution.
CHUNK_SIZE = 8


def default_worker_id() -> str:
    """A worker identity unique across hosts sharing a filesystem."""
    return f"{socket.gethostname()}-{os.getpid()}"


@dataclass(frozen=True)
class WorkerReport:
    """What one worker contributed to a shared sweep."""

    worker_id: str
    chunks_claimed: int
    chunks_total: int
    executed: int
    swept: int

    @property
    def summary(self) -> str:
        """One-line account of the worker's share."""
        return (
            f"worker {self.worker_id}: claimed {self.chunks_claimed}/"
            f"{self.chunks_total} chunk(s), executed {self.executed} "
            f"scenario(s), swept up {self.swept} leftover(s)"
        )


def _chunked(
    scenarios: Iterable[ScenarioSpec], chunk_size: int
) -> Iterator[list[ScenarioSpec]]:
    iterator = iter(scenarios)
    while chunk := list(islice(iterator, chunk_size)):
        yield chunk


def _try_claim(workers_dir: Path, chunk_index: int, worker_id: str) -> bool:
    """Atomically claim one chunk; False when another worker owns it."""
    claim = workers_dir / f"claim-{chunk_index:06d}.json"
    try:
        fd = os.open(claim, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
    except FileExistsError:
        return False
    try:
        os.write(
            fd,
            (json.dumps({"worker": worker_id, "chunk": chunk_index}) + "\n").encode(),
        )
    finally:
        os.close(fd)
    return True


def run_worker(
    grid: GridLike,
    *,
    store: StoreLike,
    workers_dir: str | Path,
    jobs: int = 1,
    worker_id: str | None = None,
    progress: Optional[ProgressCallback] = None,
) -> tuple[SweepOutcome, WorkerReport]:
    """Run one worker's share of a grid against a shared sharded store.

    Streams the grid (:func:`~repro.runner.spec.iter_grid` — the full
    cross-product is never materialised), claiming chunks of
    :data:`CHUNK_SIZE` consecutive scenarios via lock files in
    ``workers_dir`` and executing the claimed ones with ``jobs`` local
    processes.  After the claim pass, a sweep-up pass executes any
    scenario still missing from the store (leftovers of crashed or
    never-started workers), then the full grid is aggregated from the
    store in grid order.

    Returns the grid-order :class:`SweepOutcome` (identical on every
    cooperating worker, and byte-identical to a serial run) plus this
    worker's :class:`WorkerReport`.
    """
    worker_id = worker_id or default_worker_id()
    workers_dir = Path(workers_dir)
    workers_dir.mkdir(parents=True, exist_ok=True)
    shared = _resolve_store(store)
    if shared is None:
        raise ValueError("multi-worker sweeps need a shared store directory")

    chunks_total = 0
    chunks_claimed = 0

    def _claimed_scenarios() -> Iterator[ScenarioSpec]:
        nonlocal chunks_total, chunks_claimed
        for chunk_index, chunk in enumerate(_chunked(iter_grid(grid), CHUNK_SIZE)):
            chunks_total = chunk_index + 1
            if _try_claim(workers_dir, chunk_index, worker_id):
                chunks_claimed += 1
                yield from chunk

    claimed = run_scenarios(
        _claimed_scenarios(),
        jobs=jobs,
        store=shared,
        progress=progress,
    )

    # Sweep-up: other workers may have appended (or crashed) since our
    # shards were read — refresh, then execute whatever is still missing.
    shared.refresh()
    swept = run_scenarios(
        (spec for spec in iter_grid(grid) if spec.content_hash() not in shared),
        jobs=jobs,
        store=shared,
    )

    # Aggregation: every scenario is now stored, so this pass is pure
    # cache hits read lazily per shard, assembled in grid order.
    shared.refresh()
    final = run_scenarios(iter_grid(grid), jobs=jobs, store=shared)
    executed = claimed.executed + swept.executed
    outcome = SweepOutcome(
        results=final.results,
        executed=executed,
        cached=final.total - executed,
    )
    report = WorkerReport(
        worker_id=worker_id,
        chunks_claimed=chunks_claimed,
        chunks_total=chunks_total,
        executed=claimed.executed,
        swept=swept.executed,
    )
    return outcome, report
