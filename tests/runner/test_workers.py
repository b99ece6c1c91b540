"""Tests for resumable multi-worker sweeps over a shared sharded store."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import repro.runner.workers as workers_module
from repro.runner.executor import run_scenarios
from repro.runner.spec import ScenarioSpec, SweepSpec, iter_grid
from repro.runner.store import ShardedResultStore
from repro.runner.workers import (
    WorkerReport,
    _chunked,
    _try_claim,
    run_worker,
)

SRC = str(Path(__file__).resolve().parents[2] / "src")

#: Six fast placement scenarios on the tiny presets (seeded RANDOM runs —
#: the only placement policy whose seed axis is meaningful).
GRID = (
    SweepSpec(
        base=ScenarioSpec(
            experiment="placement", platform="tiny", workload="tiny", policy="RANDOM"
        ),
        axes={"seed": (0, 1, 2, 3, 4, 5)},
    ),
)


class TestClaimProtocol:
    def test_chunked_partitions_in_order(self):
        chunks = list(_chunked(iter(range(7)), 3))
        assert chunks == [[0, 1, 2], [3, 4, 5], [6]]

    def test_first_claim_wins_and_is_recorded(self, tmp_path):
        assert _try_claim(tmp_path, 0, "alpha")
        assert not _try_claim(tmp_path, 0, "beta")
        claim = json.loads((tmp_path / "claim-000000.json").read_text())
        assert claim == {"worker": "alpha", "chunk": 0}

    def test_distinct_chunks_claim_independently(self, tmp_path):
        assert _try_claim(tmp_path, 0, "alpha")
        assert _try_claim(tmp_path, 1, "beta")

    def test_store_is_required(self, tmp_path):
        with pytest.raises(ValueError, match="shared store"):
            run_worker(GRID, store=None, workers_dir=tmp_path / "claims")


class TestSingleWorker:
    def test_one_worker_covers_the_whole_grid(self, tmp_path, monkeypatch):
        monkeypatch.setattr(workers_module, "CHUNK_SIZE", 2)
        outcome, report = run_worker(
            GRID,
            store=tmp_path / "store",
            workers_dir=tmp_path / "claims",
        )
        assert outcome.total == 6
        assert outcome.executed == 6
        assert report.chunks_claimed == report.chunks_total == 3
        assert report.executed == 6
        assert report.swept == 0
        assert isinstance(report, WorkerReport)
        assert "claimed 3/3 chunk(s)" in report.summary

    def test_matches_a_plain_serial_run(self, tmp_path, monkeypatch):
        monkeypatch.setattr(workers_module, "CHUNK_SIZE", 2)
        serial = run_scenarios(tuple(iter_grid(GRID)))
        outcome, _ = run_worker(
            GRID,
            store=tmp_path / "store",
            workers_dir=tmp_path / "claims",
        )
        assert [r.spec for r in serial.results] == [r.spec for r in outcome.results]
        assert [r.metrics for r in serial.results] == [
            r.metrics for r in outcome.results
        ]

    def test_rerun_is_pure_cache_hits(self, tmp_path):
        store = tmp_path / "store"
        run_worker(GRID, store=store, workers_dir=tmp_path / "claims-a")
        outcome, report = run_worker(
            GRID, store=store, workers_dir=tmp_path / "claims-b"
        )
        assert outcome.cached == 6
        assert outcome.executed == 0
        assert report.executed == 0
        assert report.swept == 0


class TestCooperatingWorkers:
    def test_two_sequential_workers_split_the_chunks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(workers_module, "CHUNK_SIZE", 2)
        store = tmp_path / "store"
        claims = tmp_path / "claims"
        out_a, rep_a = run_worker(
            GRID, store=store, workers_dir=claims, worker_id="alpha"
        )
        out_b, rep_b = run_worker(
            GRID, store=store, workers_dir=claims, worker_id="beta"
        )
        # Worker A claimed everything; worker B found no work left.
        assert rep_a.chunks_claimed == 3
        assert rep_b.chunks_claimed == 0
        assert out_b.cached == 6
        assert [r.metrics for r in out_a.results] == [
            r.metrics for r in out_b.results
        ]

    def test_concurrent_workers_agree_on_the_outcome(self, tmp_path, monkeypatch):
        monkeypatch.setattr(workers_module, "CHUNK_SIZE", 1)
        store = tmp_path / "store"
        claims = tmp_path / "claims"

        def worker(name):
            return run_worker(
                GRID, store=store, workers_dir=claims, worker_id=name
            )

        with ThreadPoolExecutor(max_workers=2) as pool:
            (out_a, rep_a), (out_b, rep_b) = pool.map(worker, ("alpha", "beta"))
        serial = run_scenarios(tuple(iter_grid(GRID)))
        for outcome in (out_a, out_b):
            assert [r.spec for r in outcome.results] == [
                r.spec for r in serial.results
            ]
            assert [r.metrics for r in outcome.results] == [
                r.metrics for r in serial.results
            ]
        assert rep_a.chunks_claimed + rep_b.chunks_claimed == 6
        store_records = ShardedResultStore(store).load()
        assert len(store_records) == 6
        assert store_records.quarantined() == 0

    def test_ghost_claims_are_swept_up(self, tmp_path, monkeypatch):
        """Claims left by a crashed worker do not block completion: the
        sweep-up pass executes whatever is missing from the store."""
        monkeypatch.setattr(workers_module, "CHUNK_SIZE", 2)
        store = tmp_path / "store"
        claims = tmp_path / "claims"
        claims.mkdir()
        # A phantom worker claimed every chunk, then died without storing
        # a single result.
        for index in range(3):
            assert _try_claim(claims, index, "ghost")
        outcome, report = run_worker(
            GRID, store=store, workers_dir=claims
        )
        assert report.chunks_claimed == 0
        assert report.swept == 6
        assert outcome.total == 6
        assert outcome.executed == 6


#: Crash harness: runs a --jobs 4 sweep against a sharded store, and after
#: the second completion tears the tail of a shard file and SIGKILLs the
#: whole process group (pool workers included) — simulating a
#: power-loss-grade failure mid-append.  Launch it with
#: :func:`_run_crasher`, which gives it a process group of its own.
_CRASHER = """
import os, signal, sys
sys.path.insert(0, {src!r})
from repro.runner.executor import run_scenarios
from repro.runner.spec import ScenarioSpec, SweepSpec, iter_grid

GRID = (
    SweepSpec(
        base=ScenarioSpec(
            experiment="placement", platform="tiny", workload="tiny", policy="RANDOM"
        ),
        axes={{"seed": (0, 1, 2, 3, 4, 5)}},
    ),
)
done = 0

def progress(index, result, total):
    global done
    done += 1
    if done == 2:
        # Fake a torn in-flight append on the victim's own shard, then
        # die without any chance to clean up.
        shard = os.path.join({store!r}, "shard-" + result.scenario_hash[0] + ".jsonl")
        with open(shard, "ab") as handle:
            handle.write(b'{{"hash": "torn-by-sigkill')
        os.killpg(os.getpid(), signal.SIGKILL)

run_scenarios(iter_grid(GRID), jobs=4, store={store!r}, progress=progress)
"""


def _live_group_members(pgid: int) -> list[int]:
    """PIDs of processes in group ``pgid`` that are not yet zombies."""
    live = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:  # exited while we were looking
            continue
        state, _ppid, group = stat.rsplit(")", 1)[1].split()[:3]
        if int(group) == pgid and state not in ("Z", "X"):
            live.append(int(entry))
    return live


def _run_crasher(store: Path) -> None:
    """Run the crash harness in its own session and check nothing outlives it."""
    proc = subprocess.Popen(
        [sys.executable, "-c", _CRASHER.format(src=SRC, store=str(store))],
        start_new_session=True,  # process group id == proc.pid
    )
    assert proc.wait(timeout=120) == -signal.SIGKILL
    if not os.path.isdir("/proc"):  # pragma: no cover - non-Linux hosts
        return
    deadline = time.monotonic() + 10.0
    while _live_group_members(proc.pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert _live_group_members(proc.pid) == []


class TestKillMidSweep:
    def test_sigkilled_sweep_resumes_from_cache(self, tmp_path):
        store = tmp_path / "store"
        _run_crasher(store)

        # The store must load despite the torn tail (quarantined, not
        # fatal), with at least the scenarios completed before the kill.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            survivors = ShardedResultStore(store).load()
            survived = len(survivors)
        assert survived >= 1

        # Rerunning the same sweep completes from cache: survivors are
        # pure hits, only the missing scenarios execute, nothing errors.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            rerun = run_scenarios(tuple(iter_grid(GRID)), jobs=4, store=store)
        assert rerun.total == 6
        assert rerun.cached >= survived
        assert rerun.executed == 6 - rerun.cached

        serial = run_scenarios(tuple(iter_grid(GRID)))
        assert [r.metrics for r in rerun.results] == [
            r.metrics for r in serial.results
        ]

        final = ShardedResultStore(store).load()
        assert len(final) == 6
        assert final.quarantined() >= 1  # the torn tail went to a sidecar

    def test_killed_worker_leaves_a_resumable_claims_dir(self, tmp_path):
        """After a SIGKILL, a fresh worker finishes the job end to end."""
        store = tmp_path / "store"
        claims = tmp_path / "claims"
        _run_crasher(store)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            outcome, report = run_worker(
                GRID, store=store, workers_dir=claims, jobs=2
            )
        assert outcome.total == 6
        assert outcome.executed + outcome.cached == 6
        serial = run_scenarios(tuple(iter_grid(GRID)))
        assert [r.metrics for r in outcome.results] == [
            r.metrics for r in serial.results
        ]
