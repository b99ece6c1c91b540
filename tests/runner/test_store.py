"""Tests for the result store: records, crash safety, aggregation."""

from __future__ import annotations

import json
import os
import stat
import subprocess
from collections import Counter
import sys
from pathlib import Path

import pytest

from repro.runner.spec import ScenarioSpec
from repro.runner.store import ScenarioResult, ShardedResultStore, summarize

SRC = str(Path(__file__).resolve().parents[2] / "src")


def make_result(
    policy: str = "POWER",
    seed: int = 0,
    *,
    makespan: float = 10.0,
    total_energy: float = 100.0,
) -> ScenarioResult:
    return ScenarioResult(
        spec=ScenarioSpec(policy=policy, seed=seed),
        metrics={
            "makespan": makespan,
            "total_energy": total_energy,
            "greenperf": total_energy / 10.0,
        },
        detail={"tasks_per_node": {"taurus-0": 5}},
    )


class TestScenarioResult:
    def test_record_round_trip(self):
        result = make_result()
        rebuilt = ScenarioResult.from_record(result.to_record())
        assert rebuilt.spec == result.spec
        assert rebuilt.metrics == result.metrics
        assert rebuilt.detail == result.detail

    def test_record_survives_json(self):
        record = json.loads(json.dumps(make_result().to_record()))
        rebuilt = ScenarioResult.from_record(record, cached=True)
        assert rebuilt.cached
        assert rebuilt.scenario_hash == make_result().scenario_hash


def seeds_in_one_shard(count: int, policy: str = "POWER") -> list[int]:
    """``count`` seeds whose scenario hashes share a shard (prefix_len 1)."""
    by_shard: dict[str, list[int]] = {}
    seed = 0
    while True:
        bucket = by_shard.setdefault(
            ScenarioSpec(policy=policy, seed=seed).content_hash()[0], []
        )
        bucket.append(seed)
        if len(bucket) == count:
            return bucket
        seed += 1


def results_in_one_shard(count: int) -> list[ScenarioResult]:
    return [make_result(seed=seed) for seed in seeds_in_one_shard(count)]


class TestResultStore:
    def test_missing_file_is_empty(self, tmp_path):
        store = ShardedResultStore(tmp_path / "results").load()
        assert len(store) == 0
        assert not store.path.exists()  # nothing is created until a put

    def test_put_then_get_round_trip(self, tmp_path):
        store = ShardedResultStore(tmp_path / "results").load()
        result = make_result()
        store.put(result)
        assert result.scenario_hash in store
        fetched = store.get(result.scenario_hash)
        assert fetched.metrics == result.metrics
        assert fetched.cached

    def test_persists_across_instances(self, tmp_path):
        path = tmp_path / "results"
        ShardedResultStore(path).load().put(make_result())
        reloaded = ShardedResultStore(path).load()
        assert len(reloaded) == 1
        assert reloaded.get(make_result().scenario_hash) is not None

    def test_last_record_wins(self, tmp_path):
        path = tmp_path / "results"
        store = ShardedResultStore(path).load()
        store.put(make_result(makespan=10.0))
        store.put(make_result(makespan=20.0))
        reloaded = ShardedResultStore(path).load()
        assert reloaded.get(make_result().scenario_hash).metrics["makespan"] == 20.0

    def test_corrupt_line_raises(self, tmp_path):
        path = tmp_path / "results"
        path.mkdir()
        (path / "shard-0.jsonl").write_text("not json\n")
        with pytest.raises(ValueError, match="corrupt store record"):
            len(ShardedResultStore(path).load())

    def test_results_sorted_by_scenario_id(self, tmp_path):
        store = ShardedResultStore(tmp_path / "results").load()
        store.put(make_result(policy="RANDOM"))
        store.put(make_result(policy="POWER"))
        assert [r.spec.policy for r in store.results()] == ["POWER", "RANDOM"]

    def test_metadata_gets_a_shards_mode(self, tmp_path):
        """``store.json`` is as readable as the shards under the umask."""
        previous = os.umask(0o022)
        try:
            ShardedResultStore(tmp_path / "results").load().put(make_result())
        finally:
            os.umask(previous)
        (shard,) = (tmp_path / "results").glob("shard-*.jsonl")
        meta = tmp_path / "results" / "store.json"
        assert stat.S_IMODE(meta.stat().st_mode) == stat.S_IMODE(shard.stat().st_mode) == 0o644

    def test_a_failed_metadata_write_leaves_no_temporary_file(self, tmp_path, monkeypatch):
        def refuse(source, target):
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="replace refused"):
            ShardedResultStore(tmp_path / "results").load().put(make_result())
        assert not list((tmp_path / "results").glob(".store.json.*"))

    def test_refresh_sees_another_writers_append(self, tmp_path):
        path = tmp_path / "results"
        result = make_result()
        reader = ShardedResultStore(path).load()
        assert result.scenario_hash not in reader  # loads the (empty) shard
        ShardedResultStore(path).load().put(result)
        assert len(reader) == 0  # stale snapshot
        assert len(reader.refresh()) == 1


class TestCrashSafety:
    """The resumability promise: a crashed append never poisons a shard."""

    def test_truncated_final_line_is_quarantined(self, tmp_path):
        path = tmp_path / "results"
        first, second = results_in_one_shard(2)
        store = ShardedResultStore(path).load()
        store.put(first)
        store.put(second)
        # Simulate a crash mid-append: tear the second record in half.
        shard = store.shard_path(second.scenario_hash)
        data = shard.read_bytes()
        shard.write_bytes(data[: data.rindex(b'"metrics"')])
        reloaded = ShardedResultStore(path).load()
        with pytest.warns(RuntimeWarning, match="quarantined a truncated final record"):
            assert len(reloaded) == 1
        assert reloaded.get(first.scenario_hash) is not None
        assert reloaded.quarantined() == 1

    def test_quarantine_truncates_so_next_append_is_clean(self, tmp_path):
        path = tmp_path / "results"
        first, second = results_in_one_shard(2)
        ShardedResultStore(path).load().put(first)
        shard = ShardedResultStore(path).shard_path(first.scenario_hash)
        with shard.open("ab") as handle:
            handle.write(b'{"hash": "torn')
        repaired = ShardedResultStore(path).load()
        with pytest.warns(RuntimeWarning):
            assert repaired.get(first.scenario_hash) is not None
        repaired.put(second)
        # A fresh load parses every line — no concatenated garbage.
        final = ShardedResultStore(path).load()
        assert len(final) == 2
        assert final.quarantined() == 1

    def test_put_repairs_a_predecessors_torn_tail(self, tmp_path):
        """An append onto a torn tail must not glue records together."""
        path = tmp_path / "results"
        first, second = results_in_one_shard(2)
        ShardedResultStore(path).load().put(first)
        shard = ShardedResultStore(path).shard_path(first.scenario_hash)
        with shard.open("ab") as handle:
            handle.write(b'{"hash": "torn')
        writer = ShardedResultStore(path).load()  # never reads the shard
        with pytest.warns(RuntimeWarning):
            writer.put(second)
        final = ShardedResultStore(path).load()
        assert len(final) == 2
        assert final.quarantined() == 1

    def test_interior_corruption_still_raises(self, tmp_path):
        path = tmp_path / "results"
        first, second = results_in_one_shard(2)
        store = ShardedResultStore(path).load()
        store.put(first)
        with store.shard_path(first.scenario_hash).open("a", encoding="utf-8") as handle:
            handle.write("not json\n")  # complete (newline-terminated) garbage
        store.put(second)
        with pytest.raises(ValueError, match="corrupt store record"):
            len(ShardedResultStore(path).load())

    def test_complete_final_record_without_newline_is_kept(self, tmp_path):
        path = tmp_path / "results"
        first, second = results_in_one_shard(2)
        path.mkdir()
        shard = ShardedResultStore(path).shard_path(first.scenario_hash)
        shard.write_text(json.dumps(first.to_record(), sort_keys=True))  # no newline
        store = ShardedResultStore(path).load()
        assert len(store) == 1
        assert store.quarantined() == 0
        # The next append repairs the missing newline instead of gluing on.
        store.put(second)
        final = ShardedResultStore(path).load()
        assert len(final) == 2
        assert final.quarantined() == 0


class TestConcurrentAppends:
    """fcntl-locked single-write appends never interleave across processes."""

    N_PROCS = 4
    N_RECORDS = 20

    _WRITER = """
import sys
sys.path.insert(0, {src!r})
from repro.runner.spec import ScenarioSpec
from repro.runner.store import ScenarioResult, ShardedResultStore

store = ShardedResultStore({path!r}).load()
for seed in {seeds!r}:
    store.put(ScenarioResult(
        spec=ScenarioSpec(policy="RANDOM", seed=seed),
        metrics={{"makespan": float(seed)}},
        # Bulk the record up so torn/interleaved writes could not hide.
        detail={{"pad": "x" * 2048}},
    ))
"""

    def test_parallel_processes_hammering_one_file(self, tmp_path):
        path = tmp_path / "results"
        # Every record lands in the same shard, so all writers contend on
        # one file.
        seeds = seeds_in_one_shard(self.N_PROCS * self.N_RECORDS, policy="RANDOM")
        procs = [
            subprocess.Popen(
                [
                    sys.executable,
                    "-c",
                    self._WRITER.format(
                        src=SRC,
                        path=str(path),
                        seeds=seeds[worker :: self.N_PROCS],
                    ),
                ],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for worker in range(self.N_PROCS)
        ]
        writers = []
        for proc in procs:
            try:
                _, stderr = proc.communicate(timeout=120)
            except subprocess.TimeoutExpired:
                proc.kill()
                _, stderr = proc.communicate()
                stderr = f"(killed after 120 s)\n{stderr}"
            writers.append((proc.returncode, stderr))
        diagnosis = _append_diagnosis(path, seeds, writers)
        assert all(code == 0 for code, _ in writers), diagnosis
        store = ShardedResultStore(path).load()
        assert len(store.shard_files()) == 1, diagnosis
        assert len(store) == self.N_PROCS * self.N_RECORDS, diagnosis
        assert store.quarantined() == 0, diagnosis
        assert sorted(r.spec.seed for r in store.results()) == sorted(seeds), diagnosis


def _append_diagnosis(path: Path, seeds, writers) -> str:
    """What a failed concurrent-append run left behind, read before the store loads.

    Each writer's exit code and stderr, the shard files with their line
    counts, the lines that do not parse, the quarantine count, and the
    seeds missing from or duplicated in the shards.
    """
    lines = [
        f"writer {worker}: exit code {code}" + (f", stderr:\n{stderr}" if stderr else "")
        for worker, (code, stderr) in enumerate(writers)
    ]
    found: Counter = Counter()
    unparsable = 0
    for shard in sorted(path.glob("shard-*.jsonl")):
        shard_lines = shard.read_text("utf-8").splitlines()
        lines.append(f"{shard.name}: {len(shard_lines)} lines (expected {len(seeds)})")
        for line in shard_lines:
            try:
                found[json.loads(line)["spec"]["seed"]] += 1
            except (ValueError, KeyError, TypeError):
                unparsable += 1
    quarantined = ShardedResultStore(path).quarantined()
    lines.append(f"unparsable lines: {unparsable}; quarantined records: {quarantined}")
    lines.append(f"missing seeds: {sorted(set(seeds) - set(found))}")
    lines.append(f"duplicated seeds: {sorted(seed for seed, n in found.items() if n > 1)}")
    return "\n".join(lines)


class TestSummarize:
    def test_groups_and_percentiles(self):
        results = [
            make_result(seed=0, makespan=10.0, total_energy=100.0),
            make_result(seed=1, makespan=20.0, total_energy=200.0),
            make_result(policy="RANDOM", makespan=30.0, total_energy=300.0),
        ]
        rows = summarize(results, group_by=("policy",))
        assert [row["policy"] for row in rows] == ["POWER", "RANDOM"]
        power = rows[0]
        assert power["count"] == 2
        assert power["makespan_mean"] == pytest.approx(15.0)
        assert power["makespan_p50"] == pytest.approx(15.0)
        assert rows[1]["makespan_p95"] == pytest.approx(30.0)

    def test_rows_sorted_regardless_of_input_order(self):
        forward = [make_result("POWER"), make_result("RANDOM")]
        rows_a = summarize(forward, group_by=("policy",))
        rows_b = summarize(list(reversed(forward)), group_by=("policy",))
        assert rows_a == rows_b

    def test_numeric_group_keys_sort_numerically(self):
        results = [
            ScenarioResult(
                spec=ScenarioSpec(policy="GREEN_SCORE", preference=p),
                metrics={"makespan": 1.0},
            )
            for p in (0.5, -1.0, 0.0, -0.25)
        ]
        rows = summarize(results, group_by=("preference",))
        assert [row["preference"] for row in rows] == [-1.0, -0.25, 0.0, 0.5]

    def test_missing_metric_is_skipped(self):
        result = make_result()
        del result.metrics["greenperf"]
        rows = summarize([result])
        assert "greenperf_mean" not in rows[0]
        assert "makespan_mean" in rows[0]

    def test_unknown_group_by_field_raises_value_error(self):
        """A typo'd group_by must not escape as a bare AttributeError: the
        CLI maps ValueError to exit 2 with a readable message."""
        with pytest.raises(ValueError, match="unknown group_by field 'typo'"):
            summarize([make_result()], group_by=("typo",))

    def test_unknown_group_by_error_names_the_spec_fields(self):
        with pytest.raises(ValueError, match="experiment.*policy.*seed"):
            summarize([make_result()], group_by=("policyy",))
