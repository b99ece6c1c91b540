"""Tests for the sharded store directory: layout, laziness, migration."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.runner.spec import ScenarioSpec
from repro.cli import main
from repro.runner.store import (
    STORE_META_NAME,
    ScenarioResult,
    ShardedResultStore,
    open_store,
)

SRC = str(Path(__file__).resolve().parents[2] / "src")


def make_result(policy: str = "POWER", seed: int = 0) -> ScenarioResult:
    return ScenarioResult(
        spec=ScenarioSpec(policy=policy, seed=seed),
        metrics={"makespan": float(seed), "total_energy": 100.0, "greenperf": 10.0},
    )


def fill(store, count: int) -> list[ScenarioResult]:
    results = [make_result(seed=seed) for seed in range(count)]
    for result in results:
        store.put(result)
    return results


def write_legacy_store(path: Path, count: int) -> list[ScenarioResult]:
    """Write a legacy single-file store: one ``to_record()`` line per result."""
    results = [make_result(seed=seed) for seed in range(count)]
    path.write_text(
        "".join(json.dumps(r.to_record(), sort_keys=True) + "\n" for r in results)
    )
    return results


class TestLayout:
    def test_put_then_get_round_trip(self, tmp_path):
        store = ShardedResultStore(tmp_path / "store").load()
        result = make_result()
        store.put(result)
        assert result.scenario_hash in store
        fetched = store.get(result.scenario_hash)
        assert fetched.metrics == result.metrics
        assert fetched.cached

    def test_records_land_in_prefix_named_shards(self, tmp_path):
        store = ShardedResultStore(tmp_path / "store").load()
        results = fill(store, 32)
        for result in results:
            shard = store.shard_path(result.scenario_hash)
            assert shard.name == f"shard-{result.scenario_hash[0]}.jsonl"
            assert shard.exists()
            lines = [
                json.loads(line)
                for line in shard.read_text().splitlines()
                if line.strip()
            ]
            assert any(rec["hash"] == result.scenario_hash for rec in lines)

    def test_meta_file_written_and_adopted(self, tmp_path):
        root = tmp_path / "store"
        ShardedResultStore(root, prefix_len=2).load().put(make_result())
        meta = json.loads((root / STORE_META_NAME).read_text())
        assert meta["prefix_len"] == 2
        # Reopening with the default ctor adopts the on-disk layout.
        reopened = ShardedResultStore(root).load()
        assert reopened.prefix_len == 2
        assert reopened.shard_count == 256

    def test_persists_across_instances(self, tmp_path):
        root = tmp_path / "store"
        fill(ShardedResultStore(root).load(), 8)
        reloaded = ShardedResultStore(root).load()
        assert len(reloaded) == 8
        assert len(reloaded.results()) == 8

    def test_last_record_wins(self, tmp_path):
        root = tmp_path / "store"
        store = ShardedResultStore(root).load()
        spec = ScenarioSpec(policy="POWER")
        store.put(ScenarioResult(spec=spec, metrics={"makespan": 1.0}))
        store.put(ScenarioResult(spec=spec, metrics={"makespan": 2.0}))
        reloaded = ShardedResultStore(root).load()
        assert reloaded.get(spec.content_hash()).metrics["makespan"] == 2.0
        assert len(reloaded) == 1

    def test_invalid_prefix_len_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="prefix_len"):
            ShardedResultStore(tmp_path / "store", prefix_len=0)

    @pytest.mark.parametrize(
        "meta",
        [
            {"format": "bogus", "version": 99, "prefix_len": 0},
            {"format": "bogus", "version": 1, "prefix_len": 1},
            {"format": "sharded-jsonl", "version": 2, "prefix_len": 1},
            {"format": "sharded-jsonl", "version": 1, "prefix_len": 0},
            {"format": "sharded-jsonl", "version": 1, "prefix_len": 5},
            {"format": "sharded-jsonl", "prefix_len": 1},
            ["not", "an", "object"],
        ],
    )
    def test_hostile_meta_rejected(self, tmp_path, capsys, meta):
        root = tmp_path / "store"
        root.mkdir()
        (root / STORE_META_NAME).write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="store.json: invalid store metadata"):
            ShardedResultStore(root).load()
        assert main(["store", "verify", str(root)]) == 2
        assert "invalid store metadata" in capsys.readouterr().err


class TestLazyLoading:
    def test_lookup_reads_only_the_hashes_shard(self, tmp_path):
        """A corrupt shard must not break lookups landing in other shards —
        the behavioural proof that loading is per shard, not whole-store."""
        root = tmp_path / "store"
        store = ShardedResultStore(root).load()
        results = fill(store, 16)
        target = results[0]
        # Poison some *other* shard with complete-line garbage.
        other = next(
            store.shard_path(r.scenario_hash)
            for r in results
            if store.shard_path(r.scenario_hash)
            != store.shard_path(target.scenario_hash)
        )
        with other.open("a") as handle:
            handle.write("garbage line\n")
        fresh = ShardedResultStore(root).load()
        assert fresh.get(target.scenario_hash) is not None  # untouched shard
        with pytest.raises(ValueError, match="corrupt store record"):
            len(fresh)  # forcing every shard hits the poisoned one

    def test_refresh_sees_other_writers(self, tmp_path):
        root = tmp_path / "store"
        reader = ShardedResultStore(root).load()
        result = make_result()
        assert reader.get(result.scenario_hash) is None
        ShardedResultStore(root).load().put(result)
        assert reader.get(result.scenario_hash) is None  # stale shard cache
        assert reader.refresh().get(result.scenario_hash) is not None

    def test_torn_shard_tail_is_quarantined(self, tmp_path):
        root = tmp_path / "store"
        store = ShardedResultStore(root).load()
        result = make_result()
        store.put(result)
        shard = store.shard_path(result.scenario_hash)
        with shard.open("ab") as handle:
            handle.write(b'{"hash": "torn')
        fresh = ShardedResultStore(root).load()
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert fresh.get(result.scenario_hash) is not None
        assert fresh.quarantined() == 1


class TestMigration:
    def test_single_file_migrates_on_open(self, tmp_path):
        legacy = tmp_path / "results.jsonl"
        originals = write_legacy_store(legacy, 12)
        store = ShardedResultStore(legacy).load()
        assert legacy.is_dir()
        assert (legacy / STORE_META_NAME).exists()
        assert (tmp_path / "results.jsonl.pre-shard.bak").is_file()
        assert len(store) == 12
        for original in originals:
            assert store.get(original.scenario_hash).metrics == original.metrics

    def test_migrated_store_reopens_as_plain_directory(self, tmp_path):
        legacy = tmp_path / "results.jsonl"
        write_legacy_store(legacy, 5)
        ShardedResultStore(legacy).load()
        assert len(ShardedResultStore(legacy).load()) == 5
        assert isinstance(open_store(legacy), ShardedResultStore)

    def test_migration_quarantines_a_torn_legacy_tail(self, tmp_path):
        legacy = tmp_path / "results.jsonl"
        write_legacy_store(legacy, 3)
        with legacy.open("ab") as handle:
            handle.write(b'{"hash": "torn')
        with pytest.warns(RuntimeWarning, match="quarantined"):
            store = ShardedResultStore(legacy).load()
        assert len(store) == 3
        assert store.quarantined() == 1

    def test_interrupted_migration_completes_on_next_open(self, tmp_path):
        root = tmp_path / "store"
        fill(ShardedResultStore(root).load(), 6)
        # Simulate a crash between "legacy moved aside" and "staging renamed
        # into place": the fully-written store sits at <root>.migrating.
        staging = tmp_path / "store.migrating"
        root.rename(staging)
        recovered = ShardedResultStore(root).load()
        assert root.is_dir()
        assert len(recovered) == 6


class TestOpenStore:
    def test_existing_directory_opens_sharded(self, tmp_path):
        root = tmp_path / "store"
        ShardedResultStore(root).load().put(make_result())
        assert isinstance(open_store(root), ShardedResultStore)

    def test_existing_file_migrates_on_load(self, tmp_path):
        path = tmp_path / "results.jsonl"
        (original,) = write_legacy_store(path, 1)
        store = open_store(path)
        assert path.is_file()  # opening alone does not touch the disk
        assert store.load().get(original.scenario_hash) is not None
        assert path.is_dir()

    def test_fresh_jsonl_path_becomes_a_directory(self, tmp_path):
        path = tmp_path / "new.jsonl"
        open_store(path).load().put(make_result())
        assert (path / STORE_META_NAME).is_file()

    def test_fresh_bare_path_opens_sharded(self, tmp_path):
        assert isinstance(open_store(tmp_path / "results"), ShardedResultStore)


class TestConcurrentAppends:
    N_PROCS = 4
    N_RECORDS = 20

    _WRITER = """
import sys
sys.path.insert(0, {src!r})
from repro.runner.spec import ScenarioSpec
from repro.runner.store import ShardedResultStore, ScenarioResult

store = ShardedResultStore({root!r}).load()
for seed in range({start}, {start} + {count}):
    store.put(ScenarioResult(
        spec=ScenarioSpec(policy="RANDOM", seed=seed),
        metrics={{"makespan": float(seed)}},
        detail={{"pad": "x" * 2048}},
    ))
"""

    def test_parallel_processes_hammering_one_directory(self, tmp_path):
        root = tmp_path / "store"
        procs = [
            subprocess.Popen(
                [
                    sys.executable,
                    "-c",
                    self._WRITER.format(
                        src=SRC,
                        root=str(root),
                        start=worker * self.N_RECORDS,
                        count=self.N_RECORDS,
                    ),
                ]
            )
            for worker in range(self.N_PROCS)
        ]
        for proc in procs:
            assert proc.wait(timeout=120) == 0
        store = ShardedResultStore(root).load()
        assert len(store) == self.N_PROCS * self.N_RECORDS
        assert store.quarantined() == 0
        seeds = sorted(r.spec.seed for r in store.results())
        assert seeds == list(range(self.N_PROCS * self.N_RECORDS))
