"""Tests for the sharded store directory: layout, laziness, refusing a file."""

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


def write_record_file(path: Path, count: int) -> bytes:
    """A regular file of ``to_record()`` lines, one per result; its bytes."""
    results = [make_result(seed=seed) for seed in range(count)]
    path.write_text(
        "".join(json.dumps(r.to_record(), sort_keys=True) + "\n" for r in results)
    )
    return path.read_bytes()


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

    def test_new_store_writes_prefix_len_1(self, tmp_path):
        root = tmp_path / "store"
        ShardedResultStore(root).load().put(make_result())
        meta = json.loads((root / STORE_META_NAME).read_text())
        assert meta == {"format": "sharded-jsonl", "prefix_len": 1, "version": 1}

    def test_prefix_len_is_adopted_from_store_json(self, tmp_path):
        # A store laid out with two-digit shards still opens and serves
        # its records as cache hits: the layout is read from store.json.
        root = tmp_path / "store"
        root.mkdir()
        (root / STORE_META_NAME).write_text(
            json.dumps({"format": "sharded-jsonl", "version": 1, "prefix_len": 2})
        )
        results = [make_result(seed=seed) for seed in range(8)]
        for result in results:
            shard = root / f"shard-{result.scenario_hash[:2]}.jsonl"
            with shard.open("a") as handle:
                handle.write(json.dumps(result.to_record(), sort_keys=True) + "\n")
        store = ShardedResultStore(root).load()
        assert store.prefix_len == 2
        assert store.shard_count == 256
        assert len(store) == 8
        for result in results:
            assert store.get(result.scenario_hash).metrics == result.metrics
        extra = make_result(seed=99)
        store.put(extra)
        assert store.shard_path(extra.scenario_hash).name == (
            f"shard-{extra.scenario_hash[:2]}.jsonl"
        )
        assert ShardedResultStore(root).load().get(extra.scenario_hash) is not None

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


class TestFileAtStorePath:
    def test_load_refuses_a_regular_file_and_leaves_it_alone(self, tmp_path):
        path = tmp_path / "results.jsonl"
        original = write_record_file(path, 3)
        store = ShardedResultStore(path)
        for _ in range(2):  # a refused open stays refused
            with pytest.raises(ValueError, match="results.jsonl is a file") as excinfo:
                store.load()
            assert "result stores are directories" in str(excinfo.value)
        assert path.read_bytes() == original
        assert sorted(tmp_path.iterdir()) == [path]  # no side files

    def test_lookups_and_appends_refuse_a_regular_file(self, tmp_path):
        path = tmp_path / "results.jsonl"
        original = write_record_file(path, 1)
        with pytest.raises(ValueError, match="is a file"):
            ShardedResultStore(path).get(make_result().scenario_hash)
        with pytest.raises(ValueError, match="is a file"):
            ShardedResultStore(path).put(make_result(seed=5))
        assert path.read_bytes() == original
        assert sorted(tmp_path.iterdir()) == [path]


class TestOpenStore:
    def test_existing_directory_opens_sharded(self, tmp_path):
        root = tmp_path / "store"
        ShardedResultStore(root).load().put(make_result())
        assert isinstance(open_store(root), ShardedResultStore)

    def test_existing_file_is_refused_on_load(self, tmp_path):
        path = tmp_path / "results.jsonl"
        original = write_record_file(path, 1)
        store = open_store(path)  # opening alone does not touch the disk
        with pytest.raises(ValueError, match="result stores are directories"):
            store.load()
        assert path.read_bytes() == original

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
