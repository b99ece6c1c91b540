"""Tests for scenario specs, sweep expansion and content hashing."""

from __future__ import annotations

import dataclasses
import json
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.runner.spec import ScenarioSpec, SweepSpec, iter_grid
from repro.runner.store import ScenarioResult

GOLDEN_GRIDS = Path(__file__).resolve().parents[1] / "data" / "golden" / "grids.json"


class TestScenarioSpec:
    def test_policy_is_normalised_upper(self):
        spec = ScenarioSpec(policy=" power ")
        assert spec.policy == "POWER"

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            ScenarioSpec(experiment="nope")

    def test_preference_bounds_enforced(self):
        with pytest.raises(ValueError, match="preference"):
            ScenarioSpec(preference=1.5)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            ScenarioSpec(seed=-1)

    def test_non_positive_horizon_rejected(self):
        with pytest.raises(ValueError, match="horizon"):
            ScenarioSpec(horizon=0.0)

    def test_overrides_accept_mapping_and_sort(self):
        a = ScenarioSpec(overrides={"b": 2, "a": 1.0})
        b = ScenarioSpec(overrides=(("a", 1.0), ("b", 2)))
        assert a.overrides == (("a", 1.0), ("b", 2))
        assert a.content_hash() == b.content_hash()

    def test_bad_override_value_rejected(self):
        with pytest.raises(ValueError, match="override"):
            ScenarioSpec(overrides={"a": [1, 2]})

    @pytest.mark.parametrize("overrides", [0, 0.0, False])
    def test_falsy_non_pair_overrides_rejected(self, overrides):
        """Only ``None`` and an empty collection mean "no overrides"."""
        with pytest.raises((TypeError, ValueError)):
            ScenarioSpec(overrides=overrides)

    @pytest.mark.parametrize("overrides", [None, (), [], {}])
    def test_empty_overrides_normalise_to_the_empty_tuple(self, overrides):
        assert ScenarioSpec(overrides=overrides).overrides == ()

    def test_scenario_id_mentions_every_axis(self):
        spec = ScenarioSpec(
            experiment="adaptive",
            platform="quick",
            workload="tiny",
            policy="GREENPERF",
            preference=-0.5,
            seed=3,
            horizon=1800.0,
        )
        for fragment in ("adaptive", "quick", "tiny", "GREENPERF", "p-0.50", "s3", "h1800"):
            assert fragment in spec.scenario_id


class TestContentHash:
    def test_equal_specs_hash_equal(self):
        assert ScenarioSpec().content_hash() == ScenarioSpec().content_hash()

    @pytest.mark.parametrize(
        "changes",
        [
            {"policy": "RANDOM"},
            {"seed": 1},
            {"preference": 0.5},
            {"platform": "quick"},
            {"workload": "quick"},
            {"horizon": 100.0},
            {"overrides": {"task_flop": 1.0e9}},
        ],
    )
    def test_any_field_change_changes_hash(self, changes):
        assert ScenarioSpec().content_hash() != ScenarioSpec(**changes).content_hash()

    def test_mapping_round_trip_preserves_hash(self):
        spec = ScenarioSpec(
            experiment="heterogeneity",
            platform="types4",
            policy="RANDOM",
            seed=7,
            overrides={"task_flop": 5.0e10},
        )
        rebuilt = ScenarioSpec.from_mapping(spec.to_mapping())
        assert rebuilt == spec
        assert rebuilt.content_hash() == spec.content_hash()

    def test_hash_is_stable_across_processes(self):
        """The store key must not depend on Python hash randomisation."""
        spec = ScenarioSpec(policy="RANDOM", seed=3, overrides={"task_flop": 2.0e10})
        code = (
            "from repro.runner.spec import ScenarioSpec; "
            "print(ScenarioSpec(policy='RANDOM', seed=3, "
            "overrides={'task_flop': 2.0e10}).content_hash())"
        )
        child = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert child.stdout.strip() == spec.content_hash()


class TestMemoizedHash:
    """The digest is computed once per instance and is invisible otherwise."""

    def test_second_call_computes_no_digest(self, spec_digests):
        spec = ScenarioSpec(policy="RANDOM", seed=4)
        first = spec.content_hash()
        assert spec.content_hash() == first
        assert len(spec_digests) == 1

    def test_memo_is_not_a_field(self):
        hashed, plain = ScenarioSpec(seed=2), ScenarioSpec(seed=2)
        hashed.content_hash()
        assert hashed == plain
        assert hash(hashed) == hash(plain)
        assert repr(hashed) == repr(plain)
        assert dataclasses.asdict(hashed) == dataclasses.asdict(plain)
        assert hashed.to_mapping() == plain.to_mapping()

    @pytest.mark.parametrize("hash_first", [False, True])
    def test_pickle_round_trip_keeps_equality_and_hash(self, hash_first):
        spec = ScenarioSpec(policy="RANDOM", seed=9, overrides={"task_flop": 2.0e10})
        expected = ScenarioSpec.from_mapping(spec.to_mapping()).content_hash()
        if hash_first:
            spec.content_hash()
        restored = pickle.loads(pickle.dumps(spec))
        assert restored == spec
        assert hash(restored) == hash(spec)
        assert restored.content_hash() == expected

    def test_replace_gets_a_fresh_hash(self):
        spec = ScenarioSpec(policy="RANDOM", seed=1)
        old = spec.content_hash()
        moved = spec.replace(seed=2)
        assert moved.content_hash() != old
        assert moved.content_hash() == ScenarioSpec(policy="RANDOM", seed=2).content_hash()
        assert spec.replace().content_hash() == old

    def test_replace_refuses_unknown_fields(self):
        with pytest.raises(TypeError, match="nope"):
            ScenarioSpec().replace(nope=1)

    def test_spec_from_a_record_recomputes_its_hash(self, spec_digests):
        spec = ScenarioSpec(policy="RANDOM", seed=5)
        record = ScenarioResult(spec=spec, metrics={"makespan": 1.0}).to_record()
        real = record["hash"]
        record["hash"] = "0" * 64  # a record's key never seeds the memo
        rebuilt = ScenarioResult.from_record(record).spec
        spec_digests.clear()
        assert rebuilt.content_hash() == real
        assert len(spec_digests) == 1

    def test_named_grid_hashes_survive_replace_and_pickle(self):
        from repro.runner.grids import grid

        expected = json.loads(GOLDEN_GRIDS.read_text())
        for name, pinned in expected.items():
            specs = grid(name)
            copies = pickle.loads(pickle.dumps(specs))
            rebuilt = [spec.replace() for spec in specs]
            for spec, copy, again, (_, digest) in zip(specs, copies, rebuilt, pinned):
                assert spec.content_hash() == digest
                assert copy.content_hash() == digest
                assert again.content_hash() == digest


class TestSweepSpec:
    def test_expand_is_cartesian_in_axis_order(self):
        sweep = SweepSpec(
            base=ScenarioSpec(),
            axes={"policy": ("POWER", "RANDOM"), "seed": (0, 1)},
        )
        assert sweep.size == 4
        expanded = tuple(sweep.iter_expand())
        assert [(s.policy, s.seed) for s in expanded] == [
            ("POWER", 0),
            ("POWER", 1),
            ("RANDOM", 0),
            ("RANDOM", 1),
        ]

    def test_no_axes_expands_to_base(self):
        base = ScenarioSpec()
        assert tuple(SweepSpec(base=base).iter_expand()) == (base,)

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="unknown axis"):
            SweepSpec(base=ScenarioSpec(), axes={"nope": (1,)})

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="at least one value"):
            SweepSpec(base=ScenarioSpec(), axes={"seed": ()})


class TestIterGrid:
    def test_mixes_specs_and_sweeps_and_dedupes(self):
        base = ScenarioSpec()
        sweep = SweepSpec(base=base, axes={"seed": (0, 1)})
        scenarios = tuple(iter_grid((sweep, base, base.replace(seed=2))))
        # base duplicates sweep's seed=0 entry, so it is dropped.
        assert [s.seed for s in scenarios] == [0, 1, 2]

    def test_single_spec_accepted(self):
        assert tuple(iter_grid(ScenarioSpec())) == (ScenarioSpec(),)

    def test_rejects_foreign_entries(self):
        with pytest.raises(TypeError):
            tuple(iter_grid(("not a spec",)))


class TestStreamingGrids:
    """iter_grid / iter_expand: same scenarios, nothing materialised."""

    def test_iter_grid_is_lazy(self):
        """An invalid axis value deep in the grid only raises when reached —
        validation happens in replace(), so early consumption never sees it."""
        sweep = SweepSpec(
            base=ScenarioSpec(),
            axes={"seed": (0, 1, -1)},  # -1 is rejected by ScenarioSpec
        )
        stream = sweep.iter_expand()
        assert next(stream).seed == 0
        assert next(stream).seed == 1
        with pytest.raises(ValueError, match="seed"):
            next(stream)

    def test_iter_grid_rejects_foreign_entries(self):
        with pytest.raises(TypeError):
            list(iter_grid(("not a spec",)))

    def test_hundred_thousand_scenario_sweep_streams(self):
        """size is O(1) and the stream yields without full expansion."""
        sweep = SweepSpec(
            base=ScenarioSpec(),
            axes={
                "seed": tuple(range(10_000)),
                "preference": tuple(i / 10 for i in range(10)),
            },
        )
        assert sweep.size == 100_000
        stream = sweep.iter_expand()
        head = [next(stream) for _ in range(5)]
        assert [s.preference for s in head] == [0.0, 0.1, 0.2, 0.3, 0.4]
        assert all(s.seed == 0 for s in head)
