"""Tests for the command-line interface."""

from pathlib import Path

import pytest

from repro import __version__
from repro.cli import build_parser, main

DATA = Path(__file__).parent / "data"


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        args = parser.parse_args(["table2", "--quick"])
        assert args.command == "table2"
        assert args.quick

    def test_seed_flag_defaults_to_zero(self):
        parser = build_parser()
        args = parser.parse_args(["table2"])
        assert args.seed == 0
        args = parser.parse_args(["fig6", "--seed", "7"])
        assert args.seed == 7

    def test_sweep_flags(self):
        parser = build_parser()
        args = parser.parse_args(
            ["sweep", "--grid", "smoke", "--jobs", "4", "--store", "x.jsonl", "--force"]
        )
        assert args.grid == "smoke"
        assert args.jobs == 4
        assert args.store == "x.jsonl"
        assert args.force

    def test_command_is_required(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_unknown_command_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["nope"])


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "Orion" in out and "Taurus" in out and "Sagittaire" in out

    def test_table3(self, capsys):
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "Sim1" in out and "Sim2" in out
        assert "190" in out and "230" in out

    def test_table2_quick(self, capsys):
        assert main(["table2", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Makespan (s)" in out
        assert "POWER saves" in out

    @pytest.mark.parametrize(
        "command,expected",
        [
            (["fig2", "--quick"], "POWER"),
            (["fig3", "--quick"], "PERFORMANCE"),
            (["fig4", "--quick"], "RANDOM"),
        ],
    )
    def test_distribution_figures_quick(self, capsys, command, expected):
        assert main(command) == 0
        out = capsys.readouterr().out
        assert expected in out
        assert "tasks per node" in out

    def test_fig5_quick(self, capsys):
        assert main(["fig5", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "energy per cluster" in out
        assert "taurus" in out

    def test_fig6_quick(self, capsys):
        assert main(["fig6", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "2 server types" in out
        assert "GREENPERF" in out

    def test_fig7_quick(self, capsys):
        assert main(["fig7", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "4 server types" in out

    def test_fig9_quick(self, capsys):
        assert main(["fig9", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Figure 9" in out
        assert "Injected events" in out

    def test_seed_moves_random_distribution(self, capsys):
        assert main(["fig4", "--quick", "--seed", "0"]) == 0
        baseline = capsys.readouterr().out
        assert main(["fig4", "--quick", "--seed", "0"]) == 0
        repeat = capsys.readouterr().out
        assert main(["fig4", "--quick", "--seed", "3"]) == 0
        reseeded = capsys.readouterr().out
        assert baseline == repeat
        assert baseline != reseeded


class TestSweepCommand:
    def test_list_grids(self, capsys):
        assert main(["sweep", "--list"]) == 0
        out = capsys.readouterr().out
        assert "default" in out and "smoke" in out

    def test_smoke_grid_runs_and_summarises(self, capsys):
        assert main(["sweep", "--grid", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "3 scenarios — 3 executed, 0 cached" in out
        assert "run  placement/tiny/tiny/POWER" in out
        assert "greenperf p95" in out

    def test_store_makes_second_run_all_hits(self, capsys, tmp_path):
        store = str(tmp_path / "results.jsonl")
        assert main(["sweep", "--grid", "smoke", "--store", store]) == 0
        capsys.readouterr()
        assert main(["sweep", "--grid", "smoke", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "3 scenarios — 0 executed, 3 cached" in out
        assert "hit" in out and "] run" not in out

    def test_filter_restricts_grid(self, capsys):
        assert main(["sweep", "--grid", "smoke", "--filter", "heterogeneity"]) == 0
        out = capsys.readouterr().out
        assert "1 scenarios — 1 executed" in out

    def test_filter_without_match_reports_it(self, capsys):
        assert main(["sweep", "--grid", "smoke", "--filter", "nope-nothing"]) == 0
        out = capsys.readouterr().out
        assert "no scenario matches" in out

    def test_unknown_grid_exits_with_clean_error(self, capsys):
        assert main(["sweep", "--grid", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown grid 'nope'" in err
        assert "Traceback" not in err

    def test_cross_grid_requires_both_files(self, capsys):
        assert main(["sweep", "--grid", "cross"]) == 2
        err = capsys.readouterr().err
        assert "both --trace" in err

    def test_named_grid_still_excludes_trace(self, capsys):
        assert main(["sweep", "--grid", "smoke", "--trace", "x.csv"]) == 2
        err = capsys.readouterr().err
        assert "mutually exclusive" in err

    def test_trace_and_timeline_compose_into_the_cross_grid(self, capsys):
        assert (
            main(
                [
                    "sweep",
                    "--trace", str(DATA / "mini.swf"),
                    "--timeline", str(DATA / "failures.toml"),
                    "--filter", "placement/quick",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "cross:mini.swf+failures.toml" in out
        assert "trace=mini.swf/timeline=failures.toml" in out

    def test_sharded_store_directory_round_trip(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        assert main(["sweep", "--grid", "smoke", "--store", store]) == 0
        capsys.readouterr()
        assert (tmp_path / "store").is_dir()
        assert main(["sweep", "--grid", "smoke", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "3 scenarios — 0 executed, 3 cached" in out

    def test_workers_dir_runs_a_worker(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        claims = str(tmp_path / "claims")
        assert (
            main(
                [
                    "sweep", "--grid", "smoke",
                    "--store", store,
                    "--workers-dir", claims,
                    "--worker-id", "alpha",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "worker alpha:" in out
        assert "3 scenarios — 3 executed, 0 cached" in out
        assert any(Path(claims).glob("claim-*.json"))

    def test_second_worker_is_all_cache_hits(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        base = ["sweep", "--grid", "smoke", "--store", store]
        assert main(base + ["--workers-dir", str(tmp_path / "a")]) == 0
        capsys.readouterr()
        assert main(base + ["--workers-dir", str(tmp_path / "a")]) == 0
        out = capsys.readouterr().out
        assert "3 scenarios — 0 executed, 3 cached" in out

    def test_workers_dir_requires_store(self, capsys, tmp_path):
        assert main(["sweep", "--grid", "smoke", "--workers-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "--workers-dir needs --store" in err

    def test_workers_dir_rejects_force(self, capsys, tmp_path):
        assert (
            main(
                [
                    "sweep", "--grid", "smoke",
                    "--store", str(tmp_path / "s"),
                    "--workers-dir", str(tmp_path / "c"),
                    "--force",
                ]
            )
            == 2
        )
        assert "--force is incompatible" in capsys.readouterr().err


def record_file(tmp_path: Path) -> Path:
    """A regular file of one store record where a store directory belongs."""
    path = tmp_path / "results.jsonl"
    path.write_bytes(b'{"hash": "0123"}\n')
    return path


class TestStoreCommand:
    def test_verify_a_file_exits_2_and_leaves_it_alone(self, capsys, tmp_path):
        path = record_file(tmp_path)
        assert main(["store", "verify", str(path)]) == 2
        err = capsys.readouterr().err
        assert "result stores are directories" in err
        assert "Traceback" not in err
        assert path.read_bytes() == b'{"hash": "0123"}\n'
        assert sorted(tmp_path.iterdir()) == [path]

    def test_verify_sharded_store(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        assert main(["sweep", "--grid", "smoke", "--store", store]) == 0
        capsys.readouterr()
        assert main(["store", "verify", store]) == 0
        out = capsys.readouterr().out
        assert "store ok — 3 record(s)" in out
        assert "layout: sharded" in out
        assert "quarantined: 0" in out

    def test_verify_corrupt_store_exits_2(self, capsys, tmp_path):
        store = tmp_path / "results"
        store.mkdir()
        (store / "shard-0.jsonl").write_text('{"bad": "record"}\ngarbage\n')
        assert main(["store", "verify", str(store)]) == 2
        err = capsys.readouterr().err
        assert "corrupt store record" in err
        assert "Traceback" not in err

    def test_verify_missing_store_exits_2(self, capsys, tmp_path):
        assert main(["store", "verify", str(tmp_path / "nope")]) == 2
        assert "no store directory" in capsys.readouterr().err

    def test_verify_reports_quarantined_tail(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        assert main(["sweep", "--grid", "smoke", "--store", store]) == 0
        capsys.readouterr()
        shard = sorted(Path(store).glob("shard-*.jsonl"))[0]
        with shard.open("ab") as handle:
            handle.write(b'{"hash": "torn')
        assert main(["store", "verify", store]) == 0
        out = capsys.readouterr().out
        assert "store ok — 3 record(s)" in out
        assert "quarantined: 1" in out

    def test_sweep_into_a_file_exits_2_and_leaves_it_alone(self, capsys, tmp_path):
        path = record_file(tmp_path)
        assert main(["sweep", "--grid", "smoke", "--store", str(path)]) == 2
        err = capsys.readouterr().err
        assert "result stores are directories" in err
        assert "Traceback" not in err
        assert path.read_bytes() == b'{"hash": "0123"}\n'
        assert sorted(tmp_path.iterdir()) == [path]

    def test_there_is_no_migrate_command(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["store", "migrate", "old.jsonl"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'migrate'" in capsys.readouterr().err


class TestVersion:
    def test_version_flag_prints_the_package_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {__version__}"


class TestLabRun:
    def test_placement_composition(self, capsys):
        assert main(["lab", "run", "--platform", "tiny", "--workload", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "Lab run — placement/tiny/tiny/POWER" in out
        assert "middleware backend" in out
        assert "total_energy" in out

    def test_adaptive_defaults_to_greenperf_and_reports_provisioning(self, capsys):
        assert (
            main(
                [
                    "lab", "run",
                    "--family", "adaptive",
                    "--horizon", "1800",
                    "--timeline", str(DATA / "failures.toml"),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "GREENPERF" in out
        assert "provisioning:" in out
        assert "timeline: 6 event(s) injected" in out

    def test_heterogeneity_trace_composition(self, capsys):
        assert (
            main(
                [
                    "lab", "run",
                    "--family", "heterogeneity",
                    "--platform", "types2",
                    "--trace", str(DATA / "mini.swf"),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "point backend" in out
        assert "mean_energy_per_task" in out

    def test_set_overrides_experiment_parameters(self, capsys):
        assert (
            main(
                [
                    "lab", "run",
                    "--platform", "tiny",
                    "--workload", "tiny",
                    "--set", "requests_per_core=1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "requests_per_core=1" in out

    def test_bad_override_exits_cleanly(self, capsys):
        assert main(["lab", "run", "--set", "nonsense"]) == 2
        err = capsys.readouterr().err
        assert "KEY=VALUE" in err
        assert "Traceback" not in err

    def test_non_integer_count_exits_cleanly(self, capsys):
        argv = ["lab", "run", "--family", "placement", "--set", "nodes_per_cluster=1.5"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "nodes_per_cluster must be an integer, got 1.5" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_a_non_finite_base_temperature_exits_cleanly(self, capsys, value):
        argv = ["lab", "run", "--family", "adaptive", "--set", f"base_temperature={value}"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "base_temperature must be finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_a_non_finite_timeline_temperature_exits_cleanly(self, tmp_path, capsys, value):
        path = tmp_path / "heat.toml"
        path.write_text(
            f'[[events]]\nkind = "thermal_excursion"\ntime = 60.0\ntemperature = {value}\n'
        )
        argv = ["lab", "run", "--family", "adaptive", "--timeline", str(path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "heat.toml: event 0: invalid thermal_excursion event" in err
        assert "temperature must be finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv,expected",
        [
            (["lab", "run", "--set", "check_period=300"], "placement parameter"),
            (
                ["lab", "run", "--family", "adaptive", "--set", "nope=1"],
                "adaptive parameter",
            ),
            (
                [
                    "lab", "run",
                    "--family", "heterogeneity",
                    "--platform", "types2",
                    "--set", "nope=1",
                ],
                "heterogeneity parameter",
            ),
        ],
    )
    def test_unknown_override_key_exits_cleanly(self, capsys, argv, expected):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert expected in err
        assert "valid overrides" in err
        assert "Traceback" not in err


class TestServeReplayCommands:
    def test_serve_and_replay_flags_registered(self):
        parser = build_parser()
        args = parser.parse_args(
            ["serve", "--platform", "quick", "--policy", "POWER",
             "--port", "0", "--quota-rate", "2.5", "--queue-limit", "16"]
        )
        assert args.command == "serve"
        assert args.quota_rate == 2.5
        assert args.queue_limit == 16
        args = parser.parse_args(
            ["replay", "trace.swf", "--port", "9999", "--speed", "60",
             "--window", "4", "--repeat", "2", "--limit", "50", "--shutdown"]
        )
        assert args.command == "replay"
        assert args.speed == 60.0
        assert args.shutdown

    def test_serve_rejects_unknown_platform_preset(self, capsys):
        assert main(["serve", "--platform", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown platform preset" in err
        assert "Traceback" not in err

    def test_replay_without_daemon_reports_cleanly(self, capsys):
        import socket

        with socket.socket() as probe:  # a port nothing listens on
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        argv = ["replay", str(DATA / "mini.swf"), "--port", str(port)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "no daemon listening" in err
        assert "repro serve" in err

    def test_replay_negative_limit_exits_2_before_connecting(self, capsys):
        # Port 9 (discard) is never contacted: the count is checked first.
        argv = ["replay", str(DATA / "mini.swf"), "--port", "9", "--limit", "-1"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "limit must be >= 0, got -1" in err
        assert "no daemon listening" not in err

    def test_serve_then_replay_round_trip(self, capsys):
        import socket
        import threading
        import time

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        exit_codes = {}
        daemon = threading.Thread(
            target=lambda: exit_codes.update(
                serve=main(["serve", "--platform", "quick", "--port", str(port)])
            )
        )
        daemon.start()
        try:
            argv = [
                "replay", str(DATA / "mini.swf"),
                "--port", str(port), "--limit", "10", "--shutdown",
            ]
            deadline = time.monotonic() + 30.0
            out = ""
            while True:  # retry until the daemon's socket is up
                exit_codes["replay"] = main(argv)
                if exit_codes["replay"] == 0 or time.monotonic() > deadline:
                    break
                # Drop the connection-refused report (stderr) but keep
                # stdout: the daemon thread may have announced itself.
                out += capsys.readouterr().out
                time.sleep(0.05)
        finally:
            daemon.join(timeout=30.0)
        assert not daemon.is_alive()
        assert exit_codes == {"serve": 0, "replay": 0}
        out += capsys.readouterr().out
        assert "listening on" in out
        assert "shut down cleanly" in out
        assert "accepted" in out and "10" in out
