"""End-to-end CLI tests for the trace pipeline (convert → stats → sweep)."""

from pathlib import Path

import pytest

from repro.cli import build_parser, main

FIXTURE = Path(__file__).resolve().parent / "data" / "mini.swf"


class TestTraceParser:
    def test_convert_flags(self):
        args = build_parser().parse_args(
            [
                "trace", "convert", "in.swf", "out.csv",
                "--flops-per-core", "2e9",
                "--client-by", "group",
                "--service-by", "partition",
                "--window", "0", "100",
                "--sample-users", "0.5",
                "--sample-seed", "3",
                "--scale-arrivals", "0.5",
                "--scale-load", "2.0",
                "--truncate", "10",
            ]
        )
        assert args.command == "trace"
        assert args.trace_command == "convert"
        assert args.flops_per_core == 2e9
        assert args.window == [0.0, 100.0]
        assert args.truncate == 10

    def test_trace_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace"])

    def test_sweep_accepts_trace_flag(self):
        args = build_parser().parse_args(["sweep", "--trace", "t.csv"])
        assert args.trace == "t.csv"
        assert args.grid is None


class TestTraceCommands:
    def test_convert_round_trips_fixture(self, tmp_path, capsys):
        out = tmp_path / "mini.csv"
        assert main(["trace", "convert", str(FIXTURE), str(out)]) == 0
        printed = capsys.readouterr().out
        assert "22 task(s)" in printed
        assert "2 unplayable job(s) skipped" in printed
        assert out.exists()

    def test_convert_applies_transforms(self, tmp_path, capsys):
        out = tmp_path / "mini.csv"
        assert (
            main(
                [
                    "trace", "convert", str(FIXTURE), str(out),
                    "--window", "0", "200", "--truncate", "5",
                ]
            )
            == 0
        )
        assert "5 task(s)" in capsys.readouterr().out

    def test_convert_missing_input_exits_2(self, tmp_path, capsys):
        code = main(["trace", "convert", str(tmp_path / "no.swf"), "o.csv"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_convert_empty_result_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.swf"
        empty.write_text("; MaxJobs: 0\n", encoding="utf-8")
        assert main(["trace", "convert", str(empty), str(tmp_path / "o.csv")]) == 2
        assert "no replayable job" in capsys.readouterr().err

    def test_stats_on_swf_and_csv_agree(self, tmp_path, capsys):
        out = tmp_path / "mini.csv"
        main(["trace", "convert", str(FIXTURE), str(out)])
        capsys.readouterr()
        assert main(["trace", "stats", str(FIXTURE)]) == 0
        swf_stats = capsys.readouterr().out
        assert main(["trace", "stats", str(out)]) == 0
        csv_stats = capsys.readouterr().out
        assert "tasks" in swf_stats and "22" in swf_stats
        assert "22" in csv_stats
        assert "(swf)" in swf_stats and "(csv)" in csv_stats

    def test_inspect_shows_header_and_records(self, capsys):
        assert main(["trace", "inspect", str(FIXTURE), "--jobs", "3"]) == 0
        printed = capsys.readouterr().out
        assert "MaxJobs: 24" in printed
        assert "First 3 job record(s):" in printed

    def test_inspect_csv_trace(self, tmp_path, capsys):
        out = tmp_path / "mini.csv"
        main(["trace", "convert", str(FIXTURE), str(out)])
        capsys.readouterr()
        assert main(["trace", "inspect", str(out), "--jobs", "2"]) == 0
        printed = capsys.readouterr().out
        assert "First 2 of 22 task(s):" in printed

    def test_malformed_swf_exits_2_with_context(self, tmp_path, capsys):
        bad = tmp_path / "bad.swf"
        bad.write_text("1 0 0 10 1\n2 5\n", encoding="utf-8")
        assert main(["trace", "stats", str(bad)]) == 2
        assert "bad.swf:2" in capsys.readouterr().err


class TestTraceSweep:
    def test_fixture_drives_cached_two_by_two_sweep(self, tmp_path, capsys):
        """The acceptance path: convert → 2×2 sweep → 100% cache hit."""
        trace = tmp_path / "mini.csv"
        store = tmp_path / "store.jsonl"
        assert main(["trace", "convert", str(FIXTURE), str(trace)]) == 0
        capsys.readouterr()

        assert main(["sweep", "--trace", str(trace), "--store", str(store)]) == 0
        first = capsys.readouterr().out
        assert "4 scenarios — 4 executed, 0 cached" in first

        assert main(["sweep", "--trace", str(trace), "--store", str(store)]) == 0
        second = capsys.readouterr().out
        assert "4 scenarios — 0 executed, 4 cached" in second

    def test_sweep_grid_and_trace_are_exclusive(self, tmp_path, capsys):
        trace = tmp_path / "mini.csv"
        main(["trace", "convert", str(FIXTURE), str(trace)])
        capsys.readouterr()
        assert main(["sweep", "--grid", "smoke", "--trace", str(trace)]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_sweep_missing_trace_exits_2(self, tmp_path, capsys):
        assert main(["sweep", "--trace", str(tmp_path / "gone.csv")]) == 2
        assert "cannot hash trace file" in capsys.readouterr().err

    def test_sweep_list_mentions_trace_option(self, capsys):
        assert main(["sweep", "--list"]) == 0
        assert "--trace FILE" in capsys.readouterr().out


class TestInspectFormatting:
    def test_large_ids_and_times_print_exactly(self, tmp_path, capsys):
        log = tmp_path / "big.swf"
        log.write_text("1234567 31536000 0 10 1\n", encoding="utf-8")
        assert main(["trace", "inspect", str(log)]) == 0
        printed = capsys.readouterr().out
        assert "1234567" in printed
        assert "31536000" in printed
        assert "e+" not in printed

    def test_inspect_jobs_zero_shows_no_records(self, capsys):
        assert main(["trace", "inspect", str(FIXTURE), "--jobs", "0"]) == 0
        assert "First 0 job record(s):" in capsys.readouterr().out

    @pytest.mark.parametrize("suffix", [".swf", ".csv"])
    def test_inspect_negative_jobs_exits_2(self, suffix, tmp_path, capsys):
        trace = FIXTURE
        if suffix == ".csv":
            trace = tmp_path / "mini.csv"
            main(["trace", "convert", str(FIXTURE), str(trace)])
            capsys.readouterr()
        assert main(["trace", "inspect", str(trace), "--jobs", "-2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--jobs must be >= 0, got -2" in captured.err
