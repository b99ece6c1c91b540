#!/usr/bin/env python3
"""The benchmark: five seeded workloads, end-to-end metrics, a per-layer table.

One workload, one run (what ``BENCHMARK.json``'s ``command`` runs)::

    python3 bench/run.py --workload fleet-steady --seed 11 --seconds 20 --trace 0

prints the end-to-end metrics (``--trace 1``: the per-layer metrics) as
the last line of standard output, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Every workload, repeated (the summary report)::

    python3 bench/run.py [--seed S] [--repeat N] [--workloads a,b] [--trace] [--smoke]

runs each workload ``N`` times (default 5), each in its own process,
prints every end-to-end metric by name and unit as median and
interquartile range, checks every workload's outputs, and writes one
JSON result file (``--out``).  ``--trace`` adds one traced run per
workload and prints its per-layer table; ``--smoke`` shrinks every
input for a few-second self-test.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

import hostspeed
from procs import BENCH, ROOT, BenchError, Proc

WORKLOAD_NAMES = (
    "fleet-steady", "greenscore-walk", "storm-adaptive", "serve-http", "sweep-sharded",
)
#: Workloads that run to completion in one process (all but the daemon).
BATCH = ("fleet-steady", "greenscore-walk", "storm-adaptive", "sweep-sharded")
DEFAULT_SEED = 11
#: Spawns per untraced run; ``setup_s`` is the median of their spawn → ready,
#: each at the reference host speed (:mod:`hostspeed`).
SETUPS = 7
#: Seconds a child may run beyond its measuring budget before it is killed.
CHILD_GRACE_S = 120.0
#: A traced batch workload leaves at most this share of its wall outside spans.
MAX_UNATTRIBUTED_SHARE = 0.05
#: Tolerance of the layer-sum check: self times + unattributed vs wall.
LAYER_SUM_TOLERANCE = 0.01
DETAIL_PREFIX = "BENCH_DETAIL "


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def reference_for(workload: str, seed: int, scale: str) -> dict | None:
    path = BENCH / "reference" / f"{workload}.json"
    if not path.exists():
        return None
    stored = json.loads(path.read_text())
    return stored.get(scale) if stored["seed"] == seed else None


# -- one workload, one run ---------------------------------------------------------------


def run_batch(args, workdir: Path, setups: int) -> dict:
    """Spawn the workload process ``setups`` times; the last one measures."""
    common = [
        "bench/child.py", "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", str(workdir),
    ] + (["--smoke"] if args.smoke else [])
    setup_times = []
    for index in range(setups):
        last = index == setups - 1
        before = hostspeed.loop_s()
        proc = Proc(common + ([] if last else ["--setup-only"]))
        try:
            _line, elapsed = proc.wait_line("ready", CHILD_GRACE_S)
            setup_times.append((elapsed, hostspeed.speed(before, hostspeed.loop_s())))
            lines = proc.finish(timeout=args.seconds * 2 + CHILD_GRACE_S)
        except BaseException:
            proc.kill()
            raise
    result = json.loads(lines[-1])
    result["setup_s"] = setup_times
    return result


def run_micro(workdir: Path) -> dict:
    proc = Proc(["bench/child.py", "--micro", "--workdir", str(workdir)])
    try:
        return json.loads(proc.finish(timeout=CHILD_GRACE_S)[-1])
    except BaseException:
        proc.kill()
        raise


def named_metrics(workload: str, result: dict, failed: int) -> dict[str, float]:
    """The end-to-end numbers under the names a reader of this workload expects."""
    metrics = result["metrics"]
    throughput, latency_ms = metrics["throughput_per_s"], metrics["latency_ms"]
    named = {
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": statistics.median(wall * speed for wall, speed in result["setup_s"]),
        "ops_failed_share": failed / result["attempted"],
    }
    if workload == "serve-http":
        named.update(serve_rps_w64=throughput, serve_p50_ms=latency_ms)
        named["serve_rps_w1"] = result["detail"]["serve.rps_w1"]
    elif workload == "sweep-sharded":
        named.update(
            sweep_scenarios_per_s=throughput,
            sweep_cached_per_s=result["outputs"]["scenarios"] / (latency_ms / 1000.0),
        )
    else:
        named.update(events_per_s=throughput, wall_s=latency_ms / 1000.0)
    return named


def layer_checks(workload: str, layers: dict) -> dict[str, float | bool]:
    from tracer import layer_sum_error

    error = layer_sum_error(layers)
    share = layers["unattributed_s"] / layers["trace.wall_s"]
    verdict: dict[str, float | bool] = {
        "layer_sum_error": error,
        "unattributed_share": share,
        "layer_sum_ok": error <= LAYER_SUM_TOLERANCE,
    }
    if workload in BATCH:
        verdict["unattributed_ok"] = share <= MAX_UNATTRIBUTED_SHARE
    return verdict


def run_one(args, benchmark: dict) -> int:
    from tracer import WORKLOAD_COUNTERS

    scale = "smoke" if args.smoke else "full"
    # A traced run reports no setup_s, so it sets up once.
    setups = 1 if args.smoke or args.trace else SETUPS
    work_root = BENCH / "_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        if args.workload == "serve-http":
            from loadgen import SCALES, run_serve

            result = run_serve(
                args.seed, args.seconds, bool(args.trace), SCALES[scale],
                setups, reference_for(args.workload, args.seed, scale),
            )
        else:
            result = run_batch(args, workdir, setups)
        if args.trace:
            result["layers"].update(run_micro(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checks = result["checks"]
    failed = result.get("failed_ops", 0) + sum(not ok for ok in checks.values())
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": scale,
        "ops": result["ops"],
        "setup_s": result["setup_s"],
        "outputs": result["outputs"],
        "checks": checks,
        "metrics": result["metrics"],
        "named": named_metrics(args.workload, result, failed),
    }
    if args.trace:
        layers = result["layers"]
        for name in WORKLOAD_COUNTERS:
            layers.setdefault(name, 0.0)
        detail["layers"] = layers
        detail["layer_checks"] = layer_checks(args.workload, layers)
        values = {row["name"]: (layers[row["name"]], row["unit"])
                  for row in benchmark["per_layer"]}
    else:
        named = detail["named"]
        measured = dict(result["metrics"], peak_rss_mb=named["peak_rss_mb"],
                        setup_s=named["setup_s"])
        values = {row["name"]: (measured[row["name"]], row["unit"])
                  for row in benchmark["end_to_end"]}
    print(DETAIL_PREFIX + json.dumps(detail), flush=True)
    print(json.dumps({
        "correct": all(checks.values()) and not result.get("failed_ops", 0),
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()},
    }), flush=True)
    return 0


# -- every workload, repeated --------------------------------------------------------------


def invoke(workload: str, args, trace: int) -> tuple[dict, dict]:
    """One run of one workload in its own process: (detail, result line)."""
    command = [
        "bench/run.py", "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ] + (["--smoke"] if args.smoke else [])
    proc = Proc(command)
    try:
        lines = proc.finish(timeout=args.seconds * 3 + 3 * CHILD_GRACE_S)
    except BaseException:
        proc.kill()
        raise
    detail = next(json.loads(line[len(DETAIL_PREFIX):])
                  for line in lines if line.startswith(DETAIL_PREFIX))
    return detail, json.loads(lines[-1])


def spread(values: list[float]) -> tuple[float, float]:
    """Median and interquartile range as a share of the median."""
    median = statistics.median(values)
    if len(values) < 2 or not median:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / abs(median)


def summarize(runs: list[tuple[dict, dict]], benchmark: dict) -> dict:
    bounds = {row["name"]: row for row in benchmark["end_to_end"]}
    metrics = {}
    for name, row in bounds.items():
        values = [line["metrics"][name]["value"] for _, line in runs]
        median, iqr = spread(values)
        metrics[name] = {"median": median, "iqr_share": iqr, "unit": row["unit"],
                         "bound": row["bound"], "values": values}
    named = {}
    for name in runs[0][0]["named"]:
        named[name] = statistics.median(detail["named"][name] for detail, _ in runs)
    attempted = sum(line["attempted"] for _, line in runs)
    failed = sum(line["failed"] for _, line in runs)
    checks = {}
    for detail, _ in runs:
        for check, ok in detail["checks"].items():
            checks[check] = checks.get(check, True) and ok
    checks["repeats_identical"] = checks.get("repeats_identical", True) and all(
        detail["outputs"] == runs[0][0]["outputs"] for detail, _ in runs
    )
    return {
        "metrics": metrics,
        "named": named,
        "checks": checks,
        "outputs": runs[0][0]["outputs"],
        "attempted": attempted,
        "failed": failed,
        "ops_failed_share": failed / attempted,
    }


def print_summary(workload: str, summary: dict) -> None:
    print(f"\n{workload}")
    for name, row in summary["metrics"].items():
        print(f"  {name:<18} {row['median']:>14.6g} {row['unit']:<5} "
              f"IQR {row['iqr_share']:6.2%}  (bound {row['bound']:.0%})")
    for name, value in summary["named"].items():
        print(f"  = {name:<22} {value:>12.6g}")
    failing = [name for name, ok in summary["checks"].items() if not ok]
    print(f"  checks: {'all pass' if not failing else 'FAILED ' + ', '.join(failing)}"
          f"; ops_failed_share {summary['ops_failed_share']:.3g}")


def print_layers(workload: str, traced: dict) -> None:
    from tracer import SPANS

    layers = traced["layers"]
    wall = layers["trace.wall_s"]
    print(f"\n{workload} — traced run, {wall:.3f} s wall")
    print(f"  {'span':<26} {'layer':<22} {'calls':>10} {'self s':>10} {'share':>7}")
    for span in SPANS:
        calls = layers[f"{span.name}.calls"]
        self_s = layers[f"{span.name}.self_s"]
        if calls:
            print(f"  {span.name:<26} {span.layer:<22} {calls:>10,} {self_s:>10.4f} "
                  f"{self_s / wall:>7.1%}")
    print(f"  {'unattributed_s':<26} {'':<22} {'':>10} {layers['unattributed_s']:>10.4f} "
          f"{layers['unattributed_s'] / wall:>7.1%}")
    checks = traced["layer_checks"]
    print(f"  layer sum error {checks['layer_sum_error']:.2e} "
          f"({'ok' if checks['layer_sum_ok'] else 'FAILED'})"
          + (f"; unattributed {checks['unattributed_share']:.1%} "
             f"({'ok' if checks['unattributed_ok'] else 'FAILED'})"
             if "unattributed_ok" in checks else "")
          + f"; trace.overhead_share {layers['trace.overhead_share']:+.1%}")
    for name, value in layers.items():
        if not name.endswith((".calls", ".self_s")) and name not in (
            "unattributed_s", "trace.wall_s", "trace.overhead_share"
        ):
            print(f"  {name:<32} {value:>12.6g}")


def run_all(args, benchmark: dict) -> int:
    names = WORKLOAD_NAMES if args.workloads is None else tuple(args.workloads.split(","))
    unknown = sorted(set(names) - set(WORKLOAD_NAMES))
    if unknown:
        raise SystemExit(f"unknown workloads {unknown}; choose from {WORKLOAD_NAMES}")
    report = {"seed": args.seed, "repeat": args.repeat, "seconds": args.seconds,
              "scale": "smoke" if args.smoke else "full", "workloads": {}}
    ok = True
    for workload in names:
        runs = [invoke(workload, args, 0) for _ in range(args.repeat)]
        summary = summarize(runs, benchmark)
        print_summary(workload, summary)
        ok = ok and all(summary["checks"].values()) and summary["failed"] == 0
        if args.trace:
            detail, line = invoke(workload, args, 1)
            summary["traced"] = {
                "layers": detail["layers"],
                "layer_checks": detail["layer_checks"],
                "correct": line["correct"],
            }
            print_layers(workload, summary["traced"])
            ok = ok and line["correct"] and all(
                value for key, value in detail["layer_checks"].items() if key.endswith("_ok")
            )
        report["workloads"][workload] = summary
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {out.relative_to(ROOT) if out.is_relative_to(ROOT) else out}"
          f" — {'every check passed' if ok else 'SOME CHECKS FAILED'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload once (the benchmark command)")
    parser.add_argument("--workloads", help="comma-separated subset (default: all five)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring budget per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for self-tests")
    parser.add_argument("--out", default=str(BENCH / "out" / "result.json"))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("bench/run.py: no src/repro next to bench/; run from a repository checkout",
              file=sys.stderr)
        return 2
    benchmark = load_benchmark()
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(benchmark["run_seconds"])
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    try:
        if args.workload is not None:
            return run_one(args, benchmark)
        return run_all(args, benchmark)
    except BenchError as error:
        print(f"bench/run.py: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
