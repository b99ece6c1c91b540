"""The workload process: set up one batch workload, then measure it.

Started by ``bench/run.py`` with ``src`` on ``PYTHONPATH``.  It prints
``ready`` once the inputs are generated and the first stack is assembled
(the parent times spawn → ready as ``setup_s``), exits there with
``--setup-only``, and otherwise repeats the workload's timed operation
until ``--seconds`` have passed and prints one JSON result line.

With ``--trace 1`` the untraced operations fill the first half of the
budget; then :mod:`tracer` is installed and one more operation runs
traced, giving the per-layer table and the tracing overhead against the
untraced median.  ``--micro`` runs the isolated micro-cases instead.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import hostspeed

#: Fewest timed operations a measured run makes, however short its budget.
MIN_OPS = 3


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(name: str, ops: list[dict]) -> dict[str, float]:
    """``throughput_per_s`` and ``latency_ms``: medians over the run at reference speed.

    Each operation's times are scaled to the reference host speed by the
    :mod:`hostspeed` loop run just before and after it; the unscaled
    medians ride along as detail, not gated.
    """
    median = statistics.median
    if name == "sweep-sharded":
        # Cold passes give the rate, warm passes the latency.
        rates = [(op["outputs"]["executed"], op["measure"]["cold_s"], op["speed"]) for op in ops]
        latencies = [(warm, op["speed"]) for op in ops for warm in op["measure"]["warm_s"]]
    else:
        rates = [(op["measure"]["events"], op["wall"], op["speed"]) for op in ops]
        latencies = [(op["wall"], op["speed"]) for op in ops]
    return {
        "throughput_per_s": median(work / (wall * speed) for work, wall, speed in rates),
        "latency_ms": median(wall * speed for wall, speed in latencies) * 1000.0,
        "wall_throughput_per_s": median(work / wall for work, wall, _ in rates),
        "wall_latency_ms": median(wall for wall, _ in latencies) * 1000.0,
    }


def checks(name: str, ops: list[dict], reference: dict | None) -> dict[str, bool]:
    first = ops[0]["outputs"]
    result = {"repeats_identical": all(op["outputs"] == first for op in ops)}
    if name == "sweep-sharded":
        result["cold_executed_all"] = all(
            op["outputs"]["executed"] == op["outputs"]["scenarios"] for op in ops
        )
        result["warm_all_cached"] = all(op["measure"]["warm_ok"] for op in ops)
        result["nothing_quarantined"] = all(op["measure"]["quarantined"] == 0 for op in ops)
    else:
        from workloads import conserved

        result["conservation"] = all(conserved(op["outputs"]) for op in ops)
    if reference is not None:
        result["matches_reference"] = first == reference
    return result


def timed(workload) -> dict:
    (outputs, measure), wall, speed = hostspeed.timed(workload.run)
    return {"wall": wall, "speed": speed, "outputs": outputs, "measure": measure}


def measure(args) -> dict:
    from workloads import SCALES, WORKLOADS

    scale_name = "smoke" if args.smoke else "full"
    scale = SCALES[args.workload][scale_name]
    workload = WORKLOADS[args.workload](args.seed, scale, Path(args.workdir))
    workload.prepare()
    print("ready", flush=True)
    if args.setup_only:
        return {}

    deadline = time.perf_counter() + args.seconds * (0.5 if args.trace else 1.0)
    ops = [timed(workload)]
    # Read after one operation, so the figure does not depend on how many
    # operations the host's speed let the budget hold.
    rss_mb = peak_rss_mb()
    while len(ops) < MIN_OPS or time.perf_counter() < deadline:
        workload.prepare()
        ops.append(timed(workload))

    from run import reference_for

    reference = reference_for(args.workload, args.seed, scale_name)
    result = {
        "ops": len(ops),
        "outputs": ops[0]["outputs"],
        "checks": checks(args.workload, ops, reference),
        "metrics": end_to_end(args.workload, ops),
        "peak_rss_mb": rss_mb,
    }
    if args.workload == "sweep-sharded":
        result["attempted"] = sum(
            op["outputs"]["scenarios"] * (1 + len(op["measure"]["warm_s"])) for op in ops
        )
    else:
        result["attempted"] = len(ops)

    if args.trace:
        import tracer as tracing

        spans = tracing.Tracer()
        tracing.install(spans)
        workload.prepare()
        spans.active = True
        op = timed(workload)
        spans.active = False
        layers = spans.report(op["wall"])
        layers["trace.overhead_share"] = (
            op["wall"] * op["speed"] / statistics.median(o["wall"] * o["speed"] for o in ops)
            - 1.0
        )
        if args.workload == "sweep-sharded":
            layers["store.bytes_written"] = op["measure"]["bytes_written"]
        result["layers"] = layers
        result["checks"]["traced_identical"] = op["outputs"] == ops[0]["outputs"]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", default=".")
    parser.add_argument("--micro", action="store_true")
    args = parser.parse_args(argv)
    if args.micro:
        from micro import run_all

        result = run_all(Path(args.workdir))
    else:
        result = measure(args)
    if result:
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
