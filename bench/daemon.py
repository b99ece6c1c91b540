"""The placement daemon under test: ``repro serve`` in this process.

Runs the real CLI command (``repro serve --platform paper --policy
GREENPERF --port 0``), which announces ``repro serve: listening on
HOST:PORT`` once the stack is assembled and the socket is bound.  After
``POST /shutdown`` it prints one JSON line: the daemon's peak RSS and,
with ``--trace 1``, the per-layer table of the window between listening
and shutdown.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

COMMAND = ["serve", "--platform", "paper", "--policy", "GREENPERF", "--port", "0"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args(argv)

    spans = None
    if args.trace:
        import tracer as tracing

        spans = tracing.Tracer()
        tracing.install(spans)

    from repro.cli import main as repro_main
    from repro.serve.service import PlacementService

    window: dict[str, float] = {}
    start, stop = PlacementService.start, PlacementService.stop

    async def start_then_trace(self):
        await start(self)
        window["ready"] = time.perf_counter()
        if spans is not None:
            spans.active = True

    async def untrace_then_stop(self):
        if spans is not None and spans.active:
            spans.active = False
            window["end"] = time.perf_counter()
        await stop(self)

    PlacementService.start = start_then_trace
    PlacementService.stop = untrace_then_stop
    code = repro_main(COMMAND)
    report: dict = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    }
    if spans is not None:
        report["layers"] = spans.report(window["end"] - window["ready"])
    print(json.dumps(report), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
