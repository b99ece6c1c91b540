"""Workload generation and ingestion.

Reproduces the request pattern of the paper's placement experiment: a
burst phase where the client submits ``r`` simultaneous requests followed
by a continuous phase at an arbitrary rate of two requests per second
(Section IV-A), plus more general arrival processes used by the additional
examples and ablations.

Beyond the synthetic generators, :mod:`repro.workload.traces` replays
recorded task streams from CSV files and :mod:`repro.workload.ingest`
converts real HPC logs in the Standard Workload Format (Parallel
Workloads Archive) into those streams — see ``docs/TRACE_FORMAT.md``.
"""

from repro.workload.generator import (
    BurstThenContinuousWorkload,
    PoissonWorkload,
    WorkloadGenerator,
)
from repro.workload.ingest import (
    SWFJob,
    SWFParseError,
    SWFTraceMap,
    load_swf_trace,
    parse_swf,
    read_swf_header,
)
from repro.workload.traces import TraceWorkload, load_trace, save_trace

__all__ = [
    "BurstThenContinuousWorkload",
    "PoissonWorkload",
    "WorkloadGenerator",
    "TraceWorkload",
    "load_trace",
    "save_trace",
    "SWFJob",
    "SWFParseError",
    "SWFTraceMap",
    "load_swf_trace",
    "parse_swf",
    "read_swf_header",
]
