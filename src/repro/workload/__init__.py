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

from repro import lazy_exports

#: Public name -> the module defining it, imported on first access.
_EXPORTS = {
    "BurstThenContinuousWorkload": "repro.workload.generator",
    "PoissonWorkload": "repro.workload.generator",
    "WorkloadGenerator": "repro.workload.generator",
    "TraceWorkload": "repro.workload.traces",
    "load_trace": "repro.workload.traces",
    "save_trace": "repro.workload.traces",
    "SWFJob": "repro.workload.ingest.swf",
    "SWFParseError": "repro.workload.ingest.swf",
    "SWFTraceMap": "repro.workload.ingest.mapping",
    "load_swf_trace": "repro.workload.ingest.mapping",
    "parse_swf": "repro.workload.ingest.swf",
    "read_swf_header": "repro.workload.ingest.swf",
}

__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
