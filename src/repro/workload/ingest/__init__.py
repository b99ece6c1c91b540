"""Real-trace workload ingestion.

Turns production HPC logs in the Standard Workload Format (SWF, the
Parallel Workloads Archive format) into replayable
:class:`~repro.simulation.task.Task` streams:

* :mod:`repro.workload.ingest.swf` — streaming parser: header
  directives, 18-field job records, ``-1``/missing-field tolerance;
* :mod:`repro.workload.ingest.mapping` — field mapping onto the
  simulation's task model (runtime × cores → FLOP via a node-speed
  anchor, user/group → client, queue/partition → service, pluggable
  preference rules);
* :mod:`repro.workload.ingest.transforms` — composable trace transforms
  (:class:`TimeWindow`, :class:`ScaleArrivals`, :class:`ScaleLoad`,
  :class:`SampleUsers`, :class:`Truncate`) so one log yields many
  scenarios.

The ``repro trace`` CLI drives this pipeline end-to-end; the format and
mapping are specified in ``docs/TRACE_FORMAT.md``.
"""

from repro import lazy_exports

#: Public name -> the module defining it, imported on first access.
_EXPORTS = {
    "SWF_FIELDS": "repro.workload.ingest.swf",
    "SWFJob": "repro.workload.ingest.swf",
    "SWFParseError": "repro.workload.ingest.swf",
    "parse_swf": "repro.workload.ingest.swf",
    "read_swf_header": "repro.workload.ingest.swf",
    "DEFAULT_FLOPS_PER_CORE": "repro.workload.ingest.mapping",
    "SWFTraceMap": "repro.workload.ingest.mapping",
    "tasks_from_swf": "repro.workload.ingest.mapping",
    "load_swf_trace": "repro.workload.ingest.mapping",
    "TraceTransform": "repro.workload.ingest.transforms",
    "TimeWindow": "repro.workload.ingest.transforms",
    "ScaleArrivals": "repro.workload.ingest.transforms",
    "ScaleLoad": "repro.workload.ingest.transforms",
    "SampleUsers": "repro.workload.ingest.transforms",
    "Truncate": "repro.workload.ingest.transforms",
    "apply_transforms": "repro.workload.ingest.transforms",
}

__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
