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

from repro.workload.ingest.mapping import (
    DEFAULT_FLOPS_PER_CORE,
    SWFTraceMap,
    load_swf_trace,
    tasks_from_swf,
)
from repro.workload.ingest.swf import (
    SWF_FIELDS,
    SWFJob,
    SWFParseError,
    parse_swf,
    read_swf_header,
)
from repro.workload.ingest.transforms import (
    SampleUsers,
    ScaleArrivals,
    ScaleLoad,
    TimeWindow,
    TraceTransform,
    Truncate,
    apply_transforms,
)

__all__ = [
    "SWF_FIELDS",
    "SWFJob",
    "SWFParseError",
    "parse_swf",
    "read_swf_header",
    "DEFAULT_FLOPS_PER_CORE",
    "SWFTraceMap",
    "tasks_from_swf",
    "load_swf_trace",
    "TraceTransform",
    "TimeWindow",
    "ScaleArrivals",
    "ScaleLoad",
    "SampleUsers",
    "Truncate",
    "apply_transforms",
]
