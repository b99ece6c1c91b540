"""repro.serve — the long-lived placement service.

The serving layer turns the reproduction's middleware stack into a
daemon: :class:`ServeState` keeps one assembled platform + hierarchy
resident and advances it on a virtual clock, :class:`PlacementService`
exposes it over HTTP/JSON with per-tenant admission control and
micro-batched scoring, and :func:`replay_trace` fires recorded traces at
it in real or accelerated time.  See ``docs/SERVING.md``.
"""

from repro import lazy_exports

#: Public name -> the module defining it, imported on first access.
_EXPORTS = {
    "ADMITTED": "repro.serve.admission",
    "REJECTED": "repro.serve.admission",
    "SHED": "repro.serve.admission",
    "AdmissionController": "repro.serve.admission",
    "AdmissionDecision": "repro.serve.admission",
    "TokenBucket": "repro.serve.admission",
    "ProtocolError": "repro.serve.protocol",
    "SubmitRequest": "repro.serve.protocol",
    "SubmitResponse": "repro.serve.protocol",
    "ReplayReport": "repro.serve.replay",
    "load_trace_tasks": "repro.serve.replay",
    "replay_tasks": "repro.serve.replay",
    "replay_trace": "repro.serve.replay",
    "PlacementService": "repro.serve.service",
    "PlacementDecision": "repro.serve.state",
    "ServeState": "repro.serve.state",
}

__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
