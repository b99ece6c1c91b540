"""The queue-family experiment: batch scheduling of one workload four ways.

The paper's middleware places every request the instant it arrives; a
batch queue instead *plans* — it may hold a wide job, promise it a
start, and slide smaller jobs into the gap.  The queue family compares the
four queue policies of :mod:`repro.policy.queue` (FCFS, EASY backfill,
conservative backfill, DRF fair share) on the same job stream and the
same aggregated capacity, the queue-side counterpart of the placement
experiment's Table II:

* **makespan** — backfilling beats FCFS whenever a wide job would have
  head-blocked runnable small jobs;
* **mean wait** — DRF trades a little packing efficiency for per-user
  fairness;
* **energy** — the coarse capacity-integral model of
  :func:`repro.lab.observe.queue_energy`, comparable across policies
  because all four see identical capacity.

The comparison is :func:`repro.runner.grids.queue_grid`; each of its
specs resolves here into a session on
:class:`~repro.lab.session.LabSession`'s queue backend.  A replayed SWF
log is the interesting case because real traces carry the
requested-runtime and user fields the planners feed on.
"""

from __future__ import annotations

from repro.experiments.placement import placement_components
from repro.lab.compat import reject_unused
from repro.lab.components import PolicySource
from repro.lab.session import LabSession
from repro.runner.spec import ScenarioSpec


def queue_session(spec: ScenarioSpec) -> LabSession:
    """Resolve a queue-policy spec into a lab session.

    The platform size and the job stream come from the spec's presets
    exactly as for the placement experiment — synthetic burst +
    continuous by default, an SWF/CSV replay with ``workload="trace"``.
    The ``queue_cores`` override caps the scheduled capacity below the
    platform's core count (e.g. a trace's native ``MaxProcs``) so queues
    actually form; ``timeline`` injects ``NodeFailure``/``NodeRecovery``
    capacity events and ``horizon`` cuts observation.

    >>> queue_session(ScenarioSpec(experiment="queue", policy="EASY")).backend
    'queue'
    """
    # Queue policies are deterministic and preference-free; a seed or
    # preference axis would sweep identical schedules under new labels.
    reject_unused(spec, preference=0.0, seed=0)
    params, platform, workload = placement_components(spec, queue_cores=None)
    return LabSession(
        platform=platform,
        workload=workload,
        policy=PolicySource(spec.policy, family="queue"),
        timeline=spec.timeline,
        horizon=spec.horizon,
        sample_period=params["sample_period"],
        queue_cores=params["queue_cores"],
    )
