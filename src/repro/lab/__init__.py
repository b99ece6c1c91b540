"""repro.lab — one composable assembly path for every experiment.

The paper's system is one middleware (DIET hierarchy + green plug-in
scheduler + adaptive provisioning) observed through different
experiments.  This package is the layer that makes that literal in code:
a :class:`LabSession` is built from orthogonal components — platform
source, workload source (synthetic generator or ingested trace),
scheduling policy, optional provisioning, optional event timeline,
energy/trace modes — validates the combination once, assembles
hierarchy + driver + scenario application in one place, and returns a
uniform :class:`LabResult` that each experiment family post-processes
into its figures.

Modules
-------
``components``
    The typed axes: :class:`PlatformSource`, :class:`WorkloadSource`,
    :class:`PolicySource`, ``ProvisioningSource`` (the planner's
    :class:`~repro.core.provisioning.ProvisioningConfig`),
    :func:`resolve_timeline`.
``session``
    :class:`LabSession` — validation and the three execution backends
    (full middleware stack; engine-less single-task point study; batch
    queue scheduling), plus the resident state a served session opens.
``observe``
    :class:`LabResult` plus the shared metric/figure extraction.
``compat``
    :func:`session_for_spec` / :func:`execute_spec` — the declarative
    :class:`~repro.runner.spec.ScenarioSpec` surface, dispatching each
    spec to its experiment family's one resolver, and
    :func:`~repro.lab.compat.resolve_parameters`, the preset + override
    merge every resolver shares.
"""

from repro import lazy_exports

#: Public name -> the module defining it, imported on first access.
_EXPORTS = {
    "LabError": "repro.lab.components",
    "LabResult": "repro.lab.observe",
    "LabSession": "repro.lab.session",
    "PlatformSource": "repro.lab.components",
    "PointSummary": "repro.lab.observe",
    "PolicySource": "repro.lab.components",
    "ProvisioningSource": "repro.lab.components",
    "WorkloadSource": "repro.lab.components",
    "resolve_timeline": "repro.lab.components",
}

__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
