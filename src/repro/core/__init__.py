"""The paper's contribution: middleware-level dynamic green scheduling.

* :mod:`repro.core.greenperf` — the GreenPerf metric (power / performance)
  and server rankings built from estimation vectors.
* :mod:`repro.core.preferences` — provider and user preference models
  (Equations 1–3).
* :mod:`repro.core.scoring` — the completion-time, energy and score
  kernel for active and inactive servers (Equations 4–6).
* :mod:`repro.core.candidate_selection` — the greedy power-capped
  candidate-server selection (Algorithm 1).
* :mod:`repro.core.policies` — the plug-in schedulers compared in the
  evaluation (POWER, PERFORMANCE, RANDOM, GreenPerf, score-based green
  scheduler).
* :mod:`repro.core.provisioning` — the provisioning planner: the
  administrator thresholds mapping the platform status to a candidate-node
  budget, periodic status checks, look-ahead on scheduled events,
  progressive ramp-up/down of the candidate set, and integration with the
  Master Agent.

The energy events the planner reacts to (tariff changes, heat peaks) are
timeline events of :mod:`repro.scenario.events`.
"""

from repro import lazy_exports

#: Public name -> the module defining it, imported on first access.
_EXPORTS = {
    "select_candidate_servers": "repro.core.candidate_selection",
    "GreenPerfRanking": "repro.core.greenperf",
    "PowerEstimationMode": "repro.core.greenperf",
    "greenperf_of_node": "repro.core.greenperf",
    "greenperf_of_vector": "repro.core.greenperf",
    "GreenPerfPolicy": "repro.core.policies",
    "GreenSchedulerPolicy": "repro.core.policies",
    "PerformancePolicy": "repro.core.policies",
    "PowerPolicy": "repro.core.policies",
    "RandomPolicy": "repro.core.policies",
    "policy_by_name": "repro.core.policies",
    "ProviderPreference": "repro.core.preferences",
    "UserPreference": "repro.core.preferences",
    "combine_preferences": "repro.core.preferences",
    "ProvisioningPlanner": "repro.core.provisioning",
    "ProvisioningConfig": "repro.core.provisioning",
}

__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
