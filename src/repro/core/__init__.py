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
* :mod:`repro.core.rules` — the administrator threshold rules mapping the
  platform status to a candidate-node budget.
* :mod:`repro.core.provisioning` — the provisioning planner: periodic
  status checks, look-ahead on scheduled events, progressive ramp-up/down
  of the candidate set, and integration with the Master Agent.

The energy events the planner reacts to (tariff changes, heat peaks) are
timeline events of :mod:`repro.scenario.events`.
"""

from repro.core.candidate_selection import select_candidate_servers
from repro.core.greenperf import (
    GreenPerfRanking,
    PowerEstimationMode,
    greenperf_of_node,
    greenperf_of_vector,
)
from repro.core.policies import (
    GreenPerfPolicy,
    GreenSchedulerPolicy,
    PerformancePolicy,
    PowerPolicy,
    RandomPolicy,
    policy_by_name,
)
from repro.core.preferences import (
    ProviderPreference,
    UserPreference,
    combine_preferences,
)
from repro.core.provisioning import ProvisioningPlanner, ProvisioningConfig
from repro.core.rules import AdministratorRules, ThresholdRule

__all__ = [
    "select_candidate_servers",
    "GreenPerfRanking",
    "PowerEstimationMode",
    "greenperf_of_node",
    "greenperf_of_vector",
    "GreenPerfPolicy",
    "GreenSchedulerPolicy",
    "PerformancePolicy",
    "PowerPolicy",
    "RandomPolicy",
    "policy_by_name",
    "ProviderPreference",
    "UserPreference",
    "combine_preferences",
    "ProvisioningPlanner",
    "ProvisioningConfig",
    "AdministratorRules",
    "ThresholdRule",
]
