"""Infrastructure substrate: servers, clusters, power, heat and electricity.

The paper evaluates its scheduler on Grid'5000 nodes instrumented with
external wattmeters.  This package provides the equivalent simulated
substrate: heterogeneous server models exposing exactly the observables the
scheduler consumes (FLOPS, core count, idle/peak/boot power, boot time),
event-driven energy accounting, a thermal environment and an electricity
tariff schedule.
"""

from repro import lazy_exports

#: Public name -> the module defining it, imported on first access.
_EXPORTS = {
    "Cluster": "repro.infrastructure.cluster",
    "ElectricityCostSchedule": "repro.infrastructure.electricity",
    "TariffPeriod": "repro.infrastructure.electricity",
    "REGULAR_COST": "repro.infrastructure.electricity",
    "OFF_PEAK_1_COST": "repro.infrastructure.electricity",
    "OFF_PEAK_2_COST": "repro.infrastructure.electricity",
    "Node": "repro.infrastructure.node",
    "NodeSpec": "repro.infrastructure.node",
    "NodeState": "repro.infrastructure.node",
    "Platform": "repro.infrastructure.platform",
    "grid5000_placement_platform": "repro.infrastructure.platform",
    "simulated_cluster_specs": "repro.infrastructure.platform",
    "LinearPowerModel": "repro.infrastructure.power_model",
    "ThermalEnvironment": "repro.infrastructure.thermal",
    "ThermalEvent": "repro.infrastructure.thermal",
    "EnergyAccountant": "repro.infrastructure.energy",
    "EnergyReadout": "repro.infrastructure.energy",
    "PowerSegment": "repro.infrastructure.energy",
    "SegmentEnergyLog": "repro.infrastructure.energy",
}

__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
