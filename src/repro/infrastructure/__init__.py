"""Infrastructure substrate: servers, clusters, power, heat and electricity.

The paper evaluates its scheduler on Grid'5000 nodes instrumented with
external wattmeters.  This package provides the equivalent simulated
substrate: heterogeneous server models exposing exactly the observables the
scheduler consumes (FLOPS, core count, idle/peak/boot power, boot time),
event-driven energy accounting, a thermal environment and an electricity
tariff schedule.
"""

from repro.infrastructure.cluster import Cluster
from repro.infrastructure.electricity import (
    ElectricityCostSchedule,
    TariffPeriod,
    OFF_PEAK_1_COST,
    OFF_PEAK_2_COST,
    REGULAR_COST,
)
from repro.infrastructure.energy import (
    EnergyAccountant,
    EnergyReadout,
    PowerSegment,
    SegmentEnergyLog,
)
from repro.infrastructure.node import Node, NodeSpec, NodeState
from repro.infrastructure.platform import (
    Platform,
    grid5000_placement_platform,
    simulated_cluster_specs,
)
from repro.infrastructure.power_model import LinearPowerModel
from repro.infrastructure.thermal import ThermalEnvironment, ThermalEvent

__all__ = [
    "Cluster",
    "ElectricityCostSchedule",
    "TariffPeriod",
    "REGULAR_COST",
    "OFF_PEAK_1_COST",
    "OFF_PEAK_2_COST",
    "Node",
    "NodeSpec",
    "NodeState",
    "Platform",
    "grid5000_placement_platform",
    "simulated_cluster_specs",
    "LinearPowerModel",
    "ThermalEnvironment",
    "ThermalEvent",
    "EnergyAccountant",
    "EnergyReadout",
    "PowerSegment",
    "SegmentEnergyLog",
]
