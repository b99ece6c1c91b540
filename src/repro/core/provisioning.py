"""Adaptive resource provisioning (Section III-C, evaluated in Section IV-C).

The :class:`ProvisioningPlanner` is the piece that makes the scheduling
*dynamic*:

* every ``check_period`` seconds (paper: 10 minutes) it reads the platform
  status — temperature and electricity cost — "with the ability to get
  information about the scheduled events occurring at t + 20" minutes
  (``lookahead``);
* it looks the status up in the administrator thresholds of Section IV-C
  (:func:`provisioning_target`) to obtain the target number of
  *candidate nodes*;
* it moves the current candidate set towards the target progressively
  (``ramp_up_step`` / ``ramp_down_step`` nodes per check), because
  simultaneous starts would cause heat peaks and abrupt shut-downs would
  kill running work;
* candidates are always chosen in GreenPerf order: the most
  energy-efficient nodes are enabled first and disabled last;
* it installs its candidate set on the Master Agent (a fresh
  ``frozenset`` at every change) so that only candidate nodes are eligible
  for election, and (optionally) powers de-provisioned nodes off once
  they are idle;
* every check appends a :class:`PlanningEntry` to the provisioning
  planning, the status samples of the paper's shared planning file (Fig. 8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.core.greenperf import IncrementalGreenPerfOrder
from repro.infrastructure.electricity import ElectricityCostSchedule
from repro.infrastructure.node import Node, NodeState
from repro.infrastructure.platform import Platform
from repro.infrastructure.thermal import TEMPERATURE_THRESHOLD, ThermalEnvironment
from repro.middleware.agents import MasterAgent
from repro.middleware.sed import ServerDaemon
from repro.simulation.engine import SimulationEngine
from repro.simulation.trace import ExecutionTrace
from repro.util.validation import ensure_non_negative, ensure_positive

#: Section IV-C's administrator thresholds: above
#: :data:`~repro.infrastructure.thermal.TEMPERATURE_THRESHOLD` °C the
#: overheating row keeps a fifth of all nodes, whatever the tariff; once
#: the temperature is back in range the cost rows apply again (the
#: paper's fifth behaviour).
_OVERHEATING = ("overheating", 0.20)

#: The cost rows, first match wins: a cost above the bound keeps that
#: fraction of all nodes.  The last row takes every other cost, so the
#: table covers the whole of ``[0, 1]``.
_COST_THRESHOLDS = (
    ("regular-tariff", 0.8, 0.40),
    ("off-peak-1", 0.5, 0.70),
    ("off-peak-2", -math.inf, 1.00),
)


def provisioning_target(temperature: float, cost: float, total_nodes: int) -> tuple[str, int]:
    """The threshold row a status falls in: ``(label, candidate count)``.

    The count is the floor of the row's fraction of ``total_nodes`` (20 %
    of 12 nodes keeps 2, 70 % keeps 8: the counts of the paper's Figure 9
    narrative), and at least one node of a non-empty platform.

    >>> provisioning_target(30.0, 0.3, 12)
    ('overheating', 2)
    >>> provisioning_target(20.0, 0.8, 12)
    ('off-peak-1', 8)
    """
    if temperature > TEMPERATURE_THRESHOLD:
        label, fraction = _OVERHEATING
    else:
        for label, above, fraction in _COST_THRESHOLDS:
            if cost > above:
                break
    return label, max(int(total_nodes * fraction), min(total_nodes, 1))


@dataclass(frozen=True)
class PlanningEntry:
    """One timestamped sample of the platform status.

    Attributes mirror the tags of the paper's planning file (Fig. 8):
    ``timestamp`` (seconds), ``temperature`` (degrees Celsius),
    ``candidates`` (number of candidate nodes available for computation)
    and ``electricity_cost`` (ratio of the current cost to the theoretical
    maximum cost, in ``[0, 1]``).
    """

    timestamp: float
    temperature: float
    candidates: int
    electricity_cost: float


@dataclass(frozen=True)
class ProvisioningConfig:
    """Tunable parameters of the provisioning planner, checked on construction.

    Defaults reproduce the paper's adaptive experiment: a 10-minute check
    period, a 20-minute look-ahead on scheduled events, ramping of a few
    nodes per check in each direction, and de-provisioned nodes powered
    off once idle.  :mod:`repro.lab` names this class
    ``ProvisioningSource``, a session's provisioning axis.

    >>> ProvisioningConfig(ramp_up_step=0)
    Traceback (most recent call last):
    ...
    ValueError: ramp_up_step must be >= 1, got 0
    """

    check_period: float = 600.0
    lookahead: float = 1200.0
    ramp_up_step: int = 2
    ramp_down_step: int = 4
    manage_power: bool = True

    def __post_init__(self) -> None:
        ensure_positive(self.check_period, "check_period")
        ensure_non_negative(self.lookahead, "lookahead")
        if self.ramp_up_step < 1:
            raise ValueError(f"ramp_up_step must be >= 1, got {self.ramp_up_step}")
        if self.ramp_down_step < 1:
            raise ValueError(f"ramp_down_step must be >= 1, got {self.ramp_down_step}")


class ProvisioningPlanner:
    """Adapts the candidate-node set to energy-related events."""

    def __init__(
        self,
        platform: Platform,
        master: MasterAgent,
        electricity: ElectricityCostSchedule,
        thermal: ThermalEnvironment,
        *,
        seds: Mapping[str, ServerDaemon] | None = None,
        engine: SimulationEngine | None = None,
        trace: ExecutionTrace | None = None,
        config: ProvisioningConfig | None = None,
    ) -> None:
        self.platform = platform
        self.master = master
        self.electricity = electricity
        self.thermal = thermal
        self.seds = dict(seds) if seds is not None else {}
        self.engine = engine
        self.trace = trace
        self.config = config or ProvisioningConfig()
        self._planning: list[PlanningEntry] = []
        #: Frozen, and replaced at every change: the Master Agent holds it.
        self._candidates: frozenset[str] = frozenset()
        self._installed = False
        #: Platform position of every node: the drain visits in this order.
        self._position = {node.name: index for index, node in enumerate(platform.nodes)}
        self._order = IncrementalGreenPerfOrder(tuple(platform.nodes), seds=self.seds)
        self._initialise_candidates()
        #: De-provisioned nodes the drain has not yet seen OFF.  Only the
        #: planner boots a node and ``repair()`` restores a node's
        #: pre-failure state, so a non-candidate node that is OFF stays OFF.
        self._draining = {
            node.name
            for node in platform.nodes
            if node.name not in self._candidates and node.state is not NodeState.OFF
        }

    # -- initialisation ------------------------------------------------------------
    def _initialise_candidates(self) -> None:
        ranking = self._greenperf_order()
        _, count = provisioning_target(
            self.thermal.temperature(0.0), self.electricity.cost_at(0.0), len(self.platform)
        )
        self._candidates = frozenset(ranking[:count])

    def _greenperf_order(self) -> list[str]:
        """All node names sorted by ascending GreenPerf (best first).

        The power term uses the SeD's dynamic estimate when a SeD mapping
        was provided and the node has history, otherwise the nameplate
        figure — the same static/dynamic duality as the metric itself.
        The order is resident
        (:class:`~repro.core.greenperf.IncrementalGreenPerfOrder`): SeD
        invalidations mark nodes dirty and each check repositions only
        the nodes whose ratio actually moved, instead of re-sorting the
        whole platform.
        """
        return self._order.order()

    # -- candidate filter -----------------------------------------------------------
    def install(self) -> None:
        """Install the candidate set as the Master Agent's candidate filter.

        Every later change installs the new set.  A request none of the
        candidates can serve goes to the best server outside the set (the
        Master Agent's fallback): the paper's client always finds at
        least the minimum pool.
        """
        self.master.set_candidate_filter(self._candidates)
        self._installed = True

    # -- status ----------------------------------------------------------------------
    @property
    def candidate_nodes(self) -> frozenset[str]:
        """Names of the nodes currently eligible for election."""
        return self._candidates

    @property
    def planning_entries(self) -> Sequence[PlanningEntry]:
        """The provisioning-planning samples accumulated so far (Fig. 8)."""
        return tuple(self._planning)

    # -- the periodic check -------------------------------------------------------------
    def check(self, now: float) -> PlanningEntry:
        """Perform one status check, move the candidate set one ramp step, log it.

        The target is the larger of the counts for the current status and
        for the cost scheduled ``lookahead`` seconds ahead at the current
        temperature, so that the candidate pool is ready when a scheduled
        tariff drop takes effect (Event 1 of Figure 9).  A temperature out
        of range now puts both lookups in the overheating row: unexpected
        events cannot be anticipated.
        """
        temperature = self.thermal.temperature(now)
        cost = self.electricity.cost_at(now)
        total = len(self.platform)
        rule, target = provisioning_target(temperature, cost, total)
        ahead = provisioning_target(
            temperature, self.electricity.cost_at(now + self.config.lookahead), total
        )
        if ahead[1] > target:
            rule, target = ahead
        current = len(self._candidates)

        if target > current:
            new_count = min(target, current + self.config.ramp_up_step)
        elif target < current:
            new_count = max(target, current - self.config.ramp_down_step)
        else:
            new_count = current

        if new_count != current:
            self._resize_candidates(new_count, now)

        entry = PlanningEntry(
            timestamp=now,
            temperature=temperature,
            candidates=len(self._candidates),
            electricity_cost=cost,
        )
        self._planning.append(entry)
        if self.trace is not None:
            self.trace.record(
                now,
                ExecutionTrace.STATUS_CHECK,
                temperature=entry.temperature,
                electricity_cost=entry.electricity_cost,
                rule=rule,
                target=target,
                candidates=entry.candidates,
            )
        return entry

    def _resize_candidates(self, new_count: int, now: float) -> None:
        ranking = self._greenperf_order()
        current = set(self._candidates)
        if new_count > len(current):
            # Enable the most efficient non-candidate nodes first.
            for name in ranking:
                if len(current) >= new_count:
                    break
                if name not in current:
                    current.add(name)
                    self._draining.discard(name)
                    self._power_on(name, now)
        else:
            # Disable the least efficient candidates first.
            for name in reversed(ranking):
                if len(current) <= new_count:
                    break
                if name in current:
                    current.remove(name)
                    self._draining.add(name)
                    self._power_off(name, now)
        self._candidates = frozenset(current)
        if self._installed:
            self.master.set_candidate_filter(self._candidates)
        if self.trace is not None:
            self.trace.record(
                now,
                ExecutionTrace.CANDIDATES_CHANGED,
                candidates=len(current),
                nodes=tuple(sorted(current)),
            )

    # -- node power management ---------------------------------------------------------
    def _power_on(self, node_name: str, now: float) -> None:
        if not self.config.manage_power:
            return
        node = self.platform.node(node_name)
        if node.state is not NodeState.OFF:
            return
        completion = node.begin_boot(now)
        if self.trace is not None:
            self.trace.record(
                now, ExecutionTrace.NODE_BOOT_STARTED, node=node_name, ready_at=completion
            )
        if self.engine is not None and completion > now:
            self.engine.schedule(
                completion,
                lambda node=node, completion=completion: self._finish_boot(
                    node, completion
                ),
                label=f"boot-{node_name}",
            )
        else:
            self._finish_boot(node, completion)

    def _finish_boot(self, node: Node, completion: float | None = None) -> None:
        # The promised-completion check invalidates stale events: a crash
        # (or power-off) mid-boot abandons the boot and clears
        # ``boot_ready_at``, and a later re-boot promises a *different*
        # completion time — the old engine event must not complete it early.
        if node.state is NodeState.BOOTING and (
            completion is None or node.boot_ready_at == completion
        ):
            node.complete_boot()
            if self.trace is not None:
                time = self.engine.now if self.engine is not None else 0.0
                self.trace.record(
                    time, ExecutionTrace.NODE_BOOT_COMPLETED, node=node.name
                )

    def _power_off(self, node_name: str, now: float) -> None:
        """Power a de-provisioned node off once it is idle.

        Running tasks are allowed to complete (the paper lets "tasks in
        progress complete, resulting in a delayed drop of energy
        consumption"); a busy node simply stays on — it is no longer a
        candidate, so it drains naturally and is turned off at a later
        check if power management is enabled.
        """
        if not self.config.manage_power:
            return
        node = self.platform.node(node_name)
        if node.state is NodeState.ON and node.busy_cores == 0:
            node.power_off()
            if self.trace is not None:
                self.trace.record(now, ExecutionTrace.NODE_POWERED_OFF, node=node_name)

    def drain_deprovisioned_nodes(self, now: float) -> int:
        """Power off former candidates that have finished their work.

        Returns the number of nodes turned off.  Called by the adaptive
        experiment after task completions when power management is on.
        Only de-provisioned nodes not yet seen OFF are visited, in
        platform order.
        """
        if not self.config.manage_power:
            return 0
        turned_off = 0
        for name in sorted(self._draining, key=self._position.__getitem__):
            node = self.platform.node(name)
            if node.state is NodeState.ON and node.busy_cores == 0:
                node.power_off()
                turned_off += 1
                if self.trace is not None:
                    self.trace.record(now, ExecutionTrace.NODE_POWERED_OFF, node=name)
            if node.state is NodeState.OFF:
                self._draining.discard(name)
        return turned_off

    # -- periodic scheduling ------------------------------------------------------------
    def start(self) -> None:
        """Schedule periodic checks on the simulation engine, the first one now."""
        if self.engine is None:
            raise RuntimeError("an engine is required to schedule periodic checks")
        if not self._installed:
            self.install()

        def _periodic() -> None:
            self.check(self.engine.now)
            self.drain_deprovisioned_nodes(self.engine.now)
            self.engine.schedule_in(
                self.config.check_period, _periodic, label="provisioning-check"
            )

        self.engine.schedule(self.engine.now, _periodic, label="provisioning-check")

    def candidate_history(self) -> Sequence[tuple[float, int]]:
        """``(time, candidate_count)`` series across all checks (Figure 9)."""
        return tuple((entry.timestamp, entry.candidates) for entry in self._planning)
