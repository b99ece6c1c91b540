"""Server (node) model.

A node exposes exactly the observables the paper's scheduler needs
(Section III-C):

``f_s``
    FLOPS of the server.  Tasks in the paper are single-core CPU-bound
    problems, so the per-core figure drives individual task durations while
    the total figure (cores × per-core FLOPS) represents throughput.
``c_s``
    Average power consumption when fully loaded (W).
``bc_s``
    Power consumption during the boot process (W).
``bt_s``
    Boot time (s).
``w_s``
    Estimation of the task waiting queue (s), tracked by the simulation.

The node also carries a small state machine (``OFF → BOOTING → ON``) used
by the adaptive provisioning experiments, and tracks how many cores are
currently busy so that its utilisation-dependent power draw is observable
at any instant.  Every transition that can move the power draw fires the
node's power listeners (:meth:`Node.add_power_listener`), which is how the
event-driven energy accountant closes power segments without polling.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

from repro.infrastructure.power_model import LinearPowerModel
from repro.util.validation import ensure_non_negative, ensure_positive

_INF = math.inf

#: Callback invoked after a node's power draw may have changed.
PowerListener = Callable[["Node"], None]


class NodeState(enum.Enum):
    """Lifecycle states of a server.

    ``FAILED`` models a crash (fault injection through
    :class:`~repro.scenario.events.NodeFailure`): the node stops drawing
    power instantly, loses whatever was running on its cores, and can only
    return to service through :meth:`Node.repair`.
    """

    OFF = "off"
    BOOTING = "booting"
    ON = "on"
    FAILED = "failed"


@dataclass(frozen=True)
class NodeSpec:
    """Static description of a server.

    Parameters
    ----------
    name:
        Unique node identifier, e.g. ``"taurus-3"``.
    cluster:
        Name of the cluster the node belongs to, e.g. ``"taurus"``.
    cores:
        Number of CPU cores.  A node cannot execute more concurrent
        single-core tasks than it has cores (Section IV-A).
    flops_per_core:
        Sustained floating-point rate of one core (FLOP/s).
    idle_power:
        Power draw when powered on and idle (W).
    peak_power:
        Power draw when all cores are busy (W) — the paper's ``c_s``.
    boot_power:
        Power draw during the boot process (W) — the paper's ``bc_s``.
    boot_time:
        Time to go from OFF to ON (s) — the paper's ``bt_s``.
    memory_gb:
        Installed memory, only used for reporting (Table I).
    """

    name: str
    cluster: str
    cores: int
    flops_per_core: float
    idle_power: float
    peak_power: float
    boot_power: float = 0.0
    boot_time: float = 0.0
    memory_gb: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("node name must be a non-empty string")
        if not self.cluster:
            raise ValueError("cluster name must be a non-empty string")
        if self.cores < 1:
            raise ValueError(f"cores must be >= 1, got {self.cores}")
        ensure_positive(self.flops_per_core, "flops_per_core")
        ensure_non_negative(self.idle_power, "idle_power")
        ensure_non_negative(self.peak_power, "peak_power")
        if self.peak_power < self.idle_power:
            raise ValueError(
                f"peak_power ({self.peak_power}) must be >= idle_power "
                f"({self.idle_power}) for node {self.name!r}"
            )
        ensure_non_negative(self.boot_power, "boot_power")
        ensure_non_negative(self.boot_time, "boot_time")
        ensure_non_negative(self.memory_gb, "memory_gb")

    @property
    def total_flops(self) -> float:
        """Aggregate FLOP/s with all cores busy."""
        return self.cores * self.flops_per_core

    def default_power_model(self) -> LinearPowerModel:
        """Linear power model between the spec's idle and peak power."""
        return LinearPowerModel(idle=self.idle_power, peak=self.peak_power)


#: ON power tables of exact-float linear models, keyed by their two
#: figures (``float.hex``, so 0.0 and -0.0 differ) and the core count.
_LINEAR_TABLES: dict[tuple[str, str, int], tuple[float, ...]] = {}


def _on_power_table(model: LinearPowerModel, cores: int) -> tuple:
    """``model.power_at(busy / cores)`` for ``busy`` in ``0..cores``.

    Nodes with bit-identical linear models and equal core counts share one
    table, so a platform computes (and checks) it once per node type.
    """
    linear = type(model.idle) is type(model.peak) is float
    if linear:
        key = (model.idle.hex(), model.peak.hex(), cores)
        table = _LINEAR_TABLES.get(key)
        if table is not None:
            return table
    table = tuple(model.power_at(busy / cores) for busy in range(cores + 1))
    if linear:
        _LINEAR_TABLES[key] = table
    return table


class Node:
    """Runtime state of a server.

    The node tracks its power state, the number of busy cores and basic
    execution counters.  It performs no time-keeping itself — the
    simulation engine (or the middleware driver) advances time and asks the
    node for its instantaneous power draw through :meth:`current_power`.
    """

    def __init__(self, spec: NodeSpec) -> None:
        self.spec = spec
        self._state = NodeState.ON
        self._busy_cores = 0
        self._boot_completion_time: float | None = None
        self._pre_failure_state = NodeState.ON
        self._completed_tasks = 0
        self._total_busy_core_seconds = 0.0
        self._power_listeners: list[PowerListener] = []
        #: ON power draw per busy-core count, each entry computed (and
        #: checked) once by the power model.
        self._on_power = _on_power_table(spec.default_power_model(), spec.cores)

    # -- identification ----------------------------------------------------
    @property
    def name(self) -> str:
        """Node identifier (from the spec)."""
        return self.spec.name

    @property
    def cluster(self) -> str:
        """Cluster this node belongs to (from the spec)."""
        return self.spec.cluster

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Node({self.name!r}, state={self._state.value}, "
            f"busy={self._busy_cores}/{self.spec.cores})"
        )

    # -- power-change notification --------------------------------------------
    def add_power_listener(self, listener: PowerListener) -> None:
        """Subscribe to power-state transitions.

        ``listener(node)`` fires *after* every state change that can move
        the node's instantaneous power draw (core acquired/released, power
        off, boot start/completion).  This is the hook the event-driven
        :class:`~repro.infrastructure.energy.EnergyAccountant` uses to
        close power segments without polling.
        """
        self._power_listeners.append(listener)

    def remove_power_listener(self, listener: PowerListener) -> None:
        """Unsubscribe a previously added listener (ValueError if absent)."""
        self._power_listeners.remove(listener)

    def _power_changed(self) -> None:
        for listener in self._power_listeners:
            listener(self)

    # -- power state machine -----------------------------------------------
    @property
    def state(self) -> NodeState:
        """Current lifecycle state."""
        return self._state

    @property
    def is_available(self) -> bool:
        """Whether the node is powered on and can accept work."""
        return self._state is NodeState.ON

    def power_off(self) -> None:
        """Turn the node off.  Requires that no task is running."""
        if self._busy_cores:
            raise RuntimeError(
                f"cannot power off {self.name}: {self._busy_cores} cores busy"
            )
        self._state = NodeState.OFF
        self._boot_completion_time = None
        if self._power_listeners:
            self._power_changed()

    def fail(self, *, now: float = 0.0) -> int:
        """Crash the node: drop all running work, draw no power.

        Returns the number of cores that were busy — the caller (the
        simulation driver) owns the affected tasks and decides whether to
        requeue or fail them.  An in-progress boot is abandoned.  Crashing
        an already-FAILED node is an error: fault injection validates its
        timelines, so a double failure is a bug, not a scenario.
        """
        if self._state is NodeState.FAILED:
            raise RuntimeError(f"node {self.name} is already failed")
        ensure_non_negative(now, "now")
        lost_cores = self._busy_cores
        self._busy_cores = 0
        # A node that was OFF when it "crashed" must come back OFF, not
        # powered on — otherwise a fail/repair pair would silently inflate
        # energy totals.  An interrupted boot restarts from OFF too.
        self._pre_failure_state = (
            NodeState.ON if self._state is NodeState.ON else NodeState.OFF
        )
        self._state = NodeState.FAILED
        self._boot_completion_time = None
        if self._power_listeners:
            self._power_changed()
        return lost_cores

    def repair(self) -> None:
        """Return a FAILED node to its pre-failure power state.

        A node that was ON when it crashed comes back ON with all cores
        idle; one that was OFF (or mid-boot) comes back OFF and must be
        booted through the normal provisioning path.
        """
        if self._state is not NodeState.FAILED:
            raise RuntimeError(f"repair() on node {self.name} in state {self._state}")
        self._state = self._pre_failure_state
        if self._power_listeners:
            self._power_changed()

    @property
    def boot_ready_at(self) -> float | None:
        """Completion time of the boot in progress, or ``None``.

        Cleared when the boot completes and when a crash or power-off
        abandons it — which is what lets a scheduled boot-completion
        event recognise that the boot it belonged to no longer exists.
        """
        return self._boot_completion_time

    def begin_boot(self, now: float) -> float:
        """Start booting an OFF node at time ``now``.

        Returns the absolute time at which the boot completes.  Booting an
        already-ON node is a no-op returning ``now``; a FAILED node cannot
        boot — it must be repaired first.
        """
        if self._state is NodeState.FAILED:
            raise RuntimeError(f"cannot boot failed node {self.name}; repair() it first")
        if self._state is NodeState.ON:
            return now
        if self._state is NodeState.BOOTING:
            assert self._boot_completion_time is not None
            return self._boot_completion_time
        self._state = NodeState.BOOTING
        self._boot_completion_time = now + self.spec.boot_time
        if self._power_listeners:
            self._power_changed()
        return self._boot_completion_time

    def complete_boot(self) -> None:
        """Transition a BOOTING node to ON."""
        if self._state is not NodeState.BOOTING:
            raise RuntimeError(f"complete_boot() on node {self.name} in state {self._state}")
        self._state = NodeState.ON
        self._boot_completion_time = None
        if self._power_listeners:
            self._power_changed()

    # -- core occupancy ------------------------------------------------------
    @property
    def busy_cores(self) -> int:
        """Number of cores currently executing a task."""
        return self._busy_cores

    @property
    def free_cores(self) -> int:
        """Number of idle cores (0 when the node is not ON)."""
        if self._state is not NodeState.ON:
            return 0
        return self.spec.cores - self._busy_cores

    def acquire_core(self) -> None:
        """Mark one core as busy.  Raises if the node is full or not ON."""
        if self._state is not NodeState.ON:
            raise RuntimeError(f"node {self.name} is {self._state.value}, cannot run tasks")
        if self._busy_cores >= self.spec.cores:
            raise RuntimeError(f"node {self.name} has no free core")
        self._busy_cores += 1
        if self._power_listeners:
            self._power_changed()

    def release_core(self, *, busy_seconds: float = 0.0) -> None:
        """Mark one core as free after a task completes.

        ``busy_seconds`` is the core-time consumed by the finished task and
        feeds the utilisation counters used in reports.
        """
        if self._busy_cores <= 0:
            raise RuntimeError(f"release_core() on idle node {self.name}")
        if not (type(busy_seconds) is float and 0.0 <= busy_seconds < _INF):
            ensure_non_negative(busy_seconds, "busy_seconds")
        self._busy_cores -= 1
        self._completed_tasks += 1
        self._total_busy_core_seconds += busy_seconds
        if self._power_listeners:
            self._power_changed()

    # -- power ---------------------------------------------------------------
    def current_power(self) -> float:
        """Instantaneous power draw in watts for the current state.

        ON, the power model's draw at the current utilisation, read from
        the table built at construction; booting, the spec's boot power;
        off or failed, nothing:

        >>> spec = NodeSpec("n-0", "c", cores=2, flops_per_core=1e9,
        ...                 idle_power=100.0, peak_power=200.0, boot_power=150.0)
        >>> node = Node(spec)
        >>> node.current_power()  # no core busy: idle power
        100.0
        >>> node.acquire_core()
        >>> node.acquire_core()
        >>> node.current_power()  # every core busy: peak power
        200.0
        >>> node.release_core()
        >>> node.release_core()
        >>> node.power_off()
        >>> node.current_power()
        0.0
        >>> _ = node.begin_boot(0.0)
        >>> node.current_power()  # booting: boot power
        150.0
        >>> _ = node.fail()
        >>> node.current_power()
        0.0
        """
        state = self._state
        if state is NodeState.ON:
            return self._on_power[self._busy_cores]
        if state is NodeState.BOOTING:
            return self.spec.boot_power
        return 0.0

    # -- counters ----------------------------------------------------------------
    @property
    def completed_tasks(self) -> int:
        """Number of tasks completed on this node so far."""
        return self._completed_tasks

    @property
    def total_busy_core_seconds(self) -> float:
        """Accumulated core-seconds of completed work."""
        return self._total_busy_core_seconds
