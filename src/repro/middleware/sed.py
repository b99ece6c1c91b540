"""Server Daemon (SeD).

A SeD "acts as a service provider exposing functionality through a
standardized computational service interface" (Section II-A).  In this
reproduction each SeD wraps one node, one waiting queue and a power
monitor, and exposes two things to the agent hierarchy:

* the set of services it can solve;
* an estimation vector, filled by a (possibly custom) *estimation
  function* whenever a request arrives.  A custom function is DIET's
  plug-in hook: it is given at construction and fixed for the SeD's life.

The default estimation function populates the standard tags of
:class:`~repro.middleware.estimation.EstimationTags`.  The paper's green
scheduler installs additional behaviour simply by reading the power tags —
it does not need to replace the estimation function, but custom functions
are supported because DIET supports them.

Incremental estimation
----------------------
The default estimation function reads only node and queue state, never
the request, so its vector stays valid until that state changes.  Each
SeD therefore *caches* its vector and invalidates it from the three
places the inputs can move — the node's power listeners (every core
acquire/release, power-off, boot and crash/repair transition), the
queue's mutation listeners, and :meth:`ServerDaemon.record_request_power`
(the dynamic power estimate).  A request over a hierarchy of *n* SeDs
re-computes only the vectors whose node changed since the last request —
usually one — instead of reassembling all *n*; since a dirty vector is
recomputed by exactly the same function at the same state, election
results are bit-identical to the always-recompute path (the golden suite
pins this).  A SeD built with a *custom* estimation function keeps no
cache, because custom functions may read the request.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

from repro.infrastructure.node import Node
from repro.middleware.estimation import EstimationTags, EstimationVector
from repro.middleware.requests import ServiceRequest
from repro.simulation.queueing import NodeQueue
from repro.util.stats import RunningStats
from repro.util.validation import ensure_non_negative

_INF = math.inf

EstimationFunction = Callable[["ServerDaemon", ServiceRequest], EstimationVector]

#: Offering this pseudo-service makes a SeD solve *any* request — the
#: open-world mode used by the live placement daemon (:mod:`repro.serve`),
#: whose request stream is not known when the hierarchy is built.
WILDCARD_SERVICE = "*"


class ServerDaemon:
    """One SeD: a node, its queue, its power history and its services."""

    def __init__(
        self,
        node: Node,
        *,
        services: Iterable[str] = ("cpu-burn",),
        estimation_function: EstimationFunction | None = None,
    ) -> None:
        self.node = node
        self.queue = NodeQueue(node)
        self._services = frozenset(services)
        if not self._services:
            raise ValueError("a SeD must offer at least one service")
        # The default estimation function never reads the request, so its
        # vector can be cached until node/queue/power-history state moves.
        self._cacheable = estimation_function is None
        self._cached_vector: EstimationVector | None = None
        self._estimation_function = estimation_function or default_estimation_function
        #: The default function's vector template: the seven spec tags
        #: converted and checked once, in tag order (built on first use,
        #: shared by every SeD whose spec tags are bit-identical).
        self._vector_template: dict[str, float] | None = None
        #: Per-request power history feeding the dynamic power estimate;
        #: every observation is checked finite and non-negative where it
        #: enters, so the mean needs no check.
        self._request_power = RunningStats()
        #: Callbacks fired whenever the cached vector is invalidated — the
        #: resident ranking (:mod:`repro.middleware.ranking`) subscribes
        #: here to mark this SeD dirty in O(1) per transition.
        self._invalidation_listeners: list[Callable[["ServerDaemon"], None]] = []
        if self._cacheable:
            node.add_power_listener(self.invalidate_estimation)
            self.queue.add_listener(self.invalidate_estimation)

    # -- identity ---------------------------------------------------------------
    @property
    def name(self) -> str:
        """SeD name — identical to the node name."""
        return self.node.name

    @property
    def cluster(self) -> str:
        """Cluster of the backing node."""
        return self.node.cluster

    @property
    def services(self) -> frozenset[str]:
        """Services this SeD can solve."""
        return self._services

    def can_solve(self, service: str) -> bool:
        """Whether this SeD offers ``service``.

        A SeD offering :data:`WILDCARD_SERVICE` solves everything.
        """
        return service in self._services or WILDCARD_SERVICE in self._services

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ServerDaemon({self.name!r}, services={sorted(self._services)})"

    # -- incremental estimation ---------------------------------------------------
    def invalidate_estimation(self, node: Node | None = None) -> None:
        """Drop the cached estimation vector (next request recomputes it).

        Registered as-is as the node's power listener (which passes the
        node) and the queue's mutation listener (which passes nothing).
        """
        self._cached_vector = None
        for listener in self._invalidation_listeners:
            listener(self)

    def add_invalidation_listener(
        self, listener: Callable[["ServerDaemon"], None]
    ) -> None:
        """Subscribe ``listener(sed)`` to every estimation invalidation.

        Listeners fire on each node power transition, queue mutation and
        power observation — the complete set of triggers that can move the
        default estimation function's vector.
        """
        self._invalidation_listeners.append(listener)

    @property
    def estimation_cached(self) -> bool:
        """Whether the current estimation vector is served from the cache."""
        return self._cached_vector is not None

    @property
    def estimation_cacheable(self) -> bool:
        """Whether the default (request-independent) estimation function is active."""
        return self._cacheable

    # -- dynamic power estimation -------------------------------------------------
    def record_request_power(self, mean_power: float) -> None:
        """Feed the power observed while serving one past request.

        The paper favours "a second, more dynamic approach, where the energy
        consumed by a server while computing a number of past requests is
        used to compute its average power consumption" (Section III-A).
        ``mean_power`` must be a finite number >= 0 (W); the GreenPerf
        order, which divides by it, rejects a zero mean where it reads it.
        """
        if not (type(mean_power) is float and 0.0 <= mean_power < _INF):
            ensure_non_negative(mean_power, "mean_power")
        self._request_power.add(mean_power)
        self.invalidate_estimation()

    @property
    def observed_request_count(self) -> int:
        """Number of past requests whose power has been recorded."""
        return self._request_power.count

    def dynamic_mean_power(self) -> float:
        """Average power over past requests (W).

        Before any request has completed (the "learning phase" visible in
        Figure 2), the estimate falls back to the node's peak power — a
        conservative figure that lets the scheduler make progress without
        favouring unmeasured machines.
        """
        if self._request_power.count == 0:
            return self.node.spec.peak_power
        return self._request_power.mean

    # -- estimation ------------------------------------------------------------------
    def estimate(self, request: ServiceRequest) -> EstimationVector:
        """Produce the estimation vector for ``request``.

        With the default estimation function the vector is cached and
        only recomputed after a node transition, queue mutation or power
        observation invalidated it (see module docstring); its required
        tags were checked once, on its template.  Any other function's
        vector is checked on every call.
        """
        vector = self._cached_vector
        if vector is not None:
            return vector
        vector = self._estimation_function(self, request)
        if self._cacheable:
            self._cached_vector = vector
        else:
            vector.validate_required()
        return vector


def default_estimation_function(
    sed: ServerDaemon, request: ServiceRequest
) -> EstimationVector:
    """The default DIET-like estimation function extended with power tags.

    The request is never read.  Twelve tags, in this order:

    >>> from repro.infrastructure.node import Node
    >>> from repro.infrastructure.platform import taurus_spec
    >>> sed = ServerDaemon(Node(taurus_spec()))
    >>> vector = default_estimation_function(sed, None)
    >>> for tag in vector:
    ...     print(tag, vector.get(tag))
    flops_per_core 2300000000.0
    total_flops 27600000000.0
    free_cores 12.0
    total_cores 12.0
    waiting_time 0.0
    completed_tasks 0.0
    mean_power 190.0
    idle_power 95.0
    peak_power 190.0
    boot_power 142.5
    boot_time 120.0
    node_available 1.0
    >>> sed.node.acquire_core()
    >>> later = default_estimation_function(sed, None)
    >>> list(later) == list(vector), later.free_cores
    (True, 11.0)

    The first call per SeD builds the vector through the checking
    constructor and keeps its values as the SeD's template (the seven spec
    tags come from a frozen spec; SeDs of one node type share a template);
    later calls copy the template and store the five state tags, checked
    on every call.
    """
    node = sed.node
    spec = node.spec
    free = float(node.free_cores)
    waiting = float(sed.queue.waiting_time_estimate())
    completed = float(node.completed_tasks)
    mean_power = float(sed.dynamic_mean_power())
    available = 1.0 if node.is_available else 0.0
    template = sed._vector_template
    # A non-finite value makes the sum non-finite; the checking constructor
    # then raises the per-tag error (a finite sum that overflows passes it).
    if template is None or not math.isfinite(free + waiting + completed + mean_power):
        vector = EstimationVector(
            spec.name,
            spec.cluster,
            {
                EstimationTags.FLOPS_PER_CORE: spec.flops_per_core,
                EstimationTags.TOTAL_FLOPS: spec.total_flops,
                EstimationTags.FREE_CORES: free,
                EstimationTags.TOTAL_CORES: spec.cores,
                EstimationTags.WAITING_TIME: waiting,
                EstimationTags.COMPLETED_TASKS: completed,
                EstimationTags.MEAN_POWER: mean_power,
                EstimationTags.IDLE_POWER: spec.idle_power,
                EstimationTags.PEAK_POWER: spec.peak_power,
                EstimationTags.BOOT_POWER: spec.boot_power,
                EstimationTags.BOOT_TIME: spec.boot_time,
                EstimationTags.NODE_AVAILABLE: available,
            },
        )
        vector.validate_required()
        sed._vector_template = _shared_template(vector.values)
        return vector
    values = template.copy()
    values[EstimationTags.FREE_CORES] = free
    values[EstimationTags.WAITING_TIME] = waiting
    values[EstimationTags.COMPLETED_TASKS] = completed
    values[EstimationTags.MEAN_POWER] = mean_power
    values[EstimationTags.NODE_AVAILABLE] = available
    return EstimationVector.from_finite(spec.name, spec.cluster, values)


#: The templates of :func:`default_estimation_function`, one per distinct
#: set of spec tags (a platform has a handful of node types).  Sharing one
#: is invisible to callers: its spec tags are its key, every build
#: overwrites its five state tags, and builds only ever copy it.
_TEMPLATES: dict[tuple[str, ...], dict[str, float]] = {}

_SPEC_TAGS = (
    EstimationTags.FLOPS_PER_CORE,
    EstimationTags.TOTAL_FLOPS,
    EstimationTags.TOTAL_CORES,
    EstimationTags.IDLE_POWER,
    EstimationTags.PEAK_POWER,
    EstimationTags.BOOT_POWER,
    EstimationTags.BOOT_TIME,
)


def _shared_template(values: dict[str, float]) -> dict[str, float]:
    """The template for ``values``' spec tags; the first such ``values`` seeds it.

    The key is bit-exact (``float.hex``), so ``0.0`` and ``-0.0`` differ.
    """
    key = tuple(values[tag].hex() for tag in _SPEC_TAGS)
    return _TEMPLATES.setdefault(key, dict(values))
