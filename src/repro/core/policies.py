"""The scheduling policies compared in the paper's evaluation.

Section IV-A compares three placement policies:

* ``PERFORMANCE`` — "giving priority to the fastest nodes";
* ``POWER`` — "giving priority to the most energy-efficient nodes"
  (lowest power consumption);
* ``RANDOM`` — "selects servers at random".

Section IV-B adds the ``GreenPerf`` ranking (power / performance) that
sits between POWER and PERFORMANCE, and Section III-C describes the full
score-based green scheduler (Equations 4–6) that additionally accounts for
waiting queues, boot costs and the user preference.

All policies are DIET plug-in schedulers
(:class:`~repro.middleware.plugin_scheduler.PluginScheduler`): they sort
candidate estimation vectors best-first; the Master Agent holds one, and
every agent of its hierarchy sorts with it.

A note on availability: the deterministic policies prefer servers that
have a free core *right now* over servers that would queue the task, then
apply their criterion.  This models the behaviour visible in the paper's
Figures 2–4, where secondary clusters absorb tasks "when Taurus nodes are
overloaded" and the slow Sagittaire nodes are "less frequently available
when decisions are made".
"""

from __future__ import annotations

from typing import Sequence

from repro.core.greenperf import PowerEstimationMode, greenperf_of_vector
from repro.core.scoring import ScoreKernel, server_inputs
from repro.middleware.estimation import EstimationTags
from repro.middleware.plugin_scheduler import CandidateEntry, PluginScheduler
from repro.middleware.requests import ServiceRequest


# The rank keys read an estimation vector's values dict directly (every
# value in it is a finite float, an ``EstimationVector`` invariant) and
# fall back to ``EstimationVector.get`` only for its missing-tag KeyError.
_FREE_CORES = EstimationTags.FREE_CORES
_WAITING_TIME = EstimationTags.WAITING_TIME
_MEAN_POWER = EstimationTags.MEAN_POWER
_FLOPS_PER_CORE = EstimationTags.FLOPS_PER_CORE


def _availability_rank(entry: CandidateEntry) -> int:
    """0 when the server can start the task immediately, 1 otherwise."""
    return 0 if entry.estimation.values.get(_FREE_CORES, 0.0) > 0 else 1


class PowerPolicy(PluginScheduler):
    """POWER: prioritise the servers drawing the least power.

    The power figure is the dynamic mean-power estimate, the paper's
    preferred estimation.
    """

    name = "POWER"

    def rank_key(self, entry: CandidateEntry) -> tuple:
        """Request-independent total-order key (availability, power, waiting, name)."""
        values = entry.estimation.values
        power = values.get(_MEAN_POWER)
        if power is None:
            power = entry.estimation.get(_MEAN_POWER)
        return (
            0 if values.get(_FREE_CORES, 0.0) > 0 else 1,
            power,
            values.get(_WAITING_TIME, 0.0),
            entry.server,
        )

    def sort(
        self, request: ServiceRequest, candidates: Sequence[CandidateEntry]
    ) -> list[CandidateEntry]:
        return sorted(candidates, key=self.rank_key)


class PerformancePolicy(PluginScheduler):
    """PERFORMANCE: prioritise the fastest servers (highest per-core FLOPS).

    Tasks are single-core, so per-core speed is the figure that sets
    their latency.
    """

    name = "PERFORMANCE"

    def rank_key(self, entry: CandidateEntry) -> tuple:
        """Request-independent total-order key (availability, −speed, waiting, name)."""
        values = entry.estimation.values
        speed = values.get(_FLOPS_PER_CORE)
        if speed is None:
            speed = entry.estimation.get(_FLOPS_PER_CORE)
        return (
            0 if values.get(_FREE_CORES, 0.0) > 0 else 1,
            -speed,
            values.get(_WAITING_TIME, 0.0),
            entry.server,
        )

    def sort(
        self, request: ServiceRequest, candidates: Sequence[CandidateEntry]
    ) -> list[CandidateEntry]:
        return sorted(candidates, key=self.rank_key)


class RandomPolicy(PluginScheduler):
    """RANDOM: pick uniformly among the servers, preferring available ones.

    The policy is stateful (it owns a seeded RNG) so that experiment runs
    are reproducible while successive requests still see different random
    orderings.  Every agent re-sorts the concatenation of its children's
    rankings (:meth:`~repro.middleware.agents.Agent.collect_candidates`),
    so the Master Agent's ranking is one shuffle over every candidate and
    the selection stays uniform across subtrees.

    Each :meth:`sort` call draws one ``random(n)`` for its ``n``
    candidates, so the ranking depends on the call sequence, not on the
    entries alone: the policy has no total-order key (and must not get a
    ``rank`` hook), so the Master Agent replays the walk's calls over
    resident rows (:class:`~repro.middleware.ranking.WalkReplay`), which
    moves the RNG exactly as the walk does.
    """

    name = "RANDOM"

    def __init__(self, *, seed: int = 0) -> None:
        import numpy as np

        self._rng = np.random.default_rng(seed)

    def sort(
        self, request: ServiceRequest, candidates: Sequence[CandidateEntry]
    ) -> list[CandidateEntry]:
        noise = self._rng.random(len(candidates)).tolist()
        if len(candidates) <= 1:
            return list(candidates)
        # (availability, noise, position): the position breaks noise ties
        # as a stable sort on (availability, noise) would.
        decorated = sorted(
            zip(map(_availability_rank, candidates), noise, range(len(candidates)))
        )
        return [candidates[index] for _, _, index in decorated]


class GreenPerfPolicy(PluginScheduler):
    """GreenPerf: prioritise the lowest power/performance ratio."""

    name = "GREENPERF"

    def __init__(
        self, *, mode: PowerEstimationMode = PowerEstimationMode.DYNAMIC
    ) -> None:
        self.mode = mode

    def rank_key(self, entry: CandidateEntry) -> tuple:
        """Request-independent total-order key (availability, ratio, waiting, name)."""
        values = entry.estimation.values
        return (
            0 if values.get(_FREE_CORES, 0.0) > 0 else 1,
            greenperf_of_vector(entry.estimation, mode=self.mode),
            values.get(_WAITING_TIME, 0.0),
            entry.server,
        )

    def sort(
        self, request: ServiceRequest, candidates: Sequence[CandidateEntry]
    ) -> list[CandidateEntry]:
        return sorted(candidates, key=self.rank_key)


class GreenSchedulerPolicy(PluginScheduler):
    """The full score-based green scheduler (Equations 4–6).

    The score already folds in waiting queues and boot costs, so no
    availability pre-ranking is applied: an overloaded efficient server
    naturally loses to an idle slightly-less-efficient one once its queue
    grows.  The user preference comes from the request; a fixed
    ``default_preference`` applies when the request carries none.

    The key, (Equation 6 score, server name), depends on the request but
    is a total order: :meth:`sort` sorts the :meth:`score_keys` of rows
    built by :meth:`score_inputs`, which the flat election keeps between
    elections and elects from by ``min``.
    """

    name = "GREEN_SCORE"

    def __init__(self, *, default_preference: float = 0.0) -> None:
        self.default_preference = default_preference

    def score_inputs(self, entry: CandidateEntry) -> tuple:
        """``(entry, inputs)``: the :func:`~repro.core.scoring.server_inputs` row."""
        return entry, server_inputs(entry.estimation)

    def score_keys(
        self, request: ServiceRequest, rows: Sequence[tuple]
    ) -> list[tuple[float, str, int]]:
        """One ``(Equation 6 score, server name, row position)`` key per row.

        Rows with equal inputs get one :meth:`ScoreKernel.evaluate_inputs`
        call between them (servers of one type in one state score alike).
        Rows whose inputs failed the fast-path checks are scored from their
        vector, which raises the scalar functions' errors; rows are scored
        in order, so the first bad row raises.

        >>> from repro.middleware.estimation import EstimationVector
        >>> from repro.simulation.task import Task
        >>> def row(name, power):
        ...     return policy.score_inputs(CandidateEntry.from_vector(
        ...         EstimationVector(name, "c", {
        ...             EstimationTags.FLOPS_PER_CORE: 1e9,
        ...             EstimationTags.MEAN_POWER: power,
        ...             EstimationTags.NODE_AVAILABLE: 1.0,
        ...         })
        ...     ))
        >>> policy = GreenSchedulerPolicy()
        >>> rows = [row("b", 90.0), row("a", 90.0), row("c", 50.0)]
        >>> keys = policy.score_keys(ServiceRequest.from_task(Task(flop=1e9)), rows)
        >>> [(score, server) for score, server, _ in sorted(keys)]
        [(50.0, 'c'), (90.0, 'a'), (90.0, 'b')]
        >>> min(keys)[2]  # the winner's row
        2
        """
        if not rows:
            return []
        preference = request.user_preference
        if preference == 0.0:
            preference = self.default_preference
        kernel = ScoreKernel(request.task.flop, preference)
        evaluate, evaluate_inputs = kernel.evaluate, kernel.evaluate_inputs
        scores: dict[tuple, float] = {}
        keys = []
        for position, (entry, inputs) in enumerate(rows):
            if inputs is None:
                score = evaluate(entry.estimation)[2]
            else:
                score = scores.get(inputs)
                if score is None:
                    score = scores[inputs] = evaluate_inputs(*inputs)[2]
            keys.append((score, entry.server, position))
        return keys

    def sort(
        self, request: ServiceRequest, candidates: Sequence[CandidateEntry]
    ) -> list[CandidateEntry]:
        keys = self.score_keys(request, [self.score_inputs(entry) for entry in candidates])
        return [candidates[key[-1]] for key in sorted(keys)]


#: Registry used by experiments and the CLI-style examples.
_POLICIES = {
    "POWER": PowerPolicy,
    "PERFORMANCE": PerformancePolicy,
    "RANDOM": RandomPolicy,
    "GREENPERF": GreenPerfPolicy,
    "GREEN_SCORE": GreenSchedulerPolicy,
}


def policy_by_name(name: str, **kwargs) -> PluginScheduler:
    """Instantiate a policy from its (case-insensitive) name.

    ``kwargs`` are forwarded to the policy constructor — e.g.
    ``policy_by_name("random", seed=3)``.

    >>> policy_by_name("greenperf").name, policy_by_name(" Easy ").name
    ('GREENPERF', 'EASY')

    Queue-family names (``FCFS``, ``EASY``, ``CONSERVATIVE``, ``DRF`` —
    see :mod:`repro.policy.queue`) resolve to their per-request
    placement adapter,
    :class:`~repro.middleware.queue_adapter.QueuePlacementAdapter`;
    their batch semantics (backfill, reservations, fair share) run on
    the queue backend of :class:`~repro.lab.session.LabSession`.  The
    import is lazy so the core package stays cycle-free.
    """
    key = name.strip().upper()
    factory = _POLICIES.get(key)
    if factory is not None:
        return factory(**kwargs)
    from repro.policy.queue.policies import QUEUE_POLICY_NAMES

    if key in QUEUE_POLICY_NAMES:
        from repro.middleware.queue_adapter import QueuePlacementAdapter

        return QueuePlacementAdapter(key, **kwargs)
    raise ValueError(
        f"unknown policy {name!r}; available: {sorted(available_policies())}"
    )


def available_policies() -> tuple[str, ...]:
    """Names of all registered policies (plug-in and queue families)."""
    from repro.policy.queue.policies import QUEUE_POLICY_NAMES

    return tuple(sorted(set(_POLICIES) | set(QUEUE_POLICY_NAMES)))
