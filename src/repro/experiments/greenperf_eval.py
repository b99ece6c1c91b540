"""The GreenPerf heterogeneity study (Section IV-B, Figures 6 and 7).

The paper evaluates the relevance of the GreenPerf ratio in environments
of low and high heterogeneity through a dedicated simulation:

* low heterogeneity — two server types with similar specifications
  (the Orion and Taurus clusters of Table I);
* high heterogeneity — four server types, adding the simulated Sim1 and
  Sim2 clusters of Table III;
* "Each task is computed with the maximal performance and power of the
  servers.  During the simulation, each server is limited to the
  computation of one task";
* two clients submit requests.

We reproduce this with a small closed-loop simulator: each client keeps
one request in flight; at every submission the policy under test ranks the
*currently free* servers through their (static) estimation vectors and the
task executes on the elected server at its peak performance and peak
power.  The figure coordinates are the averages over all tasks of the
energy consumed and the completion time; the RANDOM policy is run over
several seeds and contributes an area (the shaded region of the figures).
The study is :func:`repro.runner.grids.heterogeneity_grid`; each of its
specs resolves here into a lab session, and :class:`HeterogeneityResult`
reduces one figure's results to its points and area.

Expected shape: with low heterogeneity the POWER (G) and GreenPerf (GP)
points coincide and sit apart from PERFORMANCE (P) — the ratio adds
nothing; with higher heterogeneity GreenPerf clearly improves the
energy/performance trade-off over both single-criterion policies, which is
the paper's conclusion that "the effectiveness of this metric strongly
relies on the heterogeneity of servers".
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.lab.compat import reject_unused, resolve_parameters
from repro.lab.components import PlatformSource, PolicySource, WorkloadSource
from repro.lab.observe import PointSummary
from repro.lab.session import LabSession
from repro.runner.spec import ScenarioSpec
from repro.runner.store import ScenarioResult

#: Default per-task cost of the heterogeneity study.
DEFAULT_TASK_FLOP = 5.0e10

#: Workload presets of the heterogeneity study, by scale.
HETEROGENEITY_WORKLOAD_PRESETS: Mapping[str, Mapping[str, float]] = {
    "paper": {
        "servers_per_type": 2,
        "tasks_per_client": 50,
        "clients": 2,
        "task_flop": DEFAULT_TASK_FLOP,
    },
    "quick": {
        "servers_per_type": 2,
        "tasks_per_client": 20,
        "clients": 2,
        "task_flop": DEFAULT_TASK_FLOP,
    },
    "tiny": {
        "servers_per_type": 1,
        "tasks_per_client": 5,
        "clients": 2,
        "task_flop": 2.0e10,
    },
}


def _server_type_count(platform: str) -> int:
    """The server-type count a heterogeneity platform name spells.

    Only the canonical ``types<N>`` spelling is accepted, so one platform
    never runs under two names (and two content hashes).

    >>> _server_type_count("types3")
    3
    >>> _server_type_count("types03")
    Traceback (most recent call last):
    ...
    ValueError: heterogeneity platform must be 'types<N>' (types2..types4), got 'types03'
    """
    match = re.fullmatch(r"types([1-9][0-9]*)", platform)
    if match is None:
        raise ValueError(
            "heterogeneity platform must be 'types<N>' (types2..types4), "
            f"got {platform!r}"
        )
    return int(match.group(1))


def heterogeneity_session(spec: ScenarioSpec) -> LabSession:
    """Resolve a heterogeneity spec into a lab session.

    The default workload is the paper's closed loop (``clients`` clients
    each keeping one request in flight); ``workload="trace"`` replays a
    recorded task stream through the single-task servers instead, and
    the spec's ``timeline`` turns node-failure events into
    server-unavailability windows.

    >>> heterogeneity_session(ScenarioSpec(experiment="heterogeneity", platform="types2")).backend
    'point'
    """
    reject_unused(spec, preference=0.0, horizon=None)
    if spec.policy != "RANDOM":
        reject_unused(spec, seed=0)
    kinds = _server_type_count(spec.platform)
    # A trace replay starts from the paper-scale server fleet and ignores
    # the closed-loop client parameters.
    params = resolve_parameters(
        spec,
        {},
        HETEROGENEITY_WORKLOAD_PRESETS,
        integers=("servers_per_type", "tasks_per_client", "clients"),
    )
    if spec.trace is not None:
        workload = WorkloadSource.from_trace(spec.trace)
    else:
        workload = WorkloadSource.point_load(
            clients=params["clients"],
            tasks_per_client=params["tasks_per_client"],
            task_flop=params["task_flop"],
        )
    return LabSession(
        platform=PlatformSource.server_types(
            kinds, servers_per_type=params["servers_per_type"]
        ),
        workload=workload,
        policy=PolicySource(
            spec.policy,
            seed=spec.seed if spec.policy == "RANDOM" else None,
            # Per-request semantics on the point study: queue-family names
            # run as their placement adapter, never the batch backend.
            family="plugin",
        ),
        timeline=spec.timeline,
    )


@dataclass(frozen=True)
class RandomArea:
    """The spread of the RANDOM policy over several seeds (the shaded area)."""

    energy_min: float
    energy_max: float
    time_min: float
    time_max: float


def _point_from_result(result: ScenarioResult) -> PointSummary:
    """Rebuild the figure coordinates of one scenario result."""
    return PointSummary(
        policy=result.spec.policy,
        mean_energy_per_task=result.metrics["mean_energy_per_task"],
        mean_completion_time=result.metrics["mean_completion_time"],
        total_energy=result.metrics["total_energy"],
        makespan=result.metrics["makespan"],
        tasks_per_type={
            kind: int(count)
            for kind, count in result.detail.get("tasks_per_type", {}).items()
        },
    )


@dataclass(frozen=True)
class HeterogeneityResult:
    """One figure of the heterogeneity study: the policy points and RANDOM area."""

    kinds: int
    points: Mapping[str, PointSummary]
    random_area: RandomArea

    @classmethod
    def from_results(
        cls, results: Sequence[ScenarioResult], kinds: int
    ) -> "HeterogeneityResult":
        """Reduce the results of ``kinds`` server types to the figure.

        Every non-RANDOM result on ``types<kinds>`` is a point; the RANDOM
        results there span the area.  Results on other platforms are
        skipped, so one grid run can feed several figures.
        """
        platform = f"types{kinds}"
        points: dict[str, PointSummary] = {}
        randoms: list[PointSummary] = []
        for result in results:
            if result.spec.platform != platform:
                continue
            point = _point_from_result(result)
            if result.spec.policy == "RANDOM":
                randoms.append(point)
            else:
                points[result.spec.policy] = point
        if not randoms:
            raise ValueError(f"no RANDOM results on {platform!r} to span the area")
        energies = [p.mean_energy_per_task for p in randoms]
        times = [p.mean_completion_time for p in randoms]
        area = RandomArea(
            energy_min=min(energies),
            energy_max=max(energies),
            time_min=min(times),
            time_max=max(times),
        )
        return cls(kinds=kinds, points=points, random_area=area)

    def point(self, policy: str) -> PointSummary:
        """The metric point of one policy."""
        return self.points[policy.upper()]

    def tradeoff_score(self, policy: str) -> float:
        """Normalised energy × time product of one policy (lower is better).

        Energy is normalised by the best (lowest) energy among the three
        plotted policies and time by the best time, so a policy that
        matches the best energy *and* the best time scores 1.0.  This is
        the quantitative rendering of the figures' "better trade-off"
        reading.
        """
        energies = [p.mean_energy_per_task for p in self.points.values()]
        times = [p.mean_completion_time for p in self.points.values()]
        best_energy = min(energies)
        best_time = min(times)
        target = self.point(policy)
        return (target.mean_energy_per_task / best_energy) * (
            target.mean_completion_time / best_time
        )

    def greenperf_improves_tradeoff(self) -> bool:
        """Whether GreenPerf achieves the best trade-off score of the three."""
        scores = {name: self.tradeoff_score(name) for name in self.points}
        return scores["GREENPERF"] <= min(scores.values()) + 1e-9
