"""Declarative scenario specifications for the sweep runner.

The paper's evaluation is a grid of scenarios — scheduling policies ×
platform heterogeneity × preference weights (Tables I–III, Figures 2–9).
:class:`ScenarioSpec` captures one cell of that grid as a frozen value
object; :class:`SweepSpec` expands a base spec and a set of axes into the
full cartesian grid.  Every spec has a deterministic content hash
(:meth:`ScenarioSpec.content_hash`), which is the key of the result store:
two processes — or two machines — computing the hash of the same scenario
always agree, which is what makes cached sweeps and multi-worker runs
exactly reproducible.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import operator
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from pathlib import Path
from typing import Union

#: Bump when the meaning of a spec field changes — including edits to the
#: preset tables a spec refers to by *name* (platform/workload presets in
#: the experiment modules): hashes cover the names, not the resolved
#: values, so without a bump old store entries would keep serving results
#: computed under the previous preset definitions.
SPEC_VERSION = 1

#: The experiment families the executor knows how to dispatch.
EXPERIMENTS = ("placement", "heterogeneity", "adaptive", "queue")

#: Scalar values allowed in ``overrides`` (must survive a JSON round-trip).
Scalar = Union[bool, int, float, str]

_OVERRIDE_TYPES = (bool, int, float, str)


def _normalize_overrides(overrides) -> tuple[tuple[str, Scalar], ...]:
    """Canonical form of ``overrides``: key-sorted tuple of pairs."""
    if overrides is None or overrides == ():
        return ()
    if isinstance(overrides, Mapping):
        items = overrides.items()
    else:
        items = tuple(overrides)
    normalized = []
    for key, value in items:
        if not isinstance(key, str) or not key:
            raise ValueError(f"override keys must be non-empty strings, got {key!r}")
        if not isinstance(value, _OVERRIDE_TYPES):
            raise ValueError(
                f"override {key!r} must be a bool/int/float/str, got {type(value).__name__}"
            )
        normalized.append((key, value))
    normalized.sort(key=lambda pair: pair[0])
    keys = [key for key, _ in normalized]
    if len(set(keys)) != len(keys):
        raise ValueError(f"duplicate override keys in {keys}")
    return tuple(normalized)


def trace_file_hash(path: str | Path) -> str:
    """SHA-256 of a trace file's *content* (the trace part of a spec hash).

    Hashing the bytes rather than the path makes trace identity
    content-addressed: moving or renaming a trace file keeps its cached
    results valid, while editing a single row invalidates them.

    >>> import tempfile, os
    >>> path = os.path.join(tempfile.mkdtemp(), "t.csv")
    >>> _ = open(path, "w").write("arrival_time,flop\\n")
    >>> len(trace_file_hash(path))
    64
    """
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as handle:
            for chunk in iter(lambda: handle.read(1 << 20), b""):
                digest.update(chunk)
    except OSError as error:
        raise ValueError(f"cannot hash trace file {path}: {error}") from None
    return digest.hexdigest()


def timeline_content_hash(path: str | Path) -> str:
    """Content hash of a timeline file (the timeline part of a spec hash).

    Delegates to :func:`repro.scenario.io.timeline_file_hash`, which
    hashes the *parsed* timeline: reformatting a TOML file or converting
    it to JSON keeps cached results valid, editing an event invalidates
    them.  Imported lazily so the runner package stays import-light.
    """
    from repro.scenario.io import timeline_file_hash

    return timeline_file_hash(path)


@dataclass(frozen=True)
class ScenarioSpec:
    """One cell of an evaluation grid.

    Attributes
    ----------
    experiment:
        Experiment family: ``"placement"`` (Section IV-A),
        ``"heterogeneity"`` (Section IV-B) or ``"adaptive"`` (Section IV-C).
    platform:
        Platform preset name.  Placement/adaptive use the node-count
        presets of :data:`repro.experiments.presets.PLATFORM_PRESETS`;
        heterogeneity uses ``"types2"`` … ``"types4"`` (server-type count).
    workload:
        Workload preset name (``"paper"``, ``"quick"``, ``"tiny"``), mapped
        to concrete parameters by the experiment module.
    policy:
        Scheduling policy under test (normalised to upper case).
    preference:
        User preference weight in ``[-1, 1]`` (Equation 1); consumed by the
        ``GREEN_SCORE`` policy.
    seed:
        Random seed threaded into any stochastic component (e.g. RANDOM).
    horizon:
        Optional simulation-duration cap in seconds (engine-driven
        scenarios: the adaptive observation window, or a cap on a
        placement run).
    overrides:
        Extra experiment parameters escaping the presets, as a key-sorted
        tuple of ``(name, scalar)`` pairs (a mapping is accepted and
        normalised).
    trace:
        Path of a trace file (CSV, or a raw ``.swf`` log mapped with the
        default field mapping) replayed as the scenario workload
        (requires ``workload="trace"``); legal on every experiment
        family since the :mod:`repro.lab` refactor.  See
        ``docs/TRACE_FORMAT.md``.
    trace_hash:
        Content hash of the trace file.  Computed from the file when
        omitted; pass it explicitly (as :meth:`from_mapping` does when
        rebuilding store records) to identify a trace whose file is no
        longer present.
    timeline:
        Path of an event-timeline file (TOML/JSON, see
        ``docs/SCENARIOS.md``) injected into the scenario — tariff
        schedules, thermal excursions, node crashes, workload bursts.
        Legal on every experiment family: the adaptive planner reacts to
        all of it, engine-driven placement runs take the fault events,
        and the heterogeneity point study turns node failures into
        server-unavailability windows.
    timeline_hash:
        Content hash of the *parsed* timeline.  Computed from the file
        when omitted; like ``trace_hash``, it is what participates in the
        scenario hash, so moving or reformatting a timeline file keeps
        cached results valid while editing any event invalidates them.

    A trace-driven scenario hashes by trace *content*, not path:

    >>> import tempfile, os
    >>> path = os.path.join(tempfile.mkdtemp(), "t.csv")
    >>> _ = open(path, "w").write(
    ...     "arrival_time,flop,client,user_preference,service\\n"
    ...     "0.0,1e8,c-0,0.0,cpu-burn\\n")
    >>> spec = ScenarioSpec(workload="trace", trace=path)
    >>> spec.trace_hash == trace_file_hash(path)
    True
    """

    experiment: str = "placement"
    platform: str = "paper"
    workload: str = "paper"
    policy: str = "POWER"
    preference: float = 0.0
    seed: int = 0
    horizon: float | None = None
    overrides: tuple[tuple[str, Scalar], ...] = ()
    trace: str | None = None
    trace_hash: str | None = None
    timeline: str | None = None
    timeline_hash: str | None = None

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ValueError(
                f"unknown experiment {self.experiment!r}; expected one of {EXPERIMENTS}"
            )
        if not self.platform or not self.workload:
            raise ValueError("platform and workload preset names must be non-empty")
        if (self.trace is not None) != (self.workload == "trace"):
            raise ValueError(
                "trace scenarios need both workload='trace' and trace=<path>; "
                f"got workload={self.workload!r}, trace={self.trace!r}"
            )
        if self.trace is not None:
            object.__setattr__(self, "trace", str(self.trace))
            if self.trace_hash is None:
                object.__setattr__(self, "trace_hash", trace_file_hash(self.trace))
        elif self.trace_hash is not None:
            raise ValueError("trace_hash is meaningless without a trace")
        if self.timeline is not None:
            object.__setattr__(self, "timeline", str(self.timeline))
            if self.timeline_hash is None:
                object.__setattr__(
                    self, "timeline_hash", timeline_content_hash(self.timeline)
                )
        elif self.timeline_hash is not None:
            raise ValueError("timeline_hash is meaningless without a timeline")
        if not self.policy or not self.policy.strip():
            raise ValueError("policy must be a non-empty name")
        object.__setattr__(self, "policy", self.policy.strip().upper())
        object.__setattr__(self, "preference", float(self.preference))
        if not -1.0 <= self.preference <= 1.0:
            raise ValueError(f"preference must be in [-1, 1], got {self.preference}")
        object.__setattr__(self, "seed", int(self.seed))
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.horizon is not None:
            object.__setattr__(self, "horizon", float(self.horizon))
            if self.horizon <= 0:
                raise ValueError(f"horizon must be > 0, got {self.horizon}")
        object.__setattr__(self, "overrides", _normalize_overrides(self.overrides))

    # -- identity ---------------------------------------------------------------------
    @property
    def scenario_id(self) -> str:
        """Human-readable identifier, used for display and ``--filter``."""
        parts = [
            self.experiment,
            self.platform,
            self.workload,
            self.policy,
            f"p{self.preference:+.2f}",
            f"s{self.seed}",
        ]
        if self.horizon is not None:
            parts.append(f"h{self.horizon:g}")
        if self.trace is not None:
            parts.append(f"trace={Path(self.trace).name}")
        if self.timeline is not None:
            parts.append(f"timeline={Path(self.timeline).name}")
        parts.extend(f"{key}={value}" for key, value in self.overrides)
        return "/".join(parts)

    def to_mapping(self) -> dict[str, object]:
        """JSON-compatible representation (inverse of :meth:`from_mapping`).

        Trace fields are only present when set, so records written before
        trace support round-trip unchanged.
        """
        mapping: dict[str, object] = {
            "experiment": self.experiment,
            "platform": self.platform,
            "workload": self.workload,
            "policy": self.policy,
            "preference": self.preference,
            "seed": self.seed,
            "horizon": self.horizon,
            "overrides": dict(self.overrides),
        }
        if self.trace is not None:
            mapping["trace"] = self.trace
            mapping["trace_hash"] = self.trace_hash
        if self.timeline is not None:
            mapping["timeline"] = self.timeline
            mapping["timeline_hash"] = self.timeline_hash
        return mapping

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, object]) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_mapping` output (e.g. a store record)."""
        return cls(**mapping)

    def content_hash(self) -> str:
        """Deterministic SHA-256 of the spec content.

        The hash covers every field plus :data:`SPEC_VERSION`, through a
        canonical (key-sorted, minimal-separator) JSON encoding, so it is
        stable across processes, platforms and Python hash randomisation.
        For trace scenarios the trace participates by *content hash*, not
        by path — the store stays correct when a trace file is edited
        (miss) or merely moved (hit).

        The digest is computed on the first call and kept on the (frozen)
        instance outside its fields, so equality, ``hash()``, ``repr`` and
        :meth:`to_mapping` never see it; a sweep's dedupe, store lookup
        and store write share one computation.

        >>> spec = ScenarioSpec(policy="RANDOM")
        >>> spec.content_hash() is spec.content_hash()
        True
        """
        try:
            return self.__dict__["_content_hash"]
        except KeyError:
            pass
        payload = {"version": SPEC_VERSION, **self.to_mapping()}
        payload.pop("trace", None)  # identity is the content, not the path
        payload.pop("timeline", None)
        encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(encoded.encode("utf-8")).hexdigest()
        object.__setattr__(self, "_content_hash", digest)
        return digest

    def replace(self, **changes) -> "ScenarioSpec":
        """A copy of the spec with ``changes`` applied.

        Changing ``trace`` without an explicit ``trace_hash`` re-hashes
        the new file instead of carrying the old content hash over.

        >>> ScenarioSpec(policy="POWER").replace(policy="RANDOM").policy
        'RANDOM'
        """
        if "trace" in changes and "trace_hash" not in changes:
            changes["trace_hash"] = None
        if "timeline" in changes and "timeline_hash" not in changes:
            changes["timeline_hash"] = None
        values = list(_field_values(self))
        for name, value in changes.items():
            try:
                values[_FIELD_INDEX[name]] = value
            except KeyError:
                raise TypeError(f"ScenarioSpec has no field {name!r}") from None
        return ScenarioSpec(*values)


_FIELD_NAMES = tuple(field.name for field in dataclasses.fields(ScenarioSpec))
_FIELD_INDEX = {name: index for index, name in enumerate(_FIELD_NAMES)}
#: A spec's field values in declaration order, i.e. its positional arguments.
_field_values = operator.attrgetter(*_FIELD_NAMES)


@dataclass(frozen=True)
class SweepSpec:
    """A base scenario plus axes to vary: the declarative form of a grid.

    ``axes`` maps :class:`ScenarioSpec` field names to the values each
    takes; :meth:`iter_expand` yields the cartesian product in axis order
    (last axis fastest), which fixes the canonical scenario order of a
    sweep.

    >>> sweep = SweepSpec(
    ...     base=ScenarioSpec(experiment="placement", policy="RANDOM"),
    ...     axes={"seed": (0, 1, 2)},
    ... )
    >>> sweep.size
    3
    >>> [spec.seed for spec in sweep.iter_expand()]
    [0, 1, 2]
    """

    base: ScenarioSpec
    axes: tuple[tuple[str, tuple[object, ...]], ...] = ()

    def __post_init__(self) -> None:
        axes = self.axes
        if isinstance(axes, Mapping):
            axes = tuple(axes.items())
        normalized = []
        for name, values in axes:
            if name not in _FIELD_NAMES:
                raise ValueError(
                    f"unknown axis {name!r}; expected one of {_FIELD_NAMES}"
                )
            values = tuple(values)
            if not values:
                raise ValueError(f"axis {name!r} must provide at least one value")
            normalized.append((name, values))
        names = [name for name, _ in normalized]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate axes in {names}")
        object.__setattr__(self, "axes", tuple(normalized))

    @property
    def size(self) -> int:
        """Number of scenarios the sweep expands to (without expanding).

        >>> SweepSpec(ScenarioSpec(), {"seed": range(1000), "preference": (0.0, 1.0)}).size
        2000
        """
        total = 1
        for _, values in self.axes:
            total *= len(values)
        return total

    def iter_expand(self) -> Iterator[ScenarioSpec]:
        """Yield the grid's scenarios lazily, in deterministic cartesian order.

        A 100k-cell cross-product never materialises — each cell is built
        (and can be executed, stored and discarded) as the consumer
        reaches it.

        >>> import itertools
        >>> sweep = SweepSpec(ScenarioSpec(policy="RANDOM"), {"seed": range(100_000)})
        >>> [s.seed for s in itertools.islice(sweep.iter_expand(), 3)]
        [0, 1, 2]
        """
        if not self.axes:
            yield self.base
            return
        names = [name for name, _ in self.axes]
        value_lists = [values for _, values in self.axes]
        for combo in itertools.product(*value_lists):
            yield self.base.replace(**dict(zip(names, combo)))


GridLike = Union[ScenarioSpec, SweepSpec, Iterable[Union[ScenarioSpec, SweepSpec]]]


def iter_grid(grid: GridLike) -> Iterator[ScenarioSpec]:
    """Stream a grid as a flat, duplicate-free scenario iterator.

    Accepts a single :class:`ScenarioSpec`, a single :class:`SweepSpec`,
    or any iterable mixing both.  Duplicates (same content hash) keep
    their first occurrence, so composed grids stay stable under
    re-ordering of later sweeps.  The cross-product is generated cell by
    cell, so a 100k-scenario sweep starts executing immediately and never
    holds the whole grid in memory (only the seen-hash set, ~64 bytes per
    scenario, is retained for deduplication); ``tuple(iter_grid(grid))``
    materialises it.

    >>> import itertools
    >>> sweep = SweepSpec(ScenarioSpec(policy="RANDOM"), {"seed": range(100_000)})
    >>> next(iter_grid(sweep)).seed
    0
    >>> len(list(itertools.islice(iter_grid(sweep), 5)))
    5
    """
    if isinstance(grid, (ScenarioSpec, SweepSpec)):
        grid = (grid,)
    seen: set[str] = set()
    for entry in grid:
        expanded: Iterable[ScenarioSpec]
        if isinstance(entry, SweepSpec):
            expanded = entry.iter_expand()
        elif isinstance(entry, ScenarioSpec):
            expanded = (entry,)
        else:
            raise TypeError(
                f"grid entries must be ScenarioSpec or SweepSpec, got {type(entry).__name__}"
            )
        for scenario in expanded:
            digest = scenario.content_hash()
            if digest not in seen:
                seen.add(digest)
                yield scenario
