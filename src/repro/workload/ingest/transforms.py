"""Composable trace transforms: one real log → dozens of scenarios.

Each transform is a small frozen value object mapping a task stream to a
task stream; :func:`apply_transforms` chains them lazily, so windowing or
truncating a large converted log never materialises the whole trace.
Every transform preserves the order of the stream it receives, and the
filtering transforms (:class:`TimeWindow`, :class:`SampleUsers`) decide
per task, so they are correct even on logs whose records are not
submit-ordered (raw archive files occasionally are not).  Only
:class:`Truncate` is stream-order dependent: it keeps the first tasks
*in input order* (file order, for SWF input).

>>> from repro.simulation.task import Task
>>> tasks = [Task(arrival_time=float(i), flop=1e8) for i in range(10)]
>>> window = TimeWindow(start=2.0, end=6.0)
>>> faster = ScaleArrivals(0.5)
>>> [t.arrival_time for t in apply_transforms(tasks, (window, faster))]
[0.0, 0.5, 1.0, 1.5]
"""

from __future__ import annotations

import dataclasses
import hashlib
from abc import ABC, abstractmethod
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Sequence

from repro.simulation.task import Task
from repro.util.validation import ensure_non_negative, ensure_positive

__all__ = [
    "TraceTransform",
    "TimeWindow",
    "ScaleArrivals",
    "ScaleLoad",
    "SampleUsers",
    "Truncate",
    "apply_transforms",
]


class TraceTransform(ABC):
    """Maps an arrival-ordered task stream to an arrival-ordered stream."""

    @abstractmethod
    def apply(self, tasks: Iterable[Task]) -> Iterator[Task]:
        """Yield the transformed tasks, preserving arrival order."""


@dataclass(frozen=True)
class TimeWindow(TraceTransform):
    """Keep tasks with ``start <= arrival < end``, re-anchored to t=0.

    Slicing one log into consecutive windows is the
    cheapest way to turn a day-long trace into many burst scenarios.
    Selection is a pure per-task filter — an out-of-order record in the
    middle of a log is still kept if it falls inside the window.

    >>> from repro.simulation.task import Task
    >>> tasks = [Task(arrival_time=t) for t in (0.0, 5.0, 9.0, 12.0)]
    >>> [t.arrival_time for t in TimeWindow(5.0, 12.0).apply(tasks)]
    [0.0, 4.0]
    """

    start: float = 0.0
    end: float = float("inf")

    def __post_init__(self) -> None:
        ensure_non_negative(self.start, "start")
        if self.end <= self.start:
            raise ValueError(
                f"end ({self.end}) must be greater than start ({self.start})"
            )

    def apply(self, tasks: Iterable[Task]) -> Iterator[Task]:
        shift = self.start
        for task in tasks:
            if self.start <= task.arrival_time < self.end:
                if shift:
                    task = dataclasses.replace(
                        task, arrival_time=task.arrival_time - shift
                    )
                yield task


@dataclass(frozen=True)
class ScaleArrivals(TraceTransform):
    """Multiply arrival times by ``factor`` (< 1 compresses ⇒ higher rate).

    Burst shape is preserved — only the clock stretches — which makes
    this the knob for load-level sweeps over one real arrival pattern.

    >>> from repro.simulation.task import Task
    >>> [t.arrival_time for t in ScaleArrivals(2.0).apply([Task(arrival_time=3.0)])]
    [6.0]
    """

    factor: float

    def __post_init__(self) -> None:
        ensure_positive(self.factor, "factor")

    def apply(self, tasks: Iterable[Task]) -> Iterator[Task]:
        for task in tasks:
            yield dataclasses.replace(
                task, arrival_time=task.arrival_time * self.factor
            )


@dataclass(frozen=True)
class ScaleLoad(TraceTransform):
    """Multiply each task's FLOP cost by ``factor`` (arrivals untouched).

    >>> from repro.simulation.task import Task
    >>> [t.flop for t in ScaleLoad(0.5).apply([Task(flop=1e8)])]
    [50000000.0]
    """

    factor: float

    def __post_init__(self) -> None:
        ensure_positive(self.factor, "factor")

    def apply(self, tasks: Iterable[Task]) -> Iterator[Task]:
        for task in tasks:
            yield dataclasses.replace(task, flop=task.flop * self.factor)


@dataclass(frozen=True)
class SampleUsers(TraceTransform):
    """Keep a deterministic ~``fraction`` of clients (all-or-nothing each).

    Sampling whole clients — not individual tasks — preserves per-user
    arrival correlation, the property that makes real traces bursty.
    Selection hashes ``"seed:client"``; it is stable across processes,
    platforms and Python hash randomisation, so a sampled scenario has a
    reproducible content hash.

    >>> from repro.simulation.task import Task
    >>> tasks = [Task(client=f"user{i}") for i in range(100)]
    >>> kept = {t.client for t in SampleUsers(0.25, seed=1).apply(tasks)}
    >>> 0 < len(kept) < 100
    True
    """

    fraction: float
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {self.fraction}")

    def _keeps(self, client: str) -> bool:
        digest = hashlib.sha256(f"{self.seed}:{client}".encode("utf-8")).digest()
        bucket = int.from_bytes(digest[:8], "big") / 2**64
        return bucket < self.fraction

    def apply(self, tasks: Iterable[Task]) -> Iterator[Task]:
        verdicts: dict[str, bool] = {}
        for task in tasks:
            keep = verdicts.get(task.client)
            if keep is None:
                keep = verdicts[task.client] = self._keeps(task.client)
            if keep:
                yield task


@dataclass(frozen=True)
class Truncate(TraceTransform):
    """Keep only the first ``count`` tasks *in stream order*.

    For SWF input the stream order is file order, which is submit order
    in well-formed archive logs.

    >>> from repro.simulation.task import Task
    >>> len(list(Truncate(3).apply(Task() for _ in range(10))))
    3
    """

    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")

    def apply(self, tasks: Iterable[Task]) -> Iterator[Task]:
        return islice(iter(tasks), self.count)


def apply_transforms(
    tasks: Iterable[Task], transforms: Sequence[TraceTransform]
) -> Iterator[Task]:
    """Chain ``transforms`` left-to-right over a task stream, lazily.

    >>> from repro.simulation.task import Task
    >>> pipeline = (Truncate(2), ScaleLoad(2.0))
    >>> [t.flop for t in apply_transforms([Task(flop=1e8)] * 5, pipeline)]
    [200000000.0, 200000000.0]
    """
    stream: Iterable[Task] = tasks
    for transform in transforms:
        stream = transform.apply(stream)
    return iter(stream)
