"""Workload trace persistence and replay.

Experiments sometimes need to re-run exactly the same request stream under
different policies (that is how Table II compares RANDOM, POWER and
PERFORMANCE fairly).  A trace is a plain CSV file with one row per task:

    arrival_time,flop,client,user_preference,service,cores,requested_runtime

:func:`save_trace` / :func:`load_trace` round-trip task sequences through
that format — loading *sorts* rows by ``(arrival_time, task_id)``, so a
trace file does not need to be pre-sorted — and :class:`TraceWorkload`
adapts a loaded trace (or any task iterable, lazily) to the
:class:`~repro.workload.generator.WorkloadGenerator` interface.

Real logs enter this format through :mod:`repro.workload.ingest`
(``repro trace convert``); the CSV schema is specified in
``docs/TRACE_FORMAT.md``.
"""

from __future__ import annotations

import csv
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Sequence

from repro.simulation.task import Task
from repro.workload.generator import WorkloadGenerator

_FIELDS = ("arrival_time", "flop", "client", "user_preference", "service")

#: Columns :func:`save_trace` appends; a file without them loads with the
#: task defaults (one core, no requested runtime).
_SIZE_FIELDS = ("cores", "requested_runtime")

_FLOAT_FIELDS = ("arrival_time", "flop", "user_preference")

#: The canonical workload order: ``(arrival_time, task_id)``.
_CANONICAL_ORDER = attrgetter("arrival_time", "task_id")


def save_trace(path: str | Path, tasks: Iterable[Task]) -> None:
    """Write ``tasks`` to ``path`` as a CSV trace.

    Floats are written with ``repr`` so a round-trip through
    :func:`load_trace` is bit-exact; an unknown ``requested_runtime`` is
    an empty cell.

    >>> import tempfile, os
    >>> path = os.path.join(tempfile.mkdtemp(), "trace.csv")
    >>> save_trace(path, [Task(arrival_time=1.5, flop=2e8, client="c-1"),
    ...                   Task(arrival_time=2.0, flop=1e8, client="c-2", cores=8,
    ...                        requested_runtime=900.0)])
    >>> print(open(path).read().strip())
    arrival_time,flop,client,user_preference,service,cores,requested_runtime
    1.5,200000000.0,c-1,0.0,cpu-burn,1,
    2.0,100000000.0,c-2,0.0,cpu-burn,8,900.0
    """
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(_FIELDS + _SIZE_FIELDS)
        for task in tasks:
            writer.writerow(
                [
                    repr(task.arrival_time),
                    repr(task.flop),
                    task.client,
                    repr(task.user_preference),
                    task.service,
                    task.cores,
                    "" if task.requested_runtime is None else repr(task.requested_runtime),
                ]
            )


def _trace_error(path: str | Path, line: int, message: str) -> ValueError:
    return ValueError(f"trace file {path}:{line}: {message}")


def load_trace(path: str | Path) -> tuple[Task, ...]:
    """Read a CSV trace written by :func:`save_trace` back into tasks.

    The returned tuple is sorted by ``(arrival_time, task_id)`` — the
    canonical workload order — regardless of row order in the file.
    The ``cores`` and ``requested_runtime`` columns are optional: a file
    without them loads every task with one core and no requested
    runtime.  Extra columns beyond those the format defines are
    tolerated (and ignored) as long as the header names them; a *row*
    that is wider or narrower than its header, a duplicated header
    column, a non-integer ``cores`` and any non-numeric value in a float
    field all raise :class:`ValueError` carrying ``path:line`` context.

    >>> import tempfile, os
    >>> path = os.path.join(tempfile.mkdtemp(), "trace.csv")
    >>> save_trace(path, [Task(arrival_time=2.0), Task(arrival_time=1.0)])
    >>> [task.arrival_time for task in load_trace(path)]  # sort-on-load
    [1.0, 2.0]
    """
    tasks: list[Task] = []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise _trace_error(path, 1, "empty file (expected a header row)")
        duplicates = {name for name in header if header.count(name) > 1}
        if duplicates:
            raise _trace_error(
                path, 1, f"duplicate header columns: {sorted(duplicates)}"
            )
        missing = set(_FIELDS) - set(header)
        if missing:
            raise ValueError(
                f"trace file {path} is missing columns: {sorted(missing)}"
            )
        arrival, flop, client, preference, service = map(header.index, _FIELDS)
        cores = header.index("cores") if "cores" in header else None
        runtime = header.index("requested_runtime") if "requested_runtime" in header else None
        for line_number, cells in enumerate(reader, start=2):
            if not cells:
                continue  # blank line
            if len(cells) != len(header):
                raise _trace_error(
                    path,
                    line_number,
                    f"row has {len(cells)} cells, header has {len(header)}",
                )
            try:
                runtime_cell = cells[runtime] if runtime is not None else ""
                # Positional, in field order: keywords make each Task
                # about a third dearer to build.
                tasks.append(
                    Task(
                        float(cells[flop]),
                        float(cells[arrival]),
                        cells[client],
                        float(cells[preference]),
                        cells[service],
                        int(cells[cores]) if cores is not None else 1,
                        float(runtime_cell) if runtime_cell else None,
                    )
                )
            except ValueError as error:
                raise _row_error(path, line_number, dict(zip(header, cells)), error) from None
    tasks.sort(key=_CANONICAL_ORDER)
    return tuple(tasks)


def _row_error(
    path: str | Path, line: int, row: dict[str, str], error: ValueError
) -> ValueError:
    """The first fault of a rejected row: the float columns, the sizes, then the task.

    ``error`` is what building the row raised; it is reported as is when
    every cell parses, because then the :class:`Task` itself refused the
    values.
    """
    for name in _FLOAT_FIELDS:
        try:
            float(row[name])
        except ValueError:
            return _trace_error(
                path, line, f"column {name!r} is not a number (got {row[name]!r})"
            )
    cores_cell = row.get("cores", "1")
    runtime_cell = row.get("requested_runtime", "")
    try:
        int(cores_cell)
        if runtime_cell:
            float(runtime_cell)
    except ValueError:
        return _trace_error(
            path,
            line,
            f"columns 'cores' and 'requested_runtime' need an integer and "
            f"a number or nothing (got {cores_cell!r}, {runtime_cell!r})",
        )
    return _trace_error(path, line, str(error))


class TraceWorkload(WorkloadGenerator):
    """A workload backed by a task sequence, materialised at most once.

    Construct it from an in-memory sequence or from any (possibly lazy)
    iterable.  Trace-driven scenarios defer file I/O until a worker
    process actually simulates them by opening the file only then
    (:meth:`repro.lab.components.WorkloadSource.resolve_tasks`).

    >>> workload = TraceWorkload(tasks=[Task(arrival_time=3.0), Task(arrival_time=1.0)])
    >>> [task.arrival_time for task in workload.generate()]
    [1.0, 3.0]
    """

    def __init__(self, tasks: Iterable[Task]) -> None:
        self.tasks = tasks
        self._materialised: tuple[Task, ...] | None = None
        #: Whether the tasks already come in the canonical order (set by
        #: :meth:`from_file`), so :meth:`generate` need not sort them.
        self._presorted = False

    def generate(self) -> Sequence[Task]:
        """The trace as a tuple sorted by ``(arrival_time, task_id)``.

        The first call materialises the tasks; the sorted tuple is cached
        for subsequent calls.
        """
        if self._materialised is None:
            source = self.tasks
            if not self._presorted:
                source = sorted(source, key=_CANONICAL_ORDER)
            self._materialised = tuple(source)
            self.tasks = self._materialised
        return self._materialised

    @classmethod
    def from_file(cls, path: str | Path) -> "TraceWorkload":
        """Load a trace file into a workload.

        A ``.swf`` extension selects the Standard Workload Format parser
        with the default field mapping (``repro trace convert`` exposes
        the mapping knobs when the defaults do not fit); anything else is
        read as the native CSV format.  Either way every experiment
        family sees the same task stream, so a raw SWF log and its
        converted CSV compose identically.

        >>> import tempfile, os
        >>> path = os.path.join(tempfile.mkdtemp(), "trace.csv")
        >>> save_trace(path, [Task(flop=5e7)])
        >>> [task.flop for task in TraceWorkload.from_file(path)]
        [50000000.0]
        """
        if Path(path).suffix.lower() == ".swf":
            from repro.workload.ingest import load_swf_trace

            workload = cls(load_swf_trace(path))
        else:
            workload = cls(load_trace(path))
        workload._presorted = True  # both loaders return the canonical order
        return workload

