"""Streaming parser for the Standard Workload Format (SWF).

SWF is the plain-text format of the Parallel Workloads Archive: a header
of ``;``-prefixed directives (``; Field: value``) followed by one job per
line with 18 whitespace-separated numeric fields.  ``-1`` marks an
unknown value in any field; many archived logs also omit trailing fields
entirely.  :func:`parse_swf` tolerates both — missing trailing fields are
treated exactly like ``-1`` — and streams :class:`SWFJob` records without
materialising the log, so multi-gigabyte archive files can be windowed or
truncated cheaply.

The 18 fields, in order (see ``docs/TRACE_FORMAT.md`` for the mapping
onto :class:`~repro.simulation.task.Task`):

========  =========================  =========================
position  name                       unit
========  =========================  =========================
1         job_id                     —
2         submit_time                s since trace start
3         wait_time                  s
4         run_time                   s
5         allocated_processors       count
6         average_cpu_time           s
7         used_memory                KB per processor
8         requested_processors       count
9         requested_time             s
10        requested_memory           KB per processor
11        status                     0–5 (1 = completed)
12        user_id                    —
13        group_id                   —
14        executable                 application number
15        queue                      queue number
16        partition                  partition number
17        preceding_job              job_id
18        think_time                 s after preceding job
========  =========================  =========================

Example — parse an in-memory log fragment:

>>> lines = [
...     "; MaxJobs: 2",
...     "1 0 5 60 4 -1 -1 4 120 -1 1 7 2 -1 1 -1 -1 -1",
...     "2 30 0 10 1 -1 -1 1 30 -1 1 8 2 -1 2 -1 -1 -1",
... ]
>>> jobs = list(parse_swf(lines))
>>> (jobs[0].job_id, jobs[0].run_time, jobs[0].allocated_processors)
(1, 60.0, 4)
>>> jobs[1].used_memory is None  # -1 means unknown
True
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping, Union

__all__ = ["SWFJob", "SWFParseError", "parse_swf", "read_swf_header", "SWF_FIELDS"]

#: The 18 SWF record fields, in file order.
SWF_FIELDS = (
    "job_id",
    "submit_time",
    "wait_time",
    "run_time",
    "allocated_processors",
    "average_cpu_time",
    "used_memory",
    "requested_processors",
    "requested_time",
    "requested_memory",
    "status",
    "user_id",
    "group_id",
    "executable",
    "queue",
    "partition",
    "preceding_job",
    "think_time",
)

#: Fields parsed as integers (identifiers and counts); the rest are floats.
_INT_FIELDS = frozenset(
    (
        "job_id",
        "allocated_processors",
        "requested_processors",
        "status",
        "user_id",
        "group_id",
        "executable",
        "queue",
        "partition",
        "preceding_job",
    )
)

#: A record must provide at least job_id/submit_time/wait_time/run_time to
#: be usable at all; anything shorter is treated as file corruption.
_MIN_RECORD_FIELDS = 4

Source = Union[str, Path, IO[str], Iterable[str]]


class SWFParseError(ValueError):
    """A malformed SWF record, with ``path:line`` context in the message."""


@dataclass(frozen=True)
class SWFJob:
    """One SWF job record with unknown (``-1`` or absent) fields as ``None``.

    ``job_id`` and ``submit_time`` are mandatory — a log entry without
    them is unusable — while every other field is optional, matching how
    sparsely some archive logs are populated.

    >>> job = SWFJob(job_id=1, submit_time=0.0, run_time=60.0,
    ...              allocated_processors=4, user_id=7, queue=1)
    >>> job.run_time * job.allocated_processors  # core-seconds consumed
    240.0
    """

    job_id: int
    submit_time: float
    wait_time: float | None = None
    run_time: float | None = None
    allocated_processors: int | None = None
    average_cpu_time: float | None = None
    used_memory: float | None = None
    requested_processors: int | None = None
    requested_time: float | None = None
    requested_memory: float | None = None
    status: int | None = None
    user_id: int | None = None
    group_id: int | None = None
    executable: int | None = None
    queue: int | None = None
    partition: int | None = None
    preceding_job: int | None = None
    think_time: float | None = None


def _open_lines(source: Source) -> tuple[Iterable[str], str, bool]:
    """Resolve ``source`` to (line iterable, display name, needs-close)."""
    if isinstance(source, (str, Path)):
        handle = open(source, "r", encoding="utf-8", errors="replace")
        return handle, str(source), True
    name = getattr(source, "name", "<swf>")
    return source, str(name), False


def _parse_field(name: str, token: str, where: str) -> int | float | None:
    try:
        value = int(token) if name in _INT_FIELDS else float(token)
    except ValueError:
        raise SWFParseError(
            f"{where}: field {name!r} is not numeric (got {token!r})"
        ) from None
    if not math.isfinite(value):  # nan would poison every later arrival
        raise SWFParseError(f"{where}: field {name!r} is not finite (got {token!r})")
    if value < 0:  # -1 (and any negative) means "unknown" in SWF
        return None
    return value


def parse_swf(source: Source) -> Iterator[SWFJob]:
    """Stream :class:`SWFJob` records from an SWF log.

    ``source`` may be a path, an open text handle, or any iterable of
    lines.  Header/comment lines (``;`` prefix) and blank lines are
    skipped.  Records shorter than 18 fields have their missing trailing
    fields treated as unknown; records shorter than 4 fields, records
    with non-numeric or non-finite (``nan``, ``inf``) tokens, and records
    with an unknown ``job_id`` or ``submit_time`` raise
    :class:`SWFParseError` carrying ``path:line`` context.

    >>> list(parse_swf(["1 10 -1 5 1"]))[0].submit_time
    10.0
    """
    lines, name, owns = _open_lines(source)
    try:
        for line_number, line in enumerate(lines, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith(";"):
                continue
            where = f"{name}:{line_number}"
            tokens = stripped.split()
            if len(tokens) < _MIN_RECORD_FIELDS:
                raise SWFParseError(
                    f"{where}: truncated record — {len(tokens)} field(s), "
                    f"need at least {_MIN_RECORD_FIELDS} of {len(SWF_FIELDS)}"
                )
            if len(tokens) > len(SWF_FIELDS):
                raise SWFParseError(
                    f"{where}: {len(tokens)} fields exceed the "
                    f"{len(SWF_FIELDS)}-field SWF record"
                )
            values = {
                field: _parse_field(field, token, where)
                for field, token in zip(SWF_FIELDS, tokens)
            }
            if values["job_id"] is None or values["submit_time"] is None:
                raise SWFParseError(
                    f"{where}: job_id and submit_time cannot be unknown (-1)"
                )
            yield SWFJob(**values)
    finally:
        if owns:
            lines.close()  # type: ignore[union-attr]


def read_swf_header(source: Source) -> Mapping[str, str]:
    """The leading ``; Key: value`` directives of an SWF log, in file order.

    Reading stops at the first job record, so this is cheap even on large
    files.  Plain ``;`` comment lines without a ``Key:`` shape are
    skipped; repeated keys keep their last value (continuation lines in
    archive headers restate the key).

    >>> read_swf_header(["; Version: 2.2", "; MaxJobs: 3", "1 0 0 9 1"])
    {'Version': '2.2', 'MaxJobs': '3'}
    """
    lines, _, owns = _open_lines(source)
    directives: dict[str, str] = {}
    try:
        for line in lines:
            stripped = line.strip()
            if not stripped:
                continue
            if not stripped.startswith(";"):
                break
            body = stripped.lstrip(";").strip()
            key, separator, value = body.partition(":")
            if separator and key.strip():
                directives[key.strip()] = value.strip()
    finally:
        if owns:
            lines.close()  # type: ignore[union-attr]
    return directives
