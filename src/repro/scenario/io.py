"""Timeline files: TOML/JSON loading and bundled scenarios.

The on-disk format (``docs/SCENARIOS.md``) is a list of
``kind``-discriminated event tables::

    title = "two tariff drops and a heat peak"

    [[events]]
    kind = "tariff_change"
    time = 3600.0
    cost = 0.8

    [[events]]
    kind = "node_failure"
    time = 1200.0
    node = "orion-0"

JSON uses the same shape (``{"title": ..., "events": [...]}``).  Both
formats parse to the same :class:`~repro.scenario.events.EventTimeline`
and therefore the same content hash — timeline identity is the parsed
content, never the file syntax or path.

TOML parsing uses :mod:`tomllib` (stdlib since Python 3.11); on older
interpreters TOML files raise a clear error while JSON keeps working.
A file that cannot be read or parsed, or whose events are malformed,
raises :class:`~repro.scenario.events.TimelineError` naming the file
(and the event's position, for a bad event).
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path
from typing import Mapping

from repro.scenario.events import EventTimeline, TimelineError, event_from_mapping

try:  # pragma: no cover - tomllib is stdlib on the supported 3.11 toolchain
    import tomllib
except ImportError:  # pragma: no cover - Python 3.10 fallback
    tomllib = None  # type: ignore[assignment]

#: Directory of the timelines shipped with the package.
_BUNDLED_DIR = Path(__file__).resolve().parent / "data"


def _parse_payload(payload: Mapping[str, object], source: str) -> EventTimeline:
    entries = payload.get("events")
    if not isinstance(entries, list):
        raise TimelineError(
            f"{source}: a timeline file needs a top-level 'events' array"
        )
    events = []
    for index, entry in enumerate(entries):
        try:
            events.append(event_from_mapping(entry))
        except TimelineError as error:
            raise TimelineError(f"{source}: event {index}: {error}") from None
    try:
        return EventTimeline(events)
    except TimelineError as error:
        raise TimelineError(f"{source}: {error}") from None


def load_timeline(path: str | Path) -> EventTimeline:
    """Load a timeline from a ``.toml`` or ``.json`` file.

    The format is selected by extension (anything other than ``.json``
    is treated as TOML, matching the documented format family).
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as error:
        raise TimelineError(f"cannot read timeline file {path}: {error}") from None
    if path.suffix.lower() == ".json":
        try:
            payload = json.loads(raw.decode("utf-8"))
        except ValueError as error:  # bad UTF-8, bad JSON, an over-long integer
            raise TimelineError(f"{path}: invalid JSON: {error}") from None
        except RecursionError:
            raise TimelineError(f"{path}: invalid JSON: nested too deeply") from None
    else:
        if tomllib is None:  # pragma: no cover - Python 3.10 fallback
            raise TimelineError(
                f"{path}: TOML timelines need Python >= 3.11 (tomllib); "
                f"convert the file to JSON"
            )
        try:
            payload = tomllib.loads(raw.decode("utf-8"))
        except ValueError as error:  # bad UTF-8, bad TOML, an over-long integer
            raise TimelineError(f"{path}: invalid TOML: {error}") from None
        except RecursionError:
            raise TimelineError(f"{path}: invalid TOML: nested too deeply") from None
    if not isinstance(payload, dict):
        raise TimelineError(f"{path}: a timeline file must be a table/object")
    return _parse_payload(payload, str(path))


def timeline_file_hash(path: str | Path) -> str:
    """Content hash of the timeline a file describes.

    Unlike :func:`repro.runner.spec.trace_file_hash` this hashes the
    *parsed* timeline, not the file bytes: reformatting a TOML file, or
    converting it to JSON, keeps its cached sweep results valid, while
    changing any event invalidates them.

    >>> import tempfile, os
    >>> path = os.path.join(tempfile.mkdtemp(), "t.json")
    >>> _ = open(path, "w").write('{"events": [{"kind": "tariff_change", "time": 60.0, "cost": 0.8}]}')
    >>> len(timeline_file_hash(path))
    64
    """
    return load_timeline(path).content_hash()


def bundled_timeline_path(name: str) -> Path:
    """Path of a timeline shipped with the package (e.g. ``"figure9"``)."""
    path = _BUNDLED_DIR / f"{name}.toml"
    if not path.exists():
        available = sorted(p.stem for p in _BUNDLED_DIR.glob("*.toml"))
        raise TimelineError(
            f"unknown bundled timeline {name!r}; available: {available}"
        )
    return path


@lru_cache(maxsize=None)
def bundled_timeline(name: str) -> EventTimeline:
    """Load a timeline shipped with the package (cached — timelines are immutable).

    >>> len(bundled_timeline("figure9"))
    4
    """
    return load_timeline(bundled_timeline_path(name))
