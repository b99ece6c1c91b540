"""Cached scenario results: a crash-safe sharded JSONL store and aggregation.

A result store is a :class:`ShardedResultStore` *directory* of per-shard
JSONL files (one JSON object per line, keyed by the scenario content
hash of :meth:`repro.runner.spec.ScenarioSpec.content_hash`, sharded by
hash prefix), built for 100k-scenario sweeps shared by many workers:
shards load lazily, so a cache lookup reads one shard, not the whole
store.  A regular file at the store path is not a store: opening it
raises ``ValueError`` and leaves the file as it is.

The store makes the resumability promise real under crashes and
concurrency:

* every record is appended as a **single ``O_APPEND`` write** under an
  advisory ``fcntl.flock`` exclusive lock, so concurrent appends from
  worker processes — on one host or across hosts on a shared
  filesystem — never interleave bytes;
* a **torn final line** left by a crashed append is tolerated on the
  next open: the partial bytes are moved to a ``*.quarantine`` sidecar
  (with a warning) and the file is truncated back to the last complete
  record, so whatever completed stays loadable and the next append
  starts on a clean line;
* a corrupt *interior* line — complete (newline-terminated) but
  unparseable — still raises ``ValueError``: that is genuine corruption,
  not a crash artefact, and must not be silently dropped.

A sweep consults a store before simulating: a hit returns the recorded
result without running anything, which turns repeated sweeps over a
growing grid into incremental work and makes any rerun of a crashed or
multi-worker sweep pure cache hits.
"""

from __future__ import annotations

import dataclasses
import json
import os
import threading
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from repro.runner.spec import ScenarioSpec

try:  # advisory locking is POSIX-only; stores degrade gracefully without it
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]


@dataclass(frozen=True)
class ScenarioResult:
    """Outcome of one scenario: a flat metric summary plus JSON detail.

    ``metrics`` holds the numeric summary common to all experiment
    families (``makespan``, ``total_energy``, ``task_count``,
    ``greenperf`` = energy per completed task, plus family-specific
    extras); ``detail`` holds richer JSON-compatible structures such as
    per-node task histograms.  ``cached`` marks results served from a
    store instead of a fresh simulation.
    """

    spec: ScenarioSpec
    metrics: Mapping[str, float]
    detail: Mapping[str, object] = field(default_factory=dict)
    cached: bool = False

    @property
    def scenario_hash(self) -> str:
        """Content hash of the underlying spec (the store key)."""
        return self.spec.content_hash()

    def to_record(self) -> dict[str, object]:
        """JSON-compatible store record (inverse of :meth:`from_record`)."""
        return {
            "hash": self.scenario_hash,
            "spec": self.spec.to_mapping(),
            "metrics": {key: float(value) for key, value in sorted(self.metrics.items())},
            "detail": dict(self.detail),
        }

    @classmethod
    def from_record(
        cls, record: Mapping[str, object], *, cached: bool = False
    ) -> "ScenarioResult":
        """Rebuild a result from a store record."""
        return cls(
            spec=ScenarioSpec.from_mapping(record["spec"]),
            metrics=dict(record["metrics"]),
            detail=dict(record.get("detail", {})),
            cached=cached,
        )


# -- crash-safe JSONL primitives --------------------------------------------------------


def _flock(fd: int, operation: int) -> None:
    if fcntl is not None:
        fcntl.flock(fd, operation)


def _quarantine_path(path: Path) -> Path:
    """Sidecar file collecting torn record tails of one store file."""
    return path.with_name(path.name + ".quarantine")


def _encode_record(record: Mapping[str, object]) -> bytes:
    return (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")


def _parse_record(line: bytes) -> Mapping[str, object]:
    """One store line as a record mapping; any defect raises ``ValueError``."""
    record = json.loads(line)
    if not isinstance(record, Mapping) or "hash" not in record:
        raise ValueError("record is not a mapping with a 'hash' key")
    return record


def _quarantine_tail(fd: int, path: Path, size: int, partial: bytes) -> None:
    """Move the torn tail ``partial`` of an open store file to the sidecar.

    Caller holds the exclusive lock on ``fd``; ``size`` is the current
    file size, ``partial`` its unterminated trailing bytes.  The partial
    line is appended to the ``*.quarantine`` sidecar and the store file
    truncated back to the last complete record, so subsequent appends
    never concatenate onto the torn bytes.
    """
    sidecar = _quarantine_path(path)
    with sidecar.open("ab") as handle:
        handle.write(partial + b"\n")
    os.ftruncate(fd, size - len(partial))
    warnings.warn(
        f"{path}: quarantined a truncated final record ({len(partial)} bytes, "
        f"left by a crashed append) to {sidecar.name}",
        RuntimeWarning,
        stacklevel=3,
    )


def _repair_tail(fd: int, path: Path) -> None:
    """Ensure the store file ends on a record boundary (lock held).

    A torn unparseable tail is quarantined; a *complete* record merely
    missing its newline (hand-edited file) gets the newline appended.
    """
    size = os.fstat(fd).st_size
    if size == 0 or os.pread(fd, 1, size - 1) == b"\n":
        return
    data = os.pread(fd, size, 0)
    partial = data[data.rfind(b"\n") + 1 :]
    try:
        _parse_record(partial)
    except ValueError:
        _quarantine_tail(fd, path, size, partial)
    else:
        os.write(fd, b"\n")  # O_APPEND fd: lands exactly at the tail


def _locked_append(path: Path, data: bytes) -> None:
    """Append ``data`` to ``path`` as one write under an exclusive lock.

    ``O_APPEND`` plus the single ``os.write`` call keeps concurrent
    appends from interleaving; the lock additionally serialises the
    pre-append tail repair (a predecessor may have crashed mid-write).
    """
    fd = os.open(path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        _flock(fd, fcntl.LOCK_EX if fcntl is not None else 0)
        _repair_tail(fd, path)
        written = os.write(fd, data)
        while written < len(data):  # pragma: no cover - short writes are exotic
            written += os.write(fd, data[written:])
    finally:
        os.close(fd)  # releases the lock


def _read_store_file(path: Path, records: dict[str, Mapping[str, object]]) -> None:
    """Parse one JSONL store file into ``records`` (last record per hash wins).

    Complete lines that fail to parse raise ``ValueError`` (genuine
    corruption); a torn final line without its newline is quarantined.
    Read under the exclusive lock so a concurrent append or repair never
    races the snapshot.
    """
    try:
        fd = os.open(path, os.O_RDWR)
        writable = True
    except FileNotFoundError:
        return
    except PermissionError:
        fd = os.open(path, os.O_RDONLY)
        writable = False
    try:
        if writable:
            _flock(fd, fcntl.LOCK_EX if fcntl is not None else 0)
        data = os.pread(fd, os.fstat(fd).st_size, 0)
        lines = data.split(b"\n")
        partial = lines.pop()  # bytes after the last newline (b"" when clean)
        for line_number, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                record = _parse_record(line)
            except ValueError as error:
                raise ValueError(
                    f"{path}:{line_number}: corrupt store record ({error})"
                ) from None
            records[str(record["hash"])] = record
        if partial.strip():
            try:
                record = _parse_record(partial)
            except ValueError:
                if writable:
                    _quarantine_tail(fd, path, len(data), partial)
                else:  # pragma: no cover - read-only stores are exotic
                    warnings.warn(
                        f"{path}: ignoring a truncated final record "
                        f"(store is read-only, not repaired)",
                        RuntimeWarning,
                        stacklevel=3,
                    )
            else:
                records[str(record["hash"])] = record
    finally:
        os.close(fd)


# -- the sharded store directory --------------------------------------------------------

#: Name of the layout descriptor inside a sharded store directory.
STORE_META_NAME = "store.json"

#: The layout name written into :data:`STORE_META_NAME`.
STORE_FORMAT = "sharded-jsonl"

#: The sharded layout version written into :data:`STORE_META_NAME`.
STORE_FORMAT_VERSION = 1


def _count_quarantined(sidecar: Path) -> int:
    if not sidecar.exists():
        return 0
    with sidecar.open("rb") as handle:
        return sum(1 for line in handle if line.strip())


class ShardedResultStore:
    """A store *directory* of per-shard JSONL files keyed by hash prefix.

    The first ``prefix_len`` hex digits of the scenario hash name the
    shard (``prefix_len`` 1 ⇒ 16 shards ``shard-0.jsonl`` …
    ``shard-f.jsonl``).  Shards load lazily: a cache lookup reads only
    the shard its hash lands in, so consulting a 100k-record store for
    one scenario stays O(store/shards), and N workers appending to a
    shared directory contend per shard, not per store.

    Layout (self-describing via ``store.json``)::

        results/                 ← the store "path"
          store.json             ← {"format": "sharded-jsonl", "prefix_len": 1, …}
          shard-0.jsonl          ← records whose hash starts with "0"
          …
          shard-f.jsonl
          shard-3.jsonl.quarantine   ← torn tails, when a writer crashed

    A new store is written with ``prefix_len`` 1; reopening adopts the
    ``prefix_len`` recorded in ``store.json``.  A ``store.json`` of
    another format, a newer version or an out-of-range ``prefix_len`` is
    rejected with ``ValueError`` on open, and so is a path that is a
    regular file.
    """

    def __init__(self, root: str | Path) -> None:
        self._root = Path(root)
        self._prefix_len = 1
        self._shards: dict[str, dict[str, Mapping[str, object]]] = {}
        self._opened = False

    @property
    def path(self) -> Path:
        """Location of the store directory."""
        return self._root

    @property
    def prefix_len(self) -> int:
        """Hex digits of the scenario hash that name a shard."""
        return self._prefix_len

    @property
    def shard_count(self) -> int:
        """Number of shards the layout addresses (16 ** prefix_len)."""
        return 16 ** self._prefix_len

    # -- layout -------------------------------------------------------------------------

    def _meta_path(self) -> Path:
        return self._root / STORE_META_NAME

    def _shard_key(self, scenario_hash: str) -> str:
        return scenario_hash[: self._prefix_len].lower()

    def shard_path(self, scenario_hash: str) -> Path:
        """The shard file a scenario hash lands in."""
        return self._root / f"shard-{self._shard_key(scenario_hash)}.jsonl"

    def shard_files(self) -> tuple[Path, ...]:
        """All shard files present on disk, sorted by name."""
        if not self._root.is_dir():
            return ()
        return tuple(sorted(self._root.glob("shard-*.jsonl")))

    def _write_meta(self) -> None:
        """Write the metadata file whole: readers see no file or a complete one.

        Concurrent workers opening a fresh store race here (each writes the
        file on its first ``put``), so the metadata goes to a temporary file
        private to this process and thread, renamed over ``store.json``.
        It is opened like a shard, so its mode follows the umask too.
        """
        meta = {
            "format": STORE_FORMAT,
            "version": STORE_FORMAT_VERSION,
            "prefix_len": self._prefix_len,
        }
        temporary = self._root / f".{STORE_META_NAME}.{os.getpid()}.{threading.get_ident()}"
        try:
            temporary.write_text(json.dumps(meta, sort_keys=True) + "\n", "utf-8")
            os.replace(temporary, self._meta_path())
        except BaseException:
            temporary.unlink(missing_ok=True)
            raise

    def _read_meta(self) -> None:
        meta_path = self._meta_path()
        if not meta_path.exists():
            return
        try:
            meta = json.loads(meta_path.read_text("utf-8"))
            if meta["format"] != STORE_FORMAT:
                raise ValueError(
                    f"format {meta['format']!r} is not {STORE_FORMAT!r}"
                )
            if not 1 <= int(meta["version"]) <= STORE_FORMAT_VERSION:
                raise ValueError(
                    f"version {meta['version']!r} is not in "
                    f"[1, {STORE_FORMAT_VERSION}]"
                )
            prefix_len = int(meta["prefix_len"])
            if not 1 <= prefix_len <= 4:
                raise ValueError(f"prefix_len must be in [1, 4], got {prefix_len}")
            self._prefix_len = prefix_len
        except (KeyError, TypeError, ValueError) as error:
            raise ValueError(f"{meta_path}: invalid store metadata ({error})") from None

    # -- open -------------------------------------------------------------------------

    def load(self) -> "ShardedResultStore":
        """Open the store: adopt the on-disk layout from ``store.json``.

        Shard *contents* are not read here — they load lazily per lookup.
        A regular file at the store path raises ``ValueError`` and is
        left untouched.
        """
        if self._opened:
            return self
        if self._root.is_file():
            raise ValueError(
                f"{self._root} is a file, not a result store: result stores "
                f"are directories"
            )
        self._read_meta()
        self._opened = True
        return self

    def refresh(self) -> "ShardedResultStore":
        """Drop lazily-loaded shards so other workers' appends are seen."""
        self._shards.clear()
        return self

    # -- lookup / append ----------------------------------------------------------------

    def _shard(self, scenario_hash: str) -> dict[str, Mapping[str, object]]:
        self.load()
        key = self._shard_key(scenario_hash)
        shard = self._shards.get(key)
        if shard is None:
            shard = {}
            _read_store_file(self._root / f"shard-{key}.jsonl", shard)
            self._shards[key] = shard
        return shard

    def _load_all(self) -> None:
        self.load()
        for path in self.shard_files():
            key = path.name[len("shard-") : -len(".jsonl")]
            if key not in self._shards:
                shard: dict[str, Mapping[str, object]] = {}
                _read_store_file(path, shard)
                self._shards[key] = shard

    def __len__(self) -> int:
        self._load_all()
        return sum(len(shard) for shard in self._shards.values())

    def __contains__(self, scenario_hash: str) -> bool:
        return scenario_hash in self._shard(scenario_hash)

    def get(self, scenario_hash: str) -> ScenarioResult | None:
        """The stored result of one scenario hash (marked cached), or ``None``.

        Reads (at most) the one shard file the hash lands in.
        """
        record = self._shard(scenario_hash).get(scenario_hash)
        if record is None:
            return None
        return ScenarioResult.from_record(record, cached=True)

    def put(self, result: ScenarioResult) -> None:
        """Append one result to its shard file and the in-memory index."""
        self.load()
        record = result.to_record()
        digest = str(record["hash"])
        self._root.mkdir(parents=True, exist_ok=True)
        if not self._meta_path().exists():
            self._write_meta()
        _locked_append(self.shard_path(digest), _encode_record(record))
        key = self._shard_key(digest)
        if key in self._shards:
            self._shards[key][digest] = record

    def results(self) -> tuple[ScenarioResult, ...]:
        """All stored results, ordered by scenario id for determinism."""
        self._load_all()
        loaded = [
            ScenarioResult.from_record(record, cached=True)
            for shard in self._shards.values()
            for record in shard.values()
        ]
        loaded.sort(key=lambda result: result.spec.scenario_id)
        return tuple(loaded)

    def quarantined(self) -> int:
        """Number of torn records quarantined across all shards."""
        if not self._root.is_dir():
            return 0
        return sum(
            _count_quarantined(sidecar)
            for sidecar in sorted(self._root.glob("*.quarantine"))
        )


def open_store(path: str | Path) -> ShardedResultStore:
    """The result store at ``path``, whatever its name or suffix.

    A fresh path becomes a store directory on the first write; a regular
    file at ``path`` is refused when the store is loaded.
    """
    return ShardedResultStore(path)


#: Metrics every experiment family reports, and the percentiles a summary gives.
SUMMARY_METRICS = ("makespan", "total_energy", "greenperf")
SUMMARY_PERCENTILES = (50.0, 95.0)


def _group_key(result: ScenarioResult, group_by: Sequence[str]) -> tuple:
    key = []
    for name in group_by:
        if name in result.metrics:
            key.append(result.metrics[name])
        else:
            try:
                key.append(getattr(result.spec, name))
            except AttributeError:
                valid = ", ".join(
                    spec_field.name for spec_field in dataclasses.fields(ScenarioSpec)
                )
                raise ValueError(
                    f"unknown group_by field {name!r}; expected a metric name "
                    f"or one of the spec fields: {valid}"
                ) from None
    return tuple(key)


def summarize(
    results: Iterable[ScenarioResult],
    *,
    group_by: Sequence[str] = ("experiment", "policy"),
) -> tuple[Mapping[str, object], ...]:
    """Aggregate scenario results per group key.

    ``group_by`` names :class:`ScenarioSpec` fields (or metric names); each
    returned row carries the group values, the scenario count, and — for
    every :data:`SUMMARY_METRICS` entry — the mean plus the
    :data:`SUMMARY_PERCENTILES`, as
    ``"<metric>_mean"`` / ``"<metric>_p<q>"`` entries.  Rows are sorted by
    group key, so the aggregation of a sweep is byte-stable regardless of
    the execution order of its scenarios.  An unknown group-by name
    raises ``ValueError`` listing the valid spec fields.
    """
    import numpy as np

    group_by = tuple(group_by)
    grouped: dict[tuple, list[ScenarioResult]] = {}
    for result in results:
        grouped.setdefault(_group_key(result, group_by), []).append(result)

    def _sort_key(key: tuple) -> tuple:
        # Numeric parts sort numerically, strings lexically; the leading
        # bool keeps mixed-type positions comparable.
        return tuple(
            (True, part, 0.0) if isinstance(part, str) else (False, "", float(part))
            for part in key
        )

    rows: list[Mapping[str, object]] = []
    for key in sorted(grouped, key=_sort_key):
        members = grouped[key]
        row: dict[str, object] = dict(zip(group_by, key))
        row["count"] = len(members)
        for metric in SUMMARY_METRICS:
            values = [m.metrics[metric] for m in members if metric in m.metrics]
            if not values:
                continue
            data = np.asarray(values, dtype=float)
            row[f"{metric}_mean"] = float(data.mean())
            for q in SUMMARY_PERCENTILES:
                row[f"{metric}_p{q:g}"] = float(np.percentile(data, q))
        rows.append(row)
    return tuple(rows)

