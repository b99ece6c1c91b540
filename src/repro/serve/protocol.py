"""Wire protocol of the placement service: JSON bodies over minimal HTTP/1.1.

The daemon and its clients speak plain HTTP with JSON bodies so that any
tool (``curl``, a load generator, the bundled replay client) can talk to
it, but the framing here is deliberately tiny — stdlib-only, persistent
connections, ``Content-Length`` bodies, no chunking — because the
container bakes no HTTP dependency in.  Both ends of the conversation
live in this module so the server and the replay client cannot drift
apart.

Lines end in CRLF only, and a head (start line + headers) longer than
the stream reader's limit (64 KiB by default) is a :class:`ProtocolError`.

Endpoints
---------
``POST /submit``
    Body: a :class:`SubmitRequest` JSON object.  Responses: 200 with an
    ``accepted`` :class:`SubmitResponse`, 429 ``rejected`` (per-tenant
    quota exhausted, with ``retry_after``), 503 ``shed`` (service queue
    full), 400 on malformed bodies.
``GET /stats``
    Live counters: admission totals, per-tenant ledgers, placement and
    batch statistics, the virtual clock.
``GET /healthz``
    Liveness probe, ``{"status": "ok"}``.
``POST /shutdown``
    Graceful stop: the daemon finishes in-flight batches, answers, and
    exits its serve loop.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass
from typing import Mapping

from repro.simulation.task import Task
from repro.util.validation import ensure_in_range, ensure_non_negative, ensure_positive

#: Reason phrases for the status codes the service emits.
_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    429: "Too Many Requests",
    503: "Service Unavailable",
}

#: Admission status -> HTTP status code.
STATUS_CODES = {"accepted": 200, "rejected": 429, "shed": 503}

#: Hard cap on request bodies (a submit request is a few hundred bytes).
MAX_BODY_BYTES = 1 << 20


class ProtocolError(ValueError):
    """A malformed request or response on the wire."""


@dataclass(frozen=True)
class SubmitRequest:
    """One task submission.

    ``time`` is the submission's *virtual* timestamp in seconds.  Replay
    clients set it to the trace arrival time (that is what makes an
    accelerated replay land on the same virtual clock as a real-time
    one); interactive clients may omit it, in which case the service
    stamps its current clock.
    """

    tenant: str
    flop: float
    time: float | None = None
    client: str | None = None
    service: str = "cpu-burn"
    preference: float = 0.0

    def __post_init__(self) -> None:
        # Task's rules, checked here so a bad body is a 400 before admission.
        if not self.tenant:
            raise ProtocolError("tenant must be a non-empty string")
        if not self.service:
            raise ProtocolError("service must be a non-empty string")
        try:
            ensure_positive(self.flop, "flop")
            ensure_in_range(self.preference, "preference", -1.0, 1.0)
            if self.time is not None:
                ensure_non_negative(self.time, "time")
        except (TypeError, ValueError) as error:
            raise ProtocolError(str(error)) from None

    def to_task(self, *, arrival_time: float) -> Task:
        """The simulation task this submission describes."""
        return Task(
            flop=self.flop,
            arrival_time=arrival_time,
            client=self.client or self.tenant,
            user_preference=self.preference,
            service=self.service,
        )

    def to_json(self) -> dict:
        payload: dict = {
            "tenant": self.tenant,
            "flop": self.flop,
            "service": self.service,
            "preference": self.preference,
        }
        if self.time is not None:
            payload["time"] = self.time
        if self.client is not None:
            payload["client"] = self.client
        return payload

    @classmethod
    def from_json(cls, payload: object) -> "SubmitRequest":
        if not isinstance(payload, Mapping):
            raise ProtocolError(f"submit body must be a JSON object, got {type(payload).__name__}")
        try:
            request = cls(
                tenant=str(payload["tenant"]),
                flop=float(payload["flop"]),
                time=None if payload.get("time") is None else float(payload["time"]),
                client=None if payload.get("client") is None else str(payload["client"]),
                service=str(payload.get("service", "cpu-burn")),
                preference=float(payload.get("preference", 0.0)),
            )
        except KeyError as missing:
            raise ProtocolError(f"submit body is missing field {missing.args[0]!r}") from None
        except (TypeError, ValueError) as error:
            raise ProtocolError(f"malformed submit body: {error}") from None
        return request


@dataclass(frozen=True)
class SubmitResponse:
    """The service's answer to one submission."""

    status: str  # "accepted" | "rejected" | "shed"
    time: float = 0.0  # virtual time the decision was made at
    node: str | None = None  # elected node ("accepted" with a placement)
    task_id: int | None = None
    reason: str = ""
    retry_after: float = 0.0

    @property
    def accepted(self) -> bool:
        return self.status == "accepted"

    def to_json(self) -> dict:
        payload: dict = {"status": self.status, "time": self.time}
        if self.node is not None:
            payload["node"] = self.node
        if self.task_id is not None:
            payload["task_id"] = self.task_id
        if self.reason:
            payload["reason"] = self.reason
        if self.retry_after:
            payload["retry_after"] = self.retry_after
        return payload

    @classmethod
    def from_json(cls, payload: object) -> "SubmitResponse":
        if not isinstance(payload, Mapping) or "status" not in payload:
            raise ProtocolError("response body must be a JSON object with a 'status'")
        return cls(
            status=str(payload["status"]),
            time=float(payload.get("time", 0.0)),
            node=None if payload.get("node") is None else str(payload["node"]),
            task_id=None if payload.get("task_id") is None else int(payload["task_id"]),
            reason=str(payload.get("reason", "")),
            retry_after=float(payload.get("retry_after", 0.0)),
        )


@dataclass(frozen=True)
class HttpRequest:
    """One parsed inbound HTTP request."""

    method: str
    path: str
    body: bytes = b""

    def json(self) -> object:
        try:
            return json.loads(self.body)
        except json.JSONDecodeError as error:
            raise ProtocolError(f"body is not valid JSON: {error}") from None


async def _read_message(reader: asyncio.StreamReader) -> tuple[str, dict[str, str], bytes] | None:
    """Start line, headers and body of one message; ``None`` on a clean EOF.

    A head cut short by EOF raises :class:`asyncio.IncompleteReadError`.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as error:
        if error.partial:
            raise
        return None
    except asyncio.LimitOverrunError:
        raise ProtocolError("message head exceeds the size limit") from None
    start, *lines = head[:-4].decode("latin-1").split("\r\n")
    headers: dict[str, str] = {}
    for line in lines:
        name, separator, value = line.partition(":")
        if not separator:
            raise ProtocolError(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError:
        raise ProtocolError(f"bad Content-Length {length_text!r}") from None
    if length < 0 or length > MAX_BODY_BYTES:
        raise ProtocolError(f"Content-Length {length} out of bounds")
    return start, headers, (await reader.readexactly(length) if length else b"")


async def read_request(reader: asyncio.StreamReader) -> HttpRequest | None:
    """Read one HTTP request; ``None`` on a cleanly closed connection."""
    message = await _read_message(reader)
    if message is None:
        return None
    start, headers, body = message
    parts = start.split()
    if len(parts) != 3:
        raise ProtocolError(f"malformed request line {start!r}")
    method, path, _version = parts
    return HttpRequest(method=method.upper(), path=path, body=body)


async def read_response(reader: asyncio.StreamReader) -> tuple[int, object]:
    """Read one HTTP response; returns ``(status_code, decoded_json_body)``."""
    message = await _read_message(reader)
    if message is None:
        raise ProtocolError("connection closed while awaiting a response")
    start, _headers, body = message
    parts = start.split(maxsplit=2)
    if len(parts) < 2 or not parts[1].isdigit():
        raise ProtocolError(f"malformed status line {start!r}")
    return int(parts[1]), (json.loads(body) if body else None)


def render_response(status: int, payload: object) -> bytes:
    """Serialise one JSON response with its framing headers."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Response')}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: keep-alive\r\n\r\n"
    )
    return head.encode("latin-1") + body


def render_request(method: str, path: str, payload: object | None = None) -> bytes:
    """Serialise one JSON request with its framing headers."""
    body = b""
    if payload is not None:
        body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: repro-serve\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: keep-alive\r\n\r\n"
    )
    return head.encode("latin-1") + body
