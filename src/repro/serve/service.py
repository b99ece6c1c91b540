"""The placement daemon: admission, micro-batching, and the HTTP front end.

:class:`PlacementService` is the long-lived process of the serving layer.
It owns one :class:`~repro.serve.state.ServeState` (the resident
middleware stack), one :class:`~repro.serve.admission.AdmissionController`
(the tenant gates) and one asyncio TCP server speaking the protocol of
:mod:`repro.serve.protocol`.

Request path
------------
Each connection runs one reader loop and one writer task, never a task
per request.  The reader answers ``/stats``, ``/healthz``,
``/shutdown``, 4xx errors and the 429/503 of the admission gates inline,
as bytes.  An admitted ``POST /submit`` is parked on a pending queue
with a future; a single **batcher** task drains whatever accumulated
into one :meth:`ServeState.place_batch` scoring pass and resolves the
futures with the rendered responses.  Concurrency is the batching mechanism:
requests that arrive while a batch is being scored pile up and form the
next batch, so one scheduler pass serves many sockets (``batch_window``
adds an optional fixed accumulation delay on top).

The service never reads a wall clock.  Virtual time comes entirely from
the ``time`` field of the submissions (clamped monotone), which is what
makes an accelerated replay indistinguishable from a real-time one —
and the whole daemon deterministic under test.
"""

from __future__ import annotations

import asyncio
from collections import deque

from repro.serve.admission import AdmissionController, SHED
from repro.serve.protocol import (
    STATUS_CODES,
    HttpRequest,
    ProtocolError,
    SubmitRequest,
    read_request,
    render_response,
)
from repro.serve.state import PlacementDecision, ServeState
from repro.simulation.task import Task
from repro.util.validation import ensure_non_negative


class PlacementService:
    """One daemon: state + admission + batcher + TCP front end."""

    def __init__(
        self,
        state: ServeState,
        *,
        admission: AdmissionController | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        batch_window: float = 0.0,
    ) -> None:
        ensure_non_negative(batch_window, "batch_window")
        self.state = state
        self.admission = admission if admission is not None else AdmissionController()
        self.host = host
        self.port = port  # 0 = ephemeral; the bound port replaces it on start()
        self.batch_window = batch_window
        self._pending: deque[tuple[Task, asyncio.Future]] = deque()
        self._wakeup = asyncio.Event()
        self._shutdown = asyncio.Event()
        self._server: asyncio.AbstractServer | None = None
        self._batcher: asyncio.Task | None = None
        self._connections: set[asyncio.Task] = set()
        self._clock_floor = state.now  # admission clock, kept monotone
        self._batches = 0
        self._batched = 0
        self._largest_batch = 0

    # -- lifecycle ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the socket and start the batcher; returns once listening."""
        if self._server is not None:
            raise RuntimeError("service already started")
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._batcher = asyncio.create_task(self._batch_loop())

    async def serve_until_shutdown(self) -> None:
        """Block until ``POST /shutdown`` (or :meth:`request_shutdown`), then stop."""
        await self._shutdown.wait()
        await self.stop()

    def request_shutdown(self) -> None:
        """Initiate a graceful stop (idempotent)."""
        self._shutdown.set()

    async def stop(self) -> None:
        """Flush pending work, stop the batcher, close the socket."""
        self.request_shutdown()
        self._flush()  # answer every admitted-but-unplaced submission
        if self._batcher is not None:
            self._batcher.cancel()
            try:
                await self._batcher
            except asyncio.CancelledError:
                pass
            self._batcher = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._connections:
            # Clients that saw the shutdown response close their end and
            # their handlers exit; anything still open after the grace
            # period is cancelled so the loop shuts down without strays.
            _done, lingering = await asyncio.wait(set(self._connections), timeout=1.0)
            for connection in lingering:
                connection.cancel()
            if lingering:
                await asyncio.gather(*lingering, return_exceptions=True)
            self._connections.clear()

    @property
    def address(self) -> str:
        """``host:port`` the daemon is listening on."""
        return f"{self.host}:{self.port}"

    # -- micro-batching -------------------------------------------------------------
    async def _batch_loop(self) -> None:
        while True:
            await self._wakeup.wait()
            self._wakeup.clear()
            if self.batch_window > 0:
                # Accumulation window: let concurrent submissions pile up
                # so one scoring pass answers them all.
                await asyncio.sleep(self.batch_window)
            else:
                # Yield once so already-parsed concurrent requests join.
                await asyncio.sleep(0)
            self._flush()

    def _flush(self) -> None:
        """Score everything pending in one batch and resolve the futures."""
        if not self._pending:
            return
        batch = list(self._pending)
        self._pending.clear()
        decisions = self.state.place_batch([task for task, _future in batch])
        self._batches += 1
        self._batched += len(batch)
        self._largest_batch = max(self._largest_batch, len(batch))
        for (_task, future), decision in zip(batch, decisions):
            if not future.done():
                future.set_result(_placement_response(decision))

    # -- request handling -------------------------------------------------------------
    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One connection: read ahead, answer strictly in request order.

        The reader appends each request's answer to the outbox without
        awaiting it — bytes, or the future of a parked placement — so
        pipelined submissions form one micro-batch.  The writer waits for
        the outbox head, then sends it and every answered entry behind it
        with one write: a pipelined burst costs one send, and a ready
        answer never overtakes a pending placement.
        """
        connection = asyncio.current_task()
        self._connections.add(connection)
        outbox: deque[bytes | asyncio.Future | None] = deque()  # None ends it
        queued = asyncio.Event()

        async def _write_in_order() -> None:
            while True:
                while not outbox:
                    queued.clear()
                    await queued.wait()
                if outbox[0] is None:
                    return
                if not isinstance(outbox[0], bytes):
                    await outbox[0]
                chunks: list[bytes] = []
                while outbox and outbox[0] is not None:
                    entry = outbox[0]
                    if not isinstance(entry, bytes):
                        if not entry.done():
                            break  # a pending placement: nothing overtakes it
                        entry = entry.result()
                    chunks.append(entry)
                    outbox.popleft()
                writer.write(b"".join(chunks))
                await writer.drain()

        writer_task = asyncio.create_task(_write_in_order())
        try:
            while True:
                try:
                    request = await read_request(reader)
                except (ProtocolError, asyncio.IncompleteReadError):
                    break
                if request is None:
                    break
                outbox.append(self._answer(request))
                queued.set()
        finally:
            outbox.append(None)
            queued.set()
            try:
                await writer_task
            except ConnectionError:
                pass
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass
            self._connections.discard(connection)

    def _answer(self, request: HttpRequest) -> bytes | asyncio.Future:
        """The response to ``request``: bytes, or the future of a placement."""
        route = (request.method, request.path)
        if route == ("POST", "/submit"):
            return self._submit(request)
        if route == ("GET", "/stats"):
            return render_response(200, self.stats())
        if route == ("GET", "/healthz"):
            return render_response(200, {"status": "ok"})
        if route == ("POST", "/shutdown"):
            self.request_shutdown()
            return render_response(200, {"status": "ok", "stopping": True})
        known = {"/submit", "/stats", "/healthz", "/shutdown"}
        if request.path in known:
            return render_response(405, {"error": f"wrong method for {request.path}"})
        return render_response(404, {"error": f"no route {request.path}"})

    def _submit(self, request: HttpRequest) -> bytes | asyncio.Future:
        try:
            submit = SubmitRequest.from_json(request.json())
        except ProtocolError as error:
            return render_response(400, {"error": str(error)})
        # The admission clock: the submission's virtual timestamp, never
        # behind the scheduler clock or a previously admitted request.
        now = submit.time if submit.time is not None else self.state.now
        self._clock_floor = max(self._clock_floor, now, self.state.now)
        now = self._clock_floor
        if self._shutdown.is_set():
            return render_response(
                503, {"status": SHED, "time": now, "reason": "service shutting down"}
            )
        decision = self.admission.admit(
            submit.tenant, now=now, queue_depth=len(self._pending)
        )
        if not decision.admitted:
            payload = {
                "status": decision.status,
                "time": now,
                "reason": decision.reason,
            }
            if decision.retry_after:
                payload["retry_after"] = decision.retry_after
            return render_response(STATUS_CODES[decision.status], payload)
        task = submit.to_task(arrival_time=now)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending.append((task, future))
        self._wakeup.set()
        return future

    # -- introspection ------------------------------------------------------------------
    def stats(self) -> dict:
        """The ``/stats`` payload: admission, batching and state counters."""
        return {
            "admission": self.admission.totals(),
            "tenants": self.admission.snapshot(),
            "batches": {
                "count": self._batches,
                "tasks": self._batched,
                "largest": self._largest_batch,
                "pending": len(self._pending),
            },
            "state": self.state.snapshot(),
        }


def _placement_response(placement: PlacementDecision) -> bytes:
    """The 200 ``accepted`` response of one placed (or unplaceable) submission."""
    payload = {
        "status": "accepted",
        "time": placement.time,
        "task_id": placement.task_id,
        "node": placement.node,
    }
    if placement.node is None:
        payload["reason"] = "no server can solve the request"
    return render_response(200, payload)
