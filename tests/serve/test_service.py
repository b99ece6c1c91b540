"""PlacementService: HTTP round trips, admission over the wire, shutdown."""

import asyncio
import logging
import math

import pytest

from repro.lab import (
    LabSession,
    PlatformSource,
    PolicySource,
    WorkloadSource,
)
from repro.serve import (
    AdmissionController,
    PlacementService,
    replay_trace,
)
from repro.cli import main
from repro.serve.protocol import read_response, render_request
from repro.simulation.trace import ExecutionTrace
from tests.conftest import of_kind, served_state

MINI_SWF = "tests/data/mini.swf"


def make_service(**admission_kwargs) -> PlacementService:
    return PlacementService(
        served_state(),
        admission=AdmissionController(**admission_kwargs),
    )


async def request(port: int, method: str, path: str, payload=None):
    """One request over a fresh connection; returns (status, body)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(render_request(method, path, payload))
        await writer.drain()
        return await read_response(reader)
    finally:
        writer.close()
        await writer.wait_closed()


async def answer(reader):
    """The next response, or a test failure instead of a hang if none comes."""
    return await asyncio.wait_for(read_response(reader), timeout=5.0)


def submit_payload(tenant="t", flop=1e9, time=None, **extra):
    payload = {"tenant": tenant, "flop": flop, **extra}
    if time is not None:
        payload["time"] = time
    return payload


class TestRoundTrip:
    def test_submit_returns_a_placement(self):
        async def scenario():
            service = make_service()
            await service.start()
            try:
                status, body = await request(
                    service.port, "POST", "/submit", submit_payload(time=0.0)
                )
                assert status == 200
                assert body["status"] == "accepted"
                assert body["node"] in ("orion-0", "taurus-0", "sagittaire-0")
                assert body["task_id"] >= 0
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_replay_matches_closed_loop_lab_run(self):
        """The acceptance criterion: daemon + replay == batch simulation."""
        session = LabSession(
            platform=PlatformSource.table1(1),
            workload=WorkloadSource.from_trace(MINI_SWF),
            policy=PolicySource("GREENPERF"),
        )
        closed = [
            event.details["node"]
            for event in of_kind(session.run().simulation.trace, ExecutionTrace.TASK_SCHEDULED)
        ]

        async def scenario():
            served_session = LabSession(
                platform=PlatformSource.table1(1),
                workload=WorkloadSource.served(),
                policy=PolicySource("GREENPERF"),
            )
            service = PlacementService(served_session.open_state())
            await service.start()
            report = await replay_trace(
                MINI_SWF, port=service.port, window=8, shutdown=True
            )
            await service.serve_until_shutdown()
            return report

        report = asyncio.run(scenario())
        assert list(report.nodes) == closed
        assert report.accepted == len(closed)

    def test_healthz_and_stats(self):
        async def scenario():
            service = make_service()
            await service.start()
            try:
                status, body = await request(service.port, "GET", "/healthz")
                assert (status, body) == (200, {"status": "ok"})
                await request(
                    service.port, "POST", "/submit", submit_payload(time=1.0)
                )
                status, stats = await request(service.port, "GET", "/stats")
                assert status == 200
                assert stats["admission"]["admitted"] == 1
                assert stats["state"]["decisions"] == 1
                assert stats["batches"]["count"] >= 1
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_malformed_and_unknown_requests(self):
        async def scenario():
            service = make_service()
            await service.start()
            try:
                status, body = await request(
                    service.port, "POST", "/submit", {"flop": 1e9}
                )
                assert status == 400
                assert "tenant" in body["error"]
                status, _ = await request(service.port, "GET", "/nowhere")
                assert status == 404
                status, _ = await request(service.port, "GET", "/submit")
                assert status == 405
            finally:
                await service.stop()

        asyncio.run(scenario())


class TestAdmissionOverHttp:
    def test_quota_exhaustion_returns_429_and_recovers_after_refill(self):
        async def scenario():
            service = make_service(quota_rate=1.0, quota_burst=2.0)
            await service.start()
            try:
                for _ in range(2):
                    status, body = await request(
                        service.port, "POST", "/submit", submit_payload(time=0.0)
                    )
                    assert (status, body["status"]) == (200, "accepted")
                status, body = await request(
                    service.port, "POST", "/submit", submit_payload(time=0.0)
                )
                assert status == 429
                assert body["status"] == "rejected"
                assert body["retry_after"] == pytest.approx(1.0)
                # one virtual second later a token has refilled
                status, body = await request(
                    service.port, "POST", "/submit", submit_payload(time=1.0)
                )
                assert (status, body["status"]) == (200, "accepted")
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_queue_overflow_sheds_with_503(self):
        async def scenario():
            service = PlacementService(
                served_state(),
                admission=AdmissionController(queue_limit=2),
                batch_window=0.2,  # hold the batch so the backlog must grow
            )
            await service.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", service.port
                )
                try:
                    for index in range(5):
                        writer.write(
                            render_request(
                                "POST", "/submit", submit_payload(time=float(index))
                            )
                        )
                    await writer.drain()
                    statuses = []
                    for _ in range(5):
                        status, body = await read_response(reader)
                        statuses.append((status, body["status"]))
                finally:
                    writer.close()
                    await writer.wait_closed()
                # 2 admitted fill the backlog; the rest shed 503 in order
                assert statuses == [
                    (200, "accepted"),
                    (200, "accepted"),
                    (503, "shed"),
                    (503, "shed"),
                    (503, "shed"),
                ]
                assert service.admission.totals()["shed"] == 3
            finally:
                await service.stop()

        asyncio.run(scenario())


class TestShutdown:
    def test_shutdown_endpoint_stops_the_daemon(self):
        async def scenario():
            service = make_service()
            await service.start()
            waiter = asyncio.create_task(service.serve_until_shutdown())
            status, body = await request(service.port, "POST", "/shutdown")
            assert (status, body["status"]) == (200, "ok")
            await asyncio.wait_for(waiter, timeout=5.0)
            # the socket is gone
            with pytest.raises(OSError):
                await asyncio.open_connection("127.0.0.1", service.port)

        asyncio.run(scenario())

    def test_submissions_during_shutdown_are_shed(self):
        async def scenario():
            service = make_service()
            await service.start()
            service.request_shutdown()
            status, body = await request(
                service.port, "POST", "/submit", submit_payload(time=0.0)
            )
            assert status == 503
            assert body["reason"] == "service shutting down"
            await service.stop()

        asyncio.run(scenario())

    def test_pending_submissions_are_answered_on_stop(self):
        async def scenario():
            service = PlacementService(
                served_state(),
                batch_window=30.0,  # far longer than the test: stop() must flush
            )
            await service.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
            try:
                writer.write(
                    render_request("POST", "/submit", submit_payload(time=0.0))
                )
                await writer.drain()
                await asyncio.sleep(0.05)  # let the daemon park the submission
                stop = asyncio.create_task(service.stop())
                status, body = await read_response(reader)
                assert (status, body["status"]) == (200, "accepted")
                assert body["node"] is not None
                await stop
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except ConnectionError:
                    pass

        asyncio.run(scenario())


class TestHostileInput:
    @pytest.mark.parametrize(
        "bad",
        [
            {"flop": -1},
            {"flop": math.nan},
            {"time": math.inf},
            {"preference": 2},
            {"service": ""},
        ],
    )
    def test_invalid_submission_is_a_400_that_leaves_state_untouched(self, bad, caplog):
        async def scenario():
            service = make_service()
            await service.start()
            try:
                totals = service.admission.totals()
                floor = service._clock_floor
                reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
                try:
                    writer.write(
                        render_request("POST", "/submit", {**submit_payload(time=5.0), **bad})
                    )
                    await writer.drain()
                    status, body = await answer(reader)
                    assert status == 400
                    assert next(iter(bad)) in body["error"]
                    assert service.admission.totals() == totals
                    assert service._clock_floor == floor
                    # the connection survives and the next valid submit is placed
                    writer.write(render_request("POST", "/submit", submit_payload(time=5.0)))
                    await writer.drain()
                    status, body = await answer(reader)
                    assert (status, body["status"]) == (200, "accepted")
                    assert body["node"] is not None
                finally:
                    writer.close()
                    await writer.wait_closed()
                stats = service.stats()
                assert stats["admission"]["admitted"] == stats["state"]["decisions"] == 1
            finally:
                await service.stop()

        with caplog.at_level(logging.ERROR, logger="asyncio"):
            asyncio.run(scenario())
        assert not caplog.records

    def test_oversized_head_closes_only_its_connection(self, caplog):
        async def scenario():
            service = make_service()
            await service.start()
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
                try:
                    writer.write(
                        b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * 70_000 + b"\r\n\r\n"
                    )
                    await writer.drain()
                    assert await asyncio.wait_for(reader.read(), timeout=5.0) == b""
                except ConnectionError:
                    pass  # the daemon closed with the rest of the head unread
                finally:
                    writer.close()
                    try:
                        await writer.wait_closed()
                    except ConnectionError:
                        pass
                status, body = await request(service.port, "GET", "/healthz")
                assert (status, body) == (200, {"status": "ok"})
            finally:
                await service.stop()

        with caplog.at_level(logging.ERROR, logger="asyncio"):
            asyncio.run(scenario())
        assert not caplog.records


#: One pipelined conversation: (method, path, payload) and the expected status.
PIPELINE = [
    (("POST", "/submit", submit_payload("a", time=0.0)), 200),
    (("GET", "/healthz", None), 200),
    (("POST", "/submit", submit_payload("b", time=1.0)), 200),
    (("GET", "/nowhere", None), 404),
    (("POST", "/submit", submit_payload("a", time=2.0)), 200),
    (("POST", "/submit", submit_payload("a", flop=-1.0, time=2.5)), 400),
    (("POST", "/submit", submit_payload("b", time=3.0)), 200),
    (("POST", "/submit", submit_payload("a", time=4.0)), 200),
    (("POST", "/submit", submit_payload("a", time=5.0)), 429),  # a's burst is spent
    (("GET", "/healthz", None), 200),
    (("POST", "/submit", submit_payload("b", time=6.0)), 200),
]


def pipeline_service(batch_window: float) -> PlacementService:
    return PlacementService(
        served_state(),
        admission=AdmissionController(quota_rate=1e-3, quota_burst=3.0),
        batch_window=batch_window,
    )


def outcome(response):
    status, body = response
    return status, body.get("status"), body.get("node"), "error" in body


class TestPipelining:
    def test_responses_keep_request_order_and_coalesce(self, monkeypatch):
        sends = []
        write = asyncio.StreamWriter.write

        def counting_write(self, data):
            if data.startswith(b"HTTP/1.1 "):
                sends.append(data.count(b"HTTP/1.1 "))
            return write(self, data)

        monkeypatch.setattr(asyncio.StreamWriter, "write", counting_write)

        async def pipelined():
            # The batch window holds every placement pending while the
            # inline answers behind it are already rendered.
            service = pipeline_service(batch_window=0.05)
            await service.start()
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
                writer.write(b"".join(render_request(*call) for call, _ in PIPELINE))
                await writer.drain()
                responses = [await answer(reader) for _ in PIPELINE]
                writer.close()
                await writer.wait_closed()
                return responses
            finally:
                await service.stop()

        async def one_at_a_time():
            service = pipeline_service(batch_window=0.0)
            await service.start()
            try:
                return [await request(service.port, *call) for call, _ in PIPELINE]
            finally:
                await service.stop()

        responses = asyncio.run(pipelined())
        assert sends == [len(PIPELINE)]  # one coalesced write for the burst
        assert [status for status, _ in responses] == [status for _, status in PIPELINE]
        assert responses[1][1] == responses[9][1] == {"status": "ok"}
        assert responses[8][1]["status"] == "rejected"
        task_ids = [body["task_id"] for _, body in responses if "task_id" in body]
        assert task_ids == sorted(task_ids) and len(task_ids) == 6
        window_1 = asyncio.run(one_at_a_time())
        assert [outcome(r) for r in responses] == [outcome(r) for r in window_1]


class TestCliDaemon:
    def test_repro_serve_keeps_no_execution_trace(self, monkeypatch, capsys):
        served = {}
        serve_until_shutdown = PlacementService.serve_until_shutdown

        async def replay_then_serve(self):
            served["service"] = self
            await replay_trace(MINI_SWF, port=self.port, limit=10, shutdown=True)
            await serve_until_shutdown(self)

        monkeypatch.setattr(PlacementService, "serve_until_shutdown", replay_then_serve)
        assert main(["serve", "--platform", "quick", "--port", "0"]) == 0
        state = served["service"].state
        assert state.snapshot()["decisions"] == 10
        assert len(state.simulation.trace) == 0
        assert "shut down cleanly" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--batch-window", "-1", "batch_window must be >= 0, got -1.0"),
            ("--queue-limit", "-1", "queue_limit must be >= 0, got -1"),
            ("--quota-burst", "0", "quota_burst must be positive, got 0.0"),
            (
                "--quota-burst",
                "0.5",
                "quota_burst must be >= 1 (a request spends one whole token), got 0.5",
            ),
            ("--quota-rate", "0", "quota_rate must be positive, got 0.0"),
        ],
    )
    def test_bad_daemon_settings_exit_2_without_listening(
        self, monkeypatch, capsys, flag, value, message
    ):
        async def never_listen(self):
            raise AssertionError("the daemon started listening")

        monkeypatch.setattr(PlacementService, "start", never_listen)
        assert main(["serve", "--platform", "quick", "--port", "0", flag, value]) == 2
        assert capsys.readouterr().err == f"repro serve: error: {message}\n"


def test_the_service_checks_its_batch_window():
    with pytest.raises(ValueError, match="batch_window must be >= 0"):
        PlacementService(served_state(), batch_window=-0.5)
