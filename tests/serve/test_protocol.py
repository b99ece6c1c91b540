"""Wire types and HTTP framing round-trips."""

import asyncio
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.serve.protocol import (
    ProtocolError,
    SubmitRequest,
    SubmitResponse,
    read_request,
    read_response,
    render_request,
    render_response,
)


def _reader_with(data: bytes) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    return reader


class TestSubmitRequest:
    def test_json_round_trip(self):
        request = SubmitRequest(
            tenant="alice", flop=2.5e9, time=12.0, client="c1",
            service="q1", preference=-0.5,
        )
        assert SubmitRequest.from_json(request.to_json()) == request

    def test_optional_fields_default(self):
        request = SubmitRequest.from_json({"tenant": "t", "flop": 1e9})
        assert request.time is None
        assert request.client is None
        assert request.service == "cpu-burn"
        assert request.preference == 0.0

    def test_to_task_carries_fields(self):
        request = SubmitRequest(tenant="t", flop=3e9, service="q2", preference=0.25)
        task = request.to_task(arrival_time=7.0)
        assert task.flop == 3e9
        assert task.arrival_time == 7.0
        assert task.client == "t"  # falls back to the tenant
        assert task.service == "q2"
        assert task.user_preference == 0.25

    @pytest.mark.parametrize(
        "payload",
        [
            "not an object",
            {},
            {"tenant": "t"},
            {"tenant": "", "flop": 1e9},
            {"tenant": "t", "flop": "many"},
        ],
    )
    def test_malformed_bodies_raise(self, payload):
        with pytest.raises(ProtocolError):
            SubmitRequest.from_json(payload)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("flop", -1),
            ("flop", 0),
            ("flop", math.nan),
            ("time", math.inf),
            ("time", -1.0),
            ("preference", 2),
            ("service", ""),
        ],
    )
    def test_fields_a_task_would_refuse_raise(self, field, value):
        payload = {"tenant": "t", "flop": 1e9, field: value}
        with pytest.raises(ProtocolError, match=field):
            SubmitRequest.from_json(payload)


class TestSubmitResponse:
    def test_json_round_trip(self):
        response = SubmitResponse(
            status="accepted", time=3.0, node="taurus-0", task_id=7
        )
        assert SubmitResponse.from_json(response.to_json()) == response

    def test_rejection_round_trip(self):
        response = SubmitResponse(
            status="rejected", time=1.0, reason="tenant quota exhausted",
            retry_after=4.5,
        )
        decoded = SubmitResponse.from_json(response.to_json())
        assert decoded == response
        assert not decoded.accepted

    def test_missing_status_raises(self):
        with pytest.raises(ProtocolError):
            SubmitResponse.from_json({"time": 1.0})


class TestHttpFraming:
    def test_request_round_trip(self):
        async def scenario():
            payload = {"tenant": "t", "flop": 1e9, "time": 2.0}
            reader = _reader_with(render_request("POST", "/submit", payload))
            request = await read_request(reader)
            assert request.method == "POST"
            assert request.path == "/submit"
            assert request.json() == payload
            assert await read_request(reader) is None  # clean EOF

        asyncio.run(scenario())

    def test_response_round_trip(self):
        async def scenario():
            body = {"status": "accepted", "node": "orion-0"}
            reader = _reader_with(render_response(200, body))
            status, decoded = await read_response(reader)
            assert status == 200
            assert decoded == body

        asyncio.run(scenario())

    def test_bodyless_request(self):
        async def scenario():
            reader = _reader_with(render_request("GET", "/healthz"))
            request = await read_request(reader)
            assert request.method == "GET"
            assert request.body == b""

        asyncio.run(scenario())

    def test_pipelined_requests_parse_in_order(self):
        async def scenario():
            data = render_request("POST", "/submit", {"tenant": "a", "flop": 1.0})
            data += render_request("POST", "/submit", {"tenant": "b", "flop": 2.0})
            reader = _reader_with(data)
            first = await read_request(reader)
            second = await read_request(reader)
            assert first.json()["tenant"] == "a"
            assert second.json()["tenant"] == "b"

        asyncio.run(scenario())

    @pytest.mark.parametrize(
        "raw",
        [
            b"BROKEN\r\n\r\n",
            b"GET /x HTTP/1.1\r\nbad header line\r\n\r\n",
            b"GET /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
            b"GET /x HTTP/1.1\r\nContent-Length: 9999999999\r\n\r\n",
        ],
    )
    def test_malformed_framing_raises(self, raw):
        async def scenario():
            with pytest.raises(ProtocolError):
                await read_request(_reader_with(raw))

        asyncio.run(scenario())

    def test_bare_lf_head_is_not_a_request(self):
        async def scenario():
            with pytest.raises(asyncio.IncompleteReadError):
                await read_request(_reader_with(b"GET /healthz HTTP/1.1\nHost: x\n\n"))

        asyncio.run(scenario())

    def test_head_over_the_reader_limit_raises(self):
        async def scenario():
            reader = asyncio.StreamReader(limit=1024)
            reader.feed_data(b"GET /x HTTP/1.1\r\nX-Pad: " + b"a" * 2048 + b"\r\n\r\n")
            reader.feed_eof()
            with pytest.raises(ProtocolError, match="size limit"):
                await read_request(reader)

        asyncio.run(scenario())


_METHODS = st.sampled_from(["GET", "POST", "PUT", "DELETE"])
_PATHS = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789-_/?=&.", max_size=24
).map(lambda tail: "/" + tail)
_PAYLOADS = st.none() | st.dictionaries(
    st.text(max_size=8),
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=16),
    max_size=4,
)
_MESSAGES = st.lists(st.tuples(_METHODS, _PATHS, _PAYLOADS), min_size=1, max_size=6)


def _expected(method, path, payload):
    body = b"" if payload is None else json.dumps(payload, separators=(",", ":")).encode()
    return method, path, body


async def _feed(reader, data, chunks):
    """Feed ``data`` in chunks of the given sizes, yielding between them."""
    offset, sizes = 0, iter(chunks)
    while offset < len(data):
        size = next(sizes, len(data))
        reader.feed_data(data[offset:offset + size])
        offset += size
        await asyncio.sleep(0)
    reader.feed_eof()


class TestFramingDifferential:
    @settings(max_examples=60, deadline=None)
    @given(messages=_MESSAGES, chunks=st.lists(st.integers(1, 97), max_size=40))
    def test_chunked_pipeline_parses_back(self, messages, chunks):
        wire = b"".join(render_request(*message) for message in messages)

        async def scenario():
            reader = asyncio.StreamReader()
            feeder = asyncio.create_task(_feed(reader, wire, chunks))
            parsed = []
            while (request := await read_request(reader)) is not None:
                parsed.append((request.method, request.path, request.body))
            await feeder
            return parsed

        assert asyncio.run(scenario()) == [_expected(*message) for message in messages]

    @settings(max_examples=60, deadline=None)
    @given(messages=_MESSAGES, data=st.data())
    def test_truncated_head_is_never_served(self, messages, data):
        wire = b"".join(render_request(*message) for message in messages)
        last = render_request(*messages[-1])
        head_length = last.index(b"\r\n\r\n") + 4
        cut = data.draw(st.integers(0, head_length - 1), label="cut")
        truncated = wire[: len(wire) - len(last) + cut]

        async def scenario():
            reader = _reader_with(truncated)
            for message in messages[:-1]:
                request = await read_request(reader)
                assert (request.method, request.path) == message[:2]
            try:
                tail = await read_request(reader)
            except asyncio.IncompleteReadError:
                return "incomplete"
            return tail

        outcome = asyncio.run(scenario())
        assert outcome == ("incomplete" if cut else None)
