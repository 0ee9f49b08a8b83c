"""Transport v2: ``hello`` negotiation and pipelining over JSON lines.

The ``hello`` verb is a *transport* op — answered by the connection
layer itself, with the granted mode applying only to requests after the
response.  JSON lines is the only wire format: a ``hello`` asking for
any other codec is refused and the connection keeps serving.  These
tests run the real daemon over loopback TCP: negotiation shapes,
refused codecs, pipelined bursts (including out-of-order completion and
window-overflow BUSY), transparent re-negotiation after reconnect, the
chaos transport's honest JSON-only hello mirror, and the rules of the
task-free transport: no task per request, one batch per burst, strict
alternation without pipelining, framing limits, shutdown answers and
flow control.
"""

import asyncio
import json
import socket

import pytest

from repro.broker import (
    BrokerClient,
    BrokerDaemonThread,
    BrokerError,
    BrokerServer,
    BrokerService,
)
from repro.broker.protocol import MAX_LINE_BYTES, PROTOCOL_VERSION
from repro.chaos.transport import ScriptedSocketFactory
from repro.monitor.snapshot import CachedSnapshotSource


@pytest.fixture(scope="module")
def daemon(scenario):
    source = CachedSnapshotSource(scenario.snapshot, max_age_s=1e9)
    service = BrokerService(source, default_ttl_s=30.0)
    server = BrokerServer(service, port=0)
    with BrokerDaemonThread(server) as d:
        yield d


@pytest.fixture
def client(daemon):
    with BrokerClient(port=daemon.port, timeout_s=10.0) as c:
        yield c


class TestHelloNegotiation:
    def test_default_hello_shape(self, client):
        result = client.hello()
        assert result["codec"] == "json"
        assert result["pipeline"] is False
        assert result["max_inflight"] == 1
        assert result["protocol_version"] == PROTOCOL_VERSION
        assert result["codecs"] == ["json"]

    @pytest.mark.parametrize("codec", ["binary", "msgpack", "zstd"])
    def test_unsupported_codec_rejected_connection_survives(self, client, codec):
        with pytest.raises(BrokerError) as err:
            client.call("hello", {"codec": codec})
        assert err.value.code == "BAD_REQUEST"
        assert err.value.message == (
            f"unsupported codec {codec!r}; server offers ['json']"
        )
        # the hello error did not upgrade anything: same connection,
        # still JSON lines, still serving — and so does a reconnect
        assert client.status()["protocol_version"] == PROTOCOL_VERSION
        client.close()
        assert client.status()["protocol_version"] == PROTOCOL_VERSION

    def test_hello_before_connect_negotiates_on_connect(self, daemon):
        client = BrokerClient(port=daemon.port, timeout_s=10.0)
        try:
            result = client.hello(pipeline=True, max_inflight=4)
            assert result["codec"] == "json"
            assert result["pipeline"] is True
            assert result["max_inflight"] == 4
        finally:
            client.close()

    def test_window_capped_by_server_queue(self, client):
        # 1024 is the protocol's hard validation cap; the server then
        # grants no more than its own admission-queue depth (128 default)
        result = client.hello(pipeline=True, max_inflight=1024)
        assert result["max_inflight"] == 128
        with pytest.raises(BrokerError) as err:
            client.hello(pipeline=True, max_inflight=100_000)
        assert err.value.code == "BAD_REQUEST"

    def test_refused_hello_keeps_the_granted_negotiation(self, client):
        client.hello(pipeline=True, max_inflight=4)
        with pytest.raises(BrokerError) as err:
            client.hello(pipeline=True, max_inflight=100_000)
        assert err.value.code == "BAD_REQUEST"
        client.close()  # simulate transport death
        # the reconnect replays the last *granted* hello, not the refused one
        assert client.status()["protocol_version"] == PROTOCOL_VERSION
        assert client._pipeline is True and client._max_inflight == 4

    def test_refused_first_hello_leaves_reconnects_plain(self, client):
        with pytest.raises(BrokerError):
            client.hello(pipeline=True, max_inflight=0)
        client.close()
        assert client.status()["protocol_version"] == PROTOCOL_VERSION
        assert client._pipeline is False


class TestPipelinedBursts:
    def test_call_many_requires_negotiation(self, client):
        with pytest.raises(BrokerError) as err:
            client.call_many("status", [None])
        assert err.value.code == "BAD_REQUEST"

    def test_status_burst_exceeding_window(self, client):
        client.hello(pipeline=True, max_inflight=8)
        results = client.call_many("status", [None] * 20)
        assert len(results) == 20
        for r in results:
            assert not isinstance(r, BrokerError)
            assert r["protocol_version"] == PROTOCOL_VERSION

    def test_allocate_burst_mixes_grants_and_errors(self, client):
        client.hello(pipeline=True, max_inflight=8)
        results = client.call_many(
            "allocate",
            [{"n": 4, "ppn": 4}, {"n": -1}, {"n": 4, "ppn": 4}],
        )
        good = [r for r in results if not isinstance(r, BrokerError)]
        bad = [r for r in results if isinstance(r, BrokerError)]
        assert len(good) == 2 and len(bad) == 1
        assert isinstance(results[1], BrokerError)
        assert bad[0].code == "BAD_REQUEST"
        granted = {n for r in good for n in r["nodes"]}
        assert len(granted) == sum(len(r["nodes"]) for r in good)  # disjoint
        for r in good:
            client.release(r["lease_id"])

    def test_empty_burst(self, client):
        client.hello(pipeline=True)
        assert client.call_many("status", []) == []


class TestReconnectRenegotiation:
    def test_reconnect_replays_negotiation(self, client):
        client.hello(pipeline=True, max_inflight=4)
        client.close()  # simulate transport death
        # plain call reconnects; connect() must replay the negotiation
        # before this request goes out
        assert client.status()["protocol_version"] == PROTOCOL_VERSION
        assert client._pipeline is True and client._max_inflight == 4
        results = client.call_many("status", [None] * 3)
        assert all(not isinstance(r, BrokerError) for r in results)

    def test_call_many_right_after_transport_death(self, client):
        client.hello(pipeline=True, max_inflight=4)
        client.close()  # simulate transport death
        # call_many itself reconnects, which replays the pipelining
        results = client.call_many("status", [None] * 6)
        assert len(results) == 6
        assert all(not isinstance(r, BrokerError) for r in results)


class TestWireLevelPipelining:
    """Raw asyncio conversations pinning server-side semantics."""

    def test_inline_ops_overtake_pending_allocates(self, scenario):
        """Out-of-order by design: status answers while allocate batches."""

        async def run():
            source = CachedSnapshotSource(scenario.snapshot, max_age_s=1e9)
            service = BrokerService(source)
            # a generous straggler window keeps the allocate undecided
            # long enough that ordering is deterministic
            server = BrokerServer(service, port=0, batch_window_s=0.5)
            await server.start(start_sweeper=False)
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                hello = {
                    "v": 1, "id": "h", "op": "hello",
                    "params": {"pipeline": True, "max_inflight": 8},
                }
                writer.write((json.dumps(hello) + "\n").encode())
                obj = json.loads(await asyncio.wait_for(reader.readline(), 5.0))
                assert obj["ok"] is True
                alloc = {
                    "v": 1, "id": "slow", "op": "allocate",
                    "params": {"n": 4},
                }
                status = {"v": 1, "id": "fast", "op": "status"}
                writer.write(
                    (json.dumps(alloc) + "\n" + json.dumps(status) + "\n").encode()
                )
                first = json.loads(
                    await asyncio.wait_for(reader.readline(), 5.0)
                )
                second = json.loads(
                    await asyncio.wait_for(reader.readline(), 5.0)
                )
                assert first["id"] == "fast"  # overtook the batching allocate
                assert second["id"] == "slow" and second["ok"] is True
                writer.close()
            finally:
                await server.stop()

        asyncio.run(run())

    def test_window_overflow_answers_busy(self, scenario):
        """The (N+1)-th in-flight allocate is refused, not queued."""

        async def run():
            source = CachedSnapshotSource(scenario.snapshot, max_age_s=1e9)
            service = BrokerService(source)
            server = BrokerServer(service, port=0)
            # batcher paused: pipelined allocates stay in flight forever
            await server.start(start_batcher=False, start_sweeper=False)
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                hello = {
                    "v": 1, "id": "h", "op": "hello",
                    "params": {"pipeline": True, "max_inflight": 2},
                }
                writer.write((json.dumps(hello) + "\n").encode())
                obj = json.loads(await asyncio.wait_for(reader.readline(), 5.0))
                assert obj["result"]["max_inflight"] == 2
                for rid in ("a1", "a2", "a3"):
                    req = {
                        "v": 1, "id": rid, "op": "allocate",
                        "params": {"n": 4},
                    }
                    writer.write((json.dumps(req) + "\n").encode())
                busy = json.loads(
                    await asyncio.wait_for(reader.readline(), 5.0)
                )
                assert busy["id"] == "a3"
                assert busy["error"]["code"] == "BUSY"
                assert "pipeline window" in busy["error"]["message"]
                assert service.metrics.busy_rejected == 1
                writer.close()
            finally:
                await server.stop()

        asyncio.run(run())

    def test_binary_hello_refused_on_the_wire(self, scenario):
        """A non-JSON codec is refused in a JSON line; the socket stays open."""

        async def run():
            source = CachedSnapshotSource(scenario.snapshot, max_age_s=1e9)
            service = BrokerService(source)
            server = BrokerServer(service, port=0, max_queue=4)
            await server.start(start_sweeper=False)
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                hello = {
                    "v": 1, "id": "h", "op": "hello",
                    "params": {"codec": "binary"},
                }
                status = {"v": 1, "id": "s1", "op": "status"}
                writer.write(
                    (json.dumps(hello) + "\n" + json.dumps(status) + "\n").encode()
                )
                refused = json.loads(
                    await asyncio.wait_for(reader.readline(), 5.0)
                )
                assert refused["id"] == "h" and refused["ok"] is False
                assert refused["error"]["code"] == "BAD_REQUEST"
                response = json.loads(
                    await asyncio.wait_for(reader.readline(), 5.0)
                )
                assert response["id"] == "s1" and response["ok"] is True
                writer.close()
            finally:
                await server.stop()

        asyncio.run(run())


class TestChaosTransportMirror:
    def test_chaos_hello_grants_json_only(self, scenario, clock):
        source = CachedSnapshotSource(
            scenario.snapshot, max_age_s=1e9, clock=clock
        )
        service = BrokerService(source, clock=clock)
        factory = ScriptedSocketFactory(service)
        client = BrokerClient(socket_factory=factory, connect_retries=0)
        result = client.hello()
        assert result == {
            "codec": "json",
            "pipeline": False,
            "max_inflight": 1,
            "codecs": ["json"],
            "protocol_version": PROTOCOL_VERSION,
        }
        assert client.status()["protocol_version"] == PROTOCOL_VERSION

    def test_chaos_hello_refuses_upgrades(self, scenario, clock):
        source = CachedSnapshotSource(
            scenario.snapshot, max_age_s=1e9, clock=clock
        )
        service = BrokerService(source, clock=clock)
        client = BrokerClient(
            socket_factory=ScriptedSocketFactory(service), connect_retries=0
        )
        with pytest.raises(BrokerError) as err:
            client.call("hello", {"codec": "binary"})
        assert err.value.code == "BAD_REQUEST"
        with pytest.raises(BrokerError) as err:
            client.hello(pipeline=True)
        assert err.value.code == "BAD_REQUEST"


def _line(rid, op, params=None):
    req = {"v": 1, "id": rid, "op": op}
    if params is not None:
        req["params"] = params
    return (json.dumps(req) + "\n").encode()


async def _serving(scenario, *, start_batcher=True):
    """A started daemon on a fresh service over the shared scenario."""
    source = CachedSnapshotSource(scenario.snapshot, max_age_s=1e9)
    server = BrokerServer(BrokerService(source), port=0)
    await server.start(start_batcher=start_batcher, start_sweeper=False)
    return server


async def _pipelined(port, *, sock=None):
    """A connection that has negotiated an 8-deep pipeline."""
    if sock is None:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
    else:
        reader, writer = await asyncio.open_connection(sock=sock)
    writer.write(_line("h", "hello", {"pipeline": True, "max_inflight": 8}))
    reply = json.loads(await asyncio.wait_for(reader.readline(), 5.0))
    assert reply["ok"] is True, reply
    return reader, writer


class TestTaskFreeTransport:
    """Semantics of the per-connection protocol and its batch callback."""

    def test_burst_creates_no_tasks(self, scenario):
        """Serving six pipelined allocates and a status starts no task."""

        async def run():
            server = await _serving(scenario)
            try:
                reader, writer = await _pipelined(server.port)
                loop = asyncio.get_running_loop()
                created = []

                def factory(loop, coro, **kwargs):
                    created.append(getattr(coro, "__qualname__", repr(coro)))
                    return asyncio.Task(coro, loop=loop, **kwargs)

                loop.set_task_factory(factory)
                try:
                    writer.write(b"".join(
                        [_line(f"a{i}", "allocate", {"n": 2}) for i in range(6)]
                        + [_line("s", "status")]
                    ))
                    # plain awaits: wait_for would start a task of its own
                    replies = [json.loads(await reader.readline()) for _ in range(7)]
                finally:
                    loop.set_task_factory(None)
                assert created == []
                assert sorted(r["id"] for r in replies) == ["a0", "a1", "a2", "a3", "a4", "a5", "s"]
                assert all(r["ok"] for r in replies), replies
                writer.close()
            finally:
                await server.stop()

        asyncio.run(asyncio.wait_for(run(), 30.0))

    def test_one_write_burst_is_one_batch(self, scenario):
        async def run():
            server = await _serving(scenario)
            try:
                reader, writer = await _pipelined(server.port)
                writer.write(b"".join(
                    _line(f"a{i}", "allocate", {"n": 2}) for i in range(6)
                ))
                for _ in range(6):
                    reply = json.loads(await asyncio.wait_for(reader.readline(), 5.0))
                    assert reply["ok"] is True, reply
                assert dict(server.service.metrics.batch_size_hist) == {6: 1}
                writer.close()
            finally:
                await server.stop()

        asyncio.run(run())

    def test_unpipelined_allocate_then_status_answer_in_order(self, scenario):
        async def run():
            server = await _serving(scenario)
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(_line("a", "allocate", {"n": 2}) + _line("s", "status"))
                first = json.loads(await asyncio.wait_for(reader.readline(), 5.0))
                second = json.loads(await asyncio.wait_for(reader.readline(), 5.0))
                assert first["id"] == "a" and first["ok"] is True, first
                assert second["id"] == "s" and second["ok"] is True, second
                writer.close()
            finally:
                await server.stop()

        asyncio.run(run())

    def test_line_past_stream_limit_closes_after_one_reply(self, scenario):
        async def run():
            server = await _serving(scenario)
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(b"x" * (4 * MAX_LINE_BYTES + 2) + b"\n")
                reply = json.loads(await asyncio.wait_for(reader.readline(), 5.0))
                assert reply["ok"] is False
                assert reply["error"]["code"] == "BAD_REQUEST"
                assert await asyncio.wait_for(reader.read(), 5.0) == b""  # EOF
                metrics = server.service.metrics
                assert metrics.oversized_requests == 1
                assert metrics.protocol_errors == 1
                writer.close()
            finally:
                await server.stop()

        asyncio.run(run())

    def test_line_between_limits_is_refused_and_connection_serves(self, scenario):
        async def run():
            server = await _serving(scenario)
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                big = _line("big", "status", {"pad": "y" * (2 * MAX_LINE_BYTES)})
                assert MAX_LINE_BYTES < len(big) < 4 * MAX_LINE_BYTES
                writer.write(big + _line("s", "status"))
                refused = json.loads(await asyncio.wait_for(reader.readline(), 5.0))
                assert refused["ok"] is False
                assert refused["error"]["code"] == "BAD_REQUEST"
                assert "exceeds" in refused["error"]["message"]
                served = json.loads(await asyncio.wait_for(reader.readline(), 5.0))
                assert served["id"] == "s" and served["ok"] is True
                assert server.service.metrics.oversized_requests == 1
                writer.close()
            finally:
                await server.stop()

        asyncio.run(run())

    def test_full_batch_does_not_wait_out_the_window(self, scenario):
        """A straggler window ends early once ``max_batch`` requests queue."""

        async def run():
            source = CachedSnapshotSource(scenario.snapshot, max_age_s=1e9)
            server = BrokerServer(
                BrokerService(source), port=0, batch_window_s=30.0, max_batch=2
            )
            await server.start(start_sweeper=False)
            try:
                reader, writer = await _pipelined(server.port)
                writer.write(
                    _line("a0", "allocate", {"n": 2}) + _line("a1", "allocate", {"n": 2})
                )
                for _ in range(2):
                    reply = json.loads(await asyncio.wait_for(reader.readline(), 5.0))
                    assert reply["ok"] is True, reply
                assert dict(server.service.metrics.batch_size_hist) == {2: 1}
                writer.close()
            finally:
                await server.stop()

        asyncio.run(run())

    def test_stop_answers_queued_allocates_internal(self, scenario):
        async def run():
            server = await _serving(scenario, start_batcher=False)
            try:
                reader, writer = await _pipelined(server.port)
                writer.write(b"".join(
                    [_line(f"a{i}", "allocate", {"n": 2}) for i in range(3)]
                    + [_line("s", "status")]
                ))
                # the status answers inline; the allocates stay queued
                reply = json.loads(await asyncio.wait_for(reader.readline(), 5.0))
                assert reply["id"] == "s"
            finally:
                await server.stop()
            replies = [
                json.loads(await asyncio.wait_for(reader.readline(), 5.0))
                for _ in range(3)
            ]
            assert sorted(r["id"] for r in replies) == ["a0", "a1", "a2"]
            for r in replies:
                assert r["error"] == {
                    "code": "INTERNAL", "message": "server shutting down",
                }
            assert server.service.metrics.batches == 0
            writer.close()

        asyncio.run(run())

    def test_reader_that_stops_reading_backs_up_its_own_writes(self, scenario):
        """Flow control: the daemon stops reading a peer that does not
        read its replies, so the peer's own writes queue on its side;
        every reply then arrives, in order."""

        def small_buffers(sock):
            # locked socket buffers, so kernel autotuning cannot absorb
            # the backlog; an accepted socket inherits its listener's
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)

        async def run():
            server = await _serving(scenario)
            try:
                small_buffers(server._server.sockets[0])
                sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                small_buffers(sock)
                sock.setblocking(False)
                await asyncio.get_running_loop().sock_connect(
                    sock, ("127.0.0.1", server.port)
                )
                reader, writer = await _pipelined(server.port, sock=sock)
                requests = server.service.metrics.requests_by_op
                ids = [f"s{i}-" + "x" * 1000 for i in range(1000)]
                writer.write(b"".join(_line(rid, "status") for rid in ids))
                served = -1
                for _ in range(100):  # until the daemon stops serving, ≤ 5 s
                    await asyncio.sleep(0.05)
                    if requests["status"] == served:
                        break
                    served = requests["status"]
                assert served < len(ids)  # it stopped short: it stopped reading
                assert writer.transport.get_write_buffer_size() > 0
                for rid in ids:
                    reply = json.loads(await asyncio.wait_for(reader.readline(), 5.0))
                    assert reply["ok"] is True
                    assert reply["id"] == rid
                writer.close()
            finally:
                await server.stop()

        asyncio.run(run())
