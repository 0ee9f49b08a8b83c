"""Transport v2: ``hello`` negotiation and pipelining over JSON lines.

The ``hello`` verb is a *transport* op — answered by the connection
layer itself, with the granted mode applying only to requests after the
response.  JSON lines is the only wire format: a ``hello`` asking for
any other codec is refused and the connection keeps serving.  These
tests run the real daemon over loopback TCP: negotiation shapes,
refused codecs, pipelined bursts (including out-of-order completion and
window-overflow BUSY), transparent re-negotiation after reconnect, and
the chaos transport's honest JSON-only hello mirror.
"""

import asyncio
import json

import pytest

from repro.broker import (
    BrokerClient,
    BrokerDaemonThread,
    BrokerError,
    BrokerServer,
    BrokerService,
)
from repro.broker.protocol import PROTOCOL_VERSION
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
