"""Daemon + client library over real loopback TCP.

The round-trip tests run a daemon thread and the blocking client, like a
production caller would.  The backpressure test runs inside one asyncio
loop with the batcher deliberately paused, so the bounded admission
queue fills synchronously — deterministic, no timing races.
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
from repro.broker.protocol import (
    FEDERATION_OPS,
    OPS,
    PROTOCOL_VERSION,
    TRANSPORT_OPS,
)
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


class TestRoundTrip:
    def test_allocate_renew_release(self, client):
        grant = client.allocate(8, ppn=4, ttl_s=20.0)
        assert sum(grant.procs.values()) == 8
        assert grant.lease_id.startswith("L")
        assert grant.hostfile.endswith("\n")

        renewed = client.renew(grant.lease_id, ttl_s=40.0)
        assert renewed["ttl_s"] == 40.0 and renewed["renewals"] == 1

        released = client.release(grant.lease_id)
        assert released["released"] is True
        assert set(released["nodes"]) == set(grant.nodes)

    def test_double_release_is_structured_error(self, client):
        grant = client.allocate(4)
        client.release(grant.lease_id)
        with pytest.raises(BrokerError) as err:
            client.release(grant.lease_id)
        assert err.value.code == "UNKNOWN_LEASE"

    def test_unknown_lease_renew(self, client):
        with pytest.raises(BrokerError) as err:
            client.renew("L99999999")
        assert err.value.code == "UNKNOWN_LEASE"

    def test_status_counts_traffic(self, client):
        grant = client.allocate(4)
        client.release(grant.lease_id)
        status = client.status()
        assert status["protocol_version"] == PROTOCOL_VERSION
        assert status["metrics"]["granted"] >= 1
        assert status["metrics"]["batches"] >= 1
        assert status["snapshot"]["refreshes"] >= 1

    def test_two_clients_cannot_double_book(self, daemon):
        with BrokerClient(port=daemon.port) as c1, \
                BrokerClient(port=daemon.port) as c2:
            g1 = c1.allocate(8, ppn=4)
            g2 = c2.allocate(8, ppn=4)
            try:
                assert not set(g1.nodes) & set(g2.nodes)
            finally:
                c1.release(g1.lease_id)
                c2.release(g2.lease_id)

    def test_bad_params_rejected(self, client):
        with pytest.raises(BrokerError) as err:
            client.allocate(-1)
        assert err.value.code == "BAD_REQUEST"

    def test_unknown_policy_rejected(self, client):
        with pytest.raises(BrokerError) as err:
            client.allocate(4, policy="first_fit")
        assert err.value.code == "BAD_REQUEST"

    def test_connect_failure_is_structured(self):
        client = BrokerClient(
            port=1, timeout_s=1.0, connect_retries=1, retry_delay_s=0.01
        )
        with pytest.raises(BrokerError) as err:
            client.status()
        assert err.value.code == "CONNECT"


class TestWireLevel:
    """Raw socket conversations (malformed input, versioning)."""

    def _talk(self, daemon, payload: bytes) -> dict:
        import socket

        with socket.create_connection(("127.0.0.1", daemon.port), 5.0) as s:
            s.sendall(payload)
            buf = s.makefile("rb").readline()
        return json.loads(buf)

    def test_malformed_json_answered_not_dropped(self, daemon):
        obj = self._talk(daemon, b"this is not json\n")
        assert obj["ok"] is False
        assert obj["error"]["code"] == "BAD_REQUEST"

    def test_wrong_version_rejected(self, daemon):
        line = json.dumps({"v": 999, "id": "x", "op": "status"}) + "\n"
        obj = self._talk(daemon, line.encode())
        assert obj["error"]["code"] == "UNSUPPORTED_VERSION"
        assert obj["id"] == "x"  # id is salvaged for correlation

    # the fleet verbs are retired: a daemon must deny them like any typo
    @pytest.mark.parametrize("op", ["defrag", "fleet_plan", "fleet_status"])
    def test_unknown_op_rejected(self, daemon, op):
        line = json.dumps({"v": 1, "id": "y", "op": op}) + "\n"
        obj = self._talk(daemon, line.encode())
        assert obj["error"]["code"] == "UNKNOWN_OP"
        listed = obj["error"]["message"].split("choose from ")[1]
        assert listed == str(OPS + FEDERATION_OPS + TRANSPORT_OPS)

    # a single broker does not serve the federation scope
    @pytest.mark.parametrize("op", FEDERATION_OPS)
    def test_router_verbs_need_a_federation_daemon(self, daemon, op):
        line = json.dumps({
            "v": 1, "id": "r", "op": op, "params": {"lease_id": "L00000001"},
        }) + "\n"
        obj = self._talk(daemon, line.encode())
        assert obj["id"] == "r" and obj["ok"] is False
        assert obj["error"]["code"] == "UNKNOWN_OP"
        assert "federation daemon" in obj["error"]["message"]


class TestBackpressure:
    def test_busy_when_admission_queue_full(self, scenario):
        """With the batcher paused, queue slot 1 fills; request 2 → BUSY."""

        async def scenario_run():
            source = CachedSnapshotSource(scenario.snapshot, max_age_s=1e9)
            service = BrokerService(source)
            server = BrokerServer(service, port=0, max_queue=1)
            await server.start(start_batcher=False, start_sweeper=False)
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                req = {"v": 1, "id": "a1", "op": "allocate", "params": {"n": 4}}
                writer.write((json.dumps(req) + "\n").encode())
                req2 = dict(req, id="a2")
                # A second connection: the first one's handler is awaiting
                # its (never-decided) response and won't read more lines.
                reader2, writer2 = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer2.write((json.dumps(req2) + "\n").encode())
                line = await asyncio.wait_for(reader2.readline(), timeout=5.0)
                obj = json.loads(line)
                assert obj["id"] == "a2"
                assert obj["ok"] is False
                assert obj["error"]["code"] == "BUSY"
                assert service.metrics.busy_rejected == 1
                writer.close()
                writer2.close()
            finally:
                await server.stop()

        asyncio.run(scenario_run())

    def test_queue_drains_after_batcher_resumes(self, scenario):
        """BUSY is backpressure, not failure: capacity returns."""

        async def scenario_run():
            source = CachedSnapshotSource(scenario.snapshot, max_age_s=1e9)
            service = BrokerService(source)
            server = BrokerServer(service, port=0, max_queue=1)
            await server.start(start_batcher=True, start_sweeper=False)
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                req = {"v": 1, "id": "b1", "op": "allocate", "params": {"n": 4}}
                writer.write((json.dumps(req) + "\n").encode())
                line = await asyncio.wait_for(reader.readline(), timeout=5.0)
                obj = json.loads(line)
                assert obj["ok"] is True, obj
                writer.close()
            finally:
                await server.stop()

        asyncio.run(scenario_run())
