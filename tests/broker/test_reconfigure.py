"""The ``reconfigure`` RPC — service level and full TCP round-trips.

Also locks in the protocol-hygiene counters (``malformed_lines`` /
``oversized_requests``) the daemon reports through ``status``.
"""

from __future__ import annotations

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
from repro.broker.protocol import (
    MAX_LINE_BYTES,
    AllocateParams,
    ProtocolError,
    ReconfigureParams,
)

from tests.core.conftest import make_snapshot, make_view


def snapshot_of(loads, time=0.0):
    views = {n: make_view(n, load=v) for n, v in loads.items()}
    return make_snapshot(views, time=time)


@pytest.fixture
def world():
    """A mutable snapshot holder: tests flip loads between calls."""
    holder = {
        "snap": snapshot_of({f"n{i}": 0.5 if i <= 4 else 6.0
                             for i in range(1, 9)})
    }
    return holder


@pytest.fixture
def service(world, clock):
    return BrokerService(
        lambda: world["snap"], clock=clock, default_ttl_s=3600.0
    )


def allocate(service, n=8, ppn=4):
    result = service.allocate_batch([AllocateParams(n_processes=n, ppn=ppn)])[0]
    assert not isinstance(result, ProtocolError), result
    return result


def make_hot(world, nodes, time):
    """Saturate ``nodes``, idle everything else."""
    hot = set(nodes)
    world["snap"] = snapshot_of(
        {f"n{i}": 10.0 if f"n{i}" in hot else 0.2 for i in range(1, 9)},
        time=time,
    )


class TestServiceReconfigure:
    def test_drifted_lease_moves(self, service, world, clock):
        grant = allocate(service)
        make_hot(world, grant["nodes"], time=100.0)
        clock.advance(100.0)
        result = service.reconfigure(
            ReconfigureParams(lease_id=grant["lease_id"], remaining_s=36000.0)
        )
        assert result["reconfigured"] is True
        assert result["kind"] in ("migrate", "shrink", "expand", "rebalance")
        assert not (set(result["nodes"]) & set(grant["nodes"]))
        assert result["predicted_gain"] > 0
        assert result["benefit_s"] > result["cost_s"]
        assert result["reconfigs"] == 1
        assert result["hostfile"]
        # the lease table followed the plan
        lease = service.leases.get(grant["lease_id"])
        assert set(lease.nodes) == set(result["nodes"])
        assert service.leases.held_nodes() == set(result["nodes"])

    def test_already_best_stays_put(self, service, world, clock):
        """A job packed onto the single idle node has nowhere better."""
        world["snap"] = snapshot_of(
            {f"n{i}": 0.2 if i == 1 else 10.0 for i in range(1, 9)}
        )
        grant = allocate(service, n=8, ppn=8)
        assert grant["nodes"] == ["n1"]
        result = service.reconfigure(
            ReconfigureParams(lease_id=grant["lease_id"], remaining_s=36000.0)
        )
        assert result["reconfigured"] is False
        assert result["reason"]
        lease = service.leases.get(grant["lease_id"])
        assert set(lease.nodes) == {"n1"}

    def test_short_remaining_runtime_is_gated(self, service, world, clock):
        grant = allocate(service)
        make_hot(world, grant["nodes"], time=100.0)
        clock.advance(100.0)
        result = service.reconfigure(
            ReconfigureParams(lease_id=grant["lease_id"], remaining_s=30.0)
        )
        assert result["reconfigured"] is False
        assert result["reason"] == "job_nearly_done"

    def test_unknown_lease(self, service):
        with pytest.raises(ProtocolError) as err:
            service.reconfigure(ReconfigureParams(lease_id="L404"))
        assert err.value.code.value == "UNKNOWN_LEASE"

    def test_expired_lease(self, service, world, clock):
        grant = allocate(service)
        clock.advance(7200.0)  # past the 3600s TTL
        with pytest.raises(ProtocolError) as err:
            service.reconfigure(
                ReconfigureParams(lease_id=grant["lease_id"])
            )
        assert err.value.code.value == "EXPIRED_LEASE"
        assert service.leases.held_nodes() == frozenset()

    def test_expired_lease_reclaims_only_itself(self, service, clock):
        """An expired reconfigure reclaims and counts its own lease, as
        renew and release do; the sweeper reclaims and counts the rest,
        so ``expired`` counts every reclaimed lease once."""
        first = allocate(service, n=4)
        second = allocate(service, n=4)
        clock.advance(7200.0)  # both past the 3600s TTL
        with pytest.raises(ProtocolError) as err:
            service.reconfigure(ReconfigureParams(lease_id=first["lease_id"]))
        assert err.value.code.value == "EXPIRED_LEASE"
        assert [l.lease_id for l in service.leases.active()] == [
            second["lease_id"]
        ]
        assert service.metrics.expired == 1
        swept = service.sweep_expired()
        assert [l.lease_id for l in swept] == [second["lease_id"]]
        assert service.metrics.expired == 2

    def test_metrics_count_both_outcomes(self, service, world, clock):
        grant = allocate(service)
        service.reconfigure(  # stay-put
            ReconfigureParams(lease_id=grant["lease_id"], remaining_s=36000.0)
        )
        make_hot(world, grant["nodes"], time=100.0)
        clock.advance(100.0)
        service.reconfigure(  # move
            ReconfigureParams(lease_id=grant["lease_id"], remaining_s=36000.0)
        )
        m = service.status()["metrics"]
        assert m["reconfigured"] == 1
        assert m["reconfig_rejected"] == 1


class TestTCPRoundTrip:
    @pytest.fixture
    def daemon(self, world):
        service = BrokerService(lambda: world["snap"], default_ttl_s=3600.0)
        server = BrokerServer(service, port=0)
        with BrokerDaemonThread(server) as d:
            yield d

    def test_allocate_then_reconfigure(self, daemon, world):
        with BrokerClient(port=daemon.port) as client:
            grant = client.allocate(8, ppn=4, ttl_s=3600.0)
            make_hot(world, grant.nodes, time=100.0)
            result = client.reconfigure(
                grant.lease_id, remaining_s=36000.0
            )
            assert result["reconfigured"] is True
            assert result["hostfile"]
            assert not (set(result["nodes"]) & set(grant.nodes))
            # released and re-allocatable: the dropped nodes are free
            status = client.status()
            assert status["metrics"]["reconfigured"] == 1

    def test_reconfigure_unknown_lease_error_code(self, daemon):
        with BrokerClient(port=daemon.port) as client:
            with pytest.raises(BrokerError) as err:
                client.reconfigure("L404")
            assert err.value.code == "UNKNOWN_LEASE"


class TestProtocolHygieneCounters:
    @pytest.fixture
    def daemon(self, world):
        service = BrokerService(lambda: world["snap"], default_ttl_s=3600.0)
        server = BrokerServer(service, port=0)
        with BrokerDaemonThread(server) as d:
            yield d

    def _send_raw(self, port: int, payload: bytes) -> dict:
        with socket.create_connection(("127.0.0.1", port), timeout=10.0) as s:
            s.sendall(payload)
            f = s.makefile("rb")
            return json.loads(f.readline())

    def test_garbage_counts_as_malformed(self, daemon):
        reply = self._send_raw(daemon.port, b"this is not json\n")
        assert reply["ok"] is False
        assert reply["error"]["code"] == "BAD_REQUEST"
        m = BrokerClient(port=daemon.port).status()["metrics"]
        assert m["malformed_lines"] == 1
        assert m["oversized_requests"] == 0
        assert m["protocol_errors"] >= 1

    def test_oversized_line_counted_separately(self, daemon):
        big = json.dumps({
            "v": 1, "id": "x", "op": "status",
            "pad": "y" * (MAX_LINE_BYTES + 1024),
        }).encode() + b"\n"
        reply = self._send_raw(daemon.port, big)
        assert reply["ok"] is False
        m = BrokerClient(port=daemon.port).status()["metrics"]
        assert m["oversized_requests"] == 1
        assert m["malformed_lines"] == 0

    def test_valid_json_bad_schema_is_neither(self, daemon):
        """A parseable object with bad fields is a plain protocol error."""
        reply = self._send_raw(
            daemon.port, b'{"v": 1, "id": "x", "op": "frobnicate"}\n'
        )
        assert reply["ok"] is False
        m = BrokerClient(port=daemon.port).status()["metrics"]
        assert m["protocol_errors"] == 1
        assert m["malformed_lines"] == 0
        assert m["oversized_requests"] == 0
