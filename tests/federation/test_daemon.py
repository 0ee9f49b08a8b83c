"""FederationDaemon + client over real loopback TCP.

The router rides behind the unchanged ``BrokerServer`` transport; the
daemon subclass only adds the ``shards`` and ``resolve`` dispatch
branches.  These tests drive the full wire path — framing, batching,
typed errors — the way a production client would.
"""

from __future__ import annotations

import pytest

from repro.broker import BrokerClient, BrokerDaemonThread, BrokerError
from repro.broker.protocol import PROTOCOL_VERSION
from repro.experiments.scenario import small_scenario
from repro.federation import (
    FederationDaemon,
    build_federation,
    snapshot_switches,
    subtree_partition,
)
from repro.monitor.snapshot import CachedSnapshotSource


@pytest.fixture(scope="module")
def daemon():
    sc = small_scenario(16, seed=7, warmup_s=600.0)
    source = CachedSnapshotSource(sc.snapshot, max_age_s=1e9)
    partition = subtree_partition(snapshot_switches(source()), 2)
    router = build_federation(source, partition, default_ttl_s=60.0)
    server = FederationDaemon(router, port=0)
    with BrokerDaemonThread(server) as d:
        yield d


@pytest.fixture
def client(daemon):
    with BrokerClient(port=daemon.port, timeout_s=10.0) as c:
        yield c


class TestFederatedRoundTrip:
    def test_allocate_renew_release(self, client):
        grant = client.allocate(4, ttl_s=30.0)
        assert ":" in grant.lease_id  # namespaced by the owning shard
        assert sum(grant.procs.values()) == 4
        renewed = client.renew(grant.lease_id, ttl_s=45.0)
        assert renewed["renewals"] == 1
        released = client.release(grant.lease_id)
        assert released["released"] is True
        assert set(released["nodes"]) == set(grant.nodes)

    def test_shards_verb(self, client):
        shards = client.shards()
        rows = {r["shard"]: r for r in shards["shards"]}
        assert set(rows) == {"shard1", "shard2"}
        for row in rows.values():
            assert row["alive"] is True
            assert row["usable_nodes"] > 0
            assert "score" in row
        assert "counters" in shards

    def test_resolve_verb(self, client):
        grant = client.allocate(2, ttl_s=30.0)
        sid = grant.lease_id.split(":")[0]
        resolved = client.resolve(grant.lease_id)
        assert resolved["cross_shard"] is False
        assert resolved["shard"] == sid
        assert resolved["active"] is True
        client.release(grant.lease_id)

    def test_resolve_unknown_is_typed(self, client):
        with pytest.raises(BrokerError) as err:
            client.resolve("nowhere:L00000042")
        assert err.value.code == "UNKNOWN_LEASE"

    def test_status_reports_federation(self, client):
        status = client.status()
        assert status["protocol_version"] == PROTOCOL_VERSION
        assert status["policy"] == "federated"
        assert set(status["federation"]["shards"]) == {"shard1", "shard2"}


def _cross_shard_n(client) -> int:
    """More processes than the largest shard holds free, fewer than all."""
    frees = sorted(row["free_procs"] for row in client.shards()["shards"])
    return frees[-1] + max(2, frees[0] // 4)


class TestGrantFields:
    """The client keeps what a federation grant says."""

    def test_cross_shard_grant_names_its_member_shards(self, client):
        grant = client.allocate(_cross_shard_n(client), ttl_s=30.0)
        try:
            assert grant.lease_id.startswith("x:")
            assert grant.shards is not None and len(grant.shards) >= 2
            assert set(grant.shards) <= {"shard1", "shard2"}
            assert all(grant.shards.values())
            assert grant.snapshot_time is not None
        finally:
            client.release(grant.lease_id)

    def test_single_shard_grant_has_no_members(self, client):
        grant = client.allocate(2, ttl_s=30.0)
        try:
            assert grant.shards is None
            assert grant.snapshot_time is not None
            assert grant.total_cost is not None
            assert grant.compute_cost is not None
            assert grant.network_cost is not None
        finally:
            client.release(grant.lease_id)

    def test_cli_json_prints_them(self, daemon, client, capsys):
        import json

        from repro.cli import main

        n = _cross_shard_n(client)
        rc = main(["client", "--port", str(daemon.port), "allocate",
                   "-n", str(n), "--ttl-s", "30", "--json"])
        assert rc == 0
        grant = json.loads(capsys.readouterr().out)
        try:
            assert grant["lease_id"].startswith("x:")
            assert len(grant["shards"]) >= 2
            for key in ("snapshot_time", "total_cost", "compute_cost",
                        "network_cost"):
                assert key in grant
        finally:
            client.release(grant["lease_id"])
