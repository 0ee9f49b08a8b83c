"""A federation shard decides on the fleet snapshot, within its own nodes.

Every shard service sees the one snapshot the router scores; its scope
(the shard's node set) must bound every decision the service makes —
placements, the ``ppn`` capacity check, reconfiguration plans and the
§6 wait guard — and a quarantine shared by the shards must see the
fleet's live hosts, not one shard's share of them.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.broker.protocol import (
    AllocateParams,
    ErrorCode,
    ProtocolError,
    ReconfigureParams,
    ReleaseParams,
)
from repro.experiments.scenario import small_scenario
from repro.federation import (
    build_federation,
    snapshot_switches,
    subtree_partition,
)
from repro.monitor.quarantine import NodeQuarantine
from repro.monitor.snapshot import ClusterSnapshot
from tests.federation.conftest import TTL


def _with_load(
    snap: ClusterSnapshot, names, per_core: float
) -> ClusterSnapshot:
    """``snap`` with every CPU load mean of ``names`` at ``per_core`` × cores."""
    views = dict(snap.nodes)
    for name in names:
        view = views[name]
        load = per_core * view.cores
        views[name] = dataclasses.replace(
            view,
            cpu_load={key: load for key in view.cpu_load},
            cpu_util={key: min(100.0, 100.0 * per_core) for key in view.cpu_util},
        )
    return dataclasses.replace(snap, nodes=views)


@pytest.fixture
def world():
    """16 nodes in four 4-node subtrees, served from a swappable snapshot."""
    sc = small_scenario(16, seed=3, warmup_s=600.0)
    current = [sc.snapshot()]
    partition = subtree_partition(snapshot_switches(current[0]), 4)
    return sc, current, partition


def _federation(world, **kwargs):
    sc, current, partition = world
    return build_federation(
        lambda: current[0],
        partition,
        clock=lambda: sc.engine.now,
        default_ttl_s=TTL,
        **kwargs,
    )


def _grant(service, **kwargs):
    kwargs.setdefault("ttl_s", TTL)
    out = service.allocate_batch([AllocateParams(**kwargs)])[0]
    if isinstance(out, ProtocolError):
        raise out
    return out


class TestSharedQuarantine:
    def test_healthy_fleet_records_no_flap(self, world):
        """Shards feed the shared quarantine the fleet's live hosts.

        A shard that fed it only its own share of ``livehosts`` would
        make every other shard's nodes vanish at each of its decisions:
        12 false flaps in the first round, 12 healthy nodes quarantined
        after the third, and a fourth round that grants once, then
        answers ``NO_CAPACITY``.
        """
        sc, _, _ = world
        quarantine = NodeQuarantine(
            clock=lambda: sc.engine.now,
            flap_threshold=3,
            window_s=600.0,
            cooldown_s=900.0,
        )
        router = _federation(world, quarantine=quarantine)
        for _ in range(4):
            leases = [
                _grant(router, n_processes=8, ppn=2)["lease_id"]
                for _ in range(4)
            ]
            for lease_id in leases:
                router.release(ReleaseParams(lease_id=lease_id))
            assert quarantine.flaps_recorded == 0
            assert quarantine.quarantines == 0
            assert quarantine.excluded() == frozenset()


class TestShardScope:
    def test_reconfigure_plans_only_onto_own_nodes(self, world):
        _, current, partition = world
        router = _federation(world)
        service = router.shard("shard1").service
        own = set(partition["shard1"])
        lease = _grant(service, n_processes=4, ppn=2)
        # Every other shard's node idle, the lease's own nodes loaded:
        # unscoped, the planner would move the lease out of the shard.
        outside = [n for n in current[0].nodes if n not in own]
        current[0] = _with_load(
            _with_load(current[0], outside, 0.0), lease["nodes"], 3.0
        )
        out = service.reconfigure(
            ReconfigureParams(lease_id=lease["lease_id"], remaining_s=1e6)
        )
        assert out["reconfigured"] is True
        assert set(out["nodes"]) <= own
        assert set(out["nodes"]) != set(lease["nodes"])

    def test_wait_guard_averages_over_own_nodes(self, world):
        _, current, partition = world
        current[0] = _with_load(current[0], partition["shard1"], 3.0)
        router = _federation(world, wait_threshold_load_per_core=1.5)
        hot = router.shard("shard1").service
        out = hot.allocate_batch([AllocateParams(n_processes=4, ttl_s=TTL)])[0]
        assert isinstance(out, ProtocolError)
        assert out.code is ErrorCode.WAIT
        cool = _grant(router.shard("shard3").service, n_processes=4)
        assert set(cool["nodes"]) <= set(partition["shard3"])

    def test_ppn_capacity_counts_own_nodes(self, world):
        _, _, partition = world
        router = _federation(world)
        service = router.shard("shard2").service
        out = service.allocate_batch(
            [AllocateParams(n_processes=10, ppn=2, ttl_s=TTL)]
        )[0]
        assert isinstance(out, ProtocolError)
        assert out.code is ErrorCode.NO_CAPACITY
        assert out.message.endswith(
            f"on {len(partition['shard2'])} usable node(s)"
        )
